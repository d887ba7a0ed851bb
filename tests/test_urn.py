"""Tests for the treelet urn: uniformity, shape restriction, and the
reference sampler's neighbor buffering."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.urn import TreeletUrn
from repro.exact.brute import brute_force_colorful_treelet_total
from repro.graph.generators import complete_graph, erdos_renyi, star_graph
from repro.graph.graph import Graph
from repro.treelets.encoding import canonical_free, encode_parent_vector
from repro.util.instrument import Instrumentation
from support.reference import ScalarSampler


def make_urn(graph, k, seed, **kwargs):
    coloring = ColoringScheme.uniform(graph.num_vertices, k, rng=seed)
    table = build_table(graph, coloring)
    return TreeletUrn(graph, table, coloring, **kwargs)


class TestTotals:
    def test_total_matches_brute_force(self):
        graph = erdos_renyi(14, 30, rng=1)
        k = 4
        coloring = ColoringScheme.uniform(14, k, rng=2)
        table = build_table(graph, coloring)
        urn = TreeletUrn(graph, table, coloring)
        assert urn.total_treelets == pytest.approx(
            brute_force_colorful_treelet_total(graph, k, coloring)
        )

    def test_shape_totals_sum_to_total(self):
        urn = make_urn(erdos_renyi(20, 50, rng=3), 4, seed=4)
        total = sum(
            urn.shape_total(shape) for shape in urn.registry.free_shapes
        )
        assert total == pytest.approx(urn.total_treelets)

    def test_empty_urn_raises(self):
        # Two isolated vertices can never host a colorful 3-treelet.
        from repro.graph.graph import Graph

        graph = Graph.from_edges([(0, 1)], n=2)
        coloring = ColoringScheme.fixed([0, 1], k=3)
        table = build_table(graph, coloring)
        with pytest.raises(SamplingError, match="urn is empty"):
            TreeletUrn(graph, table, coloring)


class TestSampleValidity:
    def test_samples_are_colorful_connected_trees(self, rng):
        graph = erdos_renyi(25, 60, rng=5)
        k = 4
        coloring = ColoringScheme.uniform(25, k, rng=6)
        table = build_table(graph, coloring)
        urn = TreeletUrn(graph, table, coloring)
        batch, _treelets, _masks = urn.sample_batch(300, rng)
        for vertices in batch.tolist():
            assert len(vertices) == k
            assert len(set(vertices)) == k
            colors = {int(coloring.colors[v]) for v in vertices}
            assert len(colors) == k  # colorful
            # Vertices span a connected subgraph (a tree copy exists).
            sub = graph.subgraph(vertices)
            assert sub.is_connected()

    def test_root_is_color_zero_under_zero_rooting(self, rng):
        graph = erdos_renyi(25, 60, rng=7)
        coloring = ColoringScheme.uniform(25, 4, rng=8)
        table = build_table(graph, coloring, zero_rooting=True)
        urn = TreeletUrn(graph, table, coloring)
        vertices, _, _ = urn.sample_batch(100, rng)
        assert np.all(coloring.colors[vertices[:, 0]] == 0)


class TestUniformity:
    def test_uniform_over_copies_on_k4(self, rng):
        """On K_4 with distinct colors all 16 spanning trees are colorful;
        each of the 16 copies must appear equally often."""
        k = 4
        graph = complete_graph(k)
        coloring = ColoringScheme.fixed(list(range(k)), k=k)
        table = build_table(graph, coloring)
        urn = TreeletUrn(graph, table, coloring)
        assert urn.total_treelets == pytest.approx(16.0)

        trials = 8000
        draws = _copies_drawn(urn.sample_batch(trials, rng))
        _assert_uniform(draws, set(_k4_spanning_trees()), trials)

    def test_shape_sampling_uniform_over_copies_on_k4(self, rng):
        """The AGS primitive on K_4: one ``sample_shape_batch`` call per
        free shape hits each of that shape's copies (12 paths, 4 stars)
        equally often."""
        k = 4
        graph = complete_graph(k)
        coloring = ColoringScheme.fixed(list(range(k)), k=k)
        urn = TreeletUrn(graph, build_table(graph, coloring), coloring)
        trees = _k4_spanning_trees()
        path_shape = canonical_free(encode_parent_vector([-1, 0, 1, 2]))
        star_shape = canonical_free(encode_parent_vector([-1, 0, 0, 0]))
        copies = {
            path_shape: {t for t in trees if _max_degree(t) == 2},
            star_shape: {t for t in trees if _max_degree(t) == 3},
        }
        assert [len(copies[path_shape]), len(copies[star_shape])] == [12, 4]
        trials = 6000
        for shape, expected in copies.items():
            assert urn.shape_total(shape) == pytest.approx(len(expected))
            draws = _copies_drawn(urn.sample_shape_batch(shape, trials, rng))
            _assert_uniform(draws, expected, trials)


def _k4_spanning_trees():
    """The 16 spanning trees of K_4, each as a frozenset of edges."""
    edges = list(combinations(range(4), 2))
    return [
        frozenset(chosen)
        for chosen in combinations(edges, 3)
        if Graph.from_edges(list(chosen), n=4).is_connected()
    ]


def _max_degree(tree):
    return max(Counter(v for edge in tree for v in edge).values())


def _copies_drawn(samples):
    """Count each sampled tree copy, identified by its edge set
    (rebuilt from the DFS vertex order of its rooted treelet)."""
    from repro.treelets.encoding import tree_edges

    vertices, treelets, _masks = samples
    return Counter(
        frozenset(
            tuple(sorted((int(row[a]), int(row[b]))))
            for a, b in tree_edges(int(treelet))
        )
        for row, treelet in zip(vertices, treelets)
    )


def _assert_uniform(draws, copies, trials):
    """Every copy drawn, nothing else, each within 5σ of trials/len."""
    assert set(draws) == copies
    p = 1.0 / len(copies)
    sigma = np.sqrt(trials * p * (1 - p))
    for count in draws.values():
        assert abs(count - trials * p) < 5 * sigma


class TestShapeSampling:
    def test_sample_shape_returns_right_shape(self, rng):
        graph = erdos_renyi(25, 60, rng=9)
        k = 4
        urn = make_urn(graph, k, seed=10)
        for shape in urn.registry.free_shapes:
            if urn.shape_total(shape) <= 0:
                continue
            vertices, treelets, _ = urn.sample_shape_batch(shape, 50, rng)
            for row, treelet in zip(vertices.tolist(), treelets.tolist()):
                assert canonical_free(treelet) == shape
                assert len(set(row)) == k

    def test_star_graph_has_no_path_shape(self, rng):
        """K_{1,4} contains no colorful 4-path, only 4-stars and below."""
        graph = star_graph(6)
        k = 4
        urn = make_urn(graph, k, seed=11)
        path_shape = canonical_free(encode_parent_vector([-1, 0, 1, 2]))
        star_shape = canonical_free(encode_parent_vector([-1, 0, 0, 0]))
        assert urn.shape_total(path_shape) == 0
        assert urn.shape_total(star_shape) > 0
        with pytest.raises(SamplingError):
            urn.sample_shape_batch(path_shape, 1, rng)

    def test_alias_rebuild_counted(self, rng):
        urn = make_urn(erdos_renyi(20, 50, rng=12), 4, seed=13)
        shape = max(
            urn.registry.free_shapes, key=lambda s: urn.shape_total(s)
        )
        urn.sample_shape_batch(shape, 5, rng)
        urn.sample_shape_batch(shape, 5, rng)
        assert urn.instrumentation["shape_alias_rebuilds"] == 1


class TestNeighborBuffering:
    """Buffering belongs to the paper's scalar sampler, kept as the
    reference in ``support.reference``."""

    def test_buffered_sampling_statistically_equivalent(self):
        """Hub graph: estimates with and without buffering must agree."""
        graph = star_graph(40)  # center 0 has degree 40
        k = 3
        coloring = ColoringScheme.uniform(41, k, rng=20)
        urn = TreeletUrn(graph, build_table(graph, coloring), coloring)
        plain = ScalarSampler(urn, buffer_threshold=10**9)
        buffered = ScalarSampler(urn, buffer_threshold=10, buffer_size=25)
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(2)
        counts_a = Counter(
            plain.sample(rng_a)[0] for _ in range(4000)
        )
        counts_b = Counter(
            buffered.sample(rng_b)[0] for _ in range(4000)
        )
        # Same support and similar frequencies.
        assert set(counts_a) == set(counts_b)
        for key in counts_a:
            assert abs(counts_a[key] - counts_b[key]) < 220

    def test_buffering_reduces_sweeps(self):
        graph = star_graph(60)
        k = 3
        coloring = ColoringScheme.uniform(61, k, rng=21)
        urn = TreeletUrn(graph, build_table(graph, coloring), coloring)
        inst_plain = Instrumentation()
        inst_buffered = Instrumentation()
        plain = ScalarSampler(
            urn, buffer_threshold=10**9, instrumentation=inst_plain
        )
        buffered = ScalarSampler(
            urn, buffer_threshold=10, buffer_size=100,
            instrumentation=inst_buffered,
        )
        rng = np.random.default_rng(3)
        for _ in range(500):
            plain.sample(rng)
            buffered.sample(rng)
        assert (
            inst_buffered["neighbor_sweeps"]
            < inst_plain["neighbor_sweeps"] / 5
        )
