"""Cross-module property-based tests (hypothesis) on the core invariants.

These tie together subsystems that were unit-tested in isolation: the DP
against Kirchhoff identities, classification against spanning-tree
structure, and the σ tables against the sampling probabilities they feed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.urn import TreeletUrn
from repro.errors import SamplingError
from repro.exact.brute import brute_force_colorful_treelet_total
from repro.exact.esu import exact_colorful_counts
from repro.graph.graph import Graph
from repro.graphlets.spanning import spanning_tree_count, spanning_tree_shape_counts
from repro.treelets.encoding import canonical_free
from repro.treelets.registry import TreeletRegistry


@st.composite
def small_graph(draw, min_n=6, max_n=12):
    """A random connected-ish simple graph."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    # Spanning-tree backbone guarantees connectivity.
    edges = [
        (draw(st.integers(min_value=0, max_value=v - 1)), v)
        for v in range(1, n)
    ]
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=2 * n,
        )
    )
    edges.extend((u, v) for u, v in extra if u != v)
    return Graph.from_edges(edges, n=n)


@st.composite
def colored_graph(draw, k):
    graph = draw(small_graph())
    colors = [
        draw(st.integers(min_value=0, max_value=k - 1))
        for _ in range(graph.num_vertices)
    ]
    return graph, ColoringScheme.fixed(colors, k=k)


class TestDpKirchhoffIdentity:
    @given(colored_graph(k=3))
    @settings(max_examples=30, deadline=None)
    def test_total_treelets_k3(self, data):
        graph, coloring = data
        table = build_table(graph, coloring, zero_rooting=True)
        expected = brute_force_colorful_treelet_total(graph, 3, coloring)
        assert table.root_weights().sum() == pytest.approx(expected)

    @given(colored_graph(k=4))
    @settings(max_examples=15, deadline=None)
    def test_total_treelets_k4(self, data):
        graph, coloring = data
        table = build_table(graph, coloring, zero_rooting=True)
        expected = brute_force_colorful_treelet_total(graph, 4, coloring)
        assert table.root_weights().sum() == pytest.approx(expected)


class TestUrnSigmaConsistency:
    @given(colored_graph(k=4))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    def test_shape_totals_match_sigma_weighted_truth(self, data):
        """r_j = Σ_i c_i σ_ij: the urn's per-shape totals must equal the
        σ-weighted exact colorful graphlet counts."""
        graph, coloring = data
        k = 4
        table = build_table(graph, coloring, zero_rooting=True)
        try:
            urn = TreeletUrn(graph, table, coloring)
        except SamplingError:
            return  # no colorful treelets under this coloring
        truth = exact_colorful_counts(graph, k, coloring)
        registry = urn.registry
        expected = {shape: 0.0 for shape in registry.free_shapes}
        for bits, count in truth.items():
            for shape, sigma in spanning_tree_shape_counts(bits, k).items():
                expected[shape] += count * sigma
        for shape in registry.free_shapes:
            assert urn.shape_total(shape) == pytest.approx(
                expected[shape]
            ), shape

    @given(colored_graph(k=4))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    def test_total_is_sigma_weighted_sum(self, data):
        """t = Σ_i c_i σ_i — the denominator of the naive estimator."""
        graph, coloring = data
        k = 4
        table = build_table(graph, coloring, zero_rooting=True)
        truth = exact_colorful_counts(graph, k, coloring)
        expected = sum(
            count * spanning_tree_count(bits, k)
            for bits, count in truth.items()
        )
        assert table.root_weights().sum() == pytest.approx(expected)


class TestSampledCopiesAreConsistent:
    @given(colored_graph(k=4), st.integers(min_value=0, max_value=2**31))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    def test_shape_samples_span_compatible_graphlets(self, data, seed):
        """A copy drawn via sample_shape(T) must land on a graphlet whose
        σ table actually contains T — the core AGS soundness property."""
        graph, coloring = data
        k = 4
        table = build_table(graph, coloring, zero_rooting=True)
        try:
            urn = TreeletUrn(graph, table, coloring)
        except SamplingError:
            return
        from repro.sampling.occurrences import GraphletClassifier

        classifier = GraphletClassifier(graph, k)
        rng = np.random.default_rng(seed)
        for shape in urn.registry.free_shapes:
            if urn.shape_total(shape) <= 0:
                continue
            vertices, treelets, _ = urn.sample_shape_batch(shape, 5, rng)
            codes = classifier.classify_batch(vertices)
            for treelet, bits in zip(treelets.tolist(), codes.tolist()):
                assert canonical_free(treelet) == shape
                sigma = spanning_tree_shape_counts(bits, k)
                assert sigma.get(shape, 0) > 0


class TestRegistryClosure:
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_sigma_shapes_are_registry_shapes(self, k):
        """Every σ_ij shape of every graphlet is a registered free shape."""
        from repro.graphlets.enumerate import enumerate_graphlets

        registry = TreeletRegistry(k)
        known = set(registry.free_shapes)
        for bits in enumerate_graphlets(k):
            for shape in spanning_tree_shape_counts(bits, k, registry):
                assert shape in known
