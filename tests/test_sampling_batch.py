"""Tests for the batched sampling engine.

The load-bearing property: for a fixed seed, the vectorized descent
(``TreeletUrn.sample_batch``) and the per-sample reference recursion
(``support.reference.ScalarSampler``) read the same uniform matrix and
must return **bit-identical** samples —
on ordinary graphs, hub graphs, degenerate colorings whose layers realize
only part of the key universe, and the k=2 edge case.  On top of that:
batched classification must agree element-wise with the scalar
classifier, the rewired estimators must be deterministic per
``(seed, batch_size)``, and AGS chunked draws must reproduce themselves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.descent import compile_descent
from repro.colorcoding.urn import TreeletUrn
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    path_graph,
    star_graph,
)
from repro.sampling.ags import ags_estimate
from repro.sampling.naive import naive_estimate, naive_hit_counts
from repro.sampling.occurrences import GraphletClassifier
from repro.treelets.registry import TreeletRegistry
from support.reference import ScalarSampler


def make_urn(graph, k, seed=None, coloring=None, **kwargs):
    coloring = coloring or ColoringScheme.uniform(
        graph.num_vertices, k, rng=seed
    )
    table = build_table(graph, coloring)
    return TreeletUrn(graph, table, coloring, **kwargs)


def assert_batches_equal(a, b):
    for x, y, name in zip(a, b, ("vertices", "treelets", "masks")):
        assert np.array_equal(x, y), name


PIPELINES = [
    # (graph factory, k, coloring seed or fixed colors)
    (lambda: erdos_renyi(60, 180, rng=3), 5, 11),
    (lambda: erdos_renyi(40, 100, rng=4), 4, 12),
    (lambda: star_graph(30), 3, 13),  # hub-dominated
    (lambda: erdos_renyi(30, 80, rng=5), 2, 15),  # k=2 edge case
]


class TestBatchLoopEquivalence:
    @pytest.mark.parametrize("factory,k,seed", PIPELINES)
    def test_sample_batch_bit_identical(self, factory, k, seed):
        urn = make_urn(factory(), k, seed=seed)
        for draw_seed in (0, 99, 2024):
            assert_batches_equal(
                urn.sample_batch(257, np.random.default_rng(draw_seed)),
                ScalarSampler(urn).sample_batch(
                    257, np.random.default_rng(draw_seed)
                ),
            )

    @pytest.mark.parametrize("factory,k,seed", PIPELINES)
    def test_sample_shape_batch_bit_identical(self, factory, k, seed):
        urn = make_urn(factory(), k, seed=seed)
        for shape in urn.registry.free_shapes:
            if urn.shape_total(shape) <= 0:
                continue
            assert_batches_equal(
                urn.sample_shape_batch(
                    shape, 150, np.random.default_rng(7)
                ),
                ScalarSampler(urn).sample_shape_batch(
                    shape, 150, np.random.default_rng(7)
                ),
            )

    def test_degenerate_coloring_bit_identical(self):
        """A fixed repeating coloring on a path realizes only a sliver of
        the key universe — the split enumeration must still agree."""
        coloring = ColoringScheme.fixed([0, 1, 2, 0, 1, 2, 0, 1, 2], k=3)
        urn = make_urn(path_graph(9), 3, coloring=coloring)
        assert_batches_equal(
            urn.sample_batch(300, np.random.default_rng(5)),
            ScalarSampler(urn).sample_batch(300, np.random.default_rng(5)),
        )

    def test_without_zero_rooting(self):
        graph = erdos_renyi(40, 110, rng=8)
        coloring = ColoringScheme.uniform(40, 4, rng=9)
        table = build_table(graph, coloring, zero_rooting=False)
        urn = TreeletUrn(graph, table, coloring)
        assert_batches_equal(
            urn.sample_batch(300, np.random.default_rng(5)),
            ScalarSampler(urn).sample_batch(300, np.random.default_rng(5)),
        )

    def test_batch_samples_are_valid_copies(self):
        graph = erdos_renyi(25, 60, rng=5)
        k = 4
        coloring = ColoringScheme.uniform(25, k, rng=6)
        urn = make_urn(graph, k, coloring=coloring)
        vertices, treelets, masks = urn.sample_batch(
            250, np.random.default_rng(1)
        )
        assert vertices.shape == (250, k)
        for row in vertices:
            assert len(set(row.tolist())) == k
            colors = {int(coloring.colors[v]) for v in row}
            assert len(colors) == k  # colorful
            assert graph.subgraph(row.tolist()).is_connected()
        assert np.all(masks == (1 << k) - 1)

    def test_transient_gathered_fallback_bit_identical(self):
        """With the gathered-row cache budget forced to its floor, most
        keys are served from transient per-call matrices — results must
        not change, and nothing beyond the budget may be retained."""
        urn = make_urn(erdos_renyi(60, 180, rng=3), 5, seed=11)
        reference = urn.sample_batch(300, np.random.default_rng(8))
        capped = make_urn(erdos_renyi(60, 180, rng=3), 5, seed=11)
        capped._gathered_row_budget = 4
        assert_batches_equal(
            capped.sample_batch(300, np.random.default_rng(8)), reference
        )
        assert_batches_equal(
            ScalarSampler(capped).sample_batch(300, np.random.default_rng(8)),
            reference,
        )
        assert capped._gathered_cached_rows <= 4
        assert capped.instrumentation["gathered_transient_builds"] > 0

    def test_rejects_bad_arguments(self):
        urn = make_urn(erdos_renyi(30, 80, rng=5), 3, seed=2)
        with pytest.raises(SamplingError):
            urn.sample_batch(0)
        with pytest.raises(SamplingError):
            urn.sample_batch(10, uniforms=np.zeros((10, 2)))


class TestDescentPlans:
    def test_plan_shape_invariants(self):
        registry = TreeletRegistry(6)
        for treelet in registry.treelets_of_size(6):
            plan = compile_descent(registry, treelet)
            assert plan.num_leaves == 6
            assert plan.num_internal == 5
            assert len(plan) == 11
            leaves = [n for n in plan.nodes if n.is_leaf]
            assert sorted(n.leaf_column for n in leaves) == list(range(6))
            internals = [n for n in plan.nodes if not n.is_leaf]
            assert sorted(n.rank for n in internals) == list(range(5))

    def test_preorder_parents_first(self):
        registry = TreeletRegistry(5)
        for treelet in registry.treelets_of_size(5):
            plan = compile_descent(registry, treelet)
            for index, node in enumerate(plan.nodes):
                if not node.is_leaf:
                    assert node.left > index
                    assert node.right > node.left


class TestClassifyBatch:
    def test_matches_scalar_classify(self):
        graph = erdos_renyi(50, 160, rng=6)
        k = 5
        urn = make_urn(graph, k, seed=21)
        classifier = GraphletClassifier(graph, k)
        other = GraphletClassifier(graph, k)
        vertices, _, _ = urn.sample_batch(300, np.random.default_rng(3))
        batch_codes = classifier.classify_batch(vertices)
        scalar_codes = [other.classify(row) for row in vertices.tolist()]
        assert batch_codes.tolist() == scalar_codes

    def test_k2(self):
        graph = erdos_renyi(20, 50, rng=7)
        classifier = GraphletClassifier(graph, 2)
        pairs = graph.edge_array()[:10]
        codes = classifier.classify_batch(pairs)
        assert np.all(codes == 1)  # every edge induces the single-edge H

    def test_rejects_duplicates_and_bad_shape(self):
        graph = erdos_renyi(20, 50, rng=7)
        classifier = GraphletClassifier(graph, 3)
        with pytest.raises(SamplingError):
            classifier.classify_batch(np.array([[1, 1, 2]]))
        with pytest.raises(SamplingError):
            classifier.classify_batch(np.array([[1, 2]]))

    def test_empty_batch(self):
        graph = erdos_renyi(20, 50, rng=7)
        classifier = GraphletClassifier(graph, 3)
        out = classifier.classify_batch(np.empty((0, 3), dtype=np.int64))
        assert out.shape == (0,)


class TestRewiredEstimators:
    def test_naive_deterministic_per_seed_and_batch(self):
        urn = make_urn(erdos_renyi(40, 120, rng=9), 4, seed=31)
        classifier = GraphletClassifier(urn.graph, 4)
        a = naive_hit_counts(
            urn, classifier, 700, np.random.default_rng(5), batch_size=256
        )
        b = naive_hit_counts(
            urn, classifier, 700, np.random.default_rng(5), batch_size=256
        )
        assert a == b
        assert sum(a.values()) == 700

    def test_naive_batch_and_scalar_paths_agree_statistically(self):
        """Different streams, same estimator: totals must be close.  The
        scalar side draws one buffered sample at a time."""
        urn = make_urn(erdos_renyi(40, 120, rng=9), 3, seed=32)
        classifier = GraphletClassifier(urn.graph, 3)
        batched = naive_estimate(
            urn, classifier, 20_000, np.random.default_rng(1)
        )
        scalar_sampler = ScalarSampler(urn, buffer_threshold=8)

        def scalar_draw(chunk, rng):
            rows = [scalar_sampler.sample(rng)[0] for _ in range(chunk)]
            return np.asarray(rows, dtype=np.int64), None, None

        scalar = naive_estimate(
            urn, classifier, 20_000, np.random.default_rng(2),
            draw=scalar_draw,
        )
        for bits in set(batched.counts) | set(scalar.counts):
            big = max(batched.counts.get(bits, 0), scalar.counts.get(bits, 0))
            if big > 200:  # enough mass for a tight comparison
                assert batched.counts.get(bits, 0) == pytest.approx(
                    scalar.counts.get(bits, 0), rel=0.3
                )

    def test_ags_chunked_determinism(self):
        urn = make_urn(erdos_renyi(50, 160, rng=10), 4, seed=41)
        classifier = GraphletClassifier(urn.graph, 4)
        runs = [
            ags_estimate(
                urn,
                classifier,
                1500,
                cover_threshold=60,
                rng=np.random.default_rng(9),
                batch_size=128,
            )
            for _ in range(2)
        ]
        first, second = runs
        assert first.estimates.counts == second.estimates.counts
        assert first.shape_usage == second.shape_usage
        assert first.covered == second.covered
        assert first.switches == second.switches
        assert sum(first.shape_usage.values()) == 1500

    def test_ags_scalar_fallback_still_switches(self):
        """``batch_size=1`` draws chunks of one and re-checks coverage
        after every sample, as the paper's pseudocode does."""
        urn = make_urn(erdos_renyi(50, 160, rng=10), 4, seed=41)
        classifier = GraphletClassifier(urn.graph, 4)
        result = ags_estimate(
            urn,
            classifier,
            800,
            cover_threshold=50,
            rng=np.random.default_rng(3),
            batch_size=1,
        )
        assert sum(result.shape_usage.values()) == 800
        assert result.covered  # small graph: something gets covered

    def test_facade_threads_batch_size(self):
        from repro.motivo import MotivoConfig, MotivoCounter

        graph = erdos_renyi(40, 120, rng=12)
        a = MotivoCounter(graph, MotivoConfig(k=4, seed=5, batch_size=128))
        b = MotivoCounter(graph, MotivoConfig(k=4, seed=5, batch_size=128))
        a.build()
        b.build()
        assert a.sample_naive(500).counts == b.sample_naive(500).counts


class TestBatchSizeValidation:
    """A chunk size below 1 would never shrink the remaining budget: every
    entry point rejects it up front instead of looping forever."""

    @pytest.fixture
    def urn(self):
        return make_urn(erdos_renyi(30, 80, rng=5), 3, seed=2)

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_naive_rejects(self, urn, batch_size):
        classifier = GraphletClassifier(urn.graph, 3)
        with pytest.raises(SamplingError, match="batch_size"):
            naive_hit_counts(urn, classifier, 10, batch_size=batch_size)

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_ags_rejects(self, urn, batch_size):
        classifier = GraphletClassifier(urn.graph, 3)
        with pytest.raises(SamplingError, match="batch_size"):
            ags_estimate(urn, classifier, 10, batch_size=batch_size)

    def test_counter_rejects(self):
        from repro.motivo import MotivoConfig, MotivoCounter

        with pytest.raises(SamplingError, match="batch_size"):
            MotivoCounter(
                erdos_renyi(20, 40, rng=1), MotivoConfig(k=3, batch_size=0)
            )

    def test_engine_rejects(self):
        from repro.engine import PipelineEngine
        from repro.motivo import MotivoConfig

        engine = PipelineEngine(
            erdos_renyi(20, 40, rng=1), MotivoConfig(k=3, seed=1)
        )
        with pytest.raises(SamplingError, match="batch_size"):
            engine.run_naive(10, batch_size=0)
        with pytest.raises(SamplingError, match="batch_size"):
            engine.run_ags(10, batch_size=-1)
