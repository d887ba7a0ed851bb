"""Cross-cutting tests of pipeline option combinations.

The option matrix (biased coloring × zero-rooting × spilling)
must compose: every combination should yield a working urn whose samples
are valid colorful treelet copies, and statistically equivalent estimates
where the options are estimator-neutral.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.urn import TreeletUrn
from repro.graph.generators import erdos_renyi
from repro.motivo import MotivoConfig, MotivoCounter
from repro.sampling.naive import naive_estimate
from repro.sampling.occurrences import GraphletClassifier
from repro.table.flush import SpillStore


@pytest.fixture(scope="module")
def host():
    return erdos_renyi(300, 1100, rng=100)


class TestOptionMatrix:
    @pytest.mark.parametrize("zero_rooting", [True, False])
    @pytest.mark.parametrize("lam", [None, 0.15])
    def test_combinations_build_and_sample(self, host, zero_rooting, lam):
        config = MotivoConfig(
            k=4, seed=101, zero_rooting=zero_rooting, biased_lambda=lam
        )
        counter = MotivoCounter(host, config)
        counter.build()
        estimates = counter.sample_naive(400)
        assert estimates.total > 0
        assert sum(estimates.frequencies().values()) == pytest.approx(1.0)

    def test_spilled_urn_samples_from_memmap(self, host, tmp_path):
        """Sampling must work end to end over memory-mapped layers."""
        config = MotivoConfig(k=4, seed=102, spill_dir=str(tmp_path / "s"))
        counter = MotivoCounter(host, config)
        counter.build()
        assert isinstance(
            counter.urn.table.layer(4).counts, np.memmap
        )
        estimates = counter.sample_naive(300)
        assert estimates.total > 0

    def test_zero_rooting_estimator_neutral(self, host):
        """0-rooting changes storage, not the sampling distribution."""
        coloring = ColoringScheme.uniform(host.num_vertices, 4, rng=103)
        rooted = TreeletUrn(
            host, build_table(host, coloring, zero_rooting=True), coloring
        )
        unrooted = TreeletUrn(
            host, build_table(host, coloring, zero_rooting=False), coloring
        )
        classifier = GraphletClassifier(host, 4)
        a = naive_estimate(
            rooted, classifier, 6000, np.random.default_rng(1)
        )
        b = naive_estimate(
            unrooted, classifier, 6000, np.random.default_rng(2)
        )
        # The urns hold the same copies (each counted once vs k times,
        # which total_treelets normalizes away) and estimates agree.
        assert unrooted.total_treelets == pytest.approx(
            rooted.total_treelets
        )
        for bits, value in a.top(3):
            assert b.counts.get(bits, 0.0) == pytest.approx(value, rel=0.2)

    def test_biased_estimates_agree_with_uniform_in_expectation(self, host):
        """Biased coloring changes p_k but not the estimator target."""
        k = 4
        uniform_runs = []
        biased_runs = []
        for seed in range(6):
            uniform = MotivoCounter(
                host, MotivoConfig(k=k, seed=200 + seed)
            )
            uniform.build()
            uniform_runs.append(uniform.sample_naive(4000))
            biased = MotivoCounter(
                host,
                MotivoConfig(k=k, seed=300 + seed, biased_lambda=0.2),
            )
            biased.build()
            biased_runs.append(biased.sample_naive(4000))
        top_bits = max(
            uniform_runs[0].counts, key=uniform_runs[0].counts.get
        )
        uniform_mean = np.mean(
            [run.counts.get(top_bits, 0.0) for run in uniform_runs]
        )
        biased_mean = np.mean(
            [run.counts.get(top_bits, 0.0) for run in biased_runs]
        )
        assert biased_mean == pytest.approx(uniform_mean, rel=0.25)


class TestUrnValidityUnderBias:
    def test_biased_samples_are_colorful(self, host):
        coloring = ColoringScheme.biased(host.num_vertices, 4, 0.1, rng=104)
        table = build_table(host, coloring)
        urn = TreeletUrn(host, table, coloring)
        vertices, _t, _m = urn.sample_batch(200, np.random.default_rng(3))
        colors = np.sort(coloring.colors[vertices], axis=1)
        assert np.all(colors == np.arange(4))

    def test_biased_shape_sampling(self, host):
        from repro.treelets.encoding import canonical_free

        coloring = ColoringScheme.biased(host.num_vertices, 4, 0.15, rng=105)
        table = build_table(host, coloring)
        urn = TreeletUrn(host, table, coloring)
        rng = np.random.default_rng(4)
        for shape in urn.registry.free_shapes:
            if urn.shape_total(shape) <= 0:
                continue
            _vertices, treelets, _ = urn.sample_shape_batch(shape, 5, rng)
            for treelet in treelets.tolist():
                assert canonical_free(treelet) == shape
