"""Tests for the batched build-up kernel and the ensemble engine.

The contract under test is strong: the batched one-SpMM-per-layer kernel
must produce *bit-identical* tables to the per-key reference loop
(``support.reference.build_table_reference``) on every
configuration (sizes, 0-rooting, spill, degenerate colorings), and the
ensemble engine must give identical results for a fixed seed no matter
how many worker processes it fans out over.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.engine import EnsembleResult, PipelineEngine, derive_child_seeds
from repro.graph.generators import erdos_renyi
from repro.motivo import MotivoConfig, MotivoCounter
from repro.table.flush import SpillStore
from repro.table.layer_store import SpillLayerStore
from repro.util.instrument import Instrumentation
from support.reference import build_table_reference


def assert_bit_identical(a, b, k):
    for h in range(1, k + 1):
        layer_a, layer_b = a.layer(h), b.layer(h)
        assert layer_a.keys == layer_b.keys, f"layer {h} keys differ"
        assert np.array_equal(
            np.asarray(layer_a.counts), np.asarray(layer_b.counts)
        ), f"layer {h} bits differ"


class TestKernelEquivalence:
    """Batched vs reference: bit-identical on the full configuration matrix."""

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("zero_rooting", [True, False])
    def test_random_graphs(self, k, zero_rooting):
        graph = erdos_renyi(40, 140, rng=k)
        coloring = ColoringScheme.uniform(40, k, rng=k + 50)
        batched = build_table(graph, coloring, zero_rooting=zero_rooting)
        reference = build_table_reference(
            graph, coloring, zero_rooting=zero_rooting
        )
        assert_bit_identical(batched, reference, k)

    @pytest.mark.parametrize("kernel_pair", [("batched", "reference")])
    def test_with_spill(self, tmp_path, kernel_pair):
        graph = erdos_renyi(30, 90, rng=2)
        coloring = ColoringScheme.uniform(30, 4, rng=3)
        builders = {"batched": build_table, "reference": build_table_reference}
        tables = []
        for kernel in kernel_pair:
            store = SpillStore(str(tmp_path / kernel))
            tables.append(
                builders[kernel](
                    graph, coloring, store=SpillLayerStore(store)
                )
            )
        assert_bit_identical(tables[0], tables[1], 4)
        assert isinstance(tables[0].layer(4).counts, np.memmap)

    def test_missing_color_falls_back(self):
        """A color absent from the graph forces the resolving path."""
        graph = erdos_renyi(12, 26, rng=5)
        colors = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]
        coloring = ColoringScheme.fixed(colors, k=4)
        instrumentation = Instrumentation()
        batched = build_table(
            graph, coloring, instrumentation=instrumentation
        )
        reference = build_table_reference(graph, coloring)
        assert instrumentation["fallback_levels"] > 0
        assert_bit_identical(batched, reference, 4)

    def test_biased_coloring(self):
        graph = erdos_renyi(30, 80, rng=6)
        coloring = ColoringScheme.biased(30, 4, lam=0.15, rng=7)
        assert_bit_identical(
            build_table(graph, coloring),
            build_table_reference(graph, coloring),
            4,
        )

    def test_batched_kernel_instrumentation(self):
        graph = erdos_renyi(25, 70, rng=8)
        coloring = ColoringScheme.uniform(25, 4, rng=9)
        instrumentation = Instrumentation()
        build_table(graph, coloring, instrumentation=instrumentation)
        assert instrumentation["merge_ops"] > 0
        assert instrumentation["spmm_ops"] > 0
        assert instrumentation.timings["buildup"] > 0

    def test_merge_ops_equal_across_kernels(self):
        graph = erdos_renyi(25, 70, rng=10)
        coloring = ColoringScheme.uniform(25, 5, rng=11)
        counts = {}
        for name, builder in (
            ("batched", build_table), ("reference", build_table_reference)
        ):
            instrumentation = Instrumentation()
            builder(graph, coloring, instrumentation=instrumentation)
            counts[name] = instrumentation["merge_ops"]
        assert counts["batched"] == counts["reference"]


class TestDerivedSeeds:
    def test_deterministic(self):
        assert derive_child_seeds(42, 5) == derive_child_seeds(42, 5)

    def test_distinct_across_colorings(self):
        seeds = derive_child_seeds(42, 8)
        assert len(set(seeds)) == 8

    def test_rejects_empty(self):
        with pytest.raises(SamplingError):
            derive_child_seeds(1, 0)


class TestPipelineEngine:
    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(40, 120, rng=1)

    def test_serial_matches_parallel(self, graph):
        config = MotivoConfig(k=4, seed=99)
        serial = PipelineEngine(graph, config, colorings=3, jobs=1)
        parallel = PipelineEngine(graph, config, colorings=3, jobs=2)
        result_serial = serial.run_naive(300)
        result_parallel = parallel.run_naive(300)
        assert result_serial.seeds == result_parallel.seeds
        assert result_serial.estimates.counts == result_parallel.estimates.counts
        assert result_serial.estimates.hits == result_parallel.estimates.hits

    def test_repeat_runs_identical(self, graph):
        config = MotivoConfig(k=4, seed=7)
        first = PipelineEngine(graph, config, colorings=2).run_naive(200)
        second = PipelineEngine(graph, config, colorings=2).run_naive(200)
        assert first.estimates.counts == second.estimates.counts

    def test_ags_ensemble(self, graph):
        config = MotivoConfig(k=4, seed=13)
        result = PipelineEngine(graph, config, colorings=2, jobs=2).run_ags(
            200, cover_threshold=50
        )
        assert isinstance(result, EnsembleResult)
        assert result.estimates.method == "ags-averaged"
        assert result.estimates.total > 0

    def test_merged_instrumentation(self, graph):
        config = MotivoConfig(k=4, seed=3)
        result = PipelineEngine(graph, config, colorings=3).run_naive(100)
        assert result.instrumentation["ensemble_runs"] == 3
        assert result.instrumentation["merge_ops"] > 0
        assert result.instrumentation.timings["buildup"] > 0
        assert result.instrumentation.timings["ensemble"] > 0

    def test_empty_urn_runs_average_as_zero(self):
        tiny = erdos_renyi(3, 2, rng=0)
        result = PipelineEngine(
            tiny, MotivoConfig(k=5, seed=1), colorings=2
        ).run_naive(10)
        assert result.empty_runs == 2
        assert result.estimates.counts == {}
        assert result.instrumentation["ensemble_empty_runs"] == 2

    def test_validation(self, graph):
        with pytest.raises(SamplingError):
            PipelineEngine(graph, MotivoConfig(), colorings=0)
        with pytest.raises(SamplingError):
            PipelineEngine(graph, MotivoConfig(), jobs=0)
        engine = PipelineEngine(graph, MotivoConfig(k=4, seed=1), colorings=2)
        with pytest.raises(SamplingError):
            engine.run_naive(10, seeds=[1])

    def test_parallel_spill_dirs_are_namespaced(self, graph, tmp_path):
        """Concurrent workers must not flush layers into the same files."""
        import os

        config = MotivoConfig(k=4, seed=21, spill_dir=str(tmp_path / "s"))
        parallel = PipelineEngine(
            graph, config, colorings=3, jobs=2, cleanup_spill=False
        )
        serial_config = MotivoConfig(
            k=4, seed=21, spill_dir=str(tmp_path / "s2")
        )
        serial = PipelineEngine(
            graph, serial_config, colorings=3, jobs=1, cleanup_spill=False
        )
        result_parallel = parallel.run_naive(200)
        result_serial = serial.run_naive(200)
        assert result_parallel.estimates.counts == result_serial.estimates.counts
        subdirs = sorted(os.listdir(tmp_path / "s"))
        assert len(subdirs) == 3
        assert all(name.startswith("coloring-") for name in subdirs)

    def test_spill_dirs_cleaned_up_by_default(self, graph, tmp_path):
        """Ensemble members close their stores: no leaked spill files."""
        import os

        config = MotivoConfig(k=4, seed=21, spill_dir=str(tmp_path / "s"))
        cleaned = PipelineEngine(graph, config, colorings=3, jobs=1)
        kept_config = MotivoConfig(
            k=4, seed=21, spill_dir=str(tmp_path / "s2")
        )
        kept = PipelineEngine(
            graph, kept_config, colorings=3, jobs=1, cleanup_spill=False
        )
        result = cleaned.run_naive(200)
        reference = kept.run_naive(200)
        # Cleanup must not change the estimates, only the leftovers.
        assert result.estimates.counts == reference.estimates.counts
        assert sorted(os.listdir(tmp_path / "s")) == []

    def test_explicit_seeds_respected(self, graph):
        config = MotivoConfig(k=4, seed=None)
        engine = PipelineEngine(graph, config, colorings=2)
        first = engine.run_naive(100, seeds=[11, 22])
        second = engine.run_naive(100, seeds=[11, 22])
        assert first.estimates.counts == second.estimates.counts
        assert first.seeds == [11, 22]


class TestFacadeIntegration:
    def test_averaged_naive_jobs_parity(self):
        graph = erdos_renyi(36, 100, rng=4)
        serial = MotivoCounter(graph, MotivoConfig(k=4, seed=77))
        fanned = MotivoCounter(graph, MotivoConfig(k=4, seed=77))
        estimates_serial = serial.averaged_naive(3, 300)
        estimates_fanned = fanned.averaged_naive(3, 300, jobs=2)
        assert estimates_serial.counts == estimates_fanned.counts
        assert estimates_serial.method == "naive-averaged"


class TestInstrumentationTransport:
    def test_snapshot_roundtrip(self):
        instrumentation = Instrumentation()
        instrumentation.count("merge_ops", 5)
        with instrumentation.timer("buildup"):
            pass
        restored = Instrumentation.from_snapshot(instrumentation.snapshot())
        assert restored["merge_ops"] == 5
        assert restored.timings["buildup"] == pytest.approx(
            instrumentation.timings["buildup"]
        )

    def test_merged_classmethod(self):
        parts = []
        for _ in range(3):
            part = Instrumentation()
            part.count("merge_ops", 2)
            parts.append(part)
        assert Instrumentation.merged(parts)["merge_ops"] == 6
