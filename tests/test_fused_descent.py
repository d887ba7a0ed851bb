"""Tests for the fused descent kernel and artifact-cached plans.

The fused one-pass kernel must stay **bit-identical** to the per-sample
reference recursion (``support.reference.ScalarSampler``) across the
whole supported range: every k in 2..8, degenerate colorings,
zero-rooting on and off, dense and succinct table layouts.  On top of the kernel itself: compiled descent
programs must serialize losslessly, plan-carrying artifacts must reopen
with **zero** plan compilation, stale or corrupted plans must fail
loud (never silently resample from the wrong plan), old artifacts
without a plan must fall back to recompiling, and the gathered-row
budget must degrade to transient rebuilds without changing a single
sample.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.artifacts import ArtifactCache, open_table, save_table
from repro.artifacts.table_artifact import PLAN_NAME
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.descent import (
    DescentProgram,
    compile_program,
    table_keys_digest,
)
from repro.colorcoding.urn import DEFAULT_DESCENT_CACHE_BYTES, TreeletUrn
from repro.errors import ArtifactError, SamplingError
from repro.graph.generators import erdos_renyi, path_graph, star_graph
from repro.motivo import MotivoConfig, MotivoCounter
from repro.serve import SamplingService
from repro.treelets.registry import TreeletRegistry
from support.reference import ScalarSampler


def make_urn(graph, k, seed=None, coloring=None, layout="dense",
             zero_rooting=True, **kwargs):
    coloring = coloring or ColoringScheme.uniform(
        graph.num_vertices, k, rng=seed
    )
    table = build_table(
        graph, coloring, zero_rooting=zero_rooting, layout=layout
    )
    return TreeletUrn(graph, table, coloring, **kwargs)


def assert_batches_equal(a, b):
    for x, y, name in zip(a, b, ("vertices", "treelets", "masks")):
        assert np.array_equal(x, y), name


# (graph factory, k, coloring seed) — k sweeps the whole supported
# range; k=7/8 on graphs small enough to keep the build quick.
K_MATRIX = [
    (lambda: erdos_renyi(40, 110, rng=2), 2, 21),
    (lambda: star_graph(30), 3, 22),
    (lambda: erdos_renyi(40, 100, rng=4), 4, 23),
    (lambda: erdos_renyi(60, 180, rng=3), 5, 24),
    (lambda: erdos_renyi(40, 120, rng=6), 6, 25),
    (lambda: erdos_renyi(26, 70, rng=7), 7, 26),
    (lambda: erdos_renyi(24, 62, rng=8), 8, 27),
]


class TestFusedLoopEquivalence:
    @pytest.mark.parametrize("factory,k,seed", K_MATRIX)
    def test_all_k_bit_identical(self, factory, k, seed):
        urn = make_urn(factory(), k, seed=seed)
        for draw_seed in (0, 173):
            assert_batches_equal(
                urn.sample_batch(211, np.random.default_rng(draw_seed)),
                ScalarSampler(urn).sample_batch(
                    211, np.random.default_rng(draw_seed)
                ),
            )

    @pytest.mark.parametrize("layout", ["dense", "succinct"])
    @pytest.mark.parametrize("zero_rooting", [True, False])
    def test_layouts_and_zero_rooting(self, layout, zero_rooting):
        urn = make_urn(
            erdos_renyi(50, 140, rng=9), 5, seed=31,
            layout=layout, zero_rooting=zero_rooting,
        )
        assert_batches_equal(
            urn.sample_batch(301, np.random.default_rng(12)),
            ScalarSampler(urn).sample_batch(
                301, np.random.default_rng(12)
            ),
        )

    def test_degenerate_coloring(self):
        """A fixed repeating coloring realizes only a sliver of the key
        universe; the compiled program must still cover every reachable
        (treelet, mask) state."""
        coloring = ColoringScheme.fixed([0, 1, 2, 3] * 3, k=4)
        urn = make_urn(path_graph(12), 4, coloring=coloring)
        assert_batches_equal(
            urn.sample_batch(200, np.random.default_rng(5)),
            ScalarSampler(urn).sample_batch(
                200, np.random.default_rng(5)
            ),
        )

    def test_budget_fallback_bit_identical_and_counted(self):
        """A starved gathered-row budget degrades to transient rebuilds:
        slower, counted in the instrumentation, and sample-for-sample
        identical to the cached path."""
        graph = erdos_renyi(60, 180, rng=3)
        coloring = ColoringScheme.uniform(graph.num_vertices, 5, rng=11)
        table = build_table(graph, coloring)
        roomy = TreeletUrn(graph, table, coloring)
        starved = TreeletUrn(
            graph, table, coloring, descent_cache_bytes=1
        )
        assert starved._gathered_row_budget == 16  # the floor
        assert_batches_equal(
            roomy.sample_batch(400, np.random.default_rng(8)),
            starved.sample_batch(400, np.random.default_rng(8)),
        )
        inst = starved.instrumentation
        assert inst["gathered_budget_fallbacks"] > 0
        assert inst["gathered_transient_builds"] > 0
        assert roomy.instrumentation["gathered_budget_fallbacks"] == 0


def _foreign_program():
    """A valid k=4 program whose realized key set matches no dense
    k=4 table (degenerate fixed coloring, succinct layout)."""
    graph = path_graph(12)
    coloring = ColoringScheme.fixed([0, 1, 2, 3] * 3, k=4)
    table = build_table(graph, coloring, layout="succinct")
    return compile_program(TreeletRegistry(4), table)


class TestDescentProgram:
    def test_compile_is_deterministic(self):
        graph = erdos_renyi(40, 100, rng=4)
        coloring = ColoringScheme.uniform(graph.num_vertices, 4, rng=12)
        table = build_table(graph, coloring)
        registry = TreeletRegistry(4)
        first = compile_program(registry, table)
        second = compile_program(registry, table)
        for name, _ in DescentProgram._ARRAY_FIELDS:
            assert np.array_equal(
                getattr(first, name), getattr(second, name)
            ), name
        assert first.table_digest == second.table_digest

    def test_arrays_roundtrip(self):
        graph = erdos_renyi(40, 100, rng=4)
        coloring = ColoringScheme.uniform(graph.num_vertices, 4, rng=12)
        table = build_table(graph, coloring)
        program = compile_program(TreeletRegistry(4), table)
        restored = DescentProgram.from_arrays(program.to_arrays())
        assert restored.k == program.k
        assert restored.table_digest == program.table_digest
        for name, _ in DescentProgram._ARRAY_FIELDS:
            assert np.array_equal(
                getattr(restored, name), getattr(program, name)
            ), name
        restored.validate_for(table, digest=table_keys_digest(table))

    def test_program_is_key_structure_only(self):
        """Two colorings of one graph realize the same dense key universe,
        so their programs are interchangeable (counts are read from the
        table at sample time, never baked into the plan)."""
        graph = erdos_renyi(40, 100, rng=4)
        other = ColoringScheme.uniform(graph.num_vertices, 4, rng=99)
        mine = ColoringScheme.uniform(graph.num_vertices, 4, rng=12)
        program = compile_program(
            TreeletRegistry(4), build_table(graph, other)
        )
        table = build_table(graph, mine)
        assert program.table_digest == table_keys_digest(table)
        urn = TreeletUrn(graph, table, mine, program=program)
        assert_batches_equal(
            urn.sample_batch(150, np.random.default_rng(3)),
            ScalarSampler(urn).sample_batch(
                150, np.random.default_rng(3)
            ),
        )

    def test_mismatched_program_rejected(self):
        """A program from a table with a different realized key set (a
        degenerate succinct build) must not validate."""
        graph = erdos_renyi(40, 100, rng=4)
        mine = ColoringScheme.uniform(graph.num_vertices, 4, rng=12)
        foreign = _foreign_program()
        table = build_table(graph, mine)
        with pytest.raises(ValueError):
            foreign.validate_for(table, digest=table_keys_digest(table))
        with pytest.raises(SamplingError):
            TreeletUrn(graph, table, mine, program=foreign)

    def test_wrong_k_program_rejected_by_urn(self):
        graph = erdos_renyi(40, 100, rng=4)
        c3 = ColoringScheme.uniform(graph.num_vertices, 3, rng=1)
        c4 = ColoringScheme.uniform(graph.num_vertices, 4, rng=1)
        program3 = compile_program(
            TreeletRegistry(3), build_table(graph, c3)
        )
        table4 = build_table(graph, c4)
        with pytest.raises(SamplingError):
            TreeletUrn(graph, table4, c4, program=program3)


@pytest.fixture()
def built_counter(tmp_path):
    graph = erdos_renyi(60, 180, rng=3)
    counter = MotivoCounter(graph, MotivoConfig(k=4, seed=17))
    counter.build()
    return graph, counter


class TestArtifactCachedPlans:
    def test_save_records_plan_and_reopen_skips_compile(
        self, built_counter, tmp_path
    ):
        graph, counter = built_counter
        directory = str(tmp_path / "artifact")
        counter.save_artifact(directory)
        manifest = json.load(
            open(os.path.join(directory, "manifest.json"))
        )
        assert "descent_plan" in manifest
        assert manifest["descent_plan"]["file"] == PLAN_NAME
        # Plan bytes are real but excluded from the payload accounting.
        assert manifest["descent_plan"]["bytes"] == os.path.getsize(
            os.path.join(directory, PLAN_NAME)
        )

        warm = MotivoCounter.from_artifact(graph, directory)
        # The adopted program is there before any draw...
        assert warm.urn._program is not None
        before = warm.instrumentation["descent_plan_compiles"]
        reference = counter.sample_naive(500)
        estimates = warm.sample_naive(500)
        # ...and sampling compiled nothing on top of it (the manifest
        # snapshot already carries the save-time compile, hence deltas).
        assert (
            warm.instrumentation["descent_plan_compiles"] - before == 0
        )
        assert estimates.counts == reference.counts

    def test_verify_covers_plan_blob(self, built_counter, tmp_path):
        graph, counter = built_counter
        directory = str(tmp_path / "artifact")
        counter.save_artifact(directory)
        artifact = open_table(directory, graph)
        artifact.verify()  # digests include the plan blob
        with open(os.path.join(directory, PLAN_NAME), "r+b") as blob:
            blob.seek(0)
            blob.write(b"\x00" * 8)
        with pytest.raises(ArtifactError):
            open_table(directory, graph)

    def test_absent_plan_falls_back_to_recompile(
        self, built_counter, tmp_path
    ):
        """Format-v1-style artifacts (no plan entry) still open; the urn
        compiles lazily, bit-identically to the plan-carrying open."""
        graph, counter = built_counter
        directory = str(tmp_path / "artifact")
        counter.save_artifact(directory)
        manifest_path = os.path.join(directory, "manifest.json")
        manifest = json.load(open(manifest_path))
        del manifest["descent_plan"]
        with open(manifest_path, "w") as out:
            json.dump(manifest, out)
        os.remove(os.path.join(directory, PLAN_NAME))

        artifact = open_table(directory, graph)
        assert artifact.descent_program is None
        warm = MotivoCounter.from_artifact(graph, directory)
        assert warm.urn._program is None
        before = warm.instrumentation["descent_plan_compiles"]
        warm.sample_naive(200)
        assert (
            warm.instrumentation["descent_plan_compiles"] - before == 1
        )

    def test_stale_plan_fails_loud(self, built_counter, tmp_path):
        """A plan blob from a different table must never be sampled
        from — digest skew is an ArtifactError, not a fallback."""
        graph, counter = built_counter
        directory = str(tmp_path / "artifact")
        counter.save_artifact(directory)
        foreign = _foreign_program()
        plan_path = os.path.join(directory, PLAN_NAME)
        np.savez(plan_path, **foreign.to_arrays())
        # Keep the manifest digest consistent so only staleness trips.
        from repro.artifacts.table_artifact import file_digest

        manifest_path = os.path.join(directory, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["descent_plan"]["digest"] = file_digest(plan_path)
        manifest["descent_plan"]["bytes"] = os.path.getsize(plan_path)
        with open(manifest_path, "w") as out:
            json.dump(manifest, out)
        with pytest.raises(ArtifactError, match="stale descent plan"):
            open_table(directory, graph)

    def test_unknown_plan_version_fails_loud(
        self, built_counter, tmp_path
    ):
        graph, counter = built_counter
        directory = str(tmp_path / "artifact")
        counter.save_artifact(directory)
        manifest_path = os.path.join(directory, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["descent_plan"]["plan_format_version"] = 99
        with open(manifest_path, "w") as out:
            json.dump(manifest, out)
        with pytest.raises(ArtifactError, match="plan"):
            open_table(directory, graph)

    def test_saving_mismatched_program_rejected(
        self, built_counter, tmp_path
    ):
        graph, counter = built_counter
        foreign = _foreign_program()
        with pytest.raises(ArtifactError, match="does not match"):
            save_table(
                str(tmp_path / "bad"),
                counter.urn.table,
                counter.coloring,
                graph,
                descent_program=foreign,
            )


class TestConfigThreading:
    def test_config_field_reaches_urn_and_manifest(self, tmp_path):
        graph = erdos_renyi(50, 140, rng=9)
        config = MotivoConfig(k=4, seed=5, descent_cache_bytes=123_456)
        assert config.build_params()["descent_cache_bytes"] == 123_456
        counter = MotivoCounter(graph, config)
        counter.build()
        assert counter.urn.descent_cache_bytes == 123_456

        directory = str(tmp_path / "artifact")
        counter.save_artifact(directory)
        warm = MotivoCounter.from_artifact(graph, directory)
        assert warm.config.descent_cache_bytes == 123_456
        assert warm.urn.descent_cache_bytes == 123_456

    def test_default_budget(self):
        graph = erdos_renyi(30, 80, rng=5)
        counter = MotivoCounter(graph, MotivoConfig(k=3, seed=2))
        counter.build()
        assert (
            counter.urn.descent_cache_bytes == DEFAULT_DESCENT_CACHE_BYTES
        )

    def test_cli_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["count", "g.txt", "--descent-cache-bytes", "4096"]
        )
        assert args.descent_cache_bytes == 4096
        args = parser.parse_args(
            ["build", "g.txt", "-o", "out", "--descent-cache-bytes", "8192"]
        )
        assert args.descent_cache_bytes == 8192


class TestServeIntegration:
    def test_warm_service_skips_plan_compile_and_reports_stats(
        self, tmp_path
    ):
        graph = erdos_renyi(60, 180, rng=3)
        root = str(tmp_path / "cache")
        counter = MotivoCounter(
            graph, MotivoConfig(k=4, seed=17, artifact_dir=root)
        )
        counter.build()
        with SamplingService(root) as service:
            service.add_graph(graph)
            key = ArtifactCache(root).entries()[0].key
            service.count(artifact=key, samples=400)
            handle = service.open(key)
            # The handle's urn adopted the artifact's program: zero
            # compiles on this side of the process boundary.
            assert handle.urn._program is not None
            stats = handle.sampling_stats()
            assert stats.get("count.descent_plan_compiles", 0) == 0
            assert stats["count.classified"] >= 400
            health = service.healthz()
            sampling = health["sampling"]
            assert sampling["plan_compiles"] == 0
            assert sampling["classified"] >= 400
            assert sampling["gather_builds"] > 0
            assert sampling["descent_seconds"] >= 0.0
