"""The out-of-core sharded build: bit-identity and crash safety.

The sharded kernel's contract is *exact* equality with the in-memory
build — same layers, same keys, same count bytes, hence the same samples
and estimates for a fixed seed — whatever the shard count, storage
backend, layout, or sampling method.  Every assertion here is exact
(``array_equal``/``==``), never ``approx``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.sharded import build_table_sharded
from repro.colorcoding.urn import TreeletUrn
from repro.errors import BuildError
from repro.graph.generators import erdos_renyi, star_graph
from repro.graph.graph import Graph
from repro.sampling.naive import naive_estimate
from repro.sampling.occurrences import GraphletClassifier
from repro.table.flush import SpillStore
from repro.table.layer_store import (
    InMemoryStore,
    ShardedStore,
    SpillLayerStore,
)
from repro.treelets.registry import TreeletRegistry

from support.graphgen import powerlaw_edges
from support.reference import ScalarSampler


def _sharded(graph, coloring, tmp_path, tag, num_shards, layout="dense",
             jobs=1, zero_rooting=True):
    store = ShardedStore(
        num_shards, str(tmp_path / f"shards-{tag}"), owns_directory=True
    )
    table = build_table_sharded(
        graph, coloring, store=store, layout=layout, jobs=jobs,
        zero_rooting=zero_rooting,
    )
    return table, store


def _assert_layers_equal(reference, table, k):
    ref_sizes = [s for s in range(1, k + 1) if reference.has_layer(s)]
    got_sizes = [s for s in range(1, k + 1) if table.has_layer(s)]
    assert got_sizes == ref_sizes
    for size in ref_sizes:
        ref_layer = reference.layer(size)
        layer = table.layer(size)
        assert layer.keys == ref_layer.keys
        assert np.array_equal(
            np.asarray(layer.dense_counts()),
            np.asarray(ref_layer.dense_counts()),
        )


class TestShardedBitIdentity:
    """Randomized property harness: every cell equals the reference."""

    @pytest.mark.parametrize("trial", range(6))
    def test_random_graphs_all_stores_and_layouts(self, trial, tmp_path):
        rng = np.random.default_rng(1000 + trial)
        k = int(rng.integers(3, 6))
        n = int(rng.integers(20, 70))
        m = min(int(rng.integers(n, 4 * n)), n * (n - 1) // 2)
        num_shards = int(rng.integers(2, 8))
        edges = powerlaw_edges(n, m, seed=trial)
        graph = Graph.from_edges(edges, n)
        coloring = ColoringScheme.uniform(
            n, k, rng=np.random.default_rng(2000 + trial)
        )
        registry = TreeletRegistry(k)

        reference = build_table(
            graph, coloring, registry=registry, store=InMemoryStore()
        )
        spilled = build_table(
            graph, coloring, registry=registry,
            store=SpillLayerStore(SpillStore(str(tmp_path / "spill"))),
        )
        _assert_layers_equal(reference, spilled, k)
        for layout in ("dense", "succinct"):
            table, store = _sharded(
                graph, coloring, tmp_path, f"{trial}-{layout}",
                num_shards, layout=layout,
            )
            _assert_layers_equal(reference, table, k)
            store.close()

    @pytest.mark.parametrize("zero_rooting", [True, False])
    def test_sampling_methods_bit_identical(self, zero_rooting, tmp_path):
        k, n = 4, 48
        graph = erdos_renyi(n, 170, rng=3)
        coloring = ColoringScheme.uniform(n, k, rng=4)
        reference = build_table(graph, coloring, zero_rooting=zero_rooting)
        table, store = _sharded(
            graph, coloring, tmp_path, f"zr{zero_rooting}", 3,
            zero_rooting=zero_rooting,
        )
        try:
            ref_urn = TreeletUrn(graph, reference, coloring)
            urn = TreeletUrn(graph, table, coloring)
            for draw in (
                lambda u: u.sample_batch(257, np.random.default_rng(11)),
                lambda u: ScalarSampler(u).sample_batch(
                    257, np.random.default_rng(11)
                ),
            ):
                for a, b in zip(draw(ref_urn), draw(urn)):
                    assert np.array_equal(a, b)
            classifier = GraphletClassifier(graph, k)
            for batch_size in (256, 1):
                expected = naive_estimate(
                    ref_urn, classifier, 400,
                    np.random.default_rng(7), batch_size=batch_size,
                )
                got = naive_estimate(
                    urn, classifier, 400,
                    np.random.default_rng(7), batch_size=batch_size,
                )
                assert got.counts == expected.counts
        finally:
            store.close()

    def test_parallel_jobs_byte_identical(self, tmp_path):
        graph = erdos_renyi(60, 220, rng=9)
        coloring = ColoringScheme.uniform(60, 5, rng=10)
        serial, store_a = _sharded(graph, coloring, tmp_path, "serial", 4)
        pooled, store_b = _sharded(
            graph, coloring, tmp_path, "pooled", 4, jobs=3
        )
        try:
            _assert_layers_equal(serial, pooled, 5)
        finally:
            store_a.close()
            store_b.close()


class TestShardedDegenerateInputs:
    def test_all_vertices_color_zero(self, tmp_path):
        graph = erdos_renyi(30, 90, rng=2)
        coloring = ColoringScheme.fixed(np.zeros(30, dtype=np.int64), 4)
        reference = build_table(graph, coloring)
        table, store = _sharded(graph, coloring, tmp_path, "allzero", 3)
        _assert_layers_equal(reference, table, 4)
        store.close()

    def test_missing_color_takes_fallback_path(self, tmp_path):
        graph = erdos_renyi(30, 90, rng=2)
        colors = np.zeros(30, dtype=np.int64)
        colors[::2] = 2  # colors 1 and 3 never occur
        coloring = ColoringScheme.fixed(colors, 4)
        for zero_rooting in (True, False):
            reference = build_table(
                graph, coloring, zero_rooting=zero_rooting
            )
            store = ShardedStore(
                3, str(tmp_path / f"fb{zero_rooting}"), owns_directory=True
            )
            table = build_table_sharded(
                graph, coloring, zero_rooting=zero_rooting, store=store
            )
            _assert_layers_equal(reference, table, 4)
            store.close()

    @pytest.mark.parametrize("zero_rooting", [True, False])
    def test_whole_halo_path_without_sparsetools(
        self, tmp_path, monkeypatch, zero_rooting
    ):
        # Without scipy's private csr_matvecs entry point the stream
        # gathers the whole halo and runs one public-API SpMM instead.
        from repro.colorcoding import level, sharded

        graph = erdos_renyi(40, 130, rng=14)
        coloring = ColoringScheme.uniform(40, 5, rng=15)
        reference = build_table(graph, coloring, zero_rooting=zero_rooting)
        monkeypatch.setattr(sharded, "_scipy_sparsetools", None)
        monkeypatch.setattr(level, "_scipy_sparsetools", None)
        table, store = _sharded(
            graph, coloring, tmp_path, f"nost{zero_rooting}", 3,
            zero_rooting=zero_rooting,
        )
        _assert_layers_equal(reference, table, 5)
        store.close()

    def test_isolated_vertices_and_empty_shards(self, tmp_path):
        # 40 vertices, edges only among the first 6: most shards hold
        # nothing but isolated vertices.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
        graph = Graph.from_edges(edges, 40)
        coloring = ColoringScheme.uniform(40, 4, rng=8)
        reference = build_table(graph, coloring)
        table, store = _sharded(graph, coloring, tmp_path, "iso", 7)
        _assert_layers_equal(reference, table, 4)
        store.close()

    def test_shard_boundary_splits_a_neighborhood(self, tmp_path):
        # A star centered inside the first shard whose leaves span every
        # other shard: each leaf's neighbor sum crosses shard boundaries.
        graph = star_graph(12)
        coloring = ColoringScheme.uniform(
            graph.num_vertices, 4, rng=12
        )
        reference = build_table(graph, coloring)
        for num_shards in (2, 5, 13):
            table, store = _sharded(
                graph, coloring, tmp_path, f"star{num_shards}", num_shards
            )
            _assert_layers_equal(reference, table, 4)
            store.close()

    def test_more_shards_than_vertices(self, tmp_path):
        graph = erdos_renyi(5, 7, rng=1)
        coloring = ColoringScheme.uniform(5, 3, rng=1)
        reference = build_table(graph, coloring)
        table, store = _sharded(graph, coloring, tmp_path, "wide", 9)
        _assert_layers_equal(reference, table, 3)
        store.close()


class TestShardedValidation:
    def test_requires_directory_backed_store(self):
        graph = erdos_renyi(10, 20, rng=1)
        coloring = ColoringScheme.uniform(10, 3, rng=1)
        with pytest.raises(BuildError):
            build_table_sharded(graph, coloring, store=ShardedStore(2))
        with pytest.raises(BuildError):
            build_table_sharded(graph, coloring, store=None)

    def test_rejects_mismatched_coloring(self, tmp_path):
        graph = erdos_renyi(10, 20, rng=1)
        coloring = ColoringScheme.uniform(12, 3, rng=1)
        store = ShardedStore(2, str(tmp_path / "s"), owns_directory=True)
        with pytest.raises(BuildError):
            build_table_sharded(graph, coloring, store=store)
        store.close()


_KILL_SCRIPT = textwrap.dedent(
    """
    import os, signal
    import numpy as np
    from repro.colorcoding import sharded
    from repro.colorcoding.coloring import ColoringScheme
    from repro.graph.generators import erdos_renyi
    from repro.table.layer_store import ShardedStore

    directory = {directory!r}
    graph = erdos_renyi(36, 120, rng=2)
    coloring = ColoringScheme.uniform(36, 4, rng=3)

    original = ShardedStore.commit_shard
    def killing_commit(self, size, shard, tmp_path):
        if size == 2 and shard == 1:
            # Die mid-seal: the tmp file is written, the rename never
            # happens, and no cleanup code runs.
            os.kill(os.getpid(), signal.SIGKILL)
        return original(self, size, shard, tmp_path)
    ShardedStore.commit_shard = killing_commit

    store = ShardedStore(3, directory)
    sharded.build_table_sharded(graph, coloring, store=store)
    """
)


class TestCrashSafety:
    """SIGKILL mid-seal leaves only dead-owner scratch, which reaps."""

    def test_killed_build_leaves_no_live_orphans(self, tmp_path):
        directory = str(tmp_path / "crash-shards")
        os.makedirs(directory)
        script = _KILL_SCRIPT.format(directory=directory)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [
                os.path.join(os.path.dirname(__file__), os.pardir, "src"),
                os.path.dirname(os.path.dirname(__file__)) + "/tests",
                env.get("PYTHONPATH", ""),
            ])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == -signal.SIGKILL, result.stderr

        leftovers = [
            name for name in os.listdir(directory) if ".tmp-" in name
        ]
        assert leftovers, "the kill should strand the in-flight tmp file"
        # Every stranded tmp belongs to the dead pid, so a fresh store
        # reaps them all; close() then leaves nothing behind.
        store = ShardedStore(3, directory)
        assert store.reap_stale_tmp() == len(leftovers)
        store.close()
        remaining = [
            name for name in os.listdir(directory) if ".tmp-" in name
        ]
        assert remaining == []

    def test_restarted_build_succeeds_after_crash(self, tmp_path):
        directory = str(tmp_path / "retry-shards")
        os.makedirs(directory)
        script = _KILL_SCRIPT.format(directory=directory)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [
                os.path.join(os.path.dirname(__file__), os.pardir, "src"),
                env.get("PYTHONPATH", ""),
            ])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == -signal.SIGKILL, result.stderr

        graph = erdos_renyi(36, 120, rng=2)
        coloring = ColoringScheme.uniform(36, 4, rng=3)
        reference = build_table(graph, coloring)
        # build_table_sharded reaps the stale scratch itself on entry.
        store = ShardedStore(3, directory)
        table = build_table_sharded(graph, coloring, store=store)
        _assert_layers_equal(reference, table, 4)
        store.close()
