"""Incremental maintenance under edge updates: bit-identity everywhere.

The delta subsystem's contract mirrors the sharded build's: *exact*
equality with the oracle — a fresh build on the updated graph under the
same coloring — for the table bytes, the kept key lists, the estimates,
and the master RNG stream.  Every assertion here is exact
(``array_equal``/``==``), never ``approx``.

The harness churns random graphs with random mixed insert/delete
batches and checks the maintained state against fresh rebuilds across
layouts (dense, succinct), layer stores (in-memory, spilled, sharded)
and both sampling methods, plus the sampling-plane cache retention
paths (kept gathered store with live dirty lanes; threshold flush), the
empty-urn lifecycle, delta artifacts and compaction, and the facade /
serve / CLI wiring.
"""

from __future__ import annotations

import hashlib
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.artifacts import (
    compact_table,
    load_manifest,
    load_table_delta,
    open_table,
    save_table_delta,
)
from repro.cli import main as cli_main
from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.incremental import (
    _FrontierReader,
    apply_edge_updates,
    touched_frontiers,
)
from repro.errors import ArtifactError, BuildError
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.motivo import MotivoConfig, MotivoCounter
from repro.serve import SamplingService, serve_http
from repro.util.instrument import Instrumentation

from support.graphgen import powerlaw_edges


def _edge_list(graph: Graph):
    return [(u, v) for u, v in graph.edges()]


def _mixed_batch(rng, graph: Graph, inserts: int, deletes: int):
    """A random batch: ``inserts`` absent pairs in, ``deletes`` edges out."""
    n = graph.num_vertices
    batch = []
    present = _edge_list(graph)
    if present and deletes:
        picks = rng.choice(len(present), size=min(deletes, len(present)),
                           replace=False)
        batch.extend(("-", *present[int(i)]) for i in picks)
    seen = set()
    while len(seen) < inserts:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        a, b = min(u, v), max(u, v)
        if (a, b) in seen or graph.has_edge(a, b):
            continue
        seen.add((a, b))
        batch.append(("+", a, b))
    rng.shuffle(batch)
    return batch


def _assert_tables_equal(reference, table, k):
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


def _digest(table, k: int) -> str:
    digest = hashlib.sha256()
    for h in range(1, k + 1):
        layer = table.layer(h)
        digest.update(repr(layer.keys).encode())
        digest.update(np.ascontiguousarray(
            layer.dense_counts(), dtype=np.float64).tobytes())
    return digest.hexdigest()


def _rng_state(counter: MotivoCounter):
    return counter._rng.bit_generator.state


class TestGraphSplice:
    """``Graph.apply_updates`` against the from-scratch constructor."""

    @pytest.mark.parametrize("trial", range(5))
    def test_splice_equals_from_edges(self, trial):
        rng = np.random.default_rng(4100 + trial)
        n = int(rng.integers(15, 60))
        m = min(int(rng.integers(n, 3 * n)), n * (n - 1) // 2)
        graph = Graph.from_edges(powerlaw_edges(n, m, seed=trial), n)
        batch = _mixed_batch(rng, graph, inserts=int(rng.integers(0, 6)),
                             deletes=int(rng.integers(0, 6)))
        new_graph, touched = graph.apply_updates(batch)

        edges = set(_edge_list(graph))
        for op, u, v in batch:
            pair = (min(u, v), max(u, v))
            (edges.add if op == "+" else edges.discard)(pair)
        expected = Graph.from_edges(sorted(edges), n)
        assert np.array_equal(new_graph.indptr, expected.indptr)
        assert np.array_equal(new_graph.indices, expected.indices)
        assert new_graph.fingerprint() == expected.fingerprint()
        assert np.array_equal(touched, np.sort(touched))

    def test_noop_batch_changes_nothing(self):
        graph = erdos_renyi(20, 40, rng=3)
        u, v = next(iter(graph.edges()))
        absent = next(
            (a, b) for a in range(20) for b in range(a + 1, 20)
            if not graph.has_edge(a, b)
        )
        new_graph, touched = graph.apply_updates(
            [("+", u, v), ("-", *absent)]
        )
        assert touched.size == 0
        assert new_graph.fingerprint() == graph.fingerprint()

    def test_last_op_wins_within_batch(self):
        graph = erdos_renyi(20, 40, rng=3)
        absent = next(
            (a, b) for a in range(20) for b in range(a + 1, 20)
            if not graph.has_edge(a, b)
        )
        new_graph, touched = graph.apply_updates(
            [("+", *absent), ("-", *absent)]
        )
        assert touched.size == 0
        assert new_graph.fingerprint() == graph.fingerprint()


class TestFrontierReader:
    def test_halo_is_rebuilt_when_rows_change(self):
        """One reader asked for two row sets answers each like a fresh
        reader: the cached halo belongs to the rows it was built for."""
        graph = erdos_renyi(40, 100, rng=3)
        coloring = ColoringScheme.uniform(40, 4, rng=4)
        table = build_table(graph, coloring)
        adjacency = graph.adjacency_csr()
        reader = _FrontierReader(table, adjacency, Instrumentation())
        for rows in (np.arange(0, 40, 3), np.arange(5, 25)):
            fresh = _FrontierReader(table, adjacency, Instrumentation())
            for size in (1, 2):
                assert np.array_equal(
                    reader.subset_sums(size, rows, None),
                    fresh.subset_sums(size, rows, None),
                )


class TestTouchedFrontiers:
    def test_balls_are_union_bfs_balls(self):
        """Shell-by-shell growth reaches exactly the BFS balls over the
        union adjacency, on power-law and ER graphs and radii up to 5."""
        cases = [(11, Graph.from_edges(powerlaw_edges(40, 70, seed=2), 40), 5)]
        for seed in range(4):
            n = 20 + 12 * seed
            graph = (
                Graph.from_edges(powerlaw_edges(n, 2 * n, seed=seed), n)
                if seed % 2 else erdos_renyi(n, 2 * n, rng=seed)
            )
            cases.append((900 + seed, graph, 4 + seed))
        for rng_seed, graph, k in cases:
            rng = np.random.default_rng(rng_seed)
            batch = _mixed_batch(rng, graph, inserts=2, deletes=2)
            new_graph, _ = graph.apply_updates(batch)
            _, _, endpoints = graph.resolve_updates(batch)
            balls = touched_frontiers(graph, new_graph, endpoints, k)
            assert len(balls) == k - 1

            # Reference: BFS over the union adjacency.
            union = {v: set() for v in range(graph.num_vertices)}
            for g in (graph, new_graph):
                for u, v in g.edges():
                    union[u].add(v)
                    union[v].add(u)
            ball = set(int(e) for e in endpoints)
            for got in balls:
                assert got.dtype == np.int64
                assert np.array_equal(got, np.asarray(sorted(ball)))
                ball |= {w for v in ball for w in union[v]}

    def test_nested(self):
        graph = erdos_renyi(30, 60, rng=1)
        new_graph, _ = graph.apply_updates([("+", 0, 1)])
        balls = touched_frontiers(
            graph, new_graph, np.asarray([0, 1]), 5
        )
        for inner, outer in zip(balls, balls[1:]):
            assert np.isin(inner, outer).all()


class TestDeltaBitIdentity:
    """The core property: delta-maintained table == fresh rebuild."""

    @pytest.mark.parametrize("trial", range(6))
    def test_random_churn_matches_fresh_build(self, trial):
        rng = np.random.default_rng(5200 + trial)
        k = int(rng.integers(3, 6))
        n = int(rng.integers(24, 60))
        m = min(int(rng.integers(n, 3 * n)), n * (n - 1) // 2)
        layout = "dense" if trial % 2 == 0 else "succinct"
        zero_rooting = trial % 3 != 0
        graph = Graph.from_edges(powerlaw_edges(n, m, seed=trial), n)
        coloring = ColoringScheme.uniform(
            n, k, rng=np.random.default_rng(6200 + trial)
        )
        table = build_table(
            graph, coloring, layout=layout, zero_rooting=zero_rooting
        )
        for _round in range(3):
            batch = _mixed_batch(
                rng, graph,
                inserts=int(rng.integers(1, 6)),
                deletes=int(rng.integers(0, 6)),
            )
            result = apply_edge_updates(table, graph, batch, coloring)
            fresh = build_table(
                result.graph, coloring, layout=layout,
                zero_rooting=zero_rooting,
            )
            _assert_tables_equal(fresh, result.table, k)
            for h in range(2, k + 1):
                assert (
                    result.table.layer(h).layout == fresh.layer(h).layout
                )
            graph, table = result.graph, result.table

    def test_in_place_matches_copy_path(self):
        n, m, k = 40, 90, 4
        graph = erdos_renyi(n, m, rng=8)
        coloring = ColoringScheme.uniform(n, k, rng=9)
        batch = [("+", 0, 1), ("-", *next(iter(graph.edges())))]
        copied = apply_edge_updates(
            build_table(graph, coloring), graph, batch, coloring,
            in_place=False,
        )
        patched = apply_edge_updates(
            build_table(graph, coloring), graph, batch, coloring,
            in_place=True,
        )
        _assert_tables_equal(copied.table, patched.table, k)
        assert copied.dirty_columns is not None
        assert np.array_equal(copied.dirty_columns, patched.dirty_columns)

    def test_isolated_vertex_gains_first_edge(self):
        n, k = 20, 3
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)], n)
        coloring = ColoringScheme.uniform(n, k, rng=4)
        table = build_table(graph, coloring)
        result = apply_edge_updates(
            table, graph, [("+", 10, 11), ("+", 11, 12)], coloring
        )
        fresh = build_table(result.graph, coloring)
        _assert_tables_equal(fresh, result.table, k)

    @pytest.mark.parametrize("layout", ["dense", "succinct"])
    @pytest.mark.parametrize("zero_rooting", [True, False])
    def test_missing_color_takes_fallback_path(self, layout, zero_rooting):
        n, k = 30, 4
        graph = erdos_renyi(n, 90, rng=2)
        colors = np.zeros(n, dtype=np.int64)
        colors[::2] = 2  # colors 1 and 3 never occur
        coloring = ColoringScheme.fixed(colors, k)
        table = build_table(
            graph, coloring, layout=layout, zero_rooting=zero_rooting
        )
        rng = np.random.default_rng(31)
        for _round in range(3):
            batch = _mixed_batch(rng, graph, inserts=3, deletes=2)
            instrumentation = Instrumentation()
            result = apply_edge_updates(
                table, graph, batch, coloring,
                instrumentation=instrumentation,
            )
            assert instrumentation["fallback_levels"] > 0
            fresh = build_table(
                result.graph, coloring, layout=layout,
                zero_rooting=zero_rooting,
            )
            _assert_tables_equal(fresh, result.table, k)
            graph, table = result.graph, result.table

    def test_mismatched_coloring_rejected(self):
        graph = erdos_renyi(20, 40, rng=2)
        coloring = ColoringScheme.uniform(20, 3, rng=2)
        table = build_table(graph, coloring)
        wrong = ColoringScheme.uniform(20, 4, rng=2)
        with pytest.raises(BuildError):
            apply_edge_updates(table, graph, [("+", 0, 1)], wrong)


class TestCounterUpdateAcrossStores:
    """update() bit-identity for every layout × store combination."""

    def _configs(self, tmp_path):
        return {
            "dense": MotivoConfig(k=4, seed=21),
            "succinct": MotivoConfig(k=4, seed=21, table_layout="succinct"),
            "spill": MotivoConfig(
                k=4, seed=21, spill_dir=str(tmp_path / "spill")
            ),
            "sharded": MotivoConfig(
                k=4, seed=21, num_shards=3,
                shard_dir=str(tmp_path / "shards"),
            ),
        }

    @pytest.mark.parametrize("store", ["dense", "succinct", "spill",
                                       "sharded"])
    def test_update_equals_fresh_build_and_samples(self, store, tmp_path):
        graph = erdos_renyi(40, 100, rng=6)
        config = self._configs(tmp_path)[store]
        counter = MotivoCounter(graph, config)
        counter.build()
        rng = np.random.default_rng(900)
        batch = _mixed_batch(rng, graph, inserts=3, deletes=3)
        stats = counter.update(batch)
        assert stats["mode"] == "incremental"
        assert stats["updates_applied"] == len(batch)
        assert stats["rows_touched"] > 0

        fresh = MotivoCounter(counter.graph, MotivoConfig(k=4, seed=21))
        fresh.build()
        assert _digest(counter.table, 4) == _digest(fresh.table, 4)
        assert _rng_state(counter) == _rng_state(fresh)
        # Both sampling methods, both counters at identical stream
        # positions: estimates and post-draw states must match exactly.
        naive_inc = counter.sample_naive(200)
        naive_fresh = fresh.sample_naive(200)
        assert naive_inc.counts == naive_fresh.counts
        assert naive_inc.hits == naive_fresh.hits
        ags_inc = counter.sample_ags(150, 20).estimates
        ags_fresh = fresh.sample_ags(150, 20).estimates
        assert ags_inc.counts == ags_fresh.counts
        assert _rng_state(counter) == _rng_state(fresh)
        counter.close()
        fresh.close()

    def test_rebuild_mode_is_the_oracle(self):
        graph = erdos_renyi(40, 100, rng=6)
        inc = MotivoCounter(graph, MotivoConfig(k=4, seed=5))
        ora = MotivoCounter(
            graph, MotivoConfig(k=4, seed=5, incremental_updates=False)
        )
        inc.build()
        ora.build()
        batch = _mixed_batch(np.random.default_rng(31), graph, 4, 4)
        assert inc.update(batch)["mode"] == "incremental"
        assert ora.update(batch)["mode"] == "rebuild"
        assert _digest(inc.table, 4) == _digest(ora.table, 4)
        assert inc.sample_naive(100).counts == ora.sample_naive(100).counts
        inc.close()
        ora.close()

    def test_noop_batch_short_circuits(self):
        graph = erdos_renyi(30, 60, rng=2)
        counter = MotivoCounter(graph, MotivoConfig(k=4, seed=3))
        counter.build()
        table_before = counter.table
        u, v = next(iter(graph.edges()))
        stats = counter.update([("+", u, v)])
        assert stats["updates_applied"] == 0
        assert counter.table is table_before
        assert counter.graph is graph
        counter.close()


class TestEmptyUrnLifecycle:
    def test_delete_to_empty_and_revive(self):
        n, k = 14, 3
        graph = erdos_renyi(n, 20, rng=12)
        counter = MotivoCounter(graph, MotivoConfig(k=k, seed=2))
        counter.build()
        assert not counter.empty_urn

        removed = [("-", u, v) for u, v in graph.edges()]
        counter.update(removed)
        assert counter.graph.num_edges == 0
        assert counter.empty_urn
        estimates = counter.sample_naive(10)
        assert estimates.empty_urn
        assert estimates.counts == {}

        counter.update([("+", u, v) for _op, u, v in removed])
        assert not counter.empty_urn
        assert counter.graph.fingerprint() == graph.fingerprint()
        fresh = MotivoCounter(graph, MotivoConfig(k=k, seed=2))
        fresh.build()
        assert _digest(counter.table, k) == _digest(fresh.table, k)
        assert counter.sample_naive(50).counts == \
            fresh.sample_naive(50).counts
        counter.close()
        fresh.close()


class TestGatheredStoreRetention:
    """The sampling plane's snapshot-pinned cache across updates.

    On a sparse graph the urn keeps its gathered-cumulative store across
    ``rebind``: stale rows are read only relatively (segment
    differences), so they stay bit-exact outside the dirty neighborhood,
    and dirty vertices take the exact live path.  A batch whose dirty
    neighborhood exceeds a quarter of the vertices flushes instead.
    Either way samples must equal a fresh counter's at matched stream
    positions.
    """

    K = 5
    N = 600

    def _cycle_counter(self):
        edges = [(i, (i + 1) % self.N) for i in range(self.N)]
        graph = Graph.from_edges(edges, self.N)
        counter = MotivoCounter(graph, MotivoConfig(k=self.K, seed=17))
        counter.build()
        return graph, counter

    def test_store_survives_sparse_update(self):
        graph, counter = self._cycle_counter()
        counter.sample_naive(128)  # materialize gathered rows
        assert counter.urn._gath_slot is not None
        counter.update([("+", 0, self.N // 2)])
        assert counter.urn._gath_dirty is not None, "store was flushed"
        assert counter.urn._gath_graph is graph, (
            "store must stay pinned to its build-time snapshot"
        )

        fresh = MotivoCounter(counter.graph, MotivoConfig(k=self.K, seed=17))
        fresh.build()
        fresh.sample_naive(128)  # match the incremental counter's stream
        assert _rng_state(counter) == _rng_state(fresh)
        inc = counter.sample_naive(96)
        ref = fresh.sample_naive(96)
        assert inc.counts == ref.counts
        assert inc.hits == ref.hits
        assert _rng_state(counter) == _rng_state(fresh)
        counter.close()
        fresh.close()

    def test_dirty_set_accumulates_across_updates(self):
        _graph, counter = self._cycle_counter()
        counter.sample_naive(128)
        counter.update([("+", 0, self.N // 2)])
        first = int(counter.urn._gath_dirty.sum())
        counter.update([("+", 100, 400)])
        assert counter.urn._gath_dirty is not None
        assert int(counter.urn._gath_dirty.sum()) >= first

        fresh = MotivoCounter(counter.graph, MotivoConfig(k=self.K, seed=17))
        fresh.build()
        fresh.sample_naive(128)
        assert counter.sample_naive(96).counts == \
            fresh.sample_naive(96).counts
        assert _rng_state(counter) == _rng_state(fresh)
        counter.close()
        fresh.close()

    def test_wide_batch_flushes_store(self):
        _graph, counter = self._cycle_counter()
        counter.sample_naive(128)
        rng = np.random.default_rng(44)
        batch = _mixed_batch(rng, counter.graph, inserts=80, deletes=0)
        counter.update(batch)
        assert counter.urn._gath_dirty is None, (
            "a whole-graph dirty neighborhood must flush, not accumulate"
        )
        fresh = MotivoCounter(counter.graph, MotivoConfig(k=self.K, seed=17))
        fresh.build()
        fresh.sample_naive(128)
        assert counter.sample_naive(96).counts == \
            fresh.sample_naive(96).counts
        assert _rng_state(counter) == _rng_state(fresh)
        counter.close()
        fresh.close()


class TestDeltaArtifacts:
    def _graph(self):
        return erdos_renyi(30, 70, rng=4)

    def test_save_load_roundtrip(self, tmp_path):
        manifest = save_table_delta(
            str(tmp_path / "d0"), [("+", 1, 2), ("-", 3, 4)],
            "sha256:p", "sha256:c", stats={"rows_touched": 5},
        )
        assert manifest["num_updates"] == 2
        ops, loaded = load_table_delta(str(tmp_path / "d0"))
        assert loaded["parent_fingerprint"] == "sha256:p"
        assert loaded["child_fingerprint"] == "sha256:c"
        assert loaded["stats"]["rows_touched"] == 5
        assert ops.shape == (2, 3)
        assert ops.dtype == np.int64

    def test_tampered_blob_rejected(self, tmp_path):
        save_table_delta(
            str(tmp_path / "d0"), [("+", 1, 2)], "sha256:p", "sha256:c"
        )
        blob = tmp_path / "d0" / "updates.npy"
        blob.write_bytes(blob.read_bytes()[:-1] + b"\x01")
        with pytest.raises(ArtifactError):
            load_table_delta(str(tmp_path / "d0"))

    def test_compaction_folds_delta_chain(self, tmp_path):
        graph = self._graph()
        counter = MotivoCounter(
            graph,
            MotivoConfig(
                k=4, seed=13, delta_log_dir=str(tmp_path / "deltas")
            ),
        )
        counter.build()
        counter.save_artifact(str(tmp_path / "base"))
        rng = np.random.default_rng(77)
        counter.update(_mixed_batch(rng, counter.graph, 3, 2))
        counter.update(_mixed_batch(rng, counter.graph, 2, 3))
        deltas = [str(tmp_path / "deltas" / f"delta-{i:06d}")
                  for i in range(2)]

        artifact, final_graph = compact_table(
            str(tmp_path / "base"), deltas, str(tmp_path / "out"), graph
        )
        assert final_graph.fingerprint() == counter.graph.fingerprint()
        assert _digest(artifact.table, 4) == _digest(counter.table, 4)
        lineage = artifact.manifest["lineage"]
        assert lineage["parent_fingerprint"] == graph.fingerprint()
        assert lineage["deltas_compacted"] == 2

        reopened = open_table(str(tmp_path / "out"), final_graph)
        assert _digest(reopened.table, 4) == _digest(counter.table, 4)
        counter.close()

    def test_compaction_rejects_out_of_order_chain(self, tmp_path):
        graph = self._graph()
        counter = MotivoCounter(
            graph,
            MotivoConfig(
                k=4, seed=13, delta_log_dir=str(tmp_path / "deltas")
            ),
        )
        counter.build()
        counter.save_artifact(str(tmp_path / "base"))
        rng = np.random.default_rng(78)
        counter.update(_mixed_batch(rng, counter.graph, 3, 2))
        counter.update(_mixed_batch(rng, counter.graph, 2, 3))
        counter.close()
        deltas = [str(tmp_path / "deltas" / f"delta-{i:06d}")
                  for i in (1, 0)]
        with pytest.raises(ArtifactError):
            compact_table(
                str(tmp_path / "base"), deltas, str(tmp_path / "out"),
                graph,
            )

    def test_update_lineage_recorded_in_saved_artifact(self, tmp_path):
        graph = self._graph()
        counter = MotivoCounter(graph, MotivoConfig(k=4, seed=13))
        counter.build()
        parent = graph.fingerprint()
        counter.update([("+", 0, 1)] if not graph.has_edge(0, 1)
                       else [("-", 0, 1)])
        counter.update([("+", 2, 5)] if not graph.has_edge(2, 5)
                       else [("-", 2, 5)])
        artifact = counter.save_artifact(str(tmp_path / "art"))
        lineage = artifact.manifest["lineage"]
        assert lineage["parent_fingerprint"] == parent
        assert lineage["update_batches"] == 2
        assert lineage["updates_applied"] == 2
        counter.close()


class TestServeUpdate:
    @pytest.fixture()
    def served(self, tmp_path):
        host = erdos_renyi(40, 100, rng=5)
        root = str(tmp_path / "cache")
        counter = MotivoCounter(
            host, MotivoConfig(k=4, seed=11, artifact_dir=root)
        )
        counter.build()
        counter.close()
        with SamplingService(root) as service:
            service.add_graph(host)
            yield host, service

    def test_service_update_rewrites_artifact(self, served):
        host, service = served
        before = service.count(samples=100, session="a", seed=3)
        absent = [
            (a, b) for a in range(10) for b in range(a + 1, 40)
            if not host.has_edge(a, b)
        ][:2]
        stats = service.update([["+", u, v] for u, v in absent])
        assert stats["updates_applied"] == 2
        assert stats["mode"] == "incremental"
        assert stats["fingerprint"] != host.fingerprint()
        after = service.count(samples=100, session="a", seed=3)
        assert after.estimates.counts  # served from the updated table
        assert before.key == after.key

    def test_http_update_endpoint(self, served):
        host, service = served
        absent = next(
            (a, b) for a in range(40) for b in range(a + 1, 40)
            if not host.has_edge(a, b)
        )
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            hostname, port = server.server_address[:2]
            url = f"http://{hostname}:{port}/update"

            def post(payload):
                request = urllib.request.Request(
                    url, data=json.dumps(payload).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request) as response:
                    return json.load(response)

            body = post({"updates": [["+", *absent], ["-", *absent]]})
            assert body["updates_applied"] == 0
            body = post({"updates": [["+", *absent]]})
            assert body["updates_applied"] == 1
            assert body["rows_touched"] > 0
            with pytest.raises(urllib.error.HTTPError) as info:
                post({"updates": "nope"})
            assert info.value.code == 400
        finally:
            server.shutdown()
            server.server_close()


class TestCLIUpdate:
    def test_update_command_applies_and_is_idempotent(
        self, tmp_path, capsys
    ):
        graph = erdos_renyi(25, 60, rng=9)
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text(
            "".join(f"{u} {v}\n" for u, v in graph.edges())
        )
        artifact = tmp_path / "artifact"
        assert cli_main([
            "build", str(graph_path), "--k", "3", "--seed", "5",
            "-o", str(artifact),
        ]) == 0
        capsys.readouterr()

        absent = next(
            (a, b) for a in range(25) for b in range(a + 1, 25)
            if not graph.has_edge(a, b)
        )
        present = next(iter(graph.edges()))
        updates_path = tmp_path / "updates.txt"
        updates_path.write_text(
            "# churn\n"
            f"+ {absent[0]} {absent[1]}\n"
            f"- {present[0]} {present[1]}\n"
        )
        assert cli_main([
            "update", str(artifact), "--updates", str(updates_path),
        ]) == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["updates_applied"] == 2
        assert stats["mode"] == "incremental"

        # The manifest now records the updated graph; replaying the
        # same file is a pure no-op (insert present, delete absent).
        assert cli_main([
            "update", str(artifact), "--updates", str(updates_path),
        ]) == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["updates_applied"] == 0

        manifest = load_manifest(str(artifact))
        new_graph, _ = graph.apply_updates(
            [("+", *absent), ("-", *present)]
        )
        assert manifest["graph"]["fingerprint"] == new_graph.fingerprint()
