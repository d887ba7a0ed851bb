"""serve_mix_pl20k_k6: a read/write mix against ``motivo-py serve``.

Set-up builds a table artifact on a Chung-Lu power-law graph and starts
the server as a subprocess.  Before timing, served answers are checked
bit for bit against the library.  The load is a closed loop: two client
threads in this process, each on one keep-alive connection, sending
``POST /count`` (4 naive : 1 AGS, 256 samples, one fixed session per
client); every 40th request overall is a single-edge ``POST /update``.
After the run the served artifact's table is checked against a fresh
build on the final graph.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import shutil
import subprocess
import sys
import threading
import time

import numpy as np

from checks import (
    agreement_problems, decode_counts, digest_problems, estimate_problems,
    hits_problems, served_problems, table_digest,
)
from common import (
    Outcome, dir_bytes, graphlets_found, load_graph, mean, median, peak_rss_mb,
    percentile,
)
from inputs import apply_stream, child_seed, child_rng, chung_lu_edges, update_stream
from tracing import Tracer

N, M, EXPONENT, K = 20_000, 60_000, 2.2, 6
KEY = "pl20k"
CLIENTS = 2
SAMPLES = 256
AGS_EVERY = 5
UPDATE_EVERY = 40
HUBS = 20
#: Enough counts that ten or more lie beyond the p99.
MIN_COUNTS = 1_000
#: Timed phases stop here even short of MIN_COUNTS, so a slow program
#: still finishes the run inside its time limit.
HARD_STOP_S = 110.0
CHECK_SAMPLES = 4_096
SETUP_REPEATS = 3
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
RECONCILE_TOLERANCE = 0.05


class Server:
    """``python -m repro.cli serve`` on an ephemeral port."""

    def __init__(self, cache_dir: str, src_dir: str):
        env = dict(os.environ, PYTHONPATH=src_dir)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--artifact-dir", cache_dir, "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        found = re.search(r"http://[^\s:]+:(\d+)", line)
        if not found:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(found.group(1))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Client:
    """One keep-alive HTTP/1.1 connection; reconnects after an error."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None

    def call(self, method: str, path: str, body=None):
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {} if body is None else {"Content-Type": "application/json"}
            self.conn.request(method, path, payload, headers)
            response = self.conn.getresponse()
            data = response.read()
        except Exception:
            self.close()
            raise
        return response.status, data

    def post(self, path: str, body: dict):
        status, data = self.call("POST", path, body)
        return status, json.loads(data)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _setup_once(work, edges, build_seed, src_dir, tracer):
    from repro import MotivoConfig, MotivoCounter
    from repro.graph.io import save_binary

    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cache = os.path.join(work, "cache")
    start = time.perf_counter()
    with tracer.span("graph.load"):
        graph = load_graph(edges, N)
    counter = MotivoCounter(graph, MotivoConfig(k=K, seed=build_seed))
    with tracer.span("buildup"):
        counter.build()
    graph_path = os.path.join(work, "graph.npz")
    with tracer.span("artifact.save"):
        save_binary(graph, graph_path)
        counter.save_artifact(os.path.join(cache, KEY), source=graph_path)
    with tracer.span("serve.start"):
        server = Server(cache, src_dir)
    seconds = time.perf_counter() - start
    stats = {
        "buildup.spmm_ops": counter.instrumentation.counters.get("spmm_ops", 0),
        "buildup.merge_ops": counter.instrumentation.counters.get("merge_ops", 0),
        "table.pairs": counter.table.total_pairs(),
        "table.mb": counter.table.actual_bytes() / 2**20,
        "artifact.mb": dir_bytes(os.path.join(cache, KEY)) / 2**20,
    }
    counter.close()
    return graph, server, seconds, stats


def _check_served(client, graph, artifact_dir, seeds, tracer, out, suffix=""):
    """Served answers equal ``from_artifact(reseed=seed)`` for the same
    session seed; returns the served payloads and the reopen time."""
    from repro import MotivoCounter

    payloads = {}
    open_times = []
    for estimator, seed in seeds.items():
        start = time.perf_counter()
        with tracer.span("artifact.open"):
            reference = MotivoCounter.from_artifact(graph, artifact_dir, reseed=seed)
        open_times.append(time.perf_counter() - start)
        try:
            rounds = 2 if estimator == "naive" else 1
            for round_ in range(rounds):
                out.attempted += 1
                try:
                    status, payload = client.post("/count", {
                        "estimator": estimator, "samples": CHECK_SAMPLES,
                        "session": f"check-{estimator}{suffix}", "seed": seed,
                    })
                except Exception:  # noqa: BLE001 - counted as a failed operation
                    out.fail(f"check {estimator} request")
                    continue
                if status != 200:
                    out.failed += 1
                    out.checks.add([f"status {status}: {payload}"], f"check {estimator}")
                    continue
                expected = (reference.sample_naive(CHECK_SAMPLES) if estimator == "naive"
                            else reference.sample_ags(CHECK_SAMPLES).estimates)
                out.checks.add(served_problems(payload, expected), f"served {estimator} #{round_}")
                payloads.setdefault(estimator, payload)
        finally:
            reference.close()
    return payloads, open_times


class _Mix:
    """Shared state of the client threads of one timed phase."""

    def __init__(self, port, stream, sessions, seconds, min_counts, tracer, out, codes):
        self.port = port
        self.stream = stream
        self.sessions = sessions
        self.seconds = seconds
        self.min_counts = min_counts
        self.tracer = tracer
        self.out = out
        self.codes = codes
        self.lock = threading.Lock()
        self.next_index = 0
        self.counts = []
        self.updates = []
        self.applied = []
        self.start = None
        self.wall = 0.0

    def _take(self):
        with self.lock:
            elapsed = time.perf_counter() - self.start
            if elapsed >= HARD_STOP_S or (
                    elapsed >= self.seconds and len(self.counts) >= self.min_counts):
                return None
            index = self.next_index
            self.next_index += 1
            self.out.attempted += 1
            return index

    def _failed(self, what, problem=None):
        with self.lock:
            if problem is None:
                self.out.fail(what)
            else:
                self.out.failed += 1
                print(f"perfbench: {what} failed: {problem}", file=sys.stderr)

    def client(self, number):
        client = Client(self.port)
        session, seed = self.sessions[number]
        sequence = 0
        try:
            with self.tracer.span("client"):
                while True:
                    index = self._take()
                    if index is None:
                        return
                    if index % UPDATE_EVERY == UPDATE_EVERY - 1:
                        self._update(client, self.stream[index // UPDATE_EVERY])
                    else:
                        estimator = "ags" if sequence % AGS_EVERY == AGS_EVERY - 1 else "naive"
                        sequence += 1
                        self._count(client, estimator, session, seed)
        finally:
            client.close()

    def _count(self, client, estimator, session, seed):
        body = {"estimator": estimator, "samples": SAMPLES, "session": session, "seed": seed}
        start = time.perf_counter()
        try:
            with self.tracer.span("serve.count"):
                status, payload = client.post("/count", body)
        except Exception:  # noqa: BLE001 - counted as a failed operation
            self._failed("count")
            return
        latency = time.perf_counter() - start
        if status != 200:
            self._failed("count", f"status {status}: {payload}")
            return
        counts, hits = decode_counts(payload)
        problems = estimate_problems(counts, K, self.codes) + hits_problems(hits, SAMPLES)
        with self.lock:
            self.out.checks.add(problems, f"served {estimator}")
            self.counts.append((latency, payload["elapsed_ms"] / 1e3, estimator))

    def _update(self, client, update):
        start = time.perf_counter()
        try:
            with self.tracer.span("serve.update"):
                status, payload = client.post("/update", {"updates": [list(update)]})
        except Exception:  # noqa: BLE001 - counted as a failed operation
            self._failed("update")
            return
        latency = time.perf_counter() - start
        if status != 200:
            self._failed("update", f"status {status}: {payload}")
            return
        with self.lock:
            if payload.get("updates_applied") != 1:
                self.out.checks.add([f"{update} applied {payload.get('updates_applied')}"], "update")
            self.applied.append(update)
            self.updates.append((
                latency, payload["elapsed_seconds"], payload["propagate_seconds"],
                payload["rows_touched"], payload["touched_vertices"],
            ))

    def run(self):
        self.start = time.perf_counter()
        threads = [threading.Thread(target=self.client, args=(i,), name=f"client-{i}")
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall = time.perf_counter() - self.start
        return self


def _metrics_counter(text: str, name: str) -> float:
    found = re.search(rf"^{re.escape(name)} (\S+)$", text, re.MULTILINE)
    return float(found.group(1)) if found else float("nan")


def run_serve(seed: int, seconds: float, trace: bool, work_root: str, src_dir: str) -> Outcome:
    from repro.artifacts import open_table
    from repro.colorcoding.buildup import build_table
    from repro.graph.graph import Graph
    from repro.treelets.registry import TreeletRegistry

    out = Outcome()
    edges = chung_lu_edges(N, M, EXPONENT, child_rng(seed, "graph"))
    degrees = np.bincount(edges.ravel(), minlength=N)
    hubs = np.argsort(-degrees, kind="stable")[:HUBS]
    stream = update_stream(edges, N, 400, child_rng(seed, "updates"), hubs=hubs)
    build_seed = child_seed(seed, "build")
    setup_tracer = Tracer("setup", enabled=trace)
    setup_times, setup_stats, server = [], None, None
    try:
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            work = os.path.join(work_root, f"setup-{repeat}")
            graph, server, seconds_taken, setup_stats = _setup_once(
                work, edges, build_seed, src_dir, setup_tracer)
            setup_times.append(seconds_taken)
        artifact_dir = os.path.join(work, "cache", KEY)
        check_seeds = {"naive": child_seed(seed, "check-naive"), "ags": child_seed(seed, "check-ags")}
        check_client = Client(server.port)
        payloads, open_times = _check_served(
            check_client, graph, artifact_dir, check_seeds, setup_tracer, out)
        checked_counts = 3
        if trace:
            traced, _ = _check_served(
                check_client, graph, artifact_dir, check_seeds,
                Tracer("check"), out, suffix="-traced")
            checked_counts += 3
            for estimator, payload in payloads.items():
                other = traced.get(estimator, {})
                if (payload["counts"], payload["hits"]) != (other.get("counts"), other.get("hits")):
                    out.checks.add(["traced and untraced answers differ"], f"served {estimator}")
        if "naive" in payloads and "ags" in payloads:
            naive, _ = decode_counts(payloads["naive"])
            ags, ags_hits = decode_counts(payloads["ags"])
            out.checks.add(estimate_problems(naive, K) + estimate_problems(ags, K), "check")
            out.checks.add(hits_problems(ags_hits, CHECK_SAMPLES), "check ags")
            out.checks.add(agreement_problems(naive, ags), "naive vs ags")
            ags_found = graphlets_found(ags_hits)
        else:
            out.checks.add(["the check requests did not all succeed"], "check")
            ags_found = 0

        sessions = [(f"client-{i}", child_seed(seed, f"client-{i}")) for i in range(CLIENTS)]
        codes = set()
        phases = []
        offset = 0
        plan = [(False, seconds / 2, 0), (True, seconds / 2, 0)] if trace else [
            (False, seconds, MIN_COUNTS)]
        for traced_phase, phase_seconds, min_counts in plan:
            tracer = Tracer(f"serve-{'traced' if traced_phase else 'plain'}", enabled=traced_phase)
            mix = _Mix(server.port, stream[offset:], sessions, phase_seconds, min_counts,
                       tracer, out, codes).run()
            offset += mix.next_index // UPDATE_EVERY
            if offset > len(stream) - 10:
                raise RuntimeError("update stream exhausted")
            phases.append(mix)
        applied = [u for mix in phases for u in mix.applied]

        status, health = check_client.call("GET", "/healthz")
        health = json.loads(health)
        status, metrics_text = check_client.call("GET", "/metrics")
        metrics_text = metrics_text.decode("utf-8")
        check_client.close()
        served = sum(len(mix.counts) for mix in phases) + checked_counts
        if _metrics_counter(metrics_text, "motivo_serve_requests_total") != served:
            out.checks.add(["/metrics request count disagrees with the answered requests"], "metrics")
        if health["updates"]["applied"] != len(applied):
            out.checks.add(["/healthz update count disagrees with the applied updates"], "healthz")
    finally:
        if server is not None:
            server.stop()

    final = Graph.from_edges(apply_stream(edges, applied), n=N)
    artifact = open_table(artifact_dir, final)
    rebuilt = build_table(final, artifact.coloring, registry=TreeletRegistry(K))
    out.checks.add(digest_problems(table_digest(artifact.table), table_digest(rebuilt)), "final table")

    plain = phases[0]
    if trace:
        out.metrics.update(_serve_layers(phases, health, setup_tracer, setup_stats, open_times, out))
        out.spans = setup_tracer.finished() + phases[1].tracer.finished()
        return out
    latencies = [c[0] for c in plain.counts]
    out.metrics.update({
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(children=True, own=False),
        "count_p50_ms": median(latencies) * 1e3,
        "count_p99_ms": percentile(latencies, 99) * 1e3,
        "count_rps": len(latencies) / plain.wall,
        "update_p50_ms": median(u[0] for u in plain.updates) * 1e3,
        "naive_samples_per_s": median(SAMPLES / c[0] for c in plain.counts if c[2] == "naive"),
        "ags_samples_per_s": median(SAMPLES / c[0] for c in plain.counts if c[2] == "ags"),
        "ags_graphlets_found": ags_found,
    })
    return out


def _serve_layers(phases, health, setup_tracer, setup_stats, open_times, out):
    plain, traced = phases
    spans = setup_tracer.finished()

    def setup_span(name):
        return median(s["end"] - s["start"] for s in spans if s["name"] == name)

    sampling = health["sampling"]
    resident, transient = sampling["gather_builds"], sampling["transient_builds"]
    clients = traced.tracer.duration("client")
    requests = traced.tracer.duration("serve.count") + traced.tracer.duration("serve.update")
    unattributed = 1.0 - requests / clients
    if abs(unattributed) > RECONCILE_TOLERANCE:
        out.checks.add([f"request spans miss {unattributed:.1%} of client time"], "trace")
    return {
        **setup_stats,
        "graph.load_s": setup_span("graph.load"),
        "buildup.s": setup_span("buildup"),
        "artifact.save_s": setup_span("artifact.save"),
        "artifact.open_s": median(open_times),
        "urn.draw_s": sampling["descent_seconds"],
        "urn.draws": health["samples"],
        "urn.transient_row_builds": transient,
        "urn.resident_row_share": resident / (resident + transient) if resident + transient else 1.0,
        "classify.s": sampling["classify_seconds"],
        "classify.rows": sampling["classified"],
        "serve.count_server_ms": median(c[1] for c in traced.counts) * 1e3,
        "serve.count_wait_ms": median(c[0] - c[1] for c in traced.counts) * 1e3,
        "serve.update_server_ms": median(u[1] for u in traced.updates) * 1e3,
        "serve.coalesced_batches": health["coalesced_batches"],
        "serve.coalesced_draws": health["coalesced_draws"],
        "serve.transient_row_builds": transient,
        "update.propagate_s": mean(u[2] for u in traced.updates),
        "update.rows_touched": mean(u[3] for u in traced.updates),
        "update.touched_vertices": mean(u[4] for u in traced.updates),
        "trace.overhead_frac": mean(c[0] for c in traced.counts) / mean(c[0] for c in plain.counts) - 1.0,
        "trace.unattributed_frac": unattributed,
    }
