"""The two in-process workloads: a one-shot count at scale, an ensemble.

Both follow the same shape.  Set-up loads the generated graph a few
times (the median is ``setup_s``).  Then one "count request" after
another runs until ``--seconds`` have passed, each followed by a few
single-edge table updates (the workload's write side).  With tracing
on, requests alternate untraced and traced, so the run also yields the
tracing overhead and a bit-identity check between the two.
"""

from __future__ import annotations

import contextlib
import sys
import time

import numpy as np

from checks import (
    agreement_problems, estimate_problems, hits_problems, identity_problems,
)
from common import (
    Outcome, children_cpu_s, graphlets_found, load_graph, mean, median,
    peak_rss_mb, percentile,
)
from inputs import (
    child_rng, child_seed, erdos_renyi_edges, update_stream,
)
from tracing import Tracer

SETUP_REPEATS = 15
COUNT_UPDATES_PER_REQUEST = 24
#: Largest share of a traced request's time that may fall outside every
#: layer span (the benchmark's own glue) before the run is failed.
RECONCILE_TOLERANCE = 0.05


def _load(edges, n, tracer):
    start = time.perf_counter()
    with tracer.span("graph.load"):
        graph = load_graph(edges, n)
    return graph, time.perf_counter() - start


def _apply_updates(state, stream, tracer, out):
    """Single-edge updates through the incremental maintainer.

    ``state`` holds the table, graph, coloring and registry being
    maintained; it is advanced in place.  Returns per-update
    ``(seconds, rows_touched, touched_vertices)``.
    """
    from repro.colorcoding.incremental import apply_edge_updates

    done = []
    for update in stream:
        out.attempted += 1
        try:
            start = time.perf_counter()
            with tracer.span("update"):
                result = apply_edge_updates(
                    state["table"], state["graph"], [update], state["coloring"],
                    registry=state["registry"], in_place=True,
                )
            seconds = time.perf_counter() - start
        except Exception:  # noqa: BLE001 - counted as a failed operation
            out.fail(f"update {update}")
            continue
        if result.updates_applied != 1:
            out.checks.add([f"update {update} applied {result.updates_applied} edges"], "update")
        state["table"], state["graph"] = result.table, result.graph
        done.append((seconds, result.rows_touched, int(result.touched.size)))
    return done


def _update_layers(done):
    return {
        "update.propagate_s": mean(d[0] for d in done),
        "update.rows_touched": mean(d[1] for d in done),
        "update.touched_vertices": mean(d[2] for d in done),
    }


def _check_estimates(out, k, codes, first, naive, ags, naive_budget, ags_budget):
    """The output checks every count request gets.

    ``first`` keeps the first request's estimates: every later request
    of the run uses the same seed and must reproduce them exactly.
    """
    checks = out.checks
    checks.add(estimate_problems(naive.counts, k, codes), "naive")
    checks.add(estimate_problems(ags.counts, k, codes), "ags")
    checks.add(hits_problems(naive.hits, naive_budget), "naive")
    checks.add(hits_problems(ags.hits, ags_budget), "ags")
    checks.add(agreement_problems(naive.counts, ags.counts), "naive vs ags")
    if first:
        checks.add(identity_problems(first["naive"], naive.counts, "naive"), "repeat")
        checks.add(identity_problems(first["ags"], ags.counts, "ags"), "repeat")
    else:
        first.update(naive=naive.counts, ags=ags.counts)


def _reconcile(tracer, root, total, out):
    """Layer self-times must add up to the request's own wall time."""
    selfs = tracer.self_times(root_names={root})
    unattributed = (total - sum(v for k, v in selfs.items() if k != root)) / total
    if abs(unattributed) > RECONCILE_TOLERANCE:
        out.checks.add(
            [f"layer self-times miss {unattributed:.1%} of the request time"],
            "trace",
        )
    return unattributed


def _run_requests(seconds, trace, request):
    """Call ``request(index, tracer)`` until ``seconds`` have passed.

    Untraced runs pass a disabled tracer every time; traced runs
    alternate a fresh enabled tracer and a disabled one, and make at
    least one request of each kind.  The traced request goes first, so
    process warm-up is charged to it and the overhead reads high, never
    low.
    """
    start = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 0
        request(index, Tracer(f"request-{index}", enabled=traced))
        index += 1
        if time.perf_counter() - start >= seconds and (not trace or index >= 2):
            return time.perf_counter() - start


def _finish(out, trace, requests, wall, setup_times, load_times, updates, layer_rows):
    """Fill the end-to-end or per-layer metrics of an in-process run."""
    plain = [r for r in requests if not r["traced"]]
    traced = [r for r in requests if r["traced"]]
    if not plain or (trace and not traced):
        out.checks.add(["no request succeeded"], "run")
        return
    if trace:
        metrics = {name: mean(row[name] for row in layer_rows) for name in layer_rows[0]}
        metrics["graph.load_s"] = median(load_times)
        metrics["trace.overhead_frac"] = (
            median(r["total"] for r in traced) / median(r["total"] for r in plain) - 1.0
        )
        out.metrics.update(metrics)
        return
    totals = [r["total"] for r in plain]
    out.metrics.update({
        "setup_s": median(setup_times),
        "count_p50_ms": median(totals) * 1e3,
        "count_p99_ms": percentile(totals, 99) * 1e3,
        "count_rps": len(plain) / wall,
        "update_p50_ms": median(u[0] for u in updates) * 1e3,
        "naive_samples_per_s": median(r["naive_rate"] for r in plain),
        "ags_samples_per_s": median(r["ags_rate"] for r in plain),
        "ags_graphlets_found": plain[0]["ags_found"],
    })


# ----------------------------------------------------------------------
# count_er50k_k7
# ----------------------------------------------------------------------

COUNT_N, COUNT_M, COUNT_K = 50_000, 125_000, 7
COUNT_NAIVE, COUNT_AGS = 8_000, 8_000


def _count_once(graph, seed, tracer):
    """One ``motivo-py count``: color, build, naive then AGS estimates."""
    from repro.colorcoding.buildup import build_table
    from repro.colorcoding.coloring import ColoringScheme
    from repro.colorcoding.urn import TreeletUrn
    from repro.sampling.ags import ags_estimate
    from repro.sampling.naive import naive_estimate
    from repro.sampling.occurrences import GraphletClassifier
    from repro.treelets.registry import TreeletRegistry
    from repro.util.instrument import Instrumentation

    k = COUNT_K
    rng = np.random.default_rng(seed)
    registry = TreeletRegistry(k)
    inst = Instrumentation()
    start = time.perf_counter()
    with tracer.span("count"):
        with tracer.span("buildup"):
            coloring = ColoringScheme.uniform(graph.num_vertices, k, rng)
            table = build_table(graph, coloring, registry=registry, instrumentation=inst)
        with tracer.span("urn.init"):
            urn = TreeletUrn(graph, table, coloring, registry=registry, instrumentation=inst)
            classifier = GraphletClassifier(graph, k)
        classifier.classify_batch = tracer.wrap("classify", classifier.classify_batch)
        naive_start = time.perf_counter()
        with tracer.span("naive"):
            naive = naive_estimate(
                urn, classifier, COUNT_NAIVE, rng,
                draw=tracer.wrap("urn.draw", urn.sample_batch),
            )
        ags_start = time.perf_counter()
        with tracer.span("ags"):
            ags = ags_estimate(
                urn, classifier, COUNT_AGS, rng=rng,
                draw_shape=tracer.wrap("urn.draw", urn.sample_shape_batch),
            )
        end = time.perf_counter()
    return {
        "total": end - start,
        "naive_s": ags_start - naive_start,
        "ags_s": end - ags_start,
        "naive": naive,
        "ags": ags,
        "table": table,
        "coloring": coloring,
        "registry": registry,
        "inst": inst,
        "classifier": classifier,
    }


def _urn_layers(counters):
    resident = counters.get("gathered_cumulative_builds", 0)
    transient = counters.get("gathered_transient_builds", 0)
    return {
        "urn.draws": counters.get("batched_samples", 0) + counters.get("batched_shape_samples", 0),
        "urn.transient_row_builds": transient,
        "urn.resident_row_share": resident / (resident + transient) if resident + transient else 1.0,
        "buildup.spmm_ops": counters.get("spmm_ops", 0),
        "buildup.merge_ops": counters.get("merge_ops", 0),
    }


def run_count(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    edges = erdos_renyi_edges(COUNT_N, COUNT_M, child_rng(seed, "graph"))
    setup_tracer = Tracer("setup", enabled=trace)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        graph, load_s = _load(edges, COUNT_N, setup_tracer)
        setup_times.append(load_s)
    color_seed = child_seed(seed, "coloring")
    requests, updates, layer_rows, spans = [], [], [], []
    codes = set()
    first = {}

    def request(index, tracer):
        stream = update_stream(
            edges, COUNT_N, COUNT_UPDATES_PER_REQUEST, child_rng(seed, f"updates-{index}"))
        out.attempted += 1
        try:
            op = _count_once(graph, color_seed, tracer)
        except Exception:  # noqa: BLE001 - counted as a failed operation
            out.fail("count")
            return
        naive, ags = op["naive"], op["ags"].estimates
        _check_estimates(out, COUNT_K, codes, first, naive, ags, COUNT_NAIVE, COUNT_AGS)
        table = op["table"]
        pairs, table_mb = table.total_pairs(), table.actual_bytes() / 2**20
        state = {key: op[key] for key in ("table", "coloring", "registry")}
        state["graph"] = graph
        done = _apply_updates(state, stream, tracer, out)
        updates.extend(done)
        requests.append({
            "traced": tracer.enabled,
            "total": op["total"],
            "naive_rate": COUNT_NAIVE / op["naive_s"],
            "ags_rate": COUNT_AGS / op["ags_s"],
            "ags_found": graphlets_found(ags.hits),
        })
        if not tracer.enabled:
            return
        selfs = tracer.self_times()
        row = {
            "buildup.s": selfs.get("buildup", 0.0),
            "table.pairs": pairs,
            "table.mb": table_mb,
            "urn.init_s": selfs.get("urn.init", 0.0),
            "urn.draw_s": selfs.get("urn.draw", 0.0),
            "classify.s": selfs.get("classify", 0.0),
            "classify.rows": op["classifier"].classified,
            "naive.self_s": selfs.get("naive", 0.0),
            "ags.self_s": selfs.get("ags", 0.0),
            "ags.switches": op["ags"].switches,
            "ags.covered": len(op["ags"].covered),
            "trace.unattributed_frac": _reconcile(tracer, "count", op["total"], out),
            **_urn_layers(op["inst"].counters),
            **_update_layers(done),
        }
        layer_rows.append(row)
        spans.extend(tracer.finished())

    wall = _run_requests(seconds, trace, request)
    out.spans = spans + setup_tracer.finished()
    if not trace:
        out.metrics["peak_rss_mb"] = peak_rss_mb(children=False)
    _finish(out, trace, requests, wall, setup_times, setup_times, updates, layer_rows)
    return out


# ----------------------------------------------------------------------
# ensemble_fig3_k6
# ----------------------------------------------------------------------

ENSEMBLE_N, ENSEMBLE_M, ENSEMBLE_K = 2_000, 10_000, 6
COLORINGS, SAMPLES_PER_COLORING, JOBS = 8, 40_000, 2
#: Saturated-graph updates cost ~20 ms each, so a request carries more
#: of them than the ER workload's to keep their median steady.
ENSEMBLE_UPDATES_PER_REQUEST = 48


@contextlib.contextmanager
def _member_timers():
    """Time each ensemble member's build and sampling calls.

    Wraps the facade methods every member calls, at class level, before
    the engine's pool forks, so the workers inherit the wrappers.  The
    timings go into the member's own instrumentation, which the engine
    already ships back and merges.
    """
    from repro.motivo import MotivoCounter

    originals = {
        name: getattr(MotivoCounter, name)
        for name in ("build", "sample_naive", "sample_ags")
    }

    def wrap(name, method):
        def timed_member(self, *args, **kwargs):
            classifier = self.classifier
            before = (0.0, 0) if classifier is None else (
                classifier.classify_seconds, classifier.classified)
            start = time.perf_counter()
            result = method(self, *args, **kwargs)
            registry = self.instrumentation.registry
            if name == "build":
                registry.add_time("bench_build", time.perf_counter() - start)
                return result
            registry.add_time("bench_sample", time.perf_counter() - start)
            if self.classifier is not None:
                registry.add_time("bench_classify", self.classifier.classify_seconds - before[0])
                registry.inc("bench_classify_rows", self.classifier.classified - before[1])
            if name == "sample_ags":
                registry.inc("bench_ags_switches", result.switches)
                registry.inc("bench_ags_covered", len(result.covered))
            return result

        return timed_member

    for name, method in originals.items():
        setattr(MotivoCounter, name, wrap(name, method))
    try:
        yield
    finally:
        for name, method in originals.items():
            setattr(MotivoCounter, name, method)


def _ensemble_once(graph, seed, tracer):
    from repro import MotivoConfig, PipelineEngine

    engine = PipelineEngine(
        graph, MotivoConfig(k=ENSEMBLE_K, seed=seed), colorings=COLORINGS, jobs=JOBS
    )
    timers = _member_timers() if tracer.enabled else contextlib.nullcontext()
    fallbacks = 0
    start = time.perf_counter()
    with timers, tracer.span("ensemble"):
        cpu = children_cpu_s()
        with tracer.span("engine.run_naive"):
            naive = engine.run_naive(SAMPLES_PER_COLORING)
        mid = time.perf_counter()
        fallbacks += children_cpu_s() <= cpu
        cpu = children_cpu_s()
        with tracer.span("engine.run_ags"):
            ags = engine.run_ags(SAMPLES_PER_COLORING)
        end = time.perf_counter()
        fallbacks += children_cpu_s() <= cpu
    return {
        "total": end - start, "naive_s": mid - start, "ags_s": end - mid,
        "naive": naive, "ags": ags, "fallbacks": int(fallbacks),
    }


def _engine_layers(op, tracer):
    naive = op["naive"].instrumentation.snapshot()
    ags = op["ags"].instrumentation.snapshot()
    both = {key: naive.get(key, 0.0) + ags.get(key, 0.0) for key in set(naive) | set(ags)}
    counters = {key[len("count."):]: value for key, value in both.items() if key.startswith("count.")}
    run_s = tracer.duration("engine.run_naive") + tracer.duration("engine.run_ags")
    busy = both.get("time.bench_build", 0.0) + both.get("time.bench_sample", 0.0)

    def sampling_self(snap):
        return (snap.get("time.bench_sample", 0.0) - snap.get("time.sample_descent", 0.0)
                - snap.get("time.bench_classify", 0.0))

    return {
        "buildup.s": both.get("time.buildup", 0.0),
        "urn.init_s": both.get("time.bench_build", 0.0) - both.get("time.buildup", 0.0),
        "urn.draw_s": both.get("time.sample_descent", 0.0),
        "classify.s": both.get("time.bench_classify", 0.0),
        "classify.rows": both.get("count.bench_classify_rows", 0.0),
        "naive.self_s": sampling_self(naive),
        "ags.self_s": sampling_self(ags),
        "ags.switches": ags.get("count.bench_ags_switches", 0.0),
        "ags.covered": ags.get("count.bench_ags_covered", 0.0),
        "engine.run_s": run_s,
        "engine.member_busy_s": busy,
        "engine.overhead_s": JOBS * run_s - busy,
        "engine.empty_runs": op["naive"].empty_runs + op["ags"].empty_runs,
        **_urn_layers(counters),
    }


def run_ensemble(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.colorcoding.buildup import build_table
    from repro.colorcoding.coloring import ColoringScheme
    from repro.treelets.registry import TreeletRegistry

    out = Outcome()
    edges = erdos_renyi_edges(ENSEMBLE_N, ENSEMBLE_M, child_rng(seed, "graph"))
    setup_tracer = Tracer("setup", enabled=trace)
    setup_times, load_times = [], []
    registry = TreeletRegistry(ENSEMBLE_K)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        graph, load_s = _load(edges, ENSEMBLE_N, setup_tracer)
        coloring = ColoringScheme.uniform(
            ENSEMBLE_N, ENSEMBLE_K, child_rng(seed, "write-coloring"))
        table = build_table(graph, coloring, registry=registry)
        setup_times.append(time.perf_counter() - start)
        load_times.append(load_s)
    write = {"table": table, "graph": graph, "coloring": coloring, "registry": registry}
    pairs, table_mb = table.total_pairs(), table.actual_bytes() / 2**20
    stream = update_stream(
        edges, ENSEMBLE_N, ENSEMBLE_UPDATES_PER_REQUEST * 200, child_rng(seed, "updates"))
    ensemble_seed = child_seed(seed, "ensemble")
    requests, updates, layer_rows, spans = [], [], [], []
    fallbacks = []
    codes = set()
    first = {}
    expected_samples = COLORINGS * SAMPLES_PER_COLORING

    def request(index, tracer):
        out.attempted += 1
        try:
            op = _ensemble_once(graph, ensemble_seed, tracer)
        except Exception:  # noqa: BLE001 - counted as a failed operation
            out.fail("ensemble")
            return
        fallbacks.append(op["fallbacks"])
        if op["fallbacks"]:
            print("perfbench: the engine pool fell back to serial execution",
                  file=sys.stderr)
        naive, ags = op["naive"], op["ags"]
        _check_estimates(
            out, ENSEMBLE_K, codes, first, naive.estimates, ags.estimates,
            (COLORINGS - naive.empty_runs) * SAMPLES_PER_COLORING,
            (COLORINGS - ags.empty_runs) * SAMPLES_PER_COLORING)
        start = index * ENSEMBLE_UPDATES_PER_REQUEST
        done = _apply_updates(
            write, stream[start:start + ENSEMBLE_UPDATES_PER_REQUEST], tracer, out)
        updates.extend(done)
        requests.append({
            "traced": tracer.enabled,
            "total": op["total"],
            "naive_rate": expected_samples / op["naive_s"],
            "ags_rate": expected_samples / op["ags_s"],
            "ags_found": graphlets_found(ags.estimates.hits),
        })
        if not tracer.enabled:
            return
        row = _engine_layers(op, tracer)
        row.update(_update_layers(done))
        row["table.pairs"], row["table.mb"] = pairs, table_mb
        row["trace.unattributed_frac"] = _reconcile(tracer, "ensemble", op["total"], out)
        layer_rows.append(row)
        spans.extend(tracer.finished())

    wall = _run_requests(seconds, trace, request)
    out.spans = spans + setup_tracer.finished()
    if trace:
        out.metrics["engine.serial_fallbacks"] = sum(fallbacks)
    else:
        out.metrics["peak_rss_mb"] = peak_rss_mb(children=True)
    _finish(out, trace, requests, wall, setup_times, load_times, updates, layer_rows)
    return out
