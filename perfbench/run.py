#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload count_er50k_k7 --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's ``src/`` directory (nothing
needs installing or building).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Any failed output check prints ``correct: false`` and
exits 1.  ``perfbench/README.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch artifacts and span files, inside the checkout (git-ignored).
WORK = os.path.join(ROOT, ".perfbench")

#: The seed claims are made on, and the held-out seed they must also
#: hold on (never used while tuning a change).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

WORKLOADS = ("count_er50k_k7", "ensemble_fig3_k6", "serve_mix_pl20k_k6")

#: Every workload reports every end-to-end metric (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "fraction",
    "count_p50_ms": "ms",
    "count_p99_ms": "ms",
    "count_rps": "1/s",
    "update_p50_ms": "ms",
    "naive_samples_per_s": "1/s",
    "ags_samples_per_s": "1/s",
    "ags_graphlets_found": "count",
}

#: Per-layer metrics of the traced run; a layer a workload does not
#: use reads 0 there.
PER_LAYER = {
    "graph.load_s": "s",
    "buildup.s": "s",
    "buildup.spmm_ops": "count",
    "buildup.merge_ops": "count",
    "table.pairs": "count",
    "table.mb": "MiB",
    "urn.init_s": "s",
    "urn.draw_s": "s",
    "urn.draws": "count",
    "urn.transient_row_builds": "count",
    "urn.resident_row_share": "fraction",
    "classify.s": "s",
    "classify.rows": "count",
    "naive.self_s": "s",
    "ags.self_s": "s",
    "ags.switches": "count",
    "ags.covered": "count",
    "engine.run_s": "s",
    "engine.member_busy_s": "s",
    "engine.overhead_s": "s",
    "engine.serial_fallbacks": "count",
    "engine.empty_runs": "count",
    "artifact.save_s": "s",
    "artifact.open_s": "s",
    "artifact.mb": "MiB",
    "update.propagate_s": "s",
    "update.rows_touched": "count",
    "update.touched_vertices": "count",
    "serve.count_server_ms": "ms",
    "serve.count_wait_ms": "ms",
    "serve.update_server_ms": "ms",
    "serve.coalesced_batches": "count",
    "serve.coalesced_draws": "count",
    "serve.transient_row_builds": "count",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import offline
    import serve_mix

    if name == "count_er50k_k7":
        return offline.run_count(seed, seconds, trace)
    if name == "ensemble_fig3_k6":
        return offline.run_ensemble(seed, seconds, trace)
    work = os.path.join(WORK, f"serve-{os.getpid()}")
    try:
        return serve_mix.run_serve(seed, seconds, trace, work, SRC)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(outcome, trace: bool) -> dict:
    """The result line; adds a problem for any missing or bad metric."""
    names = PER_LAYER if trace else END_TO_END
    measured = dict(outcome.metrics)
    if not trace:
        attempted = max(outcome.attempted, 1)
        measured["success_rate"] = 1.0 - outcome.failed / attempted
    unknown = sorted(set(measured) - set(names))
    if unknown:
        outcome.checks.add([f"unlisted metrics {unknown}"], "report")
    metrics = {}
    for name, unit in names.items():
        value = measured.get(name, 0.0 if trace else None)
        if value is None or not math.isfinite(float(value)):
            outcome.checks.add([f"metric {name} is {value!r}"], "report")
            value = 0.0
        metrics[name] = {"value": float(value), "unit": unit}
    return {
        "correct": outcome.checks.ok,
        "attempted": max(int(outcome.attempted), 1),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    trace = bool(args.trace)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, trace)
    except Exception:  # noqa: BLE001 - the run failed as a whole
        traceback.print_exc()
        print("perfbench: the workload raised; no result", file=sys.stderr)
        return 1
    result = report(outcome, trace)
    if trace and outcome.spans:
        from tracing import write_spans

        os.makedirs(WORK, exist_ok=True)
        write_spans(outcome.spans, os.path.join(
            WORK, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    for problem in outcome.checks.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
