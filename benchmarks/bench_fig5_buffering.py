"""Figure 5 — neighbor buffering on hub-dominated graphs.

On graphs with one extreme-degree node (BerkStan, Orkut) every sample
pays a Θ(Δ) neighbor sweep; buffering draws 100 children per sweep and
caches the spares, raising sampling rates 20-40x in the paper.

Scale note: the paper's hubs have Δ ≈ 10^5-10^6 so sweep time dominates a
sample; the surrogate hubs have Δ ≈ 400, so Python's fixed per-sample
overhead hides most of the wall-clock gain.  The *mechanism* — the number
of neighbor sweeps per sample collapsing — is asserted exactly; the
wall-clock rates are reported alongside and must not regress.

Buffering is a mechanism of the paper's one-sample-at-a-time sampler,
which the package replaces with the batched descent; that scalar sampler
lives in ``tests/support/reference.py`` and is measured from there.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pytest

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.urn import TreeletUrn
from repro.graph.datasets import load_dataset
from repro.util.instrument import Instrumentation

from common import emit, format_table

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tests"))
from support.reference import ScalarSampler  # noqa: E402

GRID = [
    ("berkstan", 5),
    ("berkstan", 6),
    ("orkut", 5),
    ("orkut", 6),
]

SAMPLES = 1500


def _measure(dataset: str, k: int, threshold: int):
    graph = load_dataset(dataset)
    coloring = ColoringScheme.uniform(graph.num_vertices, k, rng=17)
    table = build_table(graph, coloring)
    inst = Instrumentation()
    sampler = ScalarSampler(
        TreeletUrn(graph, table, coloring),
        buffer_threshold=threshold, buffer_size=100,
        instrumentation=inst,
    )
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for _ in range(SAMPLES):
        sampler.sample(rng)
    rate = SAMPLES / (time.perf_counter() - start)
    return rate, inst["neighbor_sweeps"]


def test_fig5_neighbor_buffering(benchmark):
    rows = []
    for dataset, k in GRID:
        plain_rate, plain_sweeps = _measure(dataset, k, threshold=10**9)
        buffered_rate, buffered_sweeps = _measure(dataset, k, threshold=100)
        rows.append(
            (
                f"{dataset} k={k}",
                f"{plain_rate:,.0f}",
                f"{buffered_rate:,.0f}",
                f"{plain_sweeps / SAMPLES:.2f}",
                f"{buffered_sweeps / SAMPLES:.2f}",
                f"{plain_sweeps / buffered_sweeps:.1f}x",
            )
        )
        # The mechanism: buffering must cut sweeps substantially...
        assert buffered_sweeps < plain_sweeps / 1.4
        # ...without making sampling slower.
        assert buffered_rate > 0.8 * plain_rate
    emit(
        "fig5_buffering",
        format_table(
            [
                "instance", "orig samples/s", "buffered samples/s",
                "sweeps/sample orig", "sweeps/sample buf", "sweep cut",
            ],
            rows,
        ),
    )

    graph = load_dataset("berkstan")
    coloring = ColoringScheme.uniform(graph.num_vertices, 5, rng=17)
    table = build_table(graph, coloring)
    sampler = ScalarSampler(
        TreeletUrn(graph, table, coloring), buffer_threshold=100
    )
    rng = np.random.default_rng(3)
    benchmark(lambda: sampler.sample(rng))
