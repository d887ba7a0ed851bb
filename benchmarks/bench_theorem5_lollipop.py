"""Theorem 5 — the lollipop lower bound for sample(T)-based algorithms.

Theorem 5 exhibits graphs where some graphlet H (the induced k-path on
the lollipop graph) has frequency 1/poly(n), yet *any* algorithm based on
sample(T) needs Ω(1/p_H) draws in expectation to see one copy: the only
spanning tree of H is the path treelet, and the clique floods the path
urn with non-induced path copies.

The benchmark measures, on growing lollipops, the exact per-sample hit
probability p = c_path σ / r_path and the empirical hits in a fixed
budget, verifying (a) p shrinks polynomially with the clique size and
(b) empirical hit rates match p (i.e. no algorithmic shortcut exists).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.urn import TreeletUrn
from repro.exact.esu import exact_colorful_counts
from repro.graph.generators import lollipop
from repro.graphlets.enumerate import path_graphlet
from repro.graphlets.spanning import spanning_tree_shape_counts
from repro.sampling.occurrences import GraphletClassifier
from repro.treelets.encoding import canonical_free, encode_parent_vector

from common import emit, format_table

K = 4
CLIQUE_SIZES = (12, 18, 26)
TAIL = 20
BUDGET = 4000


def _path_shape() -> int:
    return canonical_free(encode_parent_vector([-1, 0, 1, 2]))


def _measure(clique_size: int):
    graph = lollipop(clique_size, TAIL)
    coloring = ColoringScheme.uniform(graph.num_vertices, K, rng=35)
    table = build_table(graph, coloring)
    urn = TreeletUrn(graph, table, coloring)
    classifier = GraphletClassifier(graph, K)
    path_bits = path_graphlet(K)
    shape = _path_shape()

    colorful = exact_colorful_counts(graph, K, coloring)
    sigma = spanning_tree_shape_counts(path_bits, K)[shape]
    r_path = urn.shape_total(shape)
    exact_p = colorful.get(path_bits, 0) * sigma / r_path

    vertices, _, _ = urn.sample_shape_batch(
        shape, BUDGET, np.random.default_rng(17)
    )
    hits = int((classifier.classify_batch(vertices) == path_bits).sum())
    return exact_p, hits


def test_theorem5_lollipop(benchmark):
    rows = []
    probabilities = []
    for clique_size in CLIQUE_SIZES:
        exact_p, hits = _measure(clique_size)
        probabilities.append(exact_p)
        expected_hits = exact_p * BUDGET
        rows.append(
            (
                f"lollipop({clique_size},{TAIL})",
                f"{exact_p:.2e}",
                f"{expected_hits:.1f}",
                hits,
                f"{1 / exact_p:,.0f}" if exact_p > 0 else "inf",
            )
        )
        # Empirical hits within Poisson range of the exact probability —
        # there is no way around the Ω(1/p) bound.
        if expected_hits > 1:
            slack = 5 * np.sqrt(expected_hits)
            assert abs(hits - expected_hits) <= slack, clique_size
    # The hit probability degrades polynomially as the clique grows
    # (consecutive steps may tie through coloring noise; the end-to-end
    # drop carries the claim).
    assert probabilities[0] >= probabilities[1] >= probabilities[2]
    assert probabilities[0] / probabilities[2] > 3

    emit(
        "theorem5_lollipop",
        "Theorem 5: induced k-paths on the lollipop graph\n"
        + format_table(
            [
                "graph", "hit prob p", "expected hits",
                f"hits in {BUDGET}", "samples needed (1/p)",
            ],
            rows,
        ),
    )

    graph = lollipop(18, TAIL)
    coloring = ColoringScheme.uniform(graph.num_vertices, K, rng=35)
    table = build_table(graph, coloring)
    urn = TreeletUrn(graph, table, coloring)
    shape = _path_shape()
    rng = np.random.default_rng(19)
    benchmark(lambda: urn.sample_shape_batch(shape, 1, rng))
