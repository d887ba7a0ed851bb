"""Naive (CC-style) sampling: uniform treelet draws, indicator estimators.

Section 2.2's estimator: draw a colorful k-treelet copy uniformly at
random; the probability that it spans an occurrence of graphlet ``H_i`` is
``c_i σ_i / t`` where ``c_i`` is the number of colorful copies of ``H_i``,
``σ_i`` its number of spanning trees and ``t`` the total number of
colorful k-treelets.  Hence, with ``x_i`` hits among ``s`` samples,

    ĉ_i = (x_i / s) * t / σ_i          (colorful copies)
    ĝ_i = ĉ_i / p_k                    (all copies; p_k from the coloring)

(The full derivation, with worked examples, lives in
``docs/estimators.md``.)  Rare graphlets need Θ(t / (c_i σ_i)) samples to
be seen even once — the additive error barrier AGS breaks.

The sampling loop runs in chunks of ``batch_size`` through
:meth:`~repro.colorcoding.urn.TreeletUrn.sample_batch` and
:meth:`~repro.sampling.occurrences.GraphletClassifier.classify_batch`;
the chunking decides how the generator is consumed, so estimates are
reproducible per ``(seed, batch_size)``.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Optional

import numpy as np

from repro.colorcoding.urn import TreeletUrn
from repro.errors import SamplingError
from repro.graphlets.spanning import spanning_tree_count
from repro.sampling.estimates import GraphletEstimates
from repro.sampling.occurrences import GraphletClassifier
from repro.util.rng import RngLike, ensure_rng

__all__ = ["naive_estimate", "naive_hit_counts", "DEFAULT_BATCH_SIZE"]

#: Samples per vectorized chunk.  Large enough to amortize the per-batch
#: numpy call overhead, small enough that a short run still interleaves
#: with AGS-style bookkeeping; throughput is flat past ~2k on the
#: benchmark workload.
DEFAULT_BATCH_SIZE = 4096


def naive_hit_counts(
    urn: TreeletUrn,
    classifier: GraphletClassifier,
    num_samples: int,
    rng: RngLike = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    draw: Optional[Callable[[int, "np.random.Generator"], tuple]] = None,
) -> Counter:
    """Raw sampling loop: canonical graphlet encoding → number of hits.

    Draws run in chunks of ``batch_size`` (at least 1) through the
    vectorized engine.

    ``draw`` replaces the chunk draw ``urn.sample_batch(chunk, rng)``
    with a caller-supplied ``draw(chunk, rng)`` returning the same
    ``BatchSamples`` triple.  The serving layer uses this to route
    chunks through its request coalescer; a hook that consumes the
    generator exactly like ``sample_batch`` (one ``rng.random((chunk,
    urn.draw_width))`` block) keeps the estimate bit-identical.
    """
    if num_samples < 1:
        raise SamplingError("need at least one sample")
    if batch_size < 1:
        raise SamplingError(f"batch_size must be at least 1, got {batch_size}")
    rng = ensure_rng(rng)
    hits: Counter = Counter()
    if draw is None:
        draw = urn.sample_batch
    remaining = num_samples
    while remaining:
        chunk = min(batch_size, remaining)
        vertices, _treelets, _masks = draw(chunk, rng)
        codes = classifier.classify_batch(vertices)
        values, counts = np.unique(codes, return_counts=True)
        for bits, count in zip(values.tolist(), counts.tolist()):
            hits[bits] += count
        remaining -= chunk
    return hits


def naive_estimate(
    urn: TreeletUrn,
    classifier: GraphletClassifier,
    num_samples: int,
    rng: RngLike = None,
    sigma: Optional[Dict[int, int]] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    draw: Optional[Callable[[int, "np.random.Generator"], tuple]] = None,
) -> GraphletEstimates:
    """Full naive estimator: sample, classify, convert hits to counts.

    Parameters
    ----------
    urn, classifier:
        The sampling engine and the induced-graphlet classifier.
    num_samples:
        The sample budget ``s``.
    sigma:
        Optional precomputed spanning-tree counts (canonical encoding →
        σ_i); missing entries are computed via Kirchhoff on demand.
    batch_size:
        Samples per vectorized chunk (at least 1).
    draw:
        Optional chunk-draw hook, forwarded to :func:`naive_hit_counts`.
    """
    rng = ensure_rng(rng)
    hits = naive_hit_counts(
        urn, classifier, num_samples, rng, batch_size=batch_size, draw=draw
    )
    k = classifier.k
    total_treelets = urn.total_treelets
    colorful_p = urn.coloring.colorful_probability()
    sigma = dict(sigma) if sigma else {}

    counts: Dict[int, float] = {}
    for bits, hit_count in hits.items():
        sigma_i = sigma.get(bits)
        if sigma_i is None:
            sigma_i = spanning_tree_count(bits, k)
            sigma[bits] = sigma_i
        colorful_estimate = (hit_count / num_samples) * total_treelets / sigma_i
        counts[bits] = colorful_estimate / colorful_p
    return GraphletEstimates(
        k=k,
        counts=counts,
        samples=num_samples,
        hits=dict(hits),
        method="naive",
    )
