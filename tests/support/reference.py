"""Reference implementations the fast paths are checked against.

The product runs one build kernel (the batched SpMM level step of
:mod:`repro.colorcoding.buildup`) and one sampler (the fused descent of
:class:`repro.colorcoding.urn.TreeletUrn`).  This module keeps the
straightforward versions of both, as the paper describes them, so the
identity tests and the paper's scalar-sampling benchmarks can compare
against them:

:func:`build_table_reference`
    The per-key build-up loop: one SpMV per ``(treelet, color split)``
    pair of Equation (1), with a per-level neighbor-sum cache.  The
    batched kernel enumerates pairs in this loop's order, so the two
    produce bit-identical tables.
:class:`ScalarSampler`
    The §2.2/§3.2 copy-materialization recursion over an urn's table,
    one sample at a time: ``sample()`` with the paper's neighbor
    buffering (§3.2, Figure 5), and ``sample_batch()`` /
    ``sample_shape_batch()``, which replay the recursion over the batched
    draw discipline's uniform matrix (buffering off) and so must return
    exactly what the urn's fused descent returns for the same seed.

Import as ``support.reference`` (tests run with ``tests/`` on the path;
benchmarks insert it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.colorcoding.buildup import _FrontierSealer, _install
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.level import check_build_args
from repro.colorcoding.urn import _SPLIT_EPS, BatchSamples, TreeletUrn
from repro.errors import SamplingError
from repro.graph.graph import Graph
from repro.table.count_table import CountTable
from repro.table.layer_store import InMemoryStore, LayerStore
from repro.treelets.encoding import getsize
from repro.treelets.registry import TreeletRegistry
from repro.util.bitops import iter_subsets_of_size, masks_of_size
from repro.util.instrument import Instrumentation
from repro.util.rng import RngLike, ensure_rng

__all__ = ["build_table_reference", "ScalarSampler"]

Key = Tuple[int, int]


# ----------------------------------------------------------------------
# Build-up: the per-key loop
# ----------------------------------------------------------------------


def build_table_reference(
    graph: Graph,
    coloring: ColoringScheme,
    registry: Optional[TreeletRegistry] = None,
    zero_rooting: bool = True,
    store: Optional[LayerStore] = None,
    instrumentation: Optional[Instrumentation] = None,
    layout: str = "dense",
) -> CountTable:
    """:func:`repro.colorcoding.buildup.build_table`, one key at a time.

    Same parameters and the same table, bit for bit; ``merge_ops`` is
    counted per realized pair exactly like the batched kernel counts it.
    """
    registry = check_build_args(graph, coloring, registry, layout)
    k = coloring.k
    instrumentation = instrumentation or Instrumentation()
    layer_store = store or InMemoryStore()
    adjacency = graph.adjacency_csr()
    zero_mask = coloring.indicator(0) if zero_rooting else None
    table = CountTable(k, graph.num_vertices, zero_rooted=zero_rooting)

    with instrumentation.timer("buildup"):
        level_one: Dict[Key, np.ndarray] = {}
        for color in range(k):
            indicator = coloring.indicator(color)
            if indicator.any():
                level_one[(0, 1 << color)] = indicator
        _install(layer_store, table, 1, level_one)
        sealer = _FrontierSealer(
            registry, layout, layer_store, instrumentation
        )
        for h in range(2, k + 1):
            entries: Dict[Key, np.ndarray] = {}
            # One SpMV per (T'', C'') key, cached for the level.
            neighbor_sums: Dict[Key, np.ndarray] = {}
            for treelet in registry.treelets_of_size(h):
                t_prime, t_second, beta_t = registry.decomposition(treelet)
                h_second = getsize(t_second)
                layer_prime = table.layer(h - h_second)
                layer_second = table.layer(h_second)
                for mask in masks_of_size(k, h):
                    accumulated: Optional[np.ndarray] = None
                    for sub_mask in iter_subsets_of_size(mask, h_second):
                        counts_second = layer_second.counts_for(
                            t_second, sub_mask
                        )
                        if counts_second is None:
                            continue
                        counts_prime = layer_prime.counts_for(
                            t_prime, mask ^ sub_mask
                        )
                        if counts_prime is None:
                            continue
                        instrumentation.count("merge_ops")
                        sums = neighbor_sums.get((t_second, sub_mask))
                        if sums is None:
                            sums = adjacency.dot(counts_second)
                            neighbor_sums[(t_second, sub_mask)] = sums
                        term = counts_prime * sums
                        if accumulated is None:
                            accumulated = term
                        else:
                            accumulated += term
                    if accumulated is None or not accumulated.any():
                        continue
                    if beta_t > 1:
                        accumulated /= beta_t
                    if h == k and zero_mask is not None:
                        accumulated = accumulated * zero_mask
                        if not accumulated.any():
                            continue
                    entries[(treelet, mask)] = accumulated
            _install(layer_store, table, h, entries)
            sealer.after_level(table, h)

    layer_store.finalize(table, instrumentation, layout=layout)
    if layout == "succinct":
        table.seal("succinct")
    return table


# ----------------------------------------------------------------------
# Sampling: the per-sample recursion
# ----------------------------------------------------------------------


class ScalarSampler:
    """The paper's one-sample-at-a-time sampler over an urn's table.

    Reads the urn's graph, table, registry and alias tables, so both
    draw from the same urn.  ``buffer_threshold`` / ``buffer_size`` are
    the §3.2 neighbor-buffering parameters (paper: 10^4 and 100): at a
    vertex of at least ``buffer_threshold`` neighbors one sweep draws
    ``buffer_size`` children and caches the spares.  Buffering applies
    to :meth:`sample` only; sweeps are counted as ``neighbor_sweeps`` in
    ``instrumentation``.
    """

    def __init__(
        self,
        urn: TreeletUrn,
        buffer_threshold: int = 10_000,
        buffer_size: int = 100,
        instrumentation: Optional[Instrumentation] = None,
    ):
        self.urn = urn
        self.buffer_threshold = buffer_threshold
        self.buffer_size = buffer_size
        self.instrumentation = instrumentation or Instrumentation()
        self._full_mask = (1 << urn.k) - 1
        self._buffers: Dict[Tuple[int, int, int], List[int]] = {}

    def sample(self, rng: RngLike = None) -> Tuple[Tuple[int, ...], int, int]:
        """A uniform colorful k-treelet copy: ``(vertices, treelet, mask)``."""
        rng = ensure_rng(rng)
        root = self.urn._root_alias.sample(rng)
        treelet, mask = self.urn.table.sample_key(root, rng)
        vertices = self._sample_copy(treelet, mask, root, rng.random, rng)
        return tuple(vertices), treelet, mask

    def sample_batch(self, n: int, rng: RngLike = None) -> BatchSamples:
        """What :meth:`TreeletUrn.sample_batch` returns, by recursion."""

        def pick(row):
            root = int(self.urn._root_alias.pick_from_uniforms(row[0], row[1]))
            return (root, *self.urn.table.sample_key_at(root, float(row[2])))

        return self._replay(n, rng, pick)

    def sample_shape_batch(
        self, shape: int, n: int, rng: RngLike = None
    ) -> BatchSamples:
        """What :meth:`TreeletUrn.sample_shape_batch` returns, by recursion."""
        alias = self.urn._shape_alias_for(shape)

        def pick(row):
            root = int(alias.pick_from_uniforms(row[0], row[1]))
            treelet = self._pick_rooted_variant(shape, root, float(row[2]))
            return root, treelet, self._full_mask

        return self._replay(n, rng, pick)

    def _replay(self, n: int, rng: RngLike, pick) -> BatchSamples:
        """The recursion over the batched draw discipline: row ``i`` of
        one ``(n, draw_width)`` uniform block drives sample ``i`` — slots
        0-2 through ``pick``, the rest read left to right (no buffering)."""
        if n < 1:
            raise SamplingError("need at least one sample")
        uniforms = ensure_rng(rng).random((n, self.urn.draw_width))
        vertices = np.empty((n, self.urn.k), dtype=np.int64)
        treelets = np.empty(n, dtype=np.int64)
        masks = np.empty(n, dtype=np.int64)
        for i, row in enumerate(uniforms):
            root, treelets[i], masks[i] = pick(row)
            vertices[i] = self._sample_copy(
                int(treelets[i]), int(masks[i]), root, iter(row[3:]).__next__
            )
        return vertices, treelets, masks

    def _pick_rooted_variant(self, shape: int, root: int, u: float) -> int:
        """Rooted variant of ``shape`` at ``root``, ∝ its count there."""
        variants = self.urn.registry.rooted_variants(shape)
        layer = self.urn.table.layer(self.urn.k)
        weights = []
        for rooted in variants:
            row = layer.row_of(rooted, self._full_mask)
            weights.append(0.0 if row is None else layer.value_at(row, root))
        r = u * sum(weights)
        running = 0.0
        for rooted, weight in zip(variants, weights):
            running += weight
            if r <= running:
                return rooted
        return variants[-1]

    def _sample_copy(
        self, treelet: int, mask: int, v: int, draw, rng=None
    ) -> List[int]:
        """Materialize one uniform copy of ``T_C`` rooted at ``v``.

        Recursion over the unique decomposition: choose the color split
        and the child endpoint with probability ∝ c(T'_{C'}, v) ·
        c(T''_{C''}, u), then recurse on both parts.  ``draw()`` returns
        the next uniform; ``rng``, when given, enables buffering.
        """
        if treelet == 0:  # SINGLETON
            return [v]
        table = self.urn.table
        t_prime, t_second, _beta = self.urn.registry.decomposition(treelet)
        h_second = getsize(t_second)
        layer_prime = table.layer(getsize(t_prime))
        layer_second = table.layer(h_second)
        neighbors = self.urn.graph.neighbors(v)

        splits: List[Tuple[int, np.ndarray, float]] = []
        weights: List[float] = []
        for sub_mask in iter_subsets_of_size(mask, h_second):
            row_second = layer_second.row_of(t_second, sub_mask)
            row_prime = layer_prime.row_of(t_prime, mask ^ sub_mask)
            if row_second is None or row_prime is None:
                continue
            count_prime = layer_prime.value_at(row_prime, v)
            if count_prime <= 0.0:
                continue
            neighbor_counts = layer_second.values_at(
                np.asarray([row_second], dtype=np.int64), neighbors
            )[0]
            neighbor_total = float(neighbor_counts.sum())
            if neighbor_total <= 0.0:
                continue
            splits.append((sub_mask, neighbor_counts, neighbor_total))
            weights.append(count_prime * neighbor_total)

        if not splits:
            raise SamplingError(
                f"inconsistent table: no valid split for treelet at vertex {v}"
            )
        r = draw() * sum(weights)
        running = 0.0
        chosen = splits[-1]
        for split, weight in zip(splits, weights):
            running += weight
            if r <= running + _SPLIT_EPS:
                chosen = split
                break
        sub_mask, neighbor_counts, neighbor_total = chosen

        if rng is not None and neighbors.size >= self.buffer_threshold:
            u = self._buffered_child(
                (v, t_second, sub_mask), neighbors,
                neighbor_counts / neighbor_total, rng,
            )
        else:
            self.instrumentation.count("neighbor_sweeps")
            running_counts = np.cumsum(neighbor_counts)
            position = int(np.searchsorted(
                running_counts, draw() * neighbor_total, side="right"
            ))
            u = int(neighbors[min(position, neighbors.size - 1)])
        left = self._sample_copy(t_prime, mask ^ sub_mask, v, draw, rng)
        right = self._sample_copy(t_second, sub_mask, u, draw, rng)
        return left + right

    def _buffered_child(self, key, neighbors, probabilities, rng) -> int:
        """Neighbor buffering (§3.2): one sweep draws ``buffer_size``
        children; later requests for the same key pop the spares."""
        buffer = self._buffers.get(key)
        if buffer:
            return buffer.pop()
        self.instrumentation.count("neighbor_sweeps")
        drawn = rng.choice(neighbors, size=self.buffer_size, p=probabilities)
        buffer = [int(u) for u in drawn]
        self._buffers[key] = buffer
        return buffer.pop()
