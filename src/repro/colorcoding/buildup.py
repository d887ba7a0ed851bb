"""Motivo's build-up phase: the Equation (1) dynamic program, in memory.

For every vertex ``v`` and colorful rooted treelet ``T_C`` on up to ``k``
nodes the phase computes ``c(T_C, v)``, the number of (non-induced) copies
of ``T_C`` rooted at ``v``:

    c(T_C, v) = (1/β_T) * Σ_{u ~ v} Σ_{C' ⊂ C, |C'| = |T'|}
                    c(T'_{C'}, v) * c(T''_{C''}, u)

with ``(T', T'')`` the unique decomposition of ``T`` and ``C'' = C \\ C'``.

The kernel.  :class:`~repro.table.count_table.CountTable`
stores each finished layer as one ``num_keys × n`` matrix, so the neighbor
sums ``S(T''_{C'}, v) = Σ_{u~v} c(T''_{C'}, u)`` for *every* key of a layer
are a single sparse matrix–matrix product ``adjacency @ layer.counts.T``
— one SpMM per source layer for the whole build, instead of one SpMV per
``(treelet, color-split)`` pair.  Each level is one call of the shared
level step :func:`repro.colorcoding.level.run_level` over all ``n``
columns; this module's reader serves it from the resident layers and
caches every layer's neighbor sums across levels.  Pair enumeration order
matches the straightforward per-key loop (one SpMV per color split), so
the kernel's tables are bit-identical to that loop's; the loop lives in
``tests/support/reference.py`` as the oracle the identity tests compare
against.

Layer storage is delegated to a :class:`~repro.table.layer_store.LayerStore`
backend: in-memory (default), greedy flush to disk with memory-mapped
reopen (§3.1/§3.3, :class:`~repro.table.layer_store.SpillLayerStore`), or
vertex-range sharding (:class:`~repro.table.layer_store.ShardedStore`).
0-rooting (§3.2) restricts the size-``k`` layer to roots of color 0,
shrinking it by a factor ``k``.

Table layout (``layout="succinct"``).  The kernel needs the matrix form
while a layer is still on the build frontier (SpMM operands, blocked
prime-side gathers), so layers are always *built* dense — but with the
succinct layout requested each layer is **sealed** to the paper's CSR
records the moment it retires from the frontier, i.e. once no later
level's combination plans reference its size.  Equation (1) lets every
level consume every smaller size, so the pre-``k`` layers stay dense
until the final level — the size-``k`` layer, the dominant one at
scale, never exists dense beyond its own install, and the whole table
leaves the build succinct.  Sealing changes the representation only
(the stored values are the same integer-valued floats), so the two
layouts produce bit-identical downstream results.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.level import (
    _csr_row_subset,
    _spmm,
    augmented,
    check_build_args,
    level_mode,
    run_level,
)
from repro.colorcoding.plans import compile_plans, frontier_last_use
from repro.graph.graph import Graph
from repro.table.count_table import CountTable, Layer
from repro.table.layer_store import InMemoryStore, LayerStore
from repro.treelets.registry import TreeletRegistry
from repro.util.instrument import Instrumentation

__all__ = ["build_table"]

Key = Tuple[int, int]


def build_table(
    graph: Graph,
    coloring: ColoringScheme,
    registry: Optional[TreeletRegistry] = None,
    zero_rooting: bool = True,
    store: Optional[LayerStore] = None,
    instrumentation: Optional[Instrumentation] = None,
    layout: str = "dense",
) -> CountTable:
    """Run the build-up phase and return the treelet count table.

    Parameters
    ----------
    graph:
        Host graph.
    coloring:
        A realized :class:`ColoringScheme` with ``k`` colors.
    registry:
        Treelet registry for ``k`` (built on demand when omitted).
    zero_rooting:
        Apply the §3.2 optimization: store size-``k`` counts only at
        vertices of color 0 (each colorful copy counted exactly once).
    store:
        Optional :class:`~repro.table.layer_store.LayerStore` deciding
        where finished layers live (in memory, spilled + memory-mapped, or
        sharded by vertex range).  Defaults to in-memory.
    instrumentation:
        Counter bag; receives ``merge_ops`` (one per realized (T, C-split)
        combination pair), ``spmm_ops`` (one per level × source-layer
        SpMM), and the ``buildup``/``sort_pass`` timers.
    layout:
        In-memory layout of the finished table: ``"dense"`` (the
        matrices, as built) or ``"succinct"`` (the paper's CSR records;
        layers seal as they retire from the build frontier — see the
        module docstring).  Both layouts answer every table operation
        bit-identically.
    """
    registry = check_build_args(graph, coloring, registry, layout)
    k = coloring.k
    instrumentation = instrumentation or Instrumentation()
    layer_store = store or InMemoryStore()

    n = graph.num_vertices
    adjacency = graph.adjacency_csr()
    table = CountTable(k, n, zero_rooted=zero_rooting)

    with instrumentation.timer("buildup"):
        # Level 1: the singleton treelet, one entry per color.
        level_one: Dict[Key, np.ndarray] = {}
        for color in range(k):
            indicator = coloring.indicator(color)
            if indicator.any():
                level_one[(0, 1 << color)] = indicator
        _install(layer_store, table, 1, level_one)

        sealer = _FrontierSealer(registry, layout, layer_store, instrumentation)
        _run_batched(
            table, registry, adjacency, coloring.colors, zero_rooting,
            layer_store, instrumentation, sealer,
        )

    layer_store.finalize(table, instrumentation, layout=layout)
    if layout == "succinct":
        # Catch anything neither the in-loop sealing nor the store's
        # finalize converted (degenerate builds, custom stores).
        table.seal("succinct")
    return table


class _FrontierSealer:
    """Seals layers to the succinct layout as they retire (see module
    docstring).  A layer retires after the last level whose combination
    plans reference its size; the size-``k`` layer is never a source, so
    it retires the moment it is installed.  Non-resident stores skip the
    in-loop pass — their finalize step replaces every resident layer
    anyway — and get one seal at the end of the build instead.
    """

    def __init__(
        self,
        registry: TreeletRegistry,
        layout: str,
        store: LayerStore,
        instrumentation: Instrumentation,
    ):
        self.active = layout == "succinct" and store.resident
        self.last_use: Dict[int, int] = (
            frontier_last_use(registry) if self.active else {}
        )
        self.instrumentation = instrumentation

    def after_level(
        self, table: CountTable, level: int, *sum_caches: Dict
    ) -> None:
        """Seal every resident dense layer with no use beyond ``level``,
        releasing its entries in the reader's neighbor-sum caches."""
        if not self.active:
            return
        for size in range(1, level + 1):
            if self.last_use.get(size, 0) > level:
                continue
            if not table.has_layer(size):
                continue
            if table.layer(size).layout != "dense":
                continue
            table.seal("succinct", sizes=[size])
            self.instrumentation.count("sealed_layers")
            for cache in sum_caches:
                cache.pop(size, None)


def _install(
    store: LayerStore,
    table: CountTable,
    size: int,
    entries: Dict[Key, np.ndarray],
) -> Layer:
    """Install a finished layer through the storage backend."""
    keys = list(entries)
    if keys:
        matrix = np.vstack([entries[key] for key in keys])
    else:
        matrix = np.zeros((0, table.num_vertices), dtype=np.float64)
    return store.install(table, size, keys, matrix)


# ----------------------------------------------------------------------
# The shared level step over a resident reader
# ----------------------------------------------------------------------


class _ResidentReader:
    """Neighbor sums of resident layers, cached across levels.

    Each layer's full-width SpMM runs once for the whole build (the
    driver clears the cache after every level for non-resident stores,
    keeping peak memory one layer deep as §3.1 promises).  Sizes some
    *contraction* group consumes are cached row-major; selection-only
    sizes keep the SpMM's natural column-major layout, skipping a strided
    transpose per layer.  Column-restricted requests (the zero-rooted
    level) slice the cache, or run one SpMM over the cached adjacency
    row subset.
    """

    def __init__(
        self,
        table: CountTable,
        adjacency,
        registry: TreeletRegistry,
        instrumentation: Instrumentation,
    ):
        self.table = table
        self.adjacency = adjacency
        self.instrumentation = instrumentation
        self.row_major = {
            g.h_second
            for level in compile_plans(registry).values()
            for g in level.groups
            if g.select_lut is None
        }
        self.sums: Dict[int, np.ndarray] = {}
        self._subset: Tuple[Optional[np.ndarray], object] = (None, None)

    def neighbor_block(self, size: int, rows: np.ndarray) -> np.ndarray:
        full_width = rows.size == self.table.num_vertices
        if size in self.sums:
            cached = self.sums[size]
            if full_width:
                return cached
            return np.ascontiguousarray(cached[:, rows])
        self.instrumentation.count("spmm_ops")
        counts = self.table.layer(size).counts
        if not full_width:
            return augmented(
                _spmm(self._rows(rows), np.ascontiguousarray(counts.T))
            )
        if size in self.row_major:
            block = augmented(
                _spmm(self.adjacency, np.ascontiguousarray(counts.T))
            )
        else:
            block = _neighbor_matrix_cm(self.adjacency, counts).T
        self.sums[size] = block
        return block

    def subset_sums(
        self, size: int, rows: np.ndarray, key_rows: np.ndarray
    ) -> np.ndarray:
        self.instrumentation.count("spmm_ops")
        counts = self.table.layer(size).counts
        return _spmm(
            self._rows(rows), np.ascontiguousarray(counts[key_rows].T)
        )

    def release(self, block: np.ndarray) -> None:
        pass

    def _rows(self, rows: np.ndarray):
        """``adjacency[rows]``, kept for the level's repeated requests."""
        cached_rows, subset = self._subset
        if cached_rows is None or not np.array_equal(cached_rows, rows):
            subset = _csr_row_subset(self.adjacency, rows)
            self._subset = (rows, subset)
        return subset


def _run_batched(
    table: CountTable,
    registry: TreeletRegistry,
    adjacency,
    colors: np.ndarray,
    zero_rooting: bool,
    store: LayerStore,
    instrumentation: Instrumentation,
    sealer: "_FrontierSealer",
) -> None:
    reader = _ResidentReader(table, adjacency, registry, instrumentation)
    rows = np.arange(table.num_vertices, dtype=np.int64)
    for h in range(2, table.k + 1):
        mode = level_mode(
            registry, h, lambda size: table.layer(size).num_keys,
            zero_rooting, instrumentation,
        )
        out = run_level(
            registry, h, mode, zero_rooting, table, colors, rows, reader,
            instrumentation,
        )
        if not store.resident:
            reader.sums.clear()
        keys = list(compile_plans(registry)[h].keys)
        # Counts are nonnegative, so a positive row sum is exactly "any
        # nonzero" — and the float sum is one fast reduction pass.
        keep = np.flatnonzero(np.einsum("ij->i", out) > 0.0)
        if keep.size == out.shape[0]:
            store.install(table, h, keys, out)
        else:
            store.install(table, h, [keys[i] for i in keep], out[keep])
        del out
        sealer.after_level(table, h, reader.sums)


def _neighbor_matrix_cm(adjacency, counts: np.ndarray) -> np.ndarray:
    """Column-major neighbor sums: ``(n, num_keys + 1)``, sentinel last.

    For layers consumed *only* by selection lookups the row-major layout
    is never needed — the flattened-index take works on either layout —
    so the SpMM output is kept as produced, and the sentinel becomes a
    zero input column that the SpMM maps to zero for free.
    """
    num_keys = counts.shape[0]
    operand = np.zeros((counts.shape[1], num_keys + 1), dtype=np.float64)
    operand[:, :num_keys] = counts.T
    return _spmm(adjacency, operand)
