"""Out-of-core build-up: vertex-range shards as the unit of work.

:func:`repro.colorcoding.buildup.build_table` computes each level's full
``num_keys × n`` count matrix in one piece; at SNAP scale that single
matrix is the memory wall.  This module runs the same recurrence *shard
by shard*: the vertex axis is partitioned into the contiguous ranges of
a :class:`~repro.table.layer_store.ShardedStore`, each level is computed
one vertex-range block at a time under a hard byte budget, finished
blocks go straight to disk through crash-safe ``.tmp-<pid>`` → rename
commits, and the finished table is assembled from the committed blocks
without the full matrix ever being resident.

A shard task is one call of the shared level step
:func:`repro.colorcoding.level.run_level` on the shard's columns.  Its
prime-side blocks are the shard's own committed source blocks; its
reader streams the neighbor sums across the source layer's shards in
ascending vertex order, each shard's contribution accumulating into one
output buffer through the ``csr_matvecs`` loop a full SpMM runs — so
the table is bit-identical to the in-memory build's (the argument is in
:mod:`repro.colorcoding.level`).  When scipy's private ``_sparsetools``
module is unavailable the stream degrades to a single whole-halo gather
and one SpMM call — same sequence, more transient memory.  Keep
decisions are per-shard positivity bitmaps, OR-ed by the parent.

Memory budget.  ``memory_budget`` bytes bound the build's working set.
:func:`plan_shards` picks the smallest shard count whose per-level
working set fits under the budget (raising
:class:`~repro.errors.MemoryBudgetError` when none does), and every
significant allocation at run time — source blocks, halo gathers,
neighbor-sum blocks, output blocks, compaction and assembly buffers —
is tracked against a :class:`MemoryBudget`, which fails loud rather than
overshooting.  Reads are buffered (``seek`` + ``fromfile``), never
memory-mapped, so pages do not linger in the resident set; only the
*finished* dense table reopens memory-mapped, paging lazily under
sampling.

Fan-out.  Within a level the shard tasks are independent; ``jobs > 1``
runs them on the shared process-pool executor policy
(:func:`repro.engine.pipeline.execute_tasks`), with deterministic
per-shard seeds derived from the master seed.  Results fold in shard
order, so parallel and serial builds are byte-identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from scipy import sparse

from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.level import (
    _csr_row_subset,
    _scipy_sparsetools,
    _spmm,
    augmented,
    check_build_args,
    halo_csr,
    level_mode,
    run_level,
)
from repro.colorcoding.plans import (
    compile_plans,
    full_universe_keys,
    level_source_sizes,
)
from repro.engine.pipeline import derive_child_seeds, execute_tasks
from repro.errors import BuildError, MemoryBudgetError
from repro.graph.graph import Graph
from repro.table.count_table import CountTable, Layer
from repro.table.layer_store import ShardedStore
from repro.telemetry.tracing import span as _trace_span
from repro.treelets.registry import TreeletRegistry
from repro.util.instrument import Instrumentation

__all__ = [
    "MemoryBudget",
    "plan_shards",
    "build_table_sharded",
]

Key = Tuple[int, int]

#: Approximate transient bytes per edge of one shard's adjacency rows
#: during a streamed neighbor-sum pass (indices + data + selection
#: scratch), used by the planner's working-set model.
_EDGE_BYTES = 32


class MemoryBudget:
    """Tracked byte budget: allocations fail loud past the limit.

    The sharded build routes every significant allocation through
    :meth:`allocate`/:meth:`release`; ``limit=None`` tracks peak usage
    without enforcing anything.  Exceeding the limit raises
    :class:`~repro.errors.MemoryBudgetError` *before* the allocation is
    made — a budgeted build never silently overshoots.  Worker processes
    run their own tracker with the same limit; the parent folds their
    peaks in via :meth:`fold_peak`, so :attr:`peak` reports the build's
    true high-water mark whatever the fan-out.
    """

    def __init__(self, limit: Optional[int] = None):
        if limit is not None:
            limit = int(limit)
            if limit <= 0:
                raise MemoryBudgetError("memory budget must be positive")
        self.limit = limit
        self.used = 0
        self.peak = 0

    def allocate(self, label: str, nbytes: int) -> int:
        """Charge ``nbytes``; raises when the budget would be exceeded."""
        nbytes = max(0, int(nbytes))
        if self.limit is not None and self.used + nbytes > self.limit:
            raise MemoryBudgetError(
                f"allocating {nbytes} bytes for {label} would put the "
                f"working set at {self.used + nbytes} bytes, over the "
                f"{self.limit}-byte memory budget"
            )
        self.used += nbytes
        if self.used > self.peak:
            self.peak = self.used
        return nbytes

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the budget."""
        self.used = max(0, self.used - max(0, int(nbytes)))

    @contextmanager
    def hold(self, label: str, nbytes: int):
        """Scope a charge to a ``with`` block."""
        charged = self.allocate(label, nbytes)
        try:
            yield
        finally:
            self.release(charged)

    def fold_peak(self, peak: int) -> None:
        """Merge a worker tracker's high-water mark into this one."""
        if int(peak) > self.peak:
            self.peak = int(peak)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------


def _level_cost_per_column(registry: TreeletRegistry, h: int) -> int:
    """Working-set bytes per output column at level ``h``, upper bound.

    Bounds the float64 rows simultaneously resident while one shard of
    level ``h`` executes: the output block and its compaction copy
    (``2 U_h``), every source layer's local block plus room for one
    more copy of it (``2 U_s + 1`` each — the kernel holds one augmented
    neighbor-sum block at a time, and the zero-rooted level a color-0
    copy of each prime-side block), and two transient source-shard
    buffers (the streamed block and its halo gather) sized by the
    widest source layer.  Universe sizes bound the actual (kept) key
    counts from above.
    """
    universe = {
        s: len(full_universe_keys(registry, s))
        for s in range(1, registry.k + 1)
    }
    sources = level_source_sizes(registry, h)
    widest = max(universe[s] for s in sources)
    return 8 * (
        2 * universe[h]
        + sum(2 * universe[s] + 1 for s in sources)
        + 2 * widest
    )


def _plan_bytes(
    graph: Graph, registry: TreeletRegistry, num_shards: int
) -> int:
    """Modeled peak working set of a ``num_shards``-way sharded build."""
    n = graph.num_vertices
    bounds = np.linspace(0, n, num_shards + 1).astype(np.int64)
    width = int(np.max(np.diff(bounds))) if n else 0
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    edges = int(np.max(indptr[bounds[1:]] - indptr[bounds[:-1]])) if n else 0
    per_column = max(
        _level_cost_per_column(registry, h)
        for h in range(2, registry.k + 1)
    )
    return per_column * width + _EDGE_BYTES * edges


def plan_shards(
    graph: Graph,
    registry: TreeletRegistry,
    memory_budget: int,
) -> int:
    """Smallest power-of-two shard count that fits ``memory_budget``.

    Doubles the shard count until the modeled per-shard working set
    (:func:`_plan_bytes`) fits; raises
    :class:`~repro.errors.MemoryBudgetError` when even one-vertex shards
    cannot fit — the budget is simply too small for this ``(graph, k)``.
    The model is an upper bound built from full key universes, so a plan
    that fits is safe; the run-time tracker still enforces the budget
    against the actual allocations.
    """
    memory_budget = int(memory_budget)
    if memory_budget <= 0:
        raise MemoryBudgetError("memory budget must be positive")
    n = graph.num_vertices
    num_shards = 1
    while True:
        if _plan_bytes(graph, registry, num_shards) <= memory_budget:
            return num_shards
        if num_shards >= max(1, n):
            raise MemoryBudgetError(
                f"no shard count fits a {memory_budget}-byte budget for "
                f"k={registry.k} on {n} vertices (even one-vertex shards "
                f"need {_plan_bytes(graph, registry, num_shards)} bytes)"
            )
        num_shards = min(num_shards * 2, max(1, n))


# ----------------------------------------------------------------------
# Shard tasks
# ----------------------------------------------------------------------


# repro: pool-transport
@dataclass(frozen=True)
class _ShardTask:
    """One (level, vertex-range shard) unit of work (picklable)."""

    h: int
    shard: int
    lo: int
    hi: int
    mode: str  # "full" | "zero" | "fallback"
    seed: int


class _BuildContext:
    """Per-process state the shard tasks execute against.

    The parent builds one for the serial path; pooled workers build their
    own from the initializer payload.  The store instance is only used
    for path construction and tmp/commit — workers never mutate the
    parent's registration state.
    """

    def __init__(
        self,
        graph: Graph,
        colors: np.ndarray,
        k: int,
        zero_rooting: bool,
        store: ShardedStore,
        budget_limit: Optional[int],
    ):
        self.graph = graph
        self.colors = colors
        self.k = k
        self.zero_rooting = zero_rooting
        self.store = store
        self.budget_limit = budget_limit
        self.registry = TreeletRegistry(k)
        self.adjacency = graph.adjacency_csr()
        self.bounds = store.shard_bounds(graph.num_vertices)


_SHARD_STATE: "dict[str, _BuildContext]" = {}


def _init_shard_worker(
    graph: Graph,
    colors: np.ndarray,
    k: int,
    zero_rooting: bool,
    directory: str,
    num_shards: int,
    budget_limit: Optional[int],
) -> None:
    """Pool initializer: ship the shared build state once per worker."""
    store = ShardedStore(num_shards, directory)
    _SHARD_STATE["ctx"] = _BuildContext(
        graph, colors, k, zero_rooting, store, budget_limit
    )


def _run_shard_task(task: _ShardTask):
    return _execute_shard(_SHARD_STATE["ctx"], task)


def _streamed_spmm(
    ctx: _BuildContext,
    row_ids: np.ndarray,
    size: int,
    num_keys: int,
    budget: MemoryBudget,
    row_subset: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Neighbor sums of selected adjacency rows against a sharded layer.

    Returns ``out`` with ``out[i, j] = Σ_{u ~ row_ids[i]} counts[r_j, u]``
    where ``r_j`` ranges over ``row_subset`` (or all layer rows) — bit
    identical to ``_spmm(adjacency[row_ids], counts[row_subset].T)`` on
    the fully-resident layer.  The layer streams in ascending
    vertex-range shards; each shard's contribution accumulates into the
    shared output buffer through the same ``csr_matvecs`` axpy loop, so
    every output element sees its additions in ascending neighbor order
    — the one-shot SpMM's exact floating-point sequence.  Without the
    private ``_sparsetools`` entry point a per-shard ``+=`` would
    re-associate the sums, so the fallback gathers the whole halo once
    and runs a single SpMM instead (same bits, more transient memory).
    """
    adjacency = ctx.adjacency
    indptr = adjacency.indptr
    row_ids = np.asarray(row_ids, dtype=np.int64)
    contiguous = row_ids.size and row_ids.size == int(
        row_ids[-1] - row_ids[0] + 1
    )
    if contiguous:
        start, stop = int(indptr[row_ids[0]]), int(indptr[row_ids[-1] + 1])
        edge_cols = adjacency.indices[start:stop]
        edge_data = adjacency.data[start:stop]
        local_ptr = np.asarray(
            indptr[row_ids[0]:row_ids[-1] + 2] - start, dtype=np.int64
        )
    elif row_ids.size:
        sub_rows = _csr_row_subset(adjacency, row_ids)
        edge_cols = sub_rows.indices
        edge_data = sub_rows.data
        local_ptr = np.asarray(sub_rows.indptr, dtype=np.int64)
    else:
        edge_cols = np.zeros(0, dtype=np.int64)
        edge_data = np.zeros(0, dtype=np.float64)
        local_ptr = np.zeros(1, dtype=np.int64)
    num_vecs = num_keys if row_subset is None else int(row_subset.size)
    budget.allocate(f"layer-{size} neighbor sums", row_ids.size * num_vecs * 8)
    result = np.zeros((row_ids.size, num_vecs), dtype=np.float64)
    bounds = ctx.bounds
    if _scipy_sparsetools is not None:
        for t in range(ctx.store.num_shards):
            lo_t, hi_t = int(bounds[t]), int(bounds[t + 1])
            if hi_t == lo_t:
                continue
            selected = np.flatnonzero((edge_cols >= lo_t) & (edge_cols < hi_t))
            if selected.size == 0:
                continue
            shard_ptr = np.searchsorted(selected, local_ptr)
            halo, halo_cols = np.unique(
                edge_cols[selected], return_inverse=True
            )
            transient = (num_keys * (hi_t - lo_t) + halo.size * num_vecs) * 8
            with budget.hold(f"layer-{size} halo shard", transient), \
                    _trace_span("sharded.halo", layer=size, source_shard=t):
                block = np.load(ctx.store._shard_path(size, t))
                if row_subset is None:
                    gathered = block[:, halo - lo_t]
                else:
                    gathered = block[np.ix_(row_subset, halo - lo_t)]
                operand = np.ascontiguousarray(gathered.T)
                del block, gathered
                piece = sparse.csr_matrix(
                    (
                        edge_data[selected],
                        halo_cols.reshape(-1),
                        shard_ptr,
                    ),
                    shape=(row_ids.size, halo.size),
                )
                _scipy_sparsetools.csr_matvecs(
                    row_ids.size, halo.size, num_vecs,
                    piece.indptr, piece.indices, piece.data,
                    operand.ravel(), result.ravel(),
                )
        return result
    # Whole-halo fallback: one gather, one SpMM — identical bits.
    halo, piece = halo_csr(adjacency, row_ids)
    charge = budget.allocate(
        f"layer-{size} whole halo", halo.size * num_vecs * 8
    )
    operand = np.empty((halo.size, num_vecs), dtype=np.float64)
    for t in range(ctx.store.num_shards):
        lo_t, hi_t = int(bounds[t]), int(bounds[t + 1])
        in_shard = np.flatnonzero((halo >= lo_t) & (halo < hi_t))
        if in_shard.size == 0:
            continue
        with budget.hold(
            f"layer-{size} halo source block",
            num_keys * (hi_t - lo_t) * 8,
        ):
            block = np.load(ctx.store._shard_path(size, t))
            if row_subset is None:
                operand[in_shard] = block[:, halo[in_shard] - lo_t].T
            else:
                operand[in_shard] = block[
                    np.ix_(row_subset, halo[in_shard] - lo_t)
                ].T
    result[:] = _spmm(piece, operand)
    budget.release(charge)
    return result


class _ShardReader:
    """Neighbor sums streamed across the store's committed shards.

    Every answer is one :func:`_streamed_spmm` charged to the task's
    budget; :meth:`release` returns a block's charge.
    """

    def __init__(
        self,
        ctx: _BuildContext,
        shim: CountTable,
        budget: MemoryBudget,
        instrumentation: Instrumentation,
    ):
        self.ctx = ctx
        self.shim = shim
        self.budget = budget
        self.instrumentation = instrumentation

    def neighbor_block(self, size: int, rows: np.ndarray) -> np.ndarray:
        self.instrumentation.count("spmm_ops")
        num_keys = self.shim.layer(size).num_keys
        sums = _streamed_spmm(self.ctx, rows, size, num_keys, self.budget)
        self.budget.allocate(
            f"layer-{size} augmented sums", (num_keys + 1) * rows.size * 8
        )
        block = augmented(sums)
        self.budget.release(sums.nbytes)
        return block

    def subset_sums(
        self, size: int, rows: np.ndarray, key_rows: np.ndarray
    ) -> np.ndarray:
        self.instrumentation.count("spmm_ops")
        return _streamed_spmm(
            self.ctx, rows, size, self.shim.layer(size).num_keys,
            self.budget, row_subset=key_rows,
        )

    def release(self, block: np.ndarray) -> None:
        self.budget.release(block.nbytes)


def _execute_shard(ctx: _BuildContext, task: _ShardTask):
    """Compute, commit, and summarize one (level, shard) block.

    Returns ``(shard, positivity bitmap, peak bytes, instrumentation
    snapshot)``; the block itself goes straight to the store through a
    ``.tmp-<pid>`` write and an atomic commit, never back to the parent.
    """
    budget = MemoryBudget(ctx.budget_limit)
    instrumentation = Instrumentation()
    lo, hi = task.lo, task.hi
    width = hi - lo
    colors_local = np.ascontiguousarray(ctx.colors[lo:hi])
    # The zero-rooted level also copies the color-0 columns of its
    # prime-side blocks; their charge rides on the block's.
    copied = int(np.count_nonzero(colors_local == 0)) if task.mode == "zero" else 0
    shim = CountTable(ctx.k, width, False)
    for size in level_source_sizes(ctx.registry, task.h):
        key_array = np.load(ctx.store._key_path(size))
        keys = [(int(t), int(mask)) for t, mask in key_array]
        budget.allocate(
            f"layer-{size} shard block", len(keys) * (width + copied) * 8
        )
        block = np.load(ctx.store._shard_path(size, task.shard))
        shim.set_layer(Layer(size, keys, block))
    num_keys = len(compile_plans(ctx.registry)[task.h].keys)
    budget.allocate("out block", num_keys * width * 8)
    out = run_level(
        ctx.registry, task.h, task.mode, ctx.zero_rooting, shim,
        colors_local, np.arange(lo, hi, dtype=np.int64),
        _ShardReader(ctx, shim, budget, instrumentation), instrumentation,
    )
    # Nonnegative counts: a positive row sum within the shard flags "some
    # nonzero column here"; the parent ORs the shard bitmaps into the
    # exact full-matrix keep set.
    bitmap = np.einsum("ij->i", out) > 0.0
    tmp = ctx.store.shard_tmp_path(task.h, task.shard)
    with open(tmp, "wb") as handle:
        np.lib.format.write_array(handle, out)
    ctx.store.commit_shard(task.h, task.shard, tmp)
    return task.shard, bitmap, budget.peak, instrumentation.snapshot()


# ----------------------------------------------------------------------
# The builder
# ----------------------------------------------------------------------


def build_table_sharded(
    graph: Graph,
    coloring: ColoringScheme,
    registry: Optional[TreeletRegistry] = None,
    zero_rooting: bool = True,
    store: Optional[ShardedStore] = None,
    instrumentation: Optional[Instrumentation] = None,
    layout: str = "dense",
    memory_budget=None,
    jobs: int = 1,
    seed: Optional[int] = None,
) -> CountTable:
    """Run the build-up shard by shard; bit-identical to ``build_table``.

    Parameters mirror :func:`repro.colorcoding.buildup.build_table`
    where they overlap.  ``store`` must be a directory-backed
    :class:`~repro.table.layer_store.ShardedStore`; its ``num_shards``
    fixes the work partition (use :func:`plan_shards` to pick one that
    fits a budget).  ``memory_budget`` is a byte limit or a
    :class:`MemoryBudget` tracker — pass a tracker to read back
    ``peak`` afterwards.  ``jobs > 1`` fans the shard tasks of each
    level out over worker processes; ``seed`` derives the deterministic
    per-shard seeds recorded with the tasks.  The returned table's dense
    layers are memory-mapped from the store's directory, so the store
    must stay open for the table's lifetime (close it when done — the
    caller owns it).
    """
    registry = check_build_args(graph, coloring, registry, layout)
    if store is None or store.directory is None:
        raise BuildError(
            "the sharded build needs a directory-backed ShardedStore"
        )
    if jobs < 1:
        raise BuildError("jobs must be at least 1")
    budget = (
        memory_budget
        if isinstance(memory_budget, MemoryBudget)
        else MemoryBudget(memory_budget)
    )
    instrumentation = instrumentation or Instrumentation()
    store.reap_stale_tmp()

    k = coloring.k
    n = graph.num_vertices
    colors = coloring.colors
    bounds = store.shard_bounds(n)
    num_shards = store.num_shards
    context = _BuildContext(
        graph, colors, k, zero_rooting, store, budget.limit
    )
    shard_seeds = derive_child_seeds(
        0 if seed is None else seed, num_shards
    )

    with instrumentation.timer("buildup"):
        # Level 1: per-color indicator rows, written shard by shard.
        # Keys ascend with the color bit, so the layer is born key-sorted.
        present = [
            color for color in range(k) if np.any(colors == color)
        ]
        level_one_keys: List[Key] = [(0, 1 << color) for color in present]
        for i in range(num_shards):
            shard_lo, shard_hi = int(bounds[i]), int(bounds[i + 1])
            with budget.hold(
                "level-1 block", len(present) * (shard_hi - shard_lo) * 8
            ):
                if present:
                    block = np.vstack(
                        [
                            coloring.indicator(color)[shard_lo:shard_hi]
                            for color in present
                        ]
                    )
                else:
                    block = np.zeros(
                        (0, shard_hi - shard_lo), dtype=np.float64
                    )
                tmp = store.shard_tmp_path(1, i)
                with open(tmp, "wb") as handle:
                    np.lib.format.write_array(handle, block)
                store.commit_shard(1, i, tmp)
        store.register_layer(1, level_one_keys, bounds)

        max_width = int(np.max(np.diff(bounds))) if n else 0
        for h in range(2, k + 1):
            mode = level_mode(
                registry, h, lambda size: len(store.layer_keys(size)),
                zero_rooting, instrumentation,
            )
            level_keys = list(compile_plans(registry)[h].keys)
            tasks = [
                _ShardTask(
                    h=h,
                    shard=i,
                    lo=int(bounds[i]),
                    hi=int(bounds[i + 1]),
                    mode=mode,
                    seed=shard_seeds[i],
                )
                for i in range(num_shards)
            ]
            with _trace_span("sharded.level", level=h, mode=mode):
                results = execute_tasks(
                    tasks,
                    _run_shard_task,
                    lambda task: _execute_shard(context, task),
                    jobs,
                    initializer=_init_shard_worker,
                    initargs=(
                        graph, colors, k, zero_rooting, store.directory,
                        num_shards, budget.limit,
                    ),
                )
            bitmap = np.zeros(len(level_keys), dtype=bool)
            for _shard, shard_bitmap, peak, snapshot in results:
                bitmap |= shard_bitmap
                budget.fold_peak(peak)
                instrumentation.merge(Instrumentation.from_snapshot(snapshot))
                instrumentation.count("shard_tasks")
            keep = np.flatnonzero(bitmap)
            store.register_layer(h, level_keys, bounds)
            kept_keys = [level_keys[i] for i in keep]
            if kept_keys != level_keys:
                with budget.hold(
                    "level compaction", 2 * len(level_keys) * max_width * 8
                ):
                    store.compact_layer(h, keep, kept_keys)

    # Assembly: the finished CountTable, one layer at a time.
    table = CountTable(k, n, zero_rooting)
    for size in store.sizes():
        keys = store.layer_keys(size)
        if layout == "dense":
            if budget.limit is not None and n:
                row_block = max(1, budget.limit // (4 * 8 * n))
            else:
                row_block = 1024
            with budget.hold(
                "dense assembly",
                3 * min(row_block, max(1, len(keys))) * n * 8,
            ):
                path = store.assemble_dense(size, row_block=row_block)
            counts = np.load(path, mmap_mode="r")
            table.set_layer(Layer(size, keys, counts))
        else:
            with budget.hold(
                "succinct assembly block", len(keys) * max_width * 8
            ):
                layer = store.assemble_succinct(size)
            budget.allocate(
                f"succinct layer {size}",
                layer.indptr.nbytes
                + layer.key_row.nbytes
                + layer.values.nbytes,
            )
            table.set_layer(layer)
    return table
