"""One level of the Equation (1) build-up, restricted to a column set.

Every build driver evaluates the same recurrence, level by level: the
in-memory build (:mod:`repro.colorcoding.buildup`) over all ``n``
columns, the out-of-core build (:mod:`repro.colorcoding.sharded`) over
one contiguous vertex-range shard at a time, and the incremental
maintainer (:mod:`repro.colorcoding.incremental`) over the frontier of
touched columns.  :func:`run_level` is that level step, written once; a
driver supplies

* the level ``h`` and its *mode* (:func:`level_mode`):

  ``"full"``
      Every source layer realizes its whole key universe, so the
      precompiled plans (:func:`repro.colorcoding.plans.compile_plans`)
      apply: blocked pair contractions, and per-vertex selection lookups
      for groups whose prime factor is the singleton layer.
  ``"zero"``
      The size-``k`` level under 0-rooting (§3.2) with full sources:
      only color-0 columns can be nonzero, so the compiled level runs on
      those columns alone, and each selection group reads only the
      color-0 column of its lookup — one SpMM over exactly the layer
      rows that column names.
  ``"fallback"``
      Some source layer realizes only part of its universe (e.g. a
      color missing entirely): plan keys are resolved against the
      present layer rows, absent keys drop their pairs, and at the
      size-``k`` level under 0-rooting the result is masked to color-0
      columns.

* the prime-side column block: a :class:`~repro.table.count_table.CountTable`
  whose source layers hold the counts at the output columns;
* the output columns' colors and global vertex ids;
* a :class:`SourceReader` answering the level's two cross-column
  questions (see there).

The result is the level's ``num_keys × len(columns)`` block, rows in the
sorted key universe order of :func:`~repro.colorcoding.plans.compile_plans`
whatever the mode.

Bit-identity under column restriction.  A driver that runs the kernel
on a column subset gets exactly the bytes the full-width in-memory run
puts in those columns:

1. Every per-column operation — plan gathers, selection lookups, the
   einsum contraction, β division, the zero-rooting mask — is
   elementwise over the vertex axis.
2. The neighbor sums are the one cross-column step.  Every reader
   computes them with the CSR row-times-vectors loop (``csr_matvecs``)
   the full SpMM runs, over the requested adjacency rows only; neighbor
   lists are sorted, so each output element receives its additions in
   ascending-neighbor order whether the source columns arrive whole,
   streamed shard by shard into one buffer, or gathered onto a sorted
   halo with monotonically remapped column ids — the identical
   floating-point sequence.  Restricting the SpMM to a subset of rows or
   of layer keys replays those rows' and keys' sequences unchanged.
3. Counts are nonnegative, so the keep test ``Σ_v out[key, v] > 0`` is
   association-invariant: it can be decided per column block and OR-ed
   (shards), or split into *inside* and *outside* a frontier
   (incremental), with the full matrix's answer.

Fact 3 makes the kept key lists — and with them every later level's
mode — agree across drivers by induction.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol

import numpy as np
from scipy import sparse

from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.plans import (
    CompiledLevel,
    LevelPlan,
    compile_plans,
    level_plans,
    level_source_sizes,
)
from repro.errors import BuildError
from repro.graph.graph import Graph
from repro.table.count_table import LAYOUTS, CountTable
from repro.treelets.registry import TreeletRegistry
from repro.util.instrument import Instrumentation

__all__ = [
    "SourceReader",
    "augmented",
    "check_build_args",
    "halo_spmm",
    "level_mode",
    "run_level",
]

#: Pair-chunk target for the resolving path's gather buffers, in rows.
#: Chunks are segment-aligned so chunking never changes summation order.
_CHUNK_PAIRS = 64

#: Float budget for the compiled path's contraction gathers; slot blocks
#: are sized so each ``block × L × n`` gather stays at most this many
#: float64 values (~0.8 MB — small enough to contract out of cache).
_CONTRACT_BLOCK = 100_000

try:  # pragma: no cover - import guard
    from scipy.sparse import _sparsetools as _scipy_sparsetools
except ImportError:  # pragma: no cover
    _scipy_sparsetools = None


class SourceReader(Protocol):
    """Where a level's neighbor sums come from.

    The kernel asks each question with *global* vertex ids ``rows`` and
    hands every returned block back through :meth:`release` once it is
    done with it.  Readers count one ``spmm_ops`` per SpMM they run.
    """

    def neighbor_block(self, size: int, rows: np.ndarray) -> np.ndarray:
        """The :func:`augmented` ``(num_keys + 1, len(rows))`` neighbor
        sums of layer ``size`` at ``rows``.  A reader may return the
        transposed view of a column-major ``(len(rows), num_keys + 1)``
        matrix; the selection lookups read either layout."""

    def subset_sums(
        self, size: int, rows: np.ndarray, key_rows: np.ndarray
    ) -> np.ndarray:
        """``(len(rows), len(key_rows))`` neighbor sums of the layer
        ``size`` rows ``key_rows`` only."""

    def release(self, block: np.ndarray) -> None:
        """The kernel no longer needs ``block``."""


def check_build_args(
    graph: Graph,
    coloring: ColoringScheme,
    registry: Optional[TreeletRegistry],
    layout: str = "dense",
) -> TreeletRegistry:
    """Validate the arguments every build driver shares; returns the
    registry (built on demand when omitted)."""
    k = coloring.k
    if k < 2:
        raise BuildError("build-up needs k >= 2")
    if coloring.num_vertices != graph.num_vertices:
        raise BuildError(
            f"coloring covers {coloring.num_vertices} vertices, graph has "
            f"{graph.num_vertices}"
        )
    registry = registry or TreeletRegistry(k)
    if registry.k != k:
        raise BuildError(f"registry is for k={registry.k}, coloring for k={k}")
    if layout not in LAYOUTS:
        raise BuildError(
            f"unknown table layout {layout!r}; choose from {LAYOUTS}"
        )
    return registry


def level_mode(
    registry: TreeletRegistry,
    h: int,
    num_keys: Callable[[int], int],
    zero_rooting: bool,
    instrumentation: Instrumentation,
) -> str:
    """The mode of level ``h`` given its source layers' key counts.

    A source layer is *full* when it realizes its whole key universe
    (``k`` singletons, or every key of the compiled level).  Counts
    ``fallback_levels`` when the level takes the resolving path.
    """
    compiled = compile_plans(registry)
    full = all(
        num_keys(size)
        == (registry.k if size == 1 else len(compiled[size].keys))
        for size in level_source_sizes(registry, h)
    )
    if not full:
        instrumentation.count("fallback_levels")
        return "fallback"
    return "zero" if h == registry.k and zero_rooting else "full"


def run_level(
    registry: TreeletRegistry,
    h: int,
    mode: str,
    zero_rooting: bool,
    sources: CountTable,
    colors: np.ndarray,
    rows: np.ndarray,
    reader: SourceReader,
    instrumentation: Instrumentation,
) -> np.ndarray:
    """Level ``h`` at the columns ``rows`` (global ids, colors ``colors``).

    ``sources`` holds every source layer's counts at those columns.
    Returns the ``len(compile_plans(registry)[h].keys) × len(rows)``
    block; counts ``merge_ops`` per combination pair.
    """
    clevel = compile_plans(registry)[h]
    if mode == "fallback":
        out = _run_resolved(
            level_plans(registry)[h], clevel, sources, rows, reader,
            instrumentation,
        )
        if h == registry.k and zero_rooting:
            out *= (colors == 0).astype(np.float64)
        return out
    if mode == "full":
        return _run_compiled(
            clevel, sources, None, colors, rows, reader, instrumentation
        )
    out = np.zeros((len(clevel.keys), colors.size), dtype=np.float64)
    active = np.flatnonzero(colors == 0)
    if active.size:
        out[:, active] = _run_compiled(
            clevel, sources, active, colors[active], rows[active], reader,
            instrumentation,
        )
    return out


def _run_compiled(
    clevel: CompiledLevel,
    sources: CountTable,
    active: Optional[np.ndarray],
    colors: np.ndarray,
    rows: np.ndarray,
    reader: SourceReader,
    instrumentation: Instrumentation,
) -> np.ndarray:
    """The compiled level at ``rows``; ``active`` (zero mode) names the
    source columns those rows are, all of color 0."""
    out = np.empty((len(clevel.keys), rows.size), dtype=np.float64)
    primes: Dict[int, np.ndarray] = {}
    for group in clevel.groups:
        instrumentation.count("merge_ops", group.prime_rows.size)
        if active is not None and group.select_lut is not None:
            # Color-0 roots read only the color-0 column of the lookup.
            slots, key_rows = group.color_slots[0]
            out[group.out_rows] = 0.0
            if slots.size:
                sums = reader.subset_sums(group.h_second, rows, key_rows)
                out[group.out_rows[slots]] = sums.T
                reader.release(sums)
            continue
        if group.h_prime not in primes:
            counts = sources.layer(group.h_prime).counts
            primes[group.h_prime] = (
                counts if active is None
                else np.ascontiguousarray(counts[:, active])
            )
        second = reader.neighbor_block(group.h_second, rows)
        out[group.out_rows] = _exec_group(
            group, primes[group.h_prime], second, colors
        )
        reader.release(second)
    divisors = clevel.betas > 1.0
    if divisors.any():
        out[divisors] /= clevel.betas[divisors, None]
    return out


def _exec_group(
    group,
    prime_counts: np.ndarray,
    neighbor_counts: np.ndarray,
    colors: np.ndarray,
) -> np.ndarray:
    """One group's accumulated rows: selection lookup or pair contraction.

    Selection is a flattened-index take (~2x faster than pairwise
    advanced indexing) that reads the neighbor block in place, whether
    it is row-major ``(keys + 1, width)`` or the transposed view of a
    column-major ``(width, keys + 1)`` matrix.
    """
    if group.select_lut is not None:
        width = colors.size
        flat = np.take(group.select_lut, colors, axis=1)
        columns = np.arange(width, dtype=np.int64)
        if neighbor_counts.flags.c_contiguous:
            flat *= width
            flat += columns
        else:
            flat += columns * neighbor_counts.shape[0]
        return np.take(
            neighbor_counts.ravel(order="K"), flat.ravel(), mode="clip"
        ).reshape(flat.shape[0], width)
    return _pair_contract(
        prime_counts, neighbor_counts, group.prime_rows, group.second_rows
    )


def _pair_contract(
    prime_counts: np.ndarray,
    neighbor_counts: np.ndarray,
    prime_rows: np.ndarray,
    second_rows: np.ndarray,
) -> np.ndarray:
    """``acc[s] = Σ_j prime[prime_rows[s, j]] ∘ nbr[second_rows[s, j]]``.

    The sum over ``j`` (the color sub-masks) runs sequentially in
    enumeration order, so the bits match the legacy ``accumulated += term``
    loop exactly: einsum without ``optimize`` reduces the contracted axis
    with the same left-to-right association, and it fuses the multiply and
    the sum with no temporaries.  Slot blocks keep each ``block × L × n``
    gather within ``_CONTRACT_BLOCK`` floats so the contraction runs out
    of cache; when even one slot's ``L × n`` gather would exceed the
    budget (huge graphs), a buffered multiply-accumulate loop over ``j``
    — same summation order — bounds memory instead.
    """
    num_slots, pairs_per_slot = prime_rows.shape
    n = prime_counts.shape[1]
    acc = np.empty((num_slots, n), dtype=np.float64)
    if pairs_per_slot * n <= _CONTRACT_BLOCK:
        step = max(1, _CONTRACT_BLOCK // (pairs_per_slot * n))
        for lo in range(0, num_slots, step):
            hi = min(lo + step, num_slots)
            np.einsum(
                "sjn,sjn->sn",
                prime_counts[prime_rows[lo:hi]],
                neighbor_counts[second_rows[lo:hi]],
                out=acc[lo:hi],
                optimize=False,
            )
        return acc
    step = max(1, _CONTRACT_BLOCK // n)
    rows = min(step, num_slots)
    gather = np.empty((rows, n), dtype=np.float64)
    product = np.empty((rows, n), dtype=np.float64)
    for lo in range(0, num_slots, step):
        hi = min(lo + step, num_slots)
        count = hi - lo
        block = acc[lo:hi]
        np.take(
            prime_counts, prime_rows[lo:hi, 0], axis=0,
            out=gather[:count], mode="clip",
        )
        np.take(
            neighbor_counts, second_rows[lo:hi, 0], axis=0,
            out=product[:count], mode="clip",
        )
        np.multiply(gather[:count], product[:count], out=block)
        for j in range(1, pairs_per_slot):
            np.take(
                prime_counts, prime_rows[lo:hi, j], axis=0,
                out=gather[:count], mode="clip",
            )
            np.take(
                neighbor_counts, second_rows[lo:hi, j], axis=0,
                out=product[:count], mode="clip",
            )
            gather[:count] *= product[:count]
            block += gather[:count]
    return acc


def _run_resolved(
    plan: LevelPlan,
    clevel: CompiledLevel,
    sources: CountTable,
    rows: np.ndarray,
    reader: SourceReader,
    instrumentation: Instrumentation,
) -> np.ndarray:
    """Run one level by resolving plan keys against partial layers.

    Absent keys drop their pairs exactly like the legacy
    ``counts_for(...) is None`` checks; each pair lands on its key's row
    of the sorted universe.
    """
    out = np.zeros((len(clevel.keys), rows.size), dtype=np.float64)
    sorted_row = {key: row for row, key in enumerate(clevel.keys)}
    slot_rows = [sorted_row[key] for key in plan.out_keys]
    for group in plan.groups:
        second = reader.neighbor_block(group.h_second, rows)
        prime_layer = sources.layer(group.h_prime)
        prime_rows_of = prime_layer.key_rows
        second_rows_of = sources.layer(group.h_second).key_rows
        prime_rows: List[int] = []
        second_rows: List[int] = []
        slots: List[int] = []
        for prime_key, second_key, slot in zip(
            group.prime_keys, group.second_keys, group.out_slots
        ):
            second_row = second_rows_of.get(second_key)
            if second_row is None:
                continue
            prime_row = prime_rows_of.get(prime_key)
            if prime_row is None:
                continue
            prime_rows.append(prime_row)
            second_rows.append(second_row)
            slots.append(slot_rows[slot])
        if slots:
            instrumentation.count("merge_ops", len(slots))
            _scatter_pairs(
                out,
                prime_layer.counts,
                second,
                np.asarray(prime_rows, dtype=np.int64),
                np.asarray(second_rows, dtype=np.int64),
                np.asarray(slots, dtype=np.int64),
            )
        reader.release(second)
    divisors = clevel.betas > 1.0
    if divisors.any():
        out[divisors] /= clevel.betas[divisors, None]
    return out


def _scatter_pairs(
    out: np.ndarray,
    prime_counts: np.ndarray,
    neighbor_counts: np.ndarray,
    prime_rows: np.ndarray,
    second_rows: np.ndarray,
    slots: np.ndarray,
) -> None:
    """Gather → multiply → segment-sum one group's pairs into ``out``.

    ``slots`` holds contiguous runs per output row, so each run is one
    ``np.add.reduceat`` segment.  Work proceeds in segment-aligned chunks
    of roughly ``_CHUNK_PAIRS`` pairs to bound the gather buffer at
    chunk × n floats; alignment keeps every segment's summation
    sequential and therefore bit-identical to the legacy loop.
    """
    starts = np.flatnonzero(np.r_[True, slots[1:] != slots[:-1]])
    boundaries = np.append(starts, slots.size)
    segment = 0
    while segment < starts.size:
        stop = segment + 1
        while (
            stop < starts.size
            and boundaries[stop + 1] - boundaries[segment] <= _CHUNK_PAIRS
        ):
            stop += 1
        lo, hi = boundaries[segment], boundaries[stop]
        terms = (
            prime_counts[prime_rows[lo:hi]]
            * neighbor_counts[second_rows[lo:hi]]
        )
        chunk_starts = starts[segment:stop] - lo
        out[slots[starts[segment:stop]]] = np.add.reduceat(
            terms, chunk_starts, axis=0
        )
        segment = stop


# ----------------------------------------------------------------------
# SpMM helpers shared by the readers
# ----------------------------------------------------------------------


def _spmm(adjacency, dense_T: np.ndarray) -> np.ndarray:
    """``adjacency @ dense_T`` for a C-contiguous ``(n, vecs)`` operand.

    Calls the same ``csr_matvecs`` routine scipy's ``dot`` dispatches to
    (bit-identical result), skipping the per-call wrapper overhead; falls
    back to the public API if the private module moves.
    """
    if _scipy_sparsetools is not None:
        rows = adjacency.shape[0]
        vecs = dense_T.shape[1]
        result = np.zeros((rows, vecs), dtype=np.float64)
        _scipy_sparsetools.csr_matvecs(
            rows, adjacency.shape[1], vecs,
            adjacency.indptr, adjacency.indices, adjacency.data,
            dense_T.ravel(), result.ravel(),
        )
        return result
    return adjacency.dot(dense_T)


def augmented(sums: np.ndarray) -> np.ndarray:
    """``(rows, num_keys)`` neighbor sums as the ``(num_keys + 1, rows)``
    block the kernel reads: transposed, plus a trailing all-zero sentinel
    row the selection lookups point "no such key" at."""
    block = np.empty((sums.shape[1] + 1, sums.shape[0]), dtype=np.float64)
    block[:-1] = sums.T
    block[-1] = 0.0
    return block


def _csr_row_subset(adjacency, rows: np.ndarray):
    """The CSR row subset ``adjacency[rows]`` without scipy's overhead."""
    indptr = adjacency.indptr
    indices = adjacency.indices
    lengths = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    new_indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_indptr[1:])
    total = int(new_indptr[-1])
    gather = (
        np.repeat(indptr[rows].astype(np.int64) - new_indptr[:-1], lengths)
        + np.arange(total, dtype=np.int64)
    )
    return sparse.csr_matrix(
        (np.ones(total, dtype=np.float64), indices[gather], new_indptr),
        shape=(rows.size, adjacency.shape[1]),
    )


def halo_spmm(
    adjacency,
    rows: np.ndarray,
    gather: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Neighbor sums at ``rows`` from only the halo's source columns.

    Gathers the sorted halo (every neighbor of ``rows``), asks
    ``gather(halo)`` for the C-contiguous ``(len(halo), vecs)`` operand,
    and runs one SpMM over ``adjacency[rows]`` with columns remapped onto
    the halo.  The remap is monotone, so each row's addition order — and
    with it every floating-point sum — matches the unrestricted SpMM.
    """
    sub = _csr_row_subset(adjacency, rows)
    halo, halo_cols = np.unique(sub.indices, return_inverse=True)
    piece = sparse.csr_matrix(
        (sub.data, halo_cols.reshape(-1), sub.indptr),
        shape=(rows.size, halo.size),
    )
    return _spmm(piece, gather(halo))
