"""Incremental maintenance of count tables under edge updates.

Today's pipeline treats the count table as write-once: any edge change
invalidates :meth:`~repro.graph.graph.Graph.fingerprint` and forces a
full color-coding rebuild.  This module instead maintains the table as a
**materialized view** of the Equation (1) dynamic program: a batch of
edge insertions/deletions re-runs the shared level step
(:func:`repro.colorcoding.level.run_level`) only on the *touched-column
frontier* — the delta is the same operator over a restricted input —
and the result is bit-identical to a fresh rebuild on the updated graph
under the same coloring.

Touched-column frontier.  ``c(T_C, v)`` at level ``h`` reads level
``h' < h`` counts at ``v`` itself and neighbor sums at ``u ~ v``, so a
changed edge ``(a, b)`` can only perturb level-``h`` columns within
distance ``h - 2`` of an endpoint (level 2 changes at the endpoints
alone; each level adds one hop).  The frontier is grown over the
**union** of the old and new adjacency: a deleted edge no longer exists
in the new graph, but the stale contribution it used to carry still
propagates outward along it, so both incidence structures bound the
blast radius.  Level 1 (the per-color indicator rows) never changes
under pure edge updates.

Each level's reader answers from the frontier rows of the new adjacency
and only the halo columns of the source layers (dense or succinct), so
the work scales with the frontier's neighborhood, not with ``n``.  Why
the restricted recomputation is exact — and why the keep sets, hence
the key lists and every later level's mode, match the fresh build's —
is argued once in :mod:`repro.colorcoding.level`.

Untouched columns are untouched bytes: dense layers copy the surviving
rows and patch only the frontier columns; sealed
:class:`~repro.table.count_table.SuccinctLayer` records are re-sealed
only for frontier vertices, with untouched vertex records spliced over
(key rows remapped through the monotone keep map).

Telemetry: ``count.delta_updates_total`` (edge changes applied),
``count.delta_rows_touched`` (frontier columns summed over levels) and
``time.delta_propagate`` accumulate into the caller's instrumentation —
names deliberately distinct from the build counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.level import (
    _spmm,
    augmented,
    check_build_args,
    halo_csr,
    level_mode,
    run_level,
)
from repro.colorcoding.plans import compile_plans, level_source_sizes
from repro.errors import BuildError
from repro.graph.graph import Graph
from repro.table.count_table import (
    CountTable,
    Layer,
    LayerView,
    SuccinctLayer,
    csr_offsets,
)
from repro.treelets.registry import TreeletRegistry
from repro.util.instrument import Instrumentation

__all__ = ["DeltaResult", "apply_edge_updates", "touched_frontiers"]

Key = Tuple[int, int]


@dataclass
class DeltaResult:
    """Outcome of one :func:`apply_edge_updates` batch.

    Attributes
    ----------
    table, graph:
        The maintained count table and the updated graph it now counts.
        When the batch is a pure no-op both are the *input* objects.
    touched:
        Sorted endpoint vertices whose adjacency changed.
    rows_touched:
        Frontier columns recomputed, summed over levels ``2..k`` — the
        work measure the update/rebuild speedup scales with.
    updates_applied, edges_added, edges_removed:
        Edge changes the batch actually made (no-op entries excluded).
    dirty_columns:
        Sorted vertices whose *sub-k* layer counts (sizes ``1..k-1``)
        may have changed — the radius-``(k-3)`` frontier ball, which
        contains the endpoints.  The sampling plane's cache-retargeting
        hint: gathered-cumulative rows stay valid for every vertex
        whose neighborhood avoids this set (see
        :meth:`repro.colorcoding.urn.TreeletUrn.rebind`).
    """

    table: CountTable
    graph: Graph
    touched: np.ndarray
    rows_touched: int
    updates_applied: int
    edges_added: int
    edges_removed: int
    dirty_columns: Optional[np.ndarray] = None


def _gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, verts: np.ndarray
) -> np.ndarray:
    """Concatenated neighbor lists of ``verts`` (one CSR gather)."""
    lengths = (indptr[verts + 1] - indptr[verts]).astype(np.int64)
    offsets = np.zeros(verts.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    gather = (
        np.repeat(indptr[verts].astype(np.int64) - offsets[:-1], lengths)
        + np.arange(total, dtype=np.int64)
    )
    return indices[gather]


def touched_frontiers(
    old_graph: Graph, new_graph: Graph, endpoints: np.ndarray, k: int
) -> List[np.ndarray]:
    """Balls of radius ``0 .. k-2`` around the updated endpoints.

    Grown over the union of old and new adjacency (see the module
    docstring); entry ``r`` is the sorted vertex set within distance
    ``r``, and level ``h`` of the delta recomputes exactly entry
    ``h - 2``.  Each radius grows from the newest shell only: the rest
    of the ball's neighbors are already inside it.
    """
    shell = np.unique(np.asarray(endpoints, dtype=np.int64))
    inside = np.zeros(new_graph.num_vertices, dtype=bool)
    inside[shell] = True
    balls = [shell]
    for _radius in range(1, max(k - 1, 1)):
        reached = np.concatenate([
            _gather_neighbors(old_graph.indptr, old_graph.indices, shell),
            _gather_neighbors(new_graph.indptr, new_graph.indices, shell),
        ])
        shell = np.unique(reached[~inside[reached]])
        inside[shell] = True
        balls.append(np.flatnonzero(inside).astype(np.int64))
    return balls


def _membership(sorted_values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Boolean membership of ``queries`` in a sorted unique array."""
    if sorted_values.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    positions = np.searchsorted(sorted_values, queries)
    positions = np.minimum(positions, sorted_values.size - 1)
    return sorted_values[positions] == queries


def _column_block(layer: LayerView, cols: np.ndarray) -> np.ndarray:
    """Dense float64 ``num_keys × len(cols)`` column block of a layer.

    Dense layers slice; succinct layers scatter their CSR vertex records
    for exactly the requested columns — no full densification either
    way, so the cost stays proportional to the block.
    """
    if layer.layout == "dense":
        return np.ascontiguousarray(
            layer.counts[:, cols], dtype=np.float64
        )
    block = np.zeros((layer.num_keys, cols.size), dtype=np.float64)
    indptr = layer.indptr
    starts = indptr[cols].astype(np.int64)
    lengths = (indptr[cols + 1] - starts).astype(np.int64)
    offsets = np.zeros(cols.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    gather = (
        np.repeat(starts - offsets[:-1], lengths)
        + np.arange(total, dtype=np.int64)
    )
    block[
        np.asarray(layer.key_row[gather], dtype=np.int64),
        np.repeat(np.arange(cols.size, dtype=np.int64), lengths),
    ] = layer.values[gather]
    return block


class _FrontierReader:
    """Neighbor sums at frontier rows from only their halo columns.

    Source layers are read through :func:`_column_block` (dense or
    succinct) at the halo alone, so each answer costs work proportional
    to the frontier's neighborhood, not to ``n``.  A level's groups ask
    for the same rows, so the halo and its remapped CSR are built once
    per distinct ``rows``; the driver uses one reader per level, which
    drops them when the level ends.
    """

    def __init__(
        self, table: CountTable, adjacency, instrumentation: Instrumentation
    ):
        self.table = table
        self.adjacency = adjacency
        self.instrumentation = instrumentation
        self._halo: Optional[Tuple[np.ndarray, np.ndarray, object]] = None

    def neighbor_block(self, size: int, rows: np.ndarray) -> np.ndarray:
        return augmented(self.subset_sums(size, rows, None))

    def subset_sums(
        self, size: int, rows: np.ndarray, key_rows: Optional[np.ndarray]
    ) -> np.ndarray:
        self.instrumentation.count("spmm_ops")
        if self._halo is None or not np.array_equal(self._halo[0], rows):
            self._halo = (rows, *halo_csr(self.adjacency, rows))
        _rows, halo, piece = self._halo
        block = _column_block(self.table.layer(size), halo)
        if key_rows is not None:
            block = block[key_rows]
        return _spmm(piece, np.ascontiguousarray(block.T))

    def release(self, block: np.ndarray) -> None:
        pass


def _patched_layer(
    h: int,
    old_layer: LayerView,
    candidate_keys: List[Key],
    out_block: np.ndarray,
    cols: np.ndarray,
    n: int,
    in_place: bool = False,
) -> LayerView:
    """Splice the recomputed frontier columns into the level's layer.

    ``candidate_keys`` is the level's sorted key universe and
    ``out_block`` its recomputed counts at the frontier ``cols``.  The
    keep set decomposes exactly (:mod:`repro.colorcoding.level`, fact
    3); dense layers patch the frontier columns (in place when the
    caller owns the table and the key set is unchanged — the
    steady-state trickle path, which does column-local work instead of
    copying the matrix), succinct layers re-seal only frontier vertex
    records and splice the rest with key rows remapped through the
    (monotone) keep map.

    The dense keep test reads :meth:`DenseLayer.row_totals` minus the
    frontier row sums instead of scanning the off-frontier matrix:
    counts are integer-valued floats, so the subtraction is exact and
    the ``> 0`` decision matches the fresh build's bit for bit.
    """
    candidate_rows = {key: i for i, key in enumerate(candidate_keys)}
    old_cand = np.asarray(
        [candidate_rows[key] for key in old_layer.keys], dtype=np.int64
    ).reshape(old_layer.num_keys)

    pos_old = np.zeros(len(candidate_keys), dtype=bool)
    if old_layer.layout == "dense":
        if old_layer.counts.size:
            frontier_sums = np.asarray(
                old_layer.counts[:, cols], dtype=np.float64
            ).sum(axis=1)
            pos_old[old_cand] = (
                old_layer.row_totals() - frontier_sums
            ) > 0.0
    else:
        pair_verts = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(old_layer.indptr)
        )
        outside_pairs = ~_membership(cols, pair_verts)
        if outside_pairs.any():
            rows_outside = np.asarray(
                old_layer.key_row[outside_pairs], dtype=np.int64
            )
            pos_old[old_cand] = np.bincount(
                rows_outside, minlength=old_layer.num_keys
            ) > 0
    pos_new = (out_block > 0.0).any(axis=1)
    keep = pos_old | pos_new
    kept = np.flatnonzero(keep)
    kept_keys = [candidate_keys[i] for i in kept]
    kept_pos = np.full(len(candidate_keys), -1, dtype=np.int64)
    kept_pos[kept] = np.arange(kept.size, dtype=np.int64)

    if old_layer.layout == "dense":
        if (
            in_place
            and old_layer.counts.flags.writeable
            and kept_keys == old_layer.keys
        ):
            # Steady state: no key births or deaths, caller owns the
            # table — patch the frontier columns into the live matrix.
            old_layer.patch_columns(cols, out_block[old_cand])
            return old_layer
        new_counts = np.zeros((kept.size, n), dtype=np.float64)
        old_keep = keep[old_cand]
        if old_keep.any():
            new_counts[kept_pos[old_cand[old_keep]]] = np.asarray(
                old_layer.counts[old_keep], dtype=np.float64
            )
        new_counts[:, cols] = out_block[kept]
        return Layer(h, kept_keys, new_counts)

    # Succinct splice.  Untouched vertex records carry only keys with a
    # positive count outside the frontier, i.e. kept keys, so the remap
    # below never hits -1; it is monotone over kept rows, so remapped
    # records keep their strictly-ascending key order.
    remap = kept_pos[old_cand]
    pair_verts = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(old_layer.indptr)
    )
    untouched = ~_membership(cols, pair_verts)
    old_rows = remap[np.asarray(old_layer.key_row, dtype=np.int64)[untouched]]
    old_values = np.asarray(old_layer.values, dtype=np.float64)[untouched]

    sub = out_block[kept]
    new_local, new_rows = np.nonzero(sub.T)
    new_values = sub[new_rows, new_local]

    all_verts = np.concatenate([pair_verts[untouched], cols[new_local]])
    all_rows = np.concatenate([old_rows, new_rows.astype(np.int64)])
    all_values = np.concatenate([old_values, new_values])
    order = np.argsort(all_verts, kind="stable")
    return SuccinctLayer(
        h,
        kept_keys,
        csr_offsets(all_verts, n),
        all_rows[order],
        all_values[order],
    )


def apply_edge_updates(
    table: CountTable,
    graph: Graph,
    updates,
    coloring: ColoringScheme,
    registry: Optional[TreeletRegistry] = None,
    instrumentation: Optional[Instrumentation] = None,
    in_place: bool = False,
) -> DeltaResult:
    """Maintain a count table under a batch of edge updates.

    Parameters
    ----------
    table:
        The table built on ``graph`` under ``coloring`` (any layout).
        With ``in_place=False`` it is not mutated; the result carries a
        fresh table sharing the unchanged layer-1 object.  With
        ``in_place=True`` the caller relinquishes it: dense levels whose
        key set is unchanged are patched in the live matrices (the
        steady-state trickle fast path — column-local work instead of
        matrix copies), so the input table must not be read afterwards.
        Read-only (memory-mapped) or key-changing levels silently fall
        back to the copying path either way.
    graph:
        The graph the table currently counts.
    updates:
        Edge update batch — ``(op, u, v)`` triples accepted by
        :func:`repro.graph.graph.normalize_updates`.
    coloring:
        The build's coloring.  Persisting it per build is what makes
        the delta and an oracle rebuild see identical color
        assignments; pure edge updates never change it.
    registry, instrumentation:
        Treelet registry for ``k`` (built on demand) and the counter
        bag receiving the ``delta_*`` telemetry.

    Returns a :class:`DeltaResult` whose table is **bit-identical** to
    ``build_table(new_graph, coloring, ...)`` — same kept keys, same
    count bytes, same layout.
    """
    k = table.k
    n = table.num_vertices
    if coloring.k != k or graph.num_vertices != n:
        raise BuildError(
            f"table covers k={k} over {n} vertices; got k={coloring.k} "
            f"over a {graph.num_vertices}-vertex graph"
        )
    registry = check_build_args(graph, coloring, registry)
    instrumentation = instrumentation or Instrumentation()

    with instrumentation.timer("delta_propagate"):
        added, removed, endpoints = graph.resolve_updates(updates)
        if endpoints.size == 0:
            return DeltaResult(table, graph, endpoints, 0, 0, 0, 0)
        new_graph, _touched = graph.apply_updates(updates)
        balls = touched_frontiers(graph, new_graph, endpoints, k)
        adjacency = new_graph.adjacency_csr()
        zero_rooted = table.zero_rooted
        new_table = CountTable(k, n, zero_rooted=zero_rooted)
        new_table.set_layer(table.layer(1))
        rows_touched = 0
        for h in range(2, k + 1):
            cols = balls[h - 2]
            rows_touched += cols.size
            mode = level_mode(
                registry, h, lambda size: new_table.layer(size).num_keys,
                zero_rooted, instrumentation,
            )
            shim = CountTable(k, cols.size, False)
            for size in level_source_sizes(registry, h):
                source = new_table.layer(size)
                shim.set_layer(
                    Layer(size, list(source.keys), _column_block(source, cols))
                )
            out = run_level(
                registry, h, mode, zero_rooted, shim,
                coloring.colors[cols], cols,
                _FrontierReader(new_table, adjacency, instrumentation),
                instrumentation,
            )
            new_table.set_layer(
                _patched_layer(
                    h, table.layer(h), list(compile_plans(registry)[h].keys),
                    out, cols, n, in_place=in_place,
                )
            )
            del out
        instrumentation.count(
            "delta_updates_total", int(added.size + removed.size)
        )
        instrumentation.count("delta_rows_touched", rows_touched)
    return DeltaResult(
        new_table,
        new_graph,
        endpoints,
        rows_touched,
        int(added.size + removed.size),
        int(added.size),
        int(removed.size),
        dirty_columns=balls[k - 3] if k >= 3 else endpoints,
    )
