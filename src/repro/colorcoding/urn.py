"""The treelet urn: motivo's sampling-phase engine (§2.2, §3.2, §4).

The build-up phase leaves an abstract "urn" of colorful k-treelet copies.
This module draws from it, always in batches:

``sample_batch(n)``
    ``n`` colorful k-treelet copies uniformly at random: pick each root
    ``v`` with probability ∝ occ(v) (alias method, §3.3), pick ``(T, C)``
    from ``v``'s record (binary search on cumulative counts), then
    materialize a copy by decomposition (§2.2).
``sample_shape_batch(T, n)``
    The AGS primitive: ``n`` uniform copies of one *free* treelet shape
    ``T``.  Root selection uses a per-shape alias table, built when the
    shape is first drawn — the rebuild cost the paper notes on a switch.

The paper materializes a copy by a recursion per sample, with neighbor
buffering at hubs (§3.2).  That *scalar recursion* is kept, buffering
included, in ``tests/support/reference.py``: it is the oracle this
module's vectorized descent must match bit for bit, and the sampler the
Figure 5 and §5.1 sampling-speed benchmarks time.

Batched sampling.  The copy-materialization recursion has a shape that is
fully determined by the rooted treelet ``T`` (only the chosen color masks
and vertices are random), so it compiles into a flat
:class:`~repro.colorcoding.descent.DescentPlan` replayed over any number
of samples at once.  Randomness follows a **fixed-width uniform-matrix
draw discipline**: every sample owns one row of ``rng.random((n, w))``
with ``w = 3 + 2(k-1)`` —

====  =================================================================
slot  meaning
====  =================================================================
0, 1  alias-table column and coin for the root draw
2     key draw (``sample(v)``) or rooted-variant pick (shape sampling)
3+2r  color-split choice of the internal node with pre-order rank ``r``
4+2r  child-endpoint choice of that node
====  =================================================================

The scalar recursion, replayed over the same matrix, reads each row left
to right and lands on exactly those slots; the vectorized descent reads
column slices.  Because treelet counts are integer-valued floats (exact in float64 up to
2^53), every weight, cumulative sum and comparison is bit-identical
between the two paths, so for a fixed seed they return identical samples
— the property ``BENCH_sampling.json`` and the batch-equivalence tests
assert.  The binding magnitude for that guarantee is the *gathered*
running sum: the batched path accumulates one cumsum over all adjacency
lists per ``(T'', C'')`` key, i.e. ``Σ_u deg(u)·c(T''_{C''}, u)`` — a
degree-weighted total up to Δ times larger than any per-vertex neighbor
sum the scalar recursion ever forms.  While that stays below 2^53 the two
paths cannot diverge; beyond it both keep working but may round
differently.  No surrogate workload comes near the bound.

Fused descent kernel.  The vectorized path replays a single compiled
:class:`~repro.colorcoding.descent.DescentProgram` — every treelet plan,
split group and gathered-key resolved eagerly into flat index arrays —
so a frontier wave is a handful of full-array passes instead of a Python
loop over ``(T', T'', C)`` groups: group bounds come from one dense (or
binary-searched) lookup, all candidates pad to a ``(Lmax, wave)`` matrix
whose padded lanes get exact-0.0 weights (padding cannot perturb the
prefix sums), and the child endpoint inverts the gathered running sums
by vectorized bisection.  Programs are pure table metadata: artifacts
cache them (``descent_plan.npz``) and hand them back via the
``program=`` constructor argument, so warm opens never compile.

The gathered-cumulative matrix is a single global grow-on-demand store
(one ``O(m)`` row per ``(T'', C'')`` key the descent actually visits,
shared across layers and batches) held at the narrowest **exact integer
dtype** — uint32 when ``max_count · 2m < 2^32``, else int64 — halving
memory traffic versus float64 rows.  Integer running sums also make the
child inversion exact at any magnitude: the scalar rule
``searchsorted(running, u·s, side="right")`` counts ``running <= u·s``,
which for integer running sums equals ``running <= floor(u·s)``, an
int64 comparison with no rounding anywhere.  Split weights stay float64
products, performing the same float ops as the scalar recursion.

Table layouts: every table access goes through the
:class:`~repro.table.count_table.LayerView` protocol (``row_values`` for
the gathered-cumulative rows, ``values_at`` for the split weights and
child counts), so the urn works unchanged — and bit-identically — over
dense matrices and the sealed succinct CSR records alike; the succinct
layout answers the point lookups by binary search on its packed pair
index instead of direct indexing.

Neighbor buffering (§3.2) has no counterpart here: the gathered store
amortizes each key's Θ(m) sweep over every later draw at any vertex.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SamplingError
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.descent import DescentProgram, compile_program
from repro.graph.graph import Graph
from repro.telemetry.tracing import span as _trace_span
from repro.table.count_table import CountTable
from repro.treelets.registry import TreeletRegistry
from repro.util.alias import AliasSampler
from repro.util.instrument import Instrumentation
from repro.util.rng import RngLike, ensure_rng

__all__ = ["TreeletUrn", "BatchSamples"]

#: Batched draw result: ``(vertices (n, k), treelets (n,), masks (n,))``.
BatchSamples = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Tie-break epsilon of the split choice, shared verbatim by the scalar
#: recursion and the vectorized engine so their comparisons agree.
_SPLIT_EPS = 1e-300

#: Default byte budget for the cached gathered-cumulative rows (each row
#: costs ``(2m + 1)`` entries at the store's integer dtype; budgeting
#: assumes the conservative 8 bytes each).  Keys beyond the budget are
#: computed transiently per batch instead of cached, so the batched
#: sampler's resident memory stays bounded on paper-scale graphs.
#: Overridable per urn via ``descent_cache_bytes`` (see
#: ``MotivoConfig.descent_cache_bytes`` / ``--descent-cache-bytes``).
DEFAULT_DESCENT_CACHE_BYTES = 256 * 1024 * 1024


class TreeletUrn:
    """Sampling interface over a finished count table.

    Parameters
    ----------
    graph, table, coloring:
        The host graph, its build-up output, and the coloring used.
    registry:
        Treelet registry for ``k``.
    program:
        A pre-compiled :class:`DescentProgram` for this table (from a
        plan-carrying artifact).  ``None`` compiles lazily on the first
        batched draw.  A program that does not match the table raises
        :class:`SamplingError` immediately.
    descent_cache_bytes:
        Byte budget of the gathered-cumulative row cache (default
        ``DEFAULT_DESCENT_CACHE_BYTES``).
    """

    def __init__(
        self,
        graph: Graph,
        table: CountTable,
        coloring: ColoringScheme,
        registry: Optional[TreeletRegistry] = None,
        instrumentation: Optional[Instrumentation] = None,
        program: Optional[DescentProgram] = None,
        descent_cache_bytes: Optional[int] = None,
    ):
        self.graph = graph
        self.table = table
        self.coloring = coloring
        self.k = table.k
        self.registry = registry or TreeletRegistry(self.k)
        self.instrumentation = instrumentation or Instrumentation()

        weights = table.root_weights()
        self._total_weight = float(weights.sum())
        if self._total_weight <= 0:
            raise SamplingError(
                "the urn is empty: no colorful k-treelets were counted "
                "(unlucky coloring or disconnected graph?)"
            )
        self._root_alias = AliasSampler(weights)
        self._full_mask = (1 << self.k) - 1
        #: Uniform-matrix width of the batched draw discipline.
        self._draw_width = 3 + 2 * (self.k - 1)

        # Per-shape machinery (built lazily; the alias is rebuilt per shape).
        self._shape_weights: Dict[int, np.ndarray] = {}
        self._shape_alias: Dict[int, AliasSampler] = {}
        self._shape_totals: Dict[int, float] = {}

        # Batched-path state: the compiled descent program (plans, split
        # groups and gathered keys fused into flat arrays; handed in
        # pre-compiled when the table came from a plan-carrying artifact),
        # the global integer gathered-cumulative store, and the size-k
        # layer's keys as parallel arrays.
        if program is not None:
            try:
                program.validate_for(table)
            except ValueError as exc:
                raise SamplingError(
                    f"descent program does not match the table: {exc}"
                ) from exc
        self._program = program
        if descent_cache_bytes is None:
            descent_cache_bytes = DEFAULT_DESCENT_CACHE_BYTES
        self.descent_cache_bytes = int(descent_cache_bytes)
        row_bytes = (graph.indices.size + 1) * 8
        self._gathered_row_budget = max(
            16, self.descent_cache_bytes // row_bytes
        )
        self._gathered_cached_rows = 0
        self._gath_matrix: Optional[np.ndarray] = None
        self._gath_slot: Optional[np.ndarray] = None
        # The graph snapshot the gathered store is pinned to, plus the
        # per-vertex dirty mask of the stale-row read discipline (see
        # :meth:`_retarget_gathered`).  Identical to ``self.graph`` until
        # an incremental rebind keeps the store across an edge update.
        self._gath_graph: Graph = graph
        self._gath_dirty: Optional[np.ndarray] = None
        self._key_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def rebind(
        self,
        graph: Graph,
        table: CountTable,
        dirty_columns: Optional[np.ndarray] = None,
    ) -> "TreeletUrn":
        """Point the urn at an updated ``(graph, table)`` pair, in place.

        The incremental maintainer's sampling-side counterpart: after an
        edge-update batch the table's counts (and the graph's adjacency)
        have moved, so every weight-derived structure is refreshed — but
        the expensive graph-independent state survives.  The compiled
        descent program is kept whenever it still validates against the
        new table (key sets rarely change under a trickle of updates),
        so the warm path never recompiles.  When ``dirty_columns`` names
        the vertices whose sub-``k`` counts an update batch changed, the
        gathered-cumulative store survives too: it stays pinned to its
        snapshot graph and reads for vertices outside the dirty
        neighborhood remain bit-exact, while dirty vertices take a live
        per-segment path (:meth:`_retarget_gathered`).  Without that
        hint the store and shape aliases are dropped and refill on
        demand.  Every refreshed structure is rebuilt by
        the same code a fresh :class:`TreeletUrn` would run, so draws
        after ``rebind`` are bit-identical to a from-scratch urn's.

        Raises :class:`SamplingError` when the updated table holds no
        colorful k-treelets (the empty-urn degradation); the urn is then
        unusable and the caller should fall back to its empty-urn state.
        """
        weights = table.root_weights()
        total = float(weights.sum())
        if total <= 0:
            raise SamplingError(
                "the urn is empty: no colorful k-treelets were counted "
                "(unlucky coloring or disconnected graph?)"
            )
        program = self._program
        if program is not None:
            try:
                program.validate_for(table)
            except ValueError:
                program = None
        old_graph = self.graph
        self.graph = graph
        self.table = table
        self._total_weight = total
        self._root_alias = AliasSampler(weights)
        self._shape_weights.clear()
        self._shape_alias.clear()
        self._shape_totals.clear()
        self._program = program
        self._key_arrays = None
        if not self._retarget_gathered(
            old_graph, dirty_columns, program is not None
        ):
            self._gath_graph = graph
            self._gath_dirty = None
            row_bytes = (graph.indices.size + 1) * 8
            self._gathered_row_budget = max(
                16, self.descent_cache_bytes // row_bytes
            )
            self._gathered_cached_rows = 0
            self._gath_matrix = None
            self._gath_slot = None
        return self

    def _retarget_gathered(
        self,
        old_graph: Graph,
        dirty_columns: Optional[np.ndarray],
        program_kept: bool,
    ) -> bool:
        """Try to carry the gathered-cumulative store across a rebind.

        The store holds, per gathered key, the running sum of that key's
        counts over the snapshot graph's edge array.  The fused kernel
        only ever reads it *relatively* — segment-endpoint differences
        for split weights, and bisection against ``row[start] + t``
        thresholds — so the global prefix offset of a row cancels out of
        every decision.  A stale row read through the snapshot's
        ``indptr``/``indices`` therefore yields bit-exact results for
        any vertex whose adjacency segment is unchanged and whose
        neighbors' counts for sub-``k`` layers are unchanged.  The dirty
        mask marks exactly the vertices where that fails — the updated
        columns plus their one-hop neighborhoods under both the old and
        new adjacency — and the kernel routes those lanes through a live
        per-segment computation against the *current* graph and table
        (:meth:`_live_segments`), which is exact by construction.

        Returns ``False`` (caller flushes the store) when there is no
        dirty hint, the program was invalidated (gathered-key ids would
        renumber), the store was never materialized, the dirty mask
        would cover too much of the graph for stale reads to pay off, or
        the updated counts would overflow the store's integer dtype.
        """
        if (
            dirty_columns is None
            or not program_kept
            or self._gath_slot is None
        ):
            return False
        n = self.graph.num_vertices
        seed = np.zeros(n, dtype=bool)
        seed[np.asarray(dirty_columns, dtype=np.int64)] = True
        fresh = seed.copy()
        for adjacency in (old_graph, self.graph):
            hits = seed[adjacency.indices]
            if hits.any():
                owners = np.repeat(
                    np.arange(n, dtype=np.int64), np.diff(adjacency.indptr)
                )
                fresh[owners[hits]] = True
        dirty = fresh if self._gath_dirty is None else (
            self._gath_dirty | fresh
        )
        if int(dirty.sum()) * 4 > n:
            return False
        if self._gath_matrix.dtype != self._gathered_dtype():
            return False
        self._gath_dirty = dirty
        return True

    # ------------------------------------------------------------------
    # Global quantities
    # ------------------------------------------------------------------

    @property
    def total_treelets(self) -> float:
        """t — the total number of colorful k-treelet copies in G.

        With 0-rooting each copy is stored exactly once (at its color-0
        node); without it, once per node, so the raw weight over-counts
        by a factor k (§3.2).
        """
        if self.table.zero_rooted:
            return self._total_weight
        return self._total_weight / self.k

    def shape_total(self, shape: int) -> float:
        """r_j — the number of colorful copies of free shape ``T_j``."""
        total = self._shape_totals.get(shape)
        if total is None:
            total = float(self._shape_weight_vector(shape).sum())
            if not self.table.zero_rooted:
                total /= self.k
            self._shape_totals[shape] = total
        return total

    def _shape_weight_vector(self, shape: int) -> np.ndarray:
        weights = self._shape_weights.get(shape)
        if weights is None:
            layer = self.table.layer(self.k)
            weights = np.zeros(self.table.num_vertices, dtype=np.float64)
            for rooted in self.registry.rooted_variants(shape):
                row = layer.counts_for(rooted, self._full_mask)
                if row is not None:
                    weights = weights + row
            self._shape_weights[shape] = weights
        return weights

    def _shape_alias_for(self, shape: int) -> AliasSampler:
        """The per-shape root alias table, built (and counted) lazily."""
        alias = self._shape_alias.get(shape)
        if alias is None:
            weights = self._shape_weight_vector(shape)
            if not weights.any():
                raise SamplingError(
                    f"shape {shape} has no colorful copies in the urn"
                )
            # Paper §3.3: when a new T is chosen the alias sampler must be
            # rebuilt from scratch.
            self.instrumentation.count("shape_alias_rebuilds")
            alias = AliasSampler(weights)
            self._shape_alias[shape] = alias
        return alias

    # ------------------------------------------------------------------
    # Batched sampling
    # ------------------------------------------------------------------

    @property
    def draw_width(self) -> int:
        """Uniform-matrix width of the batched draw discipline.

        A pre-drawn batch of ``n`` samples is one ``rng.random((n,
        draw_width))`` block; callers that draw it themselves (to pass
        via ``uniforms=``) consume the generator exactly like
        :meth:`sample_batch` would.
        """
        return self._draw_width

    def sample_batch(
        self,
        n: int,
        rng: RngLike = None,
        uniforms: Optional[np.ndarray] = None,
    ) -> BatchSamples:
        """Draw ``n`` uniform colorful k-treelet copies at once.

        Returns ``(vertices, treelets, masks)``: an ``(n, k)`` int64
        matrix of copies (each row in the DFS order of its rooted
        treelet), the rooted treelet and the color mask per sample.  The
        batch consumes one ``rng.random((n, 3 + 2(k-1)))`` block, so
        results are reproducible per ``(seed, n)``.

        ``uniforms`` supplies that block pre-drawn (shape ``(n,
        draw_width)``); ``rng`` is then untouched.  Every decision in the
        descent is made row by row from that row's slots alone, so
        concatenating the uniform blocks of several callers and splitting
        the returned rows is bit-identical to separate calls — the
        property the serving layer's request coalescing rests on.
        """
        if n < 1:
            raise SamplingError("need at least one sample")
        uniforms = self._resolve_uniforms(n, rng, uniforms)
        out = self._sample_batch_vectorized(uniforms)
        self.instrumentation.count("batched_samples", n)
        return out

    def sample_shape_batch(
        self,
        shape: int,
        n: int,
        rng: RngLike = None,
        uniforms: Optional[np.ndarray] = None,
    ) -> BatchSamples:
        """Draw ``n`` uniform copies of one free shape at once (AGS).

        Same contract and draw discipline as :meth:`sample_batch`
        (``uniforms=`` included), with slot 2 of each row picking the
        rooted variant instead of a table key; every returned mask is
        the full color mask.
        """
        if n < 1:
            raise SamplingError("need at least one sample")
        alias = self._shape_alias_for(shape)
        uniforms = self._resolve_uniforms(n, rng, uniforms)
        out = self._sample_shape_batch_vectorized(shape, alias, uniforms)
        self.instrumentation.count("batched_shape_samples", n)
        return out

    def _resolve_uniforms(
        self, n: int, rng: RngLike, uniforms: Optional[np.ndarray]
    ) -> np.ndarray:
        """Draw (or validate) one batch's uniform matrix."""
        if uniforms is None:
            return ensure_rng(rng).random((n, self._draw_width))
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if uniforms.shape != (n, self._draw_width):
            raise SamplingError(
                f"uniforms must have shape ({n}, {self._draw_width}), "
                f"got {uniforms.shape}"
            )
        return uniforms

    # -- vectorized path -------------------------------------------------

    def _sample_batch_vectorized(self, uniforms: np.ndarray) -> BatchSamples:
        roots = self._root_alias.pick_from_uniforms(
            uniforms[:, 0], uniforms[:, 1]
        )
        rows = self.table.sample_key_rows_batch(roots, uniforms[:, 2])
        treelet_arr, mask_arr = self._size_k_key_arrays()
        treelets = treelet_arr[rows]
        masks = mask_arr[rows]
        vertices = self._descend_batch(treelets, masks, roots, uniforms)
        return vertices, treelets, masks

    def _sample_shape_batch_vectorized(
        self, shape: int, alias: AliasSampler, uniforms: np.ndarray
    ) -> BatchSamples:
        roots = alias.pick_from_uniforms(uniforms[:, 0], uniforms[:, 1])
        treelets = self._pick_rooted_variants_batch(
            shape, roots, uniforms[:, 2]
        )
        masks = np.full(roots.shape, self._full_mask, dtype=np.int64)
        vertices = self._descend_batch(treelets, masks, roots, uniforms)
        return vertices, treelets, masks

    def _size_k_key_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The size-k layer's keys as parallel (treelet, mask) arrays."""
        if self._key_arrays is None:
            keys = self.table.layer(self.k).keys
            self._key_arrays = (
                np.array([key[0] for key in keys], dtype=np.int64),
                np.array([key[1] for key in keys], dtype=np.int64),
            )
        return self._key_arrays

    def _pick_rooted_variants_batch(
        self, shape: int, roots: np.ndarray, us: np.ndarray
    ) -> np.ndarray:
        """Each root's rooted variant of ``shape``, ∝ its count there."""
        variants = self.registry.rooted_variants(shape)
        if len(variants) == 1:
            return np.full(roots.shape, variants[0], dtype=np.int64)
        layer = self.table.layer(self.k)
        weights = np.zeros((roots.size, len(variants)), dtype=np.float64)
        for j, rooted in enumerate(variants):
            row = layer.row_of(rooted, self._full_mask)
            if row is not None:
                weights[:, j] = layer.values_at(
                    np.asarray([row], dtype=np.int64), roots
                )[0]
        cumulative = np.cumsum(weights, axis=1)
        totals = cumulative[:, -1]
        if np.any(totals <= 0):
            bad = int(roots[np.argmax(totals <= 0)])
            raise SamplingError(
                f"vertex {bad} roots no copies of shape {shape}"
            )
        targets = us * totals
        # Scalar rule "first j with r <= running_j" = count of running < r.
        chosen = (cumulative < targets[:, None]).sum(axis=1)
        chosen = np.minimum(chosen, len(variants) - 1)
        return np.asarray(variants, dtype=np.int64)[chosen]

    def descent_program(self) -> DescentProgram:
        """The urn's compiled descent program, compiling on first need.

        Pure ``(registry, table)`` metadata — deterministic, so it can be
        compiled once, stored in the table artifact, and handed back via
        the ``program=`` constructor argument; urns opened that way never
        compile (``descent_plan_compiles`` stays at zero).
        """
        if self._program is None:
            with self.instrumentation.timer("descent_plan_compile"):
                self._program = compile_program(self.registry, self.table)
            self.instrumentation.count("descent_plan_compiles")
        return self._program

    # -- gathered-cumulative store ---------------------------------------

    def _gathered_dtype(self) -> np.dtype:
        """Narrowest exact integer dtype for the gathered running sums.

        A gathered row's largest entry is bounded by ``max_count · 2m``
        over layers ``1..k-1`` (only ``T''`` layers feed gathered rows —
        never the big size-k layer); when that fits uint32 the store
        halves its memory traffic, else it widens to int64.
        """
        largest = 0.0
        for size in range(1, self.k):
            largest = max(largest, self.table.layer(size).max_value())
        bound = largest * self._gath_graph.indices.size
        return np.dtype(np.uint32) if bound < 2**32 else np.dtype(np.int64)

    def _ensure_gathered(self) -> None:
        if self._gath_slot is None:
            self._gath_slot = np.full(
                self._program.num_gathered_keys, -1, dtype=np.int64
            )
            self._gath_matrix = np.zeros(
                (0, self._gath_graph.indices.size + 1),
                dtype=self._gathered_dtype(),
            )

    def _build_gathered_row(self, gk: int, out_row: np.ndarray) -> None:
        """Fill one gathered-cumulative row: a leading zero, then the
        running sum of the key's counts gathered over the edge list.
        Counts are integer-valued floats, so accumulating in int64 is
        exact (and the uint32 narrowing is bounds-checked by dtype
        selection)."""
        program = self._program
        layer = self.table.layer(int(program.gk_size[gk]))
        values = layer.row_values(int(program.gk_row[gk]))[
            self._gath_graph.indices
        ]
        out_row[0] = 0
        out_row[1:] = np.cumsum(values, dtype=np.int64)

    def _gathered_rows(
        self, gkids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gathered-cumulative rows for gathered-key ids: ``(matrix,
        slot_of)`` with ``matrix[slot_of[gk]]`` holding key ``gk``'s row.

        For any vertex ``v`` the slice ``[indptr[v]+1 : indptr[v+1]+1]``
        minus the entry at ``indptr[v]`` is exactly the per-neighbor
        running sum the scalar recursion computes with
        ``cumsum(counts[neighbors])``, and the difference of the slice
        endpoints is the neighbor total.

        Rows are built once (one ``O(m)`` pass each) into a global
        grow-on-demand matrix shared by all layers, capped at
        ``descent_cache_bytes``; once full, waves touching uncached keys
        get a transient per-call matrix instead (same arithmetic, nothing
        retained, counted as ``gathered_budget_fallbacks``), so resident
        memory stays bounded on paper-scale graphs.
        """
        self._ensure_gathered()
        slot = self._gath_slot
        if not (slot[gkids] < 0).any():
            return self._gath_matrix, slot
        with self.instrumentation.timer("sample_gather"), \
                _trace_span("sample.gather"):
            flat = gkids.ravel()
            missing = np.unique(flat[slot[flat] < 0])
            room = self._gathered_row_budget - self._gathered_cached_rows
            to_cache = missing[: max(room, 0)]
            if to_cache.size:
                matrix = self._gath_matrix
                needed = self._gathered_cached_rows + int(to_cache.size)
                if needed > matrix.shape[0]:
                    grown = np.zeros(
                        (max(needed, 2 * matrix.shape[0]), matrix.shape[1]),
                        dtype=matrix.dtype,
                    )
                    grown[: matrix.shape[0]] = matrix
                    self._gath_matrix = matrix = grown
                for gk in to_cache:
                    target = self._gathered_cached_rows
                    self._build_gathered_row(int(gk), matrix[target])
                    slot[gk] = target
                    self._gathered_cached_rows += 1
                    self.instrumentation.count("gathered_cumulative_builds")
            if to_cache.size < missing.size:
                self.instrumentation.count("gathered_budget_fallbacks")
                wanted = np.unique(flat)
                transient = np.zeros(
                    (wanted.size, self._gath_graph.indices.size + 1),
                    dtype=self._gath_matrix.dtype,
                )
                tmp_slot = np.full(slot.size, -1, dtype=np.int64)
                for i, gk in enumerate(wanted):
                    tmp_slot[gk] = i
                    cached = slot[gk]
                    if cached >= 0:
                        transient[i] = self._gath_matrix[cached]
                    else:
                        self._build_gathered_row(int(gk), transient[i])
                        self.instrumentation.count(
                            "gathered_transient_builds"
                        )
                return transient, tmp_slot
        return self._gath_matrix, slot

    # -- fused descent kernel --------------------------------------------

    def _descend_batch(
        self,
        treelets: np.ndarray,
        masks: np.ndarray,
        roots: np.ndarray,
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """Materialize every sample's copy by replaying the program.

        Level-synchronous frontier: every sample starts at its plan's
        root in the program's node table; each wave resolves leaves into
        the output matrix and splits the internal items into their two
        children via one fused pass over the whole frontier
        (:meth:`_fused_wave`).  Waves = decomposition-tree depth ≤ k - 1.
        """
        program = self.descent_program()
        n = treelets.shape[0]
        out = np.empty((n, self.k), dtype=np.int64)
        try:
            gids = program.plan_root_ids(np.asarray(treelets, dtype=np.int64))
        except ValueError as exc:
            raise SamplingError(str(exc)) from exc
        is_leaf = program.node_is_leaf
        leaf_col = program.node_leaf_col
        node_rank = program.node_rank
        node_op = program.node_op
        left = program.node_left
        right = program.node_right
        samples = np.arange(n, dtype=np.int64)
        masks = masks.astype(np.int64)
        verts = np.asarray(roots, dtype=np.int64)

        with self.instrumentation.timer("sample_descent"):
            while samples.size:
                at_leaf = is_leaf[gids]
                if at_leaf.any():
                    hit = np.flatnonzero(at_leaf)
                    out[samples[hit], leaf_col[gids[hit]]] = verts[hit]
                    keep = ~at_leaf
                    samples, gids = samples[keep], gids[keep]
                    masks, verts = masks[keep], verts[keep]
                    if not samples.size:
                        break
                ranks = node_rank[gids]
                split_u = uniforms[samples, 3 + 2 * ranks]
                child_u = uniforms[samples, 4 + 2 * ranks]
                with _trace_span("descent.wave"):
                    sub_masks, children = self._fused_wave(
                        program, node_op[gids], masks, verts, split_u,
                        child_u,
                    )
                samples = np.concatenate([samples, samples])
                gids = np.concatenate([left[gids], right[gids]])
                verts = np.concatenate([verts, children])
                masks = np.concatenate([masks ^ sub_masks, sub_masks])
        return out

    def _fused_wave(
        self,
        program: DescentProgram,
        ops: np.ndarray,
        masks: np.ndarray,
        verts: np.ndarray,
        split_u: np.ndarray,
        child_u: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Color-split and child-endpoint choice for one whole wave.

        Mirrors the scalar recursion decision by decision, but across
        every ``(T', T'', mask)`` group of the frontier at once: group
        candidate lists pad to a ``(Lmax, wave)`` matrix (padded lanes
        duplicate a group's last real candidate, then get exact-0.0
        weight via the validity mask, so prefix sums are untouched);
        weights are ``c(T'_{C\\C''}, v) · S(T''_{C''}, v)`` with the
        prime factor point-gathered per layer (``pairs_at``) and the
        second factor read as integer endpoint differences off the
        gathered store; the winner is the first included candidate whose
        running weight reaches ``u · total`` (same ``1e-300`` tie
        epsilon); and the child endpoint inverts the gathered running
        sums by bisection against the exact integer threshold
        ``G[start] + floor(u · s)`` — identical, comparison by
        comparison, to the scalar ``searchsorted`` rule.
        """
        gids = ops << self.k | masks
        start, length = program.group_bounds(gids)
        if np.any(length <= 0):
            bad = int(verts[np.argmax(length <= 0)])
            raise SamplingError(
                "inconsistent table: no valid split for treelet at "
                f"vertex {bad}"
            )
        lmax = int(length.max())
        lane = np.arange(lmax, dtype=np.int64)[:, None]
        valid = lane < length[None, :]
        cand = start[None, :] + np.minimum(lane, (length - 1)[None, :])

        prime_rows = program.cand_prime_row[cand]
        prime_sizes = program.op_prime_size[ops]
        prime_vals = np.empty(cand.shape, dtype=np.float64)
        for size in np.unique(prime_sizes):
            sel = prime_sizes == size
            prime_vals[:, sel] = self.table.layer(int(size)).pairs_at(
                prime_rows[:, sel],
                np.broadcast_to(verts[sel], (lmax, int(sel.sum()))),
            )

        second_gk = program.cand_second_gkid[cand]
        gathered, slot = self._gathered_rows(second_gk)
        sl = slot[second_gk]
        # Gathered rows are pinned to the snapshot graph: segment bounds
        # and (later) child positions must come from the SAME arrays the
        # rows were accumulated over.  Lanes at dirty vertices — where
        # the snapshot's segments or gathered values have drifted from
        # the live graph/table — are recomputed exactly, per segment,
        # against current state instead.
        indptr = self._gath_graph.indptr
        starts = indptr[verts]
        ends = indptr[verts + 1]
        s_vals = (
            gathered[sl, ends[None, :]] - gathered[sl, starts[None, :]]
        ).astype(np.int64)
        dirty = self._gath_dirty
        live = None
        if dirty is not None:
            live_sel = np.flatnonzero(dirty[verts])
            if live_sel.size:
                live = self._live_segments(program, second_gk, verts, live_sel)
                lcum, live_nb, live_deg = live
                s_vals[:, live_sel] = lcum[:, :, -1]

        weights = np.where(
            valid & (prime_vals > 0.0) & (s_vals > 0),
            prime_vals * s_vals.astype(np.float64),
            0.0,
        )
        included = weights > 0.0
        cumulative = np.cumsum(weights, axis=0)
        totals = cumulative[-1]
        if np.any(totals <= 0.0):
            bad = int(verts[np.argmax(totals <= 0.0)])
            raise SamplingError(
                "inconsistent table: no valid split for treelet at "
                f"vertex {bad}"
            )
        targets = split_u * totals
        # Scalar rule: first *included* candidate whose running sum
        # satisfies r <= cum + eps, i.e. the count of included candidates
        # with cum + eps < r; overflow falls back to the last included
        # candidate, exactly like the scalar loop.
        rank = (
            ((cumulative + _SPLIT_EPS) < targets[None, :]) & included
        ).sum(axis=0)
        rank = np.minimum(rank, included.sum(axis=0) - 1)
        included_order = np.cumsum(included, axis=0)
        position = np.argmax(included_order == (rank + 1)[None, :], axis=0)

        lanes = np.arange(verts.size, dtype=np.int64)
        chosen = cand[position, lanes]
        chosen_slots = sl[position, lanes]
        chosen_s = s_vals[position, lanes].astype(np.float64)
        # The scalar child rule counts running sums <= u·s; running sums
        # are integers, so that equals counting <= floor(u·s) — an exact
        # int64 threshold against the absolute gathered row.
        offsets = np.floor(child_u * chosen_s).astype(np.int64)
        if live is None:
            thresholds = (
                gathered[chosen_slots, starts].astype(np.int64) + offsets
            )
            children = self._invert_children(
                gathered, chosen_slots, starts, ends, thresholds
            )
        else:
            children = np.empty(verts.size, dtype=np.int64)
            clean = np.ones(verts.size, dtype=bool)
            clean[live_sel] = False
            cl = np.flatnonzero(clean)
            thresholds = (
                gathered[chosen_slots[cl], starts[cl]].astype(np.int64)
                + offsets[cl]
            )
            children[cl] = self._invert_children(
                gathered, chosen_slots[cl], starts[cl], ends[cl], thresholds
            )
            # Live lanes: same counting rule against the per-segment
            # running sums (which start at zero, so the threshold is the
            # bare offset), then the neighbor at the counted position.
            rows = lcum[
                position[live_sel], np.arange(live_sel.size, dtype=np.int64), :
            ]
            counted = (rows <= offsets[live_sel][:, None]).sum(axis=1)
            at = np.minimum(counted, np.maximum(live_deg - 1, 0))
            children[live_sel] = live_nb[
                np.arange(live_sel.size, dtype=np.int64), at
            ]
        self.instrumentation.count("batched_child_draws", verts.size)
        return program.cand_sub[chosen], children

    def _invert_children(
        self,
        gathered: np.ndarray,
        slots: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        thresholds: np.ndarray,
    ) -> np.ndarray:
        """Per-sample bisection over gathered rows: the child endpoint.

        Finds, per sample, the first position in the adjacency segment
        ``[starts+1, ends+1)`` of its gathered row whose running sum
        exceeds the integer threshold — ``O(n · log Δ)`` full-array
        passes instead of the ``O(Σ deg)`` flattened sweep, with every
        comparison exact in int64.  The clamp keeps the midpoint in
        bounds for already-converged lanes; the final clamp mirrors the
        scalar ``min(position, d - 1)`` guard.
        """
        lo = starts + 1
        hi = ends + 1
        limit = gathered.shape[1] - 1
        active = lo < hi
        while active.any():
            mid = np.minimum((lo + hi) >> 1, limit)
            below = gathered[slots, mid] <= thresholds
            lo = np.where(active & below, mid + 1, lo)
            hi = np.where(active & ~below, mid, hi)
            active = lo < hi
        positions = np.minimum(lo - starts - 1, ends - starts - 1)
        return self._gath_graph.indices[starts + positions]

    def _live_segments(
        self,
        program: DescentProgram,
        second_gk: np.ndarray,
        verts: np.ndarray,
        live_sel: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact per-segment running sums for dirty-vertex lanes.

        For each live lane the per-candidate gathered values are
        recomputed directly from the *current* graph and table — the
        same ``cumsum(counts[neighbors])`` the scalar recursion evaluates —
        so decisions on these lanes match a freshly built urn exactly.
        Returns ``(lcum, neighbors, degrees)``: an ``(Lmax, live, dmax)``
        int64 running-sum tensor (padded lanes repeat the final total,
        so endpoint reads and threshold counts are unaffected up to the
        degree clamp), the padded ``(live, dmax)`` neighbor matrix, and
        the live vertices' current degrees.
        """
        graph = self.graph
        lv = verts[live_sel]
        lstart = graph.indptr[lv]
        ldeg = (graph.indptr[lv + 1] - lstart).astype(np.int64)
        lmax = second_gk.shape[0]
        count = int(live_sel.size)
        dmax = int(ldeg.max()) if count else 0
        if dmax == 0:
            return (
                np.zeros((lmax, count, 1), dtype=np.int64),
                np.zeros((count, 1), dtype=np.int64),
                ldeg,
            )
        lane = np.arange(dmax, dtype=np.int64)[None, :]
        pad = np.minimum(lane, np.maximum(ldeg - 1, 0)[:, None])
        neighbors = graph.indices[lstart[:, None] + pad]
        valid = lane < ldeg[:, None]
        gks = second_gk[:, live_sel]
        sizes = program.gk_size[gks]
        rows = program.gk_row[gks]
        vals = np.zeros((lmax, count, dmax), dtype=np.float64)
        nb3 = np.broadcast_to(neighbors[None, :, :], vals.shape)
        rr3 = np.broadcast_to(rows[:, :, None], vals.shape)
        for size in np.unique(sizes):
            sel = sizes == size
            vals[sel] = self.table.layer(int(size)).pairs_at(
                rr3[sel], nb3[sel]
            )
        vals[:, ~valid] = 0.0
        return (
            np.cumsum(vals.astype(np.int64), axis=2),
            neighbors,
            ldeg,
        )
