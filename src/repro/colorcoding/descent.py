"""Compiled descent plans for the batched sampling engine.

Materializing a treelet copy (§2.2) recurses over the *unique*
decomposition ``T → (T', T'')``: choose a color split and a child
endpoint, then recurse on both parts.  The recursion's **shape** is fully
determined by the rooted treelet ``T`` — only the chosen color masks and
vertices are random — so the whole control flow can be compiled once per
treelet into a flat *descent plan* and replayed over any number of
samples at once.  This module is the sampling-phase counterpart of the
build-up's combination plans (:mod:`repro.colorcoding.plans`).

A plan is the decomposition tree of ``T`` flattened in DFS pre-order:

* every node of the tree becomes a :class:`DescentNode`, parents before
  children, left (``T'``) subtree before right (``T''``);
* internal nodes (a merge of ``T'`` at the root vertex with ``T''`` at a
  child vertex) carry their *pre-order rank* among internal nodes — a
  ``k``-leaf decomposition tree always has exactly ``k - 1`` of them;
* leaves (singletons) carry the output column their vertex occupies in
  the DFS vertex order the scalar recursion produces (``left + right``
  concatenation).

The rank is what anchors the fixed-width uniform-matrix draw discipline
(see :meth:`repro.colorcoding.urn.TreeletUrn.sample_batch`): internal
node of rank ``r`` reads its split variate from matrix column
``3 + 2r`` and its child variate from ``4 + 2r``, in both the batched
descent and the scalar reference recursion — the recursion consumes
uniforms in exactly pre-order, so sequential reads land on the same
slots by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.treelets.encoding import SINGLETON, getsize
from repro.treelets.registry import TreeletRegistry
from repro.util.bitops import iter_subsets_of_size

__all__ = [
    "DescentNode",
    "DescentPlan",
    "DescentProgram",
    "PLAN_FORMAT_VERSION",
    "compile_descent",
    "compile_program",
    "table_keys_digest",
]

#: On-disk format version of serialized descent programs (the artifact
#: plan blob).  Bump on any incompatible change to :meth:`DescentProgram.
#: to_arrays`; readers reject versions they do not know.
PLAN_FORMAT_VERSION = 1

#: Largest k for which the program keeps dense ``(op, mask)`` group
#: lookup tables (size ``num_ops · 2^k``).  Beyond it the sparse sorted
#: group index answers lookups by binary search instead, so memory stays
#: bounded for any k.
DENSE_GROUP_MAX_K = 8


@dataclass(frozen=True)
class DescentNode:
    """One node of a flattened decomposition tree.

    Attributes
    ----------
    treelet:
        Rooted treelet encoding at this node (``SINGLETON`` for leaves).
    t_prime, t_second:
        The unique decomposition parts (``None`` on leaves).
    rank:
        Pre-order rank among *internal* nodes; drives uniform-slot
        assignment.  ``None`` on leaves.
    left, right:
        Plan indices of the ``T'`` / ``T''`` subtree roots (``None`` on
        leaves).
    leaf_column:
        Output column of this leaf's vertex in the DFS vertex order
        (``None`` on internal nodes).
    """

    treelet: int
    t_prime: Optional[int] = None
    t_second: Optional[int] = None
    rank: Optional[int] = None
    left: Optional[int] = None
    right: Optional[int] = None
    leaf_column: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        """Whether this node is a singleton (no draws, emits a vertex)."""
        return self.treelet == SINGLETON


@dataclass(frozen=True)
class DescentPlan:
    """A rooted treelet's decomposition tree, flattened in pre-order.

    ``nodes[0]`` is the root; iterating in index order visits parents
    before children, so a level-free single pass can propagate
    ``(mask, vertex)`` states downward.
    """

    treelet: int
    nodes: Tuple[DescentNode, ...]
    num_internal: int
    num_leaves: int

    def __len__(self) -> int:
        return len(self.nodes)


def compile_descent(registry: TreeletRegistry, treelet: int) -> DescentPlan:
    """Flatten the decomposition tree of ``treelet`` into a descent plan.

    The plan is a pure function of the registry's decompositions; callers
    (the urn) cache plans per rooted treelet.
    """
    nodes: List[Optional[DescentNode]] = []
    counters = {"rank": 0, "leaf": 0}

    def walk(t: int) -> int:
        index = len(nodes)
        nodes.append(None)  # reserve the pre-order slot
        if t == SINGLETON:
            nodes[index] = DescentNode(
                treelet=t, leaf_column=counters["leaf"]
            )
            counters["leaf"] += 1
            return index
        t_prime, t_second, _beta = registry.decomposition(t)
        rank = counters["rank"]
        counters["rank"] += 1
        left = walk(t_prime)
        right = walk(t_second)
        nodes[index] = DescentNode(
            treelet=t,
            t_prime=t_prime,
            t_second=t_second,
            rank=rank,
            left=left,
            right=right,
        )
        return index

    walk(treelet)
    assert counters["leaf"] == getsize(treelet)
    assert counters["rank"] == getsize(treelet) - 1
    return DescentPlan(
        treelet=treelet,
        nodes=tuple(nodes),
        num_internal=counters["rank"],
        num_leaves=counters["leaf"],
    )


def table_keys_digest(table) -> str:
    """Content hash of a count table's key universe, as ``sha256:<hex>``.

    A compiled :class:`DescentProgram` refers to table rows by index, so
    it is valid exactly for tables whose per-layer sorted key lists match
    the ones it was compiled against.  This digest is that identity: the
    sorted ``(treelet, mask)`` arrays of every layer, hashed in size
    order.  Artifact loading recomputes it and fails loud on mismatch.
    """
    digest = hashlib.sha256()
    for size in range(1, table.k + 1):
        keys = table.layer(size).keys
        arr = (
            np.ascontiguousarray(np.asarray(keys, dtype=np.int64))
            if keys
            else np.zeros((0, 2), dtype=np.int64)
        )
        digest.update(np.int64(size).tobytes())
        digest.update(np.int64(arr.shape[0]).tobytes())
        digest.update(arr.tobytes())
    return "sha256:" + digest.hexdigest()


@dataclass
class DescentProgram:
    """The whole sampling-phase control flow, compiled to flat arrays.

    Where :class:`DescentPlan` flattens one treelet's decomposition tree,
    the program fuses *every* plan the table can ever need — node tables,
    resolved split candidates per ``(T', T'', mask)`` state, and the
    table of ``(layer size, row)`` keys whose gathered-cumulative rows
    the kernel gathers — into index arrays the batched descent replays
    without touching a Python dict or compiling anything at runtime.
    It is a pure function of ``(registry, table key universe)``:
    deterministic, serializable (:meth:`to_arrays`), and cached inside
    table artifacts so reopened tables skip compilation entirely.

    Array layout
    ------------
    ``node_*``
        The global node table: every root treelet's plan flattened
        back-to-back in pre-order (``root_treelets``/``root_bases`` map a
        treelet to its plan root's node id).  ``node_op`` indexes the
        deduplicated ``(T', T'')`` decomposition table ``op_*``.
    ``grp_ids / grp_start / grp_len``
        Split groups keyed by ``gid = op << k | mask``, sorted by gid.
        ``grp_len == 0`` marks a state whose key universe realizes no
        candidate (reaching it at runtime is a table inconsistency).
        For ``k <= DENSE_GROUP_MAX_K`` a dense gid-indexed lookup table
        is derived at construction (the k≤8 fast path); larger k fall
        back to binary search on ``grp_ids``.
    ``cand_*``
        Flat per-candidate arrays in ``iter_subsets_of_size`` order:
        the chosen ``C''`` submask, the row of ``T'_{C\\C''}`` in its
        layer, and the gathered-key id of ``T''_{C''}``.
    ``gk_size / gk_row``
        The gathered-key table: distinct ``(layer size, row)`` pairs the
        candidates reference — the unit of the urn's gathered-cumulative
        row cache.
    """

    k: int
    table_digest: str
    layer_num_keys: np.ndarray
    node_is_leaf: np.ndarray
    node_leaf_col: np.ndarray
    node_rank: np.ndarray
    node_op: np.ndarray
    node_left: np.ndarray
    node_right: np.ndarray
    root_treelets: np.ndarray
    root_bases: np.ndarray
    op_t_prime: np.ndarray
    op_t_second: np.ndarray
    op_prime_size: np.ndarray
    op_second_size: np.ndarray
    grp_ids: np.ndarray
    grp_start: np.ndarray
    grp_len: np.ndarray
    cand_sub: np.ndarray
    cand_prime_row: np.ndarray
    cand_second_gkid: np.ndarray
    gk_size: np.ndarray
    gk_row: np.ndarray
    _dense_start: Optional[np.ndarray] = field(
        init=False, repr=False, default=None
    )
    _dense_len: Optional[np.ndarray] = field(
        init=False, repr=False, default=None
    )

    def __post_init__(self) -> None:
        if self.k <= DENSE_GROUP_MAX_K and self.op_t_prime.size:
            size = int(self.op_t_prime.size) << self.k
            dense_start = np.zeros(size, dtype=np.int64)
            dense_len = np.full(size, -1, dtype=np.int64)
            dense_start[self.grp_ids] = self.grp_start
            dense_len[self.grp_ids] = self.grp_len
            self._dense_start = dense_start
            self._dense_len = dense_len

    @property
    def num_nodes(self) -> int:
        return int(self.node_is_leaf.size)

    @property
    def num_ops(self) -> int:
        return int(self.op_t_prime.size)

    @property
    def num_gathered_keys(self) -> int:
        """Rows of the gathered-key table (the row-cache universe)."""
        return int(self.gk_size.size)

    # -- runtime lookups --------------------------------------------------

    def plan_root_ids(self, treelets: np.ndarray) -> np.ndarray:
        """Node ids of each treelet's plan root (vectorized).

        Raises :class:`ValueError` when any treelet has no compiled plan
        — the program then does not belong to this table.
        """
        if self.root_treelets.size == 0:
            raise ValueError("descent program has no compiled plans")
        pos = np.searchsorted(self.root_treelets, treelets)
        clipped = np.minimum(pos, self.root_treelets.size - 1)
        matches = self.root_treelets[clipped] == treelets
        if not np.all(matches):
            bad = int(np.asarray(treelets)[np.argmax(~matches)])
            raise ValueError(f"no compiled descent plan for treelet {bad}")
        return self.root_bases[clipped]

    def group_bounds(
        self, gids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate bounds ``(start, length)`` per group id.

        ``length == -1`` marks a gid the compiler never reached (which a
        consistent table can never produce at runtime); ``length == 0``
        a reached state with no realized candidate.
        """
        if self._dense_len is not None:
            return self._dense_start[gids], self._dense_len[gids]
        if self.grp_ids.size == 0:
            return (
                np.zeros(np.shape(gids), dtype=np.int64),
                np.full(np.shape(gids), -1, dtype=np.int64),
            )
        pos = np.searchsorted(self.grp_ids, gids)
        clipped = np.minimum(pos, self.grp_ids.size - 1)
        found = self.grp_ids[clipped] == gids
        return (
            self.grp_start[clipped],
            np.where(found, self.grp_len[clipped], np.int64(-1)),
        )

    # -- validation and serialization -------------------------------------

    def validate_for(self, table, digest: Optional[str] = None) -> None:
        """Check this program belongs to ``table`` (raise ValueError).

        The cheap structural check (k and per-layer key counts) always
        runs; pass ``digest=table_keys_digest(table)`` to additionally
        pin the exact key universe — the artifact-open path does, so a
        stale cached plan fails loud instead of sampling garbage.
        """
        if table.k != self.k:
            raise ValueError(
                f"program compiled for k={self.k}, table has k={table.k}"
            )
        for size in range(1, self.k + 1):
            expected = int(self.layer_num_keys[size - 1])
            actual = table.layer(size).num_keys
            if actual != expected:
                raise ValueError(
                    f"layer {size} has {actual} keys, program expects "
                    f"{expected}"
                )
        if digest is not None and digest != self.table_digest:
            raise ValueError(
                "table key universe does not match the program "
                f"(digest {digest} != {self.table_digest})"
            )

    def _check_structure(self) -> None:
        """Internal-consistency bounds checks (raise ValueError)."""
        num_nodes = self.num_nodes
        num_cands = int(self.cand_sub.size)
        if self.layer_num_keys.shape != (self.k,):
            raise ValueError("layer_num_keys must have one entry per size")
        node_arrays = (
            self.node_leaf_col, self.node_rank, self.node_op,
            self.node_left, self.node_right,
        )
        if any(a.shape != (num_nodes,) for a in node_arrays):
            raise ValueError("node arrays disagree on length")
        internal = ~self.node_is_leaf
        if internal.any():
            children = np.concatenate(
                [self.node_left[internal], self.node_right[internal]]
            )
            if children.min() < 0 or children.max() >= num_nodes:
                raise ValueError("node children out of range")
            if (
                self.node_op[internal].min() < 0
                or self.node_op[internal].max() >= self.num_ops
            ):
                raise ValueError("node ops out of range")
        if self.root_bases.shape != self.root_treelets.shape:
            raise ValueError("root arrays disagree on length")
        if self.root_treelets.size:
            if np.any(np.diff(self.root_treelets) <= 0):
                raise ValueError("root treelets must be sorted and unique")
            if self.root_bases.min() < 0 or self.root_bases.max() >= num_nodes:
                raise ValueError("root bases out of range")
        if (
            self.grp_start.shape != self.grp_ids.shape
            or self.grp_len.shape != self.grp_ids.shape
        ):
            raise ValueError("group arrays disagree on length")
        if self.grp_ids.size:
            if np.any(np.diff(self.grp_ids) <= 0):
                raise ValueError("group ids must be sorted and unique")
            if self.grp_len.min() < 0 or self.grp_start.min() < 0:
                raise ValueError("group bounds out of range")
            if int((self.grp_start + self.grp_len).max()) > num_cands:
                raise ValueError("group bounds exceed the candidate table")
        if (
            self.cand_prime_row.shape != self.cand_sub.shape
            or self.cand_second_gkid.shape != self.cand_sub.shape
        ):
            raise ValueError("candidate arrays disagree on length")
        if self.gk_row.shape != self.gk_size.shape:
            raise ValueError("gathered-key arrays disagree on length")
        if self.gk_size.size:
            if self.gk_size.min() < 1 or self.gk_size.max() > self.k:
                raise ValueError("gathered-key sizes out of range")
            if np.any(
                (self.gk_row < 0)
                | (self.gk_row >= self.layer_num_keys[self.gk_size - 1])
            ):
                raise ValueError("gathered-key rows out of range")
        if num_cands:
            if (
                self.cand_second_gkid.min() < 0
                or self.cand_second_gkid.max() >= self.num_gathered_keys
            ):
                raise ValueError("candidate gathered keys out of range")
            cand_op = np.repeat(self.grp_ids >> self.k, self.grp_len)
            limits = self.layer_num_keys[self.op_prime_size[cand_op] - 1]
            if np.any(
                (self.cand_prime_row < 0) | (self.cand_prime_row >= limits)
            ):
                raise ValueError("candidate prime rows out of range")

    _ARRAY_FIELDS = (
        ("layer_num_keys", np.int64),
        ("node_is_leaf", np.bool_),
        ("node_leaf_col", np.int64),
        ("node_rank", np.int64),
        ("node_op", np.int64),
        ("node_left", np.int64),
        ("node_right", np.int64),
        ("root_treelets", np.int64),
        ("root_bases", np.int64),
        ("op_t_prime", np.int64),
        ("op_t_second", np.int64),
        ("op_prime_size", np.int64),
        ("op_second_size", np.int64),
        ("grp_ids", np.int64),
        ("grp_start", np.int64),
        ("grp_len", np.int64),
        ("cand_sub", np.int64),
        ("cand_prime_row", np.int64),
        ("cand_second_gkid", np.int64),
        ("gk_size", np.int64),
        ("gk_row", np.int64),
    )

    def to_arrays(self) -> "dict[str, np.ndarray]":
        """Serialize to plain arrays (the artifact plan-blob payload)."""
        out: "dict[str, np.ndarray]" = {
            "plan_format_version": np.int64(PLAN_FORMAT_VERSION),
            "k": np.int64(self.k),
            "table_digest": np.str_(self.table_digest),
        }
        for name, _dtype in self._ARRAY_FIELDS:
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_arrays(cls, data) -> "DescentProgram":
        """Rebuild from :meth:`to_arrays` output (raise ValueError).

        Rejects unknown format versions and structurally inconsistent
        (corrupted) blobs before any index array can be dereferenced.
        """
        try:
            version = int(data["plan_format_version"])
        except KeyError:
            raise ValueError("descent plan blob has no format version")
        if version != PLAN_FORMAT_VERSION:
            raise ValueError(
                f"unsupported descent plan format version {version} "
                f"(this reader supports {PLAN_FORMAT_VERSION})"
            )
        try:
            kwargs = {
                name: np.ascontiguousarray(np.asarray(data[name], dtype))
                for name, dtype in cls._ARRAY_FIELDS
            }
            program = cls(
                k=int(data["k"]),
                table_digest=str(data["table_digest"]),
                **kwargs,
            )
        except KeyError as exc:
            raise ValueError(f"descent plan blob is missing {exc}")
        program._check_structure()
        return program


def compile_program(registry: TreeletRegistry, table) -> DescentProgram:
    """Compile the table's full descent program (see DescentProgram).

    Eager where the old per-batch caches were lazy: every rooted treelet
    of the size-k layer gets its plan flattened into the node table, and
    a DFS over ``(treelet, mask)`` states starting from all size-k keys
    enumerates every split group any descent can ever reach — runtime
    states are a subset by construction, so sampling never compiles.
    Insertion orders are deterministic (sorted roots, sorted key lists,
    ``iter_subsets_of_size`` candidate order), so two compilations of the
    same table are array-identical.
    """
    k = table.k
    full_keys = list(table.layer(k).keys)
    root_list = sorted({treelet for treelet, _mask in full_keys})
    node_rows: List[Tuple[bool, int, int, int, int, int]] = []
    ops: List[Tuple[int, int]] = []
    op_index: Dict[Tuple[int, int], int] = {}
    root_bases: List[int] = []
    for treelet in root_list:
        plan = compile_descent(registry, treelet)
        base = len(node_rows)
        root_bases.append(base)
        for node in plan.nodes:
            if node.is_leaf:
                node_rows.append((True, node.leaf_column, 0, 0, 0, 0))
                continue
            op_key = (node.t_prime, node.t_second)
            op = op_index.get(op_key)
            if op is None:
                op = len(ops)
                ops.append(op_key)
                op_index[op_key] = op
            node_rows.append(
                (False, 0, node.rank, op, base + node.left, base + node.right)
            )

    layers = {size: table.layer(size) for size in range(1, k + 1)}
    gk_index: Dict[Tuple[int, int], int] = {}
    gk_keys: List[Tuple[int, int]] = []
    groups: Dict[int, Tuple[List[int], List[int], List[int]]] = {}
    seen = set()
    stack = list(full_keys)
    while stack:
        treelet, mask = stack.pop()
        if treelet == SINGLETON or (treelet, mask) in seen:
            continue
        seen.add((treelet, mask))
        t_prime, t_second, _beta = registry.decomposition(treelet)
        op = op_index[(t_prime, t_second)]
        h_second = getsize(t_second)
        layer_prime = layers[getsize(t_prime)]
        layer_second = layers[h_second]
        subs: List[int] = []
        prime_rows: List[int] = []
        second_gks: List[int] = []
        for sub in iter_subsets_of_size(mask, h_second):
            row_second = layer_second.row_of(t_second, sub)
            if row_second is None:
                continue
            row_prime = layer_prime.row_of(t_prime, mask ^ sub)
            if row_prime is None:
                continue
            gk_key = (h_second, row_second)
            gk = gk_index.get(gk_key)
            if gk is None:
                gk = len(gk_keys)
                gk_index[gk_key] = gk
                gk_keys.append(gk_key)
            subs.append(sub)
            prime_rows.append(row_prime)
            second_gks.append(gk)
            stack.append((t_prime, mask ^ sub))
            stack.append((t_second, sub))
        groups[op << k | mask] = (subs, prime_rows, second_gks)

    sorted_gids = sorted(groups)
    grp_ids = np.asarray(sorted_gids, dtype=np.int64)
    grp_start = np.zeros(grp_ids.size, dtype=np.int64)
    grp_len = np.zeros(grp_ids.size, dtype=np.int64)
    cand_sub: List[int] = []
    cand_prime_row: List[int] = []
    cand_second_gkid: List[int] = []
    for i, gid in enumerate(sorted_gids):
        subs, prime_rows, second_gks = groups[gid]
        grp_start[i] = len(cand_sub)
        grp_len[i] = len(subs)
        cand_sub.extend(subs)
        cand_prime_row.extend(prime_rows)
        cand_second_gkid.extend(second_gks)

    return DescentProgram(
        k=k,
        table_digest=table_keys_digest(table),
        layer_num_keys=np.asarray(
            [layers[size].num_keys for size in range(1, k + 1)],
            dtype=np.int64,
        ),
        node_is_leaf=np.asarray([r[0] for r in node_rows], dtype=np.bool_),
        node_leaf_col=np.asarray([r[1] for r in node_rows], dtype=np.int64),
        node_rank=np.asarray([r[2] for r in node_rows], dtype=np.int64),
        node_op=np.asarray([r[3] for r in node_rows], dtype=np.int64),
        node_left=np.asarray([r[4] for r in node_rows], dtype=np.int64),
        node_right=np.asarray([r[5] for r in node_rows], dtype=np.int64),
        root_treelets=np.asarray(root_list, dtype=np.int64),
        root_bases=np.asarray(root_bases, dtype=np.int64),
        op_t_prime=np.asarray([op[0] for op in ops], dtype=np.int64),
        op_t_second=np.asarray([op[1] for op in ops], dtype=np.int64),
        op_prime_size=np.asarray(
            [getsize(op[0]) for op in ops], dtype=np.int64
        ),
        op_second_size=np.asarray(
            [getsize(op[1]) for op in ops], dtype=np.int64
        ),
        grp_ids=grp_ids,
        grp_start=grp_start,
        grp_len=grp_len,
        cand_sub=np.asarray(cand_sub, dtype=np.int64),
        cand_prime_row=np.asarray(cand_prime_row, dtype=np.int64),
        cand_second_gkid=np.asarray(cand_second_gkid, dtype=np.int64),
        gk_size=np.asarray([g[0] for g in gk_keys], dtype=np.int64),
        gk_row=np.asarray([g[1] for g in gk_keys], dtype=np.int64),
    )
