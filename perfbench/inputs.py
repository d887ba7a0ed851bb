"""Workload inputs, generated by the benchmark from its workload seed.

The program under test only ever sees the arrays made here: edge lists
fed to ``Graph.from_edges`` and single-edge update streams.  Nothing
here calls the program's own generators, so a change to them cannot
change what the benchmark measures.
"""

from __future__ import annotations

import numpy as np


def child_rng(seed: int, tag: str) -> np.random.Generator:
    """An independent generator per (workload seed, purpose)."""
    salt = int.from_bytes(tag.encode("utf-8"), "little")
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def child_seed(seed: int, tag: str) -> int:
    return int(child_rng(seed, tag).integers(2**31 - 1))


def _distinct_pairs(n: int, m: int, draw, rng) -> np.ndarray:
    """``m`` distinct ``u < v`` pairs packed as ``u * n + v``, sorted."""
    packed = np.zeros(0, dtype=np.int64)
    while packed.size < m:
        ends = draw(2 * (m - packed.size) + 16)
        lo = np.minimum(ends[:, 0], ends[:, 1])
        hi = np.maximum(ends[:, 0], ends[:, 1])
        keep = lo != hi
        packed = np.unique(np.concatenate([packed, lo[keep] * n + hi[keep]]))
    if packed.size > m:
        packed = np.sort(rng.choice(packed, size=m, replace=False))
    return packed


def erdos_renyi_edges(n: int, m: int, rng) -> np.ndarray:
    """G(n, m): ``m`` distinct uniform edges as an ``(m, 2)`` array."""
    packed = _distinct_pairs(
        n, m, lambda size: rng.integers(0, n, size=(size, 2)), rng
    )
    return np.stack([packed // n, packed % n], axis=1)


def chung_lu_edges(n: int, m: int, exponent: float, rng) -> np.ndarray:
    """``m`` distinct edges with Chung-Lu power-law endpoint weights.

    Vertex ``i`` has weight ``(i + 1) ** (-1 / (exponent - 1))``, so the
    degree tail follows ``P(deg > d) ~ d ** (1 - exponent)`` and vertex
    0 is the largest hub.
    """
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (exponent - 1.0))
    cumulative = np.cumsum(weights / weights.sum())
    cumulative[-1] = 1.0

    def draw(size):
        return np.searchsorted(cumulative, rng.random((size, 2))).astype(np.int64)

    packed = _distinct_pairs(n, m, draw, rng)
    return np.stack([packed // n, packed % n], axis=1)


def update_stream(edges: np.ndarray, n: int, count: int, rng,
                  hubs: np.ndarray = None) -> list:
    """``count`` single-edge updates ``(op, u, v)``, alternating insert
    (``op=1``, a non-edge) and delete (``op=-1``, an existing edge).

    Every edge appears at most once in the stream, so any subset of it
    applies to the same final graph in every order.  With ``hubs``
    given, updates ``0, 1`` of every four touch a hub vertex and
    updates ``2, 3`` touch none, so half of the stream lands on hubs.
    """
    existing = set(map(tuple, edges.tolist()))
    hub_set = set() if hubs is None else set(int(h) for h in hubs)
    by_hub = {}
    if hub_set:
        for u, v in edges.tolist():
            for end in (u, v):
                if end in hub_set:
                    by_hub.setdefault(end, []).append((u, v))
    used = set()
    stream = []
    while len(stream) < count:
        index = len(stream)
        insert = index % 2 == 0
        on_hub = bool(hub_set) and index % 4 < 2
        if on_hub:
            hub = int(rng.choice(sorted(hub_set)))
            if insert:
                other = int(rng.integers(n))
                pair = (min(hub, other), max(hub, other))
            else:
                options = by_hub[hub]
                pair = options[int(rng.integers(len(options)))]
        elif insert:
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            pair = (min(u, v), max(u, v))
        else:
            pair = tuple(edges[int(rng.integers(len(edges)))].tolist())
        u, v = pair
        if u == v or pair in used or (pair in existing) != (not insert):
            continue
        if not on_hub and (u in hub_set or v in hub_set):
            continue
        used.add(pair)
        stream.append((1 if insert else -1, u, v))
    return stream


def apply_stream(edges: np.ndarray, updates: list) -> np.ndarray:
    """The edge list after ``updates`` (the benchmark's own reference)."""
    current = set(map(tuple, edges.tolist()))
    for op, u, v in updates:
        pair = (min(u, v), max(u, v))
        if op > 0:
            current.add(pair)
        else:
            current.discard(pair)
    return np.array(sorted(current), dtype=np.int64).reshape(-1, 2)
