"""Shared pieces of the three workloads: results, statistics, memory."""

from __future__ import annotations

import math
import os
import resource
import sys
import traceback
from dataclasses import dataclass, field

from checks import Checks


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: Checks = field(default_factory=Checks)
    spans: object = None

    def fail(self, what: str) -> None:
        """Count one failed operation, keeping its traceback on stderr."""
        self.failed += 1
        print(f"perfbench: {what} failed", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


#: A graphlet counts as found once AGS has sampled it this many times.
#: Whether a graphlet expected once or twice turns up at all is a coin
#: toss: over eleven seeds the "seen at least once" count of
#: count_er50k_k7 spread by a third of its median, and the "three
#: times" count by 0.09-0.15, with naive sampling matching AGS there.
#: At ten hits AGS reads 11 (every seven-vertex tree) on that workload
#: while naive sampling, which never switches shape, reads 10 on every
#: seed tried, so an AGS that stopped switching would show.
FOUND_MIN_HITS = 10


def graphlets_found(hits: dict) -> int:
    """Graphlets sampled at least ``FOUND_MIN_HITS`` times."""
    return sum(1 for count in hits.values() if count >= FOUND_MIN_HITS)


def median(values) -> float:
    values = sorted(values)
    if not values:
        return float("nan")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    values = sorted(values)
    if not values:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return float(values[rank - 1])


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb(children: bool, own: bool = True) -> float:
    """Peak resident set in MiB of this process and/or its waited children."""
    peaks = []
    if own:
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if children:
        peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return max(peaks) / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def load_graph(edges, n: int):
    """The graph layer's load path: CSR from an edge array, plus the
    scipy adjacency every build reads."""
    from repro.graph.graph import Graph

    graph = Graph.from_edges(edges, n=n)
    graph.adjacency_csr()
    return graph


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total
