"""Output checks that hold by construction, run on every benchmark run.

None of them compares against numbers stored from an earlier run or
another machine, and none runs the program's correctness oracles.  Each
returns a list of problems (empty when the output is right); the
caller records them, and any problem makes the run fail.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

#: Graphlets holding at least this share of the naive estimate mass
#: must get an AGS estimate within AGREEMENT_TOLERANCE of the naive one.
AGREEMENT_SHARE = 0.10
#: Relative naive/AGS disagreement allowed on those graphlets.  Sizing
#: runs saw at most 6%; the margin keeps a correct run from failing on
#: sampling noise while a wrong estimator still does.
AGREEMENT_TOLERANCE = 0.30


class Checks:
    """Collects problems from every check made during one run."""

    def __init__(self):
        self.problems = []

    def add(self, problems, context: str) -> None:
        for problem in problems:
            self.problems.append(f"{context}: {problem}")

    @property
    def ok(self) -> bool:
        return not self.problems


def graphlet_code_problem(bits: int, k: int):
    """Why ``bits`` is not a canonical connected k-graphlet code, or None."""
    from repro.graphlets.canonical import canonical_form
    from repro.graphlets.encoding import is_connected_graphlet

    pairs = k * (k - 1) // 2
    if not 0 <= bits < (1 << pairs):
        return f"code {bits:#x} is outside the {pairs}-bit pair range"
    if not is_connected_graphlet(bits, k):
        return f"code {bits:#x} is not a connected {k}-vertex graphlet"
    if canonical_form(bits, k) != bits:
        return f"code {bits:#x} is not in canonical form"
    return None


def estimate_problems(counts: dict, k: int, known_codes: set = None) -> list:
    """Estimates are finite and non-negative, over valid graphlet codes.

    ``known_codes`` caches codes already shown valid across calls.
    """
    problems = []
    if not counts:
        problems.append("no graphlet was estimated")
    for bits, value in counts.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
            problems.append(f"estimate {value!r} for {bits:#x} is not finite and >= 0")
        if known_codes is not None and bits in known_codes:
            continue
        problem = graphlet_code_problem(int(bits), k)
        if problem:
            problems.append(problem)
        elif known_codes is not None:
            known_codes.add(bits)
    return problems


def hits_problems(hits: dict, samples: int) -> list:
    total = sum(hits.values())
    if total != samples:
        return [f"hits sum to {total}, the sample budget is {samples}"]
    return []


def agreement_problems(naive: dict, ags: dict) -> list:
    """Naive and AGS agree on the graphlets holding most of the mass."""
    total = sum(naive.values())
    problems = []
    for bits, value in sorted(naive.items()):
        if total <= 0 or value < AGREEMENT_SHARE * total:
            continue
        other = ags.get(bits, 0.0)
        gap = abs(other - value) / value
        if gap > AGREEMENT_TOLERANCE:
            problems.append(
                f"graphlet {bits:#x}: naive {value:.6g} vs AGS {other:.6g} "
                f"({gap:.1%} apart, tolerance {AGREEMENT_TOLERANCE:.0%})"
            )
    return problems


def served_problems(payload: dict, reference) -> list:
    """A served response equals the library's answer for the same seed.

    ``reference`` is the ``GraphletEstimates`` from
    ``MotivoCounter.from_artifact(reseed=seed)``; the comparison is on
    the JSON documents, i.e. bit for bit on every float.
    """
    expected = json.loads(reference.to_json())
    problems = []
    for field in ("k", "samples", "counts", "hits"):
        if payload.get(field) != expected[field]:
            problems.append(f"served {field!r} differs from the library's answer")
    return problems


def decode_counts(payload: dict) -> "tuple[dict, dict]":
    """(counts, hits) of a served response, keyed by integer code."""
    counts = {int(key, 16): value for key, value in payload.get("counts", {}).items()}
    hits = {int(key, 16): value for key, value in payload.get("hits", {}).items()}
    return counts, hits


def table_digest(table) -> str:
    """sha256 over every layer's key list and count matrix.

    The program has no full-table digest of its own, and the benchmark
    does not import the repo's other benchmark scripts, which later
    changes may rewrite.
    """
    digest = hashlib.sha256()
    for size in range(1, table.k + 1):
        layer = table.layer(size)
        digest.update(np.int64(size).tobytes())
        digest.update(repr(list(layer.keys)).encode("utf-8"))
        digest.update(np.ascontiguousarray(layer.dense_counts(), dtype=np.float64).tobytes())
    return digest.hexdigest()


def digest_problems(served: str, rebuilt: str) -> list:
    if served != rebuilt:
        return [f"served table digest {served[:16]} != rebuilt {rebuilt[:16]}"]
    return []


def identity_problems(first: dict, second: dict, what: str) -> list:
    """Two runs of the same seeded computation gave the same estimates."""
    if first != second:
        return [f"{what}: estimates differ between two runs of one seed"]
    return []
