"""Work counters of the three build drivers, pinned to exact values.

The in-memory build, the sharded build and the incremental maintainer
run one shared level kernel (:mod:`repro.colorcoding.level`) over
different column sets and source readers.  Bit-identity tests prove the
tables agree; these pins prove the *work* does not drift: one fixed
graph and coloring per case, and the exact ``spmm_ops``, ``merge_ops``
and ``fallback_levels`` each driver records, plus ``shard_tasks``
(sharded) and ``delta_rows_touched`` (incremental).

Cases: a uniform coloring with and without 0-rooting (full levels and
the zero-rooted level) and a coloring missing colors 1 and 3 (every
level takes the resolving fallback).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.colorcoding.buildup import build_table
from repro.colorcoding.coloring import ColoringScheme
from repro.colorcoding.incremental import apply_edge_updates
from repro.colorcoding.sharded import build_table_sharded
from repro.graph.generators import erdos_renyi
from repro.table.layer_store import ShardedStore
from repro.util.instrument import Instrumentation

N, K = 40, 5

#: (coloring, zero_rooting) → driver → expected counters.
PINS = {
    ("uniform", True): {
        "memory": {"spmm_ops": 4, "merge_ops": 210, "fallback_levels": 0},
        "sharded": {
            "spmm_ops": 24, "merge_ops": 630, "fallback_levels": 0,
            "shard_tasks": 12,
        },
        "incremental": {
            "spmm_ops": 8, "merge_ops": 210, "fallback_levels": 0,
            "delta_rows_touched": 97,
        },
    },
    ("uniform", False): {
        "memory": {"spmm_ops": 4, "merge_ops": 210, "fallback_levels": 0},
        "sharded": {
            "spmm_ops": 24, "merge_ops": 630, "fallback_levels": 0,
            "shard_tasks": 12,
        },
        "incremental": {
            "spmm_ops": 8, "merge_ops": 210, "fallback_levels": 0,
            "delta_rows_touched": 97,
        },
    },
    ("missing", True): {
        "memory": {"spmm_ops": 4, "merge_ops": 12, "fallback_levels": 4},
        "sharded": {
            "spmm_ops": 24, "merge_ops": 36, "fallback_levels": 4,
            "shard_tasks": 12,
        },
        "incremental": {
            "spmm_ops": 8, "merge_ops": 12, "fallback_levels": 4,
            "delta_rows_touched": 97,
        },
    },
}


def _case_id(case) -> str:
    kind, zero_rooting = case
    return f"{kind}-{'zero' if zero_rooting else 'plain'}"


def _graph():
    return erdos_renyi(N, 110, rng=5)


def _coloring(kind: str) -> ColoringScheme:
    if kind == "uniform":
        return ColoringScheme.uniform(N, K, rng=6)
    colors = np.zeros(N, dtype=np.int64)
    colors[::2] = 2
    colors[1::4] = 4  # colors 1 and 3 never occur
    return ColoringScheme.fixed(colors, K)


def _counters(instrumentation: Instrumentation, expected: dict) -> dict:
    return {name: instrumentation.counters.get(name, 0) for name in expected}


@pytest.mark.parametrize("case", sorted(PINS), ids=_case_id)
def test_in_memory_build(case):
    kind, zero_rooting = case
    instrumentation = Instrumentation()
    build_table(
        _graph(), _coloring(kind), zero_rooting=zero_rooting,
        instrumentation=instrumentation,
    )
    expected = PINS[case]["memory"]
    assert _counters(instrumentation, expected) == expected


@pytest.mark.parametrize("case", sorted(PINS), ids=_case_id)
def test_sharded_build(case, tmp_path):
    kind, zero_rooting = case
    instrumentation = Instrumentation()
    store = ShardedStore(3, str(tmp_path / "shards"), owns_directory=True)
    build_table_sharded(
        _graph(), _coloring(kind), zero_rooting=zero_rooting, store=store,
        instrumentation=instrumentation,
    )
    store.close()
    expected = PINS[case]["sharded"]
    assert _counters(instrumentation, expected) == expected


@pytest.mark.parametrize("case", sorted(PINS), ids=_case_id)
def test_incremental_update(case):
    kind, zero_rooting = case
    graph, coloring = _graph(), _coloring(kind)
    table = build_table(graph, coloring, zero_rooting=zero_rooting)
    instrumentation = Instrumentation()
    result = apply_edge_updates(
        table, graph, [("+", 0, 2), ("-", 0, 1)], coloring,
        instrumentation=instrumentation,
    )
    assert result.updates_applied == 2
    expected = PINS[case]["incremental"]
    assert _counters(instrumentation, expected) == expected
