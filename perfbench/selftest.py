"""The benchmark's own tests.

Run from the root of a checkout::

    python3 perfbench/selftest.py

They check that the metrics ``run.py`` prints match ``BENCHMARK.json``
(names and units), and that every output check rejects a corrupted
answer: a perturbed estimate, an altered served response and an
altered table digest.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from common import Outcome  # noqa: E402
from inputs import apply_stream, child_rng, erdos_renyi_edges, update_stream  # noqa: E402
from tracing import Tracer  # noqa: E402

K = 4


def _small_graph():
    from repro.graph.graph import Graph

    edges = erdos_renyi_edges(300, 1500, child_rng(3, "graph"))
    return Graph.from_edges(edges, n=300)


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            self.spec = json.load(handle)

    def test_end_to_end_names_and_units(self):
        listed = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(listed, run.END_TO_END)

    def test_per_layer_names_and_units(self):
        listed = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(listed, run.PER_LAYER)

    def test_workloads(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)

    def test_report_prints_exactly_the_listed_metrics(self):
        for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            outcome = Outcome(attempted=4, failed=1)
            outcome.metrics = {name: 1.5 for name in names if name != "success_rate"}
            result = run.report(outcome, trace)
            self.assertTrue(result["correct"])
            self.assertEqual(
                {name: m["unit"] for name, m in result["metrics"].items()}, names)
        self.assertEqual(result["attempted"], 4)

    def test_report_rejects_a_missing_metric(self):
        outcome = Outcome(attempted=1)
        result = run.report(outcome, trace=False)
        self.assertFalse(result["correct"])


class EstimateChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from repro import MotivoConfig, MotivoCounter

        counter = MotivoCounter(_small_graph(), MotivoConfig(k=K, seed=5))
        counter.build()
        cls.naive = counter.sample_naive(20_000)
        cls.ags = counter.sample_ags(20_000).estimates

    def test_clean_answer_passes(self):
        self.assertEqual(checks.estimate_problems(self.naive.counts, K), [])
        self.assertEqual(checks.hits_problems(self.naive.hits, 20_000), [])
        self.assertEqual(checks.agreement_problems(self.naive.counts, self.ags.counts), [])

    def test_perturbed_estimate_fails_agreement(self):
        top = max(self.ags.counts, key=self.ags.counts.get)
        perturbed = dict(self.ags.counts, **{})
        perturbed[top] *= 1.5
        self.assertTrue(checks.agreement_problems(self.naive.counts, perturbed))

    def test_negative_or_nan_estimate_fails(self):
        some = next(iter(self.naive.counts))
        for bad in (-1.0, math.nan, math.inf):
            self.assertTrue(checks.estimate_problems(dict(self.naive.counts, **{}) | {some: bad}, K))

    def test_invalid_codes_fail(self):
        disconnected = 0b000001  # one edge among four vertices
        self.assertTrue(checks.estimate_problems({disconnected: 1.0}, K))
        self.assertTrue(checks.estimate_problems({1 << 6: 1.0}, K))
        path = min(self.naive.counts)
        from repro.graphlets.canonical import canonical_form
        relabelled = next(
            bits for bits in range(1 << 6)
            if canonical_form(bits, K) == path and bits != path)
        self.assertTrue(checks.estimate_problems({relabelled: 1.0}, K))

    def test_lost_hit_fails(self):
        hits = dict(self.naive.hits)
        hits[next(iter(hits))] -= 1
        self.assertTrue(checks.hits_problems(hits, 20_000))


class ServedAndTableChecks(unittest.TestCase):
    def test_served_response_equals_library_and_alteration_fails(self):
        from repro import MotivoConfig, MotivoCounter
        from repro.serve import SamplingService

        graph = _small_graph()
        with tempfile.TemporaryDirectory() as root:
            directory = os.path.join(root, "cache", "small")
            counter = MotivoCounter(graph, MotivoConfig(k=K, seed=9))
            counter.build()
            counter.save_artifact(directory)
            counter.close()
            service = SamplingService(os.path.join(root, "cache"))
            service.add_graph(graph)
            try:
                payload = service.count(
                    artifact="small", samples=2_000, session="s", seed=11).to_payload()
            finally:
                service.close()
            reference = MotivoCounter.from_artifact(graph, directory, reseed=11)
            expected = reference.sample_naive(2_000)
            reference.close()
        self.assertEqual(checks.served_problems(payload, expected), [])
        altered = json.loads(json.dumps(payload))
        key = next(iter(altered["counts"]))
        altered["counts"][key] = altered["counts"][key] * (1 + 1e-12)
        self.assertTrue(checks.served_problems(altered, expected))

    def test_table_digest_matches_rebuild_and_alteration_fails(self):
        from repro.colorcoding.buildup import build_table
        from repro.colorcoding.coloring import ColoringScheme

        graph = _small_graph()
        coloring = ColoringScheme.uniform(graph.num_vertices, K, np.random.default_rng(2))
        first = build_table(graph, coloring)
        second = build_table(graph, coloring)
        self.assertEqual(
            checks.digest_problems(checks.table_digest(first), checks.table_digest(second)), [])
        layer = second.layer(K - 1)
        layer.counts[0, int(np.argmax(layer.counts[0]))] += 1.0
        self.assertTrue(
            checks.digest_problems(checks.table_digest(first), checks.table_digest(second)))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a = erdos_renyi_edges(500, 2000, child_rng(4, "graph"))
        b = erdos_renyi_edges(500, 2000, child_rng(4, "graph"))
        self.assertTrue(np.array_equal(a, b))
        self.assertEqual(len({tuple(e) for e in a.tolist()}), 2000)

    def test_update_stream_is_order_free(self):
        edges = erdos_renyi_edges(500, 2000, child_rng(4, "graph"))
        stream = update_stream(edges, 500, 40, child_rng(4, "updates"), hubs=np.arange(5))
        pairs = [(min(u, v), max(u, v)) for _op, u, v in stream]
        self.assertEqual(len(set(pairs)), 40)
        forward = apply_stream(edges, stream)
        backward = apply_stream(edges, stream[::-1])
        self.assertTrue(np.array_equal(forward, backward))
        self.assertEqual(len(forward), 2000)


class Spans(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = Tracer("t")
        with tracer.span("root"):
            with tracer.span("child"):
                time.sleep(0.02)
            time.sleep(0.01)
        selfs = tracer.self_times()
        total = tracer.duration("root")
        self.assertAlmostEqual(selfs["root"] + selfs["child"], total, places=6)
        self.assertGreater(selfs["child"], selfs["root"])

    def test_disabled_tracer_returns_callables_unchanged(self):
        tracer = Tracer("t", enabled=False)
        self.assertIs(tracer.wrap("x", len), len)
        with tracer.span("x"):
            pass
        self.assertEqual(tracer.finished(), [])


if __name__ == "__main__":
    unittest.main()
