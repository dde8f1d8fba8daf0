"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py
    python3 perfbench/selftest.py
"""

from __future__ import annotations

import gc
import inspect
import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _subshift_namespaces():
    """Every module dict and class dict of subshift, copied."""
    ss = run.import_subshift()
    modules = [ss] + [sys.modules[f"subshift.{m}"] for m in MODULES]
    spaces = {}
    for mod in modules:
        spaces[mod.__name__] = dict(vars(mod))
        for name, cls in inspect.getmembers(mod, inspect.isclass):
            if cls.__module__.startswith("subshift"):
                spaces[f"{cls.__module__}.{cls.__qualname__}"] = dict(vars(cls))
    return spaces


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        rows = list(run.END_TO_END) + layers.metric_names()
        names = [name for name, _, _ in rows]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better in rows:
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertTrue(UNIT.fullmatch(unit), unit)
            self.assertIn(better, ("lower", "higher"))

    def test_benchmark_json_matches_the_emitted_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(corpus.WORKLOADS))
        emitted = {
            "end_to_end": [list(r) for r in run.END_TO_END],
            "per_layer": [list(r) for r in layers.metric_names()],
        }
        for group, rows in emitted.items():
            declared = [[m["name"], m["unit"], m["better"]] for m in spec[group]]
            self.assertEqual(declared, rows, group)


class Statistics(unittest.TestCase):
    def test_tail_is_the_highest_percentile_with_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(run.tail(values, 100), (90.0, 90.0))
        self.assertEqual(run.tail(values, 99), (75.0, 75.0))
        self.assertEqual(run.tail(values[:39], 39), (20.0, 50.0))


class Tracing(unittest.TestCase):
    def test_tracer_patches_every_binding_and_restores_them(self):
        before = _subshift_namespaces()
        ss = sys.modules["subshift"]
        original = ss.sequences.enumerate_words
        tracer = Tracer("subshift", [t for t, _ in layers.TARGETS])
        with tracer:
            for mod in (ss, ss.sequences, ss.cylinders, ss.transfer, ss.freeness, ss.verdict):
                self.assertIsNot(mod.enumerate_words, original, mod.__name__)
            self.assertIsNot(ss.cli.main, before["subshift.cli"]["main"])
            words = ss.enumerate_words(ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]]), 3)
        self.assertEqual(len(words), 5)
        self.assertEqual(tracer.stats["sequences.enumerate_words"].calls, 1)
        after = _subshift_namespaces()
        self.assertEqual(before.keys(), after.keys())
        for space, attrs in before.items():
            self.assertEqual(attrs.keys(), after[space].keys(), space)
            for name, value in attrs.items():
                self.assertIs(after[space][name], value, f"{space}.{name}")

    def test_collections_outside_spans_count_as_covered(self):
        run.import_subshift()
        callbacks = list(gc.callbacks)
        tracer = Tracer("subshift", [t for t, _ in layers.TARGETS])
        with tracer:
            gc.collect()  # no span is open here
        self.assertGreater(tracer.outside_gc_ns, 0)
        self.assertEqual(tracer.covered_ns, tracer.self_sum_ns + tracer.outside_gc_ns)
        self.assertEqual(gc.callbacks, callbacks)


class Workloads(unittest.TestCase):
    def _check(self, result, names):
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # ops_failed_ratio == 0
        self.assertEqual(list(result["metrics"]), names)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_each_workload_completes_a_smoke_run_without_failures(self):
        names = [name for name, _, _ in run.END_TO_END]
        for workload in corpus.WORKLOADS:
            with self.subTest(workload=workload):
                result, _, _ = run.run(workload, seed=3, seconds=0, trace=False, min_passes=1)
                self._check(result, names)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_run_reports_every_layer_and_accounts_for_wall_time(self):
        names = [name for name, _, _ in layers.metric_names()]
        before = _subshift_namespaces()
        result, _, _ = run.run("transfer", seed=3, seconds=0, trace=True)
        self._check(result, names)
        self.assertEqual(before, _subshift_namespaces())

    def test_negative_control_catches_a_verifier_that_accepts_everything(self):
        ss = run.import_subshift()
        runner = run.Runner(ss, workload=None)
        golden = ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]])
        report = ss.render_report(ss.analyze(golden, 3))
        runner.negative_control(report)
        self.assertEqual((runner.attempted, runner.failed), (1, 0))

        class Lenient:
            errors = ss.errors

            @staticmethod
            def verify_report(text):
                return None

        runner.ss = Lenient
        runner.negative_control(report)
        self.assertEqual((runner.attempted, runner.failed), (2, 1))


if __name__ == "__main__":
    unittest.main()
