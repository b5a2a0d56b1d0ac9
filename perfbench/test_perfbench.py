"""Smoke tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each workload runs at a tiny size through the same path the benchmark
uses; each gate is shown to fail on a wrong reference; traced spans are
shown to nest, with self times that add up.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import child
import run

sys.path.insert(0, str(run.ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from delliptic import loci, quasimodular  # noqa: E402
from delliptic.series import QSeries  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class TinyRuns(unittest.TestCase):
    """Every workload, untraced and traced, at its tiny size."""

    def test_untraced_reports_every_end_to_end_metric(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        self.assertEqual(names, run.END_TO_END)
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                result = run.run_workload(name, 7, 0, False, tiny=True)
                self.assertTrue(result["correct"], result["failures"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(names))
                for metric, entry in result["metrics"].items():
                    self.assertEqual(entry["unit"], names[metric])
                    self.assertGreater(entry["value"], 0)
                for child in result["children"]:
                    self.assertEqual(len(child["warm_s"]), 3)
                    self.assertEqual(len(child["ref_s"]), 3)
                    self.assertTrue(all(r > 0 for r in child["ref_s"]))

    @unittest.skipUnless(hasattr(os, "sched_setaffinity"), "no CPU affinity here")
    def test_child_pins_itself_to_one_allowed_cpu(self):
        allowed = os.sched_getaffinity(0)
        try:
            child.pin_to_fastest_cpu()
            pinned = os.sched_getaffinity(0)
        finally:
            os.sched_setaffinity(0, allowed)
        self.assertEqual(len(pinned), 1)
        self.assertLessEqual(pinned, allowed)

    def test_times_scale_with_the_reference(self):
        self.assertAlmostEqual(run.scaled(2.0, [run.REFERENCE_S]), 2.0)
        # a host running at half speed doubles both the time and the reference
        self.assertAlmostEqual(run.scaled(4.0, [2 * run.REFERENCE_S, 2 * run.REFERENCE_S]), 2.0)

    def test_traced_reports_every_per_layer_metric(self):
        names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                result = run.run_workload(name, 7, 0, True, tiny=True)
                self.assertTrue(result["correct"], result["failures"])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual({k: got[k] for k in names}, names)
                line = json.loads(run.result_line(result, trace=True))
                self.assertEqual(set(line["metrics"]), set(names))

    def test_declared_workloads_exist(self):
        self.assertEqual(set(run.WORKLOADS), set(workloads.WORKLOADS))
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))

    def test_result_line_has_exactly_the_contract_keys(self):
        result = run.run_workload("pointed-sweep", 1, 0, False, tiny=True)
        line = json.loads(run.result_line(result, trace=False))
        self.assertEqual(list(line), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(list(line["metrics"]), [m["name"] for m in SPEC["end_to_end"]])

    def test_refuses_a_directory_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Gates(unittest.TestCase):
    """A gate given a wrong reference reports a failure."""

    def _run(self, name, **size):
        w = workloads.WORKLOADS[name]
        inputs = w.setup(random.Random(3), **size)
        return w, inputs, w.run(inputs)

    def test_verify(self):
        w, inputs, out = self._run("verify", **workloads.WORKLOADS["verify"].tiny)
        self.assertEqual(w.check(inputs, out)[1], [])
        self.assertEqual(len(w.check(inputs, out, workloads.VERIFY_CHECKS + 1)[1]), 1)
        self.assertEqual(len(w.check(inputs, (1, out[1]))[1]), 1)

    def test_certify(self):
        w, inputs, out = self._run("certify", order=12)
        self.assertEqual(w.check(inputs, out), (16, []))

        def wrong_m2(d):
            closed = workloads.m2_closed(d)
            return {**closed, "delta_1": closed["delta_1"] + (d == 5)}

        attempted, failures = w.check(inputs, out, {"m2": wrong_m2})
        self.assertEqual(attempted, 16)
        self.assertEqual(len(failures), 1)
        self.assertIn("m2/delta_1", failures[0])

    def test_fit(self):
        w, inputs, out = self._run("fit", count=8, order=60)
        self.assertEqual(w.check(inputs, out), (8, []))
        planted = [c.planted for c in inputs]
        i = next(i for i, p in enumerate(planted) if p is not None)
        wrong = list(planted)
        wrong[i] = {m: x + 1 for m, x in planted[i].items()}
        self.assertEqual(len(w.check(inputs, out, wrong)[1]), 1)
        refused = [j for j, p in enumerate(planted) if p is None]
        self.assertTrue(refused, "the seed should draw at least one perturbed series")
        wrong = list(planted)
        wrong[i] = None  # claims a planted series must be refused
        self.assertEqual(len(w.check(inputs, out, wrong)[1]), 1)

    def test_pointed_sweep(self):
        w, inputs, out = self._run("pointed-sweep", max_d=6)
        self.assertEqual(w.check(inputs, out), (6, []))

        def wrong(d):
            closed = workloads.m21_closed(d)
            return {**closed, "xi_1": closed["xi_1"] + 1}

        self.assertEqual(len(w.check(inputs, out, wrong)[1]), 6)

    def test_own_closed_forms_match_the_package(self):
        for d in range(1, 13):
            self.assertEqual(workloads.own_sigma(3, d), sum(a**3 for a in range(1, d + 1) if d % a == 0))
            self.assertEqual(workloads.m21_closed(d), dict(zip(
                loci.family_labels("m21"), loci.delliptic_class_m21_closed(d).coefficients)))
            self.assertEqual(workloads.m2_closed(d), dict(zip(
                loci.family_labels("m2"), loci.delliptic_class_m2_closed(d).coefficients)))

    def test_perturbed_fits_cannot_be_absorbed(self):
        """No nonzero form of weight <= 8 vanishes on q^0..q^39: the basis
        has full rank there, so a change at q^k (k >= 40) is always refused."""
        rows = [list(s.coefficients[:40]) for _, s in quasimodular.quasimodular_basis(8, 40)]
        rank, cols = 0, len(rows[0])
        for c in range(cols):
            pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for r in range(len(rows)):
                if r != rank and rows[r][c] != 0:
                    f = Fraction(rows[r][c]) / rows[rank][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
            rank += 1
        self.assertEqual(rank, len(rows))


class Spans(unittest.TestCase):
    def _trace(self, fn):
        tracer = tracing.Tracer()
        before = {g: tracing.cache_counts(g) for g in tracing.CACHED}
        tracer.install()
        try:
            tracer.active = True
            with tracer.span(tracing.ROOT):
                fn()
            tracer.active = False
        finally:
            tracer.uninstall()
        after = {g: tracing.cache_counts(g) for g in tracing.CACHED}
        return tracer, before, after

    def test_spans_nest_and_self_times_add_up(self):
        # through the module attribute, as the workloads call it
        tracer, before, after = self._trace(lambda: loci.certify_quasimodularity(14))
        spans, own = tracer.spans, tracer.self_times()
        self.assertGreater(len(spans), 100)
        self.assertEqual(spans[0][0], tracing.ROOT)
        children: dict[int, float] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            self.assertLessEqual(start, end)
            if parent >= 0:
                self.assertLess(parent, i)
                self.assertLessEqual(spans[parent][1], start)
                self.assertLessEqual(end, spans[parent][2])
                children[parent] = children.get(parent, 0.0) + end - start
        for i, total in children.items():
            self.assertLessEqual(total, spans[i][2] - spans[i][1] + 1e-9)
        self.assertTrue(all(t >= -1e-9 for t in own))
        root = spans[0][2] - spans[0][1]
        self.assertAlmostEqual(sum(own), root, delta=1e-6)
        names = {s[0] for s in spans}
        for expected in ("loci.certify", "loci.class", "loci.profile.m3", "covers.isogeny",
                         "chow.solve", "linalg.solve", "quasimodular.fit", "series.mul"):
            self.assertIn(expected, names)
        metrics = tracing.layer_metrics(tracer, before, after)
        self.assertLessEqual(sum(metrics[f"{l}.self_frac"] for l in tracing.LAYERS), 1 + 1e-9)

    def test_calls_bound_under_other_names_and_in_tables_are_traced(self):
        originals = (loci.FAMILIES["m21"], loci.count_pointed_isogenies, QSeries.__mul__)
        # degrees no other test computes, so the caches miss
        tracer, _, _ = self._trace(lambda: (loci.class_in_family("m21", 19),
                                            loci.fixed_target_profile_m2(23)))
        names = [s[0] for s in tracer.spans]
        self.assertIn("loci.class", names)  # reached through loci.FAMILIES
        self.assertIn("covers.isogeny", names)  # bound in loci by from-import
        self.assertEqual((loci.FAMILIES["m21"], loci.count_pointed_isogenies, QSeries.__mul__),
                         originals)

    def test_self_time_with_a_fake_clock(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: next(ticks))
        with tracer.span("a.x"):  # 0 .. 7
            with tracer.span("b.y"):  # 1 .. 4
                with tracer.span("c.z"):  # 2 .. 3
                    pass
            with tracer.span("b.y"):  # 5 .. 6
                pass
        self.assertEqual(tracer.self_times(), [7 - 3 - 1, 3 - 1, 1, 1])


if __name__ == "__main__":
    unittest.main()
