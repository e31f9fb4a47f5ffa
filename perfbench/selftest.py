#!/usr/bin/env python3
"""Self-test of the benchmark's checks: tampered outputs must be caught.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs a few generated scenarios through the real program, confirms the
untouched outputs pass, then flips a verdict, perturbs one CSV row,
reports a NaN residual as a pass and changes output between passes, and
expects each to be flagged.  It also checks that every pass runs on a
fresh import of the program, and that the tracer records only the
outermost call of a recursive function and reports a removed name as
missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import unittest
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads
import oracle
import spans
import workloads

sys.path.insert(0, str(run.SRC))
import affgeo.cli  # noqa: E402

WORK = run.ROOT / ".perfbench_work" / "selftest"


def run_case(case, outdir: Path) -> int:
    path = workloads.write([case], outdir / "ini")[0]
    with contextlib.redirect_stdout(io.StringIO()):
        return affgeo.cli.main(["run", str(path), "--out", str(outdir)])


def pick(cases, fragment):
    return next(c for c in cases if fragment in c.name)


class OracleCatchesTampering(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        cls.harmonic = pick(workloads.timedep(7), "harmonic_dof1")
        cls.newton = pick(workloads.frames(8), "newton")
        cls.bad = pick(workloads.verify(7), "cross_identity")
        cls.codes = {c.name: run_case(c, WORK / c.name)
                     for c in (cls.harmonic, cls.newton, cls.bad)}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK.parent, ignore_errors=True)

    def copy(self, case) -> Path:
        target = WORK / f"{case.name}-{self._testMethodName}"
        shutil.copytree(WORK / case.name, target)
        return target

    def test_untouched_outputs_pass(self):
        for case in (self.harmonic, self.newton, self.bad):
            self.assertEqual(oracle.check_report(case, WORK / case.name,
                                                 self.codes[case.name]), [])

    def test_flipped_verdict(self):
        out = self.copy(self.bad)
        path = out / f"{self.bad.name}_report.json"
        report = json.loads(path.read_text())
        for check in report["checks"]:
            check["pass"] = True
        report["pass"] = True
        path.write_text(json.dumps(report))
        self.assertTrue(oracle.check_report(self.bad, out, 0))

    def test_wrong_exit_code(self):
        self.assertTrue(oracle.check_report(self.bad, WORK / self.bad.name, 0))
        self.assertTrue(oracle.check_report(self.harmonic, WORK / self.harmonic.name, 3))

    def test_perturbed_csv_row(self):
        for case in (self.harmonic, self.newton):
            out = self.copy(case)
            path = out / next(n for n in case.outputs if n.endswith(".csv"))
            lines = path.read_text().splitlines(keepends=True)
            row = len(lines) // 2
            cells = lines[row].split(",")
            cells[3] = repr(float(cells[3]) + 1e-5)
            lines[row] = ",".join(cells)
            path.write_text("".join(lines))
            problems = oracle.check_report(case, out, 0)
            self.assertTrue(any("off by" in p for p in problems), problems)

    def test_nan_residual_reported_as_pass(self):
        out = self.copy(self.harmonic)
        path = out / f"{self.harmonic.name}_report.json"
        report = json.loads(path.read_text())
        report["checks"][0]["max_residual"] = float("nan")
        path.write_text(json.dumps(report))
        problems = oracle.check_report(self.harmonic, out, 0)
        self.assertTrue(any("non-finite" in p for p in problems), problems)


class FakeProgram:
    """Stands in for ``affgeo.cli``: writes a report, differently each call."""

    def __init__(self, case, outputs):
        self.case = case
        self.outputs = list(outputs)

    def main(self, argv):
        outdir = Path(argv[argv.index("--out") + 1])
        outdir.mkdir(parents=True)
        text = self.outputs.pop(0)
        if isinstance(text, Exception):
            raise text
        (outdir / f"{self.case.name}_report.json").write_text(text)
        return 0


class BenchCountsFailures(unittest.TestCase):
    def setUp(self):
        self.case = workloads.Case("fake", "fake-kind", "", 0, [("only", True)],
                                   outputs=("fake_report.json",))
        self.good = json.dumps({"scenario": "fake", "kind": "fake-kind", "pass": True,
                                "checks": [{"check_name": "only", "pass": True,
                                            "max_residual": 0.0}]})

    def tearDown(self):
        shutil.rmtree(WORK.parent, ignore_errors=True)

    def bench(self, outputs):
        bench = run.Bench("fake", 0, WORK)
        bench.cli = FakeProgram(self.case, outputs)
        bench.cases, bench.paths = [self.case], [Path("unused.ini")]
        return bench

    def test_identical_passes_agree(self):
        bench = self.bench([self.good, self.good])
        bench.run_pass()
        bench.run_pass()
        self.assertEqual((bench.attempted, bench.failed), (2, 0))

    def test_changed_output_between_passes(self):
        bench = self.bench([self.good, self.good + " "])
        bench.run_pass()
        bench.run_pass()
        self.assertEqual((bench.attempted, bench.failed), (2, 1))
        self.assertIn("differ from the first pass", bench.problems[0])

    def test_exception_counts_as_failure(self):
        bench = self.bench([RuntimeError("boom")])
        bench.run_pass()
        self.assertEqual((bench.attempted, bench.failed), (1, 1))


class FreshImportPerPass(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(WORK.parent, ignore_errors=True)

    def test_each_pass_runs_a_new_import(self):
        bench = run.Bench("timedep_csv", 7, WORK)
        bench.cases = []  # stays empty until the first set-up
        seen = []
        real_pass = bench.run_pass
        bench.run_pass = lambda: (seen.append(bench.cli), real_pass())[1]
        tracer = spans.Tracer()
        per_pass, _, _ = bench.measure(0.0, min_passes=2, tracer=tracer)
        self.assertEqual(len(per_pass), 2)
        self.assertEqual(len(bench.setup_times), 2)
        self.assertIsNot(seen[0], seen[1])
        self.assertEqual((bench.attempted, bench.failed), (2 * len(bench.cases), 0))
        self.assertEqual(tracer.stats["mechanics.integrate"][0], 2 * len(bench.cases))
        self.assertEqual(tracer.missing, [])


class TracerRobustness(unittest.TestCase):
    def setUp(self):
        # earlier tests may have imported affgeo afresh; trace the current modules
        self.cli = run.import_program()
        self.symexpr = sys.modules["affgeo.symexpr"]
        self.mechanics = sys.modules["affgeo.mechanics"]

    def test_recursion_records_outermost_call_only(self):
        ctx = self.symexpr.VarContext.make(base=("x",))
        expr = self.symexpr.parse("((x + 1)*(x - 2) + x^3)/(x + 4)", ctx)
        tracer = spans.Tracer()
        tracer.install()
        try:
            value = self.symexpr.evaluate(expr, {"x": 0.5})
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.stats["symexpr.evaluate"][0], 1)
        self.assertEqual(value, self.symexpr.evaluate(expr, {"x": 0.5}))
        self.assertIs(self.cli.integrate, self.mechanics.integrate)

    def test_removed_name_is_reported_missing(self):
        original = self.mechanics.newton_dynamics
        del self.mechanics.newton_dynamics
        try:
            tracer = spans.Tracer()
            tracer.install()
            tracer.uninstall()
        finally:
            self.mechanics.newton_dynamics = original
        self.assertEqual(tracer.missing, ["mechanics.newton_dynamics"])
        self.assertEqual(tracer.stats["mechanics.newton_dynamics"][0], 0)

    def test_wrapper_reaches_importing_modules(self):
        original = self.mechanics.integrate
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(self.cli.integrate, original)
            self.assertIs(self.cli.integrate, self.mechanics.integrate)
        finally:
            tracer.uninstall()
        self.assertIs(self.cli.integrate, original)
        self.assertIs(self.mechanics.integrate, original)


if __name__ == "__main__":
    unittest.main()
