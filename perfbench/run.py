#!/usr/bin/env python3
"""Benchmark of the affgeo scenario runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload frames --seed 1 --seconds 30 --trace 0

A seeded generator writes the workload's scenario INI files; each one
runs in this process through the documented command-line entry
``affgeo.cli.main(["run", <ini>, "--out", <dir>])``.  Passes over the
workload repeat until ``--seconds`` is used up; before each one, outside
its timing, affgeo is imported afresh, so that every pass runs the
program as a new process would.  Every verdict and output
file is checked against a known answer (see ``oracle.py``), and every
pass after the first must reproduce the first pass byte for byte.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time on untraced passes and half on traced ones, and prints the
per-module metrics (see ``spans.py``), each per pass.  The last line of
standard output is the JSON result; the line before it is a JSON record
of the host, the inputs and the diagnostics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so host threads do not add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FASTEST = 3
# About the calibration loop's fastest time on the host the baseline was
# taken on.  End-to-end times are measured in calibration loops and
# reported as if one loop took this long.
REFERENCE_CALIBRATION_S = 4.0e-3
PROBLEMS_SHOWN = 20


def import_program():
    """Import ``affgeo.cli`` afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "affgeo" or n.startswith("affgeo.")]:
        del sys.modules[name]
    cli = importlib.import_module("affgeo.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"affgeo was imported from {cli.__file__}, not from {SRC}")
    return cli


def calibrate() -> float:
    """Fixed loop, timed between set-ups and scenarios: the host's speed.

    It runs pure-Python arithmetic, then numpy arithmetic on a 6-vector in
    the shape of an RK4 update, in about equal times.  The program is
    Python driving small numpy arrays, and the host's slow states slow the
    two kinds of work by different amounts.
    """
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i % 7
    y, v = np.zeros(6), np.ones(6)
    for _ in range(250):
        k = y + 0.5e-3 * v
        y = y + (1e-3 / 6.0) * (k + 2.0 * k)
        np.all(np.isfinite(y))
    return time.perf_counter() - start


def digest(outdir: Path) -> tuple[str, int, int]:
    """sha256 over every output file, plus CSV and JSON byte counts."""
    h = hashlib.sha256()
    csv_bytes = json_bytes = 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data + b"\0")
        if path.suffix == ".csv":
            csv_bytes += len(data)
        elif path.suffix == ".json":
            json_bytes += len(data)
    return h.hexdigest(), csv_bytes, json_bytes


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.cli = None
        self.cases: list[workloads.Case] = []
        self.paths: list[Path] = []
        self.setup_times: list[float] = []
        self.setup_loops: list[float] = []  # set-up times in calibration loops
        self.first: dict[str, tuple[str, list[str]]] = {}  # digest, problems
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calibration: list[float] = []

    def setup(self) -> None:
        """Import affgeo afresh and generate the workload: one ``setup_s`` sample.

        Runs before every pass, so no module-level state of the program
        carries over from one pass to the next.
        """
        gc.collect()  # earlier imports' garbage is not this set-up's cost
        start = time.perf_counter()
        self.cli = import_program()
        self.cases = workloads.GENERATORS[self.workload](self.seed)
        self.paths = workloads.write(self.cases, self.work / "ini")
        self.setup_times.append(time.perf_counter() - start)

    def run_case(self, case, path) -> tuple[float, int, int]:
        """Run one scenario; returns its latency and its CSV and JSON bytes."""
        outdir = self.out / case.name
        shutil.rmtree(outdir, ignore_errors=True)
        problems = []
        code = None
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = self.cli.main(["run", str(path), "--out", str(outdir)])
            except Exception as err:  # a crash is a failed verdict, not a benchmark error
                problems.append(f"raised {type(err).__name__}: {err}")
            elapsed = time.perf_counter() - start
        sha, csv_bytes, json_bytes = digest(outdir) if outdir.is_dir() else ("none", 0, 0)
        first = self.first.get(case.name)
        if first is None or sha != first[0]:
            problems += oracle.check_report(case, outdir, code)
            if first is None:
                self.first[case.name] = (sha, problems)
            else:
                problems.append("outputs differ from the first pass")
        else:
            problems += first[1]
            if code != case.expect_exit:
                problems.append(f"exit code {code}, expected {case.expect_exit}")
        shutil.rmtree(outdir, ignore_errors=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{case.name}: {p}" for p in problems]
        return elapsed, csv_bytes, json_bytes

    def run_pass(self) -> tuple[list[float], list[float], dict[str, int]]:
        """Every scenario once; returns their latencies, the calibration
        loop timed after each, and the bytes the pass wrote."""
        latencies, probes = [], []
        io_bytes = {"csv": 0, "report": 0}
        for case, path in zip(self.cases, self.paths):
            elapsed, csv_bytes, json_bytes = self.run_case(case, path)
            latencies.append(elapsed)
            probes.append(calibrate())
            io_bytes["csv"] += csv_bytes
            io_bytes["report"] += json_bytes
        return latencies, probes, io_bytes

    def measure(self, budget: float, min_passes: int, tracer=None):
        """Set-up and pass, repeated until the next would overrun ``budget`` seconds.

        With a ``tracer``, it is installed on each fresh import for the pass.
        Returns, per pass, each scenario's latency in seconds and in
        calibration loops, and the bytes the last pass wrote.  A time in
        loops is the time over the faster of the loops timed just before
        and just after it.  The host's speed changes between states that
        mostly outlast a scenario, so the ratio removes the state it ran in.
        """
        per_pass, loops, lengths = [], [], []
        probe = calibrate()
        start = time.perf_counter()
        while True:
            begin = time.perf_counter()
            self.setup()
            probes = [calibrate()]
            self.setup_loops.append(self.setup_times[-1] / min(probe, probes[0]))
            if tracer is not None:
                tracer.install()
            try:
                latencies, after, io_bytes = self.run_pass()
            finally:
                if tracer is not None:
                    tracer.uninstall()
            probes += after
            per_pass.append(latencies)
            loops.append([x / min(a, b) for x, a, b in zip(latencies, probes, probes[1:])])
            self.calibration += probes
            probe = probes[-1]
            lengths.append(time.perf_counter() - begin)
            elapsed = time.perf_counter() - start
            if len(per_pass) >= min_passes and elapsed + statistics.median(lengths) > budget:
                return per_pass, loops, io_bytes


def raw_tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for p in range(99, 0, -1):
        if sum(1 for x in values if x > cuts[p - 1]) >= 10:
            return p, cuts[p - 1]
    return 50, statistics.median(values)


def fastest_mean(samples) -> float:
    """Mean of the ``FASTEST`` fastest of a run's samples of one quantity."""
    return statistics.fmean(sorted(samples)[:FASTEST])


def end_to_end(bench, seconds, info):
    """Times on a quiet host of reference speed.

    The host's speed flips between a fast state and one about 1.5 times
    slower, for stretches from a tenth of a second to minutes, and CPU
    time slows with wall time.  A raw sample says as much about the
    neighbours as about the program, which is deterministic.  So each
    scenario, and the set-up, is represented by the median of its samples
    in calibration loops (see ``Bench.measure``), times
    ``REFERENCE_CALIBRATION_S``.  The raw figures go to ``info``.
    """
    per_pass, loops, _ = bench.measure(seconds, min_passes=FASTEST)
    scenario_s = [REFERENCE_CALIBRATION_S * statistics.median(column) for column in zip(*loops)]
    fastest = [fastest_mean(column) for column in zip(*per_pass)]
    raw = [x for latencies in per_pass for x in latencies]
    p, tail = raw_tail(raw)
    info.update(passes=len(per_pass),
                raw_pass_s=[sum(latencies) for latencies in per_pass],
                raw_verdict_ms={"samples": len(raw), "p50": 1000 * statistics.median(raw),
                                f"p{p}": 1000 * tail},
                fastest_ms={c.name: 1000 * x for c, x in zip(bench.cases, fastest)},
                raw_fastest_s={"setup": fastest_mean(bench.setup_times), "wall": sum(fastest)})
    wall = sum(scenario_s)
    return {"setup_s": REFERENCE_CALIBRATION_S * statistics.median(bench.setup_loops),
            "wall_s": wall,
            "verdicts_per_s": len(bench.cases) / wall,
            "verdict_p50_ms": 1000.0 * statistics.median(scenario_s),
            "verdict_tail_ms": 1000.0 * max(scenario_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(bench, seconds, info):
    per_pass, _, io_bytes = bench.measure(seconds / 2, min_passes=FASTEST)
    tracer = spans.Tracer()
    traced, _, _ = bench.measure(seconds / 2, min_passes=1, tracer=tracer)
    n = len(traced)
    wall = sum(fastest_mean(column) for column in zip(*per_pass))
    traced_wall = sum(fastest_mean(column) for column in zip(*traced))
    values = {}
    for name, (calls, self_s, _) in tracer.stats.items():
        values[f"{name}.calls"] = calls / n
        values[f"{name}.self_s"] = self_s / n
    values["brackets.bracket_expansions"] = values["brackets.bracket_expansions.calls"]
    integrate = tracer.stats["mechanics.integrate"]
    values.update({
        "mechanics.integrate.us_per_step":
            1e6 * integrate[2] / tracer.steps if tracer.steps else 0.0,
        "mechanics.rk4_steps_per_s": sum(c.nominal_steps for c in bench.cases) / wall,
        "io.csv_bytes": io_bytes["csv"],
        "io.report_bytes": io_bytes["report"],
        "trace.overhead_s": traced_wall - wall,
        "trace.missing_names": len(tracer.missing),
    })
    hot = integrate[1] + tracer.stats["symexpr.compiled"][1]
    info.update(passes=len(per_pass), traced_passes=n, wall_s=wall, traced_wall_s=traced_wall,
                missing=tracer.missing,
                integrate_plus_compiled_share_of_traced_time=hot / sum(map(sum, traced)))
    return values


def declared(section: str) -> list[dict]:
    """The metrics BENCHMARK.json declares; the run prints exactly these."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)[section]


def host_info(workload, seed, cases):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "why": workloads.WHY[workload],
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu": cpu, "nproc": os.cpu_count(),
        "inputs": {"scenarios": len(cases),
                   "kinds": sorted({c.kind for c in cases}),
                   "nominal_rk4_steps_per_pass": sum(c.nominal_steps for c in cases),
                   "ini_bytes": sum(len(c.ini) for c in cases)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "affgeo" / "cli.py").is_file():
        print(f"error: no affgeo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(args.workload, args.seed, work)
    info = host_info(args.workload, args.seed, workloads.GENERATORS[args.workload](args.seed))
    try:
        if args.trace:
            section, values = "per_layer", per_layer(bench, args.seconds, info)
        else:
            section, values = "end_to_end", end_to_end(bench, args.seconds, info)
        info["setup_s_samples"] = bench.setup_times
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    info.update(calibration_s={"runs": len(bench.calibration),
                               "fastest": min(bench.calibration),
                               "median": statistics.median(bench.calibration)},
                failed_ratio=bench.failed / bench.attempted,
                digests={name: sha for name, (sha, _) in sorted(bench.first.items())},
                problems=bench.problems[:PROBLEMS_SHOWN])
    for line in bench.problems[:PROBLEMS_SHOWN]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared(section)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
