"""freechoice benchmark: four workloads, closed loop, one client.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

Workloads ``simulate``, ``power``, ``exact`` and ``sweep`` are described,
with their checks and metrics, in bench/README.md and BENCHMARK.json. A
run repeats its workload's pass, with inputs drawn from ``--seed``, until
the next pass would end after ``--seconds`` (at least two passes), checks
every output, and prints the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of traced passes (see tracer.py). The last line of
standard output is the JSON result; the full report of the run goes to
``.bench_work/report.json``.

Times are CPU seconds (user + system) of the processes that do the work,
which leave out the time a process waits for a CPU that other tenants of a
shared machine hold. Wall times are kept in the report.

Where ``bench/reference.json`` holds digests for the workload and seed, each
command's outputs must also match them, so a changed seed-to-bytes mapping
counts as failed. ``--write-reference`` records the digests of a run there.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import tracer

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"
WORKLOADS = ("simulate", "power", "exact", "sweep")
MIN_PASSES = 2
# Float literals enter the reference digests rounded to this many significant
# digits: BLAS kernels picked per CPU model may move the last bits.
DIGEST_DIGITS = 12
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0
# A simulated mean must lie within this many standard errors of the exact
# engine's value; at 5 se a correct program fails about once in 1.7 million.
MEAN_Z = 5.0
FLOAT_TOL = 1e-9
BLAS_THREADS = 1


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Step:
    """One CLI command of a pass, with the check of its outputs."""

    label: str
    args: List[str]
    outputs: List[str]
    check: Callable[[Path, str], int]  # returns the records it read
    subjects: int = 0
    design: Optional[str] = None
    rational: bool = False
    verify: bool = False


@dataclass
class StepResult:
    label: str
    seconds: float
    cpu_s: float
    rss_mb: float
    ok: bool
    message: str = ""
    records: int = 0
    bytes: int = 0
    hashes: Dict[str, str] = field(default_factory=dict)
    digest: Optional[str] = None


# ---------------------------------------------------------------------------
# environment and processes


def child_env(src: Path, work: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update(
        PYTHONPATH=str(src),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        TMPDIR=str(work),
    )
    return env


class Runner:
    """Starts children one at a time and stops them by the run's deadline."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env(root / "src", work)
        self.peak_rss_mb = 0.0
        self.probe_argv: List[str] = []
        self.setup_s: List[float] = []
        self.setup_wall_s: List[float] = []
        self._logs = 0

    def probe(self) -> None:
        """One set-up sample: the CPU time of a process that only sets up."""
        rc, seconds, cpu_s, _, out = self.spawn(self.probe_argv)
        if rc != 0:
            raise CheckFailed(f"set-up probe failed: {out[-300:]}")
        self.setup_s.append(cpu_s)
        self.setup_wall_s.append(seconds)

    def spawn(self, argv: List[str]):
        """Run argv to completion.

        Returns (exit code, wall seconds, CPU seconds, peak RSS MB, output).
        """
        self._logs += 1
        log_path = self.work / f"child{self._logs % 2}.log"
        limit = max(1.0, self.deadline - time.monotonic())
        with open(log_path, "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.work
            )
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if proc.returncode is None and proc.poll() is None:
                    proc.kill()
                    proc.wait()
            seconds = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu_s = usage.ru_utime + usage.ru_stime
        rss_mb = usage.ru_maxrss / 1024.0
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        return proc.returncode, seconds, cpu_s, rss_mb, log_path.read_text(errors="replace")


def git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path) -> Dict[str, object]:
    import numpy

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "pythonhashseed": "0",
    }


# ---------------------------------------------------------------------------
# output checks


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _within_z(label: str, summary: dict, exact: float) -> None:
    se = summary.get("se")
    _expect(se is not None and se > 0, f"{label}: no standard error")
    z = (summary["mean"] - exact) / se
    _expect(abs(z) <= MEAN_Z, f"{label}: mean {summary['mean']} is {z:.1f} se from exact {exact}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_FLOAT = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?")


def digest(texts: List[str]) -> str:
    """Reference digest of output texts, float literals rounded (DIGEST_DIGITS)."""
    h = hashlib.sha256()
    for text in texts:
        h.update(_FLOAT.sub(lambda m: format(float(m.group()), f".{DIGEST_DIGITS}g"), text).encode())
        h.update(b"\0")
    return h.hexdigest()


def load_reference(workload: str, seed: int) -> Dict[str, str]:
    """Digests per command recorded for this workload and seed, if any."""
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text()).get(workload, {}).get(str(seed), {})


def write_reference(workload: str, seed: int, digests: Dict[str, str]) -> None:
    data = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    data.setdefault(workload, {})[str(seed)] = digests
    REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def check_simulate(output: str, fmt: str, subjects: int, references: Dict[str, float]):
    """Record count, summary consistency, and the mean against the exact engine."""

    def check(work: Path, stdout: str) -> int:
        spreads, consistent = [], 0
        with open(work / output, newline="") as handle:
            if fmt == "csv":
                reader = csv.reader(handle)
                _expect(next(reader) == ["subject", "arm", "i", "j", "consistent", "spread"],
                        "unexpected CSV header")
                for k, row in enumerate(reader):
                    _expect(int(row[0]) == k, f"record {k} has subject {row[0]}")
                    spreads.append(int(row[5]))
                    consistent += row[4] == "true"
            else:
                for k, line in enumerate(handle):
                    record = json.loads(line)
                    _expect(record["subject"] == k, f"record {k} has subject {record['subject']}")
                    spreads.append(record["spread"])
                    consistent += record["consistent"]
        _expect(len(spreads) == subjects, f"{len(spreads)} records for {subjects} subjects")
        with open(work / (output + ".summary.json")) as handle:
            summary = json.load(handle)
        overall = summary["spread"]
        _expect(overall["count"] == subjects, "summary count differs from --subjects")
        mean = math.fsum(spreads) / subjects
        _expect(abs(mean - overall["mean"]) <= FLOAT_TOL, "summary mean differs from the records")
        _expect(abs(summary["consistent_fraction"] - consistent / subjects) <= FLOAT_TOL,
                "summary consistent fraction differs from the records")
        for key, exact in references.items():
            _within_z(f"{output} {key}", summary[key], exact)
        if summary["design"] == "e3":
            se_boot = summary.get("se_bootstrap")
            _expect(se_boot is not None and 0 < se_boot < math.inf, "e3 lacks a bootstrap se")
        return subjects

    return check


def check_power(output: str, subjects: int, replications: int, difference: Optional[float]):
    """Report shape, rejection rate in [0, 1], and the e0 difference against exact."""

    def check(work: Path, stdout: str) -> int:
        with open(work / output) as handle:
            report = json.load(handle)
        _expect(report["replications"] == replications, "replication count differs")
        _expect(report["subjects"] == subjects, "subject count differs")
        _expect(0 <= report["rejection_rate"] <= 1, "rejection rate outside [0, 1]")
        if difference is not None:
            _within_z(f"{output} difference", report, difference)
        if report["design"] == "e3":
            _expect(0 < report["se_bootstrap"] < math.inf, "e3 lacks a bootstrap se")
        return 0

    return check


def check_table(output: str, n: int, reference_rounded: Dict, rational: bool):
    """Row set, zero total, reversal symmetry, and rounding against a reference.

    ``reference_rounded`` maps (i, j) to the expected display string: the
    frozen reference table at n = 12, p = 0.8, otherwise the float engine's
    rounding, which the rational table must reproduce.
    """

    def check(work: Path, stdout: str) -> int:
        with open(work / output, newline="") as handle:
            reader = csv.reader(handle)
            _expect(next(reader) == ["i", "j", "expected_spread", "rounded"], "unexpected header")
            rows = [(int(i), int(j), value, rounded) for i, j, value, rounded in reader]
        _expect(len(rows) == n * (n - 1) // 2, f"{len(rows)} rows for n={n}")
        values = {(i, j): (Fraction(v) if rational else float(v)) for i, j, v, _ in rows}
        rounded = {(i, j): r for i, j, _, r in rows}
        if rational:
            _expect(sum(values.values(), Fraction(0)) == 0, "rational table does not total 0")
        else:
            _expect(abs(math.fsum(values.values())) <= FLOAT_TOL, "float table does not total 0")
            worst = max(abs(v - values[(n + 1 - j, n + 1 - i)]) for (i, j), v in values.items())
            _expect(worst <= FLOAT_TOL, f"table not reversal-symmetric (gap {worst:.2e})")
        bad = [pair for pair, text in reference_rounded.items() if rounded.get(pair) != text]
        _expect(not bad, f"rounded entries differ from the reference at {bad[:3]}")
        return len(rows)

    return check


def check_verify(work: Path, stdout: str) -> int:
    _expect(re.search(r"^all \d+ checks passed at level 'full'$", stdout, re.M) is not None,
            "verify did not report every check passed")
    return 0


def check_sweep_point(point: dict, values: dict) -> None:
    n = point["n"]
    table = {(i, j): v for i, j, v in values["table"]}
    _expect(len(table) == n * (n - 1) // 2, "table row count")
    scale = max(1.0, max(abs(v) for v in table.values()))
    _expect(abs(math.fsum(table.values())) <= FLOAT_TOL * scale * n, "table does not sum to 0")
    worst = max(abs(v - table[(n + 1 - j, n + 1 - i)]) for (i, j), v in table.items())
    _expect(worst <= FLOAT_TOL * scale, f"table not reversal-symmetric (gap {worst:.2e})")
    for key in ("e0-experimental", "e0-control", "e2", "e3", "consistent", "reversal"):
        _expect(values[key] is not None and math.isfinite(values[key]), f"{key} not finite")
    _expect(values["e2"] == values["e3"], "e2 and e3 averages differ")


# ---------------------------------------------------------------------------
# workloads


def simulate_steps(rng: random.Random, fc) -> List[Step]:
    steps = []

    def add(label, args, subjects, design, fmt="csv", references=None):
        output = f"{label}.{'csv' if fmt == 'csv' else 'jsonl'}"
        steps.append(Step(
            label=f"simulate.{label}",
            args=["simulate", *args, "--subjects", str(subjects), "--seed",
                  str(rng.randrange(1, 2**31)), "--format", fmt, "--output", output],
            outputs=[output, output + ".summary.json", output + ".manifest.json"],
            check=check_simulate(output, fmt, subjects, references or {}),
            subjects=subjects,
            design=design,
        ))

    add("classic-null", ["--design", "classic", "--model", "null", "--n", "12", "--pair", "7,9",
                         "--p", "0.8"], 20000, "classic",
        references={"spread": fc.expected_spread_positions(12, 0.8, (7, 9))})
    add("e2-memory", ["--design", "e2", "--model", "memory", "--n", "13", "--p", "0.8",
                      "--threads", "2"], 8000, "e2")
    add("e3-null", ["--design", "e3", "--model", "null", "--n", "12", "--p", "0.8"],
        66 * 200, "e3", references={"spread": fc.expected_spread_two_param(12, 0.8, 0.8, "e3")})
    i = rng.randint(3, 8)
    pair = (i, i + rng.randint(1, 3))
    add("e0-two-param", ["--design", "e0", "--model", "two-param", "--n", "14",
                         "--pair", f"{pair[0]},{pair[1]}", "--p", "0.7", "--P", "0.9"],
        10000, "e0", fmt="json",
        references={
            arm: fc.expected_spread_two_param(14, 0.7, 0.9, f"e0-{arm}", pair=pair)
            for arm in ("experimental", "control")
        })
    return steps


def power_steps(rng: random.Random, fc) -> List[Step]:
    steps = []

    def add(label, args, subjects, replications, design, difference=None):
        output = f"{label}.json"
        steps.append(Step(
            label=f"power.{label}",
            args=["power", *args, "--subjects", str(subjects), "--replications",
                  str(replications), "--seed", str(rng.randrange(1, 2**31)), "--output", output],
            outputs=[output, output + ".manifest.json"],
            check=check_power(output, subjects, replications, difference),
            subjects=subjects * (replications + 1),
            design=design,
        ))

    add("e2-dissonance-shift", ["--design", "e2", "--model", "dissonance-shift", "--n", "12",
                                "--p", "0.5", "--shift", "1", "--threshold", "3"], 100, 200, "e2")
    i = rng.randint(3, 8)
    pair = (i, i + rng.randint(1, 3))
    difference = (fc.expected_spread_two_param(12, 0.5, 0.9, "e0-experimental", pair=pair)
                  - fc.expected_spread_two_param(12, 0.5, 0.9, "e0-control", pair=pair))
    add("e0-two-param", ["--design", "e0", "--model", "two-param", "--n", "12",
                         "--pair", f"{pair[0]},{pair[1]}", "--p", "0.5", "--P", "0.9"],
        100, 200, "e0", difference=difference)
    add("e3-memory", ["--design", "e3", "--model", "memory", "--n", "12", "--p", "0.5"],
        132, 150, "e3")
    return steps


def exact_steps(rng: random.Random, fc) -> List[Step]:
    from freechoice.verify import REFERENCE_TABLE_N12_P08

    def float_rounding(n, p):
        return {(q.i, q.j): text for q, text in fc.expected_spread_table(n, p).rounded().items()}

    steps = []

    def add_table(n, p, rational, reference):
        kind = "rational" if rational else "float"
        output = f"table-{kind}-n{n}.csv"
        args = ["table", "--n", str(n), "--p", p, "--output", output]
        steps.append(Step(
            label=f"table.{kind}.n{n}",
            args=args + (["--exact-rational"] if rational else []),
            outputs=[output, output + ".manifest.json"],
            check=check_table(output, n, reference, rational),
            rational=rational,
        ))

    for n in (12, 15, 20):
        reference = REFERENCE_TABLE_N12_P08 if n == 12 else float_rounding(n, 0.8)
        add_table(n, "0.8", True, reference)
    add_table(12, "0.8", False, REFERENCE_TABLE_N12_P08)
    add_table(20, f"{rng.uniform(0.3, 0.9):.3f}", False, {})
    steps.append(Step(label="verify.full", args=["verify", "--level", "full"], outputs=[],
                      check=check_verify, verify=True))
    return steps


def sweep_points(rng: random.Random) -> List[dict]:
    points = []
    for n in (12, 20, 30, 40):
        for _ in range(3):
            p = round(rng.uniform(0.3, 0.9), 3)
            i = rng.randint(1, n - 4)
            points.append({
                "n": n,
                "p": p,
                "P": round(min(0.98, p + rng.uniform(0.02, 0.1)), 3),
                "pair": [i, i + rng.randint(1, 3)],
            })
    return points


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    steps: List[StepResult]
    attempted: int
    failed: int
    traces: List[dict] = field(default_factory=list)


def run_cli_pass(runner: Runner, steps: List[Step], index: int, traced: bool,
                 first_hashes: Dict[str, Dict[str, str]],
                 reference: Dict[str, str]) -> PassResult:
    py = sys.executable
    results, traces = [], []
    for k, step in enumerate(steps):
        if traced:
            span_file = runner.work / f"spans-{index}-{k}.npz"
            argv = [py, str(BENCH_DIR / "traced_cli.py"), str(span_file), *step.args]
        else:
            argv = [py, "-m", "freechoice", *step.args]
        rc, seconds, cpu_s, rss, stdout = runner.spawn(argv)
        result = StepResult(step.label, seconds, cpu_s, rss, ok=rc == 0)
        if rc != 0:
            result.message = f"exit code {rc}: {stdout[-300:]}"
        else:
            try:
                result.records = step.check(runner.work, stdout)
                for name in step.outputs:
                    path = runner.work / name
                    result.bytes += path.stat().st_size
                    result.hashes[name] = _sha256(path)
                expected = first_hashes.setdefault(step.label, result.hashes)
                _expect(expected == result.hashes, "outputs differ from the first pass's")
                # Manifests are left out: they carry the package version.
                result.digest = digest([(runner.work / name).read_text() for name in step.outputs
                                        if not name.endswith(".manifest.json")])
                _expect(reference.get(step.label, result.digest) == result.digest,
                        "outputs differ from bench/reference.json")
            except Exception as exc:  # any malformed output is a failed command
                result.ok, result.message = False, f"{type(exc).__name__}: {exc}"
        if traced and rc == 0:
            trace = tracer.load(str(span_file))
            trace["design"] = step.design
            traces.append(trace)
        if traced:
            span_file.unlink(missing_ok=True)
        for name in step.outputs:
            (runner.work / name).unlink(missing_ok=True)
        results.append(result)
        runner.probe()
    failed = sum(not r.ok for r in results)
    return PassResult(sum(r.seconds for r in results), sum(r.cpu_s for r in results), results,
                      len(results), failed, traces)


def run_sweep_pass(runner: Runner, points: List[dict], index: int, traced: bool,
                   first_hashes: Dict[str, Dict[str, str]],
                   reference: Dict[str, str]) -> PassResult:
    spec = runner.work / "sweep-spec.json"
    spec.write_text(json.dumps(points))
    out = runner.work / f"sweep-out-{index}.json"
    argv = [sys.executable, str(BENCH_DIR / "sweep_pass.py"), str(spec), str(out)]
    span_file = runner.work / f"spans-{index}.npz"
    if traced:
        argv.append(str(span_file))
    rc, seconds, _, rss, stdout = runner.spawn(argv)
    for _ in range(2):
        runner.probe()
    calls_per_point = 7
    attempted = calls_per_point * len(points)
    if rc != 0:
        result = StepResult("sweep.process", seconds, 0.0, rss, ok=False,
                            message=f"exit code {rc}: {stdout[-300:]}")
        return PassResult(seconds, 0.0, [result], attempted, attempted)
    data = json.loads(out.read_text())
    out.unlink()
    failed = sum(call["error"] is not None for call in data["calls"])
    message = ""
    for entry in data["points"]:
        try:
            check_sweep_point(entry["point"], entry["values"])
        except Exception as exc:  # any malformed value is a failed point
            failed += 1
            message = f"{entry['point']}: {exc}"
    values = json.dumps(data["points"])
    values_hash = hashlib.sha256(values.encode()).hexdigest()
    expected = first_hashes.setdefault("sweep", {"values": values_hash})
    if expected["values"] != values_hash:
        failed += 1
        message = "sweep values differ from the first pass's"
    values_digest = digest([values])
    if reference.get("sweep.values", values_digest) != values_digest:
        failed += 1
        message = "sweep values differ from bench/reference.json"
    by_call: Dict[str, List[float]] = {}
    for call in data["calls"]:
        into = by_call.setdefault(call["call"], [0.0, 0.0])
        into[0] += call["seconds"]
        into[1] += call["cpu_s"]
    results = [StepResult(f"sweep.{label}", wall, cpu, rss, ok=True)
               for label, (wall, cpu) in by_call.items()]
    results.append(StepResult("sweep.values", 0.0, 0.0, rss, ok=not failed, message=message,
                              digest=values_digest))
    traces = []
    if traced:
        traces.append(tracer.load(str(span_file)))
        span_file.unlink()
    return PassResult(sum(r.seconds for r in results), sum(r.cpu_s for r in results), results,
                      attempted, min(failed, attempted), traces)


def run_passes(run_one: Callable[[int, bool], PassResult], seconds: float, minimum: int,
               traced: bool, offset: int = 0) -> List[PassResult]:
    start = time.monotonic()
    passes: List[PassResult] = []
    while True:
        began = time.monotonic()
        passes.append(run_one(offset + len(passes), traced))
        last = time.monotonic() - began
        if len(passes) >= minimum and time.monotonic() - start + last > seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def step_medians(steps: List[Step], passes: List[PassResult]) -> Dict[str, Dict[str, float]]:
    """Per command (per call and n on ``sweep``): median time, subjects/s, outputs."""
    subjects = {s.label: s.subjects for s in steps}
    by_label: Dict[str, List[StepResult]] = {}
    for result in passes:
        for step in result.steps:
            by_label.setdefault(step.label, []).append(step)
    report = {}
    for label, results in by_label.items():
        entry = {
            "median_s": median(r.seconds for r in results),
            "median_cpu_s": median(r.cpu_s for r in results),
            "rss_mb": max(r.rss_mb for r in results),
            "records": results[0].records,
            "bytes": results[0].bytes,
        }
        if subjects.get(label):
            entry["subjects_per_s"] = subjects[label] / entry["median_s"]
        report[label] = entry
    return report


def workload_figures(steps: List[Step], passes: List[PassResult]) -> Dict[str, float]:
    """Workload-specific end-to-end figures, medians over passes."""
    def per_pass(select):
        return median(sum(r.seconds for s, r in zip(steps, p.steps) if select(s)) for p in passes)

    figures: Dict[str, float] = {}
    subjects = sum(s.subjects for s in steps)
    if subjects:
        figures["subjects_per_s"] = subjects / per_pass(lambda s: s.subjects > 0)
    if any(s.rational for s in steps):
        figures["table_rational_s"] = per_pass(lambda s: s.rational)
    if any(s.verify for s in steps):
        figures["verify_s"] = per_pass(lambda s: s.verify)
    return figures


# (span name, fields) reported as "<span name>.<field>", summed over a pass
SPAN_METRICS = [
    ("noise.sample_noisy_ranking", ("calls", "self_s")),
    ("noise.sample_choice", ("calls", "self_s")),
    ("noise.mix_apply.float", ("calls", "self_s")),
    ("noise.mix_apply.rational", ("calls", "self_s")),
    ("exact.expected_spread_table.float", ("calls", "self_s")),
    ("exact.expected_spread_table.rational", ("calls", "self_s")),
    ("exact.expected_spread_two_param", ("calls", "self_s")),
    ("exact.expected_spread_conditional", ("calls", "self_s")),
    ("designs.run_subject", ("calls", "self_s")),
    ("core.spread", ("calls", "self_s")),
    ("stats.summarize", ("calls", "self_s")),
    ("stats.compare", ("calls",)),
    ("stats.bootstrap_se", ("calls", "self_s")),
    ("stats.power_estimate", ("self_s",)),
    ("verify.run_checks", ("self_s",)),
]
QUERY_SPANS = ("exact.expected_spread_table.float", "exact.expected_spread_table.rational",
               "exact.expected_spread_positions.float", "exact.expected_spread_positions.rational",
               "exact.expected_spread_two_param", "exact.expected_spread_conditional")


def layer_metrics(traced: List[PassResult]) -> Dict[str, float]:
    """Per-layer numbers of one traced pass, medians over traced passes."""
    per_pass = []
    for result in traced:
        spans: Dict[str, Dict[str, float]] = {}
        counters: Dict[str, float] = {}
        firsts: List[float] = []
        e2_pairs = e2_subjects = span_count = 0
        for trace in result.traces:
            span_count += trace["span_count"]
            for name, stats in trace["spans"].items():
                into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for key in into:
                    into[key] += stats[key]
                firsts.extend(stats["durations"])
            for key, value in trace["counters"].items():
                counters[key] = counters.get(key, 0) + value
            if trace.get("design") == "e2":
                e2_pairs += trace["spans"].get("core.all_position_pairs", {}).get("calls", 0)
                e2_subjects += trace["spans"].get("designs.run_subject", {}).get("calls", 0)

        def get(name, key):
            return spans.get(name, {}).get(key, 0)

        def ratio(a, b):
            return a / b if b else 0.0

        metrics = {f"{name}.{key}": get(name, key) for name, keys in SPAN_METRICS for key in keys}
        solves = get("noise.mix_apply.float", "calls") + get("noise.mix_apply.rational", "calls")
        metrics.update({
            "noise.mix_apply.float.lu_flops_computed": counters.get("float.lu_flops", 0),
            "noise.mix_apply.float.lu_bytes_computed": counters.get("float.lu_bytes", 0),
            "noise.mix_apply.rational.solves": sum(
                v for k, v in counters.items() if k.startswith("rational.solves.")),
            **{f"noise.mix_apply.rational.solves_n{n}": counters.get(f"rational.solves.n{n}", 0)
               for n in (12, 15, 20)},
            "exact.mix_apply_per_query": ratio(solves, sum(get(q, "calls") for q in QUERY_SPANS)),
            "designs.subjects_per_busy_s": ratio(get("designs.run_subject", "calls"),
                                                 get("designs.run_subject", "total_s")),
            "designs.iter_experiment.calls": get("designs.iter_experiment.first", "calls"),
            "designs.iter_experiment.self_s": (get("designs.iter_experiment", "self_s")
                                               + get("designs.iter_experiment.first", "self_s")),
            "designs.first_record_s": median(firsts),
            "core.all_position_pairs.calls_per_e2_subject": ratio(e2_pairs, e2_subjects),
            "cli.self_s": get("cli.main", "self_s"),
            "cli.records_written": sum(s.records for s in result.steps),
            "cli.bytes_written": sum(s.bytes for s in result.steps),
            "trace.spans": span_count,
        })
        per_pass.append(metrics)
    return {key: median(m[key] for m in per_pass) for key in per_pass[0]}


def pass_cpu_s(passes: List[PassResult]) -> float:
    """CPU seconds of one pass: the sum over commands (calls and n on
    ``sweep``) of each command's median over the passes, so a slow moment
    of the host spoils one sample of one command, not a whole pass."""
    times: Dict[str, List[float]] = {}
    for result in passes:
        for step in result.steps:
            times.setdefault(step.label, []).append(step.cpu_s)
    return sum(median(values) for values in times.values())


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's output digests in bench/reference.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "freechoice" / "__init__.py").is_file():
        print(f"error: no freechoice sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    work = root / ".bench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    runner = Runner(root, work, deadline)

    # Build step: compile the package's bytecode and make sure the children
    # import this checkout's sources, not an installed copy.
    rc, _, _, _, out = runner.spawn([sys.executable, "-c",
                                     "import freechoice, sys; sys.stdout.write(freechoice.__file__)"])
    if rc != 0 or Path(out.strip()).resolve().parent != (src / "freechoice").resolve():
        print(f"error: children do not import freechoice from {src}: {out[-300:]}",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    import freechoice as fc

    env = environment(root)
    print("env " + json.dumps(env, sort_keys=True))
    rng = random.Random(args.seed)
    first_hashes: Dict[str, Dict[str, str]] = {}
    reference = {} if args.write_reference else load_reference(args.workload, args.seed)
    if args.workload == "sweep":
        points = sweep_points(rng)
        steps: List[Step] = []
        runner.probe_argv = [sys.executable, str(BENCH_DIR / "sweep_pass.py"), "--setup-only"]

        def run_one(index, traced):
            return run_sweep_pass(runner, points, index, traced, first_hashes, reference)
    else:
        steps = {"simulate": simulate_steps, "power": power_steps,
                 "exact": exact_steps}[args.workload](rng, fc)
        runner.probe_argv = [sys.executable, "-c", "import freechoice"]

        def run_one(index, traced):
            return run_cli_pass(runner, steps, index, traced, first_hashes, reference)

    try:
        for _ in range(SETUP_PROBES):
            runner.probe()
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.trace:
            plain = run_passes(run_one, args.seconds / 2, MIN_PASSES, traced=False)
            traced = run_passes(run_one, args.seconds / 2, MIN_PASSES, traced=True,
                                offset=len(plain))
            passes = plain + traced
        else:
            plain = passes = run_passes(run_one, args.seconds, MIN_PASSES, traced=False)
            traced = []
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for step in p.steps:
            if not step.ok:
                print(f"FAILED {step.label}: {step.message}")
    cpu = pass_cpu_s(plain)
    report: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_samples_s": runner.setup_s,
        "setup_wall_samples_s": runner.setup_wall_s,
        "pass_cpu_s": [p.cpu_s for p in plain],
        "pass_walls_s": [p.wall_s for p in plain],
        "pass_steps_s": [{s.label: s.seconds for s in p.steps} for p in plain],
        "pass_steps_cpu_s": [{s.label: s.cpu_s for s in p.steps} for p in plain],
        "steps": step_medians(steps, plain),
        "figures": {**workload_figures(steps, plain), "failed_frac": failed / attempted,
                    "wall_median_s": median(p.wall_s for p in plain),
                    "setup_wall_s": median(runner.setup_wall_s)},
    }
    for label, figures in report["steps"].items():
        print(f"step {label}: " + json.dumps(figures, sort_keys=True))
    print("figures " + json.dumps(report["figures"], sort_keys=True))

    if args.trace:
        layers = layer_metrics(traced)
        traced_cpu = pass_cpu_s(traced)
        layers.update({
            "trace.cpu_s": traced_cpu,
            "trace.untraced_cpu_s": cpu,
            "trace.overhead_s": traced_cpu - cpu,
        })
        report["layers"] = layers
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {"cpu_s": cpu, "setup_s": median(runner.setup_s),
                  "peak_rss_mb": runner.peak_rss_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    report["metrics"] = metrics
    if args.write_reference:
        if failed:
            print("error: not writing bench/reference.json from a failed run", file=sys.stderr)
        else:
            write_reference(args.workload, args.seed,
                            {s.label: s.digest for s in plain[0].steps if s.digest is not None})
    (work / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
