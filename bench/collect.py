"""Run the benchmark over several seeds and summarize medians and spreads.

Usage (from the root of a source checkout):

    python3 bench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 --out baseline.json
    python3 bench/collect.py --workloads sweep --seeds 1 2 3 4 5 --out sweep-check.json

Each (workload, seed) is one ``bench/run.py --trace 0`` run, one after
another. For every end-to-end metric the summary gives the median of the
runs and the spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the bound from
BENCHMARK.json. The workload figures of each run's report (subjects/s,
rational table time, verify time, per-command medians) are summarized the
same way. ``--trace-seed`` adds one ``--trace 1`` run per workload and
stores its per-layer metrics. ``--write-reference`` makes every run store
its output digests in bench/reference.json (see run.py).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int, write_reference: bool = False):
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if write_reference:
        argv.append("--write-reference")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads(Path(".bench_work/report.json").read_text())
    return result, report


def spread(values):
    values = sorted(values)
    mid = statistics.median(values)
    if len(values) < 2:
        return {"median": mid, "q1": mid, "q3": mid, "spread": 0.0, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid if mid else None,
            "runs": len(values)}


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs, figures, steps = [], {}, {}
        for seed in args.seeds:
            result, report = run(workload, seed, args.seconds, 0, args.write_reference)
            out.setdefault("environment", report["environment"])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "passes": report["passes"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            for key, value in report["figures"].items():
                figures.setdefault(key, []).append(value)
            for label, step in report["steps"].items():
                for key in ("median_s", "median_cpu_s", "subjects_per_s"):
                    if key in step:
                        steps.setdefault(label, {}).setdefault(key, []).append(step[key])
            print(workload, seed, json.dumps(runs[-1]), file=sys.stderr)
        entry = {
            "runs": runs,
            "end_to_end": {
                name: {**spread([r[name] for r in runs]), "bound": bound}
                for name, bound in bounds.items()
            },
            "figures": {key: spread(values) for key, values in figures.items()},
            "steps": {label: {key: spread(values) for key, values in fields.items()}
                      for label, fields in steps.items()},
        }
        if args.trace_seed is not None:
            result, _ = run(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        out["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:9s} {name:12s} median {s['median']:.4g} spread {s['spread']:.3f} "
                  f"(bound {s['bound']})", file=sys.stderr)
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
