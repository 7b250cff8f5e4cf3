"""Command-line front end: tables, simulations, power studies, self-checks.

Every file-writing command also writes ``<output>.manifest.json`` recording
the command, its full parameter set, the seed, the package version, and the
output paths. Manifests contain no timestamps, so re-running a command
reproduces its outputs byte for byte. A command's outputs are whole or
absent: each is written to a temporary file beside its path, and they move
into place, manifest last, only once every one is written.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, get_args

import numpy as np

from . import __version__
from .core import PositionPair, _checked_int
from .designs import (
    DESIGN_KINDS,
    TRUTH_MODES,
    DesignConfig,
    SubjectModel,
    TrialRecord,
    TwoParamModel,
    _as_seed_sequence,
    _experiment_blocks,
    _fields,
)
# bench/tracer.py wraps this name of the module
from .designs import iter_experiment  # noqa: F401
from .exact import expected_spread_table
from .noise import _checked_weight
# bench/tracer.py wraps summarize, compare and bootstrap_se under these names
from .stats import _SpreadTally, bootstrap_se, compare, power_report, summarize  # noqa: F401
from .verify import LEVELS, run_checks

__all__ = ["main"]

MODELS = {model.kind: model for model in get_args(SubjectModel)}


def _parse_pair(text: str) -> Tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freechoice",
        description="Expected-spread tables, experiment simulations, and power studies "
        "for rank-choose-rank protocols.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    table = commands.add_parser(
        "table", help="expected spread for every comparison pair under the null model"
    )
    table.add_argument("--n", type=int, required=True, help="number of objects (2..20)")
    table.add_argument("--p", required=True, help="noise weight in [0, 1), decimal or fraction")
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument(
        "--exact-rational",
        action="store_true",
        help="compute in exact rational arithmetic",
    )
    table.add_argument("--output", default=None, help="output path (default: table_n<N>.<fmt>)")
    table.set_defaults(func=_cmd_table)

    simulate = commands.add_parser("simulate", help="run one experiment and record every trial")
    _add_experiment_arguments(simulate)
    simulate.add_argument("--format", choices=("csv", "json"), default="csv",
                          help="trial records as CSV or JSON lines")
    simulate.add_argument("--truth-mode", choices=TRUTH_MODES, default="identity")
    simulate.add_argument("--output", default=None,
                          help="output path (default: trials.csv or trials.jsonl)")
    simulate.set_defaults(func=_cmd_simulate)

    power = commands.add_parser(
        "power", help="estimate how often a design detects an effect over many replications"
    )
    _add_experiment_arguments(power)
    power.add_argument("--replications", type=int, required=True)
    power.add_argument("--alpha", type=float, default=0.05)
    power.add_argument("--output", default=None, help="output path (default: power.json)")
    power.set_defaults(func=_cmd_power)

    verify = commands.add_parser("verify", help="run the self-verification suite")
    verify.add_argument("--level", choices=LEVELS, default="quick")
    verify.set_defaults(func=_cmd_verify)
    return parser


def _add_experiment_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--design", choices=DESIGN_KINDS, required=True)
    sub.add_argument("--model", choices=tuple(MODELS), required=True)
    sub.add_argument("--n", type=int, required=True, help="number of objects")
    sub.add_argument("--subjects", type=int, required=True)
    sub.add_argument("--pair", type=_parse_pair, default=None,
                     help="comparison positions i,j (classic and e0)")
    sub.add_argument("--object-pair", type=_parse_pair, default=None,
                     help="compared objects a,b (e1)")
    sub.add_argument("--p", type=float, required=True, help="noise weight, 0 <= p < 1")
    sub.add_argument("--P", type=float, default=None,
                     help="pre-choice noise weight (two-param model)")
    sub.add_argument("--shift", type=int, default=None,
                     help="positions moved after a close choice (dissonance-shift; default 1)")
    sub.add_argument("--threshold", type=int, default=None,
                     help="largest first-ranking gap that still shifts (default 3)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, default=1,
                     help="no effect; checked and recorded in the manifest for compatibility")


def _build_experiment(args: argparse.Namespace) -> Tuple[DesignConfig, SubjectModel]:
    # The design and model of a simulate or power command, checked before any
    # output is opened; --P, --shift and --threshold are model fields beside p.
    design = DesignConfig(kind=args.design, n=args.n, subjects=args.subjects, pair=args.pair,
                          object_pair=args.object_pair)
    model_class = MODELS[args.model]
    given = {name: getattr(args, name) for name in ("P", "shift", "threshold")
             if getattr(args, name) is not None}
    ignored = [f"--{name}" for name in given if name not in {f.name for f in fields(model_class)}]
    if ignored:
        raise ValueError(f"the {args.model} model does not take {' or '.join(ignored)}")
    if model_class is TwoParamModel and args.P is None:
        raise ValueError("the two-param model needs --P")
    model = model_class(p=args.p, **given)
    _checked_int(args.threads, "threads", 1)
    return design, model


class _Outputs:
    """One command's output files, written whole or not at all.

    :meth:`open` gives a fresh temporary file beside each path, created as
    a plain ``open`` creates files. When the ``with`` block ends normally,
    each replaces its path in the order opened; if anything raises, from
    the block or a replacement, every temporary file left is deleted.
    """

    def __init__(self):
        self._staged: List[Tuple[str, str]] = []  # (temporary file, its path)

    def __enter__(self) -> "_Outputs":
        return self

    def open(self, path: str) -> TextIO:
        directory, name = os.path.split(path)
        temporary = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
        handle = open(temporary, "x", newline="")
        self._staged.append((temporary, path))
        return handle

    def json(self, path: str, obj) -> None:
        # indented, key-sorted JSON with a final newline
        with self.open(path) as handle:
            json.dump(obj, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def manifest(self, command: str, parameters: Dict[str, object], seed: Optional[int],
                 outputs: List[str]) -> str:
        path = outputs[0] + ".manifest.json"
        self.json(path, {"command": command, "parameters": parameters, "seed": seed,
                         "version": __version__, "outputs": outputs})
        return path

    def __exit__(self, failure, *_) -> None:
        try:
            if failure is None:
                for temporary, path in self._staged:
                    os.replace(temporary, path)
        finally:
            for temporary, _ in self._staged:
                if os.path.exists(temporary):
                    os.remove(temporary)


def _experiment_parameters(args: argparse.Namespace, model: SubjectModel, output: str,
                           **extra) -> Dict[str, object]:
    # Manifest parameters shared by the simulate and power commands; a model
    # field is None for the models without it.
    return {
        "design": args.design,
        "model": args.model,
        "n": args.n,
        "subjects": args.subjects,
        "pair": list(args.pair) if args.pair else None,
        "object_pair": list(args.object_pair) if args.object_pair else None,
        "p": args.p,
        **{name: getattr(model, name, None) for name in ("P", "shift", "threshold")},
        "threads": args.threads,
        "output": output,
        **extra,
    }


def _cmd_table(args: argparse.Namespace) -> int:
    if not 2 <= args.n <= 20:
        raise ValueError(f"--n must lie in 2..20, got {args.n}")
    # one reading of --p for both backends: the float one takes its double
    p = _checked_weight(args.p, "p", exact=True)
    table = expected_spread_table(args.n, p if args.exact_rational else float(p),
                                  exact=args.exact_rational)
    output = args.output or f"table_n{args.n}.{args.format}"
    with _Outputs() as out:
        if args.format == "csv":
            with out.open(output) as handle:
                table.write_csv(handle)
        else:
            out.json(output, table.to_json_obj())
        manifest = out.manifest(
            "table",
            {
                "n": args.n,
                "p": str(args.p),
                "format": args.format,
                "exact_rational": args.exact_rational,
                "output": output,
            },
            None,
            [output],
        )
    _print_rounded_triangle(table)
    print(f"wrote {len(table.values)} pairs to {output} (manifest {manifest})")
    return 0


def _print_rounded_triangle(table) -> None:
    rounded = table.rounded()
    n = table.n
    width = max(len(text) for text in rounded.values()) + 2
    header = "".join(f"{f'i={i}' if i == 1 else i:>{width}}" for i in range(1, n))
    print(f"{'':>5}{header}")
    for j in range(2, n + 1):
        cells = "".join(f"{rounded[PositionPair(i, j)]:>{width}}" for i in range(1, j))
        print(f"{f'j={j}':>5}{cells}")


# One template per trial record, filled with its six fields in order and
# the flag as a word. The bytes equal those of csv.writer with "\n" line
# ends and of json.dump(record._asdict(), sort_keys=True): the arm is a bare
# word, and the other fields are ints and a bool.
_csv_line = "{},{},{},{},{},{}\n".format
_json_line = ('{{"arm": "{1}", "consistent": {4}, "i": {2}, "j": {3}, "spread": {5}, '
              '"subject": {0}}}\n').format


def _lines(block, line) -> str:
    # the records of a block of columns, written in one string
    subject, arm, i, j, consistent, spread = _fields(block)
    flags = [("false", "true")[flag] for flag in consistent]
    return "".join(map(line, subject, arm, i, j, flags, spread))


def _cmd_simulate(args: argparse.Namespace) -> int:
    design, model = _build_experiment(args)
    output = args.output or ("trials.csv" if args.format == "csv" else "trials.jsonl")
    summary_path = output + ".summary.json"
    blocks = _experiment_blocks(design, model, _as_seed_sequence(args.seed),
                                random_truth=args.truth_mode == "random")
    line = _csv_line if args.format == "csv" else _json_line
    tally = _SpreadTally(design.n, ordered=design.kind == "e3")
    with _Outputs() as out:
        with out.open(output) as handle:
            if args.format == "csv":
                handle.write(",".join(TrialRecord._fields) + "\n")
            for block in blocks:
                handle.write(_lines(block, line))
                tally.add(block)
        spread = summarize(tally.counts())
        consistent, reversal = tally.counts(consistent=True), tally.counts(consistent=False)
        summary: Dict[str, object] = {
            "design": design.kind,
            "model": model.kind,
            "n": design.n,
            "subjects": design.subjects,
            "seed": args.seed,
            "spread": asdict(spread),
            "consistent_fraction": sum(consistent.values()) / spread.count,
            "spread_by_choice": {
                label: asdict(summarize(counts)) if counts else None
                for label, counts in (("consistent", consistent), ("reversal", reversal))
            },
        }
        if design.kind == "e0":
            experimental, control, comparison = tally.arms()
            summary["experimental"] = asdict(experimental)
            summary["control"] = asdict(control)
            summary["comparison"] = asdict(comparison) if comparison else None
            if comparison is None:
                summary["note"] = "both arms have zero variance; no comparison scale"
        if tally.ordered is not None:
            summary["se_bootstrap"] = bootstrap_se(np.concatenate(tally.ordered), seed=args.seed)
        out.json(summary_path, summary)
        manifest = out.manifest(
            "simulate",
            _experiment_parameters(
                args, model, output, truth_mode=args.truth_mode, format=args.format
            ),
            args.seed,
            [output, summary_path],
        )
    mean = summary["spread"]["mean"]
    print(f"simulated {design.subjects} subjects: mean spread {mean:.6f}")
    print(f"wrote {output}, {summary_path} (manifest {manifest})")
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    design, model = _build_experiment(args)
    report = power_report(design, model, replications=args.replications, alpha=args.alpha,
                          seed=args.seed)
    output = args.output or "power.json"
    with _Outputs() as out:
        out.json(output, report)
        manifest = out.manifest(
            "power",
            _experiment_parameters(
                args, model, output, replications=args.replications, alpha=args.alpha
            ),
            args.seed,
            [output],
        )
    print(f"rejection rate {report['rejection_rate']:.4f} over {args.replications} replications")
    print(f"wrote {output} (manifest {manifest})")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks(args.level)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += not result.passed
        print(f"{status} {result.name}: {result.detail}")
    if failures:
        print(f"{failures} of {len(results)} checks failed at level {args.level!r}")
        return 1
    print(f"all {len(results)} checks passed at level {args.level!r}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
