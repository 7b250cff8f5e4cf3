"""Command-line front end: tables, simulations, power studies, self-checks.

Every file-writing command also writes ``<output>.manifest.json`` recording
the command, its parameters (every parsed option except the command and the
seed, with the output path and the model's fields resolved), the seed, the
package version, and the output paths. Manifests contain no timestamps, so
re-running a command reproduces its outputs byte for byte. A command's
outputs are whole or absent: each output and the manifest are staged in a
temporary file beside the file its path resolves to before the command
works, so a path that cannot be written is refused at once, and they move
into place, manifest last, only once every one is written.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import MISSING, asdict, fields
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, get_args

from . import __version__
from .core import PositionPair, _checked_int
from .designs import (
    DESIGN_KINDS,
    TRUTH_MODES,
    DesignConfig,
    SubjectModel,
    TrialRecord,
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


def _output_path(text: str) -> str:
    # an empty path would otherwise read as no path, and the default be written
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty path")
    return text


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
    table.add_argument("--output", type=_output_path,
                       help="output path (default: table_n<N>.<fmt>)")
    table.set_defaults(func=_cmd_table)

    simulate = commands.add_parser("simulate", help="run one experiment and record every trial")
    _add_experiment_arguments(simulate)
    simulate.add_argument("--format", choices=("csv", "json"), default="csv",
                          help="trial records as CSV or JSON lines")
    simulate.add_argument("--truth-mode", choices=TRUTH_MODES, default="identity")
    simulate.add_argument("--output", type=_output_path,
                          help="output path (default: trials.csv or trials.jsonl)")
    simulate.set_defaults(func=_cmd_simulate)

    power = commands.add_parser(
        "power", help="estimate how often a design detects an effect over many replications"
    )
    _add_experiment_arguments(power)
    power.add_argument("--replications", type=int, required=True)
    power.add_argument("--alpha", type=float, default=0.05)
    power.add_argument("--output", type=_output_path, help="output path (default: power.json)")
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
    # output is opened. Every option named after a field of some model goes
    # to the model, which must have that field and be given each of its
    # fields that has no default.
    design = DesignConfig(kind=args.design, n=args.n, subjects=args.subjects, pair=args.pair,
                          object_pair=args.object_pair)
    model_class = MODELS[args.model]
    options = {field.name for model in MODELS.values() for field in fields(model)}
    given = {name: value for name, value in vars(args).items()
             if name in options and value is not None}
    ignored = [f"--{name}" for name in given if name not in {f.name for f in fields(model_class)}]
    if ignored:
        raise ValueError(f"the {args.model} model does not take {' or '.join(ignored)}")
    needed = [f"--{field.name}" for field in fields(model_class)
              if field.default is MISSING and field.name not in given]
    if needed:
        raise ValueError(f"the {args.model} model needs {' and '.join(needed)}")
    model = model_class(**given)
    _checked_int(args.threads, "threads", 1)
    return design, model


class _Outputs:
    """One command's outputs and its manifest, staged before any work.

    Entering refuses a path that is a directory or cannot be created, with
    an error naming it as given, and stages a fresh temporary file for each
    path, then for ``<first path>.manifest.json``, beside the file each path
    resolves to, created as a plain ``open`` creates files. It writes the
    manifest at once: the command, every parsed option but the command and
    the seed updated with ``resolved``, the seed, the version and the paths.
    It gives the paths' open handles. When the ``with`` block ends normally,
    each temporary file takes the permission bits of the file it replaces,
    every old file moves aside to a hidden sibling, and the temporary files
    replace them in order, manifest last, so a symbolic link stays a link.
    If a move fails, the new files placed so far go and the old files come
    back. Either way no temporary file or hidden sibling is left.
    """

    def __init__(self, args: argparse.Namespace, *paths: str, **resolved):
        self._args, self._paths, self._resolved = args, paths, resolved
        self.manifest = paths[0] + ".manifest.json"
        self._staged: List[Tuple[TextIO, str]] = []  # (temporary file, resolved path)

    def __enter__(self) -> List[TextIO]:
        try:
            for path in (*self._paths, self.manifest):
                target = os.path.realpath(path)
                if os.path.isdir(target):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
                directory, name = os.path.split(target)
                try:
                    handle = open(os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp"),
                                  "x", newline="")
                except OSError as exc:
                    exc.filename = path
                    raise
                self._staged.append((handle, target))
            parameters = {name: value for name, value in vars(self._args).items()
                          if name not in ("command", "func", "seed")}
            _dump(self._staged[-1][0], {
                "command": self._args.command, "parameters": {**parameters, **self._resolved},
                "seed": getattr(self._args, "seed", None), "version": __version__,
                "outputs": list(self._paths)})
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        return [handle for handle, _ in self._staged[:-1]]

    def __exit__(self, failure, *_) -> None:
        aside: List[Tuple[str, str]] = []  # (hidden sibling holding the old file, target)
        placed: List[str] = []
        try:
            for handle, _ in self._staged:
                handle.close()
            if failure is None:
                for handle, target in self._staged:
                    if os.path.isfile(target):
                        os.chmod(handle.name, os.stat(target).st_mode & 0o7777)
                        old = handle.name.removesuffix(".tmp") + ".old"
                        os.replace(target, old)
                        aside.append((old, target))
                for handle, target in self._staged:
                    os.replace(handle.name, target)
                    placed.append(target)
        except BaseException:
            # the new files placed so far go and the old ones come back
            for target in set(placed) - {target for _, target in aside}:
                os.remove(target)
            for old, target in aside:
                os.replace(old, target)
            raise
        finally:
            for handle, _ in self._staged:
                if os.path.exists(handle.name):
                    os.remove(handle.name)
        for old, _ in aside:
            os.remove(old)


def _dump(handle: TextIO, obj) -> None:
    # indented, key-sorted JSON with a final newline
    json.dump(obj, handle, indent=2, sort_keys=True)
    handle.write("\n")


def _cmd_table(args: argparse.Namespace) -> int:
    if not 2 <= args.n <= 20:
        raise ValueError(f"--n must lie in 2..20, got {args.n}")
    # one reading of --p for both backends: the float one takes its double
    p = _checked_weight(args.p, "p", exact=True)
    output = args.output or f"table_n{args.n}.{args.format}"
    outputs = _Outputs(args, output, output=output)
    with outputs as (handle,):
        table = expected_spread_table(args.n, p if args.exact_rational else float(p),
                                      exact=args.exact_rational)
        if args.format == "csv":
            table.write_csv(handle)
        else:
            _dump(handle, table.to_json_obj())
    _print_rounded_triangle(table)
    print(f"wrote {len(table.values)} pairs to {output} (manifest {outputs.manifest})")
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
    blocks = _experiment_blocks(design, model, _as_seed_sequence(args.seed),
                                random_truth=args.truth_mode == "random")
    output = args.output or ("trials.csv" if args.format == "csv" else "trials.jsonl")
    summary_path = output + ".summary.json"
    line = _csv_line if args.format == "csv" else _json_line
    tally = _SpreadTally(design, described=True)
    outputs = _Outputs(args, output, summary_path, output=output, **asdict(model))
    with outputs as (records, summary_file):
        if args.format == "csv":
            records.write(",".join(TrialRecord._fields) + "\n")
        for block in blocks:
            records.write(_lines(block, line))
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
        summary.update(tally.se_bootstrap(args.seed))
        _dump(summary_file, summary)
    mean = summary["spread"]["mean"]
    print(f"simulated {design.subjects} subjects: mean spread {mean:.6f}")
    print(f"wrote {output}, {summary_path} (manifest {outputs.manifest})")
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    design, model = _build_experiment(args)
    output = args.output or "power.json"
    outputs = _Outputs(args, output, output=output, **asdict(model))
    with outputs as (handle,):
        report = power_report(design, model, replications=args.replications, alpha=args.alpha,
                              seed=args.seed)
        _dump(handle, report)
    print(f"rejection rate {report['rejection_rate']:.4f} over {args.replications} replications")
    print(f"wrote {output} (manifest {outputs.manifest})")
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
