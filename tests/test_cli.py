"""End-to-end checks of the command-line interface."""

import csv
import errno
import filecmp
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.random import MT19937, Generator

import freechoice.core as core
import freechoice
from freechoice import __version__, noise
from freechoice.cli import main
from freechoice.designs import (
    DesignConfig,
    DissonanceShiftModel,
    MemoryModel,
    TrialRecord,
    run_experiment,
    run_subject,
)
from freechoice.exact import expected_spread_positions, expected_spread_two_param, round_half_away
from freechoice.stats import bootstrap_se
from freechoice.verify import run_checks


# one small run of each file-writing command, without its --output
SMALL_RUNS = {
    "table": ["table", "--n", "5", "--p", "0.5"],
    "simulate": ["simulate", "--design", "classic", "--model", "null", "--n", "5",
                 "--pair", "2,4", "--subjects", "10", "--p", "0.3"],
    "power": ["power", "--design", "classic", "--model", "null", "--n", "5",
              "--pair", "2,4", "--subjects", "10", "--p", "0.3", "--replications", "3"],
}
# the files each of them writes, as suffixes of its --output path
OUTPUTS = {
    "simulate": {"records": "", "summary": ".summary.json", "manifest": ".manifest.json"},
    "power": {"report": "", "manifest": ".manifest.json"},
    "table": {"output": "", "manifest": ".manifest.json"},
}


@pytest.fixture(autouse=True)
def no_temporary_file_left(tmp_path):
    # however a command ends, it leaves none of its temporary files behind
    yield
    assert sorted(tmp_path.rglob(".*.tmp")) == []


def run_table(tmp_path, *extra):
    out = tmp_path / "table.csv"
    code = main(["table", "--n", "12", "--p", "0.8", "--output", str(out), *extra])
    assert code == 0
    return out


class TestTable:
    def test_csv_output(self, tmp_path):
        out = run_table(tmp_path)
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 66
        assert set(rows[0]) == {"i", "j", "expected_spread", "rounded"}
        for row in rows:
            i, j = int(row["i"]), int(row["j"])
            value = float(row["expected_spread"])
            assert value == pytest.approx(
                expected_spread_positions(12, 0.8, (i, j)), abs=1e-12
            )
            assert row["rounded"] == round_half_away(value)
        assert (rows[0]["i"], rows[0]["j"]) == ("1", "2")

    def test_csv_uses_lf_only(self, tmp_path):
        out = run_table(tmp_path)
        assert b"\r" not in out.read_bytes()

    def test_json_output(self, tmp_path):
        out = tmp_path / "table.json"
        assert main(["table", "--n", "5", "--p", "0.5", "--format", "json",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 5
        assert payload["backend"] == "float"
        assert len(payload["values"]) == 10

    def test_exact_rational_json(self, tmp_path):
        out = tmp_path / "table.json"
        assert main(["table", "--n", "6", "--p", "0.8", "--format", "json",
                     "--exact-rational", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["backend"] == "rational"
        assert payload["p"] == "4/5"
        total = sum(Fraction(entry["expected_spread"]) for entry in payload["values"])
        assert total == 0

    @pytest.mark.parametrize("n, p, fmt, digest", [
        ("12", "0.8", "csv", "5f6310029f90014fa503b3c3c95af32050ae12525fd8e35713c73db487578115"),
        ("15", "0.8", "csv", "c5bd221bbf53c85d545447cabb573a90b61d995f61256a3b21109fa7ae9a7ec5"),
        ("9", "4/5", "json", "9cde15f44282ac8351a8cfdc973df89fcbaf515059ea6b4186c2341f25140b30"),
        ("7", "613/1000", "csv", "d07c7d44aec1741a516a16eefbec79aaad860283cb3e6bea2c2dde9d57b0d290"),
    ])
    def test_exact_rational_bytes(self, tmp_path, n, p, fmt, digest):
        # recorded with the Fraction LU solver that the integer elimination
        # replaced; exact values must not move by a single byte
        out = tmp_path / f"table.{fmt}"
        assert main(["table", "--n", n, "--p", p, "--format", fmt,
                     "--exact-rational", "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_prints_triangle_and_summary(self, tmp_path, capsys):
        run_table(tmp_path)
        lines = capsys.readouterr().out.splitlines()
        assert len([line for line in lines if line.strip().startswith("j=")]) == 11
        assert "wrote 66 pairs" in lines[-1]

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["table", "--n", "5", "--p", "0.5"]) == 0
        assert (tmp_path / "table_n5.csv").is_file()
        assert (tmp_path / "table_n5.csv.manifest.json").is_file()

    def test_manifest_contents(self, tmp_path):
        out = run_table(tmp_path)
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert manifest["command"] == "table"
        assert manifest["version"] == __version__
        assert manifest["seed"] is None
        assert manifest["outputs"] == [str(out)]
        assert manifest["parameters"]["n"] == 12

    def test_p_follows_the_weight_rule(self, tmp_path, capsys):
        # both backends read --p alike: a fraction reads, and an unreadable
        # weight is named
        for extra in ([], ["--exact-rational"]):
            a, b = tmp_path / "a.csv", tmp_path / "b.csv"
            assert main(["table", "--n", "5", "--p", "0.8", "--output", str(a), *extra]) == 0
            assert main(["table", "--n", "5", "--p", "4/5", "--output", str(b), *extra]) == 0
            assert a.read_bytes() == b.read_bytes()
            capsys.readouterr()
            assert main(["table", "--n", "5", "--p", "abc", "--output", str(a), *extra]) == 2
            assert "p must be a number in [0, 1), got 'abc'" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        for sub in ("a", "b"):
            workdir = tmp_path / sub
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert main(["table", "--n", "8", "--p", "0.6"]) == 0
        for name in ("table_n8.csv", "table_n8.csv.manifest.json"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


class TestSimulate:
    def test_e3_csv_and_summary(self, tmp_path):
        out = tmp_path / "trials.csv"
        code = main([
            "simulate", "--design", "e3", "--model", "null", "--n", "15",
            "--subjects", "105", "--p", "0.5", "--seed", "7", "--output", str(out),
        ])
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 105
        assert sorted({(int(r["i"]), int(r["j"])) for r in rows}) == [
            (i, j) for i in range(1, 16) for j in range(i + 1, 16)
        ]
        assert {r["arm"] for r in rows} == {"none"}
        assert {r["consistent"] for r in rows} <= {"true", "false"}
        summary = json.loads((tmp_path / "trials.csv.summary.json").read_text())
        assert summary["design"] == "e3"
        assert summary["model"] == "null"
        assert summary["subjects"] == 105
        assert summary["seed"] == 7
        assert summary["spread"]["count"] == 105
        assert summary["se_bootstrap"] > 0
        assert 0.0 <= summary["consistent_fraction"] <= 1.0
        assert summary["spread_by_choice"]["consistent"]["count"] > 0

    @pytest.mark.own_process
    def test_memory_does_not_grow_with_subjects(self, tmp_path, capsys):
        # the summary reads spread counts, so a tenfold run keeps no more
        # memory; a list of 36,864 more spreads alone would add 295 KB
        def run(subjects):
            assert main(["simulate", "--design", "classic", "--model", "null", "--n", "6",
                         "--pair", "2,5", "--subjects", str(subjects), "--p", "0.5",
                         "--output", str(tmp_path / "t.csv")]) == 0

        def peak(subjects):
            # the same warm-up precedes each reading: imports, caches and the
            # one-time allocations of full 1,024-subject blocks
            run(2_048)
            tracemalloc.start()
            try:
                run(subjects)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the peak falls at a block start, on top of the lines the CSV text
        # buffer holds then (up to about 30 KB) and of what earlier runs left
        # in the free lists; the warm-up fixes the latter, and runs of four
        # blocks or more meet the buffer's fuller states
        small = peak(4_096)
        growth = peak(40_960) - small
        capsys.readouterr()
        assert growth < 32_000

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "trials.jsonl"
        code = main([
            "simulate", "--design", "e2", "--model", "memory", "--n", "6",
            "--subjects", "20", "--p", "0.4", "--format", "json", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 20
        record = json.loads(lines[0])
        assert set(record) == {"subject", "arm", "i", "j", "consistent", "spread"}

    def test_record_layout_is_trial_record(self, tmp_path):
        # one layout: the CSV header, the JSON keys and the library records
        # all come from TrialRecord, whose values are plain Python scalars
        args = ["simulate", "--design", "e0", "--model", "dissonance-shift", "--n", "7",
                "--subjects", "30", "--p", "0.6", "--pair", "2,4", "--seed", "9"]
        csv_out, json_out = tmp_path / "trials.csv", tmp_path / "trials.jsonl"
        assert main([*args, "--output", str(csv_out)]) == 0
        assert main([*args, "--format", "json", "--output", str(json_out)]) == 0
        with open(csv_out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == TrialRecord._fields
        lines = [json.loads(line) for line in json_out.read_text().splitlines()]
        assert all(set(line) == set(TrialRecord._fields) for line in lines)
        design = DesignConfig(kind="e0", n=7, subjects=30, pair=(2, 4))
        records = run_experiment(design, DissonanceShiftModel(p=0.6), 9)
        assert {type(value) for record in records for value in record} <= {int, str, bool}
        assert lines == [record._asdict() for record in records]
        assert rows[1:] == [
            [str(value).lower() if type(value) is bool else str(value) for value in record]
            for record in records
        ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("design, extra", [
        ("e0", ["--pair", "2,4"]),  # the experimental and control arms
        ("e2", []),  # arm "none"
    ])
    def test_record_bytes_match_library_writers(self, tmp_path, fmt, design, extra):
        # the per-record templates write what csv.writer and json.dump write
        out = tmp_path / "trials.out"
        assert main(["simulate", "--design", design, "--model", "dissonance-shift",
                     "--n", "7", "--subjects", "60", "--p", "0.6", "--seed", "9",
                     "--format", fmt, "--output", str(out), *extra]) == 0
        config = DesignConfig(kind=design, n=7, subjects=60,
                              pair=(2, 4) if extra else None)
        records = run_experiment(config, DissonanceShiftModel(p=0.6), 9)
        assert {r.consistent for r in records} == {True, False}
        assert min(r.spread for r in records) < 0
        expected = io.StringIO()
        if fmt == "csv":
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow(TrialRecord._fields)
            for record in records:
                writer.writerow(record._replace(consistent=str(record.consistent).lower()))
        else:
            for record in records:
                json.dump(record._asdict(), expected, sort_keys=True)
                expected.write("\n")
        assert out.read_bytes() == expected.getvalue().encode()

    def test_e0_summary_compares_arms(self, tmp_path):
        out = tmp_path / "trials.csv"
        code = main([
            "simulate", "--design", "e0", "--model", "null", "--n", "6",
            "--subjects", "40", "--p", "0.5", "--pair", "2,4", "--output", str(out),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "trials.csv.summary.json").read_text())
        assert summary["experimental"]["count"] == 20
        assert summary["control"]["count"] == 20
        comparison = summary["comparison"]
        assert comparison["difference"] == pytest.approx(
            summary["experimental"]["mean"] - summary["control"]["mean"], abs=1e-12
        )

    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        args = ["simulate", "--design", "classic", "--model", "two-param", "--n", "8",
                "--subjects", "50", "--p", "0.3", "--P", "0.7", "--pair", "3,6",
                "--seed", "11"]
        for sub in ("a", "b"):
            workdir = tmp_path / sub
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert main(args) == 0
        for name in ("trials.csv", "trials.csv.summary.json", "trials.csv.manifest.json"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)

    def test_two_arm_difference_matches_engine(self, tmp_path):
        # reduced-scale version of the documented example: 1e5 subjects per
        # arm instead of 1e6, same statistical assertion
        n, p, P, pair = 15, 0.5, 0.9, (7, 9)
        out = tmp_path / "trials.csv"
        code = main([
            "simulate", "--design", "e0", "--model", "two-param", "--n", str(n),
            "--subjects", "200000", "--p", str(p), "--P", str(P),
            "--pair", f"{pair[0]},{pair[1]}", "--seed", "5", "--output", str(out),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "trials.csv.summary.json").read_text())
        exact = expected_spread_two_param(n, p, P, "e0-experimental", pair=pair) - (
            expected_spread_two_param(n, p, P, "e0-control", pair=pair)
        )
        comparison = summary["comparison"]
        assert comparison["difference"] == pytest.approx(exact, abs=3 * comparison["se"])


class TestPower:
    def test_report_file(self, tmp_path):
        out = tmp_path / "power.json"
        code = main([
            "power", "--design", "e2", "--model", "dissonance-shift", "--n", "6",
            "--subjects", "50", "--p", "0.3", "--shift", "2", "--threshold", "6",
            "--replications", "40", "--seed", "3", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["replications"] == 40
        assert report["rejection_rate"] == 1.0
        manifest = json.loads((tmp_path / "power.json.manifest.json").read_text())
        assert manifest["parameters"]["shift"] == 2
        assert manifest["parameters"]["threshold"] == 6

    def test_null_rate_is_small(self, tmp_path):
        out = tmp_path / "power.json"
        code = main([
            "power", "--design", "e2", "--model", "null", "--n", "6",
            "--subjects", "60", "--p", "0.5", "--replications", "60",
            "--seed", "9", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["rejection_rate"] <= 0.25


class TestVerifyCommand:
    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_quick_level_passes(self, capsys, level):
        assert main(["verify", "--level", level]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS ") >= 10
        assert "all" in out.splitlines()[-1]

    def test_check_names_are_pinned(self):
        # each name is its check function's, without "_check_" and with dashes
        full = ["spread-definition", "definition-glue", "swap-matrix", "mix-closed-form",
                "factored-vs-enumeration", "zero-sum", "reversal-symmetry", "uniform-limit",
                "reference-table", "design-oracle", "conditional", "display-rounding",
                "exact-backend", "brute-force", "lumping", "equivariance",
                "random-distributions"]
        assert [result.name for result in run_checks("full")] == full
        assert [result.name for result in run_checks("quick")] == full[:12]

    def test_detects_planted_sign_error(self, capsys, monkeypatch):
        original = core.spread_simplified

        def flipped(pair, s2, s3):
            return -original(pair, s2, s3)

        monkeypatch.setattr(core, "spread_simplified", flipped)
        assert main(["verify", "--level", "quick"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out


class TestStreamLayout:
    """Seed -> bytes contract, with values recorded on version 0.1.0.

    The spawn keys under a seed are 0 for the e3 assignment, 1 per subject,
    2 per power replication, 3 for the report run and 4 for the bootstrap.
    Integers and files are compared exactly; floats to 1e-12 relative,
    because BLAS and SIMD kernels may move their last bits.
    """

    def test_simulate_e3(self, tmp_path):
        out = tmp_path / "trials.csv"
        assert main(["simulate", "--design", "e3", "--model", "null", "--n", "5",
                     "--subjects", "30", "--p", "0.6", "--seed", "11",
                     "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "0c56628bbc4636ec2dee23284863d09e724395c399dc59434252b4ad0dcaadeb"
        )
        summary = json.loads((tmp_path / "trials.csv.summary.json").read_text())
        assert summary["spread"]["mean"] == pytest.approx(-0.1, rel=1e-12)
        assert summary["se_bootstrap"] == pytest.approx(0.30796355555739313, rel=1e-12)

    def test_simulate_e3_covers_across_blocks(self, tmp_path):
        # 32 covers of 66 pairs over three blocks of 1,024; covers straddle
        # both block boundaries
        out = tmp_path / "trials.csv"
        assert main(["simulate", "--design", "e3", "--model", "null", "--n", "12",
                     "--subjects", "2112", "--p", "0.8", "--seed", "5",
                     "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b3e0ff0e05f66b1f8090f0e477d406a5ba0f9790b7a731114533f9f47d2fb171"
        )
        summary = json.loads((tmp_path / "trials.csv.summary.json").read_text())
        assert summary["spread"]["mean"] == pytest.approx(-0.004261363636363636, rel=1e-12)
        assert summary["se_bootstrap"] == pytest.approx(0.03397633449780093, rel=1e-12)

    def test_simulate_across_blocks(self, tmp_path):
        # 2,100 subjects span three blocks of 1,024; --threads has no effect
        # but is still accepted and recorded
        out = tmp_path / "trials.csv"
        assert main(["simulate", "--design", "e2", "--model", "memory", "--n", "12",
                     "--subjects", "2100", "--p", "0.8", "--truth-mode", "random",
                     "--threads", "2", "--seed", "7", "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "29c7235388dca4c8c62558298b97f79afefe02b8fbf84e4a12fff9715fe8c51d"
        )
        summary = json.loads((tmp_path / "trials.csv.summary.json").read_text())
        assert summary["spread"]["mean"] == pytest.approx(0.16238095238095238, rel=1e-12)
        manifest = json.loads((tmp_path / "trials.csv.manifest.json").read_text())
        assert manifest["parameters"]["threads"] == 2

    @pytest.mark.parametrize(
        "args, digest, mean",
        [
            (["--design", "classic", "--model", "null", "--n", "6", "--pair", "2,5",
              "--subjects", "40", "--p", "0.6", "--seed", "3"],
             "9bb03ac4f806ec7c91d2aae7fc32606d345b7459a32728ebab28d70db74d32fe", 0.025),
            (["--design", "e0", "--model", "two-param", "--n", "7", "--pair", "3,4",
              "--subjects", "40", "--p", "0.3", "--P", "0.8", "--seed", "4",
              "--format", "json"],
             "babe6593939a83f4d35ca102afc21cc8e5808bec9e90ab0cee7cb14ec2ae3252", 1.6),
            (["--design", "e1", "--model", "null", "--n", "8", "--object-pair", "2,6",
              "--subjects", "40", "--p", "0.7", "--seed", "5"],
             "c4617673ff7848d4f7e13c4db601cc74fddbcc4f057eced46d22d6395ce2a489", -0.125),
            # shift 2 on six positions pushes objects against both ends of the board
            (["--design", "e2", "--model", "dissonance-shift", "--n", "6", "--shift", "2",
              "--threshold", "4", "--subjects", "60", "--p", "0.5", "--seed", "6"],
             "7b19e93dd3915e62b2dbe9e249064164bc7b52bc649076506b5fa971c12d02cf",
             2.066666666666667),
            # one adjacent pair: every swap position is drawn from a range of one
            (["--design", "e2", "--model", "memory", "--n", "2", "--subjects", "30",
              "--p", "0.5", "--seed", "8"],
             "9c1f81992d2f1635634406498f1270d7d1cf1f016d076156684c42e5e9ced5fb",
             0.9333333333333333),
        ],
        ids=["classic-null", "e0-two-param-json", "e1-null", "e2-dissonance-shift",
             "e2-memory-n2"],
    )
    def test_simulate_designs(self, tmp_path, args, digest, mean):
        out = tmp_path / "trials.out"
        assert main(["simulate", *args, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        summary = json.loads((tmp_path / "trials.out.summary.json").read_text())
        assert summary["spread"]["mean"] == pytest.approx(mean, rel=1e-12)

    # every manifest field, the version included; the outputs are named as
    # given, relative to the working directory
    @pytest.mark.parametrize(
        "args, digest",
        [
            (["table", "--n", "6", "--p", "0.7", "--output", "t.csv"],
             "431c1764a492069cdf083ff34bffe0af4629aa3398077be3cefc0199b6ea01fa"),
            (["table", "--n", "6", "--p", "3/4", "--format", "json", "--exact-rational",
              "--output", "t.json"],
             "6e50d51651cf5c4116b542e955c3de003a611582e6cb67addf193d593c192f42"),
            (["simulate", "--design", "e2", "--model", "dissonance-shift", "--n", "6",
              "--subjects", "10", "--p", "0.5", "--output", "d.csv"],
             "77177f02d9fc093edb6032348689242e34b3b1b7dc3e020b3250e988aa07bde9"),
            (["simulate", "--design", "e0", "--model", "two-param", "--n", "6",
              "--subjects", "10", "--pair", "2,4", "--p", "0.5", "--P", "0.7",
              "--format", "json", "--threads", "2", "--output", "e.jsonl"],
             "becd22317df1e4fa8bb8c8bbab6f1bef9a37c32fa55e5c336fc204a2822cdb46"),
            (["power", "--design", "e2", "--model", "null", "--n", "6", "--subjects", "10",
              "--p", "0.5", "--replications", "3", "--alpha", "0.1", "--output", "p.json"],
             "7512ced25235a57b6dafbb3a6cacad647fede8c749bb6f287a729eb52d5992ce"),
        ],
        ids=["table-float-csv", "table-rational-json", "simulate-shift-defaults",
             "simulate-e0-json-threads", "power-alpha"],
    )
    def test_manifest_bytes(self, tmp_path, monkeypatch, capsys, args, digest):
        monkeypatch.chdir(tmp_path)
        assert main(args) == 0
        capsys.readouterr()
        manifest = tmp_path / f"{args[-1]}.manifest.json"
        assert hashlib.sha256(manifest.read_bytes()).hexdigest() == digest

    def test_run_subject_on_any_bit_generator(self):
        # the public entry draws through Generator.integers, so an MT19937
        # stream gives the records it gave before the PCG64 replay existed
        design = DesignConfig(kind="e2", n=9, subjects=20)
        records = [
            run_subject(design, MemoryModel(p=0.7), s, Generator(MT19937(100 + s)))
            for s in range(20)
        ]
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == (
            "f133330de23e5ef3ae3c4143542c61259d65e4304e2b463935e771738d86ead9"
        )

    @pytest.mark.parametrize(
        "design, extra, rejections, mean, se, se_bootstrap",
        [
            ("e3", [], 12, 0.4, 0.38661826678330435, 0.37514360280127756),
            ("e0", ["--pair", "2,4"], 5, 0.8, 0.4055175020198813, None),
        ],
    )
    def test_power(self, tmp_path, design, extra, rejections, mean, se, se_bootstrap):
        out = tmp_path / "power.json"
        assert main(["power", "--design", design, "--model", "two-param", "--n", "5",
                     "--subjects", "20", "--p", "0.3", "--P", "0.8", "--replications", "40",
                     "--seed", "5", "--output", str(out), *extra]) == 0
        report = json.loads(out.read_text())
        assert (report["n"], report["subjects"], report["replications"]) == (5, 20, 40)
        assert report["rejection_rate"] == rejections / 40
        assert report["mean"] == pytest.approx(mean, rel=1e-12)
        assert report["se"] == pytest.approx(se, rel=1e-12)
        assert report.get("se_bootstrap") == pytest.approx(se_bootstrap, rel=1e-12)

    def test_bootstrap_se(self):
        value = bootstrap_se([1, 5, 2, 8, 3, -1], resamples=50, seed=9)
        assert value == pytest.approx(1.1507712094144664, rel=1e-12)


class TestErrors:
    def test_usage_errors_exit_2(self, tmp_path, capsys):
        assert main(["table", "--n", "1", "--p", "0.5",
                     "--output", str(tmp_path / "t.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["table", "--p", "0.5"]) == 2
        capsys.readouterr()

    def test_bad_pair_format(self, capsys):
        assert main(["simulate", "--design", "classic", "--model", "null", "--n", "6",
                     "--subjects", "10", "--p", "0.5", "--pair", "nope"]) == 2
        capsys.readouterr()

    def test_two_param_needs_big_weight(self, tmp_path, capsys):
        assert main(["simulate", "--design", "e2", "--model", "two-param", "--n", "6",
                     "--subjects", "10", "--p", "0.5",
                     "--output", str(tmp_path / "t.csv")]) == 2
        assert "--P" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "power"])
    def test_two_param_needs_P(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        extra = ["--replications", "3"] if command == "power" else []
        assert main([command, "--design", "e2", "--model", "two-param", "--n", "6",
                     "--subjects", "10", "--p", "0.5", *extra, "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: the two-param model needs --P\n"
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("model, flags", [
        ("null", ["--P", "0.9"]),
        ("memory", ["--P", "0.9"]),
        ("dissonance-shift", ["--P", "0.9"]),
        ("null", ["--shift", "1"]),
        ("two-param", ["--P", "0.9", "--threshold", "3"]),
        ("memory", ["--shift", "2", "--threshold", "3"]),
    ])
    @pytest.mark.parametrize("command", ["simulate", "power"])
    def test_ignored_model_parameter_rejected(self, tmp_path, capsys, model, flags, command):
        out = tmp_path / "out"
        extra = ["--replications", "3"] if command == "power" else []
        assert main([command, "--design", "e2", "--model", model, "--n", "6",
                     "--subjects", "10", "--p", "0.5", *flags, *extra,
                     "--output", str(out)]) == 2
        err = capsys.readouterr().err
        ignored = [flag for flag in flags[::2] if not (model == "two-param" and flag == "--P")]
        assert f"the {model} model does not take {' or '.join(ignored)}" in err
        assert not out.exists()

    def test_dissonance_shift_manifest_records_defaults(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--design", "e2", "--model", "dissonance-shift", "--n", "6",
                     "--subjects", "10", "--p", "0.5", "--output", str(out)]) == 0
        capsys.readouterr()
        text = (tmp_path / "t.csv.manifest.json").read_text()
        assert '"P": null,' in text
        assert '"shift": 1,' in text
        assert '"threshold": 3,' in text

    def test_negative_seed_is_named(self, tmp_path, capsys):
        assert main(["simulate", "--design", "e2", "--model", "null", "--n", "6",
                     "--subjects", "10", "--p", "0.5", "--seed", "-1",
                     "--output", str(tmp_path / "t.csv")]) == 2
        assert "seed must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_zero_replications(self, tmp_path, capsys):
        assert main(["power", "--design", "e2", "--model", "null", "--n", "6",
                     "--subjects", "10", "--p", "0.5", "--replications", "0",
                     "--output", str(tmp_path / "p.json")]) == 2
        capsys.readouterr()

    def test_invalid_simulate_keeps_existing_output(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        out.write_bytes(b"precious\n")
        assert main(["simulate", "--design", "classic", "--model", "null", "--n", "5",
                     "--subjects", "4", "--pair", "1,5", "--p", "0.2", "--threads", "0",
                     "--output", str(out)]) == 2
        assert "threads" in capsys.readouterr().err
        assert out.read_bytes() == b"precious\n"

    @pytest.mark.parametrize("command, extra", [
        ("simulate", ["--subjects", "10", "--p", "0.9999999999"]),
        # 3 x 1,000 x 999 swaps per experiment pass the budget only with
        # the replications and the report's experiment counted
        ("power", ["--subjects", "1000", "--p", "0.999", "--replications", "4000"]),
    ])
    def test_runaway_swap_count_refused_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                         command, extra):
        # the expected swap count is refused before a stream is built, so a
        # run that would not end in hours fails at once and writes nothing
        import freechoice.designs as designs

        monkeypatch.setattr(designs, "_Streams", None)
        out = tmp_path / "out"
        out.write_bytes(b"precious\n")
        assert main([command, "--design", "classic", "--model", "null", "--n", "12",
                     "--pair", "7,9", "--output", str(out), *extra]) == 2
        err = capsys.readouterr().err
        estimate = "3e+11" if command == "simulate" else "1.2e+10"
        assert f"about {estimate} adjacent swaps; at most 1e+10 are supported" in err
        assert out.read_bytes() == b"precious\n"

    def test_single_subject_e3_keeps_existing_output(self, tmp_path, capsys):
        # one e3 subject leaves the bootstrap nothing to resample
        out = tmp_path / "t.csv"
        out.write_bytes(b"precious\n")
        assert main(["simulate", "--design", "e3", "--model", "null", "--n", "2",
                     "--subjects", "1", "--p", "0.2", "--output", str(out)]) == 2
        assert "at least 2 subjects" in capsys.readouterr().err
        assert out.read_bytes() == b"precious\n"

    def test_single_subject_power_keeps_existing_output(self, tmp_path, capsys):
        # with one subject no replication has a variance to test against
        out = tmp_path / "power.json"
        out.write_bytes(b"precious\n")
        assert main(["power", "--design", "e2", "--model", "null", "--n", "3",
                     "--subjects", "1", "--replications", "3", "--p", "0.5",
                     "--output", str(out)]) == 2
        assert "at least 2 subjects" in capsys.readouterr().err
        assert out.read_bytes() == b"precious\n"

    def test_zero_threads_power_keeps_existing_output(self, tmp_path, capsys):
        out = tmp_path / "power.json"
        out.write_bytes(b"precious\n")
        assert main(["power", "--design", "e2", "--model", "null", "--n", "3",
                     "--subjects", "4", "--replications", "3", "--p", "0.5",
                     "--threads", "0", "--output", str(out)]) == 2
        assert "threads" in capsys.readouterr().err
        assert out.read_bytes() == b"precious\n"

    def test_stalled_geometric_search_exits_2(self, tmp_path, capsys, monkeypatch):
        # with the search sums cut to their first, most draws at weight 0.3
        # pass the last sum, where numpy's search would never end
        monkeypatch.setattr(noise, "_search_sums", lambda success: np.array([success]))
        assert main(["simulate", "--design", "classic", "--model", "null", "--n", "5",
                     "--pair", "2,4", "--subjects", "10", "--p", "0.3",
                     "--output", str(tmp_path / "t.csv")]) == 2
        assert "noise weight 0.3 passes the last pmf sum" in capsys.readouterr().err

    def test_failed_simulate_keeps_existing_output(self, tmp_path, capsys, monkeypatch):
        # the search sums are cut on the second block's first stage, so the
        # run fails after 1,024 records were written; the old bytes stay
        # and no temporary file is left
        stages, real = iter(range(10**6)), noise._search_sums
        monkeypatch.setattr(noise, "_search_sums",
                            lambda success: real(success) if next(stages) < 3
                            else np.array([success]))
        out = tmp_path / "t.csv"
        out.write_bytes(b"precious\n")
        assert main(["simulate", "--design", "classic", "--model", "null", "--n", "5",
                     "--pair", "2,4", "--subjects", "3000", "--p", "0.3",
                     "--output", str(out)]) == 2
        assert "noise weight 0.3 passes the last pmf sum" in capsys.readouterr().err
        assert next(stages) > 3
        assert out.read_bytes() == b"precious\n"
        assert [path.name for path in tmp_path.iterdir()] == ["t.csv"]

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir" / "table.csv"
        assert main(["table", "--n", "5", "--p", "0.5", "--output", str(missing)]) == 3
        assert "i/o error:" in capsys.readouterr().err

    def test_unwritable_output_names_the_path(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir" / "table.csv"
        assert main(["table", "--n", "5", "--p", "0.5", "--output", str(missing)]) == 3
        err = capsys.readouterr().err
        assert f"No such file or directory: {str(missing)!r}" in err
        assert ".tmp" not in err

    @pytest.mark.parametrize("command, suffix", [
        pytest.param(command, suffix, id=f"{command}-{name}")
        for command, outputs in OUTPUTS.items() for name, suffix in outputs.items()
    ])
    def test_directory_output_refused_before_any_replace(self, tmp_path, capsys, monkeypatch,
                                                          command, suffix):
        # a directory at any output or manifest path is refused before the
        # first draw, solve or replication: reaching any of them raises here
        import freechoice.cli as cli
        import freechoice.designs as designs

        monkeypatch.setattr(designs, "_Streams", None)
        monkeypatch.setattr(cli, "power_report", None)
        monkeypatch.setattr(cli, "expected_spread_table", None)
        out = tmp_path / "t2.csv"
        suffixes = OUTPUTS[command].values()
        old = {Path(f"{out}{other}") for other in suffixes if other != suffix}
        for path in old:
            path.write_bytes(b"precious\n")
        Path(f"{out}{suffix}").mkdir()
        assert main([*SMALL_RUNS[command], "--output", str(out)]) == 3
        assert f"Is a directory: '{out}{suffix}'" in capsys.readouterr().err
        assert all(path.read_bytes() == b"precious\n" for path in old)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"t2.csv{other}" for other in suffixes)

    def test_failed_replace_restores_every_old_file(self, tmp_path, capsys, monkeypatch):
        # the second move fails: the outputs moved so far come back, so every
        # target keeps its old bytes and no hidden file is left
        import freechoice.cli as cli

        moves, replace = iter(range(10**6)), os.replace

        def failing(source, target):
            if next(moves) == 1:
                raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), target)
            replace(source, target)

        out = tmp_path / "t.csv"
        old = [Path(f"{out}{suffix}") for suffix in OUTPUTS["simulate"].values()]
        for path in old:
            path.write_bytes(f"precious {path.name}\n".encode())
        monkeypatch.setattr(cli.os, "replace", failing)
        assert main([*SMALL_RUNS["simulate"], "--output", str(out)]) == 3
        assert "i/o error:" in capsys.readouterr().err
        assert [path.read_bytes() for path in old] == [
            f"precious {path.name}\n".encode() for path in old]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(path.name for path in old)

    @pytest.mark.parametrize("command", SMALL_RUNS)
    def test_empty_output_refused(self, tmp_path, capsys, monkeypatch, command):
        # an empty --output is not read as "no --output", which writes the default
        monkeypatch.chdir(tmp_path)
        assert main([*SMALL_RUNS[command], "--output", ""]) == 2
        assert "argument --output: expected a non-empty path" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(os.name != "posix", reason="permission bits are POSIX")
    def test_replaced_output_keeps_its_mode(self, tmp_path):
        out = tmp_path / "t.csv"
        out.write_bytes(b"old\n")
        out.chmod(0o600)
        assert main(["table", "--n", "5", "--p", "0.5", "--output", str(out)]) == 0
        assert out.read_text().startswith("i,j,expected_spread,rounded\n")
        assert out.stat().st_mode & 0o7777 == 0o600

    def test_replaced_output_keeps_its_link(self, tmp_path):
        plain, real, link = tmp_path / "plain.csv", tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_bytes(b"old\n")
        try:
            link.symlink_to(real)
        except OSError:
            pytest.skip("symbolic links cannot be made here")
        for path in (plain, link):
            assert main(["table", "--n", "5", "--p", "0.5", "--output", str(path)]) == 0
        assert link.is_symlink() and link.resolve() == real
        assert real.read_bytes() == plain.read_bytes()
        manifest = json.loads((tmp_path / "link.csv.manifest.json").read_text())
        assert manifest["outputs"] == [str(link)]
        assert not any(path.name.endswith(".tmp") for path in tmp_path.iterdir())

    def test_unknown_command(self, capsys):
        assert main(["tabulate"]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out


class TestEntryPoint:
    def test_module_invocation(self):
        # the child finds the package where this process found it, also when
        # only pytest's own path setting put it there
        package_root = str(Path(freechoice.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "freechoice", "--version"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0
        assert __version__ in result.stdout
