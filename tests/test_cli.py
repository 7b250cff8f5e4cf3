"""End-to-end checks of the command-line interface."""

import csv
import filecmp
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import freechoice.core as core
import freechoice
from freechoice import __version__
from freechoice.cli import main
from freechoice.exact import expected_spread_positions, expected_spread_two_param, round_half_away
from freechoice.stats import bootstrap_se


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
    def test_quick_level_passes(self, capsys):
        assert main(["verify", "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS ") >= 10
        assert "all" in out.splitlines()[-1]

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

    def test_single_subject_e3_keeps_existing_output(self, tmp_path, capsys):
        # one e3 subject leaves the bootstrap nothing to resample
        out = tmp_path / "t.csv"
        out.write_bytes(b"precious\n")
        assert main(["simulate", "--design", "e3", "--model", "null", "--n", "2",
                     "--subjects", "1", "--p", "0.2", "--output", str(out)]) == 2
        assert "at least 2 subjects" in capsys.readouterr().err
        assert out.read_bytes() == b"precious\n"

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir" / "table.csv"
        assert main(["table", "--n", "5", "--p", "0.5", "--output", str(missing)]) == 3
        assert "i/o error:" in capsys.readouterr().err

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
