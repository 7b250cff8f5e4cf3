"""Acceptance criteria, one test per criterion.

Each test prints (and registers for the terminal summary) one line of the
form ``ACCEPTANCE <k> PASS/FAIL - <detail>`` before asserting, so the
status of every criterion is visible in any run.
"""

import csv
import time
from fractions import Fraction

import numpy as np
import pytest

from freechoice.cli import main
from freechoice.designs import DesignConfig, NullModel, iter_experiment, pair_count
from freechoice.exact import (
    RankingDistribution,
    _triple_sum,
    brute_force_expected_spread,
    expected_spread_conditional,
    expected_spread_oracle,
    expected_spread_positions,
    expected_spread_table,
    expected_spread_two_param,
)
from freechoice.stats import compare, power_estimate, summarize

ACCEPTANCE_LINES = []

SEED = 20260816

# three-decimal reference: expected spreads for n = 12, p = 0.8; row j lists
# pairs (1, j) .. (j - 1, j)
REFERENCE_ROWS = """
0.319
-0.010 0.557
-0.251 0.247 0.661
-0.389 0.051 0.346 0.694
-0.458 -0.057 0.154 0.376 0.702
-0.492 -0.111 0.050 0.184 0.384 0.704
-0.508 -0.138 -0.004 0.079 0.190 0.384 0.702
-0.523 -0.157 -0.036 0.019 0.079 0.184 0.376 0.694
-0.557 -0.193 -0.078 -0.036 -0.004 0.050 0.154 0.346 0.661
-0.669 -0.306 -0.193 -0.157 -0.138 -0.111 -0.057 0.051 0.247 0.557
-1.031 -0.669 -0.557 -0.523 -0.508 -0.492 -0.458 -0.389 -0.251 -0.010 0.319
"""


def reference_table():
    table = {}
    for offset, row in enumerate(REFERENCE_ROWS.split("\n")[1:-1]):
        j = offset + 2
        for i, text in enumerate(row.split(), start=1):
            table[i, j] = Fraction(text)
    assert len(table) == 66
    return table


def record(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_01_cli_table_matches_reference(tmp_path):
    """The CLI table for n=12, p=0.8 reproduces the reference values."""
    out = tmp_path / "table.csv"
    start = time.perf_counter()
    code = main(["table", "--n", "12", "--p", "0.8", "--output", str(out)])
    elapsed = time.perf_counter() - start
    reference = reference_table()
    worst = 0.0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        target = reference[int(row["i"]), int(row["j"])]
        worst = max(worst, abs(float(row["expected_spread"]) - float(target)))
    ok = code == 0 and len(rows) == 66 and worst <= 0.0005 + 1e-9 and elapsed < 60
    record(1, ok, f"66 pairs, worst deviation {worst:.2e} (cap 5e-4), {elapsed:.2f}s")
    assert ok


def test_criterion_02_table_sums_to_zero():
    """Expected spreads over all pairs cancel exactly."""
    exact_total = expected_spread_table(12, Fraction(4, 5), exact=True).total()
    float_total = expected_spread_table(12, 0.8).total()
    ok = exact_total == 0 and abs(float_total) < 1e-9
    record(2, ok, f"rational total {exact_total}, float total {float_total:.2e}")
    assert ok


def test_criterion_03_reversal_symmetry():
    """Reversing positions maps each pair's expected spread onto its mirror's."""
    worst = 0.0
    for p in (0.2, 0.5, 0.8):
        table = expected_spread_table(12, p)
        for i in range(1, 12):
            for j in range(i + 1, 13):
                worst = max(worst, abs(table[i, j] - table[13 - j, 13 - i]))
    ok = worst < 1e-12
    record(3, ok, f"n=12, p in (0.2, 0.5, 0.8): worst asymmetry {worst:.2e}")
    assert ok


def test_criterion_04_uniform_first_ranking_limit():
    """With a uniform first ranking and exact later stages the designs give 16/3."""
    e2 = expected_spread_two_param(15, 0.0, 1.0, "e2")
    e3 = expected_spread_two_param(15, 0.0, 1.0, "e3")
    diff = expected_spread_two_param(15, 0.0, 1.0, "e0-experimental", pair=(7, 9)) - (
        expected_spread_two_param(15, 0.0, 1.0, "e0-control", pair=(7, 9))
    )
    worst = max(abs(value - 16 / 3) for value in (e2, e3, diff))
    ok = worst < 1e-9
    record(4, ok, f"e2/e3/e0-difference vs 16/3: worst deviation {worst:.2e}")
    assert ok


def test_criterion_05_two_weight_model_reference_points():
    """Reference points of the two-weight model at p=0.5, P=0.9, n=15.

    The first ranking carries the careless weight P; the choice and every
    later ranking carry p, except the control arm's second ranking, made
    before its choice, which carries P. The all-pairs average (e3) is
    asserted against its reference 0.14 +/- 0.005.

    The two-arm reference 0.01 names no comparison pair, and at n=15 no
    other reference point fixes one: the uniform-limit value 16/3
    (criterion 4) holds at every pair, and 0.14 averages over all pairs.
    The 0.01 target is therefore reported but not asserted. The two-arm
    difference at (7, 9) is instead asserted, to 1e-12, against two oracles:
    an unfactored triple sum over lumped states with stage weights
    (P, p, p) for the experimental and (P, p, P) for the control arm, and
    the exact rational backend at p=1/2, P=9/10.
    """
    n, p, P, pair = 15, 0.5, 0.9, (7, 9)
    e3 = expected_spread_two_param(n, p, P, "e3")
    diff = expected_spread_two_param(n, p, P, "e0-experimental", pair=pair) - (
        expected_spread_two_param(n, p, P, "e0-control", pair=pair)
    )
    # the stage weights (first, choice, final) written out, not read from
    # noise.stage_weights
    summed = _triple_sum(n, pair, P, p, p) - _triple_sum(n, pair, P, p, P)
    p_exact, P_exact = Fraction(1, 2), Fraction(9, 10)
    rational = expected_spread_two_param(
        n, p_exact, P_exact, "e0-experimental", pair=pair, exact=True
    ) - expected_spread_two_param(n, p_exact, P_exact, "e0-control", pair=pair, exact=True)
    e3_ok = abs(e3 - 0.14) <= 0.005
    sum_gap = abs(diff - summed)
    rational_gap = abs(diff - float(rational))
    diff_ok = sum_gap <= 1e-12 and rational_gap <= 1e-12
    record(
        5,
        e3_ok and diff_ok,
        f"all-pairs average {e3:.6f} (target 0.14±0.005); "
        f"two-arm difference at (7, 9) {diff:.6f}, gap to triple sum {sum_gap:.1e}, "
        f"to rational {rational_gap:.1e} (cap 1e-12); "
        "target 0.01±0.005 not asserted: it names no pair",
    )
    assert e3_ok
    assert sum_gap <= 1e-12
    assert rational_gap <= 1e-12


def test_criterion_06_design_symmetry_oracle():
    """Unconfounded designs have zero expected spread for any true-ranking law."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
    worst = 0.0
    for index in range(100):
        n = 2 + index % 3
        dist = RankingDistribution.random(n, rng)
        values = [expected_spread_oracle(dist, "e2"), expected_spread_oracle(dist, "e3")]
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                values.append(expected_spread_oracle(dist, "e1", object_pair=(a, b)))
        worst = max(worst, max(abs(value) for value in values))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 300
    record(6, ok, f"100 random laws, n<=4: worst |spread| {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_07_engine_matches_brute_force():
    """Factored computation equals full enumeration over rankings."""
    worst = 0.0
    for n in (3, 4, 5):
        for p in (0.3, 0.8):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    gap = abs(
                        brute_force_expected_spread(n, p, (i, j))
                        - expected_spread_positions(n, p, (i, j))
                    )
                    worst = max(worst, gap)
    ok = worst < 1e-9
    record(7, ok, f"n in 3..5, p in (0.3, 0.8), all pairs: worst gap {worst:.2e}")
    assert ok


def test_criterion_08_null_model_simulations_center_on_zero():
    """Unconfounded designs show no effect under the null model; arms agree."""
    model = NullModel(p=0.8)
    details = []
    ok = True
    for config in (
        DesignConfig(kind="e1", n=12, subjects=100_000, object_pair=(7, 9)),
        DesignConfig(kind="e2", n=12, subjects=100_000),
        DesignConfig(kind="e3", n=12, subjects=pair_count(12) * 1516),
    ):
        summary = summarize(r.spread for r in iter_experiment(config, model, SEED))
        ok = ok and abs(summary.mean) < 4 * summary.se
        details.append(f"{config.kind} |mean|/se {abs(summary.mean) / summary.se:.2f}")
    arms = {"experimental": [], "control": []}
    config = DesignConfig(kind="e0", n=12, subjects=200_000, pair=(7, 9))
    for r in iter_experiment(config, model, SEED):
        arms[r.arm].append(r.spread)
    comparison = compare(summarize(arms["experimental"]), summarize(arms["control"]))
    ok = ok and abs(comparison.z) < 4
    details.append(f"e0 |z| {abs(comparison.z):.2f}")
    record(8, ok, "; ".join(details) + " (all below 4)")
    assert ok


def test_criterion_09_conditional_mean_for_consistent_choosers():
    """Consistent choosers still show a positive expected spread."""
    exact = expected_spread_conditional(12, 0.8, (7, 9), "consistent")
    config = DesignConfig(kind="classic", n=12, subjects=100_000, pair=(7, 9))
    spreads = [
        r.spread for r in iter_experiment(config, NullModel(p=0.8), SEED) if r.consistent
    ]
    summary = summarize(spreads)
    gap = abs(summary.mean - exact)
    ok = (
        exact > 0
        and exact == pytest.approx(0.2047293801106908, abs=1e-12)
        and gap < 3 * summary.se
    )
    record(9, ok, f"exact {exact:.6f} > 0; simulation gap {gap:.4f} < 3se {3 * summary.se:.4f}")
    assert ok


def test_criterion_10_power_estimate_calibrated_under_null():
    """At alpha = 0.05 the null rejection rate sits near 0.05."""
    config = DesignConfig(kind="e2", n=12, subjects=105)
    rate = power_estimate(
        config, NullModel(p=0.8), replications=2000, alpha=0.05, seed=SEED
    )
    ok = 0.04 <= rate <= 0.06
    record(10, ok, f"rejection rate {rate:.4f} over 2000 replications (band 0.04..0.06)")
    assert ok
