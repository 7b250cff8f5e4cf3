"""Self-verification: closed forms, cross-validations, frozen references.

Two levels. ``quick`` checks definitions against hand-worked examples,
closed-form matrix entries, the factored engine against plain enumeration,
structural invariants (zero-sum, reversal symmetry, the uniform limit) and
the frozen 12-object reference table. ``full`` adds the exact-rational
backend, full-permutation brute force for n <= 5, the lumped-chain
distribution check, and a batch of random-distribution zero checks.

The checks recompute everything from the current code, so a corrupted
definition (for example a flipped sign in the state-level spread) makes
the suite fail rather than silently shifting all outputs together.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import core
from .core import Choice, PositionPair, Ranking
from .exact import (
    RankingDistribution,
    _brute_force,
    _triple_sum,
    brute_force_expected_spread,
    expected_spread_conditional,
    expected_spread_oracle,
    expected_spread_positions,
    expected_spread_table,
    expected_spread_two_param,
    round_half_away,
    swap_process_distribution,
)
from .noise import build_M, build_Q, state_positions, state_row

__all__ = ["CheckResult", "LEVELS", "REFERENCE_TABLE_N12_P08", "run_checks"]

LEVELS = ("quick", "full")

# Expected spreads for 12 objects at p = 0.8, rounded to three decimals.
# Transcribed reference values; the engine must reproduce every entry.
REFERENCE_TABLE_N12_P08: Dict[Tuple[int, int], str] = {
    (1, 2): "0.319",
    (1, 3): "-0.010", (2, 3): "0.557",
    (1, 4): "-0.251", (2, 4): "0.247", (3, 4): "0.661",
    (1, 5): "-0.389", (2, 5): "0.051", (3, 5): "0.346", (4, 5): "0.694",
    (1, 6): "-0.458", (2, 6): "-0.057", (3, 6): "0.154", (4, 6): "0.376",
    (5, 6): "0.702",
    (1, 7): "-0.492", (2, 7): "-0.111", (3, 7): "0.050", (4, 7): "0.184",
    (5, 7): "0.384", (6, 7): "0.704",
    (1, 8): "-0.508", (2, 8): "-0.138", (3, 8): "-0.004", (4, 8): "0.079",
    (5, 8): "0.190", (6, 8): "0.384", (7, 8): "0.702",
    (1, 9): "-0.523", (2, 9): "-0.157", (3, 9): "-0.036", (4, 9): "0.019",
    (5, 9): "0.079", (6, 9): "0.184", (7, 9): "0.376", (8, 9): "0.694",
    (1, 10): "-0.557", (2, 10): "-0.193", (3, 10): "-0.078", (4, 10): "-0.036",
    (5, 10): "-0.004", (6, 10): "0.050", (7, 10): "0.154", (8, 10): "0.346",
    (9, 10): "0.661",
    (1, 11): "-0.669", (2, 11): "-0.306", (3, 11): "-0.193", (4, 11): "-0.157",
    (5, 11): "-0.138", (6, 11): "-0.111", (7, 11): "-0.057", (8, 11): "0.051",
    (9, 11): "0.247", (10, 11): "0.557",
    (1, 12): "-1.031", (2, 12): "-0.669", (3, 12): "-0.557", (4, 12): "-0.523",
    (5, 12): "-0.508", (6, 12): "-0.492", (7, 12): "-0.458", (8, 12): "-0.389",
    (9, 12): "-0.251", (10, 12): "-0.010", (11, 12): "0.319",
}

# Conditional expected spreads at n=12, p=0.8, pair (7, 9); frozen from the
# exact-rational backend, which agrees with these floats to < 1e-12.
CONDITIONAL_N12_P08_PAIR_7_9 = {
    "consistent": 0.2047293801106908,
    "reversal": 1.7837265311423185,
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    detail: str


def _check_spread_definition() -> str:
    rank1 = Ranking.identity(12)
    # chosen improves 7 -> 5, rejected worsens 9 -> 11: spread 2 + 2 = 4
    up = Ranking((1, 2, 3, 4, 7, 5, 6, 8, 10, 11, 9, 12))
    if core.spread(rank1, Choice(chosen=7, rejected=9), up) != 4:
        raise AssertionError("improvement example should give spread 4")
    pair = PositionPair(7, 9)
    if core.spread_simplified(pair, (1, 2), (5, 11)) != 4:
        raise AssertionError("state-level improvement example should give 4")
    # both objects swap places: chosen worsens by 2 and rejected improves by 2
    swapped = Ranking((1, 2, 3, 4, 5, 6, 9, 8, 7, 10, 11, 12))
    if core.spread(rank1, Choice(chosen=7, rejected=9), swapped) != -4:
        raise AssertionError("swap example should give spread -4")
    if core.spread_simplified(pair, (7, 9), (9, 7)) != -4:
        raise AssertionError("state-level swap example should give -4")
    # reversal branch: choosing the worse-ranked object, nothing moves
    if core.spread(rank1, Choice(chosen=9, rejected=7), rank1) != 0:
        raise AssertionError("no-movement reversal example should give 0")
    if core.spread_simplified(pair, (8, 3), (7, 9)) != 0:
        raise AssertionError("state-level reversal example should give 0")
    return "hand-worked improvement, swap, and reversal examples agree"


def _check_definition_glue() -> str:
    # the state-level formula must reproduce the ranking-level definition
    rng = np.random.default_rng(20260816)
    n, trials = 7, 300
    for _ in range(trials):
        rank1 = Ranking((rng.permutation(n) + 1).tolist())
        choice_rank = Ranking((rng.permutation(n) + 1).tolist())
        rank3 = Ranking((rng.permutation(n) + 1).tolist())
        i = int(rng.integers(1, n))
        j = int(rng.integers(i + 1, n + 1))
        first, second = rank1.object_at(i), rank1.object_at(j)
        s2 = (choice_rank.position_of(first), choice_rank.position_of(second))
        s3 = (rank3.position_of(first), rank3.position_of(second))
        if s2[0] < s2[1]:
            choice = Choice(chosen=first, rejected=second)
        else:
            choice = Choice(chosen=second, rejected=first)
        full = core.spread(rank1, choice, rank3)
        lumped = core.spread_simplified(PositionPair(i, j), s2, s3)
        if full != lumped:
            raise AssertionError(
                f"state-level spread {lumped} != ranking-level spread {full} "
                f"for pair ({i},{j}), s2={s2}, s3={s3}"
            )
    return f"{trials} random trials at n={n} agree between both definitions"


def _check_swap_matrix() -> str:
    q = build_Q(12)
    one_swap = q[state_row(12, 1, 2), state_row(12, 2, 1)]
    if abs(one_swap - 1 / 11) > 1e-12:
        raise AssertionError(f"swapping the tracked neighbors should have weight 1/11, got {one_swap}")
    stay = q[state_row(12, 2, 3), state_row(12, 2, 3)]
    if abs(stay - 8 / 11) > 1e-12:
        raise AssertionError(f"(2,3) should stay put with weight 8/11, got {stay}")
    sums = q.sum(axis=1)
    if np.max(np.abs(sums - 1)) > 1e-12:
        raise AssertionError("row sums of the one-swap matrix must be 1")
    if np.max(np.abs(q - q.T)) > 0:
        raise AssertionError("the one-swap matrix must be symmetric")
    grid = q * 11
    if np.max(np.abs(grid - np.round(grid))) > 1e-9:
        raise AssertionError("every entry must be a multiple of 1/11")
    return "closed-form entries, symmetry, and row sums hold at n=12"


def _check_mix_closed_form() -> str:
    m2 = build_M(2, 0.8)
    target = np.array([[5 / 9, 4 / 9], [4 / 9, 5 / 9]])
    if np.max(np.abs(m2 - target)) > 1e-12:
        raise AssertionError(f"n=2, p=0.8 mixture should be [[5/9,4/9],[4/9,5/9]], got {m2.tolist()}")
    m12 = build_M(12, 0.8)
    if m12.min() < 0:
        raise AssertionError("mixture entries must be nonnegative")
    for axis in (0, 1):
        sums = m12.sum(axis=axis)
        if np.max(np.abs(sums - 1)) > 1e-10:
            raise AssertionError("the mixture matrix must be doubly stochastic")
    return "n=2 closed form and n=12 double stochasticity hold"


def _two_weight_cases(reference):
    # Both e0 arms of the two-weight model at n=5, p=0.3, P=0.7 against
    # reference(n, pair, first, choice, final), with the stage weights
    # written out here, not read from noise.stage_weights: the control arm
    # ranks again before its choice.
    n, p, P = 5, 0.3, 0.7
    for design, weights in (("e0-experimental", (P, p, p)), ("e0-control", (P, p, P))):
        for pair in ((1, 2), (2, 4), (1, 5)):
            yield (expected_spread_two_param(n, p, P, design, pair=pair),
                   reference(n, pair, *weights), f"{design}, n={n}, p={p}, P={P}, pair={pair}")


def _worst_gap(cases, name: str, tolerance: float) -> float:
    # The largest gap over (engine value, reference value, where) cases;
    # any gap above the tolerance fails.
    worst = 0.0
    for value, other, where in cases:
        worst = max(worst, abs(value - other))
        if abs(value - other) > tolerance:
            raise AssertionError(f"engine {value} != {name} {other} at {where}")
    return worst


def _check_factored_vs_enumeration() -> str:
    one_weight = (
        (expected_spread_positions(n, p, pair), _triple_sum(n, pair, p, p, p),
         f"n={n}, p={p}, pair={pair}")
        for n, p, pairs in (
            (5, 0.8, [(i, j) for i in range(1, 5) for j in range(i + 1, 6)]),
            (12, 0.8, [(7, 9)]),
        )
        for pair in pairs
    )
    cases = itertools.chain(one_weight, _two_weight_cases(_triple_sum))
    worst = _worst_gap(cases, "enumerated value", 1e-10)
    return f"factored and enumerated sums agree, both e0 arms too (worst gap {worst:.2e})"


def _check_zero_sum() -> str:
    details = []
    for n, p in ((12, 0.8), (9, 0.3)):
        total = expected_spread_table(n, p).total()
        if abs(total) > 1e-9:
            raise AssertionError(f"table values at n={n}, p={p} should sum to zero, got {total}")
        details.append(f"n={n}: {total:.1e}")
    return "table sums vanish (" + ", ".join(details) + ")"


def _check_reversal_symmetry() -> str:
    table = expected_spread_table(12, 0.8)
    for pair, value in table.values.items():
        mirrored = PositionPair(13 - pair.j, 13 - pair.i)
        other = table.values[mirrored]
        if abs(value - other) > 1e-12:
            raise AssertionError(f"value at {pair} should equal value at {mirrored}")
    return "all 66 entries match their reversed-pair mirrors"


def _check_uniform_limit() -> str:
    target = 16 / 3
    checks = {
        "e2": expected_spread_two_param(15, 0, 1, "e2"),
        "e3": expected_spread_two_param(15, 0, 1, "e3"),
        "e0 difference": expected_spread_two_param(15, 0, 1, "e0-experimental", pair=(7, 9))
        - expected_spread_two_param(15, 0, 1, "e0-control", pair=(7, 9)),
    }
    for label, value in checks.items():
        if abs(value - target) > 1e-12:
            raise AssertionError(f"{label} at p=0, P=1 should be 16/3, got {value}")
    # the p -> 1 limit spreads every row evenly over the n(n - 1) = 6 states
    gap = float(np.max(np.abs(build_M(3, 0.9999) - 1 / 6)))
    if gap > 1e-3:
        raise AssertionError(f"p=0.9999 mixture should approach the uniform limit, gap {gap}")
    return f"16/3 benchmark holds; p->1 limit approached (gap {gap:.1e})"


def _check_reference_table() -> str:
    frozen_total = sum(Fraction(text) for text in REFERENCE_TABLE_N12_P08.values())
    if frozen_total != 0:
        raise AssertionError(f"frozen rounded reference values should sum to 0, got {frozen_total}")
    rounded = expected_spread_table(12, 0.8).rounded()
    mismatches = [
        (pair.i, pair.j, text, REFERENCE_TABLE_N12_P08[(pair.i, pair.j)])
        for pair, text in rounded.items()
        if text != REFERENCE_TABLE_N12_P08[(pair.i, pair.j)]
    ]
    if mismatches:
        raise AssertionError(f"{len(mismatches)} entries differ from the reference: {mismatches[:3]}")
    return "engine reproduces all 66 frozen reference entries"


def _worst_oracle_value(cases) -> float:
    # The largest |expected spread| of designs e1, e2 and e3 over the
    # (distribution, e1 object pair) cases, each of which must vanish.
    worst = 0.0
    for dist, object_pair in cases:
        for design in ("e1", "e2", "e3"):
            value = expected_spread_oracle(
                dist, design, object_pair=object_pair if design == "e1" else None
            )
            worst = max(worst, abs(value))
            if abs(value) > 1e-10:
                raise AssertionError(
                    f"design {design} expected spread should vanish, got {value} at n={dist.n}"
                )
    return worst


def _check_design_oracle() -> str:
    cases = [(RankingDistribution.uniform(3), (1, 3)),
             (RankingDistribution.random(4, np.random.default_rng(7)), (1, 4))]
    worst = _worst_oracle_value(cases)
    return f"design expectations vanish for uniform and random distributions (worst {worst:.1e})"


def _check_conditional() -> str:
    for condition, target in CONDITIONAL_N12_P08_PAIR_7_9.items():
        value = expected_spread_conditional(12, 0.8, (7, 9), condition)
        if abs(value - target) > 1e-12:
            raise AssertionError(f"conditional ({condition}) drifted: {value} != frozen {target}")
    if not CONDITIONAL_N12_P08_PAIR_7_9["consistent"] > 0:
        raise AssertionError("consistent-chooser conditioning should be positive at (7,9)")
    return "frozen conditional expectations reproduced at n=12, p=0.8, pair (7,9)"


def _check_display_rounding() -> str:
    cases = [
        (Fraction(1, 2000), "0.001"),
        (Fraction(-1, 2000), "-0.001"),
        (Fraction(-1, 100000), "0.000"),
        (Fraction(16, 3), "5.333"),
        # the binary value of this float sits just above the decimal tie
        (0.3185, "0.319"),
        (0.1234, "0.123"),
    ]
    for value, expected in cases:
        got = round_half_away(value)
        if got != expected:
            raise AssertionError(f"round_half_away({value!r}) = {got!r}, expected {expected!r}")
    return "display rounding handles ties, signs, and float decimals"


def _check_exact_backend() -> str:
    table = expected_spread_table(12, Fraction(4, 5), exact=True)
    total = table.total()
    if total != 0:
        raise AssertionError(f"exact-backend table should sum to exactly zero, got {total}")
    rounded = {(pair.i, pair.j): text for pair, text in table.rounded().items()}
    if rounded != REFERENCE_TABLE_N12_P08:
        raise AssertionError("exact-backend rounding differs from the frozen reference")
    float_rounded = {
        (pair.i, pair.j): text for pair, text in expected_spread_table(12, 0.8).rounded().items()
    }
    if rounded != float_rounded:
        raise AssertionError("exact and float backends disagree after rounding")
    return "rational backend sums to exactly 0 and matches the reference after rounding"


def _check_brute_force() -> str:
    one_weight = (
        (value, brute_force_expected_spread(n, p, pair), f"n={n}, p={p}, pair={pair}")
        for n in (3, 4, 5)
        for p in (0.3, 0.8)
        for pair, value in expected_spread_table(n, p).values.items()
    )
    cases = itertools.chain(one_weight, _two_weight_cases(_brute_force))
    worst = _worst_gap(cases, "brute force", 1e-9)
    return ("engine matches full-permutation enumeration for n<=5, both e0 arms too "
            f"(worst gap {worst:.1e})")


def _check_lumping() -> str:
    n, p = 4, 0.7
    perms, probs = swap_process_distribution(n, p)
    m = build_M(n, p)
    lumped = np.zeros_like(m)
    for start_row, (a, b) in enumerate(zip(*state_positions(n))):
        for perm, prob in zip(perms, probs):
            # objects named by their starting positions
            lumped[start_row, state_row(n, perm.index(a) + 1, perm.index(b) + 1)] += prob
    gap = float(np.max(np.abs(lumped - m)))
    if gap > 1e-9:
        raise AssertionError(f"pair-position distribution differs from the lumped chain by {gap}")
    return f"tracked-pair distribution matches the lumped chain at n={n} (gap {gap:.1e})"


def _check_equivariance() -> str:
    n, p = 5, 0.6
    m = build_M(n, p)
    a, b = state_positions(n)
    mirror = state_row(n, n + 1 - a, n + 1 - b)
    gap = float(np.max(np.abs(m - m[np.ix_(mirror, mirror)])))
    if gap > 1e-12:
        raise AssertionError(f"M and its board reversal differ by {gap}")
    return "the mixture matrix commutes with board reversal at n=5"


def _check_random_distributions() -> str:
    rng = np.random.default_rng(123)
    worst = _worst_oracle_value((RankingDistribution.random(4, rng), (2, 4)) for _ in range(100))
    return f"100 random distributions give vanishing expectations (worst {worst:.1e})"


_QUICK_CHECKS: List[Callable[[], str]] = [
    _check_spread_definition, _check_definition_glue, _check_swap_matrix, _check_mix_closed_form,
    _check_factored_vs_enumeration, _check_zero_sum, _check_reversal_symmetry,
    _check_uniform_limit, _check_reference_table, _check_design_oracle, _check_conditional,
    _check_display_rounding,
]

_FULL_CHECKS: List[Callable[[], str]] = [
    _check_exact_backend, _check_brute_force, _check_lumping, _check_equivariance,
    _check_random_distributions,
]


def run_checks(level: str = "quick") -> List[CheckResult]:
    """Run the verification suite and return one result per check.

    ``quick`` finishes in seconds; ``full`` adds the exact-rational and
    full-permutation cross-validations. A check that raises is reported
    as failed with the exception text as detail.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")
    results = []
    for check in _QUICK_CHECKS + _FULL_CHECKS if level == "full" else _QUICK_CHECKS:
        name = check.__name__.removeprefix("_check_").replace("_", "-")
        try:
            results.append(CheckResult(name=name, passed=True, detail=check()))
        except Exception as exc:
            results.append(CheckResult(name=name, passed=False, detail=str(exc)))
    return results
