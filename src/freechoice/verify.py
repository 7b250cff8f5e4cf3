"""Self-verification: closed forms, cross-validations, frozen references.

Two levels. ``quick`` runs 10 checks: definitions against hand-worked
examples and each other, closed-form matrix entries, the factored engine
against plain enumeration, structural invariants (zero-sum, reversal
symmetry, the uniform limit), the frozen 12-object reference table, the
design oracle, the conditionals and display rounding. ``full`` adds 4: the
exact-rational backend, full-permutation brute force for n <= 5, the
lumped chain against the enumerated swap process, and a batch of
random-distribution zero checks. Each check is one that some planted fault
needs (``tests/test_verify.py`` pins the checks each fault fails).

The checks recompute everything from the current code, so a corrupted
definition (for example a flipped sign in the state-level spread) makes
the suite fail rather than silently shifting all outputs together. Every
check states its comparisons as (value, reference, where) cases and holds
them to one rule, :func:`_worst_gap`, with the check's tolerance.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import core
from .core import Choice, PositionPair, Ranking
from .exact import (
    RankingDistribution,
    _brute_force,
    _perm_tables,
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


def _worst_gap(cases, tolerance: float = 0) -> float:
    """The largest gap over ``(value, reference, where)`` cases.

    This is every check's one comparison rule: a gap past ``tolerance``
    fails the check at its ``where``. With a tolerance of 0 a value must
    equal its reference, so integers, exact rationals and display strings
    compare too.
    """
    worst = 0.0
    for value, reference, where in cases:
        gap = abs(value - reference) if tolerance else 0.0
        if not (gap <= tolerance if tolerance else value == reference):
            raise AssertionError(f"{value} != {reference} at {where}"
                                 + (f": gap {gap:.2e} > {tolerance:g}" if tolerance else ""))
        worst = max(worst, gap)
    return worst


def _worst_entry(values, references, where: str):
    # The one case that decides the comparison of two arrays of one shape,
    # or of an array and a number: their entries at the largest gap.
    values, references = np.broadcast_arrays(values, references)
    k = np.unravel_index(np.argmax(np.abs(values - references)), values.shape)
    return [(values[k].item(), references[k].item(), f"{where}, entry {','.join(map(str, k))}")]


def _glue_cases(n: int, trials: int):
    # the state-level spread against the ranking-level one on random trials
    rng = np.random.default_rng(20260816)
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
        lumped = core.spread_simplified(PositionPair(i, j), s2, s3)
        yield lumped, core.spread(rank1, choice, rank3), f"pair ({i},{j}), s2={s2}, s3={s3}"


def _check_definition_glue() -> str:
    rank1 = Ranking.identity(12)
    pair = PositionPair(7, 9)
    # chosen improves 7 -> 5, rejected worsens 9 -> 11: spread 2 + 2 = 4
    up = Ranking((1, 2, 3, 4, 7, 5, 6, 8, 10, 11, 9, 12))
    # both objects swap places: chosen worsens by 2 and rejected improves by 2
    swapped = Ranking((1, 2, 3, 4, 5, 6, 9, 8, 7, 10, 11, 12))
    n, trials = 7, 300
    _worst_gap(itertools.chain([
        (core.spread(rank1, Choice(chosen=7, rejected=9), up), 4, "the improvement example"),
        (core.spread_simplified(pair, (1, 2), (5, 11)), 4, "the state-level improvement example"),
        (core.spread(rank1, Choice(chosen=7, rejected=9), swapped), -4, "the swap example"),
        (core.spread_simplified(pair, (7, 9), (9, 7)), -4, "the state-level swap example"),
        # reversal branch: choosing the worse-ranked object, nothing moves
        (core.spread(rank1, Choice(chosen=9, rejected=7), rank1), 0, "the reversal example"),
        (core.spread_simplified(pair, (8, 3), (7, 9)), 0, "the state-level reversal example"),
    ], _glue_cases(n, trials)))
    return (f"hand-worked improvement, swap, and reversal examples hold and {trials} random "
            f"trials at n={n} agree between both definitions")


def _check_mix_closed_form() -> str:
    q = build_Q(12)
    m12 = build_M(12, 0.8)
    _worst_gap([
        (q[state_row(12, 1, 2), state_row(12, 2, 1)], 1 / 11, "the swap of the tracked neighbors"),
        (q[state_row(12, 2, 3), state_row(12, 2, 3)], 8 / 11, "(2,3) staying put"),
        *_worst_entry(q.sum(axis=1), 1, "the row sums of Q"),
        *_worst_entry(build_M(2, 0.8), [[5 / 9, 4 / 9], [4 / 9, 5 / 9]], "M at n=2, p=0.8"),
    ], 1e-12)
    _worst_gap([*_worst_entry(q, q.T, "Q against its transpose"),
                (m12.min() >= 0, True, "the nonnegativity of M at n=12")])
    grid = q * 11
    _worst_gap(_worst_entry(grid, np.round(grid), "11 Q against its rounding"), 1e-9)
    _worst_gap([*_worst_entry(m12.sum(axis=0), 1, "the column sums of M at n=12"),
                *_worst_entry(m12.sum(axis=1), 1, "the row sums of M at n=12")], 1e-10)
    return ("Q's closed-form entries, symmetry, and row sums at n=12, M's n=2 closed form and "
            "n=12 double stochasticity hold")


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
    worst = _worst_gap(itertools.chain(one_weight, _two_weight_cases(_triple_sum)), 1e-10)
    return f"factored and enumerated sums agree, both e0 arms too (worst gap {worst:.2e})"


def _check_zero_sum() -> str:
    cases = ((expected_spread_table(n, p).total(), 0, f"the table sum at n={n}, p={p}")
             for n, p in ((12, 0.8), (9, 0.3)))
    worst = _worst_gap(cases, 1e-9)
    return f"table sums vanish at n=12 and n=9 (worst {worst:.1e})"


def _check_reversal_symmetry() -> str:
    values = expected_spread_table(12, 0.8).values
    cases = ((value, values[PositionPair(13 - pair.j, 13 - pair.i)],
              f"pair ({pair.i},{pair.j}) against its reversed mirror")
             for pair, value in values.items())
    _worst_gap(cases, 1e-12)
    return "all 66 entries match their reversed-pair mirrors"


def _check_uniform_limit() -> str:
    limit = functools.partial(expected_spread_two_param, 15, 0, 1)
    _worst_gap([
        (limit("e2"), 16 / 3, "e2 at n=15, p=0, P=1"),
        (limit("e3"), 16 / 3, "e3 at n=15, p=0, P=1"),
        (limit("e0-experimental", pair=(7, 9)) - limit("e0-control", pair=(7, 9)), 16 / 3,
         "the e0 difference at n=15, p=0, P=1, pair (7,9)"),
    ], 1e-12)
    # the p -> 1 limit spreads every row evenly over the n(n - 1) = 6 states
    gap = _worst_gap(_worst_entry(build_M(3, 0.9999), 1 / 6, "M at n=3, p=0.9999"), 1e-3)
    return f"16/3 benchmark holds; p->1 limit approached (gap {gap:.1e})"


def _reference_cases(table, backend: str):
    # a table at n=12, p=0.8, rounded, against the frozen reference pair by pair
    rounded = {(pair.i, pair.j): text for pair, text in table.rounded().items()}
    return ((rounded.get(key), text, f"pair {key} of the {backend} table")
            for key, text in REFERENCE_TABLE_N12_P08.items())


def _check_reference_table() -> str:
    frozen_total = sum(Fraction(text) for text in REFERENCE_TABLE_N12_P08.values())
    _worst_gap(itertools.chain([(frozen_total, 0, "the sum of the frozen rounded values")],
                               _reference_cases(expected_spread_table(12, 0.8), "float")))
    return "engine reproduces all 66 frozen reference entries"


def _oracle_cases(dists):
    # designs e1, e2 and e3 over (distribution, e1 object pair): each gives
    # 0. e2 and e3 share one value, the average over every position pair.
    for dist, object_pair in dists:
        yield (expected_spread_oracle(dist, "e1", object_pair=object_pair), 0,
               f"design e1, n={dist.n}")
        yield expected_spread_oracle(dist, "e2"), 0, f"designs e2 and e3, n={dist.n}"


def _check_design_oracle() -> str:
    dists = [(RankingDistribution.uniform(3), (1, 3)),
             (RankingDistribution.random(4, np.random.default_rng(7)), (1, 4))]
    worst = _worst_gap(_oracle_cases(dists), 1e-10)
    return f"design expectations vanish for uniform and random distributions (worst {worst:.1e})"


def _check_conditional() -> str:
    cases = ((expected_spread_conditional(12, 0.8, (7, 9), condition), frozen,
              f"the {condition} condition at n=12, p=0.8, pair (7,9)")
             for condition, frozen in CONDITIONAL_N12_P08_PAIR_7_9.items())
    _worst_gap(cases, 1e-12)
    _worst_gap([(CONDITIONAL_N12_P08_PAIR_7_9["consistent"] > 0, True,
                 "the sign of the frozen consistent value")])
    return "frozen conditional expectations reproduced at n=12, p=0.8, pair (7,9)"


def _check_display_rounding() -> str:
    expected = [
        (Fraction(1, 2000), "0.001"),
        (Fraction(-1, 2000), "-0.001"),
        (Fraction(-1, 100000), "0.000"),
        (Fraction(16, 3), "5.333"),
        # the binary value of this float sits just above the decimal tie
        (0.3185, "0.319"),
        (0.1234, "0.123"),
    ]
    _worst_gap((round_half_away(value), text, f"round_half_away({value!r})")
               for value, text in expected)
    return "display rounding handles ties, signs, and float decimals"


def _check_exact_backend() -> str:
    table = expected_spread_table(12, Fraction(4, 5), exact=True)
    float_rounded = expected_spread_table(12, 0.8).rounded()
    backends = ((text, float_rounded[pair], f"pair ({pair.i},{pair.j}) of both backends")
                for pair, text in table.rounded().items())
    _worst_gap(itertools.chain([(table.total(), 0, "the sum of the rational table")],
                               _reference_cases(table, "rational"), backends))
    return "rational backend sums to exactly 0 and matches the reference after rounding"


def _check_brute_force() -> str:
    one_weight = (
        (value, brute_force_expected_spread(n, p, pair),
         f"n={n}, p={p}, pair=({pair.i},{pair.j})")
        for n in (3, 4, 5)
        for p in (0.3, 0.8)
        for pair, value in expected_spread_table(n, p).values.items()
    )
    worst = _worst_gap(itertools.chain(one_weight, _two_weight_cases(_brute_force)), 1e-9)
    return ("engine matches full-permutation enumeration for n<=5, both e0 arms too "
            f"(worst gap {worst:.1e})")


def _check_lumping() -> str:
    n, p = 4, 0.7
    probs = swap_process_distribution(n, p)[1]
    pos = _perm_tables(n)[3]
    m = build_M(n, p)
    a, b = state_positions(n)
    lumped = np.zeros_like(m)
    # the tracked pair, named by its starting positions (a, b), takes the
    # state of their positions in each ranking
    np.add.at(lumped, (np.arange(len(a))[:, None], state_row(n, pos[:, a].T, pos[:, b].T)), probs)
    gap = _worst_gap(_worst_entry(lumped, m, "the tracked-pair law against M"), 1e-9)
    m = build_M(5, 0.6)
    a, b = state_positions(5)
    mirror = state_row(5, 6 - a, 6 - b)
    _worst_gap(_worst_entry(m, m[np.ix_(mirror, mirror)], "M against its board reversal"), 1e-12)
    return (f"tracked-pair distribution matches the lumped chain at n=4 (gap {gap:.1e}); "
            "the mixture matrix commutes with board reversal at n=5")


def _check_random_distributions() -> str:
    rng = np.random.default_rng(123)
    dists = ((RankingDistribution.random(4, rng), (2, 4)) for _ in range(100))
    worst = _worst_gap(_oracle_cases(dists), 1e-10)
    return f"100 random distributions give vanishing expectations (worst {worst:.1e})"


_QUICK_CHECKS: List[Callable[[], str]] = [
    _check_definition_glue, _check_mix_closed_form, _check_factored_vs_enumeration,
    _check_zero_sum, _check_reversal_symmetry, _check_uniform_limit, _check_reference_table,
    _check_design_oracle, _check_conditional, _check_display_rounding,
]

_FULL_CHECKS: List[Callable[[], str]] = [
    _check_exact_backend, _check_brute_force, _check_lumping, _check_random_distributions,
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
