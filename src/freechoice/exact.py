"""Exact expected-spread computation and small-scale brute-force oracles.

Under the null model every stage output is an independent noisy sample around
the same true ranking. Writing s1 for the true positions of the two objects
picked at positions (i, j) of the first ranking, the choice-stage and
final-stage positions are independent draws from row s1 of the mixing matrix
M, and s1 itself is distributed as row (i, j) of M. The expected spread is
the triple sum over (s1, s2, s3) of the state-level spread weighted by the
three M factors; conditional independence of s2 and s3 given s1 collapses it
to a handful of matrix-vector products.

The same kernel generalizes to a two-weight subject model in which rankings
made before the choice carry a larger noise weight P than the choice and
everything after it; :func:`noise.stage_weights` assigns the weights, as it
does for the simulator.

Two independent oracles guard the engine, both sums over one cached table
of the n! rankings for n <= 6: the swap process enumerated in full, and
arbitrary ranking distributions, which check the zero-expectation property
of the control-group-free designs. With ``exact=True`` every mix solve
behind a value is rational and certified by its exact residual (see
:mod:`noise`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Mapping, Tuple

import numpy as np

from . import core
from .core import PositionPair, Ranking, _checked_int, _checked_pair, all_position_pairs
from .designs import _FIXED_PAIR, _fixed_pair
from .noise import (
    CapacityError,
    Weight,
    _checked_weight,
    build_M,
    mix_apply,
    stage_weights,
    state_positions,
    state_row,
)

__all__ = [
    "CapacityError",
    "ExpectedSpreadTable",
    "RankingDistribution",
    "expected_spread_positions",
    "expected_spread_table",
    "expected_spread_two_param",
    "expected_spread_conditional",
    "expected_spread_oracle",
    "brute_force_expected_spread",
    "swap_process_distribution",
    "round_half_away",
    "TWO_PARAM_DESIGNS",
]

# Each name begins with the design kind whose fixed pair it takes.
TWO_PARAM_DESIGNS = ("e0-experimental", "e0-control", "e2", "e3", "e1-objects")


def round_half_away(value: Weight) -> str:
    """Format a number with three decimals, rounding ties away from zero.

    The computation is exact: floats are converted to their binary rational
    value first, so the result never depends on intermediate rounding.
    """
    f = Fraction(value)
    units = math.floor(abs(f) * 1000 + Fraction(1, 2))
    sign = "-" if f < 0 and units > 0 else ""
    whole, frac = divmod(units, 1000)
    return f"{sign}{whole}.{frac:03d}"


@lru_cache(maxsize=None)
def _base_vectors(n: int, exact: bool):
    # cons(s) = 1 when a < b (the choice stage would pick the first tracked
    # object); gap(s) = b - a.
    a, b = state_positions(n)
    cons, gap = np.stack([a < b, b - a]).astype(object if exact else float)
    cons.setflags(write=False)
    gap.setflags(write=False)
    return cons, gap


@lru_cache(maxsize=64)
def _applied_base(n: int, p: Weight, which: str, exact: bool) -> np.ndarray:
    cons, gap = _base_vectors(n, exact)
    source = cons if which == "cons" else gap
    out = mix_apply(n, p, source, exact=exact)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _design_kernel(n: int, first: Weight, choice: Weight, final: Weight, exact: bool):
    """Expected spread w1 - gap * w2 at each state, read at the pair's state (i, j).

    ``first``, ``choice`` and ``final`` are the noise weights of the first
    ranking, the choice stage, and the ranking the spread compares against.
    """
    # The solves at the choice and final weights come first, so that the
    # solves at the first weight run on one factorization.
    _applied_base(n, choice, "cons", exact)
    g_final = _applied_base(n, final, "gap", exact)
    bias, w2 = _choice_bias(n, first, choice, exact)
    w1 = mix_apply(n, first, bias * g_final, exact=exact)
    spread = w1 - _base_vectors(n, exact)[1] * w2
    spread.setflags(write=False)
    return spread


@lru_cache(maxsize=64)
def _choice_bias(n: int, first: Weight, choice: Weight, exact: bool):
    # bias = 2 M_choice cons - 1 and w2 = M_first bias. Neither depends on
    # the final weight, so the e0 arms at one (p, P) share the w2 solve.
    bias = 2 * _applied_base(n, choice, "cons", exact) - 1
    w2 = mix_apply(n, first, bias, exact=exact)
    for arr in (bias, w2):
        arr.setflags(write=False)
    return bias, w2


@lru_cache(maxsize=32)
def _conditional_kernel(n: int, p: Weight, exact: bool):
    c_vec = _applied_base(n, p, "cons", exact)
    g_vec = _applied_base(n, p, "gap", exact)
    cw1 = mix_apply(n, p, c_vec * g_vec, exact=exact)
    cw2 = mix_apply(n, p, c_vec, exact=exact)
    g2 = mix_apply(n, p, g_vec, exact=exact)
    for arr in (cw1, cw2, g2):
        arr.setflags(write=False)
    return cw1, cw2, g2


def expected_spread_positions(n: int, p: Weight, pair, *, exact: bool = False):
    """Exact expected spread of a trial using comparison positions ``pair``.

    The triple sum over outcome states collapses through the conditional
    independence of the choice-stage and final-stage states.
    """
    return expected_spread_two_param(n, p, p, "e0-experimental", pair, exact=exact)


def _triple_sum(n: int, pair, first: float, choice: float, final: float) -> float:
    # The unfactored triple sum over (s1, s2, s3) on one dense float M per
    # stage weight, the reference the factored engine is checked against.
    # The state-level spread is read from core.spread_simplified at call
    # time so that verification can detect a corrupted sign convention.
    pair = _checked_pair(n, pair)
    states = np.column_stack(state_positions(n)).tolist()
    sp = np.array([[core.spread_simplified(pair, s2, s3) for s3 in states] for s2 in states],
                  dtype=float)
    row = build_M(n, first)[state_row(n, pair.i, pair.j)]
    return float(np.einsum("a,ab,ac,bc->", row, build_M(n, choice), build_M(n, final), sp))


@dataclass(frozen=True, eq=False)
class ExpectedSpreadTable:
    """Expected spread for every comparison pair at fixed n and p."""

    n: int
    p: Weight
    values: Dict[PositionPair, Weight]
    exact: bool

    def __getitem__(self, pair) -> Weight:
        return self.values[_checked_pair(self.n, pair)]

    def total(self) -> Weight:
        """Sum of all entries; zero up to the backend's arithmetic."""
        if self.exact:
            return sum(self.values.values(), Fraction(0))
        return math.fsum(self.values.values())

    def rounded(self) -> Dict[PositionPair, str]:
        """Display values rounded half away from zero to three decimals."""
        return {pair: round_half_away(v) for pair, v in self.values.items()}

    def _rows(self):
        for pair in sorted(self.values, key=lambda q: (q.i, q.j)):
            value = self.values[pair]
            text = str(value) if self.exact else repr(float(value))
            yield pair.i, pair.j, text, round_half_away(value)

    def write_csv(self, handle) -> None:
        """CSV with header i,j,expected_spread,rounded; full precision values.

        ``handle`` is an open text file.
        """
        handle.write("i,j,expected_spread,rounded\n")
        for i, j, text, display in self._rows():
            handle.write(f"{i},{j},{text},{display}\n")

    def to_json_obj(self) -> dict:
        """The table as the JSON object that ``table --format json`` writes."""
        values = [
            {"i": i, "j": j, "expected_spread": text if self.exact else float(text), "rounded": display}
            for i, j, text, display in self._rows()
        ]
        return {
            "n": self.n,
            "p": str(self.p) if self.exact else float(self.p),
            "backend": "rational" if self.exact else "float",
            "values": values,
        }


def _table(kernel, n: int, p: Weight, exact: bool) -> ExpectedSpreadTable:
    # The kernel at every comparison pair; triu_indices lists (i - 1, j - 1)
    # in the order of all_position_pairs.
    i, j = np.triu_indices(n, 1)
    values = dict(zip(all_position_pairs(n), kernel[state_row(n, i + 1, j + 1)].tolist()))
    return ExpectedSpreadTable(n=n, p=p, values=values, exact=exact)


def expected_spread_table(n: int, p: Weight, *, exact: bool = False) -> ExpectedSpreadTable:
    """Expected spread for all C(n, 2) comparison pairs under the null model."""
    n = _checked_int(n, "n", 2)
    p = _checked_weight(p, "p", exact=exact)
    kernel = _design_kernel(n, p, p, p, exact)
    if not exact:
        # the conditionals at p solve now, against the factors held for p
        _conditional_kernel(n, p, exact)
    return _table(kernel, n, p, exact)


def expected_spread_two_param(
    n: int,
    p: Weight,
    P: Weight,
    design: str,
    pair=None,
    *,
    exact: bool = False,
):
    """Expected spread under the two-weight model for one design.

    Each stage carries the weight :func:`noise.stage_weights` gives it: the
    rankings made before the choice carry ``P``, the choice and later
    rankings ``p``. ``design`` is one of ``e0-experimental``, ``e0-control``,
    ``e2``, ``e3`` or ``e1-objects``; the e0 variants need a position pair
    and e1 the objects' true positions. With ``P = p`` this is the null
    model, where e1 gives exactly zero. ``P = 1`` is served by the uniform
    limit.
    """
    n = _checked_int(n, "n", 2)
    if design not in TWO_PARAM_DESIGNS:
        raise ValueError(f"unknown design {design!r}; expected one of {TWO_PARAM_DESIGNS}")
    p = _checked_weight(p, "p", exact=exact)
    P = _checked_weight(P, "P", exact=exact, allow_one=True, low=p)
    kind = design.partition("-")[0]
    pair = _fixed_pair(kind, n, pair, _FIXED_PAIR[kind] or "position")
    first, choice, final = stage_weights(
        p, P, "control" if design == "e0-control" else "experimental"
    )

    if kind == "e1":
        k = state_row(n, pair.first, pair.second)
        # the first weight's solve last, as in _design_kernel
        c_vec = _applied_base(n, choice, "cons", exact)
        g_final = _applied_base(n, final, "gap", exact)
        g_first = _applied_base(n, first, "gap", exact)
        value = (2 * c_vec[k] - 1) * (g_final[k] - g_first[k])
        return value if exact else float(value)

    kernel = _design_kernel(n, first, choice, final, exact)
    if pair is not None:
        value = kernel[state_row(n, pair.i, pair.j)]
        return value if exact else float(value)
    # e2 and e3 average the per-pair expectation over all C(n, 2) pairs.
    table = _table(kernel, n, p, exact)
    return table.total() / len(table.values)


def expected_spread_conditional(
    n: int,
    p: Weight,
    pair,
    condition: str,
    *,
    exact: bool = False,
):
    """Expected spread given a consistent choice or a reversal (null model).

    Conditioning on consistent choosers biases the expectation upward even
    though the unconditional value may be negative or zero; this is the
    selection effect that invalidates consistency-filtered analyses.
    """
    n = _checked_int(n, "n", 2)
    if condition not in ("consistent", "reversal"):
        raise ValueError(f"condition must be 'consistent' or 'reversal', got {condition!r}")
    pair = _checked_pair(n, pair)
    p = _checked_weight(p, "p", exact=exact)
    cw1, cw2, g2 = _conditional_kernel(n, p, exact)
    k = state_row(n, pair.i, pair.j)
    delta = pair.delta
    prob_consistent = cw2[k]
    if condition == "consistent":
        numerator = cw1[k] - delta * cw2[k]
        probability = prob_consistent
    else:
        numerator = delta * (1 - cw2[k]) - g2[k] + cw1[k]
        probability = 1 - prob_consistent
    if probability <= 0:
        raise ValueError(
            f"the {condition} event has probability zero at p={p}; nothing to condition on"
        )
    value = numerator / probability
    return value if exact else float(value)


# ---------------------------------------------------------------------------
# Full-permutation oracles.


@lru_cache(maxsize=8)
def _perm_tables(n: int):
    # All rankings of 1..n in lexicographic order (the identity first); for
    # each adjacent swap s, the index of every ranking after that swap; and
    # the rankings as rows of entries with their position table: ranking k
    # puts object o at pos[k, o].
    perms = tuple(itertools.permutations(range(1, n + 1)))
    index = {perm: k for k, perm in enumerate(perms)}
    swaps = np.zeros((n - 1, len(perms)), dtype=np.int32)
    for s in range(n - 1):
        for k, perm in enumerate(perms):
            entries = list(perm)
            entries[s], entries[s + 1] = entries[s + 1], entries[s]
            swaps[s, k] = index[tuple(entries)]
    entries = np.array(perms, dtype=np.int32)
    pos = np.zeros((len(perms), n + 1), dtype=np.int32)
    pos[np.arange(len(perms))[:, None], entries] = np.arange(1, n + 1)
    for table in (swaps, entries, pos):
        table.setflags(write=False)
    return perms, swaps, entries, pos


def _checked_ranking_size(n) -> int:
    # Checked before any of the n! rankings is listed.
    n = _checked_int(n, "n", 2)
    if n > 6:
        raise CapacityError(f"the n! rankings are enumerated for n <= 6 only, got n={n}")
    return n


def swap_process_distribution(n: int, p: float) -> Tuple[Tuple[tuple, ...], np.ndarray]:
    """Distribution of the swap process over all n! rankings.

    Returns (rankings, probabilities) where each ranking is an entries tuple
    and the probabilities are a read-only array, computed once per (n, p).
    The geometric mixture is truncated once the remaining mass drops below
    1e-12, so probabilities sum to 1 minus at most that. Supports n <= 6 and
    at most 10**5 mixture steps, about log(1e-12)/log(p): p <= 0.9997.
    """
    n = _checked_ranking_size(n)
    p = _checked_weight(p, "p")
    steps = math.log(1e-12) / math.log(p) if p > 0 else 0
    if steps > 10**5:
        raise CapacityError(f"p={p} needs {steps:.3g} swap steps; at most 1e5 are supported")
    return _swap_distribution(n, p)


@lru_cache(maxsize=16)
def _swap_distribution(n: int, p: float) -> Tuple[Tuple[tuple, ...], np.ndarray]:
    perms, swaps = _perm_tables(n)[:2]
    current = np.zeros(len(perms))
    current[0] = 1.0  # itertools.permutations yields the identity first
    probs = (1.0 - p) * current
    weight = 1.0 - p
    tail = p
    while tail >= 1e-12:
        # one uniformly random adjacent swap applied to the previous mixture
        current = np.sum(current[swaps], axis=0) / (n - 1)
        weight *= p
        probs = probs + weight * current
        tail *= p
    probs.setflags(write=False)
    return perms, probs


def _pair_spread(pos: np.ndarray, t1, t2, first, choice, final) -> float:
    # Expected spread when the three stage rankings are independent draws
    # from the laws ``first``, ``choice`` and ``final`` over one list of
    # rankings; ranking k puts object o at pos[k, o] and compares t1[k] with
    # t2[k]. The final ranking enters only through each object's expected
    # position; the first-stage term carries the final law's mass, which
    # keeps the value equal to the triple sum when that law is truncated.
    rows = np.arange(len(pos))[:, None]
    e3pos = final @ pos
    chosen = np.where(pos[:, t1].T < pos[:, t2].T, t1[:, None], t2[:, None])
    rejected = t1[:, None] + t2[:, None] - chosen
    stage1 = final.sum() * (pos[rows, chosen] - pos[rows, rejected])
    stage3 = e3pos[rejected] - e3pos[chosen]
    return float(first @ (stage1 + stage3) @ choice)


def _brute_force(n: int, pair, first: float, choice: float, final: float) -> float:
    # brute_force_expected_spread with its own swap-process weight per stage
    n = _checked_ranking_size(n)
    pair = _checked_pair(n, pair)
    laws = [swap_process_distribution(n, weight)[1] for weight in (first, choice, final)]
    _, _, entries, pos = _perm_tables(n)
    return _pair_spread(pos, entries[:, pair.i - 1], entries[:, pair.j - 1], *laws)


def brute_force_expected_spread(n: int, p: float, pair) -> float:
    """Expected spread by enumerating full rankings; the engine's oracle.

    Works directly on permutations and their positions, with none of the
    state-space reductions used by the main engine, so agreement between the
    two validates the lumped chain, the first-stage distribution argument,
    and the simplified spread formula at once. The final ranking is
    independent of the first two stages, so it is averaged out exactly, not
    lumped: a sum over pairs of rankings of expected final positions.
    Supports n <= 6.
    """
    return _brute_force(n, pair, p, p, p)


@dataclass(frozen=True)
class RankingDistribution:
    """A probability distribution over the rankings of 1..n (n <= 6).

    ``probabilities`` maps entries tuples to probabilities. Missing rankings
    have probability zero; the listed values must be nonnegative and sum to 1
    within 1e-12.
    """

    n: int
    probabilities: Mapping[tuple, float]
    # the law on the n! rankings of _perm_tables, zero off its support
    _law: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _checked_ranking_size(self.n))
        cleaned = {}
        expected = set(range(1, self.n + 1))
        for key, value in self.probabilities.items():
            key = tuple(key)
            if set(key) != expected or len(key) != self.n:
                raise ValueError(f"{key!r} is not a ranking of 1..{self.n}")
            if not value >= 0:  # also catches NaN
                raise ValueError(f"probability {value} for {key!r} is not a nonnegative number")
            cleaned[key] = float(value)
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        object.__setattr__(self, "probabilities", cleaned)
        law = np.array([cleaned.get(perm, 0.0) for perm in _perm_tables(self.n)[0]])
        law.setflags(write=False)
        object.__setattr__(self, "_law", law)

    @classmethod
    def uniform(cls, n: int) -> "RankingDistribution":
        perms = _perm_tables(_checked_ranking_size(n))[0]
        weight = 1.0 / len(perms)
        return cls(n, {perm: weight for perm in perms})

    @classmethod
    def point_mass(cls, ranking) -> "RankingDistribution":
        entries = tuple(ranking.entries if isinstance(ranking, Ranking) else ranking)
        return cls(len(entries), {entries: 1.0})

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "RankingDistribution":
        perms = _perm_tables(_checked_ranking_size(n))[0]
        weights = rng.dirichlet(np.ones(len(perms)))
        return cls(n, dict(zip(perms, (float(w) for w in weights))))

    def support(self) -> Tuple[Tuple[tuple, ...], np.ndarray]:
        """Rankings with positive probability, in lexicographic order."""
        keep = self._law > 0
        return tuple(itertools.compress(_perm_tables(self.n)[0], keep)), self._law[keep]


def expected_spread_oracle(
    dist: RankingDistribution,
    design: str,
    *,
    object_pair=None,
) -> float:
    """Exact expected (average) spread for a design by full enumeration.

    All three stage outputs are independent samples from ``dist``; the sum
    runs over every triple of the n! rankings, each weighted by ``dist``
    (zero off its support), with the final-stage positions marginalized
    first (an exact reordering). Designs: ``e1`` (fixed object pair, needs
    ``object_pair``), ``e2`` (pair drawn uniformly per subject) and ``e3``
    (every pair used equally often); for each of these the result is zero
    for every valid distribution.
    """
    if design not in ("e1", "e2", "e3"):
        raise ValueError(f"oracle designs are 'e1', 'e2', 'e3'; got {design!r}")
    object_pair = _fixed_pair(design, dist.n, object_pair, "object")
    _, _, entries, pos = _perm_tables(dist.n)
    if object_pair is not None:
        compared = [(np.full(len(pos), object_pair.first), np.full(len(pos), object_pair.second))]
    else:
        compared = [(entries[:, q.i - 1], entries[:, q.j - 1]) for q in all_position_pairs(dist.n)]
    # all three stages draw from dist's law on the rankings of pos
    total = math.fsum(_pair_spread(pos, t1, t2, *[dist._law] * 3) for t1, t2 in compared)
    return total / len(compared)
