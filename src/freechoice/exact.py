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

Two independent oracles guard the engine: a full-permutation enumeration of
the swap process for n <= 5, and an exact enumeration of arbitrary ranking
distributions for n <= 6 that checks the zero-expectation property of the
control-group-free designs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Mapping, Tuple

import numpy as np

from . import core
from .core import PositionPair, Ranking, SimplifiedState, all_position_pairs
from .noise import (
    Weight,
    _check_weight,
    as_exact_weight,
    build_M,
    mix_apply,
    stage_weights,
    state_index,
    state_space,
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

TWO_PARAM_DESIGNS = ("e0-experimental", "e0-control", "e2", "e3", "e1-objects")


class CapacityError(ValueError):
    """An exact enumeration would exceed its supported problem size."""


def round_half_away(value: Weight, decimals: int = 3) -> str:
    """Format a number with fixed decimals, rounding ties away from zero.

    The computation is exact: floats are converted to their binary rational
    value first, so the result never depends on intermediate rounding.
    """
    f = Fraction(value)
    scale = 10 ** decimals
    units = int(abs(f) * scale + Fraction(1, 2))
    sign = "-" if f < 0 and units > 0 else ""
    whole, frac = divmod(units, scale)
    return f"{sign}{whole}.{frac:0{decimals}d}"


def _checked_weight(p: Weight, exact: bool, name: str = "p", allow_one: bool = False) -> Weight:
    # The weight in the backend's number type, after its range check.
    if exact:
        p = as_exact_weight(p)
    _check_weight(p, name, allow_one)
    return p


def _as_pair(n: int, pair) -> PositionPair:
    if not isinstance(pair, PositionPair):
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise ValueError(f"expected a position pair, got {pair!r}") from None
        pair = PositionPair(int(i), int(j))
    if pair.j > n:
        raise ValueError(f"pair {pair} does not fit in a ranking of {n} objects")
    return pair


def _as_state(n: int, state) -> SimplifiedState:
    if not isinstance(state, SimplifiedState):
        try:
            a, b = state
        except (TypeError, ValueError):
            raise ValueError(f"expected a position state, got {state!r}") from None
        state = SimplifiedState(int(a), int(b))
    if state.a > n or state.b > n:
        raise ValueError(f"state {state} does not fit in a ranking of {n} objects")
    return state


@lru_cache(maxsize=None)
def _base_vectors(n: int, exact: bool):
    # cons(s) = 1 when a < b (the choice stage would pick the first tracked
    # object); gap(s) = b - a.
    states = state_space(n)
    if exact:
        cons = np.array([1 if s.a < s.b else 0 for s in states], dtype=object)
        gap = np.array([s.b - s.a for s in states], dtype=object)
    else:
        cons = np.array([1.0 if s.a < s.b else 0.0 for s in states])
        gap = np.array([float(s.b - s.a) for s in states])
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
    """Vectors w1, w2 from which :func:`_pair_value` reads each pair's expected spread.

    ``first``, ``choice`` and ``final`` are the noise weights of the first
    ranking, the choice stage, and the ranking the spread compares against.
    """
    c_vec = _applied_base(n, choice, "cons", exact)
    g_final = _applied_base(n, final, "gap", exact)
    bias = 2 * c_vec - 1
    w1 = mix_apply(n, first, bias * g_final, exact=exact)
    w2 = mix_apply(n, first, bias, exact=exact)
    w1.setflags(write=False)
    w2.setflags(write=False)
    return w1, w2


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


def _pair_row(n: int, pair: PositionPair) -> int:
    return state_index(n)[SimplifiedState(pair.i, pair.j)]


def _pair_value(kernel, n: int, pair: PositionPair, exact: bool) -> Weight:
    # Expected spread at one comparison pair from the kernel vectors (w1, w2).
    w1, w2 = kernel
    k = _pair_row(n, pair)
    value = w1[k] - pair.delta * w2[k]
    return value if exact else float(value)


def expected_spread_positions(
    n: int,
    p: Weight,
    pair,
    *,
    method: str = "factored",
    exact: bool = False,
):
    """Exact expected spread of a trial using comparison positions ``pair``.

    ``method="factored"`` collapses the triple sum over outcome states using
    the conditional independence of the choice-stage and final-stage states.
    ``method="enumerate"`` keeps the full triple sum (float backend only) and
    exists to verify the factored path.
    """
    pair = _as_pair(n, pair)
    if method not in ("factored", "enumerate"):
        raise ValueError(f"unknown method {method!r}")
    p = _checked_weight(p, exact)
    if method == "enumerate":
        if exact:
            raise ValueError("the enumeration path supports the float backend only")
        return _enumerate_value(n, float(p), pair)
    return _pair_value(_design_kernel(n, p, p, p, exact), n, pair, exact)


def _enumerate_value(n: int, p: float, pair: PositionPair) -> float:
    # Plain triple sum over (s1, s2, s3). The state-level spread is read from
    # core.spread_simplified at call time so that verification can detect a
    # corrupted sign convention.
    entries = build_M(n, p)
    states = state_space(n)
    row = entries[_pair_row(n, pair)]
    sp = np.empty((len(states), len(states)))
    for b, s2 in enumerate(states):
        for c, s3 in enumerate(states):
            sp[b, c] = core.spread_simplified(pair, s2, s3)
    return float(np.einsum("a,ab,ac,bc->", row, entries, entries, sp))


@dataclass(frozen=True, eq=False)
class ExpectedSpreadTable:
    """Expected spread for every comparison pair at fixed n and p."""

    n: int
    p: Weight
    values: Dict[PositionPair, Weight]
    exact: bool

    def __getitem__(self, pair) -> Weight:
        return self.values[_as_pair(self.n, pair)]

    def total(self) -> Weight:
        """Sum of all entries; zero up to the backend's arithmetic."""
        if self.exact:
            return sum(self.values.values(), Fraction(0))
        return math.fsum(self.values.values())

    def rounded(self, decimals: int = 3) -> Dict[PositionPair, str]:
        """Display values rounded half away from zero."""
        return {pair: round_half_away(v, decimals) for pair, v in self.values.items()}

    def _rows(self):
        for pair in sorted(self.values, key=lambda q: (q.i, q.j)):
            value = self.values[pair]
            text = str(value) if self.exact else repr(float(value))
            yield pair.i, pair.j, text, round_half_away(value)

    def write_csv(self, destination) -> None:
        """CSV with header i,j,expected_spread,rounded; full precision values."""
        if hasattr(destination, "write"):
            self._write_csv(destination)
            return
        with open(destination, "w", newline="") as handle:
            self._write_csv(handle)

    def _write_csv(self, handle) -> None:
        handle.write("i,j,expected_spread,rounded\n")
        for i, j, text, display in self._rows():
            handle.write(f"{i},{j},{text},{display}\n")

    def to_json_obj(self) -> dict:
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

    def write_json(self, destination) -> None:
        obj = self.to_json_obj()
        if hasattr(destination, "write"):
            json.dump(obj, destination, indent=2, sort_keys=True)
            destination.write("\n")
            return
        with open(destination, "w", newline="") as handle:
            json.dump(obj, handle, indent=2, sort_keys=True)
            handle.write("\n")


def expected_spread_table(n: int, p: Weight, *, exact: bool = False) -> ExpectedSpreadTable:
    """Expected spread for all C(n, 2) comparison pairs under the null model."""
    if n < 2:
        raise ValueError("n must be at least 2")
    p = _checked_weight(p, exact)
    kernel = _design_kernel(n, p, p, p, exact)
    values = {pair: _pair_value(kernel, n, pair, exact) for pair in all_position_pairs(n)}
    return ExpectedSpreadTable(n=n, p=p, values=values, exact=exact)


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
    if design not in TWO_PARAM_DESIGNS:
        raise ValueError(f"unknown design {design!r}; expected one of {TWO_PARAM_DESIGNS}")
    p = _checked_weight(p, exact)
    P = _checked_weight(P, exact, "P", allow_one=True)
    if p > P:
        raise ValueError(f"the pre-choice weight P must be at least p, got p={p} > P={P}")
    if design in ("e0-experimental", "e0-control"):
        if pair is None:
            raise ValueError(f"design {design!r} needs a comparison position pair")
        pair = _as_pair(n, pair)
    elif design in ("e2", "e3") and pair is not None:
        raise ValueError(f"design {design!r} takes no fixed pair")
    first, choice, final = stage_weights(
        p, P, "control" if design == "e0-control" else "experimental"
    )

    if design == "e1-objects":
        k = state_index(n)[_as_state(n, pair)]
        c_vec = _applied_base(n, choice, "cons", exact)
        g_first = _applied_base(n, first, "gap", exact)
        g_final = _applied_base(n, final, "gap", exact)
        value = (2 * c_vec[k] - 1) * (g_final[k] - g_first[k])
        return value if exact else float(value)

    kernel = _design_kernel(n, first, choice, final, exact)
    if pair is not None:
        return _pair_value(kernel, n, pair, exact)
    # e2 and e3 average the per-pair expectation over all C(n, 2) pairs.
    terms = [_pair_value(kernel, n, q, exact) for q in all_position_pairs(n)]
    if exact:
        return sum(terms, Fraction(0)) / len(terms)
    return math.fsum(terms) / len(terms)


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
    if condition not in ("consistent", "reversal"):
        raise ValueError(f"condition must be 'consistent' or 'reversal', got {condition!r}")
    pair = _as_pair(n, pair)
    p = _checked_weight(p, exact)
    cw1, cw2, g2 = _conditional_kernel(n, p, exact)
    k = _pair_row(n, pair)
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
    perms = tuple(itertools.permutations(range(1, n + 1)))
    index = {perm: k for k, perm in enumerate(perms)}
    m = len(perms)
    pos = np.zeros((m, n + 1), dtype=np.int16)
    for k, perm in enumerate(perms):
        for position, obj in enumerate(perm, start=1):
            pos[k, obj] = position
    swaps = np.zeros((n - 1, m), dtype=np.int32)
    for s in range(n - 1):
        for k, perm in enumerate(perms):
            entries = list(perm)
            entries[s], entries[s + 1] = entries[s + 1], entries[s]
            swaps[s, k] = index[tuple(entries)]
    pos.setflags(write=False)
    swaps.setflags(write=False)
    return perms, pos, swaps


def swap_process_distribution(n: int, p: float) -> Tuple[Tuple[tuple, ...], np.ndarray]:
    """Distribution of the swap process over all n! rankings.

    Returns (rankings, probabilities) where each ranking is an entries tuple.
    The geometric mixture is truncated once the remaining mass drops below
    1e-12, so probabilities sum to 1 minus at most that. Supports n <= 6.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > 6:
        raise CapacityError("the full-permutation distribution supports n <= 6")
    _check_weight(float(p), "p")
    perms, _, swaps = _perm_tables(n)
    m = len(perms)
    identity_index = 0  # itertools.permutations yields the identity first
    current = np.zeros(m)
    current[identity_index] = 1.0
    probs = (1.0 - p) * current
    weight = 1.0 - p
    tail = p
    while tail >= 1e-12:
        # one uniformly random adjacent swap applied to the previous mixture
        current = np.sum(current[swaps], axis=0) / (n - 1)
        weight *= p
        probs = probs + weight * current
        tail *= p
    return perms, probs


def brute_force_expected_spread(n: int, p: float, pair) -> float:
    """Expected spread by enumerating full rankings; the engine's oracle.

    Works directly on permutations and their positions, with none of the
    state-space reductions used by the main engine, so agreement between the
    two validates the lumped chain, the first-stage distribution argument,
    and the simplified spread formula at once. Supports n <= 5.
    """
    if n > 5:
        raise CapacityError("the full-permutation oracle supports n <= 5")
    pair = _as_pair(n, pair)
    _check_weight(float(p), "p")
    perms, probs = swap_process_distribution(n, float(p))
    _, pos, _ = _perm_tables(n)
    parr = np.array(perms, dtype=np.int32)
    m = len(perms)
    t1 = parr[:, pair.i - 1]
    t2 = parr[:, pair.j - 1]
    pos2_t1 = pos[:, t1].T
    pos2_t2 = pos[:, t2].T
    chosen = np.where(pos2_t1 < pos2_t2, t1[:, None], t2[:, None])
    rejected = t1[:, None] + t2[:, None] - chosen
    rows = np.arange(m)[:, None]
    pos1_c = pos[rows, chosen].astype(np.int32)
    pos1_r = pos[rows, rejected].astype(np.int32)
    pos3_c = pos.T[chosen].astype(np.int32)
    pos3_r = pos.T[rejected].astype(np.int32)
    spread_t = (pos1_c[:, :, None] - pos3_c) + (pos3_r - pos1_r[:, :, None])
    return float(np.einsum("a,b,c,abc->", probs, probs, probs, spread_t.astype(float)))


@dataclass(frozen=True)
class RankingDistribution:
    """A probability distribution over the rankings of 1..n (n <= 6).

    ``probabilities`` maps entries tuples to probabilities. Missing rankings
    have probability zero; the listed values must be nonnegative and sum to 1
    within 1e-12.
    """

    n: int
    probabilities: Mapping[tuple, float]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.n > 6:
            raise CapacityError("ranking distributions support n <= 6")
        cleaned = {}
        expected = set(range(1, self.n + 1))
        for key, value in self.probabilities.items():
            key = tuple(key)
            if set(key) != expected or len(key) != self.n:
                raise ValueError(f"{key!r} is not a ranking of 1..{self.n}")
            if value < 0:
                raise ValueError(f"negative probability {value} for {key!r}")
            cleaned[key] = float(value)
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        object.__setattr__(self, "probabilities", cleaned)

    @classmethod
    def uniform(cls, n: int) -> "RankingDistribution":
        perms = list(itertools.permutations(range(1, n + 1)))
        weight = 1.0 / len(perms)
        return cls(n, {perm: weight for perm in perms})

    @classmethod
    def point_mass(cls, ranking) -> "RankingDistribution":
        entries = tuple(ranking.entries if isinstance(ranking, Ranking) else ranking)
        return cls(len(entries), {entries: 1.0})

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "RankingDistribution":
        perms = list(itertools.permutations(range(1, n + 1)))
        weights = rng.dirichlet(np.ones(len(perms)))
        return cls(n, dict(zip(perms, (float(w) for w in weights))))

    def support(self) -> Tuple[Tuple[tuple, ...], np.ndarray]:
        """Rankings with positive probability, in lexicographic order."""
        keys = sorted(self.probabilities)
        probs = np.array([self.probabilities[k] for k in keys])
        return tuple(keys), probs


def expected_spread_oracle(
    dist: RankingDistribution,
    design: str,
    *,
    object_pair=None,
) -> float:
    """Exact expected (average) spread for a design by full enumeration.

    All three stage outputs are independent samples from ``dist``; the sum
    runs over every triple of rankings in its support, with the final-stage
    positions marginalized first (an exact reordering). Designs: ``e1``
    (fixed object pair, needs ``object_pair``), ``e2`` (pair drawn uniformly
    per subject) and ``e3`` (every pair used equally often); for each of
    these the result is zero for every valid distribution.
    """
    if design not in ("e1", "e2", "e3"):
        raise ValueError(f"oracle designs are 'e1', 'e2', 'e3'; got {design!r}")
    n = dist.n
    keys, probs = dist.support()
    parr = np.array(keys, dtype=np.int32)
    m = len(keys)
    pos = np.zeros((m, n + 1), dtype=np.int32)
    rows = np.arange(m)[:, None]
    pos[rows, parr] = np.arange(1, n + 1)[None, :]
    # expected final-stage position of each object
    e3pos = probs @ pos

    def pair_value(t1: np.ndarray, t2: np.ndarray) -> float:
        pos2_t1 = pos[:, t1].T
        pos2_t2 = pos[:, t2].T
        chosen = np.where(pos2_t1 < pos2_t2, t1[:, None], t2[:, None])
        rejected = t1[:, None] + t2[:, None] - chosen
        stage1 = pos[rows, chosen] - pos[rows, rejected]
        stage3 = e3pos[rejected] - e3pos[chosen]
        values = stage1 + stage3
        return float(probs @ values @ probs)

    if design == "e1":
        if object_pair is None:
            raise ValueError("design 'e1' needs the fixed object pair")
        first, second = (
            (object_pair.first, object_pair.second)
            if hasattr(object_pair, "first")
            else object_pair
        )
        first, second = int(first), int(second)
        if not (1 <= first <= n and 1 <= second <= n and first != second):
            raise ValueError(f"objects ({first}, {second}) are not two distinct ids in 1..{n}")
        t1 = np.full(m, first, dtype=np.int32)
        t2 = np.full(m, second, dtype=np.int32)
        return pair_value(t1, t2)

    pairs = all_position_pairs(n)
    total = math.fsum(pair_value(parr[:, q.i - 1], parr[:, q.j - 1]) for q in pairs)
    return total / len(pairs)
