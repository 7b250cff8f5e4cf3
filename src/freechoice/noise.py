"""Adjacent-swap noise: ranking samplers and lumped transition matrices.

A noisy ranking is produced by flipping a weighted coin before every move:
with probability p a uniformly random adjacent position pair is swapped, and
the first tails stops the process. The number of swaps is therefore geometric
with P(K = k) = (1 - p) p^k for k >= 0.

Because the swap positions are chosen independently of the current ranking,
the pair of positions occupied by any two fixed objects is itself a Markov
chain on the n(n - 1) states (a, b), a != b. State (a, b) is row
:func:`state_row` of Q, which holds the chain's one-swap transition
probabilities, and of M = (1 - p)(I - pQ)^(-1), the transition probabilities
after a full geometric-length swap sequence.

Every stage of a trial (first ranking, choice, final ranking) runs this one
process; stages differ only in their weight, which :func:`stage_weights`
assigns.

Two numeric backends are provided: 64-bit floats (default) and exact rational
arithmetic, which certifies identities such as row sums being exactly 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Tuple, Union

import numpy as np

from .core import Choice, ObjectPair, Ranking, _checked_int

__all__ = [
    "state_row",
    "state_positions",
    "stage_weights",
    "build_Q",
    "build_M",
    "mix_apply",
    "sample_noisy_ranking",
    "sample_choice",
    "as_exact_weight",
]

Weight = Union[float, int, Fraction]


def _check_weight(p: Weight, name: str, allow_one: bool = False) -> None:
    """Reject a noise weight outside [0, 1), or outside [0, 1] with ``allow_one``."""
    top_ok = p <= 1 if allow_one else p < 1
    if not (0 <= p and top_ok):
        bound = "[0, 1]" if allow_one else "[0, 1)"
        raise ValueError(f"{name} must lie in {bound}, got {p}")


_ARMS = ("none", "experimental", "control")


def stage_weights(p: Weight, P: Weight, arm: str) -> Tuple[Weight, Weight, Weight]:
    """Noise weights of the first ranking, the choice and the final ranking.

    The first ranking carries the pre-choice weight ``P`` and the choice
    carries ``p``. The final ranking carries ``p``, except in the control
    arm, where it is made before the choice and so carries ``P``.
    """
    if arm not in _ARMS:
        raise ValueError(f"unknown arm {arm!r}; expected one of {_ARMS}")
    return (P, p, P) if arm == "control" else (P, p, p)


def as_exact_weight(p: Weight) -> Fraction:
    """Convert a noise weight to an exact rational.

    Floats are interpreted through their shortest decimal form, so 0.8 means
    exactly 4/5. Strings such as ``"0.8"`` or ``"4/5"`` are accepted too.
    """
    return Fraction(str(p)) if isinstance(p, float) else Fraction(p)


def state_row(n: int, a, b):
    """Row of the lumped state (a, b) in Q and M: (a - 1)(n - 1) + b - 1 - [b > a].

    Rows list the states in lexicographic order; ``a`` and ``b`` may be
    integer arrays, which are mapped elementwise.
    """
    return (a - 1) * (n - 1) + b - 1 - (b > a)


@lru_cache(maxsize=None)
def state_positions(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only arrays ``a`` and ``b`` holding each row's state, in row order."""
    a, b = np.nonzero(~np.eye(_checked_int(n, "n", 2), dtype=bool))
    for positions in (a, b):
        positions += 1
        positions.setflags(write=False)
    return a, b


def _successors(n: int) -> np.ndarray:
    # Row of each state after each of the n - 1 adjacent swaps (k, k + 1),
    # one column per k; every swap has weight 1/(n - 1).
    k = np.arange(1, n)
    ab = np.stack(state_positions(n))[:, :, None]
    a, b = ab + (ab == k) - (ab == k + 1)
    return state_row(n, a, b)


def _q(n: int, zeros: np.ndarray, unit) -> np.ndarray:
    # Each entry is the sequential sum of ``unit`` = 1/(n - 1) over the swaps
    # leading there, added to ``zeros`` in the order of the successor table.
    rows = np.repeat(np.arange(len(zeros)), n - 1)
    np.add.at(zeros, (rows, _successors(n).ravel()), unit)
    zeros.setflags(write=False)
    return zeros


@lru_cache(maxsize=8)
def _q_float(n: int) -> np.ndarray:
    # np.zeros rather than np.full: the pages of this sparse matrix that no
    # swap reaches are never written, so they take no memory.
    m = n * (n - 1)
    return _q(n, np.zeros((m, m)), 1.0 / (n - 1))


@lru_cache(maxsize=8)
def _q_fraction(n: int) -> np.ndarray:
    m = n * (n - 1)
    return _q(n, np.full((m, m), Fraction(0)), Fraction(1, n - 1))


def build_Q(n: int, exact: bool = False) -> np.ndarray:
    """Transition matrix of the tracked position pair under one random swap.

    A read-only array whose rows and columns are indexed by
    :func:`state_row`; entries are multiples of 1/(n - 1) and every row
    sums to 1.
    """
    n = _checked_int(n, "n", 2)
    return _q_fraction(n) if exact else _q_float(n)


def _lu_factor(a: list) -> list:
    # In-place LU factorization without pivoting. The systems solved here
    # are strictly diagonally dominant for p < 1, so no pivot is ever zero.
    m = len(a)
    for k in range(m):
        inv = 1 / a[k][k]
        row_k = a[k]
        for i in range(k + 1, m):
            f = a[i][k] * inv
            if f:
                a[i][k] = f
                row_i = a[i]
                for j in range(k + 1, m):
                    if row_k[j]:
                        row_i[j] -= f * row_k[j]
    return a


def _lu_solve(lu: list, b: Sequence) -> list:
    m = len(lu)
    y = list(b)
    for i in range(m):
        row = lu[i]
        s = y[i]
        for j in range(i):
            if row[j] and y[j]:
                s -= row[j] * y[j]
        y[i] = s
    for i in range(m - 1, -1, -1):
        row = lu[i]
        s = y[i]
        for j in range(i + 1, m):
            if row[j] and y[j]:
                s -= row[j] * y[j]
        y[i] = s / row[i]
    return y


@lru_cache(maxsize=8)
def _mix_lu(n: int, p: Fraction) -> tuple:
    # Exact LU factors of I - pQ.
    a = [
        [(1 if i == j else 0) - p * entry for j, entry in enumerate(row)]
        for i, row in enumerate(_q_fraction(n).tolist())
    ]
    return tuple(map(tuple, _lu_factor(a)))


def mix_apply(n: int, p: Weight, vectors: Sequence, exact: bool = False):
    """Return ``M @ vectors`` without forming M.

    ``vectors`` may be one vector of length n(n - 1) or a 2-d array whose
    columns are vectors. The product is obtained by solving
    (I - pQ) X = (1 - p) V directly. p = 1 is accepted as the uniform limit,
    where every output entry is the mean of the corresponding input vector.
    """
    _check_weight(p, "noise weight", allow_one=True)
    m = n * (n - 1)
    if exact:
        pf = as_exact_weight(p)
        arr = np.asarray(vectors, dtype=object)
        cols = arr.reshape(m, -1)
        out = np.empty_like(cols)
        for c in range(cols.shape[1]):
            col = [Fraction(v) for v in cols[:, c]]
            if pf == 1:
                mean = sum(col, Fraction(0)) / m
                solved = [mean] * m
            elif pf == 0:
                solved = col
            else:
                solved = _lu_solve(_mix_lu(n, pf), [(1 - pf) * v for v in col])
            out[:, c] = solved
        return out.reshape(arr.shape)
    arr = np.asarray(vectors, dtype=float)
    if p == 1:
        means = arr.reshape(m, -1).mean(axis=0)
        return np.tile(means, (m, 1)).reshape(arr.shape)
    if p == 0:
        return arr.copy()
    a = np.eye(m) - float(p) * _q_float(n)
    return np.linalg.solve(a, (1.0 - float(p)) * arr)


def build_M(n: int, p: Weight, exact: bool = False) -> np.ndarray:
    """Mixing matrix M = (1 - p)(I - pQ)^(-1) over simplified states.

    A read-only array indexed like :func:`build_Q`. Rows sum to 1 and the
    matrix is symmetric and doubly stochastic; p = 1 gives the uniform
    limit, 1/(n(n - 1)) everywhere. The exact backend solves one rational
    system per column; at n = 12 this takes a few seconds, so prefer
    :func:`mix_apply` when only a few matrix-vector products are needed.
    """
    n = _checked_int(n, "n", 2)
    identity = np.eye(n * (n - 1), dtype=object if exact else float)
    entries = mix_apply(n, p, identity, exact=exact)
    entries.setflags(write=False)
    return entries


def sample_noisy_ranking(truth: Ranking, p: float, rng: np.random.Generator) -> Ranking:
    """One noisy ranking: a geometric number of uniform adjacent swaps.

    The swap count K satisfies P(K = k) = (1 - p) p^k; repeated and
    cancelling swaps are allowed. p = 1 would never stop swapping, so the
    weight must lie in [0, 1).
    """
    _check_weight(p, "noise weight")
    k = int(rng.geometric(1.0 - p)) - 1
    if k == 0:
        return truth
    entries = list(truth.entries)
    for pos in rng.integers(0, truth.n - 1, size=k):
        entries[pos], entries[pos + 1] = entries[pos + 1], entries[pos]
    return Ranking(entries, validate=False)


def sample_choice(truth: Ranking, pair: ObjectPair, p: float, rng: np.random.Generator) -> Choice:
    """Choice stage: sample a noisy ranking at weight p, take the better-ranked object."""
    noisy = sample_noisy_ranking(truth, p, rng)
    pos_first = noisy.position_of(pair.first)
    pos_second = noisy.position_of(pair.second)
    if pos_first < pos_second:
        return Choice(chosen=pair.first, rejected=pair.second)
    return Choice(chosen=pair.second, rejected=pair.first)
