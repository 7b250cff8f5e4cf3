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

One swap kernel samples every stage on plain entry sequences. The subject
streams of :mod:`designs` feed it bounded draws replayed on raw PCG64
words, value for value those of ``Generator.integers``.

Two numeric backends are provided: 64-bit floats (default) and exact rational
arithmetic, which certifies identities such as row sums being exactly 1.

Q is never kept dense. Each n has one cached swap stencil: the distinct
(row, column) entries of Q, read from the n - 1 swaps out of every row,
and how many swaps lead to each. An entry of Q is the sequential sum of
that many copies of 1/(n - 1), so the float backend writes I - pQ for
each (n, p) straight into one zero array, bit for bit equal to
``np.eye(m) - p * Q``. LAPACK's getrf factors that array in place (it is
bitwise symmetric, so its C-order buffer is the column-major matrix LAPACK
reads) and getrs solves each call's right-hand sides against the factors:
the two routines that ``np.linalg.solve`` runs inside gesv. At one BLAS
thread every product is therefore bit for bit that of ``np.linalg.solve``;
with more threads OpenBLAS picks the thread counts of gesv and of getrf and
getrs apart on small systems, and the last bit may move, as it does for
``np.linalg.solve`` alone between thread counts. The factors of the last
(n, p) are held, so a run of solves at one weight factors once, and a solve
at another (n, p) drops them before its system is written: the float engine
keeps at most one m x m array between calls or during one, fully resident
once getrf has written it (19.5 MB at n = 40, 130 MB at n = 64). The exact
engine orders its solves by weight, so a two-weight value factors each
weight once. Where numpy's LAPACK exports no getrf and getrs (MKL or
Accelerate builds) or a probe solve differs from ``np.linalg.solve`` in any
bit, every solve is ``np.linalg.solve`` on a fresh system, of which LAPACK
factors a copy.

Every dense m x m array comes from one allocator, which raises
:class:`CapacityError` once two such arrays of doubles (the held factors and
one more, or the system and LAPACK's copy where ``np.linalg.solve`` runs)
would pass 256 MiB, that is for n > 64; :func:`build_M` stops at n > 54,
where ``np.linalg.solve`` writes four in full. A float array from it is a
private anonymous mapping, whose pages stay the kernel's shared zero page
until written, so Q and the identity of :func:`build_M` are resident only
where their entries lie. The system is different: getrf writes all of it,
so its mapping is advised for transparent huge pages where the platform
has ``MADV_HUGEPAGE``, and one fault then maps 2 MiB instead of 4 KiB. In
one bench ``sweep`` pass (n = 12 to 40) that cut the minor faults from
83k to 9.5k and the system CPU from 0.13-0.20 s to 0.03-0.07 s. Where the
kernel grants no huge pages, or refuses the advice, only that saving is
lost.

The rational backend solves (I - pQ)x = (1 - p)v inside symmetry sectors. Q
commutes with the label swap (a, b) -> (b, a) and the board reversal
(a, b) -> (n + 1 - a, n + 1 - b), so v splits into four parts, one per sign
pattern of the two symmetries, and each part is solved on one row per orbit:
about m/4 unknowns instead of m = n(n - 1). Scaled to integers, each sector
system is solved by Bareiss fraction-free elimination with exact divisions,
and every rational result is still checked against the exact residual
x - pQx = (1 - p)v on the n - 1 swaps of each row; an entry that misses it
raises ``ArithmeticError``.
"""

from __future__ import annotations

import math
import mmap
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import List, Sequence, Tuple, Union

import numpy as np

from .core import Choice, ObjectPair, Ranking, _checked_int

__all__ = [
    "CapacityError",
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


class CapacityError(ValueError):
    """A dense system or an exact enumeration would exceed its supported size."""


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


def _checked_weight(p: Weight, name: str, *, exact: bool = False, allow_one: bool = False,
                    low: Weight = 0) -> Weight:
    """The weight ``p`` in the backend's number type, once it lies in [low, 1).

    The rational backend reads ``p`` with :func:`as_exact_weight` and returns
    a ``Fraction``; the float backend takes real numbers only and returns a
    float. ``allow_one`` admits 1, the uniform limit; ``low = p`` gives the
    two-weight rule that the pre-choice weight P is at least p. A weight that
    cannot be read or compared, or lies out of range, raises ``ValueError``
    naming it.
    """
    value = None
    if exact or isinstance(p, (int, float, Fraction, np.integer, np.floating)):
        try:
            value = as_exact_weight(p) if exact else float(p)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    if value is None or not (low <= value and (value <= 1 if allow_one else value < 1)):
        raise ValueError(f"{name} must be a number in [{low}, 1{']' if allow_one else ')'}, "
                         f"got {p!r}")
    return value


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


@lru_cache(maxsize=None)
def _stencil(n: int) -> Tuple[np.ndarray, ...]:
    # The distinct entries (rows, cols) of Q, row by row; how many of a row's
    # n - 1 swaps lead to each (the runs of its sorted successors); and the
    # float entry, the sequential sum of that many copies of 1/(n - 1), as
    # adding one swap at a time gives it (count * (1/(n - 1)) differs in the
    # last bit for many counts).
    targets = np.sort(_successors(n), axis=1)
    first = np.ones(targets.shape, dtype=bool)
    first[:, 1:] = targets[:, 1:] != targets[:, :-1]
    rows, k = np.nonzero(first)
    counts = np.diff(np.flatnonzero(first), append=first.size)
    sums = np.array(list(accumulate([1.0 / (n - 1)] * (n - 1))))
    stencil = rows, targets[rows, k], counts, sums[counts - 1]
    for part in stencil:
        part.setflags(write=False)
    return stencil


_DENSE_BYTES = 256 * 2**20

# POSIX mmap takes the mapping's flags; Windows has no such argument, and its
# anonymous mapping is already private and demand-zero.
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def _square(n: int, exact: bool = False, huge: bool = False) -> np.ndarray:
    # A zero m x m array, m = n(n - 1): the one dense allocation behind Q, M
    # and the float system I - pQ, refused where two of them pass
    # _DENSE_BYTES (n > 64). A float array is a private anonymous mapping,
    # resident only where written (see the module docstring); a shared one
    # would allocate the pages that are merely read, such as those LAPACK
    # copies where np.linalg.solve runs. ``huge`` advises it for huge pages,
    # for an array that is written in full.
    m = n * (n - 1)
    if 2 * 8 * m * m > _DENSE_BYTES:
        raise CapacityError(
            f"a dense {m} x {m} system at n={n} needs {2 * 8 * m * m / 2**20:.0f} MiB; "
            f"at most {_DENSE_BYTES // 2**20} MiB (n <= 64) is supported"
        )
    if exact:
        return np.full((m, m), Fraction(0))
    mapping = mmap.mmap(-1, 8 * m * m, **_PRIVATE)
    if huge and hasattr(mmap, "MADV_HUGEPAGE"):
        try:
            mapping.madvise(mmap.MADV_HUGEPAGE)
        except OSError:
            pass  # the advice is a speed-up only
    return np.frombuffer(mapping, float).reshape(m, m)


def build_Q(n: int, exact: bool = False) -> np.ndarray:
    """Transition matrix of the tracked position pair under one random swap.

    A read-only array whose rows and columns are indexed by
    :func:`state_row`; entries are multiples of 1/(n - 1) and every row
    sums to 1.
    """
    n = _checked_int(n, "n", 2)
    rows, cols, counts, entries = _stencil(n)
    q = _square(n, exact)
    q[rows, cols] = [Fraction(int(c), n - 1) for c in counts] if exact else entries
    q.setflags(write=False)
    return q


def _system(n: int, p: float) -> np.ndarray:
    # The float I - pQ, written into one zero array: 0 - p q at the stencil
    # entries, then 1 added along the diagonal. Every entry, and the sign of
    # every zero, is that of np.eye(m) - p * Q. getrf writes the whole array.
    rows, cols, _, q = _stencil(n)
    a = _square(n, huge=True)
    a[rows, cols] = 0.0 - p * q
    diagonal = a.ravel()[:: len(a) + 1]
    diagonal += 1.0
    return a


# The factors (n, p, lu, pivots) of the last float system, or None. A new
# (n, p) empties the slot before it writes its system, so one m x m array at
# most is resident between solves and during one. Threads that race for the
# slot each solve against the factors they read or made.
_factors = None


@lru_cache(maxsize=None)
def _lapack():
    # LAPACK's getrf and getrs, the two routines of the gesv that
    # np.linalg.solve runs, from the library numpy's linalg module links,
    # and their integer type; None where the symbols are missing or a probe
    # solve differs from np.linalg.solve in any bit.
    import ctypes

    from numpy.linalg import _umath_linalg

    ilp64 = getattr(_umath_linalg, "_ilp64", False)
    integer = ctypes.c_int64 if ilp64 else ctypes.c_int32
    try:
        library = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for prefix in ("scipy_", ""):
        try:
            getrf, getrs = (getattr(library, f"{prefix}dget{step}_{'64_' if ilp64 else ''}")
                            for step in ("rf", "rs"))
            break
        except AttributeError:
            pass
    else:
        return None
    size, data = ctypes.POINTER(integer), ctypes.c_void_p
    getrf.argtypes = [size, size, data, size, data, size]
    getrs.argtypes = [ctypes.c_char_p, size, size, data, size, data, data, size, size,
                      ctypes.c_size_t]
    getrf.restype = getrs.restype = None
    routines = getrf, getrs, integer
    v = np.arange(12.0).reshape(6, 2) / 7
    probe = _solve(routines, *_factor(routines, _system(3, 0.6)), np.multiply(0.4, v, order="F"))
    return routines if np.array_equal(probe, np.linalg.solve(_system(3, 0.6), 0.4 * v)) else None


def _factor(routines, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # getrf on a in place. The system is bitwise symmetric, so its C-order
    # buffer already is the column-major matrix LAPACK reads.
    getrf, _, integer = routines
    m, info = integer(len(a)), integer()
    pivots = np.empty(len(a), dtype=np.dtype(integer))
    getrf(m, m, a.ctypes.data, m, pivots.ctypes.data, info)
    if info.value:
        raise np.linalg.LinAlgError("Singular matrix")
    return a, pivots


def _factored(n: int, p: float, routines) -> Tuple[np.ndarray, np.ndarray]:
    # The factors of I - pQ: the slot's, or new ones, published into the slot.
    global _factors
    held = _factors
    if held is None or held[:2] != (n, p):
        _factors = held = None
        lu, pivots = _factor(routines, _system(n, p))
        lu.setflags(write=False)
        pivots.setflags(write=False)
        held = _factors = (n, p, lu, pivots)
    return held[2:]


def _solve(routines, lu: np.ndarray, pivots: np.ndarray, x: np.ndarray) -> np.ndarray:
    # getrs in place on x, a fresh column-major array with one right-hand
    # side per column. The last argument is the length of the character
    # argument "N", which a Fortran-built LAPACK reads.
    _, getrs, integer = routines
    m, columns, info = integer(len(lu)), integer(x.size // len(lu)), integer()
    getrs(b"N", m, columns, lu.ctypes.data, m, pivots.ctypes.data, x.ctypes.data, m, info, 1)
    return x


# The symmetries of Q: the label swap sigma(a, b) = (b, a), the board
# reversal rho(a, b) = (n + 1 - a, n + 1 - b) and their product. A character
# lists its signs on (id, sigma, rho, sigma rho).
_CHARACTERS = tuple((1, s, r, s * r) for s in (1, -1) for r in (1, -1))


@lru_cache(maxsize=32)
def _sector(n: int, chi: tuple) -> tuple:
    # For the sector of character chi: the images of each representative
    # (one row per representative, its own row first), and for every state
    # its column in the sector (-1 when its orbit drops out) and its sign
    # chi(g), where g maps the orbit's representative to it.
    a, b = state_positions(n)
    c, d = n + 1 - a, n + 1 - b
    images = state_row(n, np.stack([a, b, c, d]), np.stack([b, a, d, c]))
    # the representative is the orbit's smallest row; every g is its own
    # inverse, so g(rep) = s exactly when g(s) = rep
    rep = images.min(axis=0)
    sign = np.asarray(chi)[(images == rep).argmax(axis=0)]
    # sigma rho fixes the states with a + b = n + 1, so those orbits carry
    # only vectors with chi(sigma rho) = 1
    rows = np.arange(len(rep))
    reps = np.flatnonzero((rep == rows) & ((chi[3] == 1) | (images[3] != rows)))
    column = np.full(len(rep), -1)
    column[reps] = np.arange(len(reps))
    rep_images = tuple(map(tuple, images[:, reps].T.tolist()))
    return rep_images, tuple(column[rep].tolist()), tuple(sign.tolist())


@lru_cache(maxsize=32)
def _sector_lu(n: int, p: Fraction, chi: tuple) -> tuple:
    # Bareiss factors of A = q(n - 1)(I - pQ) on the sector of character chi,
    # p = r/q. A swap from a representative to t = g(rep(t)) reaches
    # x(t) = chi(g) x(rep(t)), so A = q(n - 1) I - r C, C the signed counts.
    rep_images, column, sign = _sector(n, chi)
    targets = _successors(n)[[images[0] for images in rep_images]]
    cols = np.asarray(column)[targets]
    hit = cols >= 0
    counts = np.zeros((len(rep_images),) * 2, dtype=np.int64)
    np.add.at(counts, (np.nonzero(hit)[0], cols[hit]), np.asarray(sign)[targets][hit])
    r, q = p.numerator, p.denominator
    a = (q * (n - 1) * np.eye(len(counts), dtype=object) - r * counts.astype(object)).tolist()
    # No pivoting: A is strictly diagonally dominant for p < 1. Entries stay
    # minors of A, so each division by the previous pivot is exact; column k
    # keeps step k's multipliers and the last pivot is det(A). A step with a
    # zero multiplier only scales the row by pivot / previous pivot, so it is
    # deferred to the row's next use: row i is current as of step start[i].
    pivots, start = [1], [0] * len(a)
    for k, row_k in enumerate(a):
        for i in (i for i in range(k, len(a)) if a[i][k]):
            row_i = a[i]
            if start[i] < k:
                row_i[k:] = [pivots[k] * e // pivots[start[i]] for e in row_i[k:]]
            if i > k:
                f, right = row_i[k], zip(row_i[k + 1:], row_k[k + 1:])
                row_i[k + 1:] = [(row_k[k] * e - f * t) // pivots[k] for e, t in right]
            start[i] = k + 1
        pivots.append(row_k[k])
    return tuple(map(tuple, a))


def _bareiss_solve(a: tuple, b: list) -> Tuple[int, list]:
    # det(A) and the integer vector det(A) A^(-1) b (Cramer) from the Bareiss
    # factors of A: replay the elimination on b, then back-substitute.
    b, prev = list(b), 1
    for k, row_k in enumerate(a):
        for i in range(k + 1, len(a)):
            b[i] = (row_k[k] * b[i] - a[i][k] * b[k]) // prev
        prev = row_k[k]
    y = [0] * len(a)
    for i in range(len(a) - 1, -1, -1):
        y[i] = (prev * b[i] - sum(e * t for e, t in zip(a[i][i + 1:], y[i + 1:]))) // a[i][i]
    return prev, y


def _certify(n: int, p: Fraction, v: list, x: list) -> None:
    # Exact residual x - pQx = (1 - p)v on the successor stencil of Q, with
    # p = r/q and x, v scaled to integers by their common denominator d.
    r, q = p.numerator, p.denominator
    d = math.lcm(*(e.denominator for e in x + v))
    xs, vs = ([e.numerator * (d // e.denominator) for e in w] for w in (x, v))
    for s, targets in enumerate(_successors(n).tolist()):
        if q * (n - 1) * xs[s] - r * sum(xs[t] for t in targets) != (q - r) * (n - 1) * vs[s]:
            raise ArithmeticError(
                f"rational mix solve at n={n}, p={p} misses its exact residual in row {s}"
            )


def _sector_solve(n: int, p: Fraction, v: list) -> list:
    # Solve (I - pQ)x = (1 - p)v one symmetry sector at a time: project v on
    # each character, P v = 1/4 sum_g chi(g) v o g, solve the reduced system
    # and add the pieces back. With p = r/q, d the common denominator of v
    # and w = (n - 1)(q - r) d v, the sector system scaled by 4 d q(n - 1) is
    # A (4 d y) = sum_g chi(g) w o g in integers.
    r, q = p.numerator, p.denominator
    d = math.lcm(*(e.denominator for e in v))
    w = [(n - 1) * (q - r) * e.numerator * (d // e.denominator) for e in v]
    x = [Fraction(0)] * len(v)
    for chi in _CHARACTERS:
        rep_images, column, sign = _sector(n, chi)
        f = [sum(c * w[t] for c, t in zip(chi, images)) for images in rep_images]
        if not any(f):
            continue
        det, y = _bareiss_solve(_sector_lu(n, p, chi), f)
        y = [Fraction(e, 4 * d * det) for e in y]
        for s, k in enumerate(column):
            if k >= 0:
                x[s] += sign[s] * y[k]
    _certify(n, p, v, x)
    return x


def mix_apply(n: int, p: Weight, vectors: Sequence, exact: bool = False):
    """Return ``M @ vectors`` without forming M.

    ``vectors`` may be one vector of length n(n - 1) or a 2-d array whose
    columns are vectors. The product is obtained by solving
    (I - pQ) X = (1 - p) V directly. p = 1 is accepted as the uniform limit,
    where every output entry is the mean of the corresponding input vector.
    """
    n = _checked_int(n, "n", 2)
    p = _checked_weight(p, "noise weight", exact=exact, allow_one=True)
    m = n * (n - 1)
    arr = np.asarray(vectors, dtype=object if exact else float)
    if arr.ndim not in (1, 2) or arr.shape[0] != m:
        raise ValueError(f"vectors must have {m} rows for n = {n}, got shape {arr.shape}")
    if exact:
        cols = arr.reshape(m, -1)
        out = np.empty_like(cols)
        for c in range(cols.shape[1]):
            col = [Fraction(v) for v in cols[:, c]]
            if p == 1:
                mean = sum(col, Fraction(0)) / m
                solved = [mean] * m
            elif p == 0:
                solved = col
            else:
                solved = _sector_solve(n, p, col)
            out[:, c] = solved
        return out.reshape(arr.shape)
    if p == 1:
        means = arr.reshape(m, -1).mean(axis=0)
        return np.tile(means, (m, 1)).reshape(arr.shape)
    if p == 0:
        return arr.copy()
    routines = _lapack()
    if routines is None:
        return np.linalg.solve(_system(n, p), (1.0 - p) * arr)
    lu, pivots = _factored(n, p, routines)
    return _solve(routines, lu, pivots, np.multiply(1.0 - p, arr, order="F"))


def build_M(n: int, p: Weight, exact: bool = False) -> np.ndarray:
    """Mixing matrix M = (1 - p)(I - pQ)^(-1) over simplified states.

    A read-only array indexed like :func:`build_Q`. Rows sum to 1 and the
    matrix is symmetric and doubly stochastic; p = 1 gives the uniform
    limit, 1/(n(n - 1)) everywhere. The exact backend solves one rational
    system per column, so prefer :func:`mix_apply` when only a few
    matrix-vector products are needed. Its solve may write four dense
    arrays in full, so n > 54 raises :class:`CapacityError` before any
    allocation.
    """
    n = _checked_int(n, "n", 2)
    # The cap counts the four m x m arrays np.linalg.solve writes in full
    # where getrf and getrs are not found: (1 - p) I, LAPACK's copies of the
    # system and of that right-hand side, and the result. Through the held
    # factors it is two, the factors and the result, solved in place from
    # (1 - p) I. The identity stays mostly untouched zero pages.
    m = n * (n - 1)
    if 4 * 8 * m * m > _DENSE_BYTES:
        raise CapacityError(
            f"build_M at n={n} may write four dense {m} x {m} arrays, "
            f"{4 * 8 * m * m / 2**20:.0f} MiB; at most {_DENSE_BYTES // 2**20} MiB "
            f"(n <= 54) is supported, and mix_apply solves up to n <= 64"
        )
    identity = _square(n, exact)
    np.fill_diagonal(identity, 1)
    entries = mix_apply(n, p, identity, exact=exact)
    entries.setflags(write=False)
    return entries


class _Draws:
    """A Generator's geometric and bounded-integer draws, through numpy."""

    __slots__ = ("geometric", "_integers")

    def __init__(self, rng: np.random.Generator):
        self.geometric = rng.geometric
        self._integers = rng.integers

    def below(self, bound: int, k: int) -> List[int]:
        """``k`` integers uniform on 0..bound - 1, as ``rng.integers(0, bound, size=k)``."""
        return self._integers(0, bound, size=k).tolist()


_HALF_RANGE = 2**32


class _PCG64Draws(_Draws):
    """The same draws from a PCG64 Generator, bounded ones replayed on raw words.

    numpy draws an integer below ``bound <= 2**32`` by Lemire's multiply-shift
    (Lemire 2019, ACM TOMACS 29(1)) on 32-bit halves of PCG64's 64-bit
    words: a fresh word gives its low half and carries its high half to the
    next 32-bit draw. With m = x * bound for a half x, the draw is m >> 32
    unless m mod 2**32 falls below (2**32 - bound) mod bound, which redraws.
    Replaying that in Python skips numpy's per-call overhead; larger bounds
    go to ``integers``, whose 64-bit path leaves the carried half alone.
    ``fresh`` says that nothing has been drawn from ``rng`` yet, so no half
    is carried; otherwise the carried half is read from the state.
    """

    __slots__ = ("_raw", "_carry")

    def __init__(self, rng: np.random.Generator, fresh: bool = True):
        super().__init__(rng)
        self._raw = rng.bit_generator.random_raw
        self._carry = None
        if not fresh:
            state = rng.bit_generator.state
            if state["has_uint32"]:
                self._carry = state["uinteger"]

    def below(self, bound: int, k: int) -> List[int]:
        if bound > _HALF_RANGE:
            return super().below(bound, k)
        if bound == 1:
            return [0] * k  # numpy draws nothing from a range of one value
        threshold = _HALF_RANGE % bound
        raw, carry = self._raw, self._carry
        out: List[int] = []
        while len(out) < k:
            if carry is None:
                word = raw()
                half, carry = word & (_HALF_RANGE - 1), word >> 32
            else:
                half, carry = carry, None
            m = half * bound
            if m & (_HALF_RANGE - 1) >= threshold:
                out.append(m >> 32)
        self._carry = carry
        return out


def _swapped(entries: Sequence, p: float, draws: _Draws) -> Sequence:
    # The swap kernel of every stage: ``entries`` after a geometric number of
    # uniform adjacent swaps at weight p; ``entries`` itself when none is drawn.
    k = draws.geometric(1.0 - p) - 1
    if k == 0:
        return entries
    entries = list(entries)
    for pos in draws.below(len(entries) - 1, k):
        entries[pos], entries[pos + 1] = entries[pos + 1], entries[pos]
    return entries


def sample_noisy_ranking(truth: Ranking, p: float, rng: np.random.Generator) -> Ranking:
    """One noisy ranking: a geometric number of uniform adjacent swaps.

    The swap count K satisfies P(K = k) = (1 - p) p^k; repeated and
    cancelling swaps are allowed. p = 1 would never stop swapping, so the
    weight must lie in [0, 1).
    """
    p = _checked_weight(p, "noise weight")
    entries = _swapped(truth.entries, p, _Draws(rng))
    return truth if entries is truth.entries else Ranking(entries)


def sample_choice(truth: Ranking, pair: ObjectPair, p: float, rng: np.random.Generator) -> Choice:
    """Choice stage: sample a noisy ranking at weight p, take the better-ranked object."""
    noisy = sample_noisy_ranking(truth, p, rng)
    pos_first = noisy.position_of(pair.first)
    pos_second = noisy.position_of(pair.second)
    if pos_first < pos_second:
        return Choice(chosen=pair.first, rejected=pair.second)
    return Choice(chosen=pair.second, rejected=pair.first)
