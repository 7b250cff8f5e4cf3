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

:func:`sample_noisy_ranking` samples a stage of one subject from a numpy
Generator. :func:`_swap_rows` runs the same draws for a block of subjects
at once: :class:`_Streams` replays numpy's PCG64, bounded integer,
permutation and geometric draws on uint64 arrays, one stream per row, and
hands each draw it cannot replay to numpy itself. Where numpy's geometric
searches the running pmf sums (weight at most 2/3), both samplers read its
one uniform draw and search the sums themselves, through one rule that
raises ``ValueError`` for a uniform past the last sum, where numpy's own
search would never end.

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
system is solved by Bareiss fraction-free elimination with exact divisions.
The four sector solutions of a column are added as integer numerators over
one denominator, 4 d times the lcm of the sector determinants (d the common
denominator of v); the exact residual x - pQx = (1 - p)v is checked on those
integers, on the n - 1 swaps of each row, where an entry that misses it
raises ``ArithmeticError``; and each entry becomes a ``Fraction`` only then.
"""

from __future__ import annotations

import math
import mmap
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, Sequence, Tuple, Union

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
    """A dense system, an exact enumeration or a simulation's expected swap
    count would exceed its supported size."""


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
# most is resident between solves and during one.
_factors = None


def _linalg_functions(*names):
    # The named functions of the library numpy's linalg module links, under
    # the first prefix ("scipy_" or none) that has them all, each name
    # followed by "64_" where that library takes 64-bit integers, and its
    # integer type; None where the library or a name is missing.
    import ctypes

    from numpy.linalg import _umath_linalg

    suffix = "64_" if getattr(_umath_linalg, "_ilp64", False) else ""
    try:
        library = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for prefix in ("scipy_", ""):
        try:
            functions = [getattr(library, f"{prefix}{name}{suffix}") for name in names]
        except AttributeError:
            continue
        return functions, ctypes.c_int64 if suffix else ctypes.c_int32
    return None


@lru_cache(maxsize=None)
def _lapack():
    # LAPACK's getrf and getrs, the two routines of the gesv that
    # np.linalg.solve runs, and their integer type; None where the symbols
    # are missing or a probe solve differs from np.linalg.solve in any bit.
    import ctypes

    found = _linalg_functions("dgetrf_", "dgetrs_")
    if found is None:
        return None
    (getrf, getrs), integer = found
    size, data = ctypes.POINTER(integer), ctypes.c_void_p
    getrf.argtypes = [size, size, data, size, data, size]
    getrs.argtypes = [ctypes.c_char_p, size, size, data, size, data, data, size, size,
                      ctypes.c_size_t]
    getrf.restype = getrs.restype = None
    routines = getrf, getrs, integer
    v = np.arange(12.0).reshape(6, 2) / 7
    probe = _solve(routines, *_factor(routines, _system(3, 0.6)), np.multiply(0.4, v, order="F"))
    return routines if np.array_equal(probe, np.linalg.solve(_system(3, 0.6), 0.4 * v)) else None


@lru_cache(maxsize=None)
def _blas_threads():
    # OpenBLAS's getter and setter of its thread count, from the library of
    # _lapack's routines but without its probe solve; None where it has none.
    import ctypes

    found = _linalg_functions("openblas_get_num_threads", "openblas_set_num_threads")
    if found is None:
        return None
    (get, put), _ = found
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


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


def _certify(n: int, p: Fraction, vs: list, xs: list) -> None:
    # Exact residual x - pQx = (1 - p)v on the successor stencil of Q, with
    # p = r/q and v, x given as integer numerators vs, xs over one denominator.
    r, q = p.numerator, p.denominator
    for s, targets in enumerate(_successors(n).tolist()):
        if q * (n - 1) * xs[s] - r * sum(xs[t] for t in targets) != (q - r) * (n - 1) * vs[s]:
            raise ArithmeticError(
                f"rational mix solve at n={n}, p={p} misses its exact residual in row {s}"
            )


def _sector_solve(n: int, p: Fraction, v: list) -> list:
    # Solve (I - pQ)x = (1 - p)v one symmetry sector at a time: project v on
    # each character, P v = 1/4 sum_g chi(g) v o g, solve the reduced system
    # and add the pieces back. With p = r/q and vs = d v in integers (d the
    # common denominator of v), the sector system scaled by 4 d q(n - 1) is
    # A (4 d y) = (n - 1)(q - r) sum_g chi(g) vs o g, and Bareiss gives
    # det(A) 4 d y. The pieces add up as integers over 4 d lcm(det(A)).
    d = math.lcm(*(e.denominator for e in v))
    vs = [e.numerator * (d // e.denominator) for e in v]
    gain = (n - 1) * (p.denominator - p.numerator)
    pieces = []
    for chi in _CHARACTERS:
        rep_images, column, sign = _sector(n, chi)
        f = [gain * sum(c * vs[t] for c, t in zip(chi, images)) for images in rep_images]
        if any(f):
            pieces.append((*_bareiss_solve(_sector_lu(n, p, chi), f), column, sign))
    scale = math.lcm(*(det for det, *_ in pieces))
    xs = [0] * len(v)
    for det, y, column, sign in pieces:
        y = [scale // det * e for e in y] + [0]  # column -1, a dropped orbit, reads the 0
        xs = [x + g * y[k] for x, g, k in zip(xs, sign, column)]
    _certify(n, p, [4 * scale * e for e in vs], xs)
    return [Fraction(e, 4 * d * scale) for e in xs]


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
        arr = np.frompyfunc(Fraction, 1, 1)(arr)
    if p == 1:
        means = arr.reshape(m, -1).mean(axis=0)
        return np.tile(means, (m, 1)).reshape(arr.shape)
    if p == 0:
        return arr.copy()
    if exact:
        cols = arr.reshape(m, -1)
        out = np.empty_like(cols)
        for c in range(cols.shape[1]):
            out[:, c] = _sector_solve(n, p, cols[:, c].tolist())
        return out.reshape(arr.shape)
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


# numpy's PCG64 draws replayed on arrays, one subject stream per row. Every
# constant is an explicit np.uint64, so that no array is cast under the
# promotion rules of numpy 1.x, which NEP 50 changed in numpy 2.
_U = np.uint64
_LOW = _U(0xFFFFFFFF)
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier
_JUMPS = 256  # most words drawn from one row at once
_WORDS = 1024  # most words drawn at once, past one row's
_SLICE = 2**14  # most swap steps expanded at once in one block


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # high word of the 128-bit products a * b, by 32-bit halves
    a0, a1, b0, b1 = a & _LOW, a >> _U(32), b & _LOW, b >> _U(32)
    t = a0 * b0
    u = a1 * b0 + (t >> _U(32))
    v = a0 * b1 + (u & _LOW)
    return a1 * b1 + (u >> _U(32)) + (v >> _U(32))


def _mul(ah, al, bh, bl):
    # (a * b) mod 2**128 on (high, low) words
    return _mulhi(al, bl) + al * bh + ah * bl, al * bl


def _add(ah, al, bh, bl):
    low = al + bl
    return ah + bh + (low < al), low


@lru_cache(maxsize=None)
def _jumps() -> Tuple[np.ndarray, ...]:
    # (A_j, C_j), j = 0.._JUMPS, as (high, low) words: j steps of PCG64 take
    # the state s to A_j s + C_j inc, mod 2**128
    a, c = [1], [0]
    for _ in range(_JUMPS):
        a.append(a[-1] * _MULT % 2**128)
        c.append((c[-1] * _MULT + 1) % 2**128)
    return tuple(np.array([w >> shift & (2**64 - 1) for w in v], dtype=_U)
                 for v in (a, c) for shift in (64, 0))


def _output(h: np.ndarray, low: np.ndarray) -> np.ndarray:
    # PCG64's XSL-RR output of the states (h, low)
    v, r = h ^ low, h >> _U(58)
    return v >> r | v << ((_U(64) - r) & _U(63))


@lru_cache(maxsize=None)
def _search_sums(p: float) -> np.ndarray:
    # numpy's geometric(p), p >= 1/3, is the first X with U <= S_X, the pmf's
    # running sums as it adds them; past the last that grows it never stops
    q, prod, sums = 1.0 - p, p, [p]
    while sums[-1] + prod * q != sums[-1]:
        prod *= q
        sums.append(sums[-1] + prod)
    return np.array(sums)


def _searched(p: float, uniform) -> np.ndarray:
    # numpy's geometric(1 - p) - 1 by its pmf-sum search, for the uniform
    # draw(s) it reads; a uniform past the last sum that grows would keep
    # numpy's search running for ever
    sums = _search_sums(1.0 - p)
    k = np.searchsorted(sums, uniform)
    if np.any(k == len(sums)):
        raise ValueError(f"a geometric draw at noise weight {p!r} passes the last pmf "
                         "sum, where numpy's search for the swap count never ends")
    return k


@lru_cache(maxsize=None)
def _ziggurat() -> Tuple[np.ndarray, np.ndarray]:
    """numpy's exponential ziggurat tables ``ke`` and ``we``, read back from its own draws.

    numpy draws a standard exponential from a word w as ri = w >> 11 on
    strip i = (w >> 3) & 255, and returns ri * we[i] at once when ri < ke[i]
    (Marsaglia & Tsang 2000). A crafted PCG64 state makes numpy's next two
    words w and 0, and the state afterwards tells whether it took one. So
    we[i] is the value drawn at ri = 1 (strip 1, which never returns at
    once, accepts it on its second word), and ke[i] the least ri that takes
    a second word, searched near 2**53 we[i - 1] / we[i] as the tables are
    built: about 1,500 draws.
    """
    gen, inverse, top = np.random.Generator(np.random.PCG64(0)), pow(_MULT, -1, 2**128), 2**53

    def draw(ri: int, strip: int) -> Tuple[float, bool]:
        word = (ri << 8 | strip) << 3
        inc = -word * _MULT % 2**128  # the state after ``word`` is 0, whose output is 0
        gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": (word - inc) * inverse % 2**128, "inc": inc}}
        return gen.standard_exponential(), gen.bit_generator.state["state"]["state"] == word

    we, ke = [draw(1, strip)[0] for strip in range(256)], []
    for strip in range(256):
        guess = 0 if strip == 1 else int(we[strip - 1] / we[strip] * 2.0**53)
        lo, hi = max(0, guess - 4), min(top, guess + 4)
        if not ((lo == 0 or draw(lo - 1, strip)[1]) and (hi == top or not draw(hi, strip)[1])):
            lo, hi = 0, top
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if draw(mid, strip)[1] else (lo, mid)
        ke.append(lo)
    return np.array(ke, dtype=_U), np.array(we)


class _Streams:
    """numpy's draws from a block of PCG64 streams, replayed on arrays.

    Row k holds one stream's 128-bit state and increment as (high, low)
    uint64 words, and the 32-bit half numpy carries to that stream's next
    32-bit draw. Each method draws for the given rows as the ``Generator``
    method it names would, and advances only those rows. A draw the arrays
    do not replay (a ziggurat slow path, a Lemire rejection, a bound above
    2**32) is made by numpy itself on a scratch PCG64 set to that row's
    exact state, and the row goes on from the state numpy leaves.
    """

    def __init__(self, seeds: np.ndarray):
        # seeds: one row of 4 uint64 per stream, as PCG64 asks its
        # SeedSequence for them; seeding is PCG's srandom(state, seq)
        s0, s1, i0, i1 = np.asarray(seeds, dtype=_U).T
        self.ih, self.il = i0 << _U(1) | i1 >> _U(63), i1 << _U(1) | _U(1)
        self.sh, self.sl = _add(s0, s1, self.ih, self.il)
        self.carry, self.carried = np.zeros(len(s0), dtype=_U), np.zeros(len(s0), dtype=bool)
        self._gen = None
        self.words(np.arange(len(s0)), np.ones(len(s0), dtype=np.intp))

    def state(self, row: int, saved: tuple = None) -> dict:
        """The ``PCG64.state`` of one row, or of the row's state in ``saved``."""
        sh, sl, carried, carry = map(int, saved or self._saved(row))
        return {"bit_generator": "PCG64", "has_uint32": carried, "uinteger": carry, "state": {
            "state": sh << 64 | sl, "inc": int(self.ih[row]) << 64 | int(self.il[row])}}

    def _set(self, row: int, state: dict) -> None:
        (sh, sl), (ih, il) = (divmod(state["state"][key], 2**64) for key in ("state", "inc"))
        self.sh[row], self.sl[row], self.ih[row], self.il[row] = sh, sl, ih, il
        self.carried[row], self.carry[row] = state["has_uint32"], state["uinteger"]

    def _saved(self, rows) -> tuple:
        return self.sh[rows], self.sl[rows], self.carried[rows], self.carry[rows]

    def _redo(self, rows: np.ndarray, saved: tuple, redo: np.ndarray, draw) -> Iterator:
        # (k, numpy's own draw(gen, k)) for each k in ``redo``, on a scratch
        # PCG64 in row rows[k]'s saved state; the row goes on from where it ends
        self._gen = self._gen or np.random.Generator(np.random.PCG64(0))
        for k in redo.tolist():
            self._gen.bit_generator.state = self.state(rows[k], [part[k] for part in saved])
            yield k, draw(self._gen, k)
            self._set(rows[k], self._gen.bit_generator.state)

    def words(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """``counts[k]`` (at most _JUMPS) raw 64-bit words of row ``rows[k]``, row after row."""
        if len(rows) > 1 and counts.sum() > _WORDS:  # in parts, so memory stays bounded
            half = len(rows) // 2
            return np.concatenate((self.words(rows[:half], counts[:half]),
                                   self.words(rows[half:], counts[half:])))
        owner, ends = np.repeat(rows, counts), np.cumsum(counts)
        jump = np.arange(1, owner.size + 1) - np.repeat(ends - counts, counts)
        ah, al, ch, cl = (table[jump] for table in _jumps())
        h, low = _add(*_mul(ah, al, self.sh[owner], self.sl[owner]),
                      *_mul(ch, cl, self.ih[owner], self.il[owner]))
        last = ends[counts > 0] - 1
        self.sh[owner[last]], self.sl[owner[last]] = h[last], low[last]
        return _output(h, low)

    def halves(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """``counts[k]`` 32-bit draws of row ``rows[k]``, row after row.

        numpy's next_uint32 takes the low half of a fresh word and carries
        the high half to the next 32-bit draw; 64-bit draws leave it.
        """
        carried = self.carried[rows] & (counts > 0)
        words = (counts - carried + 1) // 2
        drawn = self.words(rows, words)
        # each row's carried half, then the low and high halves of its words
        drawn = np.insert(np.stack((drawn & _LOW, drawn >> _U(32)), axis=1).ravel(),
                          2 * (np.cumsum(words) - words)[carried], self.carry[rows[carried]])
        spare = carried + 2 * words > counts
        last = (np.cumsum(carried + 2 * words) - 1)[spare]
        self.carried[rows[counts > 0]] = False
        self.carried[rows[spare]], self.carry[rows[spare]] = True, drawn[last]
        return np.delete(drawn, last)

    def below(self, rows: np.ndarray, bound: int, counts: np.ndarray) -> np.ndarray:
        """``integers(0, bound, size=counts[k])`` on row ``rows[k]``, row after row.

        Below 2**32 numpy uses Lemire's multiply-shift (Lemire 2019, ACM
        TOMACS 29(1)) on 32-bit draws x: m = x * bound gives m >> 32 unless
        m mod 2**32 falls below 2**32 mod bound, which draws again.
        """
        out = np.zeros(int(counts.sum()), dtype=np.intp)
        if bound == 1:
            return out  # numpy draws nothing from a range of one value
        saved, start = self._saved(rows), np.cumsum(counts) - counts
        redo = np.flatnonzero(counts)
        if bound <= 2**32:
            m = self.halves(rows, counts) * _U(bound)
            out[:] = m >> _U(32)
            rejected = np.repeat(np.arange(len(rows)), counts)[(m & _LOW) < _U(2**32 % bound)]
            redo = np.flatnonzero(np.bincount(rejected, minlength=len(rows)))
        for k, values in self._redo(rows, saved, redo,
                                    lambda gen, k: gen.integers(0, bound, size=counts[k])):
            out[start[k]:start[k] + counts[k]] = values
        return out

    def geometric(self, rows: np.ndarray, p: float) -> np.ndarray:
        """``geometric(1 - p) - 1``, at least 0, on each row: a stage's swap count at weight p.

        For a success probability 1 - p >= 1/3 numpy searches the running
        pmf sums, and otherwise takes ceil(-E / log1p(-(1 - p))) of a
        ziggurat exponential E. A uniform draw above the last sum that grows
        would keep numpy's search running for ever; it raises ``ValueError``.
        """
        saved, word = self._saved(rows), self.words(rows, np.ones_like(rows))
        success = 1.0 - p
        if success >= 1 / 3:
            return _searched(p, (word >> _U(11)).astype(float) * 2.0**-53)
        ke, we = _ziggurat()
        ri, strip = word >> _U(11), (word >> _U(3) & _U(255)).astype(np.intp)
        redo = np.flatnonzero(ri >= ke[strip])
        k = np.ceil(-(ri.astype(float) * we[strip]) / math.log1p(-success)).astype(np.intp) - 1
        for r, value in self._redo(rows, saved, redo, lambda gen, r: gen.geometric(success)):
            k[r] = value - 1
        return np.maximum(k, 0)

    def permutations(self, rows: np.ndarray, n: int) -> np.ndarray:
        """``permutation(n)`` on each row, one row of the result per stream.

        numpy's shuffle swaps place i, from n - 1 down, with a place drawn
        by masked 32-bit draws below i + 1, redrawing any above i.
        """
        perm, every = np.tile(np.arange(n), (len(rows), 1)), np.arange(len(rows))
        for i in range(n - 1, 0, -1):
            mask, place, todo = _U((1 << i.bit_length()) - 1), np.empty_like(every), every
            while todo.size:
                value = self.halves(rows[todo], np.ones_like(todo)) & mask
                place[todo[value <= _U(i)]] = value[value <= _U(i)]
                todo = todo[value > _U(i)]
            perm[every, i], perm[every, place] = perm[every, place], perm[every, i]
        return perm


def _swap_rows(streams: _Streams, rows: np.ndarray, p: float, ranking: np.ndarray) -> np.ndarray:
    """The swap kernel on arrays: each row of ``ranking`` after one stage of swaps.

    Row k takes the swaps that :func:`sample_noisy_ranking` would draw from
    stream ``rows[k]`` at weight p, step by step over the block. Rows run
    with the most swaps first, so the rows taking step t lead the block, and
    the steps are expanded in slices of at most _SLICE, so that the memory
    does not grow with the swap count.
    """
    k = streams.geometric(rows, p)
    order = np.argsort(-k, kind="stable")
    k, rows, out = k[order], rows[order], ranking[order]
    flat, n, done = out.reshape(-1), out.shape[1], 0
    while k.size and done < k[0]:
        live = int(np.count_nonzero(k > done))
        width = min(int(k[0]) - done, max(1, _SLICE // live), 2 * _JUMPS - 2)
        counts = np.minimum(k[:live] - done, width)
        # the flat places swapped at step t, by the rows that take it, in order
        owner = np.repeat(np.arange(live), counts)
        bounds = np.cumsum(np.concatenate(([0], (counts > np.arange(width)[:, None]).sum(axis=1))))
        at = np.empty(owner.size, dtype=np.intp)
        step = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        at[bounds[step] + owner] = streams.below(rows[:live], n - 1, counts) + owner * n
        after, bounds = at + 1, bounds.tolist()
        for a, b in zip(bounds, bounds[1:]):
            left = flat.take(at[a:b])
            flat.put(at[a:b], flat.take(after[a:b]))
            flat.put(after[a:b], left)
        done += width
    ranking = np.empty_like(out)
    ranking[order] = out
    return ranking


def sample_noisy_ranking(truth: Ranking, p: float, rng: np.random.Generator) -> Ranking:
    """One noisy ranking: a geometric number of uniform adjacent swaps.

    The swap count K satisfies P(K = k) = (1 - p) p^k; repeated and
    cancelling swaps are allowed. p = 1 would never stop swapping, so the
    weight must lie in [0, 1). A uniform draw that numpy's pmf search could
    never finish raises ``ValueError``, as it does in the block kernel.
    """
    p = _checked_weight(p, "noise weight")
    # the search reads rng.random()'s one double, as numpy's geometric does;
    # numpy's inversion gives 0, not 1, for an exponential draw of exactly 0,
    # read as no swap
    k = _searched(p, rng.random()) if 1.0 - p >= 1 / 3 else rng.geometric(1.0 - p) - 1
    if k <= 0:
        return truth
    entries = list(truth.entries)
    for pos in rng.integers(0, truth.n - 1, size=k).tolist():
        entries[pos], entries[pos + 1] = entries[pos + 1], entries[pos]
    return Ranking(entries)


def sample_choice(truth: Ranking, pair: ObjectPair, p: float, rng: np.random.Generator) -> Choice:
    """Choice stage: sample a noisy ranking at weight p, take the better-ranked object."""
    noisy = sample_noisy_ranking(truth, p, rng)
    pos_first = noisy.position_of(pair.first)
    pos_second = noisy.position_of(pair.second)
    if pos_first < pos_second:
        return Choice(chosen=pair.first, rejected=pair.second)
    return Choice(chosen=pair.second, rejected=pair.first)
