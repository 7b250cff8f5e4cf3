"""Swap-process noise: state rows, Q and M matrices, samplers."""

import errno
import hashlib
import math
import mmap
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from freechoice import exact as exact_module
from freechoice import noise
from freechoice.core import ObjectPair, Ranking
from freechoice.designs import DissonanceShiftModel, MemoryModel, NullModel, TwoParamModel
from freechoice.exact import (
    expected_spread_conditional,
    expected_spread_positions,
    expected_spread_table,
    expected_spread_two_param,
    swap_process_distribution,
)
from freechoice.noise import (
    as_exact_weight,
    build_M,
    build_Q,
    mix_apply,
    sample_choice,
    sample_noisy_ranking,
    stage_weights,
    state_positions,
    state_row,
)
from freechoice.verify import _check_lumping


class TestWeights:
    def test_as_exact_weight_reads_decimals(self):
        assert as_exact_weight(0.8) == Fraction(4, 5)
        assert as_exact_weight(0.5) == Fraction(1, 2)
        assert as_exact_weight("4/5") == Fraction(4, 5)
        assert as_exact_weight("0.25") == Fraction(1, 4)
        assert as_exact_weight(Fraction(2, 3)) == Fraction(2, 3)
        assert as_exact_weight(0) == 0

    def test_stage_weights(self):
        # (first ranking, choice, final ranking); only the control arm ranks
        # again before choosing
        assert stage_weights(0.5, 0.9, "none") == (0.9, 0.5, 0.5)
        assert stage_weights(0.5, 0.9, "experimental") == (0.9, 0.5, 0.5)
        assert stage_weights(0.5, 0.9, "control") == (0.9, 0.5, 0.9)
        assert stage_weights(Fraction(1, 2), 1, "control") == (1, Fraction(1, 2), 1)
        with pytest.raises(ValueError):
            stage_weights(0.5, 0.9, "placebo")


# Every entry point that takes a noise weight: its call on one weight (the
# result as a plain comparable value), whether it has a rational backend,
# and whether it admits the uniform limit 1.
_WEIGHT_ENTRY_POINTS = {
    "mix_apply": (lambda w, exact: mix_apply(3, w, np.arange(6), exact=exact).tolist(), True, True),
    "build_M": (lambda w, exact: build_M(3, w, exact=exact).tolist(), True, True),
    "table": (lambda w, exact: expected_spread_table(3, w, exact=exact).values, True, False),
    "positions": (lambda w, exact: expected_spread_positions(3, w, (1, 3), exact=exact),
                  True, False),
    "two_param p": (lambda w, exact: expected_spread_two_param(3, w, 0.75, "e2", exact=exact),
                    True, False),
    "two_param P": (lambda w, exact: expected_spread_two_param(3, 0.25, w, "e2", exact=exact),
                    True, True),
    "conditional": (lambda w, exact: expected_spread_conditional(3, w, (1, 3), "consistent",
                                                                 exact=exact), True, False),
    "NullModel": (lambda w, exact: NullModel(p=w).stage_weights("none"), False, False),
    "TwoParamModel p": (lambda w, exact: TwoParamModel(p=w, P=0.75).stage_weights("control"),
                        False, False),
    "TwoParamModel P": (lambda w, exact: TwoParamModel(p=0.25, P=w).stage_weights("control"),
                        False, False),
    "MemoryModel": (lambda w, exact: MemoryModel(p=w).stage_weights("none"), False, False),
    "DissonanceShiftModel": (lambda w, exact: DissonanceShiftModel(p=w).stage_weights("none"),
                             False, False),
    "swap_process_distribution": (lambda w, exact: swap_process_distribution(3, w)[1].tolist(),
                                  False, False),
    "sample_noisy_ranking": (lambda w, exact: sample_noisy_ranking(
        Ranking.identity(6), w, np.random.default_rng(5)).entries, False, False),
}


@pytest.mark.parametrize("entry, exact", [
    (entry, exact) for entry, (_, rational, _) in _WEIGHT_ENTRY_POINTS.items()
    for exact in ((False, True) if rational else (False,))
])
def test_every_weight_follows_one_rule(entry, exact):
    # One reading of a weight everywhere: real numbers on both backends,
    # strings on the rational one only, and ValueError, never TypeError, for
    # anything unreadable or out of range.
    call, _, admits_one = _WEIGHT_ENTRY_POINTS[entry]
    half = call(Fraction(1, 2), exact)
    accepted = [0.5, np.float64(0.5)] + (["1/2", "0.5"] if exact else [])
    for weight in accepted:
        assert call(weight, exact) == half, weight
    refused = [None, "abc", math.nan, -0.1] + ([] if exact else ["1/2", "0.5"])
    for weight in refused + ([] if admits_one else [1.0]):
        with pytest.raises(ValueError):
            call(weight, exact)


class TestStateSpace:
    def test_size_and_order(self):
        a, b = state_positions(4)
        assert len(a) == len(b) == 12
        assert (a[0], b[0]) == (1, 2)
        assert np.all(a != b)
        assert not (a.flags.writeable or b.flags.writeable)

    def test_index_inverts_space(self):
        # rows follow the lexicographic enumeration of (a, b), a != b
        for n in range(2, 8):
            states = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
            assert [state_row(n, a, b) for a, b in states] == list(range(len(states)))
            a, b = state_positions(n)
            assert list(zip(a.tolist(), b.tolist())) == states
            assert np.array_equal(state_row(n, a, b), np.arange(len(states)))


class TestQ:
    def test_closed_form_entries(self):
        entries = build_Q(12)
        row = state_row
        assert entries[row(12, 1, 2), row(12, 2, 1)] == pytest.approx(1 / 11, abs=1e-14)
        assert entries[row(12, 1, 2), row(12, 1, 2)] == pytest.approx(9 / 11, abs=1e-14)
        assert entries[row(12, 2, 3), row(12, 2, 3)] == pytest.approx(8 / 11, abs=1e-14)
        # interior state: four neighbors move, the rest leave it alone
        assert entries[row(12, 5, 8), row(12, 5, 8)] == pytest.approx(7 / 11, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 12, 40])
    def test_entries_are_sequential_sums(self, n):
        # each entry adds 1/(n - 1) once per swap leading there; a product
        # count * (1/(n - 1)) differs in the last bit for many counts
        expected = np.zeros((n * (n - 1), n * (n - 1)))
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a == b:
                    continue
                for k in range(1, n):
                    moved = [k + 1 if x == k else k if x == k + 1 else x for x in (a, b)]
                    expected[state_row(n, a, b), state_row(n, *moved)] += 1 / (n - 1)
        assert np.array_equal(build_Q(n), expected)

    def test_symmetric_doubly_stochastic(self):
        q = build_Q(7)
        assert np.allclose(q, q.T, atol=0)
        assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12)
        assert q.min() >= 0

    def test_entries_multiples_of_unit(self):
        q = build_Q(6)
        grid = q * 5
        assert np.allclose(grid, np.round(grid), atol=1e-12)

    @pytest.mark.parametrize("n", [*range(2, 13), 20, 40])
    def test_system_from_stencil_is_dense_system(self, n):
        # I - pQ written into zeros from the stencil equals the dense
        # expression entry for entry, signs of zeros included
        m = n * (n - 1)
        q = build_Q(n)
        for p in (1e-4, 0.3, 0.5, 0.8, 0.97):
            dense = np.eye(m) - p * q
            system = noise._system(n, p)
            assert np.array_equal(system, dense)
            assert np.array_equal(np.signbit(system), np.signbit(dense))
            # LAPACK reads the C-order buffer as the column-major matrix
            assert np.array_equal(system, system.T)

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads /proc/self/statm")
    @pytest.mark.own_process
    def test_system_is_resident_only_where_written(self):
        # Q keeps the 4 KiB demand-zero pages that the system I - pQ gives
        # up for huge pages: the stencil writes the band of Q, 0.377 of its
        # pages at n = 40, and the others stay the kernel's shared zero
        # page, read or not
        n = 40
        m = n * (n - 1)
        build_Q(n)
        before = _resident()
        q = build_Q(n)
        written = _resident()
        assert written - before < 0.5 * 8 * m * m
        assert q.sum() == pytest.approx(m)
        assert _resident() - written < 0.05 * 8 * m * m

    @pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="no MADV_HUGEPAGE")
    def test_only_the_system_is_advised_for_huge_pages(self, monkeypatch):
        # Q and the identity of build_M stay mostly zero pages; the system,
        # which getrf writes in full, is advised once
        if noise._lapack() is None:
            pytest.skip("numpy's LAPACK exports no getrf and getrs")
        mappings, advised = [], []

        class Recorded(mmap.mmap):
            def __init__(self, *args, **kwargs):
                mappings.append(self)

            def madvise(self, option, *args):
                advised.append((mappings.index(self), option))
                return super().madvise(option, *args)

        monkeypatch.setattr(noise.mmap, "mmap", Recorded)
        monkeypatch.setattr(noise, "_factors", None)
        build_Q(6)
        build_M(6, 0.5)
        assert len(mappings) == 3
        assert np.shares_memory(noise._factors[2], np.frombuffer(mappings[2], float))
        assert advised == [(2, mmap.MADV_HUGEPAGE)]

    def test_refused_advice_leaves_solves_bitwise(self, monkeypatch):
        # a madvise that fails, or a platform without MADV_HUGEPAGE, gives
        # the same bits on 4 KiB pages
        n, p = 20, 0.7
        v = np.random.default_rng(9).normal(size=(n * (n - 1), 2))
        monkeypatch.setattr(noise, "_factors", None)
        advised = mix_apply(n, p, v)

        class Refused(mmap.mmap):
            def madvise(self, *args):
                raise OSError(errno.EINVAL, "advice refused")

        monkeypatch.setattr(noise.mmap, "mmap", Refused)
        monkeypatch.setattr(noise, "_factors", None)
        refused = mix_apply(n, p, v)
        assert np.array_equal(refused.view(np.uint64), advised.view(np.uint64))
        monkeypatch.delattr(noise.mmap, "MADV_HUGEPAGE", raising=False)
        monkeypatch.setattr(noise, "_factors", None)
        unadvised = mix_apply(n, p, v)
        assert np.array_equal(unadvised.view(np.uint64), advised.view(np.uint64))

    @pytest.mark.parametrize("n", [2, 7, 20])
    def test_mix_apply_is_dense_solve(self, n):
        m = n * (n - 1)
        v = np.random.default_rng(n).normal(size=(m, 2))
        for p in (0.3, 0.8):
            dense = np.linalg.solve(np.eye(m) - p * build_Q(n), (1 - p) * v)
            assert np.array_equal(mix_apply(n, p, v), dense)

    def test_exact_backend_matches_float(self):
        exact = build_Q(4, exact=True)
        floats = build_Q(4)
        assert not (exact.flags.writeable or floats.flags.writeable)
        assert exact[0, 0] == Fraction(1, 3)
        assert np.max(np.abs(np.vectorize(float)(exact) - floats)) < 1e-15


class TestM:
    def test_closed_form_n2(self):
        m = build_M(2, 0.8)
        assert np.allclose(m, [[5 / 9, 4 / 9], [4 / 9, 5 / 9]], atol=1e-14)

    def test_p_zero_is_identity(self):
        m = build_M(5, 0.0)
        assert np.allclose(m, np.eye(20), atol=0)

    def test_rows_approach_uniform_limit(self):
        near = build_M(4, 0.9999)
        assert np.max(np.abs(near - 1.0 / 12)) < 1e-3

    @pytest.mark.parametrize("n", [2, 4])
    def test_p_one_is_uniform_limit(self, n):
        m = n * (n - 1)
        assert np.all(build_M(n, 1.0) == 1.0 / m)
        assert np.all(build_M(n, 1, exact=True) == Fraction(1, m))

    def test_doubly_stochastic(self):
        m = build_M(8, 0.5)
        assert m.min() >= 0
        assert np.allclose(m.sum(axis=0), 1.0, atol=1e-10)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-10)

    def test_reversal_equivariance(self):
        n, p = 5, 0.6
        m = build_M(n, p)
        a, b = state_positions(n)
        mirror = state_row(n, n + 1 - a, n + 1 - b)
        assert sorted(mirror) == list(range(len(mirror)))
        for r in range(len(mirror)):
            for c in range(len(mirror)):
                assert m[r, c] == pytest.approx(m[mirror[r], mirror[c]], abs=1e-12)

    def test_exact_matches_float(self):
        exact = build_M(4, Fraction(4, 5), exact=True)
        floats = build_M(4, 0.8)
        assert not (exact.flags.writeable or floats.flags.writeable)
        assert np.max(np.abs(np.vectorize(float)(exact) - floats)) < 1e-12
        assert sum(exact[0]) == 1

    def test_mix_apply_equals_matrix_product(self):
        n, p = 6, 0.7
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(n * (n - 1), 3))
        direct = build_M(n, p) @ vectors
        solved = mix_apply(n, p, vectors)
        assert np.max(np.abs(direct - solved)) < 1e-10

    def test_mix_apply_limit_weights(self):
        n = 4
        vectors = np.arange(12.0).reshape(12, 1)
        at_zero = mix_apply(n, 0.0, vectors)
        assert np.allclose(at_zero, vectors)
        at_one = mix_apply(n, 1.0, vectors)
        assert np.allclose(at_one, vectors.mean())

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("p", [0, 0.5, 1])
    def test_mix_apply_checks_n_and_rows(self, exact, p):
        # a 12-vector is not two 6-vectors for n = 3, and n follows the
        # integer rule on both backends and at every weight
        with pytest.raises(ValueError, match="6 rows"):
            mix_apply(3, p, np.ones(12), exact=exact)
        with pytest.raises(ValueError, match="6 rows"):
            mix_apply(3, p, np.ones((4, 3)), exact=exact)
        with pytest.raises(ValueError, match="n must be an integer"):
            mix_apply(3.0, p, np.ones(6), exact=exact)
        v = np.arange(6)
        assert np.all(mix_apply(np.int64(3), p, v, exact=exact) == mix_apply(3, p, v, exact=exact))

    @pytest.mark.own_process
    def test_mix_apply_holds_one_dense_array(self):
        # the system is the one m x m array a warm solve allocates, and it is
        # a mapping of zero pages, not a traced allocation; no dense Q is
        # kept, and LAPACK's working copy is not traced either (measured
        # 0.011 of one m x m array of doubles)
        n, p = 30, 0.7
        m = n * (n - 1)
        v = np.linspace(-1.0, 1.0, m)
        mix_apply(n, p, v)
        tracemalloc.start()
        try:
            mix_apply(n, p, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * m * m

    def test_lumped_chain_matches_full_process(self):
        # tracking two objects through the full permutation process gives
        # the lumped transition rows: verify's check, at n = 4, p = 0.7
        # within 1e-9
        _check_lumping()


def _dense_mix(n, p, v):
    # (1 - p)(I - pQ)^(-1) v by plain Gaussian elimination on the dense
    # Fraction matrix, with a nonzero pivot searched in each column
    q = build_Q(n, exact=True)
    m = len(v)
    rows = [[(i == j) - p * q[i, j] for j in range(m)] + [(1 - p) * v[i]] for i in range(m)]
    for k in range(m):
        pivot = next(i for i in range(k, m) if rows[i][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, m):
            f = rows[i][k] / rows[k][k]
            if f:
                rows[i] = [e - f * top for e, top in zip(rows[i], rows[k])]
    x = [Fraction(0)] * m
    for i in range(m - 1, -1, -1):
        x[i] = (rows[i][m] - sum(rows[i][j] * x[j] for j in range(i + 1, m))) / rows[i][i]
    return x


def _single_object_mix(n, p, u):
    # (1 - p)(I - pQ1)^(-1) u for one object on n places, by Gauss-Jordan
    # elimination on n x n Fractions: each of the n - 1 swaps (k, k + 1)
    # has weight 1/(n - 1) and moves the object one place or leaves it
    step = Fraction(1, n - 1)
    rows = []
    for i in range(n):
        q1 = [step if abs(i - j) == 1 else Fraction(0) for j in range(n)]
        q1[i] = 1 - sum(q1)
        rows.append([(i == j) - p * e for j, e in enumerate(q1)] + [(1 - p) * u[i]])
    for k in range(n):
        rows[k] = [e / rows[k][k] for e in rows[k]]
        for i in range(n):
            f = rows[i][k]
            if i != k and f:
                rows[i] = [e - f * t for e, t in zip(rows[i], rows[k])]
    return [row[n] for row in rows]


def _cold_exact_caches():
    # Empties every lru-cached kernel of the exact engine.
    for cached in vars(exact_module).values():
        if hasattr(cached, "cache_clear") and cached.__module__ == exact_module.__name__:
            cached.cache_clear()


def _counted_factorizations(monkeypatch) -> list:
    # A list that grows by one entry per getrf call, from an empty factor
    # slot and empty kernel caches of the exact engine.
    routines = noise._lapack()
    if routines is None:
        pytest.skip("numpy's LAPACK exports no getrf and getrs")
    getrf, getrs, integer = routines
    factored = []

    def counted(*args):
        factored.append(None)
        return getrf(*args)

    monkeypatch.setattr(noise, "_lapack", lambda: (counted, getrs, integer))
    monkeypatch.setattr(noise, "_factors", None)
    _cold_exact_caches()
    return factored


def _resident() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


_FLOAT_BITS = """
import numpy as np
from freechoice import noise

for n in (2, 7, 12, 20, 30):
    m = n * (n - 1)
    rng = np.random.default_rng(n)
    for p in (0.3, 0.8, 0.3, 0.8, 0.97, 0.3, 0.97):
        for v in (rng.normal(size=m), rng.normal(size=(m, 2)), np.eye(m)):
            dense = np.linalg.solve(noise._system(n, p), (1 - p) * v)
            assert np.array_equal(noise.mix_apply(n, p, v), dense), (n, p, v.shape)
"""


class TestFactors:
    def test_float_solves_are_dense_solves_bit_for_bit(self):
        # One BLAS thread, as bench/run.py sets it: at two, OpenBLAS's gesv
        # and its getrf and getrs pick their thread counts apart for small
        # systems (4.4e-16 apart at n = 12), and np.linalg.solve alone moves
        # by as much between one and two threads. Each weight runs 1-d,
        # 2-column and m-column (build_M) right-hand sides. In the sequence
        # 0.3, 0.8, 0.3, 0.8, 0.97, 0.3, 0.97 every change of weight factors
        # again, so a weight's later factors must equal its first ones.
        package_root = str(Path(noise.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        one = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        result = subprocess.run([sys.executable, "-c", _FLOAT_BITS],
                                env={**os.environ, **one, "PYTHONPATH": path},
                                capture_output=True, text=True, check=False)
        assert result.returncode == 0, result.stderr

    def test_one_factorization_per_run_of_equal_weights(self, monkeypatch):
        # one sweep point: the table at p, which also solves the
        # conditionals at p, then the e0 arms at P (e2 and e3 reuse cached
        # kernels), so 2 factorizations for 11 solves; a repeated table
        # solves nothing
        factored = _counted_factorizations(monkeypatch)
        n, p, P = 12, 0.55, 0.85
        counts = []
        expected_spread_table(n, p)
        counts.append(len(factored))
        for design in ("e0-experimental", "e0-control"):
            expected_spread_two_param(n, p, P, design, pair=(5, 8))
        for design in ("e2", "e3"):
            expected_spread_two_param(n, p, P, design)
        counts.append(len(factored))
        for condition in ("consistent", "reversal"):
            expected_spread_conditional(n, p, (5, 8), condition)
        counts.append(len(factored))
        assert counts == [1, 2, 2]
        expected_spread_table(n, p)
        assert len(factored) == 2

    def test_cold_two_weight_call_factors_each_weight_once(self, monkeypatch):
        # e2 solves at p twice (choice and final), then twice at P
        factored = _counted_factorizations(monkeypatch)
        expected_spread_two_param(12, 0.55, 0.85, "e2")
        assert len(factored) == 2

    @pytest.mark.parametrize("design, pair", [("e0-control", (5, 8)), ("e1-objects", (3, 9))])
    def test_cold_design_value_factors_each_weight_once(self, monkeypatch, design, pair):
        # the e0 control arm solves the choice at p, then its final ranking
        # and first ranking at P; e1 solves the choice and final at p, then
        # the first ranking at P
        factored = _counted_factorizations(monkeypatch)
        expected_spread_two_param(12, 0.55, 0.85, design, pair=pair)
        assert len(factored) == 2

    @pytest.mark.parametrize("n", [*range(2, 13), 20, 30, 40])
    def test_band_round_trip_is_bitwise(self, monkeypatch, n):
        # every nonzero bit of identity-pivot factors lies in the 2n - 1
        # diagonals, negative zeros of the subnormal weight included; no band
        # of them is kept, so a round trip through the other weights factors
        # each weight again, to the same bits
        routines = noise._lapack()
        if routines is None:
            pytest.skip("numpy's LAPACK exports no getrf and getrs")
        monkeypatch.setattr(noise, "_factors", None)
        m = n * (n - 1)
        weights = (5e-324, 0.3, 0.8, 0.97, 0.999999)
        digests = {}
        for p in weights + weights:
            lu, pivots = noise._factored(n, p, routines)
            assert np.array_equal(pivots, np.arange(1, m + 1)), p
            assert not np.triu(lu, n).view(np.uint64).any(), p
            assert not np.tril(lu, -n).view(np.uint64).any(), p
            digest = hashlib.sha256(lu.tobytes() + pivots.tobytes()).digest()
            assert digests.setdefault(p, digest) == digest, p
        assert not hasattr(noise, "_band")

    def test_pivoted_factors_keep_no_band(self, monkeypatch):
        # at this weight getrf swaps the last two rows, so the factors leave
        # the band: none is kept of these or any factors, and a return
        # factors again, to the same bits
        factored = _counted_factorizations(monkeypatch)
        n, p = 40, 0.9999999999999999
        m = n * (n - 1)
        v = np.linspace(-1.0, 1.0, m)
        first = mix_apply(n, p, v)
        assert not np.array_equal(noise._factors[3], np.arange(1, m + 1))
        mix_apply(n, 0.5, v)
        assert noise._factors[:2] == (n, 0.5) and not hasattr(noise, "_band")
        again = mix_apply(n, p, v)
        assert len(factored) == 3
        assert np.array_equal(again.view(np.uint64), first.view(np.uint64))

    def test_rational_table_solves_no_conditionals(self, monkeypatch):
        # the four kernel solves, one sector solve each; the float table's
        # conditional solves are not made on the rational backend
        solved = []
        sector_solve = noise._sector_solve

        def counted(*args):
            solved.append(None)
            return sector_solve(*args)

        monkeypatch.setattr(noise, "_sector_solve", counted)
        _cold_exact_caches()
        expected_spread_table(6, Fraction(4, 5), exact=True)
        assert len(solved) == 4

    def test_missing_routines_fall_back_to_dense_solve(self, monkeypatch):
        monkeypatch.setattr(noise, "_lapack", lambda: None)
        monkeypatch.setattr(noise, "_factors", None)
        n, p = 12, 0.45
        v = np.random.default_rng(5).normal(size=(n * (n - 1), 2))
        dense = np.linalg.solve(noise._system(n, p), (1 - p) * v)
        assert np.array_equal(mix_apply(n, p, v), dense)
        assert noise._factors is None

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads /proc/self/statm")
    @pytest.mark.own_process
    def test_new_weight_drops_held_factors_first(self, monkeypatch):
        # the factors of (40, 0.5) are one m x m array, resident in full;
        # the solve at (40, 0.6) drops them before its system is written, so
        # the resident peak, read as each factorization returns, stays one
        # array above the start
        routines = noise._lapack()
        if routines is None:
            pytest.skip("numpy's LAPACK exports no getrf and getrs")
        getrf, getrs, integer = routines
        peaks = []

        def measured(*args):
            info = getrf(*args)
            peaks.append(_resident())
            return info

        n = 40
        m = n * (n - 1)
        v = np.linspace(-1.0, 1.0, m)
        # a first solve at this size sizes LAPACK's own work buffers, and
        # the n = 2 solve then drops its factors
        mix_apply(n, 0.4, v)
        mix_apply(2, 0.5, np.ones(2))
        monkeypatch.setattr(noise, "_lapack", lambda: (measured, getrs, integer))
        start = _resident()
        mix_apply(n, 0.5, v)
        held = _resident() - start
        mix_apply(n, 0.6, v)
        assert len(peaks) == 2
        assert held > 0.9 * 8 * m * m
        assert max(peaks) - start < 1.1 * 8 * m * m

class TestRationalSectors:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_random_columns_meet_dense_residual(self, n):
        # random integer columns have a part in every symmetry sector; odd
        # and even n have different orbits of size 2 (a + b = n + 1)
        m = n * (n - 1)
        q = build_Q(n, exact=True)
        v = np.random.default_rng(n).integers(-9, 10, size=(m, 3)).astype(object)
        for p in (Fraction(1, 3), 0.8):
            pf = as_exact_weight(p)
            x = mix_apply(n, p, v, True)
            assert all(isinstance(e, Fraction) for e in x.ravel())
            assert np.all(x - pf * q.dot(x) == (1 - pf) * v)
        assert np.all(mix_apply(n, 0, v, True) == v)
        assert np.all(mix_apply(n, 1, v, True) == v.sum(axis=0) / Fraction(m))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_gap_vectors_follow_single_object_chain(self, n):
        # each tracked position moves as one object's chain on n places, so
        # M maps u(a) + w(b) to (M1 u)(a) + (M1 w)(b), M1 = (1 - p)(I - pQ1)^(-1)
        rng = np.random.default_rng(n)
        u, w = ([Fraction(int(e), 7) for e in rng.integers(-20, 21, size=n)] for _ in range(2))
        states = [(a, b) for a in range(n) for b in range(n) if a != b]
        v = [u[a] + w[b] for a, b in states]
        for p in (Fraction(1, 3), Fraction(4, 5)):
            mu, mw = _single_object_mix(n, p, u), _single_object_mix(n, p, w)
            assert mix_apply(n, p, v, True).tolist() == [mu[a] + mw[b] for a, b in states]

    def test_limits_convert_before_averaging(self):
        # p = 0 returns and p = 1 averages the binary values of float inputs,
        # which differ from the float means; the float backend's bits stay
        n, v = 4, np.arange(24).reshape(12, 2) / 10 - 0.7
        binary = [[Fraction(e) for e in row] for row in v.tolist()]
        means = [sum(col) / 12 for col in zip(*binary)]
        assert mix_apply(n, 0, v, True).tolist() == binary
        assert mix_apply(n, 1, v, True).tolist() == [means] * 12
        assert mix_apply(n, 1, v[:, 1], True).tolist() == [means[1]] * 12
        assert means != [Fraction(e) for e in v.mean(axis=0)]
        for p, digest in ((0, "be5a533881bbd867940a4631dfa6b6f87a6fef5ff31a573f74722cb21b717168"),
                          (1, "e9aaed722cd4259ac24c07cc0d5684a2f4ba19a402f855daf87205a788d88cc7")):
            out = mix_apply(n, p, v)
            assert out.dtype == float and not np.shares_memory(out, v)
            assert hashlib.sha256(out.tobytes()).hexdigest() == digest

    def test_sector_sizes(self):
        # sigma rho fixes the n or n - 1 states with a + b = n + 1; their
        # orbits have size 2 and vanish when chi(sigma rho) = -1
        def sizes(n):
            return [len(noise._sector(n, chi)[0]) for chi in noise._CHARACTERS]

        for n in (2, 3, 6, 7):
            m, fixed = n * (n - 1), 2 * (n // 2)
            assert sizes(n) == [
                (m - fixed) // 4 + (fixed // 2 if chi[3] == 1 else 0) for chi in noise._CHARACTERS
            ]
        assert sorted(sizes(20)) == [90, 90, 100, 100]

    def test_table_matches_dense_elimination(self):
        n, p = 8, Fraction(4, 5)
        a, b = state_positions(n)
        cons = [Fraction(int(e)) for e in a < b]
        gap = [Fraction(int(e)) for e in b - a]
        bias = [2 * e - 1 for e in _dense_mix(n, p, cons)]
        g_final = _dense_mix(n, p, gap)
        w1 = _dense_mix(n, p, [s * g for s, g in zip(bias, g_final)])
        w2 = _dense_mix(n, p, bias)
        table = expected_spread_table(n, p, exact=True)
        for pair, value in table.values.items():
            k = state_row(n, pair.i, pair.j)
            assert value == w1[k] - (pair.j - pair.i) * w2[k]

    def test_sector_factors_hold_python_ints(self):
        # q(n - 1)(I - pQ) has integer entries and Bareiss divisions are exact
        for n, p in ((5, Fraction(1, 3)), (8, Fraction(4, 5))):
            for chi in noise._CHARACTERS:
                factors = noise._sector_lu(n, p, chi)
                assert all(type(e) is int for row in factors for e in row)

    def test_certificate_catches_flipped_sign(self, monkeypatch):
        # a chi(sigma) sign flipped in the sector build gives wrong factors,
        # which the exact residual must refuse
        build = noise._sector_lu
        monkeypatch.setattr(
            noise, "_sector_lu", lambda n, p, chi: build(n, p, (chi[0], -chi[1]) + chi[2:])
        )
        v = np.random.default_rng(0).integers(-9, 10, size=(20, 2)).astype(object)
        with pytest.raises(ArithmeticError, match="exact residual"):
            mix_apply(5, Fraction(1, 2), v, True)


class TestCapacity:
    def test_one_error_class(self):
        import freechoice
        from freechoice import exact

        assert exact.CapacityError is freechoice.CapacityError is noise.CapacityError
        assert issubclass(noise.CapacityError, ValueError)

    def test_dense_arrays_refused_before_allocating(self, monkeypatch):
        # n = 100 would need two 9900 x 9900 doubles (1.5 GiB) per solve
        def no_mapping(*args, **kwargs):
            raise AssertionError("a dense array was mapped past the dense cap")

        def no_full(*args, **kwargs):
            raise AssertionError("np.full called past the dense cap")

        monkeypatch.setattr(noise.mmap, "mmap", no_mapping)
        monkeypatch.setattr(np, "full", no_full)
        calls = [
            lambda: expected_spread_table(100, 0.8),
            lambda: mix_apply(100, 0.8, np.ones(9900)),
            lambda: build_M(100, 0.8),
            lambda: build_Q(100),
            lambda: build_Q(65, exact=True),
        ]
        for call in calls:
            with pytest.raises(noise.CapacityError, match="n <= 64"):
                call()

    def test_cap_sits_between_64_and_65(self, monkeypatch):
        # n = 64 (two 4032 x 4032 doubles, 248 MiB) reaches the allocation
        class Allocated(Exception):
            pass

        def allocated(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr(noise.mmap, "mmap", allocated)
        with pytest.raises(Allocated):
            build_Q(64)
        with pytest.raises(noise.CapacityError, match="264 MiB"):
            build_Q(65)

    @pytest.mark.parametrize("exact", [False, True])
    def test_build_M_cap_counts_four_arrays(self, monkeypatch, exact):
        # build_M writes four m x m arrays in full; n = 54 (250 MiB of them)
        # reaches the allocation, n = 55 (269 MiB) is refused before it
        class Allocated(Exception):
            pass

        def allocated(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr(noise.mmap, "mmap", allocated)
        monkeypatch.setattr(np, "full", allocated)
        with pytest.raises(Allocated):
            build_M(54, 0.8, exact=exact)
        with pytest.raises(noise.CapacityError, match=r"four dense 2970 x 2970 arrays, 269 MiB.*n <= 54"):
            build_M(55, 0.8, exact=exact)


class TestSamplers:
    def test_noiseless_sampler_returns_truth(self):
        truth = Ranking((3, 1, 4, 2, 5))
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert sample_noisy_ranking(truth, 0.0, rng) == truth

    def test_sampler_rejects_p_one(self):
        # also the weights outside [0, 1], for both samplers
        for p in (1.0, -0.1, 1.2):
            with pytest.raises(ValueError):
                sample_noisy_ranking(Ranking.identity(3), p, np.random.default_rng(0))
            with pytest.raises(ValueError):
                sample_choice(Ranking.identity(3), ObjectPair(1, 2), p, np.random.default_rng(0))

    def test_sampler_deterministic_given_seed(self):
        truth = Ranking.identity(8)
        a = [sample_noisy_ranking(truth, 0.6, np.random.default_rng(5)) for _ in range(10)]
        b = [sample_noisy_ranking(truth, 0.6, np.random.default_rng(5)) for _ in range(10)]
        assert a == b

    def test_empirical_pair_frequencies_match_M(self):
        # the sampled positions of two tracked objects follow the lumped chain
        n, p, samples = 5, 0.6, 20000
        truth = Ranking.identity(n)
        rng = np.random.default_rng(11)
        counts = np.zeros(n * (n - 1))
        a, b = 1, 3
        for _ in range(samples):
            noisy = sample_noisy_ranking(truth, p, rng)
            counts[state_row(n, noisy.position_of(a), noisy.position_of(b))] += 1
        freqs = counts / samples
        target = build_M(n, p)[state_row(n, a, b)]
        sigma = np.sqrt(target * (1 - target) / samples)
        assert np.all(np.abs(freqs - target) < 4 * sigma + 1e-12)

    def test_choice_noiseless_picks_better(self):
        truth = Ranking((2, 4, 1, 3))
        rng = np.random.default_rng(0)
        choice = sample_choice(truth, ObjectPair(1, 4), 0.0, rng)
        # object 4 sits at position 2, object 1 at position 3
        assert choice.chosen == 4
        assert choice.rejected == 1

    def test_choice_frequency_matches_M(self):
        n, p, samples = 4, 0.5, 20000
        truth = Ranking.identity(n)
        rng = np.random.default_rng(21)
        wins = 0
        for _ in range(samples):
            wins += sample_choice(truth, ObjectPair(2, 3), p, rng).chosen == 2
        m = build_M(n, p)
        row = m[state_row(n, 2, 3)]
        a, b = state_positions(n)
        consistent = sum(weight for weight, ahead in zip(row, a < b) if ahead)
        sigma = np.sqrt(consistent * (1 - consistent) / samples)
        assert abs(wins / samples - consistent) < 4 * sigma
