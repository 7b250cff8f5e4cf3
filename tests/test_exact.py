"""Exact engine: tables, two-weight designs, conditionals, oracles."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from freechoice import exact as exact_module
from freechoice.core import PositionPair, Ranking, all_position_pairs
from freechoice.exact import (
    CapacityError,
    RankingDistribution,
    brute_force_expected_spread,
    expected_spread_conditional,
    expected_spread_oracle,
    expected_spread_positions,
    expected_spread_table,
    expected_spread_two_param,
    round_half_away,
    swap_process_distribution,
)
from freechoice.noise import build_M, state_positions, state_row


class TestRounding:
    def test_examples(self):
        assert round_half_away(Fraction(1, 2000)) == "0.001"
        assert round_half_away(Fraction(-1, 2000)) == "-0.001"
        assert round_half_away(Fraction(-1, 100000)) == "0.000"
        assert round_half_away(Fraction(16, 3)) == "5.333"
        assert round_half_away(0.0) == "0.000"
        assert round_half_away(-1.0305) == "-1.030"  # binary value sits below the tie

    def test_floats_round_by_binary_value(self):
        # 0.3185 as a float is slightly above the decimal tie
        assert round_half_away(0.3185) == "0.319"


class TestTable:
    def test_known_entries(self):
        table = expected_spread_table(12, 0.8)
        rounded = table.rounded()
        assert rounded[PositionPair(1, 2)] == "0.319"
        assert rounded[PositionPair(2, 3)] == "0.557"
        assert rounded[PositionPair(1, 12)] == "-1.031"
        assert rounded[PositionPair(6, 7)] == "0.704"
        assert rounded[PositionPair(1, 3)] == "-0.010"
        assert rounded[PositionPair(5, 9)] == "0.079"

    def test_getitem_accepts_tuples(self):
        table = expected_spread_table(5, 0.4)
        assert table[(1, 3)] == table[PositionPair(1, 3)]

    def test_getitem_rejects_floats(self):
        # a float position used to be truncated: (True, 9.99) read pair (1, 9)
        table = expected_spread_table(12, 0.8)
        assert table[(np.int64(1), 9)] == table[(1, 9)]
        with pytest.raises(ValueError):
            table[(True, 9.99)]

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_zero_sum_float(self, n, p):
        assert abs(expected_spread_table(n, p).total()) < 1e-9

    def test_zero_sum_exact(self):
        table = expected_spread_table(12, Fraction(4, 5), exact=True)
        assert table.total() == 0
        assert all(isinstance(v, Fraction) for v in table.values.values())

    @pytest.mark.parametrize("n, p, exact", [(2, 0.5, False), (7, 0.3, False), (20, 0.85, False),
                                             (6, Fraction(4, 5), True)])
    def test_table_reads_each_pair_as_pair_value(self, n, p, exact):
        # the whole-table read-out is the one-pair read-out pair by pair, bit for bit
        table = expected_spread_table(n, p, exact=exact)
        pairs = all_position_pairs(n)
        expected = [expected_spread_positions(n, p, pair, exact=exact) for pair in pairs]
        assert list(table.values) == list(pairs)
        assert [type(v) for v in table.values.values()] == [type(v) for v in expected]
        if exact:
            assert list(table.values.values()) == expected
        else:
            assert np.array_equal(np.array(list(table.values.values())).view(np.uint64),
                                  np.array(expected).view(np.uint64))

    def test_exact_matches_float_after_rounding(self):
        exact = expected_spread_table(9, Fraction(3, 10), exact=True).rounded()
        floats = expected_spread_table(9, 0.3).rounded()
        assert exact == floats

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_reversal_symmetry(self, p):
        table = expected_spread_table(12, p)
        for pair, value in table.values.items():
            mirror = PositionPair(13 - pair.j, 13 - pair.i)
            assert value == pytest.approx(table.values[mirror], abs=1e-12)

    def test_p_zero_table_vanishes(self):
        table = expected_spread_table(6, 0.0)
        assert all(v == 0 for v in table.values.values())

    def test_csv_shape(self):
        buffer = io.StringIO()
        expected_spread_table(12, 0.8).write_csv(buffer)
        lines = buffer.getvalue().split("\n")
        assert lines[0] == "i,j,expected_spread,rounded"
        assert len(lines) == 1 + 66 + 1
        assert lines[1].startswith("1,2,0.318")

    def test_json_backend_field(self):
        obj = expected_spread_table(4, Fraction(1, 2), exact=True).to_json_obj()
        assert obj["backend"] == "rational"
        assert obj["p"] == "1/2"
        assert len(obj["values"]) == 6
        obj = expected_spread_table(4, 0.5).to_json_obj()
        assert obj["backend"] == "float"

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_spread_table(1, 0.5)
        with pytest.raises(ValueError):
            expected_spread_table(5, 1.0)
        with pytest.raises(ValueError):
            expected_spread_table(5, -0.2)


class TestFactoredVsEnumerate:
    def test_all_pairs_small(self):
        for pair in all_position_pairs(4):
            fast = expected_spread_positions(4, 0.5, pair)
            slow = exact_module._triple_sum(4, pair, 0.5, 0.5, 0.5)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_large_instance(self):
        fast = expected_spread_positions(12, 0.8, (7, 9))
        slow = exact_module._triple_sum(12, (7, 9), 0.8, 0.8, 0.8)
        assert fast == pytest.approx(slow, abs=1e-10)

    def test_positions_reject_floats(self):
        # (7.9, 9.2) used to be truncated to (7, 9); the e1 objects' true
        # positions go through the same check
        with pytest.raises(ValueError):
            expected_spread_positions(12, 0.8, (7.9, 9.2))
        with pytest.raises(ValueError):
            expected_spread_two_param(12, 0.5, 0.9, "e1-objects", pair=(9.0, 3))
        assert expected_spread_positions(12, 0.8, (np.int64(7), 9)) == (
            expected_spread_positions(12, 0.8, (7, 9))
        )
        # n and the oracle's e1 object labels follow the same integer rule
        with pytest.raises(ValueError):
            expected_spread_table(5.0, 0.5)
        uniform = RankingDistribution.uniform(4)
        with pytest.raises(ValueError):
            expected_spread_oracle(uniform, "e1", object_pair=(1.9, 3))
        assert expected_spread_oracle(uniform, "e1", object_pair=(np.int64(1), 3)) == (
            expected_spread_oracle(uniform, "e1", object_pair=(1, 3))
        )
        # the brute-force oracle applies the integer rule before its size cap
        for n in ("5", 6.0):
            with pytest.raises(ValueError, match="n must be an integer"):
                brute_force_expected_spread(n, 0.8, (1, 2))

    def test_entry_points_check_n_before_cached_kernels(self):
        # n = 12.0 raises the integer rule's ValueError whether or not an
        # n = 12 kernel is already cached; numpy integers are accepted
        for cached in (exact_module._base_vectors, exact_module._applied_base,
                       exact_module._design_kernel, exact_module._choice_bias,
                       exact_module._conditional_kernel):
            cached.cache_clear()
        calls = [
            lambda n: expected_spread_positions(n, 0.8, (7, 9)),
            lambda n: expected_spread_two_param(n, 0.5, 0.9, "e0-experimental", pair=(7, 9)),
            lambda n: expected_spread_two_param(n, 0.5, 0.9, "e1-objects", pair=(7, 9)),
            lambda n: expected_spread_conditional(n, 0.8, (7, 9), "consistent"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="n must be an integer"):
                call(12.0)
        expected_spread_table(12, 0.8)
        for call in calls:
            with pytest.raises(ValueError, match="n must be an integer"):
                call(12.0)
            assert call(np.int64(12)) == call(12)


class TestBruteForce:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("p", [0.3, 0.8])
    def test_engine_matches_brute_force(self, n, p):
        table = expected_spread_table(n, p)
        for pair, value in table.values.items():
            assert value == pytest.approx(brute_force_expected_spread(n, p, pair), abs=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("p", [0.3, 0.8])
    def test_oracle_matches_triple_sum(self, n, p):
        # averaging out the final stage reproduces the (n!)^3 triple sum over
        # the truncated distribution, whose mass is slightly under 1
        for pair in all_position_pairs(n):
            triple = _two_weight_brute(n, (pair.i, pair.j), p, p, p)
            assert brute_force_expected_spread(n, p, pair) == pytest.approx(triple, abs=1e-13)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            brute_force_expected_spread(7, 0.5, (1, 2))
        with pytest.raises(CapacityError):
            swap_process_distribution(7, 0.5)
        # p near 1 needs about log(1e-12)/log(p) swap steps: 2.8e10 here
        with pytest.raises(CapacityError, match="swap steps"):
            swap_process_distribution(5, 1 - 1e-9)
        with pytest.raises(CapacityError, match="swap steps"):
            brute_force_expected_spread(3, 1 - 1e-9, (1, 2))

    def test_swap_distribution_normalized(self):
        perms, probs = swap_process_distribution(4, 0.6)
        assert len(perms) == 24
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-9)
        # the truth stays the most likely single ranking
        assert probs[perms.index((1, 2, 3, 4))] == max(probs)
        # computed once per (n, p) and shared, so callers cannot write to it
        assert not probs.flags.writeable
        assert swap_process_distribution(np.int64(4), 0.6)[1] is probs


class TestTwoParam:
    def test_e0_arms_share_one_solve(self, monkeypatch):
        # one sweep point's seven queries need 11 distinct float solves: the
        # table's four, e0-experimental's two (e2 and e3 reuse its kernel),
        # e0-control's final-weight gap and w1, and the conditional three;
        # the e0 arms share w2 = M_P(2 c_p - 1)
        n, p, P, pair = 12, 0.4321, 0.8765, (3, 8)
        calls = []
        solve = exact_module.mix_apply

        def spy(*args, **kwargs):
            calls.append(args[:2])
            return solve(*args, **kwargs)

        monkeypatch.setattr(exact_module, "mix_apply", spy)
        expected_spread_table(n, p)
        for design in ("e0-experimental", "e0-control"):
            expected_spread_two_param(n, p, P, design, pair=pair)
        for design in ("e2", "e3"):
            expected_spread_two_param(n, p, P, design)
        for condition in ("consistent", "reversal"):
            expected_spread_conditional(n, p, pair, condition)
        assert len(calls) == 11

    def test_uniform_limit_benchmark_float(self):
        assert expected_spread_two_param(15, 0, 1, "e2") == pytest.approx(16 / 3, abs=1e-9)
        assert expected_spread_two_param(15, 0, 1, "e3") == pytest.approx(16 / 3, abs=1e-9)
        diff = expected_spread_two_param(
            15, 0, 1, "e0-experimental", pair=(7, 9)
        ) - expected_spread_two_param(15, 0, 1, "e0-control", pair=(7, 9))
        assert diff == pytest.approx(16 / 3, abs=1e-9)

    def test_uniform_limit_benchmark_exact(self):
        for design in ("e2", "e3"):
            assert expected_spread_two_param(15, 0, 1, design, exact=True) == Fraction(16, 3)
        diff = expected_spread_two_param(
            15, 0, 1, "e0-experimental", pair=(7, 9), exact=True
        ) - expected_spread_two_param(15, 0, 1, "e0-control", pair=(7, 9), exact=True)
        assert diff == Fraction(16, 3)

    def test_mild_parameters_regression(self):
        # pinned values of the engine at the documented mild setting
        e3 = expected_spread_two_param(15, 0.5, 0.9, "e3")
        assert e3 == pytest.approx(0.14068171569875482, abs=1e-9)
        diff = expected_spread_two_param(
            15, 0.5, 0.9, "e0-experimental", pair=(7, 9)
        ) - expected_spread_two_param(15, 0.5, 0.9, "e0-control", pair=(7, 9))
        assert diff == pytest.approx(0.003005979113628765, abs=1e-9)

    def test_e2_equals_e3(self):
        # both average the same per-pair expectation over all pairs
        a = expected_spread_two_param(8, 0.4, 0.7, "e2")
        b = expected_spread_two_param(8, 0.4, 0.7, "e3")
        assert a == b

    def test_equal_weights_collapse_to_null(self):
        two = expected_spread_two_param(12, 0.8, 0.8, "e0-experimental", pair=(7, 9))
        null = expected_spread_positions(12, 0.8, (7, 9))
        assert two == pytest.approx(null, abs=1e-12)
        assert expected_spread_two_param(10, 0.6, 0.6, "e2") == pytest.approx(0, abs=1e-12)
        assert expected_spread_two_param(
            10, Fraction(3, 5), Fraction(3, 5), "e1-objects", pair=(2, 7), exact=True
        ) == 0

    def test_e1_objects_positive_when_deliberating(self):
        value = expected_spread_two_param(15, 0.5, 0.9, "e1-objects", pair=(7, 9))
        assert value > 0

    def test_objects_null_is_zero(self):
        # with P = p the fixed-object design is the null model: exactly zero
        assert expected_spread_two_param(
            12, Fraction(4, 5), Fraction(4, 5), "e1-objects", pair=(3, 9), exact=True
        ) == 0
        assert expected_spread_two_param(12, 0.8, 0.8, "e1-objects", pair=(3, 9)) == pytest.approx(
            0, abs=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_spread_two_param(12, 0.9, 0.5, "e2")
        with pytest.raises(ValueError):
            expected_spread_two_param(12, 0.2, 0.5, "nope")
        with pytest.raises(ValueError):
            expected_spread_two_param(12, 0.2, 0.5, "e2", pair=(1, 2))
        with pytest.raises(ValueError):
            expected_spread_two_param(12, 0.2, 0.5, "e0-experimental")
        with pytest.raises(ValueError):
            expected_spread_two_param(12, 0.2, 1.5, "e2")
        with pytest.raises(ValueError, match="'e1' needs a fixed pair of objects"):
            expected_spread_two_param(12, 0.2, 0.5, "e1-objects")


def _two_weight_brute(n, pair, first, choice, final):
    """Full-permutation expectation with one swap-process weight per stage.

    ``first``, ``choice`` and ``final`` weight the first ranking, the choice
    stage and the ranking the spread compares against. This is the plain
    (n!)^3 triple sum with nothing marginalized, so it is the reference for
    exact._pair_spread, which averages the final ranking out and carries
    the truncated law's mass.
    """
    perms = swap_process_distribution(n, first)[0]
    laws = [swap_process_distribution(n, weight)[1] for weight in (first, choice, final)]
    parr, pos = exact_module._rank_arrays(perms)
    t1, t2 = parr[:, pair[0] - 1], parr[:, pair[1] - 1]
    chosen = np.where(pos[:, t1].T < pos[:, t2].T, t1[:, None], t2[:, None])
    rejected = t1[:, None] + t2[:, None] - chosen
    rows = np.arange(len(perms))[:, None]
    stage1 = pos[rows, chosen] - pos[rows, rejected]
    spreads = stage1[:, :, None] + pos.T[rejected] - pos.T[chosen]
    return float(np.einsum("a,b,c,abc->", *laws, spreads.astype(float)))


class TestTwoWeightBruteForce:
    @pytest.mark.parametrize("pair", [(1, 2), (2, 4), (1, 5)])
    def test_kernel_matches_enumeration(self, pair):
        # the stage weights (first, choice, final) of each e0 arm written out
        n, p, P = 5, 0.3, 0.7
        for design, weights in (("e0-experimental", (P, p, p)), ("e0-control", (P, p, P))):
            triple = _two_weight_brute(n, pair, *weights)
            assert expected_spread_two_param(n, p, P, design, pair=pair) == (
                pytest.approx(triple, abs=1e-9))
            assert exact_module._brute_force(n, pair, *weights) == pytest.approx(triple, abs=1e-13)


class TestConditional:
    def test_frozen_values(self):
        assert expected_spread_conditional(12, 0.8, (7, 9), "consistent") == pytest.approx(
            0.2047293801106908, abs=1e-12
        )
        assert expected_spread_conditional(12, 0.8, (7, 9), "reversal") == pytest.approx(
            1.7837265311423185, abs=1e-12
        )

    def test_law_of_total_expectation(self):
        n, p, pair = 12, 0.8, PositionPair(7, 9)
        consistent = expected_spread_conditional(n, p, pair, "consistent")
        reversal = expected_spread_conditional(n, p, pair, "reversal")
        # a consistent choice takes two mixing steps from the first-ranking
        # state: back to the pair's true state, then on to the choice stage
        mix = build_M(n, p)
        a, b = state_positions(n)
        indicator = np.where(a < b, 1.0, 0.0)
        start = state_row(n, pair.i, pair.j)
        prob = (mix @ (mix @ indicator))[start]
        total = prob * consistent + (1 - prob) * reversal
        assert total == pytest.approx(expected_spread_positions(n, p, pair), abs=1e-12)

    def test_exact_backend_agrees(self):
        exact = expected_spread_conditional(12, Fraction(4, 5), (7, 9), "consistent", exact=True)
        assert isinstance(exact, Fraction)
        assert float(exact) == pytest.approx(0.2047293801106908, abs=1e-12)

    def test_zero_probability_event_raises(self):
        with pytest.raises(ValueError):
            expected_spread_conditional(12, 0.0, (7, 9), "reversal")

    def test_condition_name_validated(self):
        with pytest.raises(ValueError):
            expected_spread_conditional(12, 0.8, (7, 9), "sometimes")


class TestRankingDistribution:
    def test_uniform(self):
        dist = RankingDistribution.uniform(3)
        keys, probs = dist.support()
        assert len(keys) == 6
        assert np.allclose(probs, 1 / 6)

    def test_point_mass(self):
        dist = RankingDistribution.point_mass(Ranking.identity(4))
        keys, probs = dist.support()
        assert keys == ((1, 2, 3, 4),)
        assert probs[0] == 1.0

    def test_random_is_seeded(self):
        a = RankingDistribution.random(4, np.random.default_rng(9))
        b = RankingDistribution.random(4, np.random.default_rng(9))
        assert a.probabilities == b.probabilities

    def test_validation(self):
        with pytest.raises(ValueError):
            RankingDistribution(3, {(1, 2, 3): 0.5})
        with pytest.raises(ValueError):
            RankingDistribution(3, {(1, 2, 3): 1.5, (2, 1, 3): -0.5})
        with pytest.raises(ValueError):
            RankingDistribution(3, {(1, 2, 4): 1.0})
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                RankingDistribution(2, {(1, 2): bad, (2, 1): 0.5})
        with pytest.raises(CapacityError):
            RankingDistribution.uniform(7)

    def test_size_checked_before_enumerating(self):
        # 12! rankings would take minutes to list; the cap must fire first
        with pytest.raises(CapacityError):
            RankingDistribution.uniform(12)
        with pytest.raises(CapacityError):
            RankingDistribution.random(12, np.random.default_rng(0))
        with pytest.raises(ValueError, match="integer"):
            RankingDistribution.uniform(2.0)
        with pytest.raises(ValueError, match="integer"):
            RankingDistribution.random(2.0, np.random.default_rng(0))


class TestDesignOracle:
    def test_point_mass_gives_zero(self):
        dist = RankingDistribution.point_mass(Ranking.identity(5))
        assert expected_spread_oracle(dist, "e1", object_pair=(2, 5)) == pytest.approx(0, abs=0)
        assert expected_spread_oracle(dist, "e2") == pytest.approx(0, abs=0)

    def test_uniform_gives_zero(self):
        dist = RankingDistribution.uniform(4)
        for design in ("e1", "e2", "e3"):
            kwargs = {"object_pair": (1, 3)} if design == "e1" else {}
            assert expected_spread_oracle(dist, design, **kwargs) == pytest.approx(0, abs=1e-12)

    def test_random_distributions_give_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            dist = RankingDistribution.random(4, rng)
            for design in ("e1", "e2", "e3"):
                kwargs = {"object_pair": (2, 4)} if design == "e1" else {}
                assert expected_spread_oracle(dist, design, **kwargs) == pytest.approx(
                    0, abs=1e-12
                )

    def test_needs_object_pair_for_e1(self):
        with pytest.raises(ValueError):
            expected_spread_oracle(RankingDistribution.uniform(3), "e1")

    def test_rejects_fixed_pair_for_e2_e3(self):
        uniform = RankingDistribution.uniform(4)
        for design in ("e2", "e3"):
            for pair in ((1, 3), "junk"):
                with pytest.raises(ValueError, match="takes no fixed pair"):
                    expected_spread_oracle(uniform, design, object_pair=pair)

    def test_rejects_unknown_design(self):
        with pytest.raises(ValueError):
            expected_spread_oracle(RankingDistribution.uniform(3), "e0")
