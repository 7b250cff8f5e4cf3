"""Exact engine: tables, two-weight designs, conditionals, oracles."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from freechoice.core import PositionPair, Ranking, SimplifiedState, all_position_pairs
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
from freechoice.noise import build_M, state_index, state_space


class TestRounding:
    def test_examples(self):
        assert round_half_away(Fraction(1, 2000)) == "0.001"
        assert round_half_away(Fraction(-1, 2000)) == "-0.001"
        assert round_half_away(Fraction(-1, 100000)) == "0.000"
        assert round_half_away(Fraction(16, 3)) == "5.333"
        assert round_half_away(Fraction(5, 200), 2) == "0.03"
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

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_zero_sum_float(self, n, p):
        assert abs(expected_spread_table(n, p).total()) < 1e-9

    def test_zero_sum_exact(self):
        table = expected_spread_table(12, Fraction(4, 5), exact=True)
        assert table.total() == 0
        assert all(isinstance(v, Fraction) for v in table.values.values())

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
            slow = expected_spread_positions(4, 0.5, pair, method="enumerate")
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_large_instance(self):
        fast = expected_spread_positions(12, 0.8, (7, 9))
        slow = expected_spread_positions(12, 0.8, (7, 9), method="enumerate")
        assert fast == pytest.approx(slow, abs=1e-10)

    def test_enumerate_is_float_only(self):
        with pytest.raises(ValueError):
            expected_spread_positions(4, Fraction(1, 2), (1, 2), method="enumerate", exact=True)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            expected_spread_positions(4, 0.5, (1, 2), method="magic")


class TestBruteForce:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("p", [0.3, 0.8])
    def test_engine_matches_brute_force(self, n, p):
        table = expected_spread_table(n, p)
        for pair, value in table.values.items():
            assert value == pytest.approx(brute_force_expected_spread(n, p, pair), abs=1e-9)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            brute_force_expected_spread(6, 0.5, (1, 2))
        with pytest.raises(CapacityError):
            swap_process_distribution(7, 0.5)

    def test_swap_distribution_normalized(self):
        perms, probs = swap_process_distribution(4, 0.6)
        assert len(perms) == 24
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-9)
        # the truth stays the most likely single ranking
        assert probs[perms.index((1, 2, 3, 4))] == max(probs)


class TestTwoParam:
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


def _two_weight_brute(n, p, P, pair, design):
    """Full-permutation expectation with stage-specific noise weights.

    The first ranking always carries weight P and the choice weight p; the
    remaining ranking carries p for the choose-then-rank arm and P for the
    rank-then-choose control arm.
    """
    perms, probs_small = swap_process_distribution(n, p)
    _, probs_large = swap_process_distribution(n, P)
    parr = np.array(perms, dtype=np.int32)
    m = len(perms)
    pos = np.zeros((m, n + 1), dtype=np.int32)
    pos[np.arange(m)[:, None], parr] = np.arange(1, n + 1)[None, :]
    i, j = pair
    t1 = parr[:, i - 1]
    t2 = parr[:, j - 1]
    pos2_t1 = pos[:, t1].T
    pos2_t2 = pos[:, t2].T
    chosen = np.where(pos2_t1 < pos2_t2, t1[:, None], t2[:, None])
    rejected = t1[:, None] + t2[:, None] - chosen
    rows = np.arange(m)[:, None]
    pos1_c = pos[rows, chosen]
    pos1_r = pos[rows, rejected]
    pos3_c = pos.T[chosen]
    pos3_r = pos.T[rejected]
    spreads = (pos1_c[:, :, None] - pos3_c) + (pos3_r - pos1_r[:, :, None])
    other = probs_small if design == "experimental" else probs_large
    return float(np.einsum("a,b,c,abc->", probs_large, probs_small, other, spreads.astype(float)))


class TestTwoWeightBruteForce:
    @pytest.mark.parametrize("pair", [(1, 2), (2, 4), (1, 5)])
    def test_kernel_matches_enumeration(self, pair):
        n, p, P = 5, 0.3, 0.7
        exp = expected_spread_two_param(n, p, P, "e0-experimental", pair=pair)
        ctl = expected_spread_two_param(n, p, P, "e0-control", pair=pair)
        assert exp == pytest.approx(_two_weight_brute(n, p, P, pair, "experimental"), abs=1e-9)
        assert ctl == pytest.approx(_two_weight_brute(n, p, P, pair, "control"), abs=1e-9)


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
        indicator = np.array([1.0 if s.a < s.b else 0.0 for s in state_space(n)])
        start = state_index(n)[SimplifiedState(pair.i, pair.j)]
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
        with pytest.raises(CapacityError):
            RankingDistribution.uniform(7)


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

    def test_rejects_unknown_design(self):
        with pytest.raises(ValueError):
            expected_spread_oracle(RankingDistribution.uniform(3), "e0")
