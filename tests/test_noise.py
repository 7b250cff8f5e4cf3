"""Swap-process noise: state space, Q and M matrices, samplers."""

from fractions import Fraction

import numpy as np
import pytest

from freechoice.core import ObjectPair, Ranking, SimplifiedState, reverse_positions
from freechoice.exact import swap_process_distribution
from freechoice.noise import (
    as_exact_weight,
    build_M,
    build_Q,
    mix_apply,
    sample_choice,
    sample_noisy_ranking,
    stage_weights,
    state_index,
    state_space,
)


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


class TestStateSpace:
    def test_size_and_order(self):
        states = state_space(4)
        assert len(states) == 12
        assert states[0] == SimplifiedState(1, 2)
        assert all(s.a != s.b for s in states)

    def test_index_inverts_space(self):
        index = state_index(5)
        for k, state in enumerate(state_space(5)):
            assert index[state] == k


class TestQ:
    def test_closed_form_entries(self):
        entries = build_Q(12)
        index = state_index(12)
        assert entries[index[SimplifiedState(1, 2)], index[SimplifiedState(2, 1)]] == pytest.approx(
            1 / 11, abs=1e-14
        )
        assert entries[index[SimplifiedState(1, 2)], index[SimplifiedState(1, 2)]] == pytest.approx(
            9 / 11, abs=1e-14
        )
        assert entries[index[SimplifiedState(2, 3)], index[SimplifiedState(2, 3)]] == pytest.approx(
            8 / 11, abs=1e-14
        )
        # interior state: four neighbors move, the rest leave it alone
        assert entries[index[SimplifiedState(5, 8)], index[SimplifiedState(5, 8)]] == pytest.approx(
            7 / 11, abs=1e-14
        )

    def test_symmetric_doubly_stochastic(self):
        q = build_Q(7)
        assert np.allclose(q, q.T, atol=0)
        assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12)
        assert q.min() >= 0

    def test_entries_multiples_of_unit(self):
        q = build_Q(6)
        grid = q * 5
        assert np.allclose(grid, np.round(grid), atol=1e-12)

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
        index = state_index(n)
        states = state_space(n)
        for r, s0 in enumerate(states):
            flipped_row = index[reverse_positions(s0, n)]
            for c, s1 in enumerate(states):
                flipped_col = index[reverse_positions(s1, n)]
                assert m[r, c] == pytest.approx(m[flipped_row, flipped_col], abs=1e-12)

    def test_exact_matches_float(self):
        exact = build_M(4, Fraction(4, 5), exact=True)
        floats = build_M(4, 0.8)
        assert not (exact.flags.writeable or floats.flags.writeable)
        assert np.max(np.abs(np.vectorize(float)(exact) - floats)) < 1e-12
        assert sum(exact[0]) == 1

    def test_mix_apply_equals_matrix_product(self):
        n, p = 6, 0.7
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(len(state_space(n)), 3))
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

    def test_lumped_chain_matches_full_process(self):
        # tracking two objects through the full permutation process gives
        # exactly the lumped transition rows
        n, p = 4, 0.7
        perms, probs = swap_process_distribution(n, p)
        states = state_space(n)
        index = state_index(n)
        m = build_M(n, p)
        for row, start in enumerate(states):
            lumped = np.zeros(len(states))
            for perm, prob in zip(perms, probs):
                state = SimplifiedState(perm.index(start.a) + 1, perm.index(start.b) + 1)
                lumped[index[state]] += prob
            assert np.max(np.abs(lumped - m[row])) < 1e-9


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
        index = state_index(n)
        counts = np.zeros(len(index))
        start = SimplifiedState(1, 3)
        for _ in range(samples):
            noisy = sample_noisy_ranking(truth, p, rng)
            state = SimplifiedState(noisy.position_of(start.a), noisy.position_of(start.b))
            counts[index[state]] += 1
        freqs = counts / samples
        target = build_M(n, p)[index[start]]
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
        index = state_index(n)
        m = build_M(n, p)
        row = m[index[SimplifiedState(2, 3)]]
        consistent = sum(
            weight for state, weight in zip(state_space(n), row) if state.a < state.b
        )
        sigma = np.sqrt(consistent * (1 - consistent) / samples)
        assert abs(wins / samples - consistent) < 4 * sigma
