"""Experiment protocols and subject models, including Monte Carlo checks."""

import math
import time
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from freechoice import designs, noise
from freechoice.core import Choice, ObjectPair, PositionPair, Ranking, all_position_pairs, spread
from freechoice.designs import (
    DesignConfig,
    DissonanceShiftModel,
    MemoryModel,
    NullModel,
    TwoParamModel,
    iter_experiment,
    pair_count,
    run_experiment,
    run_subject,
)
from freechoice.exact import (
    expected_spread_conditional,
    expected_spread_two_param,
)
from freechoice.stats import compare, summarize


class TestDesignConfig:
    def test_accepts_tuples(self):
        cfg = DesignConfig(kind="classic", n=12, subjects=10, pair=(7, 9))
        assert cfg.pair == PositionPair(7, 9)
        cfg = DesignConfig(kind="e1", n=12, subjects=10, object_pair=(3, 11))
        assert cfg.object_pair == ObjectPair(3, 11)

    def test_accepts_numpy_positions(self):
        # numpy integers are positions, object labels and counts too; floats
        # are not truncated
        cfg = DesignConfig(kind="classic", n=12, subjects=3, pair=(np.int64(7), 9))
        assert cfg.pair == PositionPair(7, 9)
        assert type(cfg.pair.i) is int
        cfg = DesignConfig(kind="e1", n=12, subjects=3, object_pair=(np.int64(3), 11))
        assert cfg.object_pair == ObjectPair(3, 11)
        assert type(cfg.object_pair.first) is int
        cfg = DesignConfig(kind="e2", n=np.int64(5), subjects=np.int64(2))
        assert type(cfg.n) is int and type(cfg.subjects) is int
        pair = PositionPair(np.int64(7), 9)
        assert pair == PositionPair(7, 9) and type(pair.i) is int
        model = DissonanceShiftModel(p=0.5, shift=np.int64(1))
        assert model.shift == 1 and type(model.shift) is int
        for kwargs in (
            {"kind": "classic", "n": 12, "subjects": 3, "pair": (7.0, 9)},
            {"kind": "e1", "n": 12, "subjects": 3, "object_pair": (3.0, 11)},
            {"kind": "e2", "n": 5, "subjects": 2.5},
            {"kind": "e2", "n": 5.0, "subjects": 2},
        ):
            with pytest.raises(ValueError):
                DesignConfig(**kwargs)

    def test_subject_indices_fit_one_word(self):
        # each subject's stream key holds its index as one 32-bit word
        assert DesignConfig(kind="e2", n=5, subjects=2**32).subjects == 2**32
        with pytest.raises(ValueError, match="at most 2\\*\\*32"):
            DesignConfig(kind="e2", n=5, subjects=2**32 + 1)

    def test_e3_needs_complete_blocks(self):
        DesignConfig(kind="e3", n=6, subjects=45)
        DesignConfig(kind="e3", n=2, subjects=2)
        # an incomplete block, or one subject: the bootstrap needs two
        for n, subjects in ((6, 44), (2, 1)):
            with pytest.raises(ValueError):
                DesignConfig(kind="e3", n=n, subjects=subjects)

    def test_e0_needs_even_split(self):
        DesignConfig(kind="e0", n=12, subjects=106, pair=(7, 9))
        DesignConfig(kind="e0", n=12, subjects=4, pair=(7, 9))
        for subjects in (105, 2):  # odd, or one subject per arm
            with pytest.raises(ValueError):
                DesignConfig(kind="e0", n=12, subjects=subjects, pair=(7, 9))

    def test_pair_kinds_enforced(self):
        with pytest.raises(ValueError):
            DesignConfig(kind="classic", n=12, subjects=10)  # needs a pair
        with pytest.raises(ValueError):
            DesignConfig(kind="classic", n=6, subjects=10, pair=(5, 8))  # off the board
        with pytest.raises(ValueError):
            DesignConfig(kind="e1", n=12, subjects=10)  # needs objects
        with pytest.raises(ValueError):
            DesignConfig(kind="e1", n=6, subjects=10, object_pair=(0, 3))
        with pytest.raises(ValueError):
            DesignConfig(kind="e2", n=6, subjects=10, pair=(1, 2))
        with pytest.raises(ValueError):
            DesignConfig(kind="e3", n=6, subjects=45, object_pair=(1, 2))
        with pytest.raises(ValueError):
            DesignConfig(kind="quantum", n=6, subjects=10)

    def test_pair_count(self):
        assert pair_count(12) == 66
        assert pair_count(15) == 105


class TestModels:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NullModel(p=1.0)
        with pytest.raises(ValueError):
            NullModel(p=-0.1)
        with pytest.raises(ValueError):
            TwoParamModel(p=0.8, P=0.5)
        with pytest.raises(ValueError):
            TwoParamModel(p=0.5, P=1.0)
        with pytest.raises(ValueError):
            DissonanceShiftModel(p=0.2, shift=-1)
        with pytest.raises(ValueError):
            DissonanceShiftModel(p=0.2, threshold=0)

    def test_kind_labels(self):
        assert NullModel(p=0.5).kind == "null"
        assert TwoParamModel(p=0.5, P=0.9).kind == "two-param"
        assert MemoryModel(p=0.5).kind == "memory"
        assert DissonanceShiftModel(p=0.5).kind == "dissonance-shift"

    @pytest.mark.parametrize("arm", ["none", "experimental", "control"])
    def test_stage_weights(self, arm):
        # (first ranking, choice, final ranking): one weight for the
        # single-weight models, P before the choice for the two-param model
        for model in (NullModel(p=0.4), MemoryModel(p=0.4), DissonanceShiftModel(p=0.4)):
            assert model.stage_weights(arm) == (0.4, 0.4, 0.4)
        final = 0.9 if arm == "control" else 0.4
        assert TwoParamModel(p=0.4, P=0.9).stage_weights(arm) == (0.9, 0.4, final)


@pytest.fixture
def stages(monkeypatch):
    """Spy on the ranking sampler: every ranking a subject samples, in draw order.

    Outside the e0 control arm a subject samples its first ranking, the
    ranking its choice is read from and its final ranking, in that order.
    The spy calls through to the real sampler, in ``designs`` and in
    ``noise``, where ``sample_choice`` looks it up, so the records are
    those of an unspied run. The final ranking is the sampled one, before
    the model's ``_kept`` edit.
    """
    seen = []
    real = noise.sample_noisy_ranking

    def wrapper(*args):
        result = real(*args)
        seen.append(result)
        return result

    for module in (designs, noise):
        monkeypatch.setattr(module, "sample_noisy_ranking", wrapper)
    return seen


def choice_from(noisy: Ranking, x, y) -> Choice:
    """The choice between objects x and y read off a choice-stage ranking."""
    return Choice(x, y) if noisy.position_of(x) < noisy.position_of(y) else Choice(y, x)


class TestRunSubject:
    def test_null_noiseless_spread_is_zero(self, stages):
        cfg = DesignConfig(kind="classic", n=12, subjects=5, pair=(7, 9))
        record = run_subject(cfg, NullModel(p=0.0), 0, np.random.default_rng(0))
        assert record.spread == 0
        assert record.consistent
        assert (record.i, record.j) == (7, 9)
        assert record.arm == "none"
        assert stages == [Ranking.identity(12)] * 3

    def test_dissonance_shift_forced_arithmetic(self):
        # gap 2 <= threshold, so the chosen object climbs one step and the
        # rejected object falls one step in the noiseless final ranking
        cfg = DesignConfig(kind="e1", n=15, subjects=3, object_pair=(7, 9))
        model = DissonanceShiftModel(p=0.0, shift=1, threshold=3)
        record = run_subject(cfg, model, 0, np.random.default_rng(1))
        assert (record.i, record.j) == (7, 9)
        assert record.spread == 2
        # places from 0: objects 7 and 9 of the identity move to positions 6 and 10
        assert tuple(map(int, model._moved(6, 8, 2, 15))) == (5, 9)

    def test_dissonance_shift_respects_threshold(self):
        cfg = DesignConfig(kind="classic", n=15, subjects=3, pair=(7, 12))
        model = DissonanceShiftModel(p=0.0, shift=1, threshold=3)
        record = run_subject(cfg, model, 0, np.random.default_rng(1))
        assert record.spread == 0  # gap 5 exceeds the threshold: no shift

    def test_dissonance_shift_clamps_at_edges(self):
        cfg = DesignConfig(kind="classic", n=6, subjects=3, pair=(1, 6))
        model = DissonanceShiftModel(p=0.0, shift=4, threshold=6)
        record = run_subject(cfg, model, 0, np.random.default_rng(1))
        # chosen already sits at position 1; rejected clamps to position 6
        assert tuple(map(int, model._moved(0, 5, 5, 6))) == (0, 5)
        assert record.spread == 0

    def test_memory_noiseless_needs_no_correction(self):
        cfg = DesignConfig(kind="e2", n=10, subjects=3)
        record = run_subject(cfg, MemoryModel(p=0.0), 0, np.random.default_rng(2))
        assert record.spread == 0

    def test_memory_final_ranking_always_agrees_with_choice(self):
        cfg = DesignConfig(kind="e2", n=8, subjects=300)
        model = MemoryModel(p=0.8)
        for record in run_experiment(cfg, model, 13):
            # the final gap between chosen and rejected object is the first
            # gap plus the spread; a positive gap keeps the chosen one ahead
            first_gap = record.j - record.i if record.consistent else record.i - record.j
            assert record.spread + first_gap > 0
        # a final ranking contradicting the choice swaps the two objects back:
        # in (1, 5, 3, 4, 2, 6, 7, 8), chosen 2 and rejected 5 sit at 4 and 1
        assert tuple(map(int, model._kept(4, 1))) == (1, 4)
        assert tuple(map(int, model._kept(1, 4))) == (1, 4)

    @pytest.mark.numpy_oracle
    def test_consistency_flag_matches_first_ranking(self, stages, monkeypatch):
        # run_subject on the subjects' numpy streams, then the block kernel
        cfg = DesignConfig(kind="classic", n=10, subjects=200, pair=(4, 7))
        records = reference_records(cfg, NullModel(p=0.7), np.random.SeedSequence(3))
        assert len(stages) == 3 * len(records)
        for record, rank_first, noisy in zip(records, stages[::3], stages[1::3]):
            choice = choice_from(noisy, rank_first.object_at(4), rank_first.object_at(7))
            flag = rank_first.position_of(choice.chosen) < rank_first.position_of(choice.rejected)
            assert record.consistent == flag
        monkeypatch.undo()
        assert run_experiment(cfg, NullModel(p=0.7), 3) == records

    @pytest.mark.numpy_oracle
    def test_spread_recomputable(self, stages, monkeypatch):
        cfg = DesignConfig(kind="e2", n=9, subjects=150)
        records = reference_records(cfg, TwoParamModel(p=0.4, P=0.8), np.random.SeedSequence(5))
        assert len(stages) == 3 * len(records)
        for record, rank_first, noisy, rank_final in zip(
            records, stages[::3], stages[1::3], stages[2::3]
        ):
            tracked = rank_first.object_at(record.i), rank_first.object_at(record.j)
            choice = choice_from(noisy, *tracked)
            assert spread(rank_first, choice, rank_final) == record.spread
            assert record.consistent == (choice.chosen == tracked[0])
        monkeypatch.undo()
        assert run_experiment(cfg, TwoParamModel(p=0.4, P=0.8), 5) == records

    def test_subject_index_validated(self):
        cfg = DesignConfig(kind="classic", n=6, subjects=4, pair=(1, 2))
        with pytest.raises(ValueError):
            run_subject(cfg, NullModel(p=0.1), 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_subject(cfg, NullModel(p=0.1), -1, np.random.default_rng(0))
        # the index follows the integer rule: no float, and a numpy integer
        # is recorded as the int it holds
        with pytest.raises(ValueError):
            run_subject(cfg, NullModel(p=0.1), 2.0, np.random.default_rng(0))
        record = run_subject(cfg, NullModel(p=0.1), np.int64(2), np.random.default_rng(0))
        assert type(record.subject) is int and record.subject == 2

    def test_stalled_search_raises(self):
        # the crafted word gives U = 1 - 2**-53, past the last search sum at
        # weight 0.3, where numpy's own geometric would never return; the
        # reference refuses it as the block kernel does
        design = DesignConfig(kind="classic", n=5, subjects=1, pair=(2, 4))
        draws = (lambda rng: noise.sample_noisy_ranking(Ranking.identity(5), 0.3, rng),
                 lambda rng: run_subject(design, NullModel(p=0.3), 0, rng))
        start = time.perf_counter()
        for draw in draws:
            with pytest.raises(ValueError, match="noise weight 0.3 passes the last pmf sum"):
                draw(generators([crafted_state(2**64 - 1)])[0])
        assert time.perf_counter() - start < 1

    def test_e3_needs_driver_pair(self):
        cfg = DesignConfig(kind="e3", n=6, subjects=15)
        with pytest.raises(ValueError):
            run_subject(cfg, NullModel(p=0.1), 0, np.random.default_rng(0))
        record = run_subject(
            cfg, NullModel(p=0.1), 0, np.random.default_rng(0), pair=PositionPair(2, 5)
        )
        assert (record.i, record.j) == (2, 5)

    def test_e3_pair_follows_pair_rule(self):
        cfg = DesignConfig(kind="e3", n=5, subjects=10)
        for bad in (PositionPair(4, 9), (1, 6), (2, 2), (4, 2), (1.0, 2), (1, 2, 3), "ab", 12):
            with pytest.raises(ValueError):
                run_subject(cfg, NullModel(p=0.3), 0, np.random.default_rng(0), pair=bad)
        # a pair of positions is read as DesignConfig reads it
        records = [
            run_subject(cfg, NullModel(p=0.3), 0, np.random.default_rng(0), pair=pair)
            for pair in ((2, 4), PositionPair(2, 4))
        ]
        assert records[0] == records[1]

    def test_pair_rejected_elsewhere(self):
        cfg = DesignConfig(kind="classic", n=6, subjects=4, pair=(1, 2))
        with pytest.raises(ValueError):
            run_subject(
                cfg, NullModel(p=0.1), 0, np.random.default_rng(0), pair=PositionPair(1, 2)
            )

    def test_explicit_truth(self):
        # e1 reads the compared positions off the first ranking, so a
        # noiseless reversed truth moves objects 1 and 2 to positions 5 and 4
        cfg = DesignConfig(kind="e1", n=5, subjects=2, object_pair=(1, 2))
        truth = Ranking((5, 4, 3, 2, 1))
        record = run_subject(cfg, NullModel(p=0.0), 0, np.random.default_rng(0), truth=truth)
        assert (record.i, record.j) == (4, 5)
        assert record.spread == 0
        wrong_size = Ranking.identity(4)
        with pytest.raises(ValueError):
            run_subject(cfg, NullModel(p=0.0), 0, np.random.default_rng(0), truth=wrong_size)

    def test_e2_pair_index_follows_all_position_pairs(self):
        # an e2 subject draws index k and reads pair k of all_position_pairs
        for n in range(2, 80):
            pairs = [designs._pair_at(n, k) for k in range(pair_count(n))]
            assert pairs == [(q.i, q.j) for q in all_position_pairs(n)]

    @pytest.mark.own_process
    def test_e2_memory_does_not_grow_with_pair_count(self):
        # C(1000, 2) = 499,500 pairs; listing them as PositionPairs takes
        # about 60 MB, while each subject needs one pair
        cfg = DesignConfig(kind="e2", n=1000, subjects=10)
        tracemalloc.start()
        try:
            records = run_experiment(cfg, NullModel(p=0.5), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 10
        assert peak < 2 * 2**20


class TestRunExperiment:
    def test_deterministic(self):
        cfg = DesignConfig(kind="e3", n=6, subjects=45)
        model = TwoParamModel(p=0.3, P=0.7)
        a = run_experiment(cfg, model, 42)
        b = run_experiment(cfg, model, 42)
        assert a == b
        assert run_experiment(cfg, model, 43) != a

    def test_record_count_and_order(self):
        cfg = DesignConfig(kind="e2", n=5, subjects=37)
        records = run_experiment(cfg, NullModel(p=0.5), 0)
        assert [record.subject for record in records] == list(range(37))

    def test_e0_split(self):
        cfg = DesignConfig(kind="e0", n=12, subjects=106, pair=(7, 9))
        records = run_experiment(cfg, NullModel(p=0.8), 7)
        arms = [record.arm for record in records]
        assert arms[:53] == ["experimental"] * 53
        assert arms[53:] == ["control"] * 53

    def test_e3_every_pair_once_per_block(self):
        cfg = DesignConfig(kind="e3", n=6, subjects=30)
        records = run_experiment(cfg, NullModel(p=0.4), 1)
        expected = sorted(combinations(range(1, 7), 2))
        assert sorted((r.i, r.j) for r in records[:15]) == expected
        assert sorted((r.i, r.j) for r in records[15:]) == expected
        # block orders differ almost surely
        assert [(r.i, r.j) for r in records[:15]] != [(r.i, r.j) for r in records[15:]]

    def test_random_truth_mode(self):
        cfg = DesignConfig(kind="e1", n=8, subjects=30, object_pair=(3, 5))
        a = run_experiment(cfg, NullModel(p=0.5), 9, truth_mode="random")
        b = run_experiment(cfg, NullModel(p=0.5), 9, truth_mode="random")
        assert a == b
        # with noiseless stages the realized positions follow the random truths
        noiseless = run_experiment(cfg, NullModel(p=0.0), 9, truth_mode="random")
        assert len({(r.i, r.j) for r in noiseless}) > 1

    def test_truth_mode_validated(self):
        cfg = DesignConfig(kind="classic", n=5, subjects=2, pair=(1, 5))
        with pytest.raises(ValueError):
            run_experiment(cfg, NullModel(p=0.2), 0, truth_mode="sometimes")

    def test_arguments_checked_at_call_time(self):
        # no record is requested, so a lazy check would not raise
        cfg = DesignConfig(kind="classic", n=5, subjects=2, pair=(1, 5))
        with pytest.raises(ValueError):
            iter_experiment(cfg, NullModel(p=0.2), 0, truth_mode="sometimes")
        with pytest.raises(ValueError, match="seed must be at least 0"):
            iter_experiment(cfg, NullModel(p=0.2), -1)

    def test_swap_budget_checked_at_call_time(self, monkeypatch):
        # subjects x 3 stages x p/(1 - p) at the largest weight, before any draw
        monkeypatch.setattr(designs, "_Streams", None)
        cfg = DesignConfig(kind="e0", n=12, subjects=10, pair=(7, 9))
        with pytest.raises(noise.CapacityError, match="about 3e\\+11 adjacent swaps"):
            iter_experiment(cfg, TwoParamModel(p=0.1, P=0.9999999999), 0)
        iter_experiment(cfg, TwoParamModel(p=0.1, P=0.999), 0)  # 3e4 swaps

    def test_seed_follows_integer_rule(self):
        cfg = DesignConfig(kind="e2", n=5, subjects=4)
        model = NullModel(p=0.5)
        assert run_experiment(cfg, model, np.int64(3)) == run_experiment(cfg, model, 3)
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_experiment(cfg, model, 1.5)

    def test_iter_streams_lazily(self):
        cfg = DesignConfig(kind="e2", n=5, subjects=5000)
        iterator = iter_experiment(cfg, NullModel(p=0.5), 0)
        first = next(iterator)
        assert first.subject == 0
        iterator.close()


    def test_e3_covers_drawn_as_reached(self, monkeypatch):
        # 300,000 subjects are 100,000 covers of 3 pairs; the first block of
        # 1,024 records needs only the covers it reaches
        covers = []
        stream_rng = designs._stream_rng

        class Spy:
            def __init__(self, rng):
                self.rng = rng

            def permutation(self, size):
                covers.append(size)
                return self.rng.permutation(size)

        def spying_stream_rng(root, stream, *index):
            rng = stream_rng(root, stream, *index)
            return Spy(rng) if stream == "e3-assignment" else rng

        monkeypatch.setattr(designs, "_stream_rng", spying_stream_rng)
        cfg = DesignConfig(kind="e3", n=3, subjects=300_000)
        iterator = iter_experiment(cfg, NullModel(p=0.5), 0)
        records = [next(iterator) for _ in range(1024)]
        iterator.close()
        assert len(covers) <= math.ceil(1024 / 3) + 1
        for start in range(0, 1023, 3):
            cover = sorted((r.i, r.j) for r in records[start : start + 3])
            assert cover == [(1, 2), (1, 3), (2, 3)]


def pcg64_state(seed) -> dict:
    return np.random.PCG64(seed).state


def crafted_state(first: int, second: int = 0) -> dict:
    """A PCG64 state whose next two raw words are ``first`` and ``second``."""
    inc = (second - first * noise._MULT) % 2**128
    state = (first - inc) * pow(noise._MULT, -1, 2**128) % 2**128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def streams_of(states):
    streams = noise._Streams(np.zeros((len(states), 4), dtype=np.uint64))
    for row, state in enumerate(states):
        streams._set(row, state)
    return streams


def generators(states):
    gens = [np.random.Generator(np.random.PCG64()) for _ in states]
    for gen, state in zip(gens, states):
        gen.bit_generator.state = state
    return gens


def assert_same_states(streams, gens):
    # numpy leaves a spent carried half in "uinteger", where no draw reads it
    def live(state):
        return {**state, "uinteger": state["uinteger"] if state["has_uint32"] else 0}

    assert [live(streams.state(k)) for k in range(len(gens))] == [
        live(g.bit_generator.state) for g in gens]


@pytest.mark.numpy_oracle
class TestSubjectStreams:
    """The block-wide subject seeds, replayed by the kernel, equal numpy's per-subject streams."""

    ROOTS = {
        "small int": np.random.SeedSequence(3),
        "os entropy": np.random.SeedSequence(),
        "list entropy": np.random.SeedSequence([7, 2**40, 0, 2**70]),
        "string entropy": np.random.SeedSequence(["0x" + "f" * 40, "12"]),
        "power replication": designs._stream_seed(np.random.SeedSequence(5), "replication", 17),
        # a stream is seeded with numpy's default pool size, whatever the root's
        "pool size 8": np.random.SeedSequence(11, pool_size=8),
    }
    SUBJECTS = [0, 1, 1023, 1024, 2**32 - 1]

    @pytest.mark.parametrize("name", ROOTS)
    def test_matches_numpy_seed_sequence(self, name):
        root = self.ROOTS[name]
        # the same root twice, as two experiments of one block
        states = designs._subject_states([root, root], [0] * 5 + [1] * 5, self.SUBJECTS * 2)
        assert states.dtype == np.uint64 and states.shape == (10, 4)
        streams = noise._Streams(states)
        rows = np.arange(10)
        expected = []
        for subject in self.SUBJECTS * 2:
            key = root.spawn_key + (1, subject)
            seq = np.random.SeedSequence(entropy=root.entropy, spawn_key=key)
            assert states[len(expected)].tolist() == seq.generate_state(4, np.uint64).tolist()
            expected.append(np.random.Generator(np.random.PCG64(seq)))
        assert_same_states(streams, expected)
        words = streams.words(rows, np.full(10, 3)).reshape(10, 3)
        assert words.tolist() == [g.bit_generator.random_raw(3).tolist() for g in expected]
        assert (streams.geometric(rows, 0.7) + 1).tolist() == [g.geometric(0.3) for g in expected]
        perms = streams.permutations(rows, 12)
        assert perms.tolist() == [g.permutation(12).tolist() for g in expected]
        assert_same_states(streams, expected)


@pytest.mark.numpy_oracle
class TestSubjectDraws:
    """The kernel's bounded draws equal numpy's, word for word, carried half included."""

    # 3 * 2**30 rejects about one draw in four, which numpy then draws; 2**32
    # is the largest bound replayed, and 2**32 + 1 goes to numpy's 64-bit path
    BOUNDS = [1, 2, 11, 66, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1]

    @pytest.mark.parametrize("bound", BOUNDS)
    @pytest.mark.parametrize("after", ["nothing", "permutation"])
    def test_below_matches_integers(self, bound, after):
        states = [pcg64_state(seed) for seed in range(16)]
        expected, streams, rows = generators(states), streams_of(states), np.arange(16)
        if after == "permutation":
            # a shuffle draws 32-bit halves and may leave one carried
            assert streams.permutations(rows, 12).tolist() == [
                g.permutation(12).tolist() for g in expected]
            carried = [g.bit_generator.state["has_uint32"] for g in expected]
            assert 0 < sum(carried) < len(carried)
        for k in [0, 1, 2, 3, 4, 5, 6] * 2:
            drawn = streams.below(rows, bound, np.full(16, k)).reshape(16, k)
            assert drawn.tolist() == [g.integers(0, bound, size=k).tolist() for g in expected]
            swaps = streams.geometric(rows, 0.6)
            assert (swaps + 1).tolist() == [g.geometric(0.4) for g in expected]
        # ragged counts, the rows in any order
        counts, order = np.arange(16) % 5, np.arange(16)[::-1]
        drawn = streams.below(order, bound, counts).tolist()
        assert drawn == [v for k, count in zip(order, counts)
                         for v in expected[k].integers(0, bound, size=count)]
        assert_same_states(streams, expected)


def reference_records(cfg, model, root, truth_mode="identity"):
    """run_subject on each subject's own numpy Generator, the experiment's streams as seeded."""
    pairs = all_position_pairs(cfg.n)
    covers = designs._stream_rng(root, "e3-assignment") if cfg.kind == "e3" else None
    records = []
    for subject in range(cfg.subjects):
        if covers is not None and subject % len(pairs) == 0:
            cover = covers.permutation(len(pairs))
        rng = np.random.Generator(np.random.PCG64(designs._stream_seed(root, "subject", subject)))
        truth = Ranking((rng.permutation(cfg.n) + 1).tolist()) if truth_mode == "random" else None
        pair = pairs[cover[subject % len(pairs)]] if covers is not None else None
        records.append(run_subject(cfg, model, subject, rng, pair=pair, truth=truth))
    return records


# 150 subjects cross two blocks of 64; e3 covers of 10 pairs and the e0 arm
# boundary fall inside blocks
KERNEL_DESIGNS = {
    "classic": DesignConfig(kind="classic", n=7, subjects=150, pair=(2, 5)),
    "e0": DesignConfig(kind="e0", n=6, subjects=150, pair=(3, 4)),
    "e1": DesignConfig(kind="e1", n=8, subjects=150, object_pair=(2, 6)),
    "e2": DesignConfig(kind="e2", n=9, subjects=150),
    "e3": DesignConfig(kind="e3", n=5, subjects=150),
}
# weights on both of numpy's geometric algorithms (search for p <= 2/3)
KERNEL_MODELS = {
    "null": NullModel(p=0.8),
    "two-param": TwoParamModel(p=0.5, P=0.9),
    "memory": MemoryModel(p=0.6),
    "dissonance-shift": DissonanceShiftModel(p=0.5, shift=2, threshold=3),
}


@pytest.mark.numpy_oracle
class TestKernelRecords:
    """The block kernel's records equal run_subject's on numpy Generators."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(designs, "_BLOCK", 64)

    @pytest.mark.parametrize("truth_mode", designs.TRUTH_MODES)
    @pytest.mark.parametrize("model", KERNEL_MODELS)
    @pytest.mark.parametrize("kind", KERNEL_DESIGNS)
    def test_records_match_run_subject(self, kind, model, truth_mode):
        cfg, model = KERNEL_DESIGNS[kind], KERNEL_MODELS[model]
        records = run_experiment(cfg, model, 2026, truth_mode=truth_mode)
        assert records == reference_records(cfg, model, np.random.SeedSequence(2026), truth_mode)

    @pytest.mark.parametrize("kind", ["e0", "e3"])
    def test_replications_share_blocks(self, kind):
        # 7 experiments of 30 subjects in blocks of 64: blocks hold parts of
        # up to four experiments, and experiments straddle block boundaries
        cfg = replace(KERNEL_DESIGNS[kind], subjects=30)
        model, root = TwoParamModel(p=0.3, P=0.75), np.random.SeedSequence(8)
        blocks = list(designs._experiment_blocks(cfg, model, root, replications=7))
        assert [len(block.subject) for block in blocks] == [64, 64, 64, 18]
        records = [record for block in blocks for record in designs._records(block)]
        experiments = np.concatenate([block.experiment for block in blocks])
        for replication in range(7):
            seed = designs._stream_seed(root, "replication", replication)
            got = [r for r, e in zip(records, experiments) if e == replication]
            assert got == reference_records(cfg, model, seed)

    def test_swaps_expand_in_slices(self, monkeypatch):
        # at most 16 swap steps a slice: long stages run over many slices,
        # and a lone row of about 500 swaps needs more than one jump table
        monkeypatch.setattr(noise, "_SLICE", 16)
        for cfg, model in ((KERNEL_DESIGNS["e0"], TwoParamModel(p=0.5, P=0.95)),
                           (replace(KERNEL_DESIGNS["e2"], subjects=3), NullModel(p=0.998))):
            records = run_experiment(cfg, model, 6)
            assert records == reference_records(cfg, model, np.random.SeedSequence(6))

    def test_noiseless_and_two_objects(self):
        # weight 0 draws one word per stage and no swap; n = 2 swaps draw nothing
        for cfg, model in ((KERNEL_DESIGNS["e2"], NullModel(p=0.0)),
                           (DesignConfig(kind="e2", n=2, subjects=100), NullModel(p=0.7))):
            records = run_experiment(cfg, model, 4, truth_mode="random")
            assert records == reference_records(cfg, model, np.random.SeedSequence(4), "random")


@pytest.mark.numpy_oracle
class TestKernelDraws:
    """Each numpy primitive the kernel replays, against numpy on the same states."""

    def test_pcg64_words(self):
        states = [pcg64_state(seed) for seed in range(6)]
        expected, streams = generators(states), streams_of(states)
        counts = np.array([0, 1, 5, noise._JUMPS, 3, 2])
        words = streams.words(np.arange(6), counts).tolist()
        assert words == [w for g, c in zip(expected, counts) for w in g.bit_generator.random_raw(c)]
        assert_same_states(streams, expected)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
    def test_permutation(self, n):
        states = [pcg64_state(seed) for seed in range(32)]
        expected, streams = generators(states), streams_of(states)
        for _ in range(3):
            drawn = streams.permutations(np.arange(32), n)
            assert drawn.tolist() == [g.permutation(n).tolist() for g in expected]
        assert_same_states(streams, expected)

    # numpy searches for a success probability 1 - p >= 1/3 and inverts an
    # exponential below it; 2/3 and the floats beside it sit on the switch
    @pytest.mark.parametrize("p", [0.0, 0.3, np.nextafter(2 / 3, 0), 2 / 3,
                                   np.nextafter(2 / 3, 1), 0.9, 0.99])
    def test_geometric(self, p):
        states = [pcg64_state(seed) for seed in range(200)]
        expected, streams = generators(states), streams_of(states)
        for _ in range(5):
            drawn = streams.geometric(np.arange(200), p) + 1
            assert drawn.tolist() == [g.geometric(1.0 - p) for g in expected]
        assert_same_states(streams, expected)

    @staticmethod
    def strip_word(ri: int, strip: int) -> int:
        return (ri << 8 | strip) << 3

    def assert_geometric_matches(self, states, p=0.9):
        # an exponential of exactly 0 (strip 1 at ri = 0) makes numpy's
        # geometric 0, which the swap kernel reads as no swap
        expected, streams = generators(states), streams_of(states)
        drawn = streams.geometric(np.arange(len(states)), p)
        assert drawn.tolist() == [max(g.geometric(1.0 - p) - 1, 0) for g in expected]
        assert_same_states(streams, expected)

    def test_stalled_search_raises(self):
        # U = 1 - 2**-53 passes the last search sum at weight 0.3, where the
        # sums stall at 1 - 2**-52 and numpy's own geometric would never
        # return, so numpy is not asked; at 0.5 the sums reach U
        state = crafted_state(2**64 - 1)
        assert noise._search_sums(1.0 - 0.3)[-1] < 1 - 2**-53 <= noise._search_sums(0.5)[-1]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="noise weight 0.3 passes the last pmf sum"):
            streams_of([state]).geometric(np.arange(1), 0.3)
        assert time.perf_counter() - start < 1
        self.assert_geometric_matches([state], p=0.5)

    def test_ziggurat_slow_paths_go_to_numpy(self):
        ke, _ = noise._ziggurat()
        top = 2**53 - 1
        cases = {
            # strip 0 past its ke: the exponential tail, one more word
            "strip 0": (self.strip_word(int(ke[0]), 0), 12345 << 11),
            # strip 1 never returns on its first word
            "strip 1": (self.strip_word(5, 1), 7 << 11),
            # a wedge whose second word accepts, and one that rejects and
            # draws afresh from a third word
            "wedge accepted": (self.strip_word(int(ke[100]), 100), 0),
            "wedge rejected": (self.strip_word(top, 100), top << 11),
        }
        # the state after numpy's draw is the last word it took (at most two)
        consumed = {}
        for name, words in cases.items():
            gen = generators([crafted_state(*words)])[0]
            gen.standard_exponential()
            state = gen.bit_generator.state["state"]["state"]
            consumed[name] = state if state in words else "more"
        assert consumed == {"strip 0": cases["strip 0"][1], "strip 1": cases["strip 1"][1],
                            "wedge accepted": 0, "wedge rejected": "more"}
        self.assert_geometric_matches([crafted_state(*words) for words in cases.values()])

    def test_every_strip_boundary(self):
        # ri = ke - 1 returns on its one word, ri = ke takes another
        ke, we = noise._ziggurat()
        states, fast = [], []
        for strip, edge in enumerate(ke.tolist()):
            for ri in (edge - 1, edge):
                if 0 <= ri < 2**53:
                    word = self.strip_word(ri, strip)
                    states.append(crafted_state(word, 99 << 11))
                    gen = generators(states[-1:])[0]
                    value = gen.standard_exponential()
                    fast.append(gen.bit_generator.state["state"]["state"] == word)
                    assert value == ri * we[strip] or not fast[-1]
        # strip 1 has ke = 0, so it has no fast word
        assert len(states) == 2 * 256 - 1
        assert fast == [ri_fast for strip, edge in enumerate(ke.tolist())
                        for ri_fast in ((True, False) if edge else (False,))]
        self.assert_geometric_matches(states)

    def test_lemire_rejection_goes_to_numpy(self):
        # x * 3 * 2**30 mod 2**32 falls below 2**32 mod 3 * 2**30 = 2**30
        # exactly when x is a multiple of 4: numpy rejects the low half 8 of
        # the first row's word and the second row's carried half 4
        states = [crafted_state(5 << 32 | 8, 2**63 + 1), crafted_state(9, 2**33)]
        states[1]["has_uint32"], states[1]["uinteger"] = 1, 4
        expected, streams = generators(states), streams_of(states)
        drawn = streams.below(np.arange(2), 3 * 2**30, np.array([3, 2])).tolist()
        assert drawn == [v for g, k in zip(expected, (3, 2))
                         for v in g.integers(0, 3 * 2**30, size=k)]
        assert_same_states(streams, expected)


class TestMonteCarlo:
    def test_null_design_means_vanish_smoke(self):
        # smaller cousins of the acceptance-gate runs
        subjects = 20000
        for cfg in (
            DesignConfig(kind="e1", n=12, subjects=subjects, object_pair=(7, 9)),
            DesignConfig(kind="e2", n=12, subjects=subjects),
            DesignConfig(kind="e3", n=12, subjects=pair_count(12) * (subjects // pair_count(12))),
        ):
            spreads = [r.spread for r in iter_experiment(cfg, NullModel(p=0.8), 101)]
            summary = summarize(spreads)
            assert abs(summary.mean) < 5 * summary.se, cfg.kind

    def test_null_e0_arms_equal_smoke(self):
        cfg = DesignConfig(kind="e0", n=12, subjects=20000, pair=(7, 9))
        experimental, control = [], []
        for record in iter_experiment(cfg, NullModel(p=0.8), 23):
            (experimental if record.arm == "experimental" else control).append(record.spread)
        comparison = compare(summarize(experimental), summarize(control))
        assert abs(comparison.z) < 5

    def test_two_param_e3_matches_exact_engine(self):
        # million-subject cross-validation against the analytic value
        n, p, P = 15, 0.5, 0.9
        subjects = pair_count(n) * 9524  # 1,000,020
        cfg = DesignConfig(kind="e3", n=n, subjects=subjects)
        spreads = [r.spread for r in iter_experiment(cfg, TwoParamModel(p=p, P=P), 2026)]
        summary = summarize(spreads)
        exact = expected_spread_two_param(n, p, P, "e3")
        assert abs(summary.mean - exact) < 3 * summary.se

    def test_memory_e2_positive(self):
        cfg = DesignConfig(kind="e2", n=12, subjects=1_000_000)
        spreads = [r.spread for r in iter_experiment(cfg, MemoryModel(p=0.8), 31)]
        summary = summarize(spreads)
        assert summary.mean / summary.se > 3

    def test_classic_consistent_choosers_match_conditional(self):
        n, p, pair = 12, 0.8, (7, 9)
        cfg = DesignConfig(kind="classic", n=n, subjects=100_000, pair=pair)
        consistent = [
            r.spread for r in iter_experiment(cfg, NullModel(p=p), 407) if r.consistent
        ]
        summary = summarize(consistent)
        target = expected_spread_conditional(n, p, pair, "consistent")
        assert target > 0
        assert abs(summary.mean - target) < 3 * summary.se
