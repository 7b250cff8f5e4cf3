"""Summaries, comparisons, bootstrap, and power estimation."""

import json
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freechoice.designs import (
    DesignConfig,
    DissonanceShiftModel,
    NullModel,
    _as_seed_sequence,
    _experiment_blocks,
    _stream_rng,
    iter_experiment,
)
from freechoice.stats import (
    _SpreadTally,
    DegenerateComparisonError,
    GroupComparison,
    SpreadSummary,
    bootstrap_se,
    compare,
    power_estimate,
    power_report,
    summarize,
)


class TestSummarize:
    def test_two_values(self):
        summary = summarize([1, -1])
        assert summary == SpreadSummary(count=2, mean=0.0, sd=math.sqrt(2), se=1.0)

    def test_constant_sample(self):
        summary = summarize([3, 3, 3])
        assert summary.count == 3
        assert summary.mean == 3.0
        assert summary.sd == 0.0
        assert summary.se == 0.0

    def test_zero_sample(self):
        summary = summarize([0] * 105)
        assert summary.mean == 0.0
        assert summary.sd == 0.0

    def test_single_observation(self):
        summary = summarize([4])
        assert summary.count == 1
        assert summary.mean == 4.0
        assert summary.sd is None
        assert summary.se is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_order_invariant(self):
        values = [random.Random(5).uniform(-3, 3) for _ in range(500)]
        shuffled = list(values)
        random.Random(9).shuffle(shuffled)
        assert summarize(values) == summarize(shuffled)

    def test_se_relation(self):
        values = [2, 5, -1, 4, 0, 3, 3, -2]
        summary = summarize(values)
        assert summary.se == pytest.approx(summary.sd / math.sqrt(len(values)), abs=1e-15)

    def test_counts_read_as_values(self):
        values = [3, -1, 3, 0, 3, -1, 7]
        assert summarize(Counter(values)) == summarize(values)
        assert summarize({3: 3, -1: 2, 0: 1, 7: 1, 5: 0}) == summarize(values)
        with pytest.raises(ValueError):
            summarize({1: 2, 2: -1})
        with pytest.raises(ValueError):
            summarize({1: 1.5})
        with pytest.raises(ValueError):
            summarize({4: 0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            summarize([1.0, bad, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            summarize({bad: 1, 0.0: 3})


def fsum_summary(values):
    # The sequence-only reduction summarize replaced: compensated sums over
    # the values one by one.
    values = [float(value) for value in values]
    count = len(values)
    mean = math.fsum(values) / count
    if count == 1:
        return SpreadSummary(count=count, mean=mean, sd=None, se=None)
    sd = math.sqrt(math.fsum((value - mean) ** 2 for value in values) / (count - 1))
    return SpreadSummary(count=count, mean=mean, sd=sd, se=sd / math.sqrt(count))


class TestSummarizeMatchesFsum:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=300))
    def test_integer_spreads(self, values):
        expected = fsum_summary(values)
        assert summarize(values) == expected
        assert summarize(Counter(values)) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e100, 1e100, allow_subnormal=True), min_size=1, max_size=60))
    def test_float_spreads(self, values):
        expected = fsum_summary(values)
        assert summarize(values) == expected
        assert summarize(Counter(values)) == expected


class TestCompare:
    def test_identical_groups(self):
        a = summarize([1.0, 2.0, 3.0, 4.0])
        comparison = compare(a, a)
        assert comparison.difference == 0.0
        assert comparison.z == 0.0

    def test_pooling_degrades_by_sqrt2(self):
        a = summarize([1.0, 2.0, 3.0, 4.0])
        comparison = compare(a, a)
        assert comparison.se == pytest.approx(math.sqrt(2) * a.se, abs=1e-15)

    def test_z_sign(self):
        high = summarize([5.0, 6.0, 7.0])
        low = summarize([1.0, 2.0, 3.0])
        assert compare(high, low).z > 0
        assert compare(low, high).z < 0

    def test_degenerate_groups(self):
        a = summarize([2, 2, 2])
        b = summarize([2, 2, 2])
        with pytest.raises(DegenerateComparisonError):
            compare(a, b)

    def test_requires_spread_estimates(self):
        a = summarize([1.0, 2.0])
        single = summarize([1.0])
        with pytest.raises(ValueError):
            compare(a, single)

    def test_comparison_type(self):
        a = summarize([0.0, 1.0])
        b = summarize([0.5, 2.0])
        comparison = compare(a, b)
        assert isinstance(comparison, GroupComparison)
        assert comparison.difference == a.mean - b.mean


class TestBootstrap:
    def test_deterministic(self):
        values = [1.0, 4.0, -2.0, 0.5, 3.0, 3.0, -1.0]
        assert bootstrap_se(values, seed=7) == bootstrap_se(values, seed=7)
        assert bootstrap_se(values, seed=7) != bootstrap_se(values, seed=8)

    def test_close_to_analytic_se(self):
        values = [float(v) for v in random.Random(3).choices(range(-4, 5), k=2000)]
        analytic = summarize(values).se
        boot = bootstrap_se(values, resamples=2000, seed=1)
        assert boot == pytest.approx(analytic, rel=0.1)

    def test_constant_sample_gives_zero(self):
        assert bootstrap_se([2.0] * 50, seed=0) == 0.0

    @pytest.mark.parametrize("size", [2, 3, 66, 13200])
    @pytest.mark.parametrize("resamples", [2, 50, 1000])
    def test_blocks_do_not_change_the_value(self, size, resamples):
        # the same value as one block of up to 4,000,000 indices
        def four_million_cells(values, resamples, seed):
            values = np.fromiter(values, dtype=float)
            rng = _stream_rng(_as_seed_sequence(seed), "bootstrap")
            means = np.empty(resamples)
            chunk = max(1, 4_000_000 // values.size)
            for done in range(0, resamples, chunk):
                shape = (min(chunk, resamples - done), values.size)
                indices = rng.integers(0, values.size, size=shape)
                means[done : done + chunk] = values[indices].mean(axis=1)
            return float(np.std(means, ddof=1))

        values = np.random.default_rng(size).integers(-20, 21, size=size).tolist()
        assert bootstrap_se(values, resamples=resamples, seed=5) == four_million_cells(
            values, resamples, 5
        )

    @pytest.mark.own_process
    def test_memory_is_one_index_block(self):
        values = np.random.default_rng(1).integers(-20, 21, size=20_000).tolist()
        bootstrap_se(values, resamples=400, seed=3)
        tracemalloc.start()
        try:
            bootstrap_se(values, resamples=400, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_se([1.0], seed=0)
        with pytest.raises(ValueError):
            bootstrap_se([1.0, 2.0], resamples=1, seed=0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            bootstrap_se([1.0, 2.0], seed=2.5)


class TestPowerEstimate:
    def test_validation(self):
        cfg = DesignConfig(kind="e2", n=5, subjects=20)
        model = NullModel(p=0.5)
        with pytest.raises(ValueError):
            power_estimate(cfg, model, replications=0)
        with pytest.raises(ValueError):
            power_estimate(cfg, model, replications=10, alpha=0.0)
        with pytest.raises(ValueError):
            power_estimate(cfg, model, replications=10, alpha=1.0)

    def test_needs_two_subjects(self):
        # one subject leaves every replication without a variance, so none
        # could reject; the estimate is refused before any replication runs
        model = NullModel(p=0.5)
        with pytest.raises(ValueError):
            power_estimate(replace(DesignConfig(kind="e2", n=3, subjects=20), subjects=1),
                           model, replications=3)
        for cfg in (
            DesignConfig(kind="e2", n=3, subjects=1),
            DesignConfig(kind="classic", n=5, subjects=1, pair=(1, 2)),
            DesignConfig(kind="e1", n=5, subjects=1, object_pair=(1, 2)),
        ):
            with pytest.raises(ValueError):
                power_estimate(cfg, model, replications=3)

    def test_noiseless_null_never_rejects(self):
        # every spread is exactly zero, so the test statistic is degenerate
        cfg = DesignConfig(kind="e2", n=6, subjects=30)
        rate = power_estimate(cfg, NullModel(p=0.0), replications=20, seed=3)
        assert rate == 0.0

    def test_constant_effect_is_degenerate(self):
        # a noiseless shift on a fixed interior pair moves every spread to
        # exactly +2, leaving no variance to test against
        cfg = DesignConfig(kind="e1", n=6, subjects=30, object_pair=(3, 4))
        model = DissonanceShiftModel(p=0.0, shift=1, threshold=6)
        rate = power_estimate(cfg, model, replications=20, seed=3)
        assert rate == 0.0

    def test_strong_effect_always_rejects(self):
        cfg = DesignConfig(kind="e2", n=6, subjects=200)
        model = DissonanceShiftModel(p=0.3, shift=2, threshold=6)
        rate = power_estimate(cfg, model, replications=20, seed=3)
        assert rate == 1.0

    def test_monotone_in_subjects(self):
        cfg = DesignConfig(kind="e2", n=8, subjects=10)
        model = DissonanceShiftModel(p=0.55, shift=1, threshold=7)
        rates = [
            power_estimate(replace(cfg, subjects=count), model, replications=200, seed=11)
            for count in (10, 60, 360)
        ]
        assert rates[0] <= rates[1] <= rates[2]
        assert rates[2] > rates[0]

    def test_subjects_override(self):
        cfg = DesignConfig(kind="e2", n=6, subjects=200)
        model = DissonanceShiftModel(p=0.3, shift=2, threshold=6)
        small = power_estimate(replace(cfg, subjects=4), model, replications=20, seed=0)
        assert small < 1.0

    def test_deterministic(self):
        cfg = DesignConfig(kind="e2", n=8, subjects=40)
        model = NullModel(p=0.6)
        a = power_estimate(cfg, model, replications=50, seed=21)
        b = power_estimate(cfg, model, replications=50, seed=21)
        assert a == b

    def test_two_group_design_uses_comparison(self):
        cfg = DesignConfig(kind="e0", n=6, subjects=40, pair=(2, 4))
        rate = power_estimate(cfg, NullModel(p=0.6), replications=60, seed=2)
        assert 0.0 <= rate <= 0.35


class TestSpreadTally:
    def test_cells_and_order(self):
        # e0 over three blocks, so both arms and both choices have cells
        cfg = DesignConfig(kind="e0", n=5, subjects=2100, pair=(2, 3))
        records = list(iter_experiment(cfg, NullModel(p=0.5), 2))
        tally, unordered = _SpreadTally(5, ordered=True), _SpreadTally(5)
        for block in _experiment_blocks(cfg, NullModel(p=0.5), _as_seed_sequence(2)):
            tally.add(block)
            unordered.add(block)
        for arm in (None, "experimental", "control"):
            for consistent in (None, True, False):
                expected = Counter(r.spread for r in records if arm in (None, r.arm)
                                   and consistent in (None, r.consistent))
                assert tally.counts(arm, consistent) == expected
        assert np.concatenate(tally.ordered).tolist() == [r.spread for r in records]
        assert unordered.ordered is None


class TestPowerReport:
    def test_report_keys_and_values(self):
        # noiseless shift on an interior pair: every spread is exactly +2,
        # so the descriptives are pinned and the degenerate rule gives 0 power
        cfg = DesignConfig(kind="e1", n=6, subjects=30, object_pair=(3, 4))
        model = DissonanceShiftModel(p=0.0, shift=1, threshold=6)
        report = power_report(cfg, model, replications=10, seed=4)
        assert set(report) == {
            "design",
            "model",
            "n",
            "subjects",
            "replications",
            "alpha",
            "rejection_rate",
            "mean",
            "se",
        }
        assert report["design"] == "e1"
        assert report["model"] == "dissonance-shift"
        assert report["n"] == 6
        assert report["subjects"] == 30
        assert report["replications"] == 10
        assert report["alpha"] == 0.05
        assert report["rejection_rate"] == 0.0
        assert report["mean"] == pytest.approx(2.0)
        assert report["se"] == 0.0

    def test_e3_report_adds_bootstrap(self):
        cfg = DesignConfig(kind="e3", n=5, subjects=40)
        report = power_report(cfg, NullModel(p=0.5), replications=5, seed=6)
        assert "se_bootstrap" in report
        assert report["se_bootstrap"] == pytest.approx(report["se"], rel=0.5)

    def test_report_holds_the_checked_replication_count(self):
        # a numpy integer or a bool is written as the int it counts, so the
        # dict stays JSON-ready
        cfg = DesignConfig(kind="classic", n=5, subjects=10, pair=(2, 4))
        for replications, count in ((np.int64(3), 3), (True, 1)):
            report = power_report(cfg, NullModel(p=0.5), replications=replications, seed=2)
            assert type(report["replications"]) is int and report["replications"] == count
            assert json.loads(json.dumps(report))["replications"] == count

    def test_e0_report_compares_arms(self):
        # for the two-arm design the mean/se slots carry the arm difference
        cfg = DesignConfig(kind="e0", n=6, subjects=40, pair=(2, 4))
        report = power_report(cfg, NullModel(p=0.5), replications=5, seed=6)
        assert "se_bootstrap" not in report
        assert report["se"] > 0
        assert abs(report["mean"]) < 2.0
