"""Summary statistics, group comparisons, and power estimation.

Spreads are integers in a narrow range, so an experiment is reduced to
counts of each spread value per (arm, consistent) cell as its records
arrive, and :func:`summarize` reads such counts (or a plain sequence,
which it counts first) with exact sums rounded once. A rank-rank-choose
control design is analyzed as a two-sample difference. The power estimator
reruns an experiment many times and reports how often a one-sided z test
at level alpha rejects the no-effect null.

For the all-pairs-once design the usual standard-error formula is not
obviously valid (subjects are not identically distributed across pairs),
so reports include a bootstrap standard error next to it; that bootstrap
is the only reduction that keeps the spreads themselves, in subject order.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter
from statistics import NormalDist
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from .core import _checked_int
from .designs import (
    DesignConfig,
    Seed,
    SubjectModel,
    TrialRecord,
    _as_seed_sequence,
    _stream_rng,
    _stream_seed,
    iter_experiment,
)

__all__ = [
    "DegenerateComparisonError",
    "GroupComparison",
    "SpreadSummary",
    "bootstrap_se",
    "compare",
    "power_estimate",
    "power_report",
    "summarize",
]

# Indices per rng.integers block: 512 KiB of int64. numpy's bounded draws
# below 2**32 carry their spare 32-bit half in the bit generator, so the
# draws, and the resample means, do not depend on the block size.
_BOOTSTRAP_CELLS = 2**16


class DegenerateComparisonError(ValueError):
    """Raised when a two-group comparison has no scale: combined se is zero."""


@dataclass(frozen=True)
class SpreadSummary:
    """Count, mean, sample standard deviation, and standard error.

    ``sd`` and ``se`` are None for a single observation; the sd uses the
    n - 1 denominator.
    """

    count: int
    mean: float
    sd: Optional[float]
    se: Optional[float]


@dataclass(frozen=True)
class GroupComparison:
    """Two-sample mean difference with its combined standard error.

    ``se`` combines the groups as sqrt(se_a^2 + se_b^2), so with equal
    sizes and spreads it degrades a single group's se by a factor sqrt(2).
    """

    difference: float
    se: float
    z: float


def summarize(spreads: Union[Iterable[float], Mapping[float, int]]) -> SpreadSummary:
    """Reduce spreads to count/mean/sd/se.

    ``spreads`` is a sequence of values, or a mapping from each value to
    how many times it occurs. The sums are exact and rounded once, as with
    ``math.fsum`` over the values one by one, so the result does not depend
    on the order of the inputs.
    """
    if not isinstance(spreads, Mapping):
        spreads = Counter(map(float, spreads))
    counts = [(float(value), count) for value, count in spreads.items()
              if _checked_int(count, "count", 0)]
    if not counts:
        raise ValueError("cannot summarize an empty sequence of spreads")
    if not all(math.isfinite(value) for value, _ in counts):
        raise ValueError("cannot summarize a non-finite spread")
    count = sum(count for _, count in counts)
    mean = _fsum_counts(counts) / count
    if count == 1:
        return SpreadSummary(count=count, mean=mean, sd=None, se=None)
    sd = math.sqrt(_fsum_counts([((value - mean) ** 2, k) for value, k in counts]) / (count - 1))
    return SpreadSummary(count=count, mean=mean, sd=sd, se=sd / math.sqrt(count))


def _fsum_counts(counts: Iterable[Tuple[float, int]]) -> float:
    # math.fsum of each value repeated count times: the count is split into
    # powers of two, and a float times a power of two is exact
    return math.fsum(value * (1 << bit) for value, count in counts
                     for bit in range(count.bit_length()) if count >> bit & 1)


def compare(a: SpreadSummary, b: SpreadSummary) -> GroupComparison:
    """Difference of means a - b with the combined (Welch) standard error."""
    for label, summary in (("first", a), ("second", b)):
        if summary.se is None:
            raise ValueError(f"the {label} group needs at least 2 observations")
    difference = a.mean - b.mean
    se = math.hypot(a.se, b.se)
    if se == 0:
        raise DegenerateComparisonError("both groups have zero variance")
    return GroupComparison(difference=difference, se=se, z=difference / se)


def bootstrap_se(
    spreads: Iterable[float], *, resamples: int = 1000, seed: Seed = 0
) -> float:
    """Bootstrap standard error of the mean, resampling subjects.

    Each resample redraws the realized per-subject spreads with
    replacement; the reported value is the standard deviation of the
    resample means. Deterministic given the seed.
    """
    values = np.fromiter(spreads, dtype=float)
    if values.size < 2:
        raise ValueError("a bootstrap needs at least 2 observations")
    resamples = _checked_int(resamples, "resamples", 2)
    rng = _stream_rng(_as_seed_sequence(seed), "bootstrap")
    means = np.empty(resamples)
    chunk = max(1, _BOOTSTRAP_CELLS // values.size)
    for done in range(0, resamples, chunk):
        indices = rng.integers(0, values.size, size=(min(chunk, resamples - done), values.size))
        means[done : done + chunk] = values[indices].mean(axis=1)
    return float(np.std(means, ddof=1))


# (arm, consistent, spread) of a TrialRecord
_CELL = itemgetter(1, 4, 5)


def _kept_spreads(records: Iterable[TrialRecord], spreads: array) -> Iterator[TrialRecord]:
    # the records, unchanged, appending each spread to ``spreads`` on the way
    for record in records:
        spreads.append(record.spread)
        yield record


class _SpreadTally:
    """Spread value counts of one experiment, per (arm, consistent) cell.

    Records are counted as they arrive, so the memory does not grow with
    the number of subjects. With ``ordered`` the spreads are also kept in
    subject order, in one integer array for the e3 bootstrap.
    """

    def __init__(self, records: Iterable[TrialRecord], ordered: bool = False):
        self.ordered = array("q") if ordered else None
        if self.ordered is not None:
            records = _kept_spreads(records, self.ordered)
        self.cells = Counter(map(_CELL, records))

    def counts(self, arm: Optional[str] = None, consistent: Optional[bool] = None) -> Counter:
        """Spread value counts over the cells that match the given arm and choice."""
        counts: Counter = Counter()
        for (cell_arm, cell_consistent, value), count in self.cells.items():
            if arm in (None, cell_arm) and consistent in (None, cell_consistent):
                counts[value] += count
        return counts

    def arms(self) -> Tuple[SpreadSummary, SpreadSummary, Optional[GroupComparison]]:
        """The e0 arms' summaries and their comparison, None when it has no scale."""
        experimental = summarize(self.counts(arm="experimental"))
        control = summarize(self.counts(arm="control"))
        try:
            return experimental, control, compare(experimental, control)
        except DegenerateComparisonError:
            return experimental, control, None


def _estimate(kind: str, tally: _SpreadTally) -> Tuple[float, Optional[float]]:
    # Mean spread (for e0 the experimental minus control difference) and its
    # standard error; the se is None or 0 when the run has no scale.
    if kind != "e0":
        summary = summarize(tally.counts())
        return summary.mean, summary.se
    experimental, control, comparison = tally.arms()
    return experimental.mean - control.mean, comparison.se if comparison else None


def power_estimate(
    design: DesignConfig,
    model: SubjectModel,
    *,
    replications: int,
    alpha: float = 0.05,
    seed: Seed = 0,
) -> float:
    """Fraction of replications in which the design detects an effect.

    Each replication simulates the full experiment on its own seed stream
    and applies a one-sided z test against zero (two-sample for the
    control design) at level alpha. A degenerate replication, with no
    variance to scale by, counts as a non-rejection. The design needs at
    least 2 subjects: with one, no replication has a variance, so none
    could reject.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    replications = _checked_int(replications, "replications", 1)
    if design.subjects < 2:
        raise ValueError("a power estimate needs at least 2 subjects per replication")
    critical = NormalDist().inv_cdf(1 - alpha)
    root = _as_seed_sequence(seed)
    rejections = 0
    for replication in range(replications):
        seq = _stream_seed(root, "replication", replication)
        mean, se = _estimate(design.kind, _SpreadTally(iter_experiment(design, model, seq)))
        if se and mean / se > critical:
            rejections += 1
    return rejections / replications


def power_report(
    design: DesignConfig,
    model: SubjectModel,
    *,
    replications: int,
    alpha: float = 0.05,
    seed: Seed = 0,
) -> Dict[str, object]:
    """Power estimate plus descriptive statistics, as a JSON-ready dict.

    The mean and standard error describe one extra experiment run on a
    dedicated stream (for the control design they describe the two-sample
    difference); the all-pairs-once design also reports a bootstrap
    standard error over the same run.
    """
    rate = power_estimate(design, model, replications=replications, alpha=alpha, seed=seed)
    report_seed = _stream_seed(_as_seed_sequence(seed), "report")
    report: Dict[str, object] = {
        "design": design.kind,
        "model": model.kind,
        "n": design.n,
        "subjects": design.subjects,
        "replications": replications,
        "alpha": alpha,
        "rejection_rate": rate,
    }
    records = iter_experiment(design, model, report_seed)
    tally = _SpreadTally(records, ordered=design.kind == "e3")
    report["mean"], report["se"] = _estimate(design.kind, tally)
    if tally.ordered is not None:
        report["se_bootstrap"] = bootstrap_se(tally.ordered, seed=report_seed)
    return report
