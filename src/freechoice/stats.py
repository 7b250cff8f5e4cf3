"""Summary statistics, group comparisons, and power estimation.

Spreads from a simulated experiment are reduced with the usual mean and
standard-error formulas; a rank-rank-choose control design is analyzed as
a two-sample difference. The power estimator reruns an experiment many
times and reports how often a one-sided z test at level alpha rejects the
no-effect null.

For the all-pairs-once design the usual standard-error formula is not
obviously valid (subjects are not identically distributed across pairs),
so reports include a bootstrap standard error next to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from .core import _checked_int
from .designs import (
    DesignConfig,
    Seed,
    SubjectModel,
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

_BOOTSTRAP_CELLS = 4_000_000


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


def summarize(spreads: Iterable[float]) -> SpreadSummary:
    """Reduce a sequence of spreads to count/mean/sd/se.

    Sums use compensated summation, so the result is independent of the
    order of the inputs.
    """
    values = [float(value) for value in spreads]
    if not values:
        raise ValueError("cannot summarize an empty sequence of spreads")
    count = len(values)
    mean = math.fsum(values) / count
    if count == 1:
        return SpreadSummary(count=count, mean=mean, sd=None, se=None)
    variance = math.fsum((value - mean) ** 2 for value in values) / (count - 1)
    sd = math.sqrt(variance)
    return SpreadSummary(count=count, mean=mean, sd=sd, se=sd / math.sqrt(count))


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
    values = np.asarray([float(value) for value in spreads])
    if values.size < 2:
        raise ValueError("a bootstrap needs at least 2 observations")
    resamples = _checked_int(resamples, "resamples", 2)
    rng = _stream_rng(_as_seed_sequence(seed), "bootstrap")
    means = np.empty(resamples)
    chunk = max(1, _BOOTSTRAP_CELLS // values.size)
    done = 0
    while done < resamples:
        take = min(chunk, resamples - done)
        indices = rng.integers(0, values.size, size=(take, values.size))
        means[done : done + take] = values[indices].mean(axis=1)
        done += take
    return float(np.std(means, ddof=1))


def _replication_spreads(
    design: DesignConfig,
    model: SubjectModel,
    seed: np.random.SeedSequence,
) -> Union[List[int], Tuple[List[int], List[int]]]:
    if design.kind == "e0":
        experimental: List[int] = []
        control: List[int] = []
        for record in iter_experiment(design, model, seed):
            (experimental if record.arm == "experimental" else control).append(record.spread)
        return experimental, control
    return [record.spread for record in iter_experiment(design, model, seed)]


def _estimate(kind: str, spreads) -> Tuple[float, Optional[float]]:
    # Mean spread (for e0 the experimental minus control difference) and its
    # standard error; the se is None or 0 when the run has no scale.
    if kind != "e0":
        summary = summarize(spreads)
        return summary.mean, summary.se
    experimental, control = summarize(spreads[0]), summarize(spreads[1])
    try:
        comparison = compare(experimental, control)
    except DegenerateComparisonError:
        return experimental.mean - control.mean, None
    return comparison.difference, comparison.se


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
        mean, se = _estimate(design.kind, _replication_spreads(design, model, seq))
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
    rate = power_estimate(
        design,
        model,
        replications=replications,
        alpha=alpha,
        seed=seed,
    )
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
    spreads = _replication_spreads(design, model, report_seed)
    report["mean"], report["se"] = _estimate(design.kind, spreads)
    if design.kind == "e3":
        report["se_bootstrap"] = bootstrap_se(spreads, seed=report_seed)
    return report
