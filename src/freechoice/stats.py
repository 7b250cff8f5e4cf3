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
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from .core import _checked_int
from .designs import (
    DesignConfig,
    Seed,
    SubjectModel,
    _as_seed_sequence,
    _check_swap_budget,
    _Columns,
    _experiment_blocks,
    _stream_rng,
    _stream_seed,
)
from .noise import _ARMS, CapacityError

# bench/tracer.py wraps this name of the module
from .designs import iter_experiment  # noqa: F401

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

# Most spreads one bootstrap draws, resamples x spreads: about 20 minutes at
# 11 s per 10**9 draws. _RESAMPLES is the resample count of a report.
_BOOTSTRAP_BUDGET = 10**11
_RESAMPLES = 1000


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
    spreads: Iterable[float], *, resamples: int = _RESAMPLES, seed: Seed = 0
) -> float:
    """Bootstrap standard error of the mean, resampling subjects.

    Each resample redraws the realized per-subject spreads with
    replacement; the reported value is the standard deviation of the
    resample means. Deterministic given the seed. More than 10**11 draws
    (resamples x spreads) raise :class:`CapacityError` before the first.
    """
    # an array is cast at once; iterating it element by element is ~50x slower
    if isinstance(spreads, np.ndarray) and spreads.ndim == 1:
        values = np.asarray(spreads, dtype=float)
    else:
        values = np.fromiter(spreads, dtype=float)
    if values.size < 2:
        raise ValueError("a bootstrap needs at least 2 observations")
    resamples = _checked_int(resamples, "resamples", 2)
    _check_bootstrap_budget(values.size, resamples)
    rng = _stream_rng(_as_seed_sequence(seed), "bootstrap")
    means = np.empty(resamples)
    chunk = max(1, _BOOTSTRAP_CELLS // values.size)
    for done in range(0, resamples, chunk):
        indices = rng.integers(0, values.size, size=(min(chunk, resamples - done), values.size))
        means[done : done + chunk] = values[indices].mean(axis=1)
    return float(np.std(means, ddof=1))


def _check_bootstrap_budget(spreads: int, resamples: int) -> None:
    draws = spreads * resamples
    if draws > _BOOTSTRAP_BUDGET:
        raise CapacityError(
            f"a bootstrap of {resamples} resamples of {spreads} spreads draws about "
            f"{draws:.3g} spreads; at most {_BOOTSTRAP_BUDGET:.0e} are supported"
        )


class _SpreadTally:
    """Spread value counts of one experiment, per (arm, consistent) cell.

    Blocks of records are counted as they arrive, with one ``np.bincount``
    each, so the memory does not grow with the number of subjects. The
    tally of a ``described`` run, the one whose summary or report is
    written, also keeps an e3 run's spreads in subject order for the
    bootstrap of :meth:`se_bootstrap`: one array per block, in the smallest
    signed integer type that holds them. That bootstrap's budget is checked
    when the tally is made, before any record is drawn.
    """

    def __init__(self, design: DesignConfig, described: bool = False):
        # spreads lie in -2(n - 1)..2(n - 1)
        self.offset = 2 * (design.n - 1)
        self.table = np.zeros((len(_ARMS), 2, 2 * self.offset + 1), dtype=np.int64)
        self.ordered = [] if described and design.kind == "e3" else None
        if self.ordered is not None:
            _check_bootstrap_budget(design.subjects, _RESAMPLES)

    def add(self, block: _Columns, rows=slice(None)) -> None:
        """Count the records of ``block`` (those at ``rows``)."""
        cells = ((block.arm[rows] * 2 + block.consistent[rows]) * self.table.shape[2]
                 + block.spread[rows] + self.offset)
        self.table += np.bincount(cells, minlength=self.table.size).reshape(self.table.shape)
        if self.ordered is not None:
            self.ordered.append(block.spread[rows].astype(np.min_scalar_type(-self.offset - 1)))

    def counts(self, arm: Optional[str] = None,
               consistent: Optional[bool] = None) -> Dict[int, int]:
        """Spread value counts over the cells that match the given arm and choice."""
        table = self.table[slice(None) if arm is None else _ARMS.index(arm)]
        table = table[..., slice(None) if consistent is None else int(consistent), :]
        table = table.reshape(-1, table.shape[-1]).sum(axis=0)
        values = np.flatnonzero(table)
        return dict(zip((values - self.offset).tolist(), table[values].tolist()))

    def arms(self) -> Tuple[SpreadSummary, SpreadSummary, Optional[GroupComparison]]:
        """The e0 arms' summaries and their comparison, None when it has no scale."""
        experimental = summarize(self.counts(arm="experimental"))
        control = summarize(self.counts(arm="control"))
        try:
            return experimental, control, compare(experimental, control)
        except DegenerateComparisonError:
            return experimental, control, None

    def se_bootstrap(self, seed: Seed) -> Dict[str, float]:
        """``{"se_bootstrap": se}`` over the kept spreads, or ``{}`` if none are kept."""
        return {} if self.ordered is None else {
            "se_bootstrap": bootstrap_se(np.concatenate(self.ordered), seed=seed)}


def _tallies(blocks: Iterable[_Columns], design: DesignConfig) -> Iterator[_SpreadTally]:
    # one tally per experiment of a run, each once its last subject has passed;
    # blocks come in experiment order, so each is cut where its experiment changes
    tally = _SpreadTally(design)
    for block in blocks:
        ends = [*(np.flatnonzero(np.diff(block.experiment)) + 1).tolist(), len(block.experiment)]
        for start, stop in zip([0, *ends], ends):
            tally.add(block, slice(start, stop))
            if block.subject[stop - 1] == design.subjects - 1:
                yield tally
                tally = _SpreadTally(design)


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
    blocks = _experiment_blocks(design, model, _as_seed_sequence(seed), replications=replications)
    rejections = 0
    for tally in _tallies(blocks, design):
        mean, se = _estimate(design.kind, tally)
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
    replications = _checked_int(replications, "replications", 1)
    # the replications and the described experiment, before the first draw
    _check_swap_budget(design, model, replications + 1)
    tally = _SpreadTally(design, described=True)
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
    for block in _experiment_blocks(design, model, report_seed):
        tally.add(block)
    report["mean"], report["se"] = _estimate(design.kind, tally)
    report.update(tally.se_bootstrap(report_seed))
    return report
