"""Executable experiment protocols over pluggable subject models.

Five designs share one skeleton. A subject ranks the objects, chooses
between two of them, and ranks again; the designs differ in how the
compared pair is picked and, for the rank-rank-choose control arm, in the
stage order.

* ``classic``: a fixed position pair, every subject; records a consistency
  flag so the analysis can condition on consistent choosers.
* ``e0``: the classic arm plus a control arm whose second ranking happens
  before the choice, split evenly over the subjects.
* ``e1``: a fixed pair of objects; the compared positions are whatever the
  first ranking assigned to those objects.
* ``e2``: a position pair drawn uniformly at random per subject.
* ``e3``: each block of C(n, 2) subjects covers every position pair exactly
  once, in an order drawn from the experiment-level stream.

Subject models plug in through a small hook interface: the noise weight of
each stage (one triple from :func:`noise.stage_weights`), an optional
post-choice modification of the true ranking, and an optional post-hoc edit
of the final ranking.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import ClassVar, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    Choice,
    ObjectPair,
    PositionPair,
    Ranking,
    all_position_pairs,
    spread,
)
from .noise import Weight, _check_weight, sample_choice, sample_noisy_ranking, stage_weights

__all__ = [
    "DESIGN_KINDS",
    "DesignConfig",
    "DissonanceShiftModel",
    "MemoryModel",
    "NullModel",
    "SubjectModel",
    "TrialRecord",
    "TwoParamModel",
    "iter_experiment",
    "pair_count",
    "run_experiment",
    "run_subject",
]

DESIGN_KINDS = ("classic", "e0", "e1", "e2", "e3")

TRUTH_MODES = ("identity", "random")

Seed = Union[int, np.random.SeedSequence]

_CHUNK = 1024


def pair_count(n: int) -> int:
    """Number of unordered position pairs, C(n, 2)."""
    return n * (n - 1) // 2


@dataclass(frozen=True)
class DesignConfig:
    """Which design to run, at what size, over how many subjects.

    ``pair`` fixes the compared positions for classic/e0; ``object_pair``
    fixes the compared objects for e1; e2 and e3 take neither. An e3
    subject count must be a multiple of C(n, 2) so that every block covers
    each pair exactly once, and at least 2 so that the bootstrap standard
    error has a spread to resample. An e0 subject count must be even and at
    least 4 so the arms split equally with 2 subjects or more each.
    """

    kind: str
    n: int
    subjects: int
    pair: Optional[PositionPair] = None
    object_pair: Optional[ObjectPair] = None

    def __post_init__(self):
        if self.kind not in DESIGN_KINDS:
            raise ValueError(f"unknown design kind {self.kind!r}; expected one of {DESIGN_KINDS}")
        if self.n < 2:
            raise ValueError("a design needs at least 2 objects")
        if self.subjects < 1:
            raise ValueError("a design needs at least 1 subject")
        if self.pair is not None and not isinstance(self.pair, PositionPair):
            object.__setattr__(self, "pair", PositionPair(*self.pair))
        if self.object_pair is not None and not isinstance(self.object_pair, ObjectPair):
            object.__setattr__(self, "object_pair", ObjectPair(*self.object_pair))
        if self.kind in ("classic", "e0"):
            if self.pair is None:
                raise ValueError(f"design {self.kind!r} needs a fixed position pair")
            if self.pair.j > self.n:
                raise ValueError(f"pair {self.pair} does not fit into {self.n} positions")
            if self.object_pair is not None:
                raise ValueError(f"design {self.kind!r} takes a position pair, not an object pair")
        elif self.kind == "e1":
            if self.object_pair is None:
                raise ValueError("design 'e1' needs a fixed object pair")
            if self.pair is not None:
                raise ValueError("design 'e1' takes an object pair, not a position pair")
            for obj in (self.object_pair.first, self.object_pair.second):
                if not isinstance(obj, int) or not 1 <= obj <= self.n:
                    raise ValueError(f"e1 object {obj!r} is not an integer label in 1..{self.n}")
        else:
            if self.pair is not None or self.object_pair is not None:
                raise ValueError(f"design {self.kind!r} assigns pairs itself; none may be fixed")
        if self.kind == "e0" and (self.subjects % 2 or self.subjects < 4):
            raise ValueError("design 'e0' needs an even subject count of at least 4 (2 per arm)")
        if self.kind == "e3" and self.subjects % pair_count(self.n):
            raise ValueError(
                f"design 'e3' covers all {pair_count(self.n)} pairs exactly once per block; "
                f"the subject count must be a multiple of that"
            )
        if self.kind == "e3" and self.subjects < 2:
            raise ValueError("design 'e3' needs at least 2 subjects for its bootstrap standard error")


class _StageHooks:
    """Default subject behavior: every stage is fresh noise around the truth."""

    def stage_weights(self, arm: str) -> Tuple[Weight, Weight, Weight]:
        """Noise weights of the first ranking, the choice and the final ranking."""
        return stage_weights(self.p, self.p, arm)

    def adjusted_truth(self, truth: Ranking, choice: Choice, gap: int) -> Ranking:
        return truth

    def finalize_ranking(self, ranking: Ranking, choice: Choice) -> Ranking:
        return ranking


@dataclass(frozen=True)
class NullModel(_StageHooks):
    """No real preference change: all three stages are iid noise at weight p."""

    p: float
    truth: Optional[Ranking] = None
    kind: ClassVar[str] = "null"

    def __post_init__(self):
        _check_weight(self.p, "model noise weight")


@dataclass(frozen=True)
class TwoParamModel(_StageHooks):
    """Deliberation model: pre-choice stages are noisier than post-choice ones.

    The larger weight P goes to the rankings made before the choice and the
    smaller weight p to the rest, as :func:`noise.stage_weights` assigns them.
    """

    p: float
    P: float
    truth: Optional[Ranking] = None
    kind: ClassVar[str] = "two-param"

    def __post_init__(self):
        _check_weight(self.p, "model noise weight")
        if not self.p <= self.P < 1:
            raise ValueError(f"need p <= P < 1, got p={self.p}, P={self.P}")

    def stage_weights(self, arm: str) -> Tuple[Weight, Weight, Weight]:
        return stage_weights(self.p, self.P, arm)


@dataclass(frozen=True)
class MemoryModel(_StageHooks):
    """Consistency-restoring model: subjects remember the choice they made.

    The final ranking is sampled like the null model's, but if the compared
    objects come out in an order contradicting the remembered choice, their
    positions are swapped.
    """

    p: float
    truth: Optional[Ranking] = None
    kind: ClassVar[str] = "memory"

    def __post_init__(self):
        _check_weight(self.p, "model noise weight")

    def finalize_ranking(self, ranking: Ranking, choice: Choice) -> Ranking:
        pos_chosen = ranking.position_of(choice.chosen)
        pos_rejected = ranking.position_of(choice.rejected)
        if pos_chosen < pos_rejected:
            return ranking
        entries = list(ranking.entries)
        entries[pos_chosen - 1], entries[pos_rejected - 1] = (
            entries[pos_rejected - 1],
            entries[pos_chosen - 1],
        )
        return Ranking(entries, validate=False)


@dataclass(frozen=True)
class DissonanceShiftModel(_StageHooks):
    """Attitude-change model gated on how close the compared items were.

    After the choice, if the compared positions in the first ranking were
    at most ``threshold`` apart, the underlying true ranking shifts: the
    chosen object moves up ``shift`` positions and the rejected object
    moves down ``shift`` positions (both clamped to the board). The final
    ranking is then noise around the shifted truth.
    """

    p: float
    shift: int = 1
    threshold: int = 3
    truth: Optional[Ranking] = None
    kind: ClassVar[str] = "dissonance-shift"

    def __post_init__(self):
        _check_weight(self.p, "model noise weight")
        if not isinstance(self.shift, int) or self.shift < 0:
            raise ValueError(f"shift must be a nonnegative integer, got {self.shift!r}")
        if not isinstance(self.threshold, int) or self.threshold < 1:
            raise ValueError(f"threshold must be a positive integer, got {self.threshold!r}")

    def adjusted_truth(self, truth: Ranking, choice: Choice, gap: int) -> Ranking:
        if gap > self.threshold or self.shift == 0:
            return truth
        target_chosen = max(1, truth.position_of(choice.chosen) - self.shift)
        target_rejected = min(truth.n, truth.position_of(choice.rejected) + self.shift)
        entries = list(truth.entries)
        entries.remove(choice.chosen)
        entries.insert(target_chosen - 1, choice.chosen)
        entries.remove(choice.rejected)
        entries.insert(target_rejected - 1, choice.rejected)
        return Ranking(entries, validate=False)


SubjectModel = Union[NullModel, TwoParamModel, MemoryModel, DissonanceShiftModel]


@dataclass(frozen=True)
class TrialRecord:
    """One complete trial: both rankings, the choice, and derived numbers.

    ``i`` and ``j`` are the compared positions as realized in the first
    ranking (for e1 they come from the fixed objects' realized places).
    ``rank_final`` is the later of the two rankings; for an e0 control
    subject it precedes the choice chronologically. ``spread`` is always
    recomputable as ``spread(rank_first, choice, rank_final)``.
    """

    subject: int
    arm: str
    i: int
    j: int
    consistent: bool
    spread: int
    rank_first: Ranking
    choice: Choice
    rank_final: Ranking


def _resolve_truth(design: DesignConfig, model: SubjectModel, truth: Optional[Ranking]) -> Ranking:
    if truth is None:
        truth = model.truth
    if truth is None:
        return Ranking.identity(design.n)
    if truth.n != design.n:
        raise ValueError(f"true ranking has {truth.n} objects but the design has {design.n}")
    return truth


def run_subject(
    design: DesignConfig,
    model: SubjectModel,
    subject: int,
    rng: np.random.Generator,
    *,
    pair: Optional[PositionPair] = None,
    truth: Optional[Ranking] = None,
) -> TrialRecord:
    """Run one subject and return the complete trial.

    ``pair`` must carry the assigned position pair for e3 (the driver owns
    the assignment); other designs reject it. ``truth`` overrides the
    model's true ranking for this subject.
    """
    if not 0 <= subject < design.subjects:
        raise ValueError(f"subject index {subject} outside 0..{design.subjects - 1}")
    if pair is not None and design.kind != "e3":
        raise ValueError(f"design {design.kind!r} does not take a per-subject pair")
    truth = _resolve_truth(design, model, truth)
    n = design.n

    arm = "none"
    if design.kind == "e0":
        arm = "experimental" if subject < design.subjects // 2 else "control"

    if design.kind == "e2":
        pairs = all_position_pairs(n)
        position_pair = pairs[int(rng.integers(0, len(pairs)))]
    elif design.kind == "e3":
        if pair is None:
            raise ValueError("design 'e3' needs the driver-assigned pair; use run_experiment")
        position_pair = pair
    else:
        position_pair = design.pair

    w_first, w_choice, w_final = model.stage_weights(arm)
    rank_first = sample_noisy_ranking(truth, w_first, rng)

    if design.kind == "e1":
        tracked = design.object_pair
        a = rank_first.position_of(tracked.first)
        b = rank_first.position_of(tracked.second)
        i, j = min(a, b), max(a, b)
    else:
        i, j = position_pair.i, position_pair.j
        tracked = ObjectPair(rank_first.object_at(i), rank_first.object_at(j))

    if arm == "control":
        rank_final = sample_noisy_ranking(truth, w_final, rng)
        choice = sample_choice(truth, tracked, w_choice, rng)
    else:
        choice = sample_choice(truth, tracked, w_choice, rng)
        adjusted = model.adjusted_truth(truth, choice, j - i)
        rank_final = sample_noisy_ranking(adjusted, w_final, rng)
        rank_final = model.finalize_ranking(rank_final, choice)

    consistent = rank_first.position_of(choice.chosen) < rank_first.position_of(choice.rejected)
    value = spread(rank_first, choice, rank_final)
    return TrialRecord(
        subject=subject,
        arm=arm,
        i=i,
        j=j,
        consistent=consistent,
        spread=value,
        rank_first=rank_first,
        choice=choice,
        rank_final=rank_final,
    )


# The random-stream layout: the spawn key of each stream under its root seed.
# Changing an entry changes the output bytes of every seeded command.
_STREAM_KEYS = {"e3-assignment": 0, "subject": 1, "replication": 2, "report": 3, "bootstrap": 4}


def _as_seed_sequence(seed: Seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _stream_seed(root: np.random.SeedSequence, stream: str, *index: int) -> np.random.SeedSequence:
    """Seed of one named stream under ``root``, e.g. ``("subject", 7)``."""
    key = root.spawn_key + (_STREAM_KEYS[stream],) + index
    return np.random.SeedSequence(entropy=root.entropy, spawn_key=key)


def _stream_rng(root: np.random.SeedSequence, stream: str, *index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_stream_seed(root, stream, *index)))


def _e3_assignment(design: DesignConfig, root: np.random.SeedSequence) -> List[PositionPair]:
    """Pair per subject: a fresh random cover of all pairs for every block."""
    pairs = all_position_pairs(design.n)
    rng = _stream_rng(root, "e3-assignment")
    assignment: List[PositionPair] = []
    for _ in range(design.subjects // len(pairs)):
        for index in rng.permutation(len(pairs)):
            assignment.append(pairs[int(index)])
    return assignment


def _run_block(
    design: DesignConfig,
    model: SubjectModel,
    root: np.random.SeedSequence,
    subjects: Sequence[int],
    assignment: Optional[List[PositionPair]],
    random_truth: bool,
) -> List[TrialRecord]:
    records = []
    for subject in subjects:
        rng = _stream_rng(root, "subject", subject)
        truth = None
        if random_truth:
            order = rng.permutation(design.n) + 1
            truth = Ranking(tuple(int(obj) for obj in order), validate=False)
        pair = assignment[subject] if assignment is not None else None
        records.append(run_subject(design, model, subject, rng, pair=pair, truth=truth))
    return records


def iter_experiment(
    design: DesignConfig,
    model: SubjectModel,
    master_seed: Seed = 0,
    *,
    truth_mode: str = "identity",
    threads: int = 1,
) -> Iterator[TrialRecord]:
    """Yield one TrialRecord per subject, in subject order.

    Deterministic given the master seed: each subject consumes an own
    random stream derived from (seed, subject index), so the result does
    not depend on ``threads``. ``truth_mode="random"`` draws a fresh true
    ranking per subject from the subject's stream (the model must not pin
    one). Records are produced lazily in blocks, so million-subject runs
    can be consumed without holding them all; the arguments are checked
    at call time, before the first record is asked for.
    """
    if truth_mode not in TRUTH_MODES:
        raise ValueError(f"unknown truth mode {truth_mode!r}; expected one of {TRUTH_MODES}")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    random_truth = truth_mode == "random"
    if random_truth and model.truth is not None:
        raise ValueError("truth_mode='random' conflicts with a model that pins its true ranking")
    return _iter_blocks(design, model, _as_seed_sequence(master_seed), random_truth, threads)


def _iter_blocks(
    design: DesignConfig,
    model: SubjectModel,
    root: np.random.SeedSequence,
    random_truth: bool,
    threads: int,
) -> Iterator[TrialRecord]:
    assignment = _e3_assignment(design, root) if design.kind == "e3" else None
    blocks = [
        range(start, min(start + _CHUNK, design.subjects))
        for start in range(0, design.subjects, _CHUNK)
    ]
    if threads == 1:
        for block in blocks:
            yield from _run_block(design, model, root, block, assignment, random_truth)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        queued = iter(blocks)
        for block in queued:
            pending.append(
                pool.submit(_run_block, design, model, root, block, assignment, random_truth)
            )
            if len(pending) >= 2 * threads:
                break
        for block in queued:
            yield from pending.popleft().result()
            pending.append(
                pool.submit(_run_block, design, model, root, block, assignment, random_truth)
            )
        while pending:
            yield from pending.popleft().result()


def run_experiment(
    design: DesignConfig,
    model: SubjectModel,
    master_seed: Seed = 0,
    *,
    truth_mode: str = "identity",
    threads: int = 1,
) -> List[TrialRecord]:
    """Run every subject and return the records as a list."""
    return list(
        iter_experiment(design, model, master_seed, truth_mode=truth_mode, threads=threads)
    )
