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

An experiment runs its subjects one after another in one loop; each
subject draws from its own stream, and each e3 cover is drawn when the
loop reaches it.

Subject models plug in through a small hook interface: the noise weight of
each stage (one triple from :func:`noise.stage_weights`), an optional
post-choice modification of the true ranking, and an optional post-hoc edit
of the final ranking. A subject runs on plain entry lists, so the hooks act
on entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import ClassVar, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import (
    ObjectPair,
    PositionPair,
    Ranking,
    _checked_int,
    _checked_pair,
    all_position_pairs,
)
from .noise import Weight, _check_weight, _Draws, _PCG64Draws, _swapped, stage_weights

# A subject no longer calls these; bench/tracer.py wraps them as names of
# this module, so they stay importable from here.
from .core import spread  # noqa: F401
from .noise import sample_choice, sample_noisy_ranking  # noqa: F401

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

# Subject indices enter their stream's spawn key as one 32-bit word.
_MAX_SUBJECTS = 2**32


def pair_count(n: int) -> int:
    """Number of unordered position pairs, C(n, 2)."""
    return n * (n - 1) // 2


def _pair_at(n: int, k: int) -> Tuple[int, int]:
    # Positions (i, j) of pair k in the lexicographic order of
    # all_position_pairs(n), without listing the C(n, 2) pairs. Counted from
    # the end, the rows i..n - 1 hold (n - i)(n - i + 1)/2 pairs.
    i = n - 1 - (isqrt(8 * (pair_count(n) - 1 - k) + 1) - 1) // 2
    return i, k - (i - 1) * (2 * n - i) // 2 + i + 1


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
        object.__setattr__(self, "n", _checked_int(self.n, "n", 2))
        object.__setattr__(self, "subjects", _checked_int(self.subjects, "subjects", 1))
        if self.subjects > _MAX_SUBJECTS:
            raise ValueError(
                f"subjects must be at most 2**32, since each subject's stream key is one "
                f"32-bit word; got {self.subjects}"
            )
        if self.pair is not None:
            object.__setattr__(self, "pair", PositionPair(*_checked_pair(self.n, self.pair)))
        if self.object_pair is not None:
            pair = _checked_pair(self.n, self.object_pair, "object")
            object.__setattr__(self, "object_pair", ObjectPair(*pair))
        if self.kind in ("classic", "e0"):
            if self.pair is None:
                raise ValueError(f"design {self.kind!r} needs a fixed position pair")
            if self.object_pair is not None:
                raise ValueError(f"design {self.kind!r} takes a position pair, not an object pair")
        elif self.kind == "e1":
            if self.object_pair is None:
                raise ValueError("design 'e1' needs a fixed object pair")
            if self.pair is not None:
                raise ValueError("design 'e1' takes an object pair, not a position pair")
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

    def __post_init__(self):
        _check_weight(self.p, "model noise weight")

    def stage_weights(self, arm: str) -> Tuple[Weight, Weight, Weight]:
        """Noise weights of the first ranking, the choice and the final ranking."""
        return stage_weights(self.p, self.p, arm)

    def _adjust(self, truth: Sequence, chosen, rejected, gap: int) -> Sequence:
        # the true ranking after choosing ``chosen`` over ``rejected``, the
        # two positions ``gap`` apart in the first ranking
        return truth

    def _finalize(self, ranking: Sequence, chosen, rejected) -> Sequence:
        # the final ranking as the subject reports it after the choice
        return ranking


@dataclass(frozen=True)
class NullModel(_StageHooks):
    """No real preference change: all three stages are iid noise at weight p."""

    p: float
    kind: ClassVar[str] = "null"


@dataclass(frozen=True)
class TwoParamModel(_StageHooks):
    """Deliberation model: pre-choice stages are noisier than post-choice ones.

    The larger weight P goes to the rankings made before the choice and the
    smaller weight p to the rest, as :func:`noise.stage_weights` assigns them.
    """

    p: float
    P: float
    kind: ClassVar[str] = "two-param"

    def __post_init__(self):
        super().__post_init__()
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
    kind: ClassVar[str] = "memory"

    def _finalize(self, ranking: Sequence, chosen, rejected) -> Sequence:
        pos_chosen, pos_rejected = ranking.index(chosen), ranking.index(rejected)
        if pos_chosen < pos_rejected:
            return ranking
        entries = list(ranking)
        entries[pos_chosen], entries[pos_rejected] = rejected, chosen
        return entries


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
    kind: ClassVar[str] = "dissonance-shift"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "shift", _checked_int(self.shift, "shift", 0))
        object.__setattr__(self, "threshold", _checked_int(self.threshold, "threshold", 1))

    def _adjust(self, truth: Sequence, chosen, rejected, gap: int) -> Sequence:
        if gap > self.threshold or self.shift == 0:
            return truth
        # 0-based target places, clamped to the board
        target_chosen = max(0, truth.index(chosen) - self.shift)
        target_rejected = min(len(truth) - 1, truth.index(rejected) + self.shift)
        entries = list(truth)
        entries.remove(chosen)
        entries.insert(target_chosen, chosen)
        entries.remove(rejected)
        entries.insert(target_rejected, rejected)
        return entries


SubjectModel = Union[NullModel, TwoParamModel, MemoryModel, DissonanceShiftModel]


class TrialRecord(NamedTuple):
    """One trial as the six numbers ``simulate`` writes, in that order.

    ``i`` and ``j`` are the compared positions as realized in the first
    ranking (for e1 they come from the fixed objects' realized places).
    ``consistent`` says whether the choice agrees with the first ranking,
    and ``spread`` is :func:`core.spread` of the first ranking, the choice
    and the later ranking; for an e0 control subject that later ranking
    precedes the choice chronologically. The rankings and the choice
    themselves are not kept.
    """

    subject: int
    arm: str
    i: int
    j: int
    consistent: bool
    spread: int


def run_subject(
    design: DesignConfig,
    model: SubjectModel,
    subject: int,
    rng: Union[np.random.Generator, _Draws],
    *,
    pair: Optional[PositionPair] = None,
    truth: Optional[Ranking] = None,
) -> TrialRecord:
    """Run one subject and return its trial record.

    ``rng`` is a numpy Generator, drawn through its ``geometric`` and
    ``integers`` methods. ``pair`` must carry the assigned position pair
    for e3 (the driver owns the assignment), checked like ``DesignConfig``'s
    pair; other designs reject it.
    ``truth`` is this subject's true ranking, the identity when omitted.
    """
    if not 0 <= subject < design.subjects:
        raise ValueError(f"subject index {subject} outside 0..{design.subjects - 1}")
    if pair is not None and design.kind != "e3":
        raise ValueError(f"design {design.kind!r} does not take a per-subject pair")
    n = design.n
    if truth is None:
        truth = Ranking.identity(n)
    elif truth.n != n:
        raise ValueError(f"true ranking has {truth.n} objects but the design has {n}")
    draws = rng if isinstance(rng, _Draws) else _Draws(rng)
    truth_entries = truth.entries

    arm = "none"
    if design.kind == "e0":
        arm = "experimental" if subject < design.subjects // 2 else "control"

    if design.kind == "e2":
        i, j = _pair_at(n, draws.below(pair_count(n), 1)[0])
    elif design.kind == "e3":
        if pair is None:
            raise ValueError("design 'e3' needs the driver-assigned pair; use run_experiment")
        # a PositionPair, as the loop passes, has passed the rule but for n
        if type(pair) is not PositionPair or pair.j > n:
            pair = PositionPair(*_checked_pair(n, pair))
        i, j = pair.i, pair.j
    elif design.kind != "e1":
        i, j = design.pair.i, design.pair.j

    # Each stage is a sequence of entries; x and y are the tracked objects.
    w_first, w_choice, w_final = model.stage_weights(arm)
    first = _swapped(truth_entries, w_first, draws)
    if design.kind == "e1":
        x, y = design.object_pair.first, design.object_pair.second
        a, b = first.index(x) + 1, first.index(y) + 1
        i, j = min(a, b), max(a, b)
    else:
        x, y = first[i - 1], first[j - 1]

    # the control arm ranks a second time before it chooses
    if arm == "control":
        final = _swapped(truth_entries, w_final, draws)
    noisy = _swapped(truth_entries, w_choice, draws)
    chosen, rejected = (x, y) if noisy.index(x) < noisy.index(y) else (y, x)
    if arm != "control":
        adjusted = model._adjust(truth_entries, chosen, rejected, j - i)
        final = _swapped(adjusted, w_final, draws)
        final = model._finalize(final, chosen, rejected)

    # core.spread on the entry lists: the chosen object's climb plus the
    # rejected object's fall from the first ranking to the final one
    first_chosen, first_rejected = first.index(chosen), first.index(rejected)
    moved = first_chosen - final.index(chosen) + final.index(rejected) - first_rejected
    return TrialRecord(subject, arm, i, j, first_chosen < first_rejected, moved)


# The random-stream layout: the spawn key of each stream under its root seed.
# Changing an entry changes the output bytes of every seeded command.
_STREAM_KEYS = {"e3-assignment": 0, "subject": 1, "replication": 2, "report": 3, "bootstrap": 4}


def _as_seed_sequence(seed: Seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(_checked_int(seed, "seed", 0))


def _stream_seed(root: np.random.SeedSequence, stream: str, *index: int) -> np.random.SeedSequence:
    """Seed of one named stream under ``root``, e.g. ``("subject", 7)``."""
    key = root.spawn_key + (_STREAM_KEYS[stream],) + index
    return np.random.SeedSequence(entropy=root.entropy, spawn_key=key)


def _stream_rng(root: np.random.SeedSequence, stream: str, *index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_stream_seed(root, stream, *index)))


# numpy's SeedSequence hash constants; numpy keeps them fixed so that seeded
# streams stay reproducible across its versions.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _word_count(value) -> int:
    # uint32 words SeedSequence makes of an int, a decimal or 0x-hex string,
    # or a sequence of these
    if isinstance(value, str):
        value = int(value, 16) if value.startswith("0x") else int(value)
    if isinstance(value, (int, np.integer)):
        return max(1, (int(value).bit_length() + 31) // 32)
    return sum(map(_word_count, value))


def _hash(words: np.ndarray, hash_const: int, mult: int) -> Tuple[np.ndarray, int]:
    # One step of SeedSequence's hash on uint32 values held in uint64 arrays:
    # xor the constant, advance it, multiply by it and fold the high half.
    advanced = hash_const * mult & _MASK32
    words = (words ^ hash_const) * advanced & _MASK32
    return words ^ words >> 16, advanced


def _subject_states(root: np.random.SeedSequence, subjects: Sequence[int]) -> np.ndarray:
    """PCG64 seeds of the subject streams, one row of 4 uint64 per subject.

    Row k equals ``_stream_seed(root, "subject", subjects[k]).generate_state(4,
    np.uint64)``, computed for all subjects in one array pass. SeedSequence
    mixes its entropy words in order, so numpy mixes the shared prefix (the
    root's entropy and spawn key plus the subject stream key) once. Its hash
    constant has then advanced pool_size times per prefix word; each
    subject index, one word below 2**32, is mixed into every pool word, and
    the state is hashed from the pool.
    """
    prefix = _stream_seed(root, "subject")
    pool_size = prefix.pool_size
    # a non-empty spawn key pads the entropy to at least pool_size words
    prefix_words = max(_word_count(prefix.entropy), pool_size) + _word_count(prefix.spawn_key)
    hash_const = _INIT_A * pow(_MULT_A, pool_size * prefix_words, 2**32) & _MASK32
    index = np.asarray(subjects, dtype=np.uint64)
    pool = []
    for word in prefix.pool.tolist():
        mixed, hash_const = _hash(index, hash_const, _MULT_A)
        mixed = (_MIX_MULT_L * word - _MIX_MULT_R * mixed) & _MASK32
        pool.append(mixed ^ mixed >> 16)
    hash_const = _INIT_B
    state = []
    for k in range(8):
        word, hash_const = _hash(pool[k % pool_size], hash_const, _MULT_B)
        state.append(word)
    return np.stack([state[2 * k] | state[2 * k + 1] << 32 for k in range(4)], axis=1)


class _PresetSeed(ISeedSequence):
    """A seed source holding the four words PCG64 asks it for."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a preset subject seed holds only 4 uint64 words")
        return self.state


def _subject_rngs(
    root: np.random.SeedSequence, subjects: Sequence[int]
) -> Iterator[np.random.Generator]:
    """``_stream_rng(root, "subject", s)`` for each s in ``subjects``, in order."""
    for state in _subject_states(root, subjects):
        yield np.random.Generator(np.random.PCG64(_PresetSeed(state)))


def _e3_assignment(design: DesignConfig, root: np.random.SeedSequence) -> Iterator[PositionPair]:
    """Pair per subject: a fresh random cover of all pairs for every block.

    Each cover is drawn when the first of its subjects is reached.
    """
    pairs = all_position_pairs(design.n)
    rng = _stream_rng(root, "e3-assignment")
    for _ in range(design.subjects // len(pairs)):
        for index in rng.permutation(len(pairs)):
            yield pairs[int(index)]


def iter_experiment(
    design: DesignConfig,
    model: SubjectModel,
    master_seed: Seed = 0,
    *,
    truth_mode: str = "identity",
) -> Iterator[TrialRecord]:
    """Yield one TrialRecord per subject, in subject order.

    Deterministic given the master seed: each subject consumes an own
    random stream derived from (seed, subject index). The true ranking is
    the identity, or with ``truth_mode="random"`` a fresh one per subject
    drawn from the subject's stream. Records are produced lazily, with the
    subject streams seeded a block at a time and each e3 cover drawn as it
    is reached, so million-subject runs can be consumed without holding
    them all; the arguments are checked at call time, before the first
    record is asked for.
    """
    if truth_mode not in TRUTH_MODES:
        raise ValueError(f"unknown truth mode {truth_mode!r}; expected one of {TRUTH_MODES}")
    return _iter_blocks(design, model, _as_seed_sequence(master_seed), truth_mode == "random")


def _iter_blocks(
    design: DesignConfig,
    model: SubjectModel,
    root: np.random.SeedSequence,
    random_truth: bool,
) -> Iterator[TrialRecord]:
    identity = Ranking.identity(design.n)
    assignment = _e3_assignment(design, root) if design.kind == "e3" else None
    for start in range(0, design.subjects, _CHUNK):
        block = range(start, min(start + _CHUNK, design.subjects))
        for subject, rng in zip(block, _subject_rngs(root, block)):
            truth = identity
            if random_truth:
                truth = Ranking((rng.permutation(design.n) + 1).tolist())
            draws = _PCG64Draws(rng, fresh=not random_truth)
            pair = next(assignment) if assignment is not None else None
            yield run_subject(design, model, subject, draws, pair=pair, truth=truth)


def run_experiment(
    design: DesignConfig,
    model: SubjectModel,
    master_seed: Seed = 0,
    *,
    truth_mode: str = "identity",
) -> List[TrialRecord]:
    """Run every subject and return the records as a list."""
    return list(iter_experiment(design, model, master_seed, truth_mode=truth_mode))
