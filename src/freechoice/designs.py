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

Each subject draws from its own stream, as :func:`run_subject` defines on
a numpy Generator. An experiment runs its subjects in blocks of up to
1,024 on arrays (noise._Streams replays the Generator's draws), with
power replications sharing blocks, and each e3 cover is drawn when its
first subject is reached.

Subject models plug in through a small hook interface: the noise weight of
each stage (one triple from :func:`noise.stage_weights`), an optional
post-choice move of the compared objects in the true ranking, and an
optional post-hoc edit of their places in the final ranking. The hooks act
on places, as ints for run_subject and as arrays for a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, starmap
from typing import ClassVar, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    Choice,
    ObjectPair,
    PositionPair,
    Ranking,
    _checked_int,
    _checked_pair,
    spread,
)
from .noise import (
    _ARMS,
    CapacityError,
    Weight,
    _checked_weight,
    _Streams,
    _swap_rows,
    sample_choice,
    sample_noisy_ranking,
    stage_weights,
)

# bench/tracer.py wraps this name of the module
from .core import all_position_pairs  # noqa: F401

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

# What each design holds fixed across subjects: the compared positions, the
# compared objects, or nothing (it assigns a position pair per subject).
_FIXED_PAIR = {"classic": "position", "e0": "position", "e1": "object", "e2": None, "e3": None}

DESIGN_KINDS = tuple(_FIXED_PAIR)

TRUTH_MODES = ("identity", "random")

# a string: np.random at module level would load numpy's RNG (6 MB) on import
Seed = Union[int, "np.random.SeedSequence"]

_BLOCK = 1024

# A run whose expected number of adjacent swaps passes this is refused before
# its first draw.
_SWAP_BUDGET = 10**10

# Subject indices enter their stream's spawn key as one 32-bit word.
_MAX_SUBJECTS = 2**32


def pair_count(n: int) -> int:
    """Number of unordered position pairs, C(n, 2)."""
    return n * (n - 1) // 2


def _pair_at(n: int, k):
    # Positions (i, j) of pair k (an int or an integer array) in the
    # lexicographic order of all_position_pairs(n), without listing the
    # C(n, 2) pairs. Counted from the end, the rows i..n - 1 hold
    # (n - i)(n - i + 1)/2 pairs; the float root is corrected to isqrt.
    k = np.asarray(k, dtype=np.int64)
    x = 8 * (pair_count(n) - 1 - k) + 1
    root = np.sqrt(x).astype(np.int64)
    root -= root * root > x
    root += (root + 1) * (root + 1) <= x
    i = n - 1 - (root - 1) // 2
    return i, k - (i - 1) * (2 * n - i) // 2 + i + 1


def _fixed_pair(kind: str, n: int, pair, given: str) -> Union[PositionPair, ObjectPair, None]:
    """``pair``, passed as a ``given`` ("position" or "object") pair, for design ``kind``.

    A design needs the pair of the type it holds fixed and refuses any
    other, so the result is None where ``given`` is not what ``kind``
    fixes, and otherwise a ``PositionPair`` or ``ObjectPair`` read through
    :func:`core._checked_pair`.
    """
    if _FIXED_PAIR[kind] != given:
        if pair is not None:
            raise ValueError(f"design {kind!r} takes no fixed pair of {given}s")
        return None
    if pair is None:
        raise ValueError(f"design {kind!r} needs a fixed pair of {given}s")
    return (PositionPair if given == "position" else ObjectPair)(*_checked_pair(n, pair, given))


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
        for field, given in (("pair", "position"), ("object_pair", "object")):
            pair = _fixed_pair(self.kind, self.n, getattr(self, field), given)
            object.__setattr__(self, field, pair)
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
        _checked_weight(self.p, "model noise weight")

    def stage_weights(self, arm: str) -> Tuple[Weight, Weight, Weight]:
        """Noise weights of the first ranking, the choice and the final ranking."""
        return stage_weights(self.p, self.p, arm)

    # The model's two hooks act on the places (from 0) of the chosen and the
    # rejected object, ints or integer arrays over the subjects of a block.
    def _moved(self, chosen, rejected, gap, n: int):
        # their true places after the choice, the first ranking gap apart
        return chosen, rejected

    def _kept(self, chosen, rejected):
        # their places in the final ranking as the subject reports it
        return chosen, rejected


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
        _checked_weight(self.P, "P", low=self.p)

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

    def _kept(self, chosen, rejected):
        return np.minimum(chosen, rejected), np.maximum(chosen, rejected)


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

    def _moved(self, chosen, rejected, gap, n: int):
        # The chosen object is taken out and put back ``shift`` places up,
        # then the rejected one ``shift`` places below its old place; the
        # chosen one's place shifts as the rejected one leaves and returns.
        shifted = (gap <= self.threshold) & (self.shift > 0)
        up = np.maximum(0, chosen - self.shift)
        down = np.minimum(n - 1, rejected + self.shift)
        up -= up > rejected + ((up <= rejected) & (rejected < chosen))
        up += up >= down
        return np.where(shifted, up, chosen), np.where(shifted, down, rejected)


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
    rng: np.random.Generator,
    *,
    pair: Optional[PositionPair] = None,
    truth: Optional[Ranking] = None,
) -> TrialRecord:
    """Run one subject and return its trial record.

    The reference definition of a subject, which the block kernel matches
    draw for draw: each ranking is :func:`noise.sample_noisy_ranking`, the
    choice :func:`noise.sample_choice` and the spread :func:`core.spread`.
    ``rng`` is a numpy Generator, drawn through its ``random``,
    ``geometric`` and ``integers`` methods. ``pair`` must carry the
    assigned position pair for e3 (the driver owns the assignment), checked
    like ``DesignConfig``'s pair; other designs reject it.
    ``truth`` is this subject's true ranking, the identity when omitted.
    """
    subject = _checked_int(subject, "subject index", 0)
    if subject >= design.subjects:
        raise ValueError(f"subject index {subject} outside 0..{design.subjects - 1}")
    if pair is not None and design.kind != "e3":
        raise ValueError(f"design {design.kind!r} does not take a per-subject pair")
    n = design.n
    if truth is None:
        truth = Ranking.identity(n)
    elif truth.n != n:
        raise ValueError(f"true ranking has {truth.n} objects but the design has {n}")

    arm = "none"
    if design.kind == "e0":
        arm = "experimental" if subject < design.subjects // 2 else "control"

    if design.kind == "e2":
        i, j = map(int, _pair_at(n, rng.integers(0, pair_count(n), size=1)[0]))
    elif design.kind == "e3":
        if pair is None:
            raise ValueError("design 'e3' needs the driver-assigned pair; use run_experiment")
        pair = PositionPair(*_checked_pair(n, pair))
        i, j = pair.i, pair.j
    elif design.kind != "e1":
        i, j = design.pair.i, design.pair.j

    w_first, w_choice, w_final = model.stage_weights(arm)
    first = sample_noisy_ranking(truth, w_first, rng)
    if design.kind == "e1":
        i, j = sorted(map(first.position_of, (design.object_pair.first, design.object_pair.second)))
    tracked = ObjectPair(first.object_at(i), first.object_at(j))

    # the control arm ranks a second time before it chooses
    if arm == "control":
        final = sample_noisy_ranking(truth, w_final, rng)
    choice = sample_choice(truth, tracked, w_choice, rng)
    if arm != "control":
        final = sample_noisy_ranking(_placed(truth, choice, model._moved, j - i, n), w_final, rng)
        final = _placed(final, choice, model._kept)
    return TrialRecord(subject, arm, i, j, choice.chosen == tracked.first,
                       spread(first, choice, final))


def _placed(ranking: Ranking, choice: Choice, hook, *args) -> Ranking:
    # ``ranking`` with the chosen and the rejected object put at the places
    # (from 0) that ``hook`` gives for theirs; the lower place is filled first
    objects = choice.chosen, choice.rejected
    places = hook(*(ranking.position_of(obj) - 1 for obj in objects), *args)
    entries = [entry for entry in ranking.entries if entry not in objects]
    for place, obj in sorted(zip(map(int, places), objects)):
        entries.insert(place, obj)
    return Ranking(entries)


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
_MASK32 = np.uint64(0xFFFFFFFF)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)


def _word_count(value) -> int:
    # uint32 words SeedSequence makes of an int, a decimal or 0x-hex string,
    # or a sequence of these
    if isinstance(value, str):
        value = int(value, 16) if value.startswith("0x") else int(value)
    if isinstance(value, (int, np.integer)):
        return max(1, (int(value).bit_length() + 31) // 32)
    return sum(map(_word_count, value))


def _hash(words: np.ndarray, hash_const: np.ndarray, mult: int) -> Tuple[np.ndarray, np.ndarray]:
    # One step of SeedSequence's hash on uint32 values held in uint64 arrays:
    # xor the constant, advance it, multiply by it and fold the high half.
    advanced = hash_const * np.uint64(mult) & _MASK32
    words = (words ^ hash_const) * advanced & _MASK32
    return words ^ words >> np.uint64(16), advanced


def _subject_states(roots: Sequence[np.random.SeedSequence], experiment: Sequence[int],
                    subjects: Sequence[int]) -> np.ndarray:
    """PCG64 seeds of subject streams, one row of 4 uint64 per subject.

    Row k equals ``_stream_seed(roots[experiment[k]], "subject",
    subjects[k]).generate_state(4, np.uint64)``, computed for all rows in
    one array pass. SeedSequence mixes its entropy words in order, so numpy
    mixes each shared prefix (a root's entropy and spawn key plus the
    subject stream key) once. Its hash constant has then advanced pool_size
    times per prefix word; each subject index, one word below 2**32, is
    mixed into every pool word, and the state is hashed from the pool.
    """
    prefixes = [_stream_seed(root, "subject") for root in roots]
    pool_size = prefixes[0].pool_size
    # a non-empty spawn key pads the entropy to at least pool_size words
    hash_const = np.array([
        _INIT_A * pow(_MULT_A, pool_size * (max(_word_count(prefix.entropy), pool_size)
                                            + _word_count(prefix.spawn_key)), 2**32) % 2**32
        for prefix in prefixes], dtype=np.uint64)[experiment]
    words = np.array([prefix.pool for prefix in prefixes], dtype=np.uint64)[experiment]
    index = np.asarray(subjects, dtype=np.uint64)
    pool = []
    for word in words.T:
        mixed, hash_const = _hash(index, hash_const, _MULT_A)
        mixed = (_MIX_MULT_L * word - _MIX_MULT_R * mixed) & _MASK32
        pool.append(mixed ^ mixed >> np.uint64(16))
    hash_const = np.full(len(index), _INIT_B, dtype=np.uint64)
    state = []
    for k in range(8):
        word, hash_const = _hash(pool[k % pool_size], hash_const, _MULT_B)
        state.append(word)
    return np.stack([state[2 * k] | state[2 * k + 1] << np.uint64(32) for k in range(4)], axis=1)


class _Columns(NamedTuple):
    """A block's records, one array per TrialRecord field, ``arm`` indexing
    noise._ARMS, with the index of each record's experiment in its run."""

    experiment: np.ndarray
    subject: np.ndarray
    arm: np.ndarray
    i: np.ndarray
    j: np.ndarray
    consistent: np.ndarray
    spread: np.ndarray


def _fields(block: _Columns) -> List[list]:
    # the TrialRecord fields of a block, one list each
    return [block.subject.tolist(), [_ARMS[arm] for arm in block.arm.tolist()],
            *(field.tolist() for field in block[3:])]


def _records(block: _Columns) -> Iterator[TrialRecord]:
    return starmap(TrialRecord, zip(*_fields(block)))


def _check_swap_budget(design: DesignConfig, model: SubjectModel, experiments: int) -> None:
    # subjects x 3 stages x p/(1 - p) swaps expected at the model's largest
    # weight (the control arm's weights are P, p and P)
    weight = max(float(w) for w in model.stage_weights("control"))
    expected = 3 * design.subjects * experiments * weight / (1 - weight)
    if expected > _SWAP_BUDGET:
        raise CapacityError(
            f"{design.subjects * experiments} subjects at noise weight {weight} draw about "
            f"{expected:.3g} adjacent swaps; at most {_SWAP_BUDGET:.0e} are supported"
        )


def _covers(n: int, root: np.random.SeedSequence) -> Iterator[int]:
    # the pair index of each e3 subject, a cover of all pairs drawn as it is reached
    rng = _stream_rng(root, "e3-assignment")
    while True:
        yield from rng.permutation(pair_count(n)).tolist()


def _experiment_blocks(design: DesignConfig, model: SubjectModel, root: np.random.SeedSequence,
                       *, replications: int = 0, random_truth: bool = False) -> Iterator[_Columns]:
    """The records of the experiment seeded by ``root``, in blocks of _BLOCK subjects.

    With ``replications``, of that many experiments one after another, the
    r-th seeded by the stream ("replication", r) under ``root``; a block
    then may hold subjects of several. The expected swap count is checked
    at call time, before the first draw.
    """
    experiments, size = replications or 1, design.subjects
    _check_swap_budget(design, model, experiments)

    def blocks() -> Iterator[_Columns]:
        covers = {}  # the e3 pair indices of the experiment under way
        for start in range(0, experiments * size, _BLOCK):
            rows = np.arange(start, min(start + _BLOCK, experiments * size))
            experiment, subject = np.divmod(rows, size)
            first = int(experiment[0])
            seeds = [_stream_seed(root, "replication", e) if replications else root
                     for e in range(first, int(experiment[-1]) + 1)]
            pair = None
            if design.kind == "e3":
                pair = []
                for e, seed in enumerate(seeds, first):
                    covers = covers if e in covers else {e: _covers(design.n, seed)}
                    pair.extend(islice(covers[e], int(np.count_nonzero(experiment == e))))
            streams = _Streams(_subject_states(seeds, experiment - first, subject))
            yield _run_block(design, model, streams, experiment, subject, pair, random_truth)

    return blocks()


def _stage(streams: _Streams, rows: np.ndarray, weights: np.ndarray,
           ranking: np.ndarray) -> np.ndarray:
    # _swap_rows over rows that may differ in weight, one call per weight
    out = np.empty_like(ranking)
    for weight in set(weights.tolist()):
        at = weights == weight
        out[at] = _swap_rows(streams, rows[at], weight, ranking[at])
    return out


def _followed(streams: _Streams, rows: np.ndarray, weights: np.ndarray, n: int,
              places: np.ndarray) -> np.ndarray:
    # the places of two objects (rows 0 and 1 of ``places``) after a stage:
    # the stage swaps a ranking that marks them 0 and 1
    marks = np.full((len(rows), n), -1, dtype=np.min_scalar_type(-n))
    for mark, place in enumerate(places):
        marks[np.arange(len(rows)), place] = mark
    marks = _stage(streams, rows, weights, marks)
    return np.stack([(marks == mark).argmax(axis=1) for mark in range(2)])


def _run_block(design, model, streams, experiment, subject, pair, random_truth) -> _Columns:
    """run_subject for each row of a block, its stream a row of ``streams``.

    The draws are those of run_subject on each subject's Generator, stage
    by stage over the block: the whole first ranking, then the places of
    the compared two objects. Objects and places count from 0 here.
    """
    n, rows = design.n, np.arange(len(subject))
    arm = np.zeros(len(rows), dtype=np.intp)
    if design.kind == "e0":
        arm += 1 + (subject >= design.subjects // 2)
    weights = np.array([[float(w) for w in model.stage_weights(name)] for name in _ARMS])[arm]
    # ranking[r, c] is the object at place c, truth[r, c] the true place of
    # object c, in the smallest integer type that also holds -n
    ranking = np.tile(np.arange(n, dtype=np.min_scalar_type(-n)), (len(rows), 1))
    truth = ranking.copy()
    if random_truth:
        ranking = streams.permutations(rows, n).astype(truth.dtype)
        np.put_along_axis(truth, ranking, truth.copy(), axis=1)
    if design.kind == "e2":
        pair = streams.below(rows, pair_count(n), np.ones_like(rows))
    first = _stage(streams, rows, weights[:, 0], ranking)
    if design.kind == "e1":
        x, y = design.object_pair.first - 1, design.object_pair.second - 1
        places = np.stack([(first == obj).argmax(axis=1) for obj in (x, y)])
        i, j = places.min(axis=0) + 1, places.max(axis=0) + 1
    else:
        fixed = _pair_at(n, pair) if pair is not None else (design.pair.i, design.pair.j)
        i, j = (np.broadcast_to(place, rows.shape) for place in fixed)
        places = np.stack((i - 1, j - 1))
        x, y = first[rows, i - 1], first[rows, j - 1]
    true = np.stack((truth[rows, x], truth[rows, y])).astype(np.intp)
    # the control arm ranks a second time before it chooses
    control = arm == 2
    final = np.empty_like(true)
    final[:, control] = _followed(streams, rows[control], weights[control, 2], n, true[:, control])
    noisy = _followed(streams, rows, weights[:, 1], n, true)
    # from here on, row 0 of each pair of places is the chosen object's
    flip = noisy[0] > noisy[1]
    for both in (places, true, final):
        both[:, flip] = both[::-1, flip]
    rest = ~control
    moved = np.stack(model._moved(true[0, rest], true[1, rest], (j - i)[rest], n))
    final[:, rest] = model._kept(*_followed(streams, rows[rest], weights[rest, 2], n, moved))
    spread = places[0] - final[0] + final[1] - places[1]
    return _Columns(experiment, subject, arm, i, j, places[0] < places[1], spread)


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
    drawn from the subject's stream. Records are produced lazily, a block
    of subjects at a time with each e3 cover drawn as it is reached, so
    million-subject runs can be consumed without holding them all; the
    arguments, and the expected swap count against its budget, are checked
    at call time, before the first record is asked for.
    """
    if truth_mode not in TRUTH_MODES:
        raise ValueError(f"unknown truth mode {truth_mode!r}; expected one of {TRUTH_MODES}")
    blocks = _experiment_blocks(design, model, _as_seed_sequence(master_seed),
                                random_truth=truth_mode == "random")
    return (record for block in blocks for record in _records(block))


def run_experiment(
    design: DesignConfig,
    model: SubjectModel,
    master_seed: Seed = 0,
    *,
    truth_mode: str = "identity",
) -> List[TrialRecord]:
    """Run every subject and return the records as a list."""
    return list(iter_experiment(design, model, master_seed, truth_mode=truth_mode))
