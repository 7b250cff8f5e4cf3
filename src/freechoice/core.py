"""Rankings, comparison pairs, and the spread statistic.

A free-choice trial produces two rankings of the same n objects and one
binary choice between two of them. The spread measures how far the rankings
moved toward the choice: improvement of the chosen object's position plus
worsening of the rejected object's position between the first and the final
ranking.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Tuple, Union

__all__ = [
    "Ranking",
    "PositionPair",
    "ObjectPair",
    "Choice",
    "spread",
    "spread_simplified",
    "all_position_pairs",
]


@dataclass(frozen=True, slots=True)
class Ranking:
    """A strict total order of n objects.

    ``entries[k]`` is the object at position ``k + 1``; position 1 is the
    most desirable. Object identifiers may be any hashable values. The
    identity ranking over ``1..n`` places object ``k`` at position ``k``.

    Instances are immutable and safe to share across threads.
    """

    entries: Tuple[Hashable, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("a ranking needs at least one object")
        if len(set(entries)) != len(entries):
            raise ValueError("ranking entries must be distinct objects")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def identity(cls, n: int) -> "Ranking":
        """The ranking that places object k at position k, for k in 1..n."""
        return cls(range(1, _checked_int(n, "n", 1) + 1))

    @property
    def n(self) -> int:
        return len(self.entries)

    def position_of(self, obj: Hashable) -> int:
        """1-based position of ``obj``; raises ValueError for unknown objects."""
        try:
            return self.entries.index(obj) + 1
        except ValueError:
            raise ValueError(f"object {obj!r} is not in this ranking") from None

    def object_at(self, position: int) -> Hashable:
        """Object occupying the 1-based ``position``."""
        if not 1 <= position <= len(self.entries):
            raise ValueError(f"position {position} out of range 1..{len(self.entries)}")
        return self.entries[position - 1]


@dataclass(frozen=True)
class PositionPair:
    """Two comparison positions ``i < j`` used in the choice stage."""

    i: int
    j: int

    def __post_init__(self):
        i, j = _checked_int(self.i, "position i", 1), _checked_int(self.j, "position j", 1)
        if not i < j:
            raise ValueError(f"need 1 <= i < j, got ({i}, {j})")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)

    @property
    def delta(self) -> int:
        """Gap j - i between the two comparison positions."""
        return self.j - self.i


@dataclass(frozen=True)
class ObjectPair:
    """Two distinct comparison objects, fixed across subjects."""

    first: Hashable
    second: Hashable

    def __post_init__(self):
        if self.first == self.second:
            raise ValueError("comparison objects must be distinct")


@dataclass(frozen=True)
class Choice:
    """Outcome of the choice stage: one object taken, one left behind."""

    chosen: Hashable
    rejected: Hashable

    def __post_init__(self):
        if self.chosen == self.rejected:
            raise ValueError("chosen and rejected objects must be distinct")


def _checked_int(value, name: str, low: int) -> int:
    """``value`` as a Python int of at least ``low``.

    Conversion goes through ``operator.index``, so numpy integers are
    accepted and a float is rejected rather than truncated.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def _checked_pair(n: int, pair, name: str = "position") -> Union[PositionPair, ObjectPair]:
    """Two distinct integers in 1..n, in the order given, as the pair ``name`` asks for.

    ``pair`` is a :class:`PositionPair`, an :class:`ObjectPair` or any two
    integers; each goes through :func:`_checked_int`. The result is a
    :class:`PositionPair` for positions and an :class:`ObjectPair` for objects.
    """
    if isinstance(pair, PositionPair):
        pair = (pair.i, pair.j)
    elif isinstance(pair, ObjectPair):
        pair = (pair.first, pair.second)
    try:
        a, b = pair
    except (TypeError, ValueError):
        raise ValueError(f"expected two {name}s, got {pair!r}") from None
    a, b = _checked_int(a, name, 1), _checked_int(b, name, 1)
    if a == b or max(a, b) > n:
        raise ValueError(f"{name}s {pair!r} are not two distinct integers in 1..{n}")
    return (ObjectPair if name == "object" else PositionPair)(a, b)


def spread(rank1: Ranking, choice: Choice, rank3: Ranking) -> int:
    """Signed movement of the two compared objects between two rankings.

    Returns ``(pos1(chosen) - pos3(chosen)) + (pos3(rejected) - pos1(rejected))``
    where ``pos1``/``pos3`` read positions from ``rank1``/``rank3``. Positive
    values mean the rankings moved toward the choice.
    """
    return (
        rank1.position_of(choice.chosen)
        - rank3.position_of(choice.chosen)
        + rank3.position_of(choice.rejected)
        - rank1.position_of(choice.rejected)
    )


def spread_simplified(pair: PositionPair, s2: Tuple[int, int], s3: Tuple[int, int]) -> int:
    """Spread computed from the tracked objects' positions alone.

    The tracked objects are the ones found at positions ``pair.i`` and
    ``pair.j`` of the first ranking; ``s2`` and ``s3`` are their positions
    ``(a, b)`` in the choice-stage and final rankings. The choice is
    consistent with the first ranking exactly when ``a < b`` in ``s2``, and
    then the spread equals the growth of the final gap; a reversal negates
    it.
    """
    (a2, b2), (a3, b3) = s2, s3
    gap3 = b3 - a3
    if a2 < b2:
        return gap3 - pair.delta
    return pair.delta - gap3


@lru_cache(maxsize=64)
def all_position_pairs(n: int) -> Tuple[PositionPair, ...]:
    """All C(n, 2) position pairs (i, j) with i < j, in lexicographic order."""
    n = _checked_int(n, "n", 2)
    return tuple(PositionPair(i, j) for i in range(1, n) for j in range(i + 1, n + 1))
