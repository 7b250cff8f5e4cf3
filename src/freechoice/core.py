"""Rankings, comparison pairs, simplified states, and the spread statistic.

A free-choice trial produces two rankings of the same n objects and one
binary choice between two of them. The spread measures how far the rankings
moved toward the choice: improvement of the chosen object's position plus
worsening of the rejected object's position between the first and the final
ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, Tuple

__all__ = [
    "Ranking",
    "PositionPair",
    "ObjectPair",
    "SimplifiedState",
    "Choice",
    "spread",
    "spread_simplified",
    "reverse_positions",
    "all_position_pairs",
]


class Ranking:
    """A strict total order of n objects.

    ``entries[k]`` is the object at position ``k + 1``; position 1 is the
    most desirable. Object identifiers may be any hashable values. The
    identity ranking over ``1..n`` places object ``k`` at position ``k``.

    Instances are immutable and safe to share across threads.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Hashable], validate: bool = True):
        values = tuple(entries)
        if validate:
            if not values:
                raise ValueError("a ranking needs at least one object")
            if len(set(values)) != len(values):
                raise ValueError("ranking entries must be distinct objects")
        object.__setattr__(self, "entries", values)

    @classmethod
    def identity(cls, n: int) -> "Ranking":
        """The ranking that places object k at position k, for k in 1..n."""
        if n < 1:
            raise ValueError("n must be at least 1")
        return cls(range(1, n + 1), validate=False)

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

    def __setattr__(self, name, value):
        raise AttributeError("Ranking is immutable")

    def __eq__(self, other):
        if not isinstance(other, Ranking):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Ranking({self.entries!r})"


@dataclass(frozen=True)
class PositionPair:
    """Two comparison positions ``i < j`` used in the choice stage."""

    i: int
    j: int

    def __post_init__(self):
        if not (isinstance(self.i, int) and isinstance(self.j, int)):
            raise ValueError("positions must be integers")
        if not 1 <= self.i < self.j:
            raise ValueError(f"need 1 <= i < j, got ({self.i}, {self.j})")

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
class SimplifiedState:
    """Positions (a, b) of the two tracked objects, other objects ignored.

    For n objects there are n(n - 1) such states; tracking only the two
    compared objects is what makes exact enumeration tractable.
    """

    a: int
    b: int

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise ValueError("state positions must be integers")
        if self.a < 1 or self.b < 1:
            raise ValueError("state positions must be at least 1")
        if self.a == self.b:
            raise ValueError("tracked objects cannot share a position")


@dataclass(frozen=True)
class Choice:
    """Outcome of the choice stage: one object taken, one left behind."""

    chosen: Hashable
    rejected: Hashable

    def __post_init__(self):
        if self.chosen == self.rejected:
            raise ValueError("chosen and rejected objects must be distinct")


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


def spread_simplified(pair: PositionPair, s2: SimplifiedState, s3: SimplifiedState) -> int:
    """Spread computed from simplified states alone.

    The tracked objects are the ones found at positions ``pair.i`` and
    ``pair.j`` of the first ranking; ``s2`` and ``s3`` hold their positions in
    the choice-stage and final rankings. The choice is consistent with the
    first ranking exactly when ``s2.a < s2.b``, and then the spread equals the
    growth of the final gap; a reversal negates it.
    """
    gap3 = s3.b - s3.a
    if s2.a < s2.b:
        return gap3 - pair.delta
    return pair.delta - gap3


def reverse_positions(s: SimplifiedState, n: int) -> SimplifiedState:
    """Mirror a state through the middle of a ranking of length n."""
    if s.a > n or s.b > n:
        raise ValueError(f"state {s} does not fit in a ranking of {n} objects")
    return SimplifiedState(n + 1 - s.a, n + 1 - s.b)


@lru_cache(maxsize=64)
def all_position_pairs(n: int) -> Tuple[PositionPair, ...]:
    """All C(n, 2) position pairs (i, j) with i < j, in lexicographic order."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return tuple(PositionPair(i, j) for i in range(1, n) for j in range(i + 1, n + 1))
