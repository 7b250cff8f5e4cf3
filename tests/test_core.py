"""Ranking primitives and the two spread definitions."""

import importlib
import itertools
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freechoice
from freechoice.core import (
    Choice,
    ObjectPair,
    PositionPair,
    Ranking,
    all_position_pairs,
    spread,
    spread_simplified,
)


class TestRanking:
    def test_identity(self):
        r = Ranking.identity(4)
        assert r.entries == (1, 2, 3, 4)
        assert r.n == 4
        assert r.position_of(3) == 3
        assert r.object_at(2) == 2

    def test_positions_partition(self):
        r = Ranking((3, 1, 4, 2))
        assert [r.position_of(obj) for obj in (1, 2, 3, 4)] == [2, 4, 1, 3]
        assert [r.object_at(pos) for pos in (1, 2, 3, 4)] == [3, 1, 4, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            Ranking((1, 1, 2))
        with pytest.raises(ValueError):
            Ranking(())

    def test_unknown_object(self):
        with pytest.raises(ValueError):
            Ranking((1, 2, 3)).position_of(9)

    def test_bad_position(self):
        r = Ranking((1, 2, 3))
        with pytest.raises(ValueError):
            r.object_at(0)
        with pytest.raises(ValueError):
            r.object_at(4)

    def test_equality_and_hash(self):
        assert Ranking((2, 1)) == Ranking([2, 1])
        assert hash(Ranking((2, 1))) == hash(Ranking((2, 1)))
        assert Ranking((2, 1)) != Ranking((1, 2))


class TestPairsAndStates:
    def test_position_pair_orders(self):
        pair = PositionPair(3, 7)
        assert (pair.i, pair.j, pair.delta) == (3, 7, 4)
        with pytest.raises(ValueError):
            PositionPair(7, 3)
        with pytest.raises(ValueError):
            PositionPair(3, 3)
        with pytest.raises(ValueError):
            PositionPair(0, 2)

    def test_object_pair_distinct(self):
        pair = ObjectPair("a", "b")
        assert (pair.first, pair.second) == ("a", "b")
        with pytest.raises(ValueError):
            ObjectPair("a", "a")

    def test_choice_distinct(self):
        with pytest.raises(ValueError):
            Choice(chosen=1, rejected=1)

    def test_all_position_pairs(self):
        pairs = all_position_pairs(4)
        assert len(pairs) == 6
        assert pairs[0] == PositionPair(1, 2)
        assert pairs[-1] == PositionPair(3, 4)
        assert all(p.i < p.j for p in pairs)


class TestSpread:
    def test_improvement_example(self):
        rank1 = Ranking.identity(12)
        # chosen climbs 7 -> 5 (gains 2), rejected falls 9 -> 11 (loses 2)
        rank3 = Ranking((1, 2, 3, 4, 7, 5, 6, 8, 10, 11, 9, 12))
        assert spread(rank1, Choice(chosen=7, rejected=9), rank3) == 4

    def test_no_movement_is_zero(self):
        rank = Ranking.identity(5)
        assert spread(rank, Choice(chosen=2, rejected=4), rank) == 0
        assert spread(rank, Choice(chosen=4, rejected=2), rank) == 0

    def test_antisymmetry_in_choice(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            r1 = Ranking(tuple(int(x) for x in rng.permutation(6) + 1))
            r3 = Ranking(tuple(int(x) for x in rng.permutation(6) + 1))
            a, b = 2, 5
            forward = spread(r1, Choice(chosen=a, rejected=b), r3)
            backward = spread(r1, Choice(chosen=b, rejected=a), r3)
            assert forward == -backward

    def test_simplified_consistent_branch(self):
        # consistent choice: spread = (final gap) - (starting gap)
        pair = PositionPair(7, 9)
        assert spread_simplified(pair, (1, 2), (5, 11)) == 4
        assert spread_simplified(pair, (7, 9), (9, 7)) == -4

    def test_simplified_reversal_branch(self):
        pair = PositionPair(7, 9)
        assert spread_simplified(pair, (8, 3), (7, 9)) == 0
        assert spread_simplified(pair, (8, 3), (9, 7)) == 4

    def test_exhaustive_agreement_small(self):
        # the state-level formula reproduces the ranking-level definition for
        # every (rank1, choice ranking, rank3, pair) combination at n=4
        n = 4
        perms = [Ranking(p) for p in itertools.permutations(range(1, n + 1))]
        pairs = all_position_pairs(n)
        for rank1 in perms:
            for choice_rank in perms:
                for rank3 in perms:
                    for pair in pairs:
                        first = rank1.object_at(pair.i)
                        second = rank1.object_at(pair.j)
                        s2 = (choice_rank.position_of(first), choice_rank.position_of(second))
                        s3 = (rank3.position_of(first), rank3.position_of(second))
                        chosen, rejected = (
                            (first, second) if s2[0] < s2[1] else (second, first)
                        )
                        assert spread_simplified(pair, s2, s3) == spread(
                            rank1, Choice(chosen=chosen, rejected=rejected), rank3
                        )

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_relabeling_invariance(self, data):
        # the spread only depends on positions, never on object labels
        n = data.draw(st.integers(min_value=2, max_value=8))
        base = list(range(1, n + 1))
        perm1 = data.draw(st.permutations(base))
        perm3 = data.draw(st.permutations(base))
        relabel_values = data.draw(st.permutations(base))
        relabel = dict(zip(base, relabel_values))
        i = data.draw(st.integers(min_value=1, max_value=n - 1))
        j = data.draw(st.integers(min_value=i + 1, max_value=n))
        rank1 = Ranking(tuple(perm1))
        rank3 = Ranking(tuple(perm3))
        chosen, rejected = rank1.object_at(i), rank1.object_at(j)
        plain = spread(rank1, Choice(chosen=chosen, rejected=rejected), rank3)
        mapped1 = Ranking(tuple(relabel[x] for x in perm1))
        mapped3 = Ranking(tuple(relabel[x] for x in perm3))
        mapped = spread(
            mapped1, Choice(chosen=relabel[chosen], rejected=relabel[rejected]), mapped3
        )
        assert plain == mapped


def test_every_exported_name_resolves():
    modules = [freechoice] + [
        importlib.import_module(f"freechoice.{info.name}")
        for info in pkgutil.iter_modules(freechoice.__path__)
        if info.name != "__main__"
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []


def test_every_package_export_is_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    undocumented = [name for name in freechoice.__all__ if f"`{name}`" not in readme]
    assert undocumented == []


def test_every_module_export_is_in_the_public_api_section():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Public API"):readme.index("## Command line")]
    undocumented = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(freechoice.__path__)
        if info.name != "__main__"
        for name in importlib.import_module(f"freechoice.{info.name}").__all__
        if f"`{name}`" not in section
    ]
    assert undocumented == []


def test_public_api_bullets_match_every_all():
    # Each "- `module`:" bullet of the README's Public API lists its module's
    # __all__, so every module export is documented there, and the package
    # exports a name exactly when some bullet lists it before "Module only"
    # (the phrase may wrap); the section names `__version__` too.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Public API"):readme.index("## Command line")]
    bullets = dict(re.findall(r"^- `(\w+)`:(.*?)(?=^- |\n\n)", section, re.M | re.S))
    exports = {
        info.name: importlib.import_module(f"freechoice.{info.name}").__all__
        for info in pkgutil.iter_modules(freechoice.__path__)
        if info.name != "__main__"
    }
    assert sorted(bullets) == sorted(exports)
    unlisted = [
        f"{module}.{name}"
        for module, names in exports.items()
        for name in names
        if f"`{name}`" not in bullets[module]
    ]
    assert unlisted == []
    public = {name for names in exports.values() for name in names}
    listed = {
        name
        for text in bullets.values()
        for name in re.findall(r"`(\w+)`", re.split(r"module\s+only:", text, flags=re.I)[0])
    }
    assert sorted(set(freechoice.__all__) - {"__version__"}) == sorted(listed & public)
    assert "`__version__`" in section
    # and each package export is its module's own object
    assert [f"{module}.{name}" for module, names in exports.items() for name in names
            if name in freechoice.__all__ and getattr(freechoice, name)
            is not getattr(importlib.import_module(f"freechoice.{module}"), name)] == []
