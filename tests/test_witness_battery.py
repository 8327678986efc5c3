"""The consequence search's witness battery loses no witness.

is_consequence tries S3 and C4 before its search and Q8 and S4 after
it.  default_targets() without the products C6 and D6 used to be tried
instead: C2, C3, C4 and S3 before, D4, Q8, A4 and S4 after.  A
homomorphism into a subgroup H of G is also one into G, with the same
kernel, so when H kills the relators but not the word, G does too.  The
first test finds the embeddings that make the cut lossless, and shows
that C4 and Q8 must stay, because S3 has no C4 and S4 no Q8.  The
others compare both batteries on recorded searches and on words that
only a group of order 8 or 12 tells apart from the relators.  The last
tests compare witness, which counts each presentation into a battery
half in one call, with a lazy loop of one count per group.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

import braidmono.presentations as presentations
from braidmono import FreeWord, Presentation, count_homomorphisms, default_targets, is_consequence, simplify
from braidmono.presentations import Verdict, _battery, witness

GROUPS = dict(default_targets())
OLD_SMALL = [(name, GROUPS[name]) for name in ("C2", "C3", "C4", "S3")]
OLD_LARGE = [(name, GROUPS[name]) for name in ("D4", "Q8", "A4", "S4")]

DATA = Path(__file__).parent / "data"


def _generators(h):
    """A generating set of h, each element taken when it is new."""
    gens, reached = [], {h.identity}
    for a in range(h.order):
        if a not in reached:
            gens.append(a)
            todo = list(reached)
            while todo:
                x = todo.pop()
                for g in gens:
                    y = h.table[x][g]
                    if y not in reached:
                        reached.add(y)
                        todo.append(y)
    return gens


def _embeds(h, g):
    """Whether some assignment of generator images extends to an
    injective homomorphism h -> g: the map is grown along the edges
    x -> x*gen of h's Cayley graph and every edge must agree."""
    gens = _generators(h)
    for images in product(range(g.order), repeat=len(gens)):
        phi, todo, ok = {h.identity: g.identity}, [h.identity], True
        while todo and ok:
            x = todo.pop()
            for a, b in zip(gens, images):
                y, v = h.table[x][a], g.table[phi[x]][b]
                if y not in phi:
                    phi[y] = v
                    todo.append(y)
                ok = ok and phi[y] == v
        if ok and len(set(phi.values())) == h.order:
            return True
    return False


@pytest.mark.parametrize(
    "sub, group, found",
    [
        ("C2", "S3", True),
        ("C3", "S3", True),
        ("D4", "S4", True),
        ("A4", "S4", True),
        ("S3", "S4", True),
        ("C4", "S4", True),
        ("C4", "S3", False),
        ("Q8", "S4", False),
    ],
)
def test_battery_groups_embed(sub, group, found):
    assert _embeds(GROUPS[sub], GROUPS[group]) is found


def test_embedding_search_rejects_non_embeddings():
    assert _embeds(GROUPS["C2"], GROUPS["C2"])
    assert not _embeds(GROUPS["C3"], GROUPS["C4"])
    assert not _embeds(GROUPS["S3"], GROUPS["D4"])


def test_battery_is_s3_c4_then_q8_s4():
    small, large = _battery()
    assert [name for name, _ in small] == ["S3", "C4"]
    assert [name for name, _ in large] == ["Q8", "S4"]
    assert all(GROUPS[name] is table for name, table in small + large)


def _recorded_searches(monkeypatch):
    """The recorded consequence calls of the rotated model braids, then
    the drop searches that simplify makes on the Tietze pins."""
    calls = []
    for rec in json.loads((DATA / "consequence_verdicts.json").read_text(encoding="utf-8")):
        calls.append((rec["rank"], rec["rest"], rec["word"]))
    inner = presentations.is_consequence

    def spy(relators, word, **kwargs):
        calls.append((word.rank, [list(r.letters) for r in relators], list(word.letters)))
        return inner(relators, word, **kwargs)

    monkeypatch.setattr(presentations, "is_consequence", spy)
    for rec in json.loads((DATA / "tietze_pins.json").read_text(encoding="utf-8")):
        simplify(Presentation(rec["rank"], tuple(rec["relators"])), max_len=24, budget=200)
    monkeypatch.undo()
    return calls


def test_battery_finds_the_old_batterys_witnesses(monkeypatch):
    calls = _recorded_searches(monkeypatch)
    small, large = _battery()
    told = []
    for i, (rank, rest, word) in enumerate(calls):
        p = Presentation(rank, tuple(FreeWord(rank, tuple(r)) for r in rest))
        w = FreeWord(rank, tuple(word))
        pair = []
        for old, new in ((OLD_SMALL, small), (OLD_LARGE, large)):
            found = witness(p, w, old) is not None
            assert found == (witness(p, w, new) is not None), i
            pair.append(found)
        told.append(tuple(pair))
    # 119 recorded calls and 504 drop searches (549 before simplify kept
    # its Independent verdicts across rounds); no witness is only large.
    assert Counter(told) == {(True, True): 497, (False, False): 126}


def _w(*letters):
    return FreeWord(2, letters)


@pytest.mark.parametrize(
    "rest, word, old_name, new_name",
    [
        # <x1, x2 | x1^2, x2^2> is infinite dihedral: (x1 x2)^6 dies in
        # every group of order at most 6, but not in D4, nor so in S4.
        ([_w(1, 1), _w(2, 2)], _w(*(1, 2) * 6), "D4", "S4"),
        # <x1, x2 | x1^2, x2^3, (x1 x2)^3> is A4, whose involution x1 dies
        # in every smaller battery group.
        ([_w(1, 1), _w(2, 2, 2), _w(*(1, 2) * 3)], _w(1), "A4", "S4"),
    ],
)
def test_large_witnesses_move_into_s4(rest, word, old_name, new_name):
    p = Presentation(2, tuple(rest))
    small, large = _battery()
    assert witness(p, word, OLD_SMALL) is None and witness(p, word, small) is None
    assert witness(p, word, OLD_LARGE) == old_name
    assert witness(p, word, large) == new_name


def _lazy_witness(rest, word, groups):
    """witness as one count per group, stopping at the first that tells."""
    full = Presentation(rest.rank, rest.relators + (word,))
    return next((name for name, g in groups
                 if count_homomorphisms(rest, g) != count_homomorphisms(full, g)), None)


# <x1, x2 | x1^2, x2^3, (x1 x2)^4> is S4 and <x1, x2 | x1^4, x1^2 x2^-2,
# x2 x1 x2^-1 x1> is Q8, so Q8 or S4 alone tells some words from the relators.
_S4_AND_Q8 = [[(1, 1), (2, 2, 2), (1, 2) * 4], [(1, 1, 1, 1), (1, 1, -2, -2), (2, 1, -2, 1)]]


def _drawn_witness_case(seed):
    """Rank 2 or 3: half the time S4's or Q8's relators, then up to two
    random relators, and a random word."""
    rng = random.Random(seed)
    rank = rng.randint(2, 3)

    def letters(lo, hi):
        return tuple(rng.choice((-1, 1)) * rng.randint(1, rank) for _ in range(rng.randint(lo, hi)))

    relators = list(rng.choice(_S4_AND_Q8)) if rng.random() < 0.5 else []
    relators += [letters(2, 8) for _ in range(rng.randint(0, 2))]
    return Presentation(rank, tuple(FreeWord(rank, r) for r in relators)), FreeWord(rank, letters(1, 6))


def test_witness_names_the_lazy_loops_group():
    told = Counter()
    for seed in range(80):
        rest, word = _drawn_witness_case(seed)
        for groups in (*_battery(), default_targets()):
            found = witness(rest, word, groups)
            assert found == _lazy_witness(rest, word, groups), (seed, [n for n, _ in groups])
            told[len(groups), found] += 1
    # Q8 and S4 are each the first to tell in both orders, and some word
    # has no witness at all.
    assert {(2, "Q8"), (2, "S4"), (10, "Q8"), (10, "S4"), (10, None)} <= set(told)


@pytest.mark.parametrize("rest, word, name", [
    (_S4_AND_Q8[0], (1, 2, 1, 2), "S4"),
    (_S4_AND_Q8[1], (1, 1), "Q8"),
])
def test_only_the_large_half_tells(rest, word, name):
    p, w = Presentation(2, tuple(_w(*r) for r in rest)), _w(*word)
    small, large = _battery()
    assert witness(p, w, small) is None
    assert witness(p, w, large) == name == witness(p, w, default_targets())
    assert is_consequence(p.relators, w, budget=200) is Verdict.INDEPENDENT


def test_each_battery_half_counts_a_presentation_in_one_call(monkeypatch):
    calls = []
    inner = presentations._counted

    def spy(p, groups):
        calls.append((p.rank, frozenset(r.letters for r in p.relators), tuple(groups)))
        return inner(p, groups)

    monkeypatch.setattr(presentations, "_counted", spy)
    small, large = _battery()
    halves = {tuple(g for _, g in half) for half in (small, large)}
    made = Counter()
    for seed in range(40):
        rest, word = _drawn_witness_case(seed)
        calls.clear()
        is_consequence(rest.relators, word, budget=50)
        # rest and rest + word, into the small half, then the large half
        # if the search ran out.
        assert len(calls) == len(set(calls)) <= 4, seed
        assert {groups for *_, groups in calls} <= halves
        made[len(calls)] += 1
    assert set(made) == {0, 2, 4}
