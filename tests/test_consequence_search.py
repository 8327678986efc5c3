"""The consequence search: where it stops, and how much work it does.

`_reference` is the search as it stood when it applied its goal test
to the state it popped: a Derivable answer came from a popped state
that multiplied to the empty word.  The differential test draws
instances and compares is_consequence with it.  A Derivable or
Independent answer is proved, so it must not change; an Unknown answer
only means the budget ran out, so it may become Derivable and nothing
else.  No instance may make more `_cyclic_product` calls than the
reference does.

The work pins count `_cyclic_product` calls on two fixed corpora, made
by is_consequence and by `_reference`, so a change in search work shows
up here and is changed on purpose.
"""

from __future__ import annotations

import heapq
import json
import random
from pathlib import Path

import pytest

import braidmono.catalog as catalog
import braidmono.presentations as P
from braidmono import (
    FreeWord,
    Presentation,
    Verdict,
    fixtures,
    is_consequence,
    n_tangency_fixture,
    simplify,
    verify_fixture,
)
from braidmono.words import invert

TIETZE = json.loads(
    (Path(__file__).parent / "data" / "tietze_pins.json").read_text(encoding="utf-8")
)


def _reference(relators, word, *, max_len=P.DEFAULT_MAX_LEN, budget=P.DEFAULT_BUDGET):
    """The goal test at expansion: stop on a popped state whose product
    with a multiplier cyclically reduces to the empty word."""
    rest = Presentation(word.rank, tuple(relators))
    target = P._cyclic_reduce(word.letters)
    if not target:
        return Verdict.DERIVABLE
    small, large = P._battery()
    if P.witness(rest, word, small) is not None:
        return Verdict.INDEPENDENT
    by_first: dict[int, list[tuple[int, ...]]] = {}
    for rot in dict.fromkeys(rot for r in relators for core in [P._cyclic_reduce(r.letters)]
                             for rot in P._rotations(core) + P._rotations(invert(core))):
        by_first.setdefault(rot[0], []).append(rot)
    start = P._least_rotation(target)
    seen, heap, expanded, tick = {start}, [(len(start), 0, start)], 0, 0
    while heap and expanded < budget:
        state = heapq.heappop(heap)[2]
        expanded += 1
        for end in range(len(state)):
            rot_state = state[end + 1 :] + state[: end + 1]
            for m in by_first.get(-state[end], ()):
                core = P._cyclic_product(rot_state, m, max_len)
                if core is None:
                    continue
                if not core:
                    return Verdict.DERIVABLE
                nxt = P._least_rotation(core)
                if nxt not in seen:
                    seen.add(nxt)
                    tick += 1
                    heapq.heappush(heap, (len(nxt), tick, nxt))
    return Verdict.INDEPENDENT if P.witness(rest, word, large) is not None else Verdict.UNKNOWN


@pytest.fixture
def products(monkeypatch):
    """A list that grows by one entry per `_cyclic_product` call."""
    made = []
    inner = P._cyclic_product

    def spy(s, m, cap):
        made.append(None)
        return inner(s, m, cap)

    monkeypatch.setattr(P, "_cyclic_product", spy)
    return made


def _w(*letters):
    return FreeWord(2, letters)


@pytest.mark.parametrize(
    "relators, word, verdict",
    [
        ([_w(1), _w(2)], _w(1, 2), Verdict.DERIVABLE),
        ([_w(1, 1), _w(2, 2, 2)], _w(1, 2, 2, 2, 1), Verdict.DERIVABLE),
        ([_w(1, 2, -1, -2)], _w(2, 1, -2, -1), Verdict.DERIVABLE),
    ],
)
def test_budget_one(relators, word, verdict):
    """The first two generate a rotation of a relator on the first
    expansion; `_reference` needs a second one and answers Unknown."""
    assert is_consequence(relators, word, budget=1) is verdict


def _random_word(rng, rank, lo, hi):
    """A reduced word of rank `rank` with lo..hi letters."""
    n = rng.randint(lo, hi)
    letters: list[int] = []
    while len(letters) < n:
        a = rng.choice([g for k in range(1, rank + 1) for g in (k, -k)])
        if not letters or letters[-1] != -a:
            letters.append(a)
    return FreeWord(rank, tuple(letters))


def _instance(rng):
    """Relators, a word, max_len and budget.  The word is a random word
    or a product of conjugates of relators and their inverses, so that
    every verdict occurs."""
    rank = rng.randint(2, 4)
    rels = [_random_word(rng, rank, 1, 5) for _ in range(rng.randint(1, 3))]
    word = _random_word(rng, rank, 1, 8)
    if rng.random() < 0.6:
        word = FreeWord(rank)
        for _ in range(rng.randint(1, 3)):
            r = rng.choice(rels)
            r = r if rng.random() < 0.5 else r.inverse()
            word = word * r.conjugate(_random_word(rng, rank, 0, 2))
    return rels, word, rng.randint(6, 20), rng.choice([1, 2, 3, 5, 20, 200])


def test_search_against_the_reference(products):
    rng = random.Random(2029)
    tally: dict[tuple[Verdict, Verdict], int] = {}
    for i in range(240):
        rels, word, max_len, budget = _instance(rng)
        del products[:]
        before = _reference(rels, word, max_len=max_len, budget=budget)
        ref_calls = len(products)
        del products[:]
        now = is_consequence(rels, word, max_len=max_len, budget=budget)
        assert now is before or (before, now) == (Verdict.UNKNOWN, Verdict.DERIVABLE), i
        assert len(products) <= ref_calls, i
        tally[before, now] = tally.get((before, now), 0) + 1
    for v in Verdict:
        assert tally.get((v, v), 0) >= 10, tally


@pytest.mark.parametrize("search, pinned", [(is_consequence, 1266), (_reference, 1898)])
def test_redundancy_checks_of_verify_all_make_pinned_products(
    products, monkeypatch, search, pinned
):
    monkeypatch.setattr(catalog, "is_consequence", search)
    for f in fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)]:
        assert verify_fixture(f).passed, f.fixture_id
    assert len(products) == pinned


@pytest.mark.parametrize("search, pinned", [(is_consequence, 32451), (_reference, 33693)])
def test_simplify_of_the_tietze_pins_makes_pinned_products(
    products, monkeypatch, search, pinned
):
    monkeypatch.setattr(P, "is_consequence", search)
    for rec in TIETZE:
        simplify(Presentation(rec["rank"], tuple(rec["relators"])), max_len=24, budget=200)
    assert len(products) == pinned
