"""simplify keeps the Independent verdicts it has proved across rounds.

A relator proved Independent of the others stays so until a move
rewrites it or uses it: a drop shrinks the normal closure of every other
rest, and a substitution or product rewrites one relator by another,
which keeps the normal closure of every rest holding both.  So simplify
does not search it again, and its moves, final relators and truncation
flag are those of the old loop, which searched every relator in every
round.  `_reference_simplify` is a copy of that loop; the tests compare
the two on the pinned corpora and on seeded presentations, and pin how
many drop searches the carried verdicts save.
"""

from __future__ import annotations

import json
import random
from itertools import chain
from pathlib import Path

import pytest

from braidmono import (
    BraidWord,
    FreeWord,
    Presentation,
    Verdict,
    induced_presentation,
    simplify,
)
from braidmono import presentations
from braidmono.homcount import count_memo
from braidmono.presentations import _word_str, canonical_relator

DATA = Path(__file__).parent / "data"
TIETZE = json.loads((DATA / "tietze_pins.json").read_text(encoding="utf-8"))
PRESENT = json.loads((DATA / "present_pins.json").read_text(encoding="utf-8"))


def _old_drops(rank, rels, max_len, budget):
    drop_len = min(max_len, 2 * max((len(r) for r in rels), default=0) + 4)
    for k in sorted(range(len(rels)), key=lambda k: (-len(rels[k]), -k)):
        rest = [FreeWord(rank, r) for i, r in enumerate(rels) if i != k]
        if rest and presentations.is_consequence(
            rest, FreeWord(rank, rels[k]), max_len=drop_len, budget=budget
        ) is Verdict.DERIVABLE:
            yield "drop derivable relator %s" % _word_str(rels[k]), k, None


def _reference_simplify(p, max_len, budget):
    """simplify as it was when every round searched every relator: its
    moves, final relators and truncation flag."""
    moves, rels = [], []
    for r in p.relators:
        c = canonical_relator(r).letters
        if not c:
            continue
        if c in rels:
            moves.append("drop duplicate relator %s" % _word_str(r.letters))
            continue
        if c != r.letters:
            moves.append("canonicalise %s -> %s" % (_word_str(r.letters), _word_str(c)))
        rels.append(c)
    truncated = False
    with count_memo():
        for _ in range(10_000):
            phases = chain(
                _old_drops(p.rank, rels, max_len, budget),
                (m[:3] for m in presentations._substitutions(p.rank, rels)),
                (m[:3] for m in presentations._products(rels)),
            )
            move = next(phases, None)
            if move is None:
                break
            text, k, new = move
            moves.append(text)
            if new is None:
                del rels[k]
            else:
                rels[k] = new
        else:
            truncated = True
    return tuple(moves), rels, truncated


def _pinned_inputs():
    for rec in TIETZE:
        yield Presentation(rec["rank"], tuple(rec["relators"]))
    for rec in PRESENT:
        yield induced_presentation(BraidWord(rec["strands"], tuple(rec["braid"])))


def _random_word(rng, rank, length):
    letters = []
    while len(letters) < length:
        a = rng.choice([k for k in range(-rank, rank + 1) if k])
        if not letters or letters[-1] != -a:
            letters.append(a)
    return FreeWord(rank, tuple(letters))


def _seeded_inputs(seed, count):
    """Random presentations of 3 to 6 relators, each third with a
    conjugate of one of them, and induced presentations of random
    braids on 3 to 5 strands."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            n = rng.randint(3, 5)
            letters = [rng.choice([1, -1]) * rng.randint(1, n - 1)
                       for _ in range(rng.randint(3, 9))]
            p = induced_presentation(BraidWord(n, tuple(letters)))
            if p.relators:
                yield p
            continue
        rank = rng.randint(2, 3)
        rels = [_random_word(rng, rank, rng.randint(2, 8)) for _ in range(rng.randint(3, 6))]
        if i % 3 == 0:
            rels.append(rng.choice(rels).conjugate(_random_word(rng, rank, 2)))
        yield Presentation(rank, tuple(rels))


def _simplify_both_ways(inputs, monkeypatch):
    """Assert that simplify and the reference agree on every input, and
    return how many drop searches each made (a spy on is_consequence)."""
    calls = []
    inner = presentations.is_consequence

    def spy(relators, word, **kwargs):
        calls.append(word)
        return inner(relators, word, **kwargs)

    monkeypatch.setattr(presentations, "is_consequence", spy)
    carried = reference = 0
    for i, p in enumerate(inputs):
        result = simplify(p, max_len=24, budget=200)
        carried += len(calls)
        calls.clear()
        moves, rels, truncated = _reference_simplify(p, 24, 200)
        reference += len(calls)
        calls.clear()
        assert result.moves == moves, i
        assert [r.letters for r in result.presentation.relators] == rels, i
        assert result.truncated == truncated, i
    return carried, reference


def test_pins_simplify_as_the_reference_loop_does(monkeypatch):
    # The drop searches of the 200 Tietze pins fall from 549 to 504, and
    # those of the 45 rotated model braids from 186 to 171.
    assert _simplify_both_ways(_pinned_inputs(), monkeypatch) == (675, 735)


@pytest.mark.parametrize("seed", [36, 3601])
def test_seeded_presentations_simplify_as_the_reference_loop_does(seed, monkeypatch):
    carried, reference = _simplify_both_ways(_seeded_inputs(seed, 40), monkeypatch)
    assert carried < reference
