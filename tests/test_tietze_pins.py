"""Pinned Tietze moves on a corpus of random presentations.

tests/data/tietze_pins.json holds the first 200 presentations drawn by
the seed-90704 generator of the Tietze property suite in
test_acceptance.py, stored as inputs so that no generator code is
needed here.  For each one it records the moves, final relators and
truncation flag of simplify(max_len=24, budget=200), and the rank and
relators that eliminate_generators leaves from its nontrivial
relators.  The values were recorded before simplify and
eliminate_generators were made to share one donor search.  Unlike the
model-braid pins in word_layer.json, this corpus exercises the
substitution and multiplication phases and eliminates generators.
"""

from __future__ import annotations

import json
from pathlib import Path

from braidmono import Presentation, simplify
from braidmono.words import eliminate_generators

PINNED = json.loads(
    (Path(__file__).parent / "data" / "tietze_pins.json").read_text(encoding="utf-8")
)


def test_pins_exercise_every_phase():
    assert len(PINNED) == 200
    moves = [m.split()[0] for rec in PINNED for m in rec["simplify_moves"]]
    for kind in ("canonicalise", "drop", "substitute", "multiply"):
        assert kind in moves, kind
    assert any(rec["eliminated_rank"] < rec["rank"] for rec in PINNED)


def test_simplify_as_pinned():
    for i, rec in enumerate(PINNED):
        p = Presentation(rec["rank"], tuple(rec["relators"]))
        result = simplify(p, max_len=24, budget=200)
        got = [list(r.letters) for r in result.presentation.relators]
        assert list(result.moves) == rec["simplify_moves"], i
        assert got == rec["simplify_final"], i
        assert result.truncated == rec["truncated"], i


def test_eliminate_generators_as_pinned():
    for i, rec in enumerate(PINNED):
        rels = [tuple(r) for r in rec["relators"] if r]
        rank, left = eliminate_generators(rec["rank"], rels)
        assert rank == rec["eliminated_rank"], i
        assert [list(r) for r in left] == rec["eliminated_relators"], i
