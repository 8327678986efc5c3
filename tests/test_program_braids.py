"""Pinned braids of the catalogue's motion programs.

tests/data/program_braids.json holds, for the model and the Lefschetz
program of each of the twelve fixtures and of n-tangency-2..6, the
braid letters, the strand and sample counts of `to_motion`, and its
matching permutation.  The values were recorded before motion
composition was rewritten to run in one pass, so any change in how a
program's moves are joined shows here.  Each fixture states its model
and half-loop braid words; they are checked here against the braids of
the programs, letter for letter, and `Fixture.model_program`, which
encodes the model word as adjacent half-twists, must give it back.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from braidmono import BraidWord, fixture_by_id
from catalog_programs import program

PINNED = json.loads(
    (Path(__file__).parent / "data" / "program_braids.json").read_text(encoding="utf-8")
)


def test_pins_cover_the_catalogue():
    assert len(PINNED) == 17
    assert all(set(rec) == {"model", "lefschetz"} for rec in PINNED.values())


@pytest.mark.parametrize("kind", ["model", "lefschetz"])
@pytest.mark.parametrize("fixture_id", sorted(PINNED))
def test_program_braid_is_pinned(fixture_id, kind):
    rec = PINNED[fixture_id][kind]
    p = program(fixture_id, kind)
    motion = p.to_motion()
    braid = p.braid()
    assert braid.strands == rec["strands"]
    assert list(braid.letters) == rec["letters"]
    assert len(motion.times) == rec["samples"]
    assert list(motion.matching_permutation().images) == rec["permutation"]


@pytest.mark.parametrize("kind", ["model", "lefschetz"])
@pytest.mark.parametrize("fixture_id", sorted(PINNED))
def test_stated_word_is_the_program_braid(fixture_id, kind):
    f = fixture_by_id(fixture_id)
    braid = program(fixture_id, kind).braid()
    assert braid.letters == getattr(f, kind + "_letters")
    assert braid.strands == f.expected_relations.rank


@pytest.mark.parametrize("fixture_id", sorted(PINNED))
def test_model_program_gives_back_the_stated_word(fixture_id):
    f = fixture_by_id(fixture_id)
    program = f.model_program
    assert program.points == tuple(range(1, f.expected_relations.rank + 1))
    assert program.braid() == BraidWord(f.expected_relations.rank, f.model_letters)
