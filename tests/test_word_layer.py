"""Pinned outputs of the free-group word layer on the model braids.

tests/data/word_layer.json holds, for each of the 15 fixtures that
`braidmono verify all` runs, the model braid, the exact images of the
generators under its Artin action, the induced relators, and the moves
and final relators of simplify(max_len=24, budget=200).  The values
were recorded before free reduction, substitution and the relator
formula were consolidated, and before the consequence search was made
cheaper, so any change in word arithmetic or in the search's verdicts
shows here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from braidmono import braid_images, fixture_by_id, induced_presentation, simplify

PINNED = json.loads(
    (Path(__file__).parent / "data" / "word_layer.json").read_text(encoding="utf-8")
)


def _letters(words):
    return [list(w.letters) for w in words]


def test_pins_cover_verify_all():
    assert len(PINNED) == 15
    assert sum("simplify_moves" in rec for rec in PINNED.values()) == 15


@pytest.mark.parametrize("fixture_id", list(PINNED))
def test_model_braid_images_and_relators(fixture_id):
    rec = PINNED[fixture_id]
    braid = fixture_by_id(fixture_id).model_program.braid()
    assert list(braid.letters) == rec["braid"]
    assert _letters(braid_images(braid)) == rec["images"]
    assert _letters(induced_presentation(braid).relators) == rec["relators"]


@pytest.mark.parametrize("fixture_id", list(PINNED))
def test_model_presentation_simplifies_as_pinned(fixture_id):
    rec = PINNED[fixture_id]
    braid = fixture_by_id(fixture_id).model_program.braid()
    result = simplify(induced_presentation(braid), max_len=24, budget=200)
    assert list(result.moves) == rec["simplify_moves"]
    assert _letters(result.presentation.relators) == rec["simplify_final"]
    assert not result.truncated
