"""Pinned simplifications of the rotated model braids.

tests/data/present_pins.json holds, for each of the 15 fixtures that
`braidmono verify all` runs and each shift k in 1..3, the model braid
rotated by k letters (its first k letters moved to the back), and the
moves, final relators and truncation flag of
simplify(induced_presentation(braid), max_len=24, budget=200).  These
are the inputs of the present-catalogue benchmark workload other than
rotation 0, which word_layer.json pins.  The values were recorded
before simplify ruled out product candidates by length and before the
consequence witnesses were searched in fewer battery groups, so any
change in the moves or the verdicts behind them shows here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from braidmono import BraidWord, fixture_by_id, induced_presentation, simplify

PINNED = json.loads(
    (Path(__file__).parent / "data" / "present_pins.json").read_text(encoding="utf-8")
)


def test_pins_cover_three_rotations_of_verify_all():
    assert len(PINNED) == 45
    assert len({rec["fixture"] for rec in PINNED}) == 15
    assert sorted({rec["shift"] for rec in PINNED}) == [1, 2, 3]
    moves = [m.split()[0] for rec in PINNED for m in rec["simplify_moves"]]
    for kind in ("canonicalise", "drop", "substitute", "multiply"):
        assert kind in moves, kind


@pytest.mark.parametrize("i", range(len(PINNED)))
def test_rotated_model_presentation_simplifies_as_pinned(i):
    rec = PINNED[i]
    f = fixture_by_id(rec["fixture"])
    model = BraidWord(f.expected_relations.rank, f.model_letters)
    k = rec["shift"]
    braid = BraidWord(model.strands, model.letters[k:] + model.letters[:k])
    assert list(braid.letters) == rec["braid"]
    result = simplify(induced_presentation(braid), max_len=24, budget=200)
    assert list(result.moves) == rec["simplify_moves"]
    assert [list(r.letters) for r in result.presentation.relators] == rec["simplify_final"]
    assert result.truncated == rec["truncated"]
