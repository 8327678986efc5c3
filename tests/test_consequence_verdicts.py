"""Recorded verdicts of the consequence search on the model braids.

tests/data/consequence_verdicts.json holds every distinct
is_consequence call that simplify(max_len=24, budget=200) makes on the
cyclic rotations by 0..3 letters of the model braids of the 15
fixtures that `braidmono verify all` runs: the rank, the other
relators, the word, the length cap, the budget and the verdict.  Those
simplifications make 248 calls, 119 of them distinct: 19 Derivable and
100 Unknown.

A Derivable answer is a derivation, so it must stay Derivable.  A
recorded Unknown only meant that the budget ran out.  Every recorded
Unknown word has a witness among default_targets(), in C2 or S3, and
is_consequence tries S3 and C4 before it searches, so each replays as
Independent, proved by that finite quotient, and no search runs.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from braidmono import FreeWord, Presentation, Verdict, default_targets, is_consequence
from braidmono.presentations import witness

RECORDED = json.loads(
    (Path(__file__).parent / "data" / "consequence_verdicts.json").read_text(
        encoding="utf-8"
    )
)


def test_recorded_calls():
    assert len(RECORDED) == 119
    assert Counter(rec["verdict"] for rec in RECORDED) == {
        "Derivable": 19,
        "Unknown": 100,
    }


def test_recorded_verdicts_replay():
    for i, rec in enumerate(RECORDED):
        rank = rec["rank"]
        got = is_consequence(
            [FreeWord(rank, tuple(r)) for r in rec["rest"]],
            FreeWord(rank, tuple(rec["word"])),
            max_len=rec["max_len"],
            budget=rec["budget"],
        )
        if rec["verdict"] == "Derivable":
            assert got is Verdict.DERIVABLE, i
        else:
            assert got is Verdict.INDEPENDENT, i


def test_recorded_unknowns_have_witnesses():
    targets = default_targets()
    names = Counter()
    for rec in RECORDED:
        rank = rec["rank"]
        rest = Presentation(rank, tuple(FreeWord(rank, tuple(r)) for r in rec["rest"]))
        found = witness(rest, FreeWord(rank, tuple(rec["word"])), targets)
        assert (found is None) == (rec["verdict"] == "Derivable")
        names[found] += 1
    assert names == {None: 19, "C2": 14, "S3": 86}
