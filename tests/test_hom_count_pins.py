"""Recorded hom counts of the `verify all` fixtures.

tests/data/hom_counts.json holds every count that verify_fixture makes
on the 15 fixtures of `braidmono verify all` at radius 1, as they reach
homcount._count: the rank, the relators (sorted), the battery group's
name and the number of homomorphisms.  Those checks make 328 distinct
counts, 30 into each battery group and 7 more into each of C2, C3, C4
and S3 from the consequence witnesses.  A count is exact, so every
record must replay to the same number.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from braidmono import FreeWord, Presentation, count_homomorphisms, default_targets

RECORDED = json.loads(
    (Path(__file__).parent / "data" / "hom_counts.json").read_text(encoding="utf-8")
)


def test_recorded_counts():
    assert len(RECORDED) == 328
    assert Counter(rec["group"] for rec in RECORDED) == {
        name: 37 if name in ("C2", "C3", "C4", "S3") else 30
        for name, _ in default_targets()
    }


def test_recorded_counts_replay():
    groups = dict(default_targets())
    for i, rec in enumerate(RECORDED):
        rank = rec["rank"]
        p = Presentation(rank, tuple(FreeWord(rank, tuple(r)) for r in rec["relators"]))
        assert count_homomorphisms(p, groups[rec["group"]]) == rec["count"], i
