"""Recorded hom counts of the `verify all` fixtures.

tests/data/hom_counts.json holds every count that verify_fixture made
on the 15 fixtures of `braidmono verify all` at radius 1 when tracked
braids were still compared with their models by hom counts, as they
reach homcount._count: the rank, the relators (sorted), the battery
group's name and the number of homomorphisms.  Those checks made 328
distinct counts, 30 into each battery group and 7 more into each of C2,
C3, C4 and S3 from the consequence witnesses.  A count is exact, so
every record must replay to the same number; the records stay as pins
of the count kernel.

Since tracked-vs-model is decided by braid conjugacy, `verify all` at
radius 1 made 448 `_count` calls and 298 distinct counts (it made 478
and 328).  The 30 counts it no longer made are those of the three
tracked presentations of vertical-tangency, triple-tangency-vertical-line
and vertical-tangency-line-pair over the 10 battery groups.

Since the consequence witnesses are searched only in S3 and C4 before
the search (C2 and C3 embed in S3), it makes 434 calls and 284 distinct
counts: the 7 witness counts into each of C2 and C3 are gone.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import braidmono.homcount as homcount
from braidmono import (
    FreeWord,
    Presentation,
    count_homomorphisms,
    default_targets,
    fixtures,
    n_tangency_fixture,
    verify_fixture,
)

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


def test_verify_all_makes_only_the_recorded_counts(monkeypatch):
    names = {id(table): name for name, table in default_targets()}
    made = []
    inner = homcount._counts

    def spy(rank, relators, groups):
        made.extend((rank, tuple(sorted(map(tuple, relators))), names[id(g)]) for g in groups)
        return inner(rank, relators, groups)

    monkeypatch.setattr(homcount, "_counts", spy)
    for f in fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)]:
        assert verify_fixture(f).passed, f.fixture_id
    recorded = {
        (rec["rank"], tuple(map(tuple, rec["relators"])), rec["group"]) for rec in RECORDED
    }
    assert (len(made), len(set(made))) == (434, 284)
    assert set(made) <= recorded


def test_verify_all_makes_a_pinned_number_of_searches(monkeypatch):
    """Counts that the closed form cannot answer are searched: one search
    per presentation for all its non-abelian groups at once (259 searches
    when each group had a search of its own)."""
    searches = []
    inner = homcount._search

    def spy(t, levels):
        searches.append(len(levels))
        return inner(t, levels)

    monkeypatch.setattr(homcount, "_search", spy)
    for f in fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)]:
        verify_fixture(f)
    assert len(searches) == 49
