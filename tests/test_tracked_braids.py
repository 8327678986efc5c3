"""Pinned braids of the tracked fiber motions.

tests/data/tracked_braids.json holds, for the fifteen fixtures of
`verify all` on the unit circle, the braid letters and the sample count
of `track_loop` on the full loop and on the negative-half loop.  The
letters pin the order in which simultaneous crossings are written,
which `braid_equal` alone would not notice.
tests/data/tracked_braids_radii.json holds the same record for the
other radii that the benchmark's verify workload draws: 1/2, 3/4, 5/4
and 3/2.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from braidmono import LoopSpec, fixture_by_id, motion_to_braid, track_loop

DATA = Path(__file__).parent / "data"
PINNED = json.loads((DATA / "tracked_braids.json").read_text(encoding="utf-8"))
PINNED_RADII = json.loads((DATA / "tracked_braids_radii.json").read_text(encoding="utf-8"))


def test_pins_cover_verify_all():
    assert len(PINNED) == 15
    assert all(set(rec) == {"full", "negative-half"} for rec in PINNED.values())


@pytest.mark.parametrize("arc", ["full", "negative-half"])
@pytest.mark.parametrize("fixture_id", sorted(PINNED))
def test_tracked_braid_is_pinned(fixture_id, arc):
    rec = PINNED[fixture_id][arc]
    motion = track_loop(fixture_by_id(fixture_id).curve, LoopSpec(arc=arc))
    assert list(motion_to_braid(motion).letters) == rec["letters"]
    assert len(motion.times) == rec["samples"]


def test_radius_pins_cover_verify_all():
    assert sorted(PINNED_RADII) == ["1/2", "3/2", "3/4", "5/4"]
    assert all(set(recs) == set(PINNED) for recs in PINNED_RADII.values())


@pytest.mark.parametrize("arc", ["full", "negative-half"])
@pytest.mark.parametrize("fixture_id", sorted(PINNED))
@pytest.mark.parametrize("radius", sorted(PINNED_RADII))
def test_tracked_braid_is_pinned_at_radius(radius, fixture_id, arc):
    rec = PINNED_RADII[radius][fixture_id][arc]
    loop = LoopSpec(radius=Fraction(radius), arc=arc)
    motion = track_loop(fixture_by_id(fixture_id).curve, loop)
    assert list(motion_to_braid(motion).letters) == rec["letters"]
    assert len(motion.times) == rec["samples"]
