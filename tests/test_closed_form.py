"""Tracked braids against the closed-form reference of tests/closed_form.py.

Seeded curves of the family are drawn on the circles of RADII; the
catalogue fixtures of the family are pinned at the radii that verify
is benchmarked on, 1/2 to 3/2.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from braidmono import (
    BraidWord,
    LoopSpec,
    braid_equal,
    fixture_by_id,
    lefschetz_braid,
    motion_to_braid,
    track_loop,
    tracker,
)
from closed_form import branch_curve, reference_braid, separation_bound

RADII = (Fraction(3, 4), Fraction(1))
DIVISIONS = (1, 2, 3, 4, 8, 64, 256)


def _branches(rng: random.Random) -> list[tuple[Fraction, int]]:
    """2-4 distinct branches y = c x^k, |c| <= 3 in halves, k <= 12, whose
    strands stay apart on every circle of RADII."""
    while True:
        branches: dict[Fraction, set[int]] = {}
        for _ in range(rng.randint(2, 4)):
            c = Fraction(rng.randint(-6, 6), 2)
            branches.setdefault(c, set()).add(rng.randint(0, 12) if c else 0)
        out = [(c, k) for c, ks in branches.items() for k in ks]
        if len(out) >= 2 and all(separation_bound(out, r) > 0 for r in RADII):
            return out


def test_reference_of_a_tangency_is_the_known_braid():
    branches = [(Fraction(1), 2), (Fraction(-1), 2)]
    assert braid_equal(reference_braid(branches, Fraction(1)), BraidWord(2, (1, 1, 1, 1)))
    assert braid_equal(reference_braid(branches, Fraction(1), "negative-half"),
                       BraidWord(2, (1, 1)))
    with pytest.raises(ValueError, match="meet"):
        reference_braid([(Fraction(1), 2), (Fraction(-1), 3)], Fraction(1))


@pytest.mark.parametrize("seed", range(30))
def test_tracked_braid_equals_the_closed_form_reference(seed):
    branches = _branches(random.Random(seed))
    curve = branch_curve(branches)
    for radius in RADII:
        for arc in ("full", "negative-half"):
            tracked = motion_to_braid(track_loop(curve, LoopSpec(radius=radius, arc=arc)))
            assert braid_equal(tracked, reference_braid(branches, radius, arc)), (
                branches, radius, arc)


# The fixtures built from factors y - c x^k, up to a constant factor, and
# the radii of the verify benchmark; kept apart from RADII, so that the
# seeded draws above and below stay as they are.
FAMILY_FIXTURES = (
    "two-tangent-conics", "tangent-conics-secant-below", "tangent-conics-secant-above",
    "triple-tangency", "triple-tangency-secant-below", "triple-tangency-secant-above",
    "double-secant", "conic-line-tangency-secant-below", "conic-line-tangency-secant-above",
    *("n-tangency-%d" % n for n in range(2, 7)),
)
FIXTURE_RADII = (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4), Fraction(3, 2))


def _fixture_branches(curve) -> list[tuple[Fraction, int]]:
    """The branch (c, k) of each factor a y + b x^k of the curve, c = -b/a."""
    out = []
    for factor in curve.factors:
        lead, rest = factor.y_coefficient(1), factor.y_coefficient(0)
        assert factor.degree_y == 1 and list(lead) == [0] and len(rest) <= 1, str(factor)
        ((k, b),) = rest.items() or [(0, 0)]
        out.append((-Fraction(b) / lead[0], k))
    return out


@pytest.mark.parametrize("radius", FIXTURE_RADII, ids=str)
@pytest.mark.parametrize("fixture_id", FAMILY_FIXTURES)
def test_family_fixture_braids_equal_the_closed_form_reference(fixture_id, radius):
    curve = fixture_by_id(fixture_id).curve
    branches = _fixture_branches(curve)
    motion = track_loop(curve, LoopSpec(radius=radius))
    half = motion_to_braid(track_loop(curve, LoopSpec(radius=radius, arc="negative-half")))
    assert braid_equal(motion_to_braid(motion), reference_braid(branches, radius))
    reference_half = reference_braid(branches, radius, "negative-half")
    assert braid_equal(lefschetz_braid(motion), reference_half)
    assert braid_equal(half, reference_half)


@pytest.mark.parametrize("seed", range(1000, 1120))
def test_tracked_braid_from_a_drawn_start_equals_the_reference(monkeypatch, seed):
    # The full loop, with the radius and then the tracker's start divisions
    # drawn from the generator that drew the branches.
    rng = random.Random(seed)
    branches = _branches(rng)
    radius, divisions = rng.choice(RADII), rng.choice(DIVISIONS)
    monkeypatch.setattr(tracker, "_START_DIVISIONS", divisions)
    tracked = motion_to_braid(track_loop(branch_curve(branches), LoopSpec(radius=radius)))
    assert braid_equal(tracked, reference_braid(branches, radius)), (branches, radius, divisions)


def test_fast_winding_tracks_to_the_reference():
    branches = [(Fraction(1), 100), (Fraction(-1), 100)]
    tracked = motion_to_braid(track_loop(branch_curve(branches), LoopSpec()))
    assert braid_equal(tracked, reference_braid(branches, Fraction(1)))
