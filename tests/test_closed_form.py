"""Tracked braids against the closed-form reference of tests/closed_form.py.

Radius 1/2 is left out only because the reference itself hits the scale
defect of ROADMAP item 6: Motion judges coincidence against an absolute
floor, so strands of modulus about 2^-k for k near 12 are refused.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from braidmono import BraidWord, LoopSpec, braid_equal, motion_to_braid, track_loop
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


@pytest.mark.parametrize("seed", range(1000, 1120))
def test_tracked_braid_from_a_drawn_start_equals_the_reference(seed):
    # The full loop, with the radius and then initial_divisions drawn from
    # the generator that drew the branches.
    rng = random.Random(seed)
    branches = _branches(rng)
    radius, divisions = rng.choice(RADII), rng.choice(DIVISIONS)
    tracked = motion_to_braid(track_loop(branch_curve(branches), LoopSpec(radius=radius),
                                         initial_divisions=divisions))
    assert braid_equal(tracked, reference_braid(branches, radius)), (branches, radius, divisions)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the endpoint step test aliases "
                   "the fast winding of x^100 into a wrong braid with exit 0")
def test_fast_winding_tracks_to_the_reference():
    branches = [(Fraction(1), 100), (Fraction(-1), 100)]
    tracked = motion_to_braid(track_loop(branch_curve(branches), LoopSpec(),
                                         initial_divisions=256))
    assert braid_equal(tracked, reference_braid(branches, Fraction(1)))
