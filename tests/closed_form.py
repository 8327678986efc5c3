"""Closed-form reference braids for curves f = prod_i (y - c_i x^k_i).

Over the circle x = r e^{i theta} the branch y = c x^k has the one root
y(theta) = c r^k e^{i k theta}, so the true fiber motion needs no root
finding.  reference_braid samples it at a step proven small enough and
gives it to motion_to_braid.

The step bound.  Two strands are never closer than S: |c_i - c_j| r^k
for equal exponents, and at least ||c_i| r^k_i - |c_j| r^k_j| otherwise
(the triangle inequality).  Over one step of dtheta, strand i travels
an arc of length |c_i| r^k_i k_i dtheta.  When every such arc is
shorter than S / 2, each strand stays inside the open disc of radius
S / 2 about its start for the whole step, along the true path and
along the chord alike.  These discs are disjoint and convex, so the
straight-line motion that motion_to_braid reads is isotopic to the
true one.  The bound is checked in exact rational arithmetic, with
355/113 > pi.  A curve whose bound is 0 has two strands that meet on
the circle and is refused.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from braidmono import BraidWord, CurveSpec, Motion, Polynomial2, motion_to_braid

Branch = tuple[Fraction, int]  # (c, k): the branch y = c x^k

_PI_ABOVE = Fraction(355, 113)


def branch_curve(branches: Sequence[Branch]) -> CurveSpec:
    """The curve prod (y - c x^k) over the branches."""
    return CurveSpec(tuple(
        Polynomial2.from_dict({(0, 1): Fraction(1), (k, 0): -Fraction(c)}) for c, k in branches
    ))


def separation_bound(branches: Sequence[Branch], radius: Fraction) -> Fraction:
    """A lower bound on the distance between two strands over the circle."""
    moduli = [(abs(Fraction(c)) * radius**k, Fraction(c), k) for c, k in branches]
    return min(
        (abs(ci - cj) * radius**ki if ki == kj else abs(mi - mj)
         for a, (mi, ci, ki) in enumerate(moduli) for mj, cj, kj in moduli[a + 1:]),
        default=Fraction(1),
    )


def reference_braid(
    branches: Sequence[Branch], radius: Fraction, arc: str = "full"
) -> BraidWord:
    """The true braid of the fiber over |x| = radius, on the full loop or
    on the lower half from -radius to +radius, as track_loop runs them."""
    radius = Fraction(radius)
    sep = separation_bound(branches, radius)
    if sep <= 0:
        raise ValueError("two strands meet on the circle |x| = %s" % radius)
    turns = 2 if arc == "full" else 1
    speed = max(abs(Fraction(c)) * radius**k * k for c, k in branches)
    # Each strand travels at most speed * turns * pi / steps per step.
    steps = math.floor(2 * speed * turns * _PI_ABOVE / sep) + 1
    assert speed * turns * _PI_ABOVE / steps < sep / 2
    theta0 = math.pi if arc == "negative-half" else 0.0
    thetas = theta0 + turns * math.pi * np.arange(steps + 1) / steps
    paths = np.array([
        float(c) * float(radius) ** k * np.exp(1j * k * thetas) for c, k in branches
    ])
    times = np.arange(steps + 1) / steps
    return motion_to_braid(Motion(tuple(times.tolist()), paths))
