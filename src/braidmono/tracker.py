"""Numerical fiber tracking around loops in the x-plane.

The fiber of a curve over a point x0 is the set of y-roots of its
factors, each solved on its own and never multiplied out: the roots of
a product are worse conditioned than those of its factors (Wilkinson,
"The perfidious polynomial", 1984), and where two factors nearly meet
the product's roots blur into noise.  Tracking moves x around a circle,
re-solves the fiber at each sample, and continues each root of the
previous sample by the matching rule of motion.nearest_match.  A step
is accepted only when every root of the previous fiber has a distinct
nearest new root within half that root's distance to its nearest
neighbour; otherwise the step is halved.  These discs are pairwise
disjoint, so an accepted step continues each root unambiguously, and
an isolated root does not hold the whole fiber to the pace of its
closest pair.  The test sees only the sampled endpoints of a step, so
it cannot detect two roots that wind round each other within one step.
The first step is arc/256, no step exceeds arc/64, and eight accepted
steps in a row double the step up to that cap.
The walk goes in runs: a run is the angles it would take if every
step were accepted, up to and including the first at a grown size
(the probe), or to the end of the loop at the largest size.  Its
fibers, with the basepoint's in the first run, are solved in one batch
(one division per line, one eigenvalue call per higher y-degree), and
the step test of every fiber against its predecessor is one array
pass; the run is then walked in order, and a rejected step ends it and
drops the rest of its fibers.  A rejected probe, the likeliest
rejection, is the last fiber of its run, so it wastes no other.
The last step of a full loop ends on the basepoint itself, and its new
fiber is the basepoint's fiber solved at the start, not solved again:
its step test closes the loop, which thus ends on a permutation of its
starting fiber.  A step that would pass the half turn (angle pi) by
more than _HALF_TOL ends on it, so a full loop has a sample at time 0.5
however its steps fall.

The resulting strand paths form a Motion whose braid word is the local
monodromy of the loop.  The part of a full loop's motion from its half
turn on is the lower half of the circle (from -radius to +radius): its
braid is the half-loop braid used to compare a full degeneration
against its square.  The "negative-half" arc tracks that half alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal

import numpy as np

from .curves import CurveSpec
from .errors import (
    BraidMonoError,
    CriticalFiberError,
    GeometryError,
    ImproperProjectionError,
    TrackingFailureError,
)
from .motion import Motion, _rational, _scale, motion_to_braid, strand_key
from .words import BraidWord

_SEPARATION_TOL = 1e-9
_MIN_STEP_FRACTION = 2.0**-40
_START_DIVISIONS = 256
_HALF_TOL = 1e-9


@dataclass(frozen=True)
class LoopSpec:
    """Circle |x - center| = radius, traversed counterclockwise.

    arc "full" starts and ends at center + radius; arc "negative-half"
    runs from center - radius to center + radius through the lower half
    plane (angle pi -> 2 pi).
    """

    center: complex = 0j
    radius: Fraction = Fraction(1)
    arc: Literal["full", "negative-half"] = "full"
    _radius: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r = _rational(self.radius, "loop radius")
        if r <= 0:
            raise GeometryError("loop radius must be positive")
        try:
            as_float = float(r)
        except OverflowError:
            as_float = math.inf
        if not 0.0 < as_float < math.inf:
            raise GeometryError("loop radius is out of floating-point range")
        if self.arc not in ("full", "negative-half"):
            raise GeometryError("arc must be 'full' or 'negative-half'")
        try:
            center = complex(self.center)
        except (TypeError, ValueError, OverflowError):
            center = complex(math.nan)
        if not cmath.isfinite(center):
            raise GeometryError("loop center must be a finite complex number, not %r"
                                % (self.center,))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "_radius", as_float)

    @property
    def angle_range(self) -> tuple[float, float]:
        if self.arc == "full":
            return (0.0, 2.0 * math.pi)
        return (math.pi, 2.0 * math.pi)

    def point(self, theta: float) -> complex:
        return self.center + self._radius * cmath.exp(1j * theta)

    @property
    def basepoint(self) -> complex:
        return self.center + complex(self._radius if self.arc == "full" else -self._radius)


def _solve_fibers(curve, xs: list[complex]) -> list[np.ndarray | BraidMonoError]:
    """All fiber roots over each point of xs, unsorted, in one batch.

    A fiber is its factors' roots in factor order.  A point fails a guard
    when one of its factor rows does, and gets the error of the first
    guard it fails in place of roots.  A line's root is -c0/c1, the entry
    of its 1x1 companion matrix.  The roots of a factor of higher
    y-degree m are the eigenvalues of its companion matrix, the one
    np.roots builds, and all rows of y-degree m go to one eigvals call.
    Only rows that stay finite once monic are solved, so eigvals never
    sees an inf.
    """
    x = np.array(xs, dtype=complex)
    parts = [None] * len(curve.factors)
    fails = np.zeros((4, len(xs)), dtype=bool)
    with np.errstate(all="ignore"):  # a non-finite row fails a guard below
        modulus = np.hypot(x.real, x.imag)
        for m in {f.degree_y for f in curve.factors}:
            group = [k for k, f in enumerate(curve.factors) if f.degree_y == m]
            rows = np.concatenate([curve.factors[k].y_coeffs_at(x) for k in group])
            # The leading y-coefficient a(x) = sum_j a_j x^j counts as
            # vanishing where |a(x)| is small beside sum_j |a_j| |x|^j.
            size = np.concatenate([sum(abs(v) * modulus**j for (j, d), v in
                                       curve.factors[k].float_coeffs if d == m) for k in group])
            ratios = -rows[:, 1:] / rows[:, :1]
            good = np.isfinite(ratios).all(axis=1)
            fails |= np.array([
                ~np.isfinite(rows).all(axis=1), ~rows.any(axis=1),
                np.hypot(rows[:, 0].real, rows[:, 0].imag) <= 1e-12 * size, ~good,
            ]).reshape(4, len(group), -1).any(axis=1)
            if m == 1:
                roots = ratios
            else:
                roots = np.zeros((len(rows), m), dtype=complex)
                companion = np.zeros((np.count_nonzero(good), m, m), dtype=complex)
                companion[:, np.arange(1, m), np.arange(m - 1)] = 1
                companion[:, 0, :] = ratios[good]
                roots[good] = np.linalg.eigvals(companion)
            for k, part in zip(group, roots.reshape(len(group), len(xs), m)):
                parts[k] = part
    out: list[np.ndarray | BraidMonoError] = list(np.hstack(parts))
    guards = (
        (TrackingFailureError, "fiber polynomial at x=%s is out of floating-point range"),
        (CriticalFiberError, "curve vanishes identically over x=%s"),
        (ImproperProjectionError,
         "leading y-coefficient vanishes near x=%s (curve has a branch at infinity)"),
        (TrackingFailureError, "fiber polynomial at x=%s overflows once monic"),
    )
    # fails[g, i]: a factor row over xs[i] fails guard g; the first names the error.
    for i in np.flatnonzero(fails.any(axis=0)).tolist():
        error, message = guards[fails[:, i].argmax()]
        out[i] = error(message % xs[i])
    return out


def _separations(fibers: np.ndarray) -> np.ndarray:
    """Each root's distance to its nearest neighbour in its row; inf for a
    lone root.  A row's minimum is its least pairwise separation."""
    n = fibers.shape[1]
    diffs = np.abs(fibers[:, :, None] - fibers[:, None, :])
    diffs[:, np.arange(n), np.arange(n)] = math.inf
    return diffs.min(axis=2, initial=math.inf)


def _step_test(chain: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """nearest_match's rule for each row of chain against the row before.

    chain is (K + 1, n): a fiber and the K fibers that follow it, each
    matched to its predecessor with a tolerance per root: half that
    root's distance to its nearest neighbour in the predecessor.  These
    discs are pairwise disjoint, so a matching that stands is the one
    bijection they allow.  Returns near, where near[k, i] is the root of
    row k + 1 nearest to root i of row k (the first on ties); ok[k],
    whether that matching stands; and the least separation and scale of
    each predecessor.  Distances are np.hypot of the parts, which is
    bit-identical to abs() of a Python complex where np.abs need not be.
    """
    prev, new = chain[:-1], chain[1:]
    diff = new[:, None, :] - prev[:, :, None]
    dist = np.hypot(diff.real, diff.imag)
    near = dist.argmin(axis=2)
    gaps = _separations(prev)
    far = dist.min(axis=2) > 0.5 * gaps
    ordered = np.sort(near, axis=1)
    shared = ordered[:, 1:] == ordered[:, :-1]
    ok = ~far.any(axis=1) & ~shared.any(axis=1)
    return near, ok, gaps.min(axis=1, initial=math.inf), _scale(prev.T)


def _grow(step: float, streak: int, max_step: float) -> tuple[float, int]:
    """Step and streak after an accepted step: 8 in a row double the step, up to max_step."""
    return (min(step * 2.0, max_step), 0) if streak == 7 else (step, streak + 1)


def track_loop(curve: CurveSpec, loop: LoopSpec) -> Motion:
    """Track the fiber around the loop; returns the strand Motion.

    The motion's time axis is the loop parameter normalised to [0, 1].
    Strand k starts at the k-th root of the sorted basepoint fiber.
    """
    theta0, theta1 = loop.angle_range
    arc = theta1 - theta0

    thetas, samples = [theta0], []
    min_step, max_step = arc * _MIN_STEP_FRACTION, arc / 64.0
    step = min(arc / _START_DIVISIONS, max_step)
    theta, streak = theta0, 0

    while theta < theta1 - 1e-15:
        # One run: the angles the walk takes if every step is accepted, up to
        # and including the probe (the first at a grown size), or to the end
        # at the largest size.  The first batch also solves the basepoint.
        targets, t, size, n = [], theta, step, streak
        while t < theta1 - 1e-15:
            before_half = t < math.pi - _HALF_TOL
            t += min(size, theta1 - t)
            if before_half and t > math.pi + _HALF_TOL:
                t = math.pi  # a step past the half turn ends on it
            targets.append(t)
            if size > step:
                break
            size, n = _grow(size, n, max_step)
        # A full loop's last step ends on the basepoint and reuses its fiber.
        closing = loop.arc == "full" and targets[-1] >= theta1 - 1e-15
        xs = [loop.point(t) for t in targets[:len(targets) - closing]]
        fibers = _solve_fibers(curve, xs if samples else [loop.basepoint, *xs])
        if not samples:
            start = fibers.pop(0)
            if isinstance(start, BraidMonoError):
                raise start
            sep = _separations(start[None]).min(initial=math.inf)
            if sep <= 2.0 * _SEPARATION_TOL * _scale(start):
                raise CriticalFiberError("fiber over x=%s has nearly coincident roots "
                                         "(separation %.3e)" % (loop.basepoint, sep))
            start_sorted = sorted((complex(z) for z in start), key=strand_key)
            current = np.asarray(start_sorted, dtype=complex)
            samples.append(current)
        fibers += [start] * closing
        # The step test of the fibers before the first error, in one pass;
        # the walk below checks each in order, as a step at a time would.
        solved = next((k for k, f in enumerate(fibers) if isinstance(f, Exception)), len(fibers))
        near, ok, sep, scale = _step_test(np.array([current, *fibers[:solved]]))
        perm = np.arange(len(current))
        for k, target in enumerate(targets):
            if k == solved:
                raise fibers[k]
            if sep[k] <= 2.0 * _SEPARATION_TOL * scale[k]:
                raise CriticalFiberError("fiber separation collapsed at loop angle %.6f" % theta)
            if not ok[k]:
                step = min(step, theta1 - theta) / 2.0
                if step < min_step:
                    raise TrackingFailureError(
                        "step underflow at loop angle %.6f (fiber too unstable)" % theta
                    )
                streak = 0
                break
            # Strand i is root perm[i] of row k; continue it to row k + 1.
            perm = near[k][perm]
            current = fibers[k][perm]
            theta = target
            thetas.append(theta)
            samples.append(current)
            step, streak = _grow(step, streak, max_step)

    times = [(t - theta0) / arc for t in thetas]
    times[0], times[-1] = 0.0, 1.0
    return Motion(tuple(times), np.array(samples).T)


def lefschetz_braid(full: Motion) -> BraidWord:
    """Braid of a full loop's motion from its sample at the half turn on:
    the lower half loop, from center - radius to center + radius."""
    k = int(np.argmin(np.abs(np.subtract(full.times, 0.5))))
    if abs(full.times[k] - 0.5) > _HALF_TOL:
        raise GeometryError("motion has no sample at the half turn")
    return motion_to_braid(Motion(full.times[k:], full.paths[:, k:]))
