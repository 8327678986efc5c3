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
closest pair.  Each strand keeps the factor of its basepoint root, and
a step that matches a root to a root of another factor is rejected too:
a root continued along a path that meets no critical value stays a root
of its factor.  The test sees only the sampled endpoints of a step, so
it cannot detect, within one step, two roots of one factor that wind
round each other, or roots of two factors that wind whole turns round
each other.
The first step is arc/256, no step exceeds arc/64, and eight accepted
steps in a row double the step up to that cap.
The walk goes in runs: a run is the angles it would take if every step
were accepted, to the end of the loop.  Once a step has been rejected,
a run plans past as many probes (steps at a grown size, the likeliest
to be rejected) as the run before it, as if each were rejected, and
ends at the next probe; a rejected probe doubles that number (0 to 1),
an accepted one sets it to 1 and another rejected step to 0.  A run's
fibers, with the basepoint's in the first run, are solved in one batch
(one division per line, one eigenvalue call per higher y-degree), and
the step test of every fiber against its predecessor (the fiber before
it or, after a probe planned past, that probe's predecessor) is one
array pass.  The steps before the first that departs from the plan (it
fails, or a probe planned past stands) are taken at once; that one is
judged as a walk of one step at a time would judge it (a guard error,
then a collapsed separation, then the match), and the rest of the
run's fibers, errors included, are dropped.  A loop that rejects no
step is one batch.
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

from .curves import CurveSpec, _to_float
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
        as_float = _to_float(r)
        if not 0.0 < as_float < math.inf:
            raise GeometryError("loop radius is out of floating-point range")
        if self.arc not in ("full", "negative-half"):
            raise GeometryError("arc must be 'full' or 'negative-half'")
        try:
            center = complex(self.center)
        except (TypeError, ValueError, OverflowError):
            center = complex(math.nan)
        if not cmath.isfinite(center):
            raise GeometryError("loop center must be a finite complex number, not %.40r"
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


def _step_test(prev: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, ...]:
    """nearest_match's rule for each row of new against the same row of prev.

    prev and new are (K, n): K pairs of a fiber and its predecessor, each
    fiber matched to its predecessor with a tolerance per root: half that
    root's distance to its nearest neighbour in the predecessor.  These
    discs are pairwise disjoint, so a matching that stands is the one
    bijection they allow.  Returns near, where near[k, i] is the root of
    new[k] nearest to root i of prev[k] (the first on ties); ok[k],
    whether that matching stands; and the least separation and scale of
    each predecessor.  Distances are np.hypot of the parts, which is
    bit-identical to abs() of a Python complex where np.abs need not be.
    """
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
    Strand k starts at the k-th root of the basepoint fiber sorted by
    strand_key (a stable sort of the roots in factor order).  After a
    rejected step, a run plans past as many probes as the run before it
    did, as if each were rejected, and ends at the next probe; the walk
    takes exactly the steps of a walk of one step at a time.
    """
    theta0, theta1 = loop.angle_range
    arc = theta1 - theta0

    thetas, samples = [theta0], []
    min_step, max_step = arc * _MIN_STEP_FRACTION, arc / 64.0
    step = min(arc / _START_DIVISIONS, max_step)
    theta, streak, past = theta0, 0, -1  # probes a run plans past; -1: none rejected yet
    owner = np.repeat(np.arange(len(curve.factors)), [f.degree_y for f in curve.factors])

    while theta < theta1 - 1e-15:
        # One run; after[k] is the walk's step and streak before targets[k]
        # as planned, planned[k] whether targets[k] is a probe planned past.
        # The first batch also solves the basepoint.
        targets, planned, after, t, size, n, base = [], [], [(step, streak)], theta, step, streak, step
        while t < theta1 - 1e-15:
            before_half = t < math.pi - _HALF_TOL
            t += min(size, theta1 - t)
            if before_half and t > math.pi + _HALF_TOL:
                t = math.pi  # a step past the half turn ends on it
            targets.append(t)
            planned.append(False)
            after.append(_grow(size, n, max_step))
            if past < 0 or size <= base:
                size, n = after[-1]
                continue
            base = min(size, theta1 - targets[-2]) / 2.0  # from the probe's start
            if sum(planned) == past or t >= theta1 - 1e-15 or base < min_step:
                break
            planned[-1] = True
            t, size, n = targets[-2], base, 0
            after[-1] = size, n
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
            last, perm = start, np.argsort(strand_key(start), kind="stable").tolist()
            samples.append(start[perm][None])  # perm[i]: the column strand i occupies
        fibers += [start] * closing
        # The step test of the fibers before the first error, in one pass.  Each is
        # tested against its predecessor: the fiber before it or, after a probe
        # planned past, that probe's predecessor (the step after one is no probe).
        solved = next((k for k, f in enumerate(fibers) if isinstance(f, Exception)), len(fibers))
        rows = np.array([last, *fibers[:solved]])
        planned, pred = np.array(planned[:solved], dtype=bool), np.arange(solved)
        pred[1:] -= planned[:-1]
        near, ok, sep, scale = _step_test(rows[pred], rows[1:])
        ok &= (owner[near] == owner).all(axis=1)  # a root stays on its factor
        collapsed = sep <= 2.0 * _SEPARATION_TOL * scale
        # Steps 0..k-1 go as planned and are taken at once; step k, if planned,
        # departs from the plan (it fails, or a planned-past probe stands) and
        # is checked as a step at a time would: error, then separation, then match.
        k = next(iter(np.flatnonzero(collapsed | (ok == planned)).tolist()), solved)
        stood = k < solved and planned[k] and not collapsed[k]
        taken = np.flatnonzero(ok[:k + 1] & ~collapsed[:k + 1])  # a rejected probe is not taken
        if len(taken):
            # Strand i is root cols[j][i] of the j-th fiber taken: near's rows composed in order.
            cols = []
            for row in near[taken].tolist():
                perm = [row[i] for i in perm]
                cols.append(perm)
            samples.append(rows[taken[:, None] + 1, cols])
            last = rows[taken[-1] + 1]
            thetas += [targets[j] for j in taken.tolist()]
        theta, (step, streak) = thetas[-1], _grow(*after[k], max_step) if stood else after[k]
        if stood or k == len(targets):
            past = 1  # a probe stood, or the loop is done
            continue
        if k == solved:
            raise fibers[k]
        if collapsed[k]:
            raise CriticalFiberError("fiber separation collapsed at loop angle %.6f" % theta)
        step = min(step, theta1 - theta) / 2.0
        if step < min_step:
            raise TrackingFailureError(
                "step underflow at loop angle %.6f (fiber too unstable)" % theta
            )
        # A rejected probe (a step at a grown size) doubles the probes planned past.
        streak, past = 0, max(1, 2 * past) if k and after[k][0] > after[k - 1][0] else 0

    times = [(t - theta0) / arc for t in thetas]
    times[0], times[-1] = 0.0, 1.0
    return Motion(tuple(times), np.concatenate(samples).T)


def lefschetz_braid(full: Motion) -> BraidWord:
    """Braid of a full loop's motion from its sample at the half turn on:
    the lower half loop, from center - radius to center + radius."""
    k = int(np.argmin(np.abs(np.subtract(full.times, 0.5))))
    if abs(full.times[k] - 0.5) > _HALF_TOL:
        raise GeometryError("motion has no sample at the half turn")
    return motion_to_braid(Motion(full.times[k:], full.paths[:, k:]))
