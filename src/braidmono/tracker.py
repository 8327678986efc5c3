"""Numerical fiber tracking around loops in the x-plane.

The fiber of a curve over a point x0 is the set of y-roots of the
product polynomial.  Tracking moves x around a circle, re-solves the
fiber at each sample, and continues each root of the previous sample
by the matching rule of motion.nearest_match.  The walk goes in runs:
a run is the angles at the current step size up to the next change of
size.  Its fibers are solved in one batch (one eigenvalue call and one
vectorised Newton polish), and the step test of every fiber against
its predecessor is one array pass implementing nearest_match's rule;
the run is then walked in order, and a rejected step ends it and drops
the rest of its fibers.  The first step at a grown size is a run of its
own, since it is the one most often rejected.  A step is accepted only
when every root of the previous fiber has a distinct nearest new root
within half that root's distance to its nearest neighbour; otherwise
the step is halved.  These discs are pairwise disjoint, so an accepted
step continues each root unambiguously, and an isolated root does not
hold the whole fiber to the pace of its closest pair.  The test sees
only the sampled endpoints of a step, so it cannot detect two roots
that wind round each other within one step.
A full loop must end on its starting fiber: nearest_match matches the
two within 1e-6 of the fiber scale.

The resulting strand paths form a Motion whose braid word is the local
monodromy of the loop.  Tracking only the lower half of the circle
(from -radius to +radius) gives the half-loop braid used to compare a
full degeneration against its square.
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
from .motion import Motion, _scale, motion_to_braid, nearest_match, strand_key
from .words import BraidWord

_RESIDUAL_TOL = 1e-12
_SEPARATION_TOL = 1e-9
_MIN_STEP_FRACTION = 2.0**-40


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
        r = Fraction(self.radius)
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
        object.__setattr__(self, "center", complex(self.center))
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
        return self.point(self.angle_range[0])


def _solve_fibers(product, xs: list[complex]) -> list[np.ndarray | BraidMonoError]:
    """All fiber roots over each point of xs, unsorted, polished, in one batch.

    Each fiber comes out bit-identical to np.roots and a Newton polish
    on its own: the companion matrices are the ones np.roots builds,
    after stripping the same exact trailing zeros, and the polish uses
    the Horner order of np.polyval.  A point whose fiber cannot be
    solved gets its error in place of roots.
    """
    out: list[np.ndarray | BraidMonoError] = [None] * len(xs)
    rows, polys = [], []
    # The leading y-coefficient a(x) = sum_k a_k x^k counts as vanishing
    # where |a(x)| is small beside sum_k |a_k| |x|^k.  A coefficient out
    # of float range makes y_coeffs_at fail first at every point.
    try:
        lead = [(k, float(abs(a))) for k, a in product.y_coefficient(product.degree_y).items()]
    except OverflowError:
        lead = []
    for i, x0 in enumerate(xs):
        try:
            coeffs = np.asarray(product.y_coeffs_at(x0), dtype=complex)
            if not np.count_nonzero(coeffs):
                raise CriticalFiberError("curve vanishes identically over x=%s" % x0)
            if abs(coeffs[0]) <= 1e-12 * sum(a * abs(x0) ** k for k, a in lead):
                raise ImproperProjectionError(
                    "leading y-coefficient vanishes near x=%s "
                    "(curve has a branch at infinity)" % x0
                )
        except BraidMonoError as e:
            out[i] = e
            continue
        rows.append(i)
        polys.append(coeffs)
    if not rows:
        return out
    coeffs = np.array(polys)
    d = coeffs.shape[1] - 1
    roots = np.zeros((len(rows), d), dtype=complex)
    # np.roots strips exact trailing zeros and appends zero roots for them.
    trailing = np.argmax(coeffs[:, ::-1] != 0, axis=1)
    for t in np.unique(trailing).tolist():
        group = np.flatnonzero(trailing == t)
        m = d - t
        if m > 0:
            companion = np.zeros((len(group), m, m), dtype=complex)
            companion[:, np.arange(1, m), np.arange(m - 1)] = 1
            companion[:, 0, :] = -coeffs[group, 1 : m + 1] / coeffs[group, :1]
            roots[group, :m] = np.linalg.eigvals(companion)
    for i, z in zip(rows, _polish(coeffs, roots)):
        out[i] = z
    return out


@np.errstate(over="ignore")
def _polish(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Newton-polish each row of roots z on its row of descending coeffs.

    A row stops changing once its residuals meet their bounds; overflow is silent.
    """
    deriv = coeffs[:, :-1] * np.arange(coeffs.shape[1] - 1, 0, -1)
    scale = np.max(np.abs(coeffs), axis=1, keepdims=True)
    active = np.ones(len(z), dtype=bool)
    for _ in range(50):
        vals = _horner(coeffs, z)
        bound = _RESIDUAL_TOL * scale * np.maximum(1.0, np.abs(z)) ** (coeffs.shape[1] - 1)
        active &= ~np.all(np.abs(vals) <= bound, axis=1)
        if not active.any():
            break
        dvals = _horner(deriv, z)
        safe = (np.abs(dvals) > 0) & active[:, None]
        step = np.zeros_like(z)
        step[safe] = vals[safe] / dvals[safe]
        z = z - step
    return z


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Each row of coeffs evaluated at its row of z, as np.polyval does."""
    y = np.zeros_like(z)
    for c in coeffs.T:
        y = y * z + c[:, None]
    return y


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


def fiber_roots(curve: CurveSpec, x0: complex) -> list[complex]:
    """Fiber over x0, sorted by strand_key as motion_to_braid numbers slots.

    Raises CriticalFiberError when two roots are too close to separate.
    """
    roots = _solve_fibers(curve.product, [complex(x0)])[0]
    if isinstance(roots, BraidMonoError):
        raise roots
    sep = _separations(roots[None]).min(initial=math.inf)
    if sep <= 2.0 * _SEPARATION_TOL * _scale(roots):
        raise CriticalFiberError(
            "fiber over x=%s has nearly coincident roots (separation %.3e)" % (x0, sep)
        )
    return sorted((complex(z) for z in roots), key=strand_key)


def track_loop(
    curve: CurveSpec, loop: LoopSpec, *, initial_divisions: int = 256
) -> Motion:
    """Track the fiber around the loop; returns the strand Motion.

    The motion's time axis is the loop parameter normalised to [0, 1].
    Strand k starts at the k-th root of the sorted basepoint fiber.
    initial_divisions sets the starting step to arc/initial_divisions;
    the tracker still adapts from there.
    """
    if initial_divisions < 1:
        raise GeometryError("initial_divisions must be positive")
    try:
        divisions = float(initial_divisions)
    except OverflowError:
        raise GeometryError("initial_divisions is out of floating-point range") from None
    theta0, theta1 = loop.angle_range
    arc = theta1 - theta0
    product = curve.product

    start_sorted = fiber_roots(curve, loop.basepoint)
    current = np.asarray(start_sorted, dtype=complex)
    thetas = [theta0]
    samples = [current]

    step = arc / divisions
    min_step = arc * _MIN_STEP_FRACTION
    max_step = max(arc / 64.0, step)
    theta = theta0
    streak = 0
    grown = False

    while theta < theta1 - 1e-15:
        # One run: the angles at this step size up to its next change.  The
        # first step at a grown size is the likeliest to be rejected, so it
        # is a run of its own.
        size = 1 if grown else 8 - streak if step < max_step else math.inf
        targets, t = [], theta
        while len(targets) < size and t < theta1 - 1e-15:
            t += min(step, theta1 - t)
            targets.append(t)
        fibers = _solve_fibers(product, [loop.point(t) for t in targets])
        # The step test of the fibers before the first error, in one pass;
        # the walk below checks each in order, as a step at a time would.
        solved = next(
            (k for k, f in enumerate(fibers) if isinstance(f, BraidMonoError)), len(fibers)
        )
        near, ok, sep, scale = _step_test(np.array([current, *fibers[:solved]]))
        perm = np.arange(len(current))
        for k, target in enumerate(targets):
            if k == solved:
                raise fibers[k]
            if sep[k] <= 2.0 * _SEPARATION_TOL * scale[k]:
                raise CriticalFiberError(
                    "fiber separation collapsed at loop angle %.6f" % theta
                )
            if not ok[k]:
                step = min(step, theta1 - theta) / 2.0
                if step < min_step:
                    raise TrackingFailureError(
                        "step underflow at loop angle %.6f (fiber too unstable)" % theta
                    )
                streak = 0
                grown = False
                break
            # Strand i is root perm[i] of row k; continue it to row k + 1.
            perm = near[k][perm]
            current = fibers[k][perm]
            theta = target
            thetas.append(theta)
            samples.append(current)
            streak += 1
            grown = streak >= 8 and step < max_step
            if streak >= 8:
                step = min(step * 2.0, max_step)
                streak = 0

    if loop.arc == "full":
        end = samples[-1]
        if nearest_match(end.tolist(), start_sorted, 1e-6 * _scale(end)) is None:
            raise TrackingFailureError("full loop did not return to the starting fiber")

    times = [(t - theta0) / arc for t in thetas]
    times[0], times[-1] = 0.0, 1.0
    return Motion(tuple(times), np.array(samples).T)


def local_braid_monodromy(
    curve: CurveSpec, loop: LoopSpec, *, initial_divisions: int = 256
) -> BraidWord:
    """Braid of the fiber motion around a full loop."""
    if loop.arc != "full":
        raise GeometryError("local_braid_monodromy needs a full loop")
    return motion_to_braid(track_loop(curve, loop, initial_divisions=initial_divisions))


def lefschetz_braid(curve: CurveSpec, loop: LoopSpec) -> BraidWord:
    """Braid of the fiber motion along the lower half of the loop."""
    half = LoopSpec(loop.center, loop.radius, "negative-half")
    return motion_to_braid(track_loop(curve, half))
