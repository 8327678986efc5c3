"""Strand motions in the disk and their induced braid words.

A Motion samples n pairwise distinct points of the complex plane on a
common time grid.  Strands are ordered at each instant by the sheared
real projection Re(z) + EPS*Im(z); EPS is a small fixed shear that
separates complex-conjugate pairs, which share Re exactly.  A braid
letter is emitted whenever two strands exchange sheared order: the
letter is positive when the strand of smaller imaginary part (the one
passing in front) comes from the left, so a counterclockwise half-twist
of two adjacent points yields a positive Artin generator.

A MotionProgram builds a synthetic motion from a sequence of moves:
rigid block rotations (RotateBlock) and recorded Motions, or any other
object with a `_sweep` method.  Each move sweeps its samples from the
current configuration, in configuration order; the program writes them
into one strand array, numbers its strands once and validates it as one
Motion.

Which point continues which is decided by one rule, nearest_match:
each point goes to its nearest target, and the matching stands only if
every point lies within a tolerance of its target and no two points
share one.  The moves call it; the tracker's step test applies the
same rule to a whole run of fibers in one array pass.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DegenerateMotionError, GeometryError, TieError
from .words import BraidWord, Permutation

# Shear used for the real projection; breaks the Re tie of conjugate pairs.
EPS = 1e-3

# Largest modulus of a position.  Sheared keys are at most (1 + EPS) times
# the modulus, key gaps twice and gap differences (the denominators of
# crossing parameters) four times that, so below it none of them overflows.
MAX_MODULUS = sys.float_info.max / (4 * (1 + EPS))

# Relative tolerances for key ties, event clustering and endpoint matching.
_KEY_TOL = 1e-12
_LAMBDA_TOL = 1e-9
_MATCH_TOL = 1e-7

# Entries kept by each cache: rotation tables, one per (angle, steps) with
# steps + 1 samples, and strand pairs, one per strand count.
_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """Row and column indices of the strand pairs a < b of n strands, as
    read-only arrays and as a tuple of pairs."""
    ia, ib = np.triu_indices(n, 1)
    ia.flags.writeable = ib.flags.writeable = False
    return ia, ib, tuple(zip(ia.tolist(), ib.tolist()))


def strand_key(z: complex | np.ndarray) -> float | np.ndarray:
    """Sheared real projection that orders the strands; elementwise on arrays."""
    return z.real + EPS * z.imag


def _scale(points) -> float | np.ndarray:
    """Largest modulus of a point list, or of each sample (column) of a
    (strands, samples) array; 0 for no points."""
    if isinstance(points, np.ndarray):
        return np.abs(points).max(axis=0, initial=0.0)
    return max([0.0, *map(abs, points)])


def nearest_match(
    points: Sequence[complex], targets: Sequence[complex], tol: float
) -> list[int] | None:
    """For each point, the index of its nearest target (the first on ties).

    Returns None unless every point lies within tol of its nearest
    target (a distance equal to tol passes) and no two points share one.
    """
    match: list[int] = []
    for z in points:
        dist = [abs(w - z) for w in targets]
        d = min(dist, default=math.inf)
        if d > tol:
            return None
        k = dist.index(d)
        if k in match:
            return None
        match.append(k)
    return match


@dataclass(frozen=True, eq=False)
class Motion:
    """Trajectories of n distinct points over a common time grid.

    paths is a read-only complex128 array of shape (strands, samples):
    paths[k, j] is the position of strand k at times[j].  Construction
    copies it, checks that the times strictly increase, that every time
    and position is finite, that no modulus exceeds MAX_MODULUS and that
    no two strands coincide at any sample, relative to the sample's
    largest modulus.  That per-sample scale is kept for motion_to_braid.
    Motions compare by identity, since an array field cannot take part in
    a generated __eq__.  A motion is also a move, and compose_motions
    joins motions as the MotionProgram of those moves.
    """

    times: tuple[float, ...]
    paths: np.ndarray
    _scales: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if len(times) < 1:
            raise DegenerateMotionError("a motion needs at least one sample")
        if (np.diff(times) <= 0).any():
            raise DegenerateMotionError("sample times must be strictly increasing")
        try:
            paths = np.array(self.paths, dtype=complex)
            paths = paths.reshape(len(self.paths), len(times))
        except ValueError:
            raise DegenerateMotionError(
                "trajectory length does not match time grid"
            ) from None
        if not (np.isfinite(times).all() and np.isfinite(paths).all()):
            raise DegenerateMotionError("sample times and positions must be finite")
        scales = _scale(paths)
        if (scales > MAX_MODULUS).any():
            raise DegenerateMotionError("positions must have modulus at most %r" % MAX_MODULUS)
        paths.flags.writeable = scales.flags.writeable = False
        object.__setattr__(self, "times", tuple(times.tolist()))
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "_scales", scales)
        ia, ib, _ = _pairs(len(paths))
        hit = np.abs(paths[ia] - paths[ib]) <= _KEY_TOL * scales
        if hit.any():
            j, p = np.argwhere(hit.T)[0]
            raise DegenerateMotionError(
                "strands %d and %d coincide at sample %d" % (ia[p], ib[p], j)
            )

    @property
    def strands(self) -> int:
        return len(self.paths)

    @property
    def start(self) -> tuple[complex, ...]:
        return tuple(self.paths[:, 0].tolist())

    @property
    def end(self) -> tuple[complex, ...]:
        return tuple(self.paths[:, -1].tolist())

    @classmethod
    def stationary(cls, points: Sequence[complex]) -> "Motion":
        return cls((0.0, 1.0), [(complex(z),) * 2 for z in points])

    def _sweep(self, config: list[complex]) -> Sweep:
        """The motion as a move: times rescaled onto [0, 1], rows matched onto config."""
        t = np.array(self.times)
        span = (t[-1] - t[0]) or 1.0  # one sample: no span, and t[1:] is empty
        return _onto((t - t[0]) / span, self.paths, config)

    def matching_permutation(self) -> Permutation:
        """Slot-to-slot matching: where the strand starting in slot i ends."""
        keys = strand_key(self.paths)
        start_order = np.argsort(keys[:, 0], kind="stable")
        end_slot = np.argsort(np.argsort(keys[:, -1], kind="stable"))
        return Permutation(tuple((end_slot[start_order] + 1).tolist()))


def motion_to_braid(m: Motion) -> BraidWord:
    """Braid word induced by a motion.

    Crossings are located per linear interpolation step; simultaneous
    crossings are layered by imaginary part and factored into adjacent
    transpositions, which is order independent for layered clusters.
    The sheared-key gaps of all strand pairs are computed in one array
    pass, which lists every (step, pair) where a gap starts tied or
    changes sign; the walk takes them in order, a lone crossing directly.
    """
    n = m.strands
    if n == 0:
        raise DegenerateMotionError("a motion needs at least one strand")
    keys = strand_key(m.paths)
    scale = m._scales
    order = np.argsort(keys[:, 0], kind="stable").tolist()
    if (np.diff(keys[order, 0]) <= _KEY_TOL * scale[0]).any():
        raise TieError("tied sheared order at the initial configuration")
    pos = sorted(range(n), key=order.__getitem__)
    letters: list[int] = []

    ia, ib, pairs = _pairs(n)
    gaps = keys[ia] - keys[ib]
    g0, g1 = gaps[:, :-1], gaps[:, 1:]
    tol = _KEY_TOL * np.maximum(scale[:-1], scale[1:])
    # Per pair and step: gap tied at the start (z0), at the end (z1), or
    # changing sign strictly inside the step (cross; by sign bit, as g0 * g1 can underflow).
    width = np.abs(gaps)
    z0, z1 = width[:, :-1] <= tol, width[:, 1:] <= tol
    cross = ~(z0 | z1) & (np.signbit(g0) != np.signbit(g1))
    # The events (z0 or cross) in step order, then pair order, each with its
    # gaps, its ties and the strand positions at both ends of its step.
    js, ps = np.nonzero((z0 | cross).T)
    d0s, d1s = g0[ps, js].tolist(), g1[ps, js].tolist()
    tied0, tied1 = z0[ps, js].tolist(), z1[ps, js].tolist()
    cols0, cols1 = m.paths[:, js].T.tolist(), m.paths[:, js + 1].T.tolist()
    js, ps = js.tolist(), ps.tolist()
    for j, run in itertools.groupby(range(len(js)), js.__getitem__):
        events: list[tuple[float, int, int]] = []
        for e in run:
            a, b = pairs[ps[e]]
            if tied0[e] and tied1[e]:
                raise TieError(
                    "strands %d and %d keep equal sheared keys across step %d" % (a, b, j)
                )
            d0, d1 = d0s[e], d1s[e]
            if not tied0[e]:
                events.append((d0 / (d0 - d1), a, b))
            elif (pos[a] < pos[b]) != (d1 < 0):
                # Tied at the step start: the maintained order decides
                # whether the separation is a crossing.
                events.append((0.0, a, b))
        if not events:
            continue
        events.sort()  # by parameter, then by pair as listed
        col0, col1 = cols0[e], cols1[e]

        # Group events whose crossing parameters coincide.
        clusters: list[list[tuple[float, int, int]]] = []
        for ev in events:
            if clusters and ev[0] - clusters[-1][-1][0] <= _LAMBDA_TOL:
                clusters[-1].append(ev)
            else:
                clusters.append([ev])

        for ci, cluster in enumerate(clusters):
            lam = sum(e[0] for e in cluster) / len(cluster) if len(cluster) > 1 else cluster[0][0]
            nxt = clusters[ci + 1][0][0] if ci + 1 < len(clusters) else 1.0
            probe = lam + max((nxt - lam) * 0.5, _LAMBDA_TOL * 0.5)
            probe = min(probe, 1.0)

            if len(cluster) == 1:
                # An adjacent, layered pair swaps as below without the group
                # bookkeeping; any other single pair falls through to be refused.
                _, a, b = cluster[0]
                a0, b0, a_left = col0[a], col0[b], pos[a] < pos[b]
                za, zb = a0 + lam * (col1[a] - a0), b0 + lam * (col1[b] - b0)
                if (abs(pos[a] - pos[b]) == 1
                        and abs(za.imag - zb.imag) > _KEY_TOL * max(0.0, abs(za), abs(zb)) / EPS):
                    if a_left == (strand_key(b0 + probe * (col1[b] - b0))
                                  < strand_key(a0 + probe * (col1[a] - a0))):
                        p = min(pos[a], pos[b])
                        letters.append(p + 1 if (za.imag < zb.imag) == a_left else -p - 1)
                        order[p], order[p + 1] = order[p + 1], order[p]
                        pos[a], pos[b] = pos[b], pos[a]
                    continue

            def at(k: int, t: float) -> complex:
                return col0[k] + t * (col1[k] - col0[k])

            # Connected components of the crossing pairs, taken in the
            # order of their smallest strands.
            groups: list[set[int]] = []
            for _, a, b in cluster:
                joined = {a, b}.union(*[g for g in groups if a in g or b in g])
                groups = [g for g in groups if not g & joined] + [joined]

            for grp in sorted(map(sorted, groups)):
                slots = sorted(pos[s] for s in grp)
                if slots != list(range(slots[0], slots[0] + len(slots))):
                    raise TieError(
                        "simultaneous crossings of non-adjacent strands at step %d" % j
                    )
                lo = slots[0]
                ims = {s: at(s, lam).imag for s in grp}
                vals = sorted(ims.values())
                im_tol = _KEY_TOL * _scale([at(s, lam) for s in grp]) / EPS
                for v0, v1 in zip(vals, vals[1:]):
                    if v1 - v0 <= im_tol:
                        raise TieError(
                            "cannot layer simultaneous crossing at step %d" % j
                        )
                target = sorted(grp, key=lambda s: strand_key(at(s, probe)))
                want = {s: lo + i for i, s in enumerate(target)}
                # Bubble toward the target order; each adjacent swap is a
                # letter, signed by which strand lies in front (smaller Im).
                changed = True
                while changed:
                    changed = False
                    for p in range(lo, lo + len(grp) - 1):
                        sa = order[p]
                        sb = order[p + 1]
                        if want[sa] > want[sb]:
                            sign = 1 if ims[sa] < ims[sb] else -1
                            letters.append(sign * (p + 1))
                            order[p], order[p + 1] = sb, sa
                            pos[sa], pos[sb] = p + 1, p
                            changed = True

    if np.argsort(keys[:, -1], kind="stable").tolist() != order:
        raise TieError("strand order bookkeeping lost sync with the final fiber")
    return BraidWord(n, tuple(letters))


def _still(points: Sequence[complex], steps: int) -> np.ndarray:
    """Paths of stationary points over steps + 1 samples."""
    return np.array(points, dtype=complex).reshape(-1, 1).repeat(steps + 1, axis=1)


def _rational(value, name: str) -> Fraction:
    """value as a Fraction, or a GeometryError that names the argument."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise GeometryError("%s must be a finite rational number, not %r" % (name, value)) from None


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _turns(numerator: int, denominator: int, steps: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Sample grid on [0, 1] and unit turns exp(i*angle*pi*t) of a rotation
    by angle = numerator/denominator (in lowest terms, so equal angles
    share one entry), as read-only arrays shared by every rotation of the
    key.  steps None takes 64 steps per quarter turn; an invalid steps
    raises on every call, as errors are not cached.
    """
    angle = Fraction(numerator, denominator)
    quarter_turns = abs(angle) * 2
    if steps is None:
        steps = max(1, math.ceil(128 * abs(angle)))
    elif steps < max(1, 8 * quarter_turns):
        raise GeometryError("need at least one step and 8 steps per quarter turn")
    total = float(angle) * math.pi
    turns = np.array([complex(math.cos(total * j / steps), math.sin(total * j / steps))
                      for j in range(steps + 1)])
    grid = np.array([j / steps for j in range(steps + 1)])
    turns.flags.writeable = grid.flags.writeable = False
    return grid, turns


def _rotation(movers: list[complex], center: complex, angle, steps: int | None,
              still: list[complex], hit: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Times and rows of a rigid counterclockwise rotation by angle*pi
    about `center`: row hit[i] turns from movers[i], row k of no mover
    stays at still[k].  The default sampling uses 64 steps per quarter turn.
    """
    if steps is not None and not isinstance(steps, (int, np.integer)):
        raise GeometryError("steps must be an integer or None, not %r" % (steps,))
    tol = _KEY_TOL * _scale(movers + [center])
    if any(abs(z - center) <= tol for z in movers):
        raise DegenerateMotionError("a rotated point sits at the center")
    # Keyed by integers: hashing a Fraction runs Python code on every lookup.
    exact = angle if type(angle) in (Fraction, int) else _rational(angle, "angle")
    grid, turns = _turns(*exact.as_integer_ratio(), steps)
    rows = _still(still, len(grid) - 1)
    for k, z in zip(hit, movers):
        rows[k] = (z - center) * turns + center
    return grid, rows


def _locate(listed: list[complex], config: list[complex]) -> list[int]:
    """Configuration indices of the listed points."""
    tol = _MATCH_TOL * _scale(config)
    hit = nearest_match(listed, config, tol)
    if hit is None:
        if all(nearest_match([z], config, tol) for z in listed):
            raise GeometryError("a configuration point is listed twice")
        raise GeometryError("a listed point is absent from the configuration")
    return hit


# A move's sweep from a configuration: its sample times on [0, 1], its rows
# in configuration order, and the configuration index of each listed point.
Sweep = tuple[np.ndarray, np.ndarray, list[int]]


@dataclass(frozen=True)
class RotateBlock:
    points: tuple
    center: object
    angle: Fraction
    steps: int | None = None

    def _sweep(self, config: list[complex]) -> Sweep:
        movers = [complex(z) for z in self.points]
        hit = _locate(movers, config)
        times, rows = _rotation(
            movers, complex(self.center), self.angle, self.steps, config, hit)
        return times, rows, hit


def _onto(times: np.ndarray, rows: np.ndarray, config: list[complex]) -> Sweep:
    """A sweep of every point, its rows matched onto the configuration and put in its order."""
    start = rows[:, 0].tolist()
    at = nearest_match(start, config, _MATCH_TOL * _scale(start + config))
    if at is None or len(at) != len(config):
        raise DegenerateMotionError("a move does not start at the configuration")
    return times, rows[np.argsort(at)], at


@dataclass(frozen=True)
class MotionProgram:
    """Declarative move sequence over a fixed point configuration.

    `points` is the full starting configuration.  A move is any object
    whose type has a `_sweep(config)` method giving its Sweep: a
    RotateBlock, a recorded Motion, or a move defined outside this module.
    Each move names its own participants, and every other point stays put
    during that move.  A move finds its listed points in the current
    configuration with nearest_match; a recorded Motion lists every point
    and must start at it.  `to_motion` gives move i of k the times [i/k,
    (i+1)/k], writes each move's rows, in configuration order, into one
    array and validates it once as a Motion, numbering its strands as the
    first move lists them, then the others in configuration order.
    """

    points: tuple
    moves: tuple

    def to_motion(self) -> Motion:
        config = [complex(z) for z in self.points]
        if not self.moves:
            return Motion.stationary(config)
        k = len(self.moves)
        times, cols = [np.zeros(1)], []
        for i, mv in enumerate(self.moves):
            sweep = getattr(type(mv), "_sweep", None)
            if sweep is None:
                raise GeometryError("unknown move kind %r" % (mv,))
            t, rows, listed = sweep(mv, config)
            if not i:
                first = listed + [s for s in range(len(config)) if s not in listed]
                cols.append(rows[:, :1])
            times.append(i + t[1:])
            cols.append(rows[:, 1:])
            config = rows[:, -1].tolist()
        return Motion(np.concatenate(times) / k, np.hstack(cols)[first])

    def braid(self) -> BraidWord:
        return motion_to_braid(self.to_motion())


def compose_motions(*motions: Motion) -> Motion:
    """Concatenation in time of one or more motions: the program whose
    moves they are, from the first one's start (see MotionProgram)."""
    if not motions:
        raise DegenerateMotionError("nothing to compose")
    if len({m.strands for m in motions}) != 1:
        raise DegenerateMotionError("strand counts differ")
    return MotionProgram(motions[0].start, motions).to_motion()
