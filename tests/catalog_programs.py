"""The geometric motion programs of the catalogue fixtures, and the moves
they are built from.

Each fixture states its model and half-loop braids as words
(`model_letters`, `lefschetz_letters`); these programs are the sampled
motions that the words were read from.  Besides rigid block rotations
they use two moves of their own: Encircle winds movers about a set of
points, and the FrameIn/FrameOut pair lifts the two rightmost points
into a complex-conjugate configuration and back.  `MotionProgram` runs
them as it runs its own moves, through their `_sweep` method.
tests/test_program_braids.py checks every stated word, model and
Lefschetz, against its program's braid letter by letter, and
tests/test_motion_bytes.py pins the programs' sampled bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from braidmono import GeometryError, MotionProgram, RotateBlock, fixture_by_id
from braidmono.motion import (
    _KEY_TOL,
    Sweep,
    _locate,
    _onto,
    _rational,
    _rotation,
    _scale,
    _still,
    strand_key,
)

F = Fraction


@dataclass(frozen=True)
class Encircle:
    """Movers wind `turns` times counterclockwise about the around-set.

    The mover cluster rotates rigidly about `center` (default: centroid
    of the around-set).  Every around-point must lie strictly inside the
    innermost mover orbit and every other point strictly outside the
    outermost one, so the loop captures exactly the around-set.
    """

    movers: tuple
    around: tuple
    turns: Fraction
    center: object | None = None

    def _sweep(self, config: list[complex]) -> Sweep:
        mv = [complex(z) for z in self.movers]
        ar = [complex(z) for z in self.around]
        hit = _locate(mv + ar, config)
        if not mv:
            raise GeometryError("need at least one moving point")
        if not ar:
            raise GeometryError("need at least one encircled point")
        if self.center is None:
            c = sum(ar, complex(0)) / len(ar)
        else:
            c = complex(self.center)
        listed = dict(zip(hit, mv + ar))
        still = [listed.get(k, z) for k, z in enumerate(config)]
        radii = [abs(z - c) for z in mv]
        pad = _KEY_TOL * _scale(still + [c])
        if any(abs(z - c) >= min(radii) - pad for z in ar):
            raise GeometryError("an encircled point is not strictly inside the orbit")
        if any(abs(z - c) <= max(radii) + pad for k, z in enumerate(config) if k not in listed):
            raise GeometryError("a bystander point would be captured by the orbit")
        angle = 2 * _rational(self.turns, "turns")
        times, rows = _rotation(mv, c, angle, None, still, hit[:len(mv)])
        return times, rows, hit


@dataclass(frozen=True)
class FrameIn:
    """Moves the two rightmost of `slots` off the axis.

    The two rightmost points rotate 90 degrees counterclockwise about
    their midpoint (right point up, left point down) and then move
    linearly to real part `pair_re`, with the half-height rescaled to
    `pair_height`; each part takes 64 steps.  FrameOut is the exact
    reverse, so a FrameIn followed by its FrameOut induces the empty
    braid.
    """

    slots: tuple
    pair_re: object | None = None
    pair_height: object | None = None

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Times and rows of the move, started at the slots."""
        pts = [complex(z) for z in self.slots]
        if len(pts) < 2:
            raise GeometryError("need at least two points to frame")
        idx = sorted(range(len(pts)), key=lambda k: strand_key(pts[k]))
        a, b = pts[idx[-2]], pts[idx[-1]]
        if abs(a.imag) > 0 or abs(b.imag) > 0:
            raise GeometryError("frame expects a real starting configuration")
        if abs(b - a) <= _KEY_TOL * _scale(pts):
            raise GeometryError("the two rightmost slots coincide")
        mid = (a + b) / 2
        r = abs(b - a) / 2
        end_re = mid.real if self.pair_re is None else float(self.pair_re)
        end_h = r if self.pair_height is None else float(self.pair_height)
        if end_h <= 0:
            raise GeometryError("pair height must be positive")
        rest = [pts[k] for k in idx[:-2]]
        grid, lift = _rotation([a, b], mid, Fraction(1, 2), 64, [a, b] + rest, [0, 1])
        # Rows: a, b, then the rest; after the quarter turn b sits on
        # top and a at the bottom, and both move linearly from there to
        # end_re -/+ i*end_h.  The transport starts where the lift ends,
        # so the lift's last sample stands for both.
        start = np.array([mid - complex(0.0, r), mid + complex(0.0, r)])
        shift = np.array([complex(end_re, -end_h), complex(end_re, end_h)]) - start
        moved = start[:, None] + grid * shift[:, None]
        transport = np.vstack([moved, _still(rest, 64)])
        times = np.concatenate([grid, 1 + grid[1:]]) / 2
        return times, np.hstack([lift, transport[:, 1:]])

    def _sweep(self, config: list[complex]) -> Sweep:
        return _onto(*self._rows(), config)


@dataclass(frozen=True)
class FrameOut:
    frame: FrameIn

    def _sweep(self, config: list[complex]) -> Sweep:
        times, rows = self.frame._rows()
        return _onto(1.0 - times[::-1], rows[:, ::-1], config)


# The frames of the models whose fiber has a complex pair.
frame33 = FrameIn((-2, -1, 0, 1, 2), F(-1), F(1, 2))
frame413 = FrameIn((-2, -1, 0, 1, 2, 3), F(-1), F(1, 2))
frame422 = FrameIn((-2, F(-1, 2), F(1, 2), 2, 3, 4), F(0), F(1))

MODEL_PROGRAMS = {
    "two-tangent-conics": MotionProgram((-1, 1), (RotateBlock((-1, 1), 0, F(4)),)),
    "tangent-conics-secant-below": MotionProgram((-2, -1, 1), (
        RotateBlock((-1, 1), 0, F(4)),
        Encircle((-2,), (-1, 1), F(1)),
    )),
    "tangent-conics-secant-above": MotionProgram((-1, 1, 2), (
        RotateBlock((-1, 1), 0, F(4)),
        Encircle((2,), (-1, 1), F(1)),
    )),
    "vertical-tangency": MotionProgram((-2, -1, 0, 1, 2), (
        frame33,
        RotateBlock((-2, 0, complex(-1, 0.5), complex(-1, -0.5)), -1, F(1)),
        FrameOut(frame33),
    )),
    "triple-tangency": MotionProgram((-1, 0, 1), (RotateBlock((-1, 1), 0, F(4)),)),
    "triple-tangency-secant-below": MotionProgram((-2, -1, 0, 1), (
        RotateBlock((-1, 1), 0, F(4)),
        Encircle((-2,), (-1, 0, 1), F(1)),
    )),
    "triple-tangency-secant-above": MotionProgram((-1, 0, 1, 2), (
        RotateBlock((-1, 1), 0, F(4)),
        Encircle((2,), (-1, 0, 1), F(1)),
    )),
    "triple-tangency-vertical-line": MotionProgram((-2, -1, 0, 1, 2, 3), (
        frame413,
        Encircle((1,), (-2, -1, 0, complex(-1, 0.5), complex(-1, -0.5)), F(1), -1),
        RotateBlock((-2, 0, complex(-1, 0.5), complex(-1, -0.5)), -1, F(1)),
        FrameOut(frame413),
    )),
    "double-secant": MotionProgram((-2, -1, 1, 2), (
        RotateBlock((-1, 1), 0, F(4)),
        Encircle((-2, 2), (-1, 1), F(1)),
    )),
    "vertical-tangency-line-pair": MotionProgram((-2, F(-1, 2), F(1, 2), 2, 3, 4), (
        frame422,
        RotateBlock((-2, 2, 1j, -1j), 0, F(1)),
        RotateBlock((F(-1, 2), F(1, 2)), 0, F(2)),
        FrameOut(frame422),
    )),
    "conic-line-tangency-secant-below": MotionProgram((-2, -1, 0), (
        RotateBlock((-1, 0), F(-1, 2), F(4)),
        Encircle((-2,), (-1, 0), F(1)),
    )),
    "conic-line-tangency-secant-above": MotionProgram((-1, 0, 2), (
        RotateBlock((-1, 0), F(-1, 2), F(4)),
        Encircle((2,), (-1, 0), F(1)),
    )),
}

quartet413 = (F(-201, 200), F(199, 200), F(1, 200) - 1j, F(1, 200) + 1j)
c413 = complex(F(-1, 200))
turned413 = tuple(c413 + 1j * (complex(z) - c413) for z in quartet413)

LEFSCHETZ_PROGRAMS = {
    "two-tangent-conics": MotionProgram((-1, 1), (RotateBlock((-1, 1), 0, F(2)),)),
    "tangent-conics-secant-below": MotionProgram((-1, 1, 2), (
        RotateBlock((-1, 1), 0, F(2)),
        Encircle((2,), (-1, 1), F(1, 2)),
    )),
    "tangent-conics-secant-above": MotionProgram((-2, -1, 1), (
        RotateBlock((-1, 1), 0, F(2)),
        Encircle((-2,), (-1, 1), F(1, 2)),
    )),
    "vertical-tangency": MotionProgram((-1, -1j, 0, 1j, 1), (
        RotateBlock((1, -1, 1j, -1j), 0, F(1, 2)),
    )),
    "triple-tangency": MotionProgram((-1, 0, 1), (RotateBlock((-1, 1), 0, F(2)),)),
    "triple-tangency-secant-below": MotionProgram((-1, 0, 1, 2), (
        RotateBlock((-1, 1), 0, F(2)),
        Encircle((2,), (-1, 0, 1), F(1, 2)),
    )),
    "triple-tangency-secant-above": MotionProgram((-2, -1, 0, 1), (
        RotateBlock((-1, 1), 0, F(2)),
        Encircle((-2,), (-1, 0, 1), F(1, 2)),
    )),
    "triple-tangency-vertical-line": MotionProgram(
        (F(-201, 200), 0, F(1, 200) - 1j, F(1, 200) + 1j, F(199, 200), 100),
        (
            RotateBlock(quartet413, F(-1, 200), F(1, 2)),
            Encircle((100,), turned413 + (0,), F(1, 2), 0),
        ),
    ),
    "double-secant": MotionProgram((-2, -1, 1, 2), (
        RotateBlock((-1, 1), 0, F(2)),
        Encircle((-2, 2), (-1, 1), F(1, 2)),
    )),
    "vertical-tangency-line-pair": MotionProgram((-1, -1j, 0, 1j, F(1, 2), 1), (
        RotateBlock((1, -1, 1j, -1j), 0, F(1, 2)),
        Encircle((F(1, 2),), (0,), F(1, 2), 0),
    )),
    "conic-line-tangency-secant-below": MotionProgram((-1, 0, 2), (
        RotateBlock((-1, 0), F(-1, 2), F(2)),
        Encircle((2,), (-1, 0), F(1, 2), 0),
    )),
    "conic-line-tangency-secant-above": MotionProgram((-2, -1, 0), (
        RotateBlock((-1, 0), F(-1, 2), F(2)),
        Encircle((-2,), (-1, 0), F(1, 2), 0),
    )),
}


def program(fixture_id: str, kind: str) -> MotionProgram:
    """The "model" or "lefschetz" program of a catalogue fixture or of
    n-tangency-n, whose model is two full turns of all n points and whose
    half loop is one."""
    table, turns = (MODEL_PROGRAMS, F(4)) if kind == "model" else (LEFSCHETZ_PROGRAMS, F(2))
    if fixture_id in table:
        return table[fixture_id]
    pts = tuple(range(1, fixture_by_id(fixture_id).expected_relations.rank + 1))
    return MotionProgram(pts, (RotateBlock(pts, 0, turns),))
