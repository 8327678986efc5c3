"""The Lefschetz (half-loop) motion programs of the catalogue fixtures.

Each fixture states its half-loop braid as a word (`lefschetz_letters`);
these programs are the sampled motions that the words were read from.
tests/test_program_braids.py checks every stated word, model and
Lefschetz, against its program's braid letter by letter, and
tests/test_motion_bytes.py pins the programs' sampled bytes.
"""

from __future__ import annotations

from fractions import Fraction

from braidmono import Encircle, MotionProgram, RotateBlock, fixture_by_id

F = Fraction

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
    n-tangency-n, whose half loop is a half turn of all n points."""
    fixture = fixture_by_id(fixture_id)
    if kind == "model":
        return fixture.model_program
    if fixture_id in LEFSCHETZ_PROGRAMS:
        return LEFSCHETZ_PROGRAMS[fixture_id]
    pts = tuple(range(1, fixture.expected_relations.rank + 1))
    return MotionProgram(pts, (RotateBlock(pts, 0, F(2)),))
