"""Byte pins of MotionProgram.to_motion.

tests/data/motion_bytes.json holds the sha256 of `paths.tobytes()` and
of the times as float64 bytes for the model and the Lefschetz program of
each catalogue fixture and for a seeded set of RotateBlock, Encircle and
frame programs; the geometric catalogue programs and the Encircle and
FrameIn/FrameOut moves come from tests/catalog_programs.py.  Letters,
sample counts and permutations are pinned in
program_braids.json; these pins add every sampled position and time, so
a change in how moves are sampled or joined must leave each bit as it
was.  Regenerate the data only on purpose:

    PYTHONPATH=src python tests/test_motion_bytes.py
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from braidmono import MotionProgram, RotateBlock
from catalog_programs import Encircle, FrameIn, FrameOut, program

DATA = Path(__file__).parent / "data" / "motion_bytes.json"
CATALOGUE = Path(__file__).parent / "data" / "program_braids.json"

ANGLES = tuple(Fraction(a) for a in (1, -1, 2, -2))


def _pair_moves(rng, real):
    """Moves on an adjacent pair of the sorted real points; the points
    are back on the axis, in the same set, when the moves end."""
    i = rng.randrange(len(real) - 1)
    a, b = real[i], real[i + 1]
    mid = (a + b) / 2
    if rng.random() < 0.3:
        # Two quarter turns: onto the vertical through mid, and back.
        h = (b - a) / 2
        first, second = rng.choice((1, -1)), rng.choice((1, -1))
        steps = rng.choice((None, 8, 13))
        up = RotateBlock((a, b), mid, Fraction(first, 2), steps)
        top = (complex(mid, -h), complex(mid, h))[::first]
        return [up, RotateBlock(top, mid, Fraction(second, 2), rng.choice((None, 9)))]
    angle = rng.choice(ANGLES)
    low = int(8 * abs(angle) * 2)
    steps = rng.choice((None, low, low + rng.randrange(1, 40)))
    return [RotateBlock((a, b), mid, angle, steps)]


def _rotate_program(rng):
    n = rng.randint(2, 6)
    real = sorted(rng.sample(range(-20, 21), n))
    real = [v / 4 for v in real]
    moves = []
    while len(moves) < rng.randint(1, 6):
        moves.extend(_pair_moves(rng, real))
    return MotionProgram(tuple(real), tuple(moves))


def _encircle_program(rng):
    around = (0.0,) if rng.random() < 0.5 else (-0.25, 0.5)
    mover = rng.choice((2.0, -2.0, 1.5))
    far = (3.5, -4.0)[: rng.randint(0, 2)]
    turns = rng.choice((Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)))
    center = None if rng.random() < 0.5 else complex(rng.choice((0.0, 0.125)), 0.0)
    move = Encircle((mover,), around, turns, center)
    return MotionProgram((*around, mover, *far), (move,))


def _frame_program(rng):
    n = rng.randint(2, 5)
    real = tuple(sorted(v / 2 for v in rng.sample(range(-10, 11), n)))
    pair_re = None if rng.random() < 0.5 else real[-1] + rng.choice((0.5, 1.0, 2.0))
    pair_height = None if rng.random() < 0.5 else rng.choice((0.25, 1.0, 3.0))
    frame = FrameIn(real, pair_re, pair_height)
    moves = [frame]
    if rng.random() < 0.5 and n > 2:
        moves.insert(0, RotateBlock(real[:2], (real[0] + real[1]) / 2, Fraction(2)))
    if rng.random() < 0.7:
        moves.append(FrameOut(frame))
    return MotionProgram(real, tuple(moves))


def seeded_programs() -> dict[str, MotionProgram]:
    """Named programs drawn from a fixed seed: 24 rotations, 8
    encircling moves and 8 frame programs."""
    rng = random.Random("motion-bytes")
    out = {}
    for kind, make, count in (("rotate", _rotate_program, 24),
                              ("encircle", _encircle_program, 8),
                              ("frame", _frame_program, 8)):
        for k in range(count):
            out["%s-%02d" % (kind, k)] = make(rng)
    return out


def catalogue_programs() -> dict[str, MotionProgram]:
    out = {}
    for fid in sorted(json.loads(CATALOGUE.read_text(encoding="utf-8"))):
        for kind in ("model", "lefschetz"):
            out["%s/%s" % (fid, kind)] = program(fid, kind)
    return out


def digest(program: MotionProgram) -> dict[str, str]:
    m = program.to_motion()
    times = np.array(m.times, dtype=np.float64).tobytes()
    return {
        "paths": hashlib.sha256(m.paths.tobytes()).hexdigest(),
        "times": hashlib.sha256(times).hexdigest(),
    }


PINNED = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else {}


def test_pins_cover_the_catalogue_and_the_seeded_programs():
    assert len(PINNED["catalogue"]) == 34
    assert set(PINNED["catalogue"]) == set(catalogue_programs())
    assert set(PINNED["seeded"]) == set(seeded_programs())


@pytest.mark.parametrize("name", sorted(PINNED.get("catalogue", ())))
def test_catalogue_program_bytes_are_pinned(name):
    assert digest(catalogue_programs()[name]) == PINNED["catalogue"][name]


@pytest.mark.parametrize("name", sorted(PINNED.get("seeded", ())))
def test_seeded_program_bytes_are_pinned(name):
    program = seeded_programs()[name]
    assert repr(program) == PINNED["programs"][name]
    assert digest(program) == PINNED["seeded"][name]


if __name__ == "__main__":
    seeded = seeded_programs()
    DATA.write_text(json.dumps({
        "catalogue": {k: digest(p) for k, p in catalogue_programs().items()},
        "seeded": {k: digest(p) for k, p in seeded.items()},
        "programs": {k: repr(p) for k, p in seeded.items()},
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
