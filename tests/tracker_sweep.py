"""Bit-identity sweep of track_loop: one digest over 864 tracked loops.

Run from the repository root:

    PYTHONPATH=src python tests/tracker_sweep.py

It tracks the 12 principal fixtures, n-tangency-2..5 and 11 hard curves
at radii 1/2, 1, 3/2 and 2, on both arcs, from start divisions 1, 3, 8
and 256, and prints the case count, one SHA-256 over every result (its
times and path bytes, or its refusal's type and message), and the
batches and fibers passed to _solve_fibers.  A change to the tracker
that must not change its walk prints the same three lines before and
after.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import struct
from fractions import Fraction

from braidmono import LoopSpec, fixtures, n_tangency_fixture, parse_curve, track_loop, tracker
from braidmono.errors import BraidMonoError

HARD_CURVES = [
    ("(y^3-x^37)", 0), ("(y^2-x^201)", 0), ("(y-x^1000)(y+x^1000)", 0),
    ("(y^2-x^1000)(y^3-2x^1000)", 0), ("(y^32-x^1000)", 0), ("(y-x^100)(y+x^100)", 0),
    ("(y-x^30)(y+x^30)", 0), ("(y^2-x^3)(2y-1)", 0), ("(y^2-x)", 1),
    ("(y^2-x+999999999999/1000000000000)", 0), ("(xy^2-y^2-x)", 0),
]
RADII = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
ARCS = ["full", "negative-half"]
DIVISIONS = [1, 3, 8, 256]


def _result_bytes(curve, loop) -> bytes:
    try:
        motion = track_loop(curve, loop)
    except BraidMonoError as e:
        return ("%s: %s" % (type(e).__name__, e)).encode()
    return struct.pack("<%dd" % len(motion.times), *motion.times) + motion.paths.tobytes()


def sweep() -> tuple[int, str, int, int]:
    """(cases, SHA-256 hex digest, batches, fibers) over the whole sweep."""
    curves = [(f.curve, 0) for f in fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4, 5)]]
    curves += [(parse_curve(text), center) for text, center in HARD_CURVES]
    solve, start = tracker._solve_fibers, tracker._START_DIVISIONS
    work = {"batches": 0, "fibers": 0}

    def counting(curve, xs):
        work["batches"] += 1
        work["fibers"] += len(xs)
        return solve(curve, xs)

    digest, cases = hashlib.sha256(), 0
    tracker._solve_fibers = counting
    try:
        for divisions in DIVISIONS:
            tracker._START_DIVISIONS = divisions
            for curve, center in curves:
                for radius in RADII:
                    for arc in ARCS:
                        digest.update(_result_bytes(curve, LoopSpec(center, radius, arc)))
                        cases += 1
    finally:
        tracker._solve_fibers, tracker._START_DIVISIONS = solve, start
    return cases, digest.hexdigest(), work["batches"], work["fibers"]


def main() -> None:
    cases, digest, batches, fibers = sweep()
    print("cases %d" % cases)
    print("sha256 %s" % digest)
    print("batches %d fibers %d" % (batches, fibers))


if __name__ == "__main__":
    main()
