"""Outcome pins of motion_to_braid on seeded random motions.

tests/data/motion_walk_pins.json holds, for each of 4,000 motions drawn
from a fixed seed, the braid letters that motion_to_braid returns or the
class and message of the error it raises, together with a digest of the
drawn inputs.  The motions have 2 to 6 strands and 2 to 8 samples and
come in four kinds:

- lattice: every position on the Gaussian integers of modulus class 2;
- sheared: keys tied by the shear, re = k - EPS*im for integers k,
  up to nudges within the tie tolerance;
- swaps: slots on the axis exchanged in steps, adjacent pairs swapping
  and triples reversing with layered (and sometimes equal) imaginary
  parts, so crossings happen alone and several at one parameter;
- gauss: normally distributed points.

The crossing walk may be rewritten for speed, but each of these
outcomes must stay as it was.  Regenerate the data only on purpose:

    PYTHONPATH=src python tests/test_motion_walk_pins.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

from braidmono import Motion, motion_to_braid
from braidmono.errors import BraidMonoError, DegenerateMotionError
from braidmono.motion import EPS, _KEY_TOL, _LAMBDA_TOL, strand_key

DATA = Path(__file__).parent / "data" / "motion_walk_pins.json"
PER_KIND = 1000


def _lattice(rng, n, samples):
    return [[complex(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(samples)]
            for _ in range(n)]


def _sheared(rng, n, samples):
    """Keys on the integers k, nudged by whole multiples of 1e-12 (the tie
    tolerance at modulus 1) so that ties can chain; the first sample has
    distinct k."""
    def point(k):
        im = rng.choice((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0))
        return complex(k - EPS * im + 1e-12 * rng.randint(-4, 4), im)
    return [[point(k)] + [point(rng.randint(-3, 3)) for _ in range(samples - 1)]
            for k in rng.sample(range(-3, 4), n)]


def _swaps(rng, n, samples):
    """Strands on the slots 0..n-1 of the axis, lifted to layered heights
    while they exchange slots.  Each step swaps some disjoint adjacent
    pairs or reverses a triple; a pair at heights h and -h crosses at
    0.5 - EPS*h, so moves of one height are simultaneous."""
    slot = list(range(n))  # slot of each strand
    height = [0.0] * n
    rows = [[complex(s)] for s in slot]
    for _ in range(samples - 1):
        at = {s: k for k, s in enumerate(slot)}
        p = 0
        while p < n - 1:
            h = 0.0 if rng.random() < 0.05 else rng.choice((0.5, 1.0, -1.0, 2.0))
            r = rng.random()
            if r < 0.35 or (r < 0.5 and p == n - 2):
                a, b = at[p], at[p + 1]
                slot[a], slot[b] = p + 1, p
                height[a], height[b] = h, -h
                p += 2
            elif r < 0.5:
                a, b, c = at[p], at[p + 1], at[p + 2]
                slot[a], slot[c] = p + 2, p
                height[a], height[b], height[c] = h, 0.0, -h
                p += 3
            else:
                p += 1
        for k in range(n):
            rows[k].append(complex(slot[k], height[k]))
            if rows[k][-2].real == slot[k]:
                height[k] = 0.0
    return rows


def _gauss(rng, n, samples):
    return [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(samples)]
            for _ in range(n)]


KINDS = (("lattice", _lattice), ("sheared", _sheared), ("swaps", _swaps), ("gauss", _gauss))


def seeded_motions() -> list[tuple[str, Motion]]:
    """PER_KIND motions of each kind; draws that coincide at a sample are
    drawn again."""
    rng = random.Random("motion-walk-pins")
    out = []
    for kind, draw in KINDS:
        while sum(k == kind for k, _ in out) < PER_KIND:
            n, samples = rng.randint(2, 6), rng.randint(2, 8)
            times = tuple(float(t) for t in range(samples))
            try:
                out.append((kind, Motion(times, draw(rng, n, samples))))
            except DegenerateMotionError:
                continue
    return out


def input_digest(motions) -> str:
    h = hashlib.sha256()
    for kind, m in motions:
        h.update(kind.encode())
        h.update(np.array(m.times, dtype=np.float64).tobytes())
        h.update(m.paths.tobytes())
    return h.hexdigest()


def outcome(m: Motion) -> list:
    """The letters of the braid, or the class and message of the error."""
    try:
        return list(motion_to_braid(m).letters)
    except BraidMonoError as err:
        return [type(err).__name__, str(err)]


def largest_cluster(m: Motion) -> int:
    """Most strand pairs of one step whose gaps change sign strictly inside
    it at parameters within _LAMBDA_TOL of each other (chained)."""
    keys = strand_key(m.paths).tolist()
    scale = np.abs(m.paths).max(axis=0).tolist()
    best = 0
    for j in range(len(m.times) - 1):
        tol = _KEY_TOL * max(scale[j], scale[j + 1])
        lams = []
        for a in range(m.strands):
            for b in range(a + 1, m.strands):
                d0 = keys[a][j] - keys[b][j]
                d1 = keys[a][j + 1] - keys[b][j + 1]
                if abs(d0) > tol and abs(d1) > tol and (d0 < 0) != (d1 < 0):
                    lams.append(d0 / (d0 - d1))
        lams.sort()
        run = 0
        for k, lam in enumerate(lams):
            run = run + 1 if k and lam - lams[k - 1] <= _LAMBDA_TOL else 1
            best = max(best, run)
    return best


MOTIONS = seeded_motions()
PINNED = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else {}


def test_drawn_motions_are_the_pinned_inputs():
    assert len(MOTIONS) == 4 * PER_KIND
    assert input_digest(MOTIONS) == PINNED["inputs"]


def test_walk_outcomes_are_pinned():
    wrong = [(k, kind, outcome(m), pin)
             for k, ((kind, m), pin) in enumerate(zip(MOTIONS, PINNED["outcomes"]))
             if outcome(m) != pin]
    assert len(PINNED["outcomes"]) == len(MOTIONS)
    assert not wrong, "%d outcomes differ, first: %r" % (len(wrong), wrong[0])


def test_pins_cover_both_refusals_and_both_cluster_sizes():
    messages = [pin[1] for pin in PINNED["outcomes"] if pin and isinstance(pin[0], str)]
    assert any(msg.startswith("simultaneous crossings of non-adjacent strands") for msg in messages)
    assert any(msg.startswith("cannot layer simultaneous crossing") for msg in messages)
    sizes = {largest_cluster(m) for _, m in MOTIONS}
    assert 1 in sizes and max(sizes) >= 3


if __name__ == "__main__":
    DATA.write_text(json.dumps({
        "inputs": input_digest(MOTIONS),
        "outcomes": [outcome(m) for _, m in MOTIONS],
    }, separators=(",", ":")) + "\n", encoding="utf-8")
