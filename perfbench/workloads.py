"""The three benchmark workloads: seeded inputs, one operation, one check.

Each workload mirrors one thing a user of braidmono does and calls the
same library functions as the matching command-line handler.  Inputs are
drawn from the benchmark seed only; the library sees nothing but the
generated inputs.  Every answer is checked against a reference that this
module computes on its own, outside the timed region.

A run is a fixed set of cells, one for each point of a design over what
the cost depends on (every fixture, every strand count, a grid of
sizes), and a few rounds.  Each round runs every cell once on an input
of its own, drawn from the seed, so the operations of a cell cost about
the same and, wherever the cell has more than one input, are not all
the same call.  Two seeds give different inputs with
the same mix of costs, which keeps the per-run figures comparable across
seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import braidmono as bm

# Radii the verify workload draws from; every catalogue fixture passes
# at each of them.
VERIFY_RADII = (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4), Fraction(3, 2))

# The budget that tests/test_acceptance.py gives simplify in its
# Tietze suite.  The default budget takes minutes per catalogue pass.
SIMPLIFY_MAX_LEN = 24
SIMPLIFY_BUDGET = 200

# Hom counts of each fixture's expected relations over default_targets(),
# in battery order (C2 C3 C4 C6 S3 D4 Q8 A4 D6 S4).  Kept as data so that
# the present check does not rest on the counter it is checking.
EXPECTED_HOM_COUNTS = {
    "two-tangent-conics": (4, 9, 16, 36, 30, 64, 64, 72, 120, 312),
    "tangent-conics-secant-below": (8, 27, 64, 216, 66, 224, 224, 264, 528, 1032),
    "tangent-conics-secant-above": (8, 27, 64, 216, 66, 224, 224, 264, 528, 1032),
    "vertical-tangency": (8, 27, 64, 216, 66, 224, 224, 264, 528, 1032),
    "triple-tangency": (8, 27, 64, 216, 162, 512, 512, 648, 1296, 6216),
    "triple-tangency-secant-below": (16, 81, 256, 1296, 294, 1408, 1408, 2136, 4704, 16344),
    "triple-tangency-secant-above": (16, 81, 256, 1296, 294, 1408, 1408, 2136, 4704, 16344),
    "triple-tangency-vertical-line": (16, 81, 256, 1296, 294, 1408, 1408, 2136, 4704, 16344),
    "double-secant": (16, 81, 256, 1296, 228, 1216, 1216, 1296, 3648, 7056),
    "vertical-tangency-line-pair": (16, 81, 256, 1296, 228, 1216, 1216, 1296, 3648, 7056),
    "conic-line-tangency-secant-below": (8, 27, 64, 216, 66, 224, 224, 264, 528, 1032),
    "conic-line-tangency-secant-above": (8, 27, 64, 216, 66, 224, 224, 264, 528, 1032),
    "n-tangency-2": (4, 9, 16, 36, 30, 64, 64, 72, 120, 312),
    "n-tangency-3": (8, 27, 64, 216, 162, 512, 512, 648, 1296, 6216),
    "n-tangency-4": (16, 81, 256, 1296, 918, 4096, 4096, 7128, 14688, 141528),
}


def catalogue() -> list:
    """The `verify all` list: the catalogue plus n-tangency-2..4."""
    return bm.fixtures() + [bm.n_tangency_fixture(n) for n in (2, 3, 4)]


# ---------------------------------------------------------------------------
# Workloads.


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    setup() runs once per run, untimed.  make_cells(rng, ctx, rounds)
    draws the inputs: one tuple of `rounds` distinct inputs per cell.
    run(ctx, item) is one timed operation; check(ctx, item, answer)
    decides whether its answer is right.  round_seconds is the nominal
    duration of one round on the reference host; it sizes the fixed
    batch for a given --seconds, between 2 and max_rounds rounds.
    max_rounds is at most the number of distinct inputs a cell has, and
    smaller where the time limit for all runs needs it.
    """

    name: str
    round_seconds: float
    max_rounds: int
    setup: Callable[[], Any]
    make_cells: Callable[[random.Random, Any, int], list]
    run: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], bool]


# verify-catalogue: one verify_fixture call per fixture and seeded radius;
# a cell is a fixture, its rounds take distinct radii.

def _verify_setup():
    return {f.fixture_id: f for f in catalogue()}


def _verify_cells(rng, ctx, rounds):
    return [tuple((fid, r) for r in rng.sample(VERIFY_RADII, rounds)) for fid in ctx]


def _verify_run(ctx, item):
    fid, radius = item
    return bm.verify_fixture(ctx[fid], radius=radius)


def _verify_check(ctx, item, report):
    return report.fixture_id == item[0] and bool(report.checks) and report.passed


# present-catalogue: induced presentation of a rotated model braid; a
# cell is a fixture, its rounds take distinct rotations.
#
# The rotation moves at most PRESENT_MAX_SHIFT letters from the front
# of the word to the back (every model braid has at least four).  Over
# the full cycle the cost of simplify is heavy-tailed: the 30 rotations
# of triple-tangency-vertical-line take 0.7 to 20 s, which at two
# rotations per fixture spreads goodput between seeds by about a fifth.
# The first few rotations cost about the same.

PRESENT_MAX_SHIFT = 3


def _present_setup():
    braids = {f.fixture_id: f.model_program.braid() for f in catalogue()}
    return {"braids": braids, "counter": HomCounter()}


def _present_cells(rng, ctx, rounds):
    return [
        tuple((fid, b.strands, b.letters[k:] + b.letters[:k])
              for k in rng.sample(range(PRESENT_MAX_SHIFT + 1), rounds))
        for fid, b in ctx["braids"].items()
    ]


def _present_run(ctx, item):
    braid = bm.BraidWord(item[1], item[2])
    pres = bm.induced_presentation(braid)
    bm.braid_images(braid)
    return bm.simplify(pres, max_len=SIMPLIFY_MAX_LEN, budget=SIMPLIFY_BUDGET)


class HomCounter:
    """Hom counts over default_targets(), cached per relator set."""

    def __init__(self):
        self.targets = bm.default_targets()
        self._cache: dict = {}

    def counts(self, pres) -> tuple[int, ...]:
        key = (pres.rank, frozenset(r.letters for r in pres.relators))
        if key not in self._cache:
            self._cache[key] = tuple(
                bm.count_homomorphisms(pres, g) for _, g in self.targets)
        return self._cache[key]


def _present_check(ctx, item, result):
    counts = ctx["counter"].counts(result.presentation)
    return counts == EXPECTED_HOM_COUNTS[item[0]]


# program-braids: braid of a RotateBlock program encoding a word; a cell
# is a (strands, length) pair, its rounds draw words.

PROGRAM_STRANDS = range(2, 7)
PROGRAM_LENGTHS = range(0, 31)
PROGRAM_STEPS = 16


def _program_item(rng, n, length):
    letters = tuple(rng.choice((-1, 1)) * rng.randint(1, n - 1) for _ in range(length))
    moves = tuple(
        bm.RotateBlock(
            (abs(a), abs(a) + 1),
            complex(abs(a) + 0.5, 0.0),
            Fraction(1 if a > 0 else -1),
            steps=PROGRAM_STEPS,
        )
        for a in letters
    )
    return (tuple(range(1, n + 1)), moves, letters)


def _program_cells(rng, ctx, rounds):
    return [
        tuple(_program_item(rng, n, length) for _ in range(rounds))
        for n in PROGRAM_STRANDS
        for length in PROGRAM_LENGTHS
    ]


def _program_run(ctx, item):
    return bm.MotionProgram(item[0], item[1]).braid()


def _program_check(ctx, item, braid):
    return braid.strands == len(item[0]) and braid.letters == item[2]


# Why each workload exists and which layer it targets: perfbench/README.md
# and the "why" entries of BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-catalogue",
            round_seconds=12.0,
            max_rounds=len(VERIFY_RADII),
            setup=_verify_setup,
            make_cells=_verify_cells,
            run=_verify_run,
            check=_verify_check,
        ),
        Workload(
            name="present-catalogue",
            round_seconds=14.0,
            max_rounds=PRESENT_MAX_SHIFT + 1,
            setup=_present_setup,
            make_cells=_present_cells,
            run=_present_run,
            check=_present_check,
        ),
        Workload(
            name="program-braids",
            round_seconds=4.3,
            max_rounds=6,
            setup=lambda: None,
            make_cells=_program_cells,
            run=_program_run,
            check=_program_check,
        ),
    )
}


def rounds_for(workload: Workload, seconds: float) -> int:
    """As many whole rounds as it takes to fill `seconds`, at least 2, at most max_rounds."""
    return min(workload.max_rounds, max(2, math.ceil(seconds / workload.round_seconds)))


def make_batch(workload: Workload, seed: int, seconds: float, ctx) -> list:
    """The run's fixed batch of (cell, input) pairs in run order.

    Round after round, every cell runs once, in a seeded order.
    """
    rng = random.Random("%s/%d" % (workload.name, seed))
    rounds = rounds_for(workload, seconds)
    cells = workload.make_cells(rng, ctx, rounds)
    batch = []
    for r in range(rounds):
        order = list(range(len(cells)))
        rng.shuffle(order)
        batch.extend((c, cells[c][r]) for c in order)
    return batch
