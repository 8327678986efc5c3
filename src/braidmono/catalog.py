"""Executable fixtures for the catalogued tangential singularities.

Each fixture bundles a local equation, the model braid and the half-loop
(degeneration) braid stated as words in the Artin generators, the
expected final relation set, and the bookkeeping claims that go with it:
which raw relation is redundant and which generator deletions reproduce
which smaller catalogue entries.  The tests derive each stated word from
a geometric motion program, letter for letter; `Fixture.model_program`
encodes the model word back into a program of adjacent half-twists.

verify_fixture replays everything end to end: it tracks the full loop
once, compares the tracked braid, conjugated by the fixture's stated
conjugator, with the model (one comparison of Garside normal forms: a
local braid monodromy is defined up to conjugation, and where the fiber
has complex points the model works in a rearranged frame), compares
induced and expected presentations, checks redundancy derivability,
deletion consequences, and the half-loop braid (the walk's from its
half turn on) against its stated word or the doubling identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .curves import CurveSpec, parse_curve
from .errors import BraidMonoError, CapacityError, ParseError
from .homcount import count_memo, equivalence_evidence
from .motion import MotionProgram, RotateBlock, motion_to_braid
from .presentations import (
    Presentation,
    Verdict,
    is_consequence,
    kill_generator,
)
from .tracker import LoopSpec, lefschetz_braid, track_loop
from .vankampen import raw_relators
from .words import BraidWord, FreeWord, braid_equal

F = Fraction


def _eq(rank: int, lhs: Sequence[int], rhs: Sequence[int]) -> FreeWord:
    return FreeWord(rank, tuple(lhs)) * FreeWord(rank, tuple(rhs)).inverse()


def _chain(rank: int, *words: Sequence[int]) -> list[FreeWord]:
    """Relators equating every listed word to the first one."""
    return [_eq(rank, words[0], w) for w in words[1:]]


@dataclass(frozen=True)
class Fixture:
    """One catalogued singularity with everything needed to verify it.

    `model_letters` and `lefschetz_letters` state the model and half-loop
    braids (the tests derive each from a motion program, letter for letter),
    on one more strand than the model's largest generator: the rank of
    `expected_relations`.  Where the model works in a rearranged frame,
    `conjugator` holds the letters of a braid c with c * tracked * c^-1 equal
    to the model braid."""

    fixture_id: str
    equation: str
    model_letters: tuple[int, ...]
    lefschetz_letters: tuple[int, ...]
    expected_relations: Presentation
    shear: Fraction = Fraction(0)
    lefschetz_doubling: bool = False
    redundancy_claims: tuple[int, ...] = ()
    deletion_checks: tuple[tuple[int, Presentation], ...] = ()
    conjugator: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        n = max(map(abs, self.model_letters), default=0) + 1
        if self.expected_relations.rank != n:
            raise ParseError(
                "fixture %s: %d strands but expected relations have rank %d"
                % (self.fixture_id, n, self.expected_relations.rank)
            )
        for word in (self.model_letters, self.lefschetz_letters, self.conjugator):
            BraidWord(n, word)  # refuses a letter out of range

    @cached_property
    def curve(self) -> CurveSpec:
        """The parsed equation; a parse error is raised again on each use."""
        return parse_curve(self.equation, self.shear)

    @property
    def model_program(self) -> MotionProgram:
        """`model_letters` as a program on the points 1..n: a letter a is a
        half-twist of the points |a| and |a| + 1, counterclockwise for a > 0,
        in 16 steps, the fewest a half turn takes."""
        return MotionProgram(tuple(range(1, self.expected_relations.rank + 1)), tuple(
            RotateBlock((abs(a), abs(a) + 1), abs(a) + F(1, 2), F(1 if a > 0 else -1), 16)
            for a in self.model_letters))


def fixtures() -> list[Fixture]:
    """The ten principal fixtures plus the two remark variants."""
    out = []

    # Two smooth conics meeting at a single tangency point.
    out.append(Fixture(
        fixture_id="two-tangent-conics",
        equation="(y+x^2)(y-x^2)",
        model_letters=(1, 1, 1, 1),
        lefschetz_letters=(1, 1),
        lefschetz_doubling=True,
        expected_relations=Presentation(2, (_eq(2, (1, 2, 1, 2), (2, 1, 2, 1)),)),
    ))

    # Tangent conics with a secant line passing below the tangency.
    exp31 = Presentation(3, (
        _eq(3, (1, 3, 2), (3, 2, 1)),
        _eq(3, (3, 2, 1, 3, 2), (2, 3, 2, 1, 3)),
    ))
    out.append(Fixture(
        fixture_id="tangent-conics-secant-below",
        equation="(2x+y)(y+x^2)(y-x^2)",
        model_letters=(2, 2, 2, 2, 1, 2, 2, 1),
        lefschetz_letters=(1, 1, 2, 1),
        expected_relations=exp31,
        redundancy_claims=(3,),
    ))

    # Tangent conics with a secant line passing above the tangency.
    exp32 = Presentation(3, (
        _eq(3, (3, 2, 1), (2, 1, 3)),
        _eq(3, (3, 2, 1, 2, 1), (1, 3, 2, 1, 2)),
    ))
    out.append(Fixture(
        fixture_id="tangent-conics-secant-above",
        equation="(2x-y)(y+x^2)(y-x^2)",
        model_letters=(1, 1, 1, 1, 2, 1, 1, 2),
        lefschetz_letters=(2, 2, 1, 2),
        expected_relations=exp32,
    ))

    # Line tangent to a conic pair at a vertical-tangency point; the
    # fiber has two complex points, so the model works with the pair
    # lifted off the axis and matches the tracked braid up to
    # conjugation.
    exp33 = Presentation(5, (
        _eq(5, (4, 3, 2), (2, 4, 3)),
        _eq(5, (3, 2, 4, 3, 4), (4, 3, 2, 4, 3)),
        _eq(5, (1,), (4, 3, -4)),
        _eq(5, (4,), (5,)),
    ))
    out.append(Fixture(
        fixture_id="vertical-tangency",
        equation="y(y^2+x)(y^2-x)",
        model_letters=(-3, 4, -2, 2, 3, 2, 4, 1, 2, 3, 2, 4, 1, 2, -4, 3),
        lefschetz_letters=(2, 3, 2, 4, 1),
        expected_relations=exp33,
        redundancy_claims=(5,),
        conjugator=(-3, -2, -1),
    ))

    # Three branches (line plus two conics) with a common tangent.
    trio = Presentation(3, tuple(_chain(
        3, (3, 2, 1, 3, 2, 1), (1, 3, 2, 1, 3, 2), (2, 1, 3, 2, 1, 3)
    )))
    out.append(Fixture(
        fixture_id="triple-tangency",
        equation="y(y+x^2)(y-x^2)",
        model_letters=(1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1),
        lefschetz_letters=(1, 2, 1, 1, 2, 1),
        lefschetz_doubling=True,
        expected_relations=trio,
        redundancy_claims=(3,),
    ))

    # Triple tangency plus a secant below.
    exp411 = Presentation(4, (
        _eq(4, (1, 4, 3, 2), (4, 3, 2, 1)),
        *_chain(4, (4, 3, 2, 4, 3, 2, 1), (3, 2, 4, 3, 2, 1, 4), (2, 4, 3, 2, 1, 4, 3)),
    ))
    out.append(Fixture(
        fixture_id="triple-tangency-secant-below",
        equation="y(2x+y)(y+x^2)(y-x^2)",
        model_letters=(2, 3, 2, 2, 3, 2, 2, 3, 2, 2, 3, 2, 1, 2, 3, 3, 2, 1),
        lefschetz_letters=(1, 2, 1, 1, 2, 1, 3, 2, 1),
        expected_relations=exp411,
        redundancy_claims=(4,),
        deletion_checks=((1, trio), (3, exp31)),
    ))

    # Triple tangency plus a secant above.
    exp412 = Presentation(4, (
        _eq(4, (4, 3, 2, 1), (3, 2, 1, 4)),
        *_chain(4, (3, 2, 1, 3, 2, 1, 4), (2, 1, 3, 2, 1, 4, 3), (1, 3, 2, 1, 4, 3, 2)),
    ))
    out.append(Fixture(
        fixture_id="triple-tangency-secant-above",
        equation="y(2x-y)(y+x^2)(y-x^2)",
        model_letters=(1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 3, 2, 1, 1, 2, 3),
        lefschetz_letters=(2, 3, 2, 2, 3, 2, 1, 2, 3),
        expected_relations=exp412,
    ))

    # Triple tangency crossed by the vertical line through the point.
    # Tracked in swapped coordinates with a small shear making the
    # line factor proper; the tangency pair is complex over the
    # basepoint, so the model matches up to conjugation.
    exp413 = Presentation(6, (
        _eq(6, (5, 4, 3, 2), (2, 5, 4, 3)),
        *_chain(6, (3, 5, 4, 3, 2, 5, 4), (5, 4, 3, 2, 5, 4, 3), (4, 3, 5, 4, 3, 2, 5)),
        _eq(6, (1,), (5, 4, 3, -4, -5)),
        _eq(6, (5,), (6,)),
    ))
    trio543 = Presentation(3, tuple(_chain(
        3, (3, 2, 1, 3, 2, 1), (2, 1, 3, 2, 1, 3), (1, 3, 2, 1, 3, 2)
    )))
    out.append(Fixture(
        fixture_id="triple-tangency-vertical-line",
        equation="(x)(y)(x+y^2)(x-y^2)",
        shear=F(1, 100),
        model_letters=(
            -4, 5, -3, 4, -2, 5, 4, 3, 2, 1, 1, 2, 3, 4, 5,
            2, 3, 2, 4, 1, 2, 3, 2, 4, 1, 2, -4, 3, -5, 4,
        ),
        lefschetz_letters=(3, 2, 4, 1, 3, 5, 4, 3, 2, 1),
        expected_relations=exp413,
        redundancy_claims=(6,),
        deletion_checks=((2, trio543), (4, exp33)),
        conjugator=(2, -3, -2, -1, -4, -3, -2, -1, -1),
    ))

    # Tangent conics with two secants, one below and one above.
    exp421 = Presentation(4, (
        *_chain(4, (4, 3, 2, 1), (1, 4, 3, 2), (3, 2, 1, 4)),
        _eq(4, (4, 3, 2, 1, 3, 2), (2, 4, 3, 2, 1, 3)),
    ))
    out.append(Fixture(
        fixture_id="double-secant",
        equation="(2x+y)(2x-y)(y+x^2)(y-x^2)",
        model_letters=(2, 2, 2, 2, 1, 3, 2, 1, 3, 1, 3, 2, 1, 3),
        lefschetz_letters=(2, 2, 1, 3, 2, 1, 3),
        expected_relations=exp421,
        redundancy_claims=(3,),
        deletion_checks=((1, exp32), (4, exp31)),
    ))

    # Vertical tangency with an extra transversal line; the model
    # nests a full twist of the middle pair inside the outer half
    # rotation, and matches the tracked braid up to conjugation.
    exp422 = Presentation(6, (
        *_chain(6, (5, 4, 3, 2), (2, 5, 4, 3), (3, 2, 5, 4)),
        _eq(6, (4, 5, 4, 3, 2, 5), (5, 4, 3, 2, 5, 4)),
        _eq(6, (1,), (5, 4, -5)),
        _eq(6, (5,), (6,)),
    ))
    out.append(Fixture(
        fixture_id="vertical-tangency-line-pair",
        equation="y(x+2y)(y^2+x)(y^2-x)",
        model_letters=(
            -4, 5, -3, 4, 3, 4, 2, 5, 1, 2, 4, 3, 4, 2, 5, 1,
            4, 2, -4, -2, 3, 4, 2, -4, -2, 3, 4, 2, -4, 3, -5, 4,
        ),
        lefschetz_letters=(2, 3, 2, 4, 5, 1, 4, -4, 3, 2),
        expected_relations=exp422,
        redundancy_claims=(6,),
        deletion_checks=((2, exp33), (3, exp33)),
        conjugator=(-4, -3, 5),
    ))

    # Remark variants: one conic of the tangent pair replaced by its
    # tangent line, same braid and relations as the parent fixtures.
    out.append(Fixture(
        fixture_id="conic-line-tangency-secant-below",
        equation="y(2x+y)(y+x^2)",
        model_letters=(2, 2, 2, 2, 1, 2, 2, 1),
        lefschetz_letters=(1, 1, 2, 1),
        expected_relations=exp31,
    ))
    out.append(Fixture(
        fixture_id="conic-line-tangency-secant-above",
        equation="y(2x-y)(y+x^2)",
        model_letters=(1, 1, 1, 1, 2, 1, 1, 2),
        lefschetz_letters=(2, 2, 1, 2),
        expected_relations=exp32,
    ))
    return out


def fixture_by_id(fixture_id: str) -> Fixture:
    for f in fixtures():
        if f.fixture_id == fixture_id:
            return f
    # Only the ids that n_tangency_fixture gives: no sign, space or leading zero.
    if m := re.fullmatch("n-tangency-([1-9][0-9]*)", fixture_id):
        try:
            n = int(m[1])
        except ValueError:  # more digits than int() reads: sys.get_int_max_str_digits()
            raise ParseError("unknown fixture id %r" % fixture_id[:40]) from None
        return n_tangency_fixture(n)
    raise ParseError("unknown fixture id %r" % fixture_id[:40])


def n_tangency_fixture(n: int) -> Fixture:
    """n smooth branches sharing a tangent: y = k*x^2 for k = 1..n."""
    if not 2 <= n <= 6:
        raise CapacityError("n-tangency fixtures support 2 <= n <= 6")
    base = tuple(range(n, 0, -1))
    cyc = [base[-k:] + base[:-k] for k in range(n)]  # base rotated right k times
    expected = Presentation(n, tuple(_chain(n, *[w + w for w in cyc])))
    # The half twist: (s1 .. s_{n-1})(s1 .. s_{n-2}) .. (s1).
    delta = tuple(a for top in range(n - 1, 0, -1) for a in range(1, top + 1))
    return Fixture(
        fixture_id="n-tangency-%d" % n,
        equation="(y-x^2)" + "".join("(y-%dx^2)" % k for k in range(2, n + 1)),
        model_letters=delta * 4,
        lefschetz_letters=delta * 2,
        lefschetz_doubling=True,
        expected_relations=expected,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    fixture_id: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            out.append("%-4s %s %s: %s" % (status, self.fixture_id, c.name, c.detail))
        return out


def _hom_check(name: str, p: Presentation, q: Presentation) -> CheckResult:
    ok = equivalence_evidence(p, q)
    return CheckResult(name, ok, "hom counts %s" % ("Consistent" if ok else "Inconsistent"))


@count_memo()
def verify_fixture(f: Fixture, *, radius: Fraction = F(1)) -> VerificationReport:
    checks: list[CheckResult] = []
    n = f.expected_relations.rank  # the words' strand count
    model_braid = BraidWord(n, f.model_letters)

    failure = None
    try:
        motion = track_loop(f.curve, LoopSpec(radius=radius))
        tracked, half = motion_to_braid(motion), lefschetz_braid(motion)
    except BraidMonoError as e:
        failure = "tracking failed: %s" % e
        checks.append(CheckResult("tracked-vs-model", False, failure))
    else:
        c = BraidWord(n, f.conjugator)
        ok = braid_equal(c * tracked * c.inverse(), model_braid)
        if not ok:
            detail = "%s braid differs from the model" % ("conjugated" if f.conjugator else "tracked")
        elif f.conjugator:
            detail = "braids are conjugate"
        else:
            detail = "braid words agree (%d letters)" % len(model_braid.letters)
        checks.append(CheckResult("tracked-vs-model", ok, detail))

    raws = raw_relators(model_braid)  # entry k - 1 is relation k, trivial or not
    model = Presentation(n, tuple(raws))
    checks.append(_hom_check("model-vs-expected", model, f.expected_relations))

    for k in f.redundancy_claims:
        rest = raws[: k - 1] + raws[k:]
        verdict = is_consequence(rest, raws[k - 1])
        checks.append(CheckResult(
            "redundancy-%d" % k, verdict is Verdict.DERIVABLE,
            "relation %d %s from the others" % (k, verdict.value)))

    for gen, expected_small in f.deletion_checks:
        checks.append(_hom_check(
            "deletion-x%d" % gen, kill_generator(f.expected_relations, gen), expected_small))

    if failure is not None:
        checks.append(CheckResult("lefschetz", False, failure))
    else:
        ok = braid_equal(half, BraidWord(n, f.lefschetz_letters))
        checks.append(CheckResult(
            "lefschetz-program", ok,
            "half-loop braid %s the program" % ("matches" if ok else "differs from")))
        if f.lefschetz_doubling:
            ok = braid_equal(half * half, tracked)
            checks.append(CheckResult(
                "lefschetz-doubling", ok,
                "half squared %s the full loop" % ("equals" if ok else "differs from")))

    return VerificationReport(f.fixture_id, tuple(checks))
