"""Executable fixtures for the catalogued tangential singularities.

Each fixture bundles a local equation, the model braid and the half-loop
(degeneration) braid stated as words in the Artin generators, the
expected final relation set, and the bookkeeping claims that go with it:
which raw relation is redundant and which generator deletions reproduce
which smaller catalogue entries.  The tests derive each stated word from
a geometric motion program, letter for letter; `Fixture.model_program`
encodes the model word back into a program of adjacent half-twists.
The principal fixtures' arguments live in one table keyed by id, so
fixture_by_id builds only the fixture it names; fixtures() builds all.

verify_fixture replays everything end to end.  Per loop it tracks the
loop once, compares the tracked braid, conjugated by the fixture's stated
conjugator, with the model (one comparison of Garside normal forms: a local
braid monodromy is defined up to conjugation, and where the fiber has
complex points the model works in a rearranged frame), and the half-loop
braid (the walk's from its half turn on) with its stated word, the stated
words' forms being derived once per fixture object, and, where
the stated words double (Fixture.lefschetz_doubling), its square with the
tracked braid.  Per fixture object, once, it compares induced and
expected presentations and checks redundancy and deletion claims.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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
from .words import BraidWord, FreeWord, NormalForm, braid_equal, left_normal_form


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
    to the model braid.  `lefschetz_doubling`, derived, is whether L * L =
    c^-1 * M * c for the stated half-loop L and model M; where it holds,
    verify_fixture checks that the tracked half-loop braid squares to the loop's."""

    fixture_id: str
    equation: str
    model_letters: tuple[int, ...]
    lefschetz_letters: tuple[int, ...]
    expected_relations: Presentation
    shear: Fraction = Fraction(0)
    redundancy_claims: tuple[int, ...] = ()
    deletion_checks: tuple[tuple[int, Presentation], ...] = ()
    conjugator: tuple[int, ...] = ()
    lefschetz_doubling: bool = field(init=False)

    def __post_init__(self) -> None:
        n = max(map(abs, self.model_letters), default=0) + 1
        if self.expected_relations.rank != n:
            raise ParseError(
                "fixture %s: %d strands but expected relations have rank %d"
                % (self.fixture_id, n, self.expected_relations.rank)
            )
        model, half, c = (BraidWord(n, w)  # refuses a letter out of range
                          for w in (self.model_letters, self.lefschetz_letters, self.conjugator))
        object.__setattr__(self, "lefschetz_doubling", braid_equal(half * half, c.inverse() * model * c))

    @cached_property
    def curve(self) -> CurveSpec:
        """The parsed equation; a parse error is raised again on each use."""
        return parse_curve(self.equation, self.shear)

    @cached_property
    def relation_checks(self) -> tuple[CheckResult, ...]:
        """model-vs-expected, redundancy-k and deletion-xk; an error is raised again on each use."""
        n, expected = self.expected_relations.rank, self.expected_relations
        raws = raw_relators(BraidWord(n, self.model_letters))  # entry k - 1 is relation k
        checks = [_hom_check("model-vs-expected", Presentation(n, tuple(raws)), expected)]
        for k in self.redundancy_claims:
            verdict = is_consequence(raws[: k - 1] + raws[k:], raws[k - 1])
            checks.append(CheckResult("redundancy-%d" % k, verdict is Verdict.DERIVABLE,
                                      "relation %d %s from the others" % (k, verdict.value)))
        return (*checks, *[_hom_check("deletion-x%d" % gen, kill_generator(expected, gen), small)
                           for gen, small in self.deletion_checks])

    @cached_property
    def stated_forms(self) -> tuple[NormalForm, NormalForm]:
        """Left normal forms of the stated model and half-loop braids, which
        verify_fixture compares the tracked ones with on every loop."""
        n = self.expected_relations.rank
        return (left_normal_form(BraidWord(n, self.model_letters)),
                left_normal_form(BraidWord(n, self.lefschetz_letters)))

    @property
    def model_program(self) -> MotionProgram:
        """`model_letters` as a program on the points 1..n: a letter a is a
        half-twist of the points |a| and |a| + 1, counterclockwise for a > 0,
        in 16 steps, the fewest a half turn takes."""
        return MotionProgram(tuple(range(1, self.expected_relations.rank + 1)), tuple(
            RotateBlock((abs(a), abs(a) + 1), abs(a) + Fraction(1, 2), Fraction(1 if a > 0 else -1), 16)
            for a in self.model_letters))


# The relation sets that other fixtures' deletion checks name.
_EXP31 = Presentation(3, (
    _eq(3, (1, 3, 2), (3, 2, 1)),
    _eq(3, (3, 2, 1, 3, 2), (2, 3, 2, 1, 3)),
))
_EXP32 = Presentation(3, (
    _eq(3, (3, 2, 1), (2, 1, 3)),
    _eq(3, (3, 2, 1, 2, 1), (1, 3, 2, 1, 2)),
))
_EXP33 = Presentation(5, (
    _eq(5, (4, 3, 2), (2, 4, 3)),
    _eq(5, (3, 2, 4, 3, 4), (4, 3, 2, 4, 3)),
    _eq(5, (1,), (4, 3, -4)),
    _eq(5, (4,), (5,)),
))
_TRIO = Presentation(3, tuple(_chain(
    3, (3, 2, 1, 3, 2, 1), (1, 3, 2, 1, 3, 2), (2, 1, 3, 2, 1, 3)
)))
_TRIO543 = Presentation(3, tuple(_chain(
    3, (3, 2, 1, 3, 2, 1), (2, 1, 3, 2, 1, 3), (1, 3, 2, 1, 3, 2)
)))

# The ten principal fixtures plus the two remark variants: each id's Fixture arguments.
_FIXTURES: dict[str, dict] = {
    # Two smooth conics meeting at a single tangency point.
    "two-tangent-conics": dict(
        equation="(y+x^2)(y-x^2)",
        model_letters=(1, 1, 1, 1),
        lefschetz_letters=(1, 1),
        expected_relations=Presentation(2, (_eq(2, (1, 2, 1, 2), (2, 1, 2, 1)),)),
    ),
    # Tangent conics with a secant line passing below the tangency.
    "tangent-conics-secant-below": dict(
        equation="(2x+y)(y+x^2)(y-x^2)",
        model_letters=(2, 2, 2, 2, 1, 2, 2, 1),
        lefschetz_letters=(1, 1, 2, 1),
        expected_relations=_EXP31,
        redundancy_claims=(3,),
    ),
    # Tangent conics with a secant line passing above the tangency.
    "tangent-conics-secant-above": dict(
        equation="(2x-y)(y+x^2)(y-x^2)",
        model_letters=(1, 1, 1, 1, 2, 1, 1, 2),
        lefschetz_letters=(2, 2, 1, 2),
        expected_relations=_EXP32,
    ),
    # Line tangent to a conic pair at a vertical-tangency point; the
    # fiber has two complex points, so the model works with the pair
    # lifted off the axis and matches the tracked braid up to
    # conjugation.
    "vertical-tangency": dict(
        equation="y(y^2+x)(y^2-x)",
        model_letters=(-3, 4, -2, 2, 3, 2, 4, 1, 2, 3, 2, 4, 1, 2, -4, 3),
        lefschetz_letters=(2, 3, 2, 4, 1),
        expected_relations=_EXP33,
        redundancy_claims=(5,),
        conjugator=(-3, -2, -1),
    ),
    # Three branches (line plus two conics) with a common tangent.
    "triple-tangency": dict(
        equation="y(y+x^2)(y-x^2)",
        model_letters=(1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1),
        lefschetz_letters=(1, 2, 1, 1, 2, 1),
        expected_relations=_TRIO,
        redundancy_claims=(3,),
    ),
    # Triple tangency plus a secant below.
    "triple-tangency-secant-below": dict(
        equation="y(2x+y)(y+x^2)(y-x^2)",
        model_letters=(2, 3, 2, 2, 3, 2, 2, 3, 2, 2, 3, 2, 1, 2, 3, 3, 2, 1),
        lefschetz_letters=(1, 2, 1, 1, 2, 1, 3, 2, 1),
        expected_relations=Presentation(4, (
            _eq(4, (1, 4, 3, 2), (4, 3, 2, 1)),
            *_chain(4, (4, 3, 2, 4, 3, 2, 1), (3, 2, 4, 3, 2, 1, 4), (2, 4, 3, 2, 1, 4, 3)),
        )),
        redundancy_claims=(4,),
        deletion_checks=((1, _TRIO), (3, _EXP31)),
    ),
    # Triple tangency plus a secant above.
    "triple-tangency-secant-above": dict(
        equation="y(2x-y)(y+x^2)(y-x^2)",
        model_letters=(1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 3, 2, 1, 1, 2, 3),
        lefschetz_letters=(2, 3, 2, 2, 3, 2, 1, 2, 3),
        expected_relations=Presentation(4, (
            _eq(4, (4, 3, 2, 1), (3, 2, 1, 4)),
            *_chain(4, (3, 2, 1, 3, 2, 1, 4), (2, 1, 3, 2, 1, 4, 3), (1, 3, 2, 1, 4, 3, 2)),
        )),
    ),
    # Triple tangency crossed by the vertical line through the point.
    # Tracked in swapped coordinates with a small shear making the
    # line factor proper; the tangency pair is complex over the
    # basepoint, so the model matches up to conjugation.
    "triple-tangency-vertical-line": dict(
        equation="(x)(y)(x+y^2)(x-y^2)",
        shear=Fraction(1, 100),
        model_letters=(
            -4, 5, -3, 4, -2, 5, 4, 3, 2, 1, 1, 2, 3, 4, 5,
            2, 3, 2, 4, 1, 2, 3, 2, 4, 1, 2, -4, 3, -5, 4,
        ),
        lefschetz_letters=(3, 2, 4, 1, 3, 5, 4, 3, 2, 1),
        expected_relations=Presentation(6, (
            _eq(6, (5, 4, 3, 2), (2, 5, 4, 3)),
            *_chain(6, (3, 5, 4, 3, 2, 5, 4), (5, 4, 3, 2, 5, 4, 3), (4, 3, 5, 4, 3, 2, 5)),
            _eq(6, (1,), (5, 4, 3, -4, -5)),
            _eq(6, (5,), (6,)),
        )),
        redundancy_claims=(6,),
        deletion_checks=((2, _TRIO543), (4, _EXP33)),
        conjugator=(2, -3, -2, -1, -4, -3, -2, -1, -1),
    ),
    # Tangent conics with two secants, one below and one above.
    "double-secant": dict(
        equation="(2x+y)(2x-y)(y+x^2)(y-x^2)",
        model_letters=(2, 2, 2, 2, 1, 3, 2, 1, 3, 1, 3, 2, 1, 3),
        lefschetz_letters=(2, 2, 1, 3, 2, 1, 3),
        expected_relations=Presentation(4, (
            *_chain(4, (4, 3, 2, 1), (1, 4, 3, 2), (3, 2, 1, 4)),
            _eq(4, (4, 3, 2, 1, 3, 2), (2, 4, 3, 2, 1, 3)),
        )),
        redundancy_claims=(3,),
        deletion_checks=((1, _EXP32), (4, _EXP31)),
    ),
    # Vertical tangency with an extra transversal line; the model
    # nests a full twist of the middle pair inside the outer half
    # rotation, and matches the tracked braid up to conjugation.
    "vertical-tangency-line-pair": dict(
        equation="y(x+2y)(y^2+x)(y^2-x)",
        model_letters=(
            -4, 5, -3, 4, 3, 4, 2, 5, 1, 2, 4, 3, 4, 2, 5, 1,
            4, 2, -4, -2, 3, 4, 2, -4, -2, 3, 4, 2, -4, 3, -5, 4,
        ),
        lefschetz_letters=(2, 3, 2, 4, 5, 1, 4, -4, 3, 2),
        expected_relations=Presentation(6, (
            *_chain(6, (5, 4, 3, 2), (2, 5, 4, 3), (3, 2, 5, 4)),
            _eq(6, (4, 5, 4, 3, 2, 5), (5, 4, 3, 2, 5, 4)),
            _eq(6, (1,), (5, 4, -5)),
            _eq(6, (5,), (6,)),
        )),
        redundancy_claims=(6,),
        deletion_checks=((2, _EXP33), (3, _EXP33)),
        conjugator=(-4, -3, 5),
    ),
    # Remark variants: one conic of the tangent pair replaced by its
    # tangent line, same braid and relations as the parent fixtures.
    "conic-line-tangency-secant-below": dict(
        equation="y(2x+y)(y+x^2)",
        model_letters=(2, 2, 2, 2, 1, 2, 2, 1),
        lefschetz_letters=(1, 1, 2, 1),
        expected_relations=_EXP31,
    ),
    "conic-line-tangency-secant-above": dict(
        equation="y(2x-y)(y+x^2)",
        model_letters=(1, 1, 1, 1, 2, 1, 1, 2),
        lefschetz_letters=(2, 2, 1, 2),
        expected_relations=_EXP32,
    ),
}


def fixtures() -> list[Fixture]:
    """The ten principal fixtures plus the two remark variants."""
    return [Fixture(fixture_id=k, **kw) for k, kw in _FIXTURES.items()]


def fixture_by_id(fixture_id: str) -> Fixture:
    """The named fixture, built alone: a principal id or n-tangency-n."""
    if fixture_id in _FIXTURES:
        return Fixture(fixture_id=fixture_id, **_FIXTURES[fixture_id])
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
def verify_fixture(f: Fixture, *, radius: Fraction = Fraction(1)) -> VerificationReport:
    """f's checks on the loop |x| = radius: the tracked braid, f.relation_checks,
    then the half-loop braid.  A tracking error fails the loop's checks."""
    checks: list[CheckResult] = []
    n = f.expected_relations.rank  # the words' strand count
    model, stated_half = f.stated_forms

    failure = None
    try:
        motion = track_loop(f.curve, LoopSpec(radius=radius))
        tracked, half = motion_to_braid(motion), lefschetz_braid(motion)
    except BraidMonoError as e:
        failure = "tracking failed: %s" % e
        checks.append(CheckResult("tracked-vs-model", False, failure))
    else:
        c = BraidWord(n, f.conjugator)
        ok = left_normal_form(c * tracked * c.inverse()) == model
        if not ok:
            detail = "%s braid differs from the model" % ("conjugated" if f.conjugator else "tracked")
        elif f.conjugator:
            detail = "braids are conjugate"
        else:
            detail = "braid words agree (%d letters)" % len(f.model_letters)
        checks.append(CheckResult("tracked-vs-model", ok, detail))

    checks += f.relation_checks
    if failure is not None:
        checks.append(CheckResult("lefschetz", False, failure))
    else:
        ok = left_normal_form(half) == stated_half
        checks.append(CheckResult(
            "lefschetz-program", ok,
            "half-loop braid %s the program" % ("matches" if ok else "differs from")))
        if f.lefschetz_doubling:
            ok = braid_equal(half * half, tracked)
            checks.append(CheckResult(
                "lefschetz-doubling", ok,
                "half squared %s the full loop" % ("equals" if ok else "differs from")))

    return VerificationReport(f.fixture_id, tuple(checks))
