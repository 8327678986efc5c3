"""Library refusals that no other test reaches: each names its error class
and its exact message."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import pytest

from braidmono import (
    BraidWord,
    CurveSpec,
    FiniteGroupTable,
    FreeWord,
    LoopSpec,
    Motion,
    MotionProgram,
    Permutation,
    Presentation,
    RotateBlock,
    alternating_group,
    compose_motions,
    cyclic_group,
    dihedral_group,
    fixture_by_id,
    parse_curve,
    parse_polynomial,
    symmetric_group,
    verify_fixture,
)
from braidmono import cli, curves
from braidmono.errors import (
    CapacityError,
    CriticalFiberError,
    DegenerateMotionError,
    DimensionMismatchError,
    GeometryError,
    GroupTableError,
    ImproperProjectionError,
    MalformedWordError,
    ParseError,
    check_limit,
)
from catalog_programs import Encircle, FrameIn

# A number of more digits than int() converts (sys.get_int_max_str_digits()).
_DIGITS = "9" * 5000
# A factor without y whose text runs to 4,685 characters.
_POWERS = "+".join("x^%d" % k for k in range(799, 0, -1))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: parse_polynomial("x-x"), ParseError,
                 "polynomial 'x-x' is zero", id="zero-polynomial"),
    pytest.param(lambda: parse_polynomial("x+"), ParseError,
                 "empty term in 'x+'", id="empty-term"),
    pytest.param(lambda: CurveSpec(()), ParseError,
                 "a curve needs at least one factor", id="curve-without-factors"),
    pytest.param(lambda: dataclasses.replace(fixture_by_id("two-tangent-conics"),
                                             expected_relations=Presentation(1, ())),
                 ParseError,
                 "fixture two-tangent-conics: 2 strands but expected relations have rank 1",
                 id="fixture-relations-of-wrong-rank"),
    pytest.param(lambda: FiniteGroupTable(0, 0, ()), GroupTableError,
                 "group order must be positive", id="table-order-0"),
    pytest.param(lambda: FiniteGroupTable(2, 0, ((0, 1), (1,))), GroupTableError,
                 "table must be 2 x 2", id="table-row-short"),
    pytest.param(lambda: FiniteGroupTable(2, 0, ((0, 1), (1, 2))), GroupTableError,
                 "table entries must be elements 0..1", id="table-entry-out-of-range"),
    pytest.param(lambda: FiniteGroupTable(1, 1, ((0,),)), GroupTableError,
                 "identity out of range", id="table-identity-out-of-range"),
    pytest.param(lambda: FiniteGroupTable(3, 0, ((0, 1, 2), (1, 0, 0), (2, 0, 1))),
                 GroupTableError, "table is not associative", id="table-not-associative"),
    pytest.param(lambda: cyclic_group(0), GroupTableError,
                 "cyclic group needs order >= 1", id="cyclic-0"),
    pytest.param(lambda: dihedral_group(1), GroupTableError,
                 "dihedral group needs n >= 2", id="dihedral-1"),
    pytest.param(lambda: symmetric_group(6), GroupTableError,
                 "symmetric group supported for 1 <= n <= 5", id="symmetric-6"),
    pytest.param(lambda: alternating_group(2), GroupTableError,
                 "alternating group supported for 3 <= n <= 5", id="alternating-2"),
    pytest.param(lambda: compose_motions(), DegenerateMotionError,
                 "nothing to compose", id="compose-nothing"),
    pytest.param(lambda: compose_motions(Motion.stationary([0j, 1 + 0j]),
                                         Motion.stationary([0j, 1 + 0j, 2 + 0j])), DegenerateMotionError,
                 "strand counts differ", id="compose-different-strand-counts"),
    pytest.param(lambda: MotionProgram((0,), (FrameIn((0,)),)).to_motion(), GeometryError,
                 "need at least two points to frame", id="frame-one-slot"),
    pytest.param(lambda: MotionProgram((0, 1), (FrameIn((0, 1), pair_height=0),)).to_motion(),
                 GeometryError, "pair height must be positive", id="frame-pair-height-0"),
    pytest.param(lambda: MotionProgram((0, 1), ("swap",)).to_motion(), GeometryError,
                 "unknown move kind 'swap'", id="unknown-move-kind"),
    pytest.param(lambda: MotionProgram((1, 2, 3), (RotateBlock((1, 2), 1.5, "1/0"),)).braid(),
                 GeometryError, "angle must be a finite rational number, not '1/0'",
                 id="rotate-angle-over-zero"),
    pytest.param(lambda: MotionProgram((1, 5), (Encircle((5,), (1,), "1/0"),)).braid(),
                 GeometryError, "turns must be a finite rational number, not '1/0'",
                 id="encircle-turns-over-zero"),
    pytest.param(lambda: MotionProgram((0, 1), (Motion.stationary([0, 2]),)).to_motion(),
                 DegenerateMotionError, "a move does not start at the configuration",
                 id="recorded-motion-off-the-configuration"),
    pytest.param(lambda: parse_curve("(1/0y-x)"), ParseError,
                 "cannot parse rational '1/0'", id="curve-coefficient-over-zero"),
    pytest.param(lambda: parse_curve("y^99999999999999999999"), CapacityError,
                 "the curve's y-degree is 99999999999999999999, over the limit of 32",
                 id="curve-bare-power-past-an-index"),
    pytest.param(lambda: parse_curve("(y-x)(y-x^100001)"), CapacityError,
                 "a curve factor's x-degree is 100001, over the limit of 100000",
                 id="curve-x-degree"),
    pytest.param(lambda: parse_curve("(2x^99999999999999999999y)"), CapacityError,
                 "a curve factor's x-degree is 99999999999999999999, over the limit of 100000",
                 id="curve-x-degree-past-an-index"),
    # A value of more than 40 digits is named by its digit count, also past
    # the digits that str() converts.
    pytest.param(lambda: parse_curve("(y-x^%s)" % _DIGITS[:4000]), CapacityError,
                 "a curve factor's x-degree is a 4000-digit number, over the limit of 100000",
                 id="curve-x-degree-of-4000-digits"),
    pytest.param(lambda: parse_curve("(x^%sx^%s)" % (_DIGITS[:4300], _DIGITS[:4300])),
                 CapacityError,
                 "a curve factor's x-degree is a 4301-digit number, over the limit of 100000",
                 id="curve-x-degree-past-str-digits"),
    pytest.param(lambda: check_limit("a size", 10**40 - 1, 1), CapacityError,
                 "a size is %d, over the limit of 1" % (10**40 - 1), id="limit-of-40-digits"),
    pytest.param(lambda: check_limit("a size", 10**40, 1), CapacityError,
                 "a size is a 41-digit number, over the limit of 1", id="limit-of-41-digits"),
    # A refused factor is echoed by its first 40 characters.
    *[pytest.param(lambda text=text: parse_curve(text), error, message, id="long-factor-" + name)
      for name, text, error, message in [
          ("without-y", "(%s)" % _POWERS, ImproperProjectionError,
           "factor %s does not depend on y (vertical or constant)" % _POWERS[:40]),
          ("vertical-content", "(xy+%s)" % _POWERS, ImproperProjectionError,
           "factor %s contains a vertical-line component" % ("xy+" + _POWERS)[:40]),
          ("repeated", "(y+%s)(y+%s)" % (_POWERS, _POWERS), CriticalFiberError,
           "repeated factor %s (product not squarefree)" % ("y+" + _POWERS)[:40]),
          ("not-squarefree", "(y^2-2%sy+1%s)" % ("0" * 30, "0" * 60), CriticalFiberError,
           "factor y^2-2%sy+100 is not squarefree" % ("0" * 30))]],
    # The message echoes the first 40 characters of the number.
    *[pytest.param(lambda text=text: parse_curve(text), ParseError,
                   "cannot parse rational %r" % _DIGITS[:40], id="curve-digits-" + name)
      for name, text in [("bare-power", "y^" + _DIGITS),
                         ("y-exponent", "(y^%s-x)" % _DIGITS),
                         ("coefficient", "(%sy-x)" % _DIGITS),
                         ("x-exponent", "(y-x)(y+x^%s)" % _DIGITS)]],
    # A 5,000-character text is echoed by its first 40 characters.
    *[pytest.param(lambda call=call, text=text: call(text), ParseError, message % text[:40],
                   id="long-" + name)
      for name, call, text, message in [
          ("unparseable-polynomial", parse_polynomial, "x" * 4999 + "?",
           "cannot parse polynomial %r at offset 4999"),
          ("missing-sign", parse_polynomial, "x" * 4998 + "2y",
           "missing +/- between terms in %r"),
          ("empty-term", parse_polynomial, "x" * 4999 + "+", "empty term in %r"),
          ("zero-polynomial", parse_polynomial, "0x+" * 1666 + "0y", "polynomial %r is zero"),
          ("unbalanced", parse_curve, "(" + "y" * 4999, "unbalanced parentheses in %r"),
          ("unexpected-character", parse_curve, "y" * 4999 + "?",
           "unexpected character '?' in curve %r: a curve is a product of parenthesised "
           "factors and bare x or y powers")]],
    pytest.param(lambda: Presentation(-1, ()), MalformedWordError,
                 "rank must be nonnegative", id="presentation-rank-minus-1"),
    pytest.param(lambda: BraidWord(0), MalformedWordError,
                 "strand count must be a positive int, got 0", id="braid-on-0-strands"),
    pytest.param(lambda: BraidWord(2.5, (1,)), MalformedWordError,
                 "strand count must be a positive int, got 2.5", id="braid-on-2.5-strands"),
    pytest.param(lambda: BraidWord(None), MalformedWordError,
                 "strand count must be a positive int, got None", id="braid-on-None-strands"),
    pytest.param(lambda: FreeWord(2.0, (1,)), MalformedWordError,
                 "rank must be a positive int, got 2.0", id="free-word-rank-2.0"),
    pytest.param(lambda: FreeWord("2"), MalformedWordError,
                 "rank must be a positive int, got '2'", id="free-word-rank-str"),
    pytest.param(lambda: BraidWord(2) * BraidWord(3), DimensionMismatchError,
                 "cannot concatenate braids on 2 and 3 strands", id="braid-product-sizes"),
    pytest.param(lambda: Permutation((1, 2)) * Permutation((1, 2, 3)), DimensionMismatchError,
                 "cannot compose permutations of sizes 2 and 3", id="permutation-product-sizes"),
    *[pytest.param(lambda radius=radius: LoopSpec(radius=radius), GeometryError,
                   "loop radius must be a finite rational number, not %r" % (radius,),
                   id="loop-radius-%s" % name)
      for name, radius in [("nan", math.nan), ("inf", math.inf), ("text", "abc"),
                           ("None", None)]],
    *[pytest.param(lambda center=center: LoopSpec(center=center), GeometryError,
                   "loop center must be a finite complex number, not %r" % (center,),
                   id="loop-center-%s" % name)
      for name, center in [("nan", math.nan), ("infinite-part", complex(1, math.inf)),
                           ("text", "abc"), ("None", None)]],
    # A refused value is echoed by the first 40 characters of its repr.
    pytest.param(lambda: LoopSpec(center=10**400), GeometryError,
                 "loop center must be a finite complex number, not 1" + "0" * 39,
                 id="loop-center-past-float-range"),
    pytest.param(lambda: LoopSpec(radius="a" * 5000), GeometryError,
                 "loop radius must be a finite rational number, not '" + "a" * 39,
                 id="loop-radius-5000-characters"),
])
def test_refusal_names_its_class_and_reason(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_verify_fixture_reports_a_nan_radius_as_failed_checks():
    report = verify_fixture(fixture_by_id("two-tangent-conics"), radius=math.nan)
    failure = "tracking failed: loop radius must be a finite rational number, not nan"
    assert [line for line in report.lines() if line.startswith("FAIL")] == [
        "FAIL two-tangent-conics tracked-vs-model: " + failure,
        "FAIL two-tangent-conics lefschetz: " + failure]
    assert not report.passed


def _spy(monkeypatch, owner, name):
    """The list of calls that owner.name gets from now on."""
    calls, method = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or method(*a))
    return calls


@pytest.mark.parametrize("text, shear", [
    pytest.param("(y^33-x)", 0, id="unsheared"),
    pytest.param("(y^20-x)(y^13+x)", Fraction(1, 2), id="sheared"),
])
def test_parse_curve_refuses_the_y_degree_before_any_shear_or_validation(
        monkeypatch, text, shear):
    sheared = _spy(monkeypatch, curves.Polynomial2, "shear_x")
    validated = _spy(monkeypatch, curves.CurveSpec, "__post_init__")
    with pytest.raises(CapacityError) as info:
        parse_curve(text, shear)
    assert type(info.value) is CapacityError
    assert str(info.value) == "the curve's y-degree is 33, over the limit of 32"
    assert (sheared, validated) == ([], [])


@pytest.mark.parametrize("argv, line", [
    pytest.param(["compute", "--curve", "(y-x^%s)" % _DIGITS[:4000]],
                 "error: a curve factor's x-degree is a 4000-digit number, over the limit of 100000",
                 id="compute-x-degree"),
    pytest.param(["vankampen", "--braid", "s1^%s" % _DIGITS[:3000]],
                 "error: the braid's letter count is a 3000-digit number, over the limit of 1000",
                 id="vankampen-letter-count"),
])
def test_the_cli_names_a_long_value_by_its_digit_count(capsys, argv, line):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == line + "\n"
