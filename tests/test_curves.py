from __future__ import annotations

import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from braidmono import (
    CurveSpec,
    LoopSpec,
    Polynomial2,
    braid_equal,
    fixture_by_id,
    fixtures,
    motion_to_braid,
    parse_curve,
    parse_polynomial,
    track_loop,
)
from braidmono.curves import MAX_STRANDS, _gcd, _sheared_degree_y
from braidmono.errors import CapacityError, CriticalFiberError, ImproperProjectionError, ParseError
from polynomial_product import product


def test_parse_simple_polynomial():
    p = parse_polynomial("y^2-x")
    assert p.degree_y == 2
    assert p.degree_x == 1
    assert dict(p.coeffs) == {(0, 2): 1, (1, 0): -1}


def test_parse_rational_coefficients():
    p = parse_polynomial("1/2y+x")
    assert dict(p.coeffs) == {(0, 1): Fraction(1, 2), (1, 0): 1}


def test_a_zero_power_with_no_coefficient_is_a_term():
    # x^0 writes a variable, so it is a term even though it is 1.
    assert parse_polynomial("y-x^0") == parse_polynomial("y-1")
    assert parse_polynomial("x^0y") == parse_polynomial("y")
    assert parse_curve("(y-x^0)(y+x)") == parse_curve("(y-1)(y+x)")
    with pytest.raises(ParseError, match="empty term"):
        parse_polynomial("y+")


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_polynomial("")
    with pytest.raises(ParseError):
        parse_polynomial("y**2")
    with pytest.raises(ParseError):
        parse_polynomial("2x 3y")


def test_polynomial_str_round_trip():
    p = parse_polynomial("y^2-2xy+x^2")
    assert parse_polynomial(str(p)) == p
    assert str(Polynomial2(())) == "0"


def test_shear_substitution():
    assert parse_polynomial("x").shear_x(Fraction(1, 2)) == parse_polynomial("x+1/2y")
    p = parse_polynomial("x^2-y")
    assert p.shear_x(Fraction(1)) == parse_polynomial("x^2+2xy+y^2-y")


def test_fiber_coefficients_are_descending():
    p = parse_polynomial("y^2-x")
    assert p.y_coeffs_at(np.array([4 + 0j])).tolist() == [[1 + 0j, 0j, -4 + 0j]]


def test_fiber_coefficients_of_a_batch_are_the_scalar_sums():
    # A batch adds the terms in the order of a per-point loop, with the
    # power of a Python complex, so each coefficient is bit-identical to it.
    xs = [r * cmath.exp(2j * math.pi * k / 13) for r in (0.1, 1.0, 3.0) for k in range(13)]
    polys = [product(f.curve.factors) for f in fixtures()] + [
        product(parse_curve("(y-x^30)(y+x^30)").factors),
        parse_polynomial("y^12-100000000000y^10-xy^2+100000000000x"),
    ]
    for p in polys:
        for x0, row in zip(xs, p.y_coeffs_at(np.array(xs))):
            ref = [0j] * (p.degree_y + 1)
            for (dx, dy), v in p.coeffs:
                ref[p.degree_y - dy] += float(v) * x0**dx
            assert row.tobytes() == np.array(ref).tobytes(), (str(p), x0)


def test_curve_product_and_factors():
    c = parse_curve("(y+x^2)(y-x^2)")
    assert len(c.factors) == 2
    assert c.degree_y == 2
    assert product(c.factors) == parse_polynomial("y^2-x^4")
    assert str(c) == "(y+x^2)(y-x^2)"


def test_bare_variable_factors():
    c = parse_curve("y(y^2+x)(y^2-x)")
    assert len(c.factors) == 3
    assert c.degree_y == 5


def test_power_notation_makes_repeated_factors():
    with pytest.raises(CriticalFiberError):
        parse_curve("y^2")


def test_repeated_factor_rejected():
    with pytest.raises(CriticalFiberError):
        parse_curve("(y-x)(y-x)")
    with pytest.raises(CriticalFiberError):
        parse_curve("(y-x)(2y-2x)")


def test_shared_component_rejected():
    with pytest.raises(CriticalFiberError):
        parse_curve("(y^2-x^2)(y-x)")


def test_vertical_line_rejected_without_shear():
    with pytest.raises(ImproperProjectionError):
        parse_curve("x(x+y^2)")
    with pytest.raises(ImproperProjectionError):
        parse_curve("(2)(y)")


def test_vertical_line_allowed_after_shear():
    c = parse_curve("(x)(y)(x+y^2)(x-y^2)", Fraction(1, 100))
    assert c.degree_y == 6


def test_unbalanced_parentheses():
    with pytest.raises(ParseError):
        parse_curve("(y+x^2")
    with pytest.raises(ParseError):
        parse_curve("")


def test_a_long_factor_is_checked_for_vertical_content_quickly():
    # The x-content gcd meets the constant coefficient of y and stops
    # there, in about 0.1 s; a full pseudo-division of x^30000 by that
    # constant takes 16-21 s (2-CPU x86 VM).
    start = time.perf_counter()
    curve = parse_curve("(y-x^30000)")
    assert time.perf_counter() - start < 2.0
    assert curve.factors[0].degree_x == 30000
    assert _gcd([0] * 30000 + [3], [-2]) == [-1]
    assert _gcd([1, 0, -1], [1, 1]) == [1, 1]
    assert _gcd([1, 0, 1], [1, 1]) == [1]


def test_sheared_degree_agrees_with_the_shear():
    # Each draw is a random f times (x - q y)^r for r = 0..3, so the shear
    # x -> x + q y kills up to three orders of its forms.
    rng = random.Random(20261020)
    killed = 0
    for _ in range(600):
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        f = Polynomial2.from_dict({
            (rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(rng.randint(1, 5))})
        if not f.coeffs:
            continue
        line = Polynomial2.from_dict({(1, 0): 1, (0, 1): -q})
        f = product([f] + [line] * rng.randint(0, 3))
        sheared = f.shear_x(q).degree_y
        assert _sheared_degree_y(f, q) == sheared, (f.coeffs, q)
        killed += sheared < max(dx + dy for (dx, dy), _ in f.coeffs)
    assert killed >= 200


def test_a_shear_that_kills_a_long_top_form_is_refused_quickly():
    # x -> x + y kills the top form x^100000 - y^100000; its y-degree, one
    # less, comes from the multiplicity of the root 1 of t^100000 - 1.
    # Shearing the factor took 14 s at x-degree 10^4 (2-CPU x86 VM).
    start = time.perf_counter()
    with pytest.raises(CapacityError) as e:
        parse_curve("(x^100000-y^100000+y)", 1)
    assert time.perf_counter() - start < 2.0
    assert str(e.value) == "the curve's y-degree is 99999, over the limit of %d" % MAX_STRANDS


def test_transverse_intersections_are_fine():
    c = parse_curve("(y-x)(y+x)")
    assert len(c.factors) == 2


def test_factors_meeting_at_the_first_sample_points_are_coprime():
    # The factors meet over x = 1, 2, 3: the first `bound` = 3 sample
    # points, so only the last point proves them coprime.
    c = parse_curve("y(y-x^3+6x^2-11x+6)")
    assert len(c.factors) == 2


def test_sample_where_a_leading_coefficient_vanishes_is_skipped():
    # Both factors share (x-1)y - 1; at x = 1 its leading coefficient
    # vanishes and both fibers have a constant gcd.
    with pytest.raises(CriticalFiberError, match="factors 1 and 2 share a component"):
        parse_curve("(xy^2-y^2+x^2y-xy-y-x)(xy^2-y^2-x^2y+xy-y+x)")


def test_sharing_factors_of_y_degree_sixteen_are_rejected():
    # Proving a common component takes bound + 1 = 385 sample points.
    common = parse_polynomial("y^8+x^4y^3+x^6y+x^5-1")
    a = product([parse_polynomial("y^8+x^6y^7+x^5y^2+x^6-x+1"), common])
    b = product([parse_polynomial("y^8-x^6y^4+x^6y-2"), common])
    assert (a.degree_y, a.degree_x, b.degree_y, b.degree_x) == (16, 12, 16, 12)
    with pytest.raises(CriticalFiberError, match="factors 1 and 2 share a component"):
        CurveSpec((a, b))


def _scaled(curve: CurveSpec, lam: int) -> CurveSpec:
    """The curve under y -> lam*y."""
    return CurveSpec(tuple(
        Polynomial2.from_dict({(dx, dy): v * lam**dy for (dx, dy), v in f.coeffs})
        for f in curve.factors))


_FIXTURE_IDS = [f.fixture_id for f in fixtures()]


@pytest.mark.parametrize("lam", [pytest.param(2**20, id="2^20"), pytest.param(2**40, id="2^40")])
@pytest.mark.parametrize("fixture_id", _FIXTURE_IDS)
def test_scaled_fixture_curves_are_accepted(fixture_id, lam):
    curve = fixture_by_id(fixture_id).curve
    assert _scaled(curve, lam).degree_y == curve.degree_y


@pytest.mark.parametrize("lam", [pytest.param(2**20, id="2^20"), pytest.param(2**40, id="2^40")])
@pytest.mark.parametrize("fixture_id", _FIXTURE_IDS)
def test_scaled_fixture_keeps_its_braid(tracked_braid, fixture_id, lam):
    # y -> lam*y shrinks every fiber by lam and leaves the braid alone.
    curve = _scaled(fixture_by_id(fixture_id).curve, lam)
    assert braid_equal(motion_to_braid(track_loop(curve, LoopSpec())), tracked_braid(fixture_id))
