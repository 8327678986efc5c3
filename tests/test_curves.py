from __future__ import annotations

from fractions import Fraction

import pytest

from braidmono import parse_curve, parse_polynomial
from braidmono.errors import CriticalFiberError, ImproperProjectionError, ParseError


def test_parse_simple_polynomial():
    p = parse_polynomial("y^2-x")
    assert p.degree_y == 2
    assert p.degree_x == 1
    assert p.as_dict() == {(0, 2): 1, (1, 0): -1}


def test_parse_rational_coefficients():
    p = parse_polynomial("1/2y+x")
    assert p.as_dict() == {(0, 1): Fraction(1, 2), (1, 0): 1}


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


def test_shear_substitution():
    assert parse_polynomial("x").shear_x(Fraction(1, 2)) == parse_polynomial("x+1/2y")
    p = parse_polynomial("x^2-y")
    assert p.shear_x(Fraction(1)) == parse_polynomial("x^2+2xy+y^2-y")


def test_fiber_coefficients_are_descending():
    p = parse_polynomial("y^2-x")
    assert p.y_coeffs_at(4 + 0j) == [1 + 0j, 0j, -4 + 0j]


def test_curve_product_and_factors():
    c = parse_curve("(y+x^2)(y-x^2)")
    assert len(c.factors) == 2
    assert c.degree_y == 2
    assert c.product == parse_polynomial("y^2-x^4")
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
    assert c.shear == Fraction(1, 100)


def test_unbalanced_parentheses():
    with pytest.raises(ParseError):
        parse_curve("(y+x^2")
    with pytest.raises(ParseError):
        parse_curve("")


def test_transverse_intersections_are_fine():
    c = parse_curve("(y-x)(y+x)")
    assert len(c.factors) == 2
