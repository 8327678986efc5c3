"""Plane curves as products of bivariate polynomial factors.

Equations enter as products like "(2x+y)(y+x^2)(y-x^2)" with integer
coefficients; bare monomial runs such as the leading "y" in
"y(y^2+x)(y^2-x)" are split into single-variable factors.  All
coefficients are exact rationals.

The projection used everywhere is (x, y) -> x, so every factor must
actually depend on y, and no factor may contain a vertical-line
component (a factor of positive degree in x alone).  An optional shear
x -> x + q*y fixes equations with a vertical line, at the price of
moving its fiber point far from the others.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import (
    CriticalFiberError,
    ImproperProjectionError,
    ParseError,
    TrackingFailureError,
)


def _clean(coeffs: Mapping[tuple[int, int], Fraction]) -> dict[tuple[int, int], Fraction]:
    return {k: Fraction(v) for k, v in coeffs.items() if v != 0}


@dataclass(frozen=True)
class Polynomial2:
    """Bivariate polynomial with rational coefficients, keyed by (deg_x, deg_y)."""

    coeffs: tuple[tuple[tuple[int, int], Fraction], ...]

    @classmethod
    def from_dict(cls, d: Mapping[tuple[int, int], Fraction]) -> "Polynomial2":
        cleaned = _clean(d)
        return cls(tuple(sorted(cleaned.items())))

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.coeffs)

    @classmethod
    def zero(cls) -> "Polynomial2":
        return cls(())

    @classmethod
    def constant(cls, c: Fraction) -> "Polynomial2":
        return cls.from_dict({(0, 0): Fraction(c)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial2":
        if name == "x":
            return cls.from_dict({(1, 0): Fraction(1)})
        if name == "y":
            return cls.from_dict({(0, 1): Fraction(1)})
        raise ParseError("unknown variable %r" % name)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Polynomial2") -> "Polynomial2":
        d = self.as_dict()
        for k, v in other.coeffs:
            d[k] = d.get(k, Fraction(0)) + v
        return Polynomial2.from_dict(d)

    def __neg__(self) -> "Polynomial2":
        return Polynomial2(tuple((k, -v) for k, v in self.coeffs))

    def __sub__(self, other: "Polynomial2") -> "Polynomial2":
        return self + (-other)

    def __mul__(self, other: "Polynomial2") -> "Polynomial2":
        d: dict[tuple[int, int], Fraction] = {}
        for (ax, ay), av in self.coeffs:
            for (bx, by), bv in other.coeffs:
                k = (ax + bx, ay + by)
                d[k] = d.get(k, Fraction(0)) + av * bv
        return Polynomial2.from_dict(d)

    def scale(self, c: Fraction) -> "Polynomial2":
        c = Fraction(c)
        return Polynomial2.from_dict({k: v * c for k, v in self.coeffs})

    @cached_property
    def degree_y(self) -> int:
        return max((dy for (_, dy), _ in self.coeffs), default=-1)

    @property
    def degree_x(self) -> int:
        return max((dx for (dx, _), _ in self.coeffs), default=-1)

    def y_coefficient(self, dy: int) -> dict[int, Fraction]:
        """Coefficient of y^dy, as a polynomial in x (dict deg -> value)."""
        return {dx: v for (dx, d), v in self.coeffs if d == dy}

    def shear_x(self, q: Fraction) -> "Polynomial2":
        """Substitute x -> x + q*y."""
        q = Fraction(q)
        if q == 0:
            return self
        x = Polynomial2.variable("x")
        y = Polynomial2.variable("y")
        repl = x + y.scale(q)
        out = Polynomial2.zero()
        powers = [Polynomial2.constant(Fraction(1))]
        for _ in range(self.degree_x):
            powers.append(powers[-1] * repl)
        for (dx, dy), v in self.coeffs:
            term = powers[dx] * Polynomial2.from_dict({(0, dy): v})
            out = out + term
        return out

    def y_coeffs_at(self, x0: complex) -> list[complex]:
        """Coefficients [c_n, ..., c_0] of the fiber polynomial in y at x=x0."""
        n = self.degree_y
        out = [0j] * (n + 1)
        try:
            for (dx, dy), v in self._float_coeffs:
                out[n - dy] += v * x0**dx
        except OverflowError:
            out = [cmath.inf]
        if not all(map(cmath.isfinite, out)):
            raise TrackingFailureError(
                "fiber polynomial at x=%s is out of floating-point range" % x0
            )
        return out

    @cached_property
    def _float_coeffs(self) -> tuple[tuple[tuple[int, int], float], ...]:
        """The coefficients as floats, converted on first use; a coefficient
        out of float range raises OverflowError on every use."""
        return tuple((k, float(v)) for k, v in self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (dx, dy), v in sorted(self.coeffs, key=lambda kv: (-kv[0][1], -kv[0][0])):
            mono = ""
            if dx:
                mono += "x" if dx == 1 else "x^%d" % dx
            if dy:
                mono += "y" if dy == 1 else "y^%d" % dy
            if not mono:
                parts.append(str(v))
            elif v == 1:
                parts.append(mono)
            elif v == -1:
                parts.append("-" + mono)
            else:
                parts.append("%s%s" % (v, mono))
        s = parts[0]
        for p in parts[1:]:
            s += p if p.startswith("-") else "+" + p
        return s


_TERM_RE = re.compile(
    r"""(?P<sign>[+-]?)\s*
        (?P<coeff>\d+(?:/\d+)?)?\s*
        (?P<vars>(?:[xy](?:\^\d+)?\s*)*)""",
    re.VERBOSE,
)


def parse_polynomial(text: str) -> Polynomial2:
    """Parse an integer/rational-coefficient polynomial in x and y."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial")
    d: dict[tuple[int, int], Fraction] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError("cannot parse polynomial %r at offset %d" % (text, pos))
        sign_s = m.group("sign")
        if not first and not sign_s:
            raise ParseError("missing +/- between terms in %r" % text)
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if sign_s == "-":
            coeff = -coeff
        dx = dy = 0
        for vm in re.finditer(r"([xy])(?:\^(\d+))?", m.group("vars")):
            p = int(vm.group(2)) if vm.group(2) else 1
            if vm.group(1) == "x":
                dx += p
            else:
                dy += p
        if m.group("coeff") is None and dx == 0 and dy == 0:
            raise ParseError("empty term in %r" % text)
        key = (dx, dy)
        d[key] = d.get(key, Fraction(0)) + coeff
        pos = m.end()
        while pos < len(s) and s[pos].isspace():
            pos += 1
        first = False
    poly = Polynomial2.from_dict(d)
    if poly.is_zero:
        raise ParseError("polynomial %r is zero" % text)
    return poly


def _split_factors(text: str) -> list[str]:
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty curve expression")
    out: list[str] = []
    pos = 0
    while pos < len(s):
        c = s[pos]
        if c == "(":
            depth = 1
            j = pos + 1
            while j < len(s) and depth:
                if s[j] == "(":
                    depth += 1
                elif s[j] == ")":
                    depth -= 1
                j += 1
            if depth:
                raise ParseError("unbalanced parentheses in %r" % text)
            out.append(s[pos + 1 : j - 1])
            pos = j
        elif c in "xy":
            # Bare variable, possibly with an exponent: split into
            # single-variable factors so each curve component is its
            # own factor.
            m = re.match(r"([xy])(?:\^(\d+))?", s[pos:])
            p = int(m.group(2)) if m.group(2) else 1
            out.extend([m.group(1)] * p)
            pos += m.end()
        else:
            raise ParseError("unexpected character %r in curve %r" % (c, text))
    return out


def _x_gcd(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    """Euclidean gcd of univariate polynomials in x (dict deg -> coeff)."""

    def norm(p: dict[int, Fraction]) -> list[Fraction]:
        if not p:
            return []
        n = max(p)
        return [p.get(i, Fraction(0)) for i in range(n + 1)]

    fa, fb = norm(a), norm(b)

    def strip(p: list[Fraction]) -> list[Fraction]:
        while p and p[-1] == 0:
            p.pop()
        return p

    fa, fb = strip(fa), strip(fb)
    while fb:
        # fa mod fb
        while len(fa) >= len(fb) and fa:
            q = fa[-1] / fb[-1]
            shift = len(fa) - len(fb)
            for i, c in enumerate(fb):
                fa[i + shift] -= q * c
            fa = strip(fa)
        fa, fb = fb, fa
    return {i: c for i, c in enumerate(fa)}


def _vertical_content(p: Polynomial2) -> bool:
    """True if some x-polynomial divides every coefficient (vertical line)."""
    coeffs: list[dict[int, Fraction]] = []
    for dy in range(p.degree_y + 1):
        c = p.y_coefficient(dy)
        if c:
            coeffs.append(c)
    if not coeffs:
        return True
    g = coeffs[0]
    for c in coeffs[1:]:
        g = _x_gcd(g, c)
    deg = max(g) if g else -1
    return deg > 0 or (deg < 0)


@dataclass(frozen=True)
class CurveSpec:
    """Squarefree product of proper (non-vertical) polynomial factors.

    An optional shear x -> x + shear*y is applied to every factor on
    construction; validation happens after the shear, so equations with
    a vertical line become acceptable once sheared.
    """

    factors: tuple[Polynomial2, ...]
    shear: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        shear = Fraction(self.shear)
        factors = tuple(f.shear_x(shear) for f in self.factors)
        if not factors:
            raise ParseError("a curve needs at least one factor")
        for f in factors:
            if f.degree_y < 1:
                raise ImproperProjectionError(
                    "factor %s does not depend on y (vertical or constant)" % f
                )
            if _vertical_content(f):
                raise ImproperProjectionError(
                    "factor %s contains a vertical-line component" % f
                )
        seen = []
        for f in factors:
            norm = _normalize(f)
            if norm in seen:
                raise CriticalFiberError("repeated factor %s (product not squarefree)" % f)
            seen.append(norm)
        _check_pairwise_coprime(factors)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "shear", shear)

    @cached_property
    def product(self) -> Polynomial2:
        out = Polynomial2.constant(Fraction(1))
        for f in self.factors:
            out = out * f
        return out

    @property
    def degree_y(self) -> int:
        return sum(f.degree_y for f in self.factors)

    def __str__(self) -> str:
        return "".join("(%s)" % f for f in self.factors)


def _normalize(p: Polynomial2) -> tuple:
    lead = None
    for k, v in sorted(p.coeffs):
        lead = v
        break
    if lead is None or lead == 0:
        return ()
    return tuple((k, v / lead) for k, v in p.coeffs)


# Shared roots are detected numerically: a genuine common component
# yields a shared root at every sample x, while isolated intersections
# cannot survive two generic rational samples.
_COPRIME_SAMPLES = (complex(1.137, 0.291), complex(-0.842, 0.515))


def _check_pairwise_coprime(factors: Sequence[Polynomial2]) -> None:
    import numpy as np

    roots_at: list[list] = []
    for x0 in _COPRIME_SAMPLES:
        per_factor = []
        for f in factors:
            cs = f.y_coeffs_at(x0)
            per_factor.append(np.roots(cs) if len(cs) > 1 else np.array([]))
        roots_at.append(per_factor)
    n = len(factors)
    for a in range(n):
        for b in range(a + 1, n):
            shared_everywhere = True
            for per_factor in roots_at:
                ra, rb = per_factor[a], per_factor[b]
                if ra.size == 0 or rb.size == 0:
                    shared_everywhere = False
                    break
                dist = min(abs(x - y) for x in ra for y in rb)
                if dist > 1e-6:
                    shared_everywhere = False
                    break
            if shared_everywhere:
                raise CriticalFiberError(
                    "factors %d and %d appear to share a component" % (a + 1, b + 1)
                )


def parse_curve(text: str, shear: Fraction | int = 0) -> CurveSpec:
    """Parse a product of factors, e.g. "(2x+y)(y+x^2)(y-x^2)" or "y(y^2+x)(y^2-x)"."""
    factor_texts = _split_factors(text)
    factors = tuple(parse_polynomial(t) for t in factor_texts)
    return CurveSpec(factors, Fraction(shear))
