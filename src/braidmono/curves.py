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

The product must be reduced: no factor may repeat a component and no two
factors may share one.  Both are decided exactly.  For f and g free of
x-content, Res_y(f, g) is zero exactly when they share a component, and
its x-degree is at most deg_x f * deg_y g + deg_x g * deg_y f.  At a
rational x0 where neither leading y-coefficient vanishes, Res_y(f, g)(x0)
is the resultant of f(x0, y) and g(x0, y), so a constant gcd of the two
proves them coprime, and one more sample than that degree bound with a
non-constant gcd proves a common component (Cox, Little & O'Shea, Ideals,
Varieties, and Algorithms, ch. 3).  A factor f is squarefree exactly
when it shares no component with df/dy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations, count
from math import comb, gcd, inf, lcm
from typing import Mapping, Sequence

import numpy as np

from .errors import CriticalFiberError, ImproperProjectionError, ParseError, check_limit

# Input size limits, checked by parse_curve before the shear and validation
# whose work grows with them.  A curve of y-degree d gives a braid on d strands.
MAX_STRANDS = 32
MAX_DEGREE_X = 100_000


def _to_float(v: Fraction) -> float:
    try:
        return float(v)
    except OverflowError:
        return inf if v > 0 else -inf


def _parse_rational(text: str) -> Fraction:
    """text as a Fraction; a zero denominator, or more digits than int()
    converts (sys.get_int_max_str_digits()), is a ParseError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("cannot parse rational %r" % text[:40]) from None


@dataclass(frozen=True)
class Polynomial2:
    """Bivariate polynomial with rational coefficients, keyed by (deg_x, deg_y)."""

    coeffs: tuple[tuple[tuple[int, int], Fraction], ...]

    @classmethod
    def from_dict(cls, d: Mapping[tuple[int, int], Fraction]) -> "Polynomial2":
        return cls(tuple(sorted((k, Fraction(v)) for k, v in d.items() if v != 0)))

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
        d: dict[tuple[int, int], Fraction] = {}
        for (dx, dy), v in self.coeffs:
            # (x + q y)^dx y^dy = sum_k C(dx, k) q^k x^(dx-k) y^(dy+k)
            for k in range(dx + 1):
                key = (dx - k, dy + k)
                d[key] = d.get(key, Fraction(0)) + v * comb(dx, k) * q**k
        return Polynomial2.from_dict(d)

    def fiber_at(self, x0: Fraction | int) -> list[Fraction]:
        """Ascending y-coefficients of f(x0, y), exactly; the last is lc_y(f)(x0)."""
        out = [Fraction(0)] * (self.degree_y + 1)
        for (dx, dy), v in self.coeffs:
            out[dy] += v * x0**dx
        return out

    def y_coeffs_at(self, xs: np.ndarray) -> np.ndarray:
        """Rows [c_n, ..., c_0] of the fiber polynomial in y over each point of
        xs, summed term by term; a row out of float range holds an inf or nan."""
        n = self.degree_y
        out = np.zeros((len(xs), n + 1), dtype=complex)
        with np.errstate(all="ignore"):
            for (dx, dy), v in self.float_coeffs:
                out[:, n - dy] += v * np.power(xs, dx)
        return out

    @cached_property
    def float_coeffs(self) -> tuple[tuple[tuple[int, int], float], ...]:
        """The coefficients as floats, converted on first use; one out of
        float range becomes the infinity of its sign."""
        return tuple((k, _to_float(v)) for k, v in self.coeffs)

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
            raise ParseError("cannot parse polynomial %r at offset %d" % (text[:40], pos))
        sign_s = m.group("sign")
        if not first and not sign_s:
            raise ParseError("missing +/- between terms in %r" % text[:40])
        coeff = _parse_rational(m.group("coeff") or "1")
        if sign_s == "-":
            coeff = -coeff
        dx = dy = 0
        for vm in re.finditer(r"([xy])(?:\^(\d+))?", m.group("vars")):
            p = int(_parse_rational(vm.group(2) or "1"))
            if vm.group(1) == "x":
                dx += p
            else:
                dy += p
        if m.group("coeff") is None and not m.group("vars"):
            raise ParseError("empty term in %r" % text[:40])
        key = (dx, dy)
        d[key] = d.get(key, Fraction(0)) + coeff
        pos = m.end()
        first = False
    poly = Polynomial2.from_dict(d)
    if not poly.coeffs:
        raise ParseError("polynomial %r is zero" % text[:40])
    return poly


def _split_factors(text: str) -> list[tuple[str, int]]:
    """The factor texts of a curve, each with its power: 1 for a
    parenthesised factor, the exponent for a bare x or y power."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty curve expression")
    out: list[tuple[str, int]] = []
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
                raise ParseError("unbalanced parentheses in %r" % text[:40])
            out.append((s[pos + 1 : j - 1], 1))
            pos = j
        elif c in "xy":
            # Bare variable, possibly with an exponent: a power of a
            # single-variable factor, each of whose copies is a factor.
            m = re.match(r"([xy])(?:\^(\d+))?", s[pos:])
            out.append((m.group(1), int(_parse_rational(m.group(2) or "1"))))
            pos += m.end()
        else:
            raise ParseError("unexpected character %r in curve %r: a curve is a product of "
                             "parenthesised factors and bare x or y powers" % (c, text[:40]))
    return out


def _primitive(p: Sequence[Fraction | int]) -> list[int]:
    """p times a rational making its coefficients coprime integers."""
    den = reduce(lcm, (c.denominator for c in p), 1)
    q = [int(c * den) for c in p]
    while q and q[-1] == 0:
        q.pop()
    g = reduce(gcd, q, 0)
    return [c // g for c in q]


def _gcd(a: Sequence[Fraction | int], b: Sequence[Fraction | int]) -> list[int]:
    """Gcd of polynomials as ascending coefficient lists, up to a constant:
    [] is zero, a one-entry list a constant.  Euclid by pseudo-division over
    the integers, which is far cheaper than reducing fractions at each step.
    A nonzero constant divisor ends it: the gcd is then a constant."""
    a, b = _primitive(a), _primitive(b)
    while b:
        if len(b) == 1:
            return b
        while len(a) >= len(b):
            lead, shift = a[-1], len(a) - len(b)
            a = [b[-1] * c for c in a]
            for i, c in enumerate(b):
                a[i + shift] -= lead * c
            a.pop()
        a, b = b, _primitive(a)
    return a


def _vertical_content(p: Polynomial2) -> bool:
    """True if some x-polynomial divides every coefficient (vertical line)."""
    g: list[int] = []
    for dy in range(p.degree_y + 1):
        c = p.y_coefficient(dy)
        g = _gcd(g, [c.get(dx, Fraction(0)) for dx in range(max(c, default=-1) + 1)])
    return len(g) != 1


def _share_component(f: Polynomial2, g: Polynomial2) -> bool:
    """True if f and g, both free of x-content, have a common component:
    decided at x0 = 1, 2, ..., skipping roots of lc_y (module docstring)."""
    bound = f.degree_x * g.degree_y + g.degree_x * f.degree_y
    kept = x0 = 0
    while kept <= bound:
        x0 += 1
        a, b = f.fiber_at(x0), g.fiber_at(x0)
        if a[-1] and b[-1]:
            if len(_gcd(a, b)) == 1:
                return False
            kept += 1
    return True


@dataclass(frozen=True)
class CurveSpec:
    """Squarefree product of proper (non-vertical) polynomial factors."""

    factors: tuple[Polynomial2, ...]

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        if not factors:
            raise ParseError("a curve needs at least one factor")
        for f in factors:
            if f.degree_y < 1:
                raise ImproperProjectionError(
                    "factor %s does not depend on y (vertical or constant)" % str(f)[:40]
                )
            if _vertical_content(f):
                raise ImproperProjectionError(
                    "factor %s contains a vertical-line component" % str(f)[:40]
                )
        norms = [_normalize(f) for f in factors]
        for k, f in enumerate(factors):
            if norms[k] in norms[:k]:
                raise CriticalFiberError(
                    "repeated factor %s (product not squarefree)" % str(f)[:40])
        for f in factors:
            df = Polynomial2.from_dict({(dx, dy - 1): dy * v for (dx, dy), v in f.coeffs if dy})
            if _share_component(f, df):
                raise CriticalFiberError("factor %s is not squarefree" % str(f)[:40])
        for (a, f), (b, g) in combinations(enumerate(factors, 1), 2):
            if _share_component(f, g):
                raise CriticalFiberError("factors %d and %d share a component" % (a, b))
        object.__setattr__(self, "factors", factors)

    @property
    def degree_y(self) -> int:
        return sum(f.degree_y for f in self.factors)

    def __str__(self) -> str:
        return "".join("(%s)" % f for f in self.factors)


def _normalize(p: Polynomial2) -> tuple:
    lead = min(p.coeffs)[1]
    return tuple((k, v / lead) for k, v in p.coeffs)


def _sheared_degree_y(f: Polynomial2, q: Fraction) -> int:
    """The y-degree of f.shear_x(q), found without the shear.  f's form of degree
    d, sum v x^i y^(d-i), shears to y-degree d - m, where m is the multiplicity of
    q = a/b as a root of sum v t^i: the least k where its k-th Taylor coefficient
    at q, times a^(k-j) b^(e-k) with i falling from e to j, is nonzero."""
    if not q:
        return f.degree_y
    a, b = Fraction(q).as_integer_ratio()
    forms: dict[int, list[tuple[int, Fraction]]] = {}
    for (dx, dy), v in sorted(f.coeffs, reverse=True):
        forms.setdefault(dx + dy, []).append((dx, v))
    best = -1
    for d, h in forms.items():
        for k in count():  # sum v C(i, k) a^(i-j) b^(e-i) by Horner's rule
            acc, bs, prev = 0, 1, h[0][0]
            for i, v in h:
                bs *= b ** (prev - i)
                acc, prev = acc * a ** (prev - i) + v * comb(i, k) * bs, i
            if acc:
                best = max(best, d - k)
                break
    return best


def parse_curve(text: str, shear: Fraction | int = 0) -> CurveSpec:
    """Parse a product of factors, e.g. "(2x+y)(y+x^2)(y-x^2)" or "y(y^2+x)(y^2-x)",
    each sheared by x -> x + shear*y before it is validated, so that a vertical line
    becomes acceptable.  A power of 2 or more is two copies, refused as repeated."""
    powers = [(parse_polynomial(t), n) for t, n in _split_factors(text)]
    check_limit("a curve factor's x-degree", max(f.degree_x for f, _ in powers), MAX_DEGREE_X)
    degree = sum(n * _sheared_degree_y(f, shear) for f, n in powers)
    check_limit("the curve's y-degree", degree, MAX_STRANDS)
    return CurveSpec(tuple(g for f, n in powers for g in [f.shear_x(shear)] * min(n, 2)))
