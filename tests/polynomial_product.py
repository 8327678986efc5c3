"""The product of bivariate polynomials.

The package never multiplies polynomials: it solves each factor of a
curve on its own.  Tests that compare against the expanded equation of
a curve build it here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from braidmono import Polynomial2


def product(polys: Iterable[Polynomial2]) -> Polynomial2:
    """The product of polys, exactly; 1 for none."""
    out = {(0, 0): Fraction(1)}
    for p in polys:
        terms: dict[tuple[int, int], Fraction] = {}
        for (ax, ay), av in out.items():
            for (bx, by), bv in p.coeffs:
                k = (ax + bx, ay + by)
                terms[k] = terms.get(k, Fraction(0)) + av * bv
        out = terms
    return Polynomial2.from_dict(out)
