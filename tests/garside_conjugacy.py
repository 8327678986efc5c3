"""Conjugacy in the braid group by the super summit set (Elrifai & Morton 1994).

A test oracle: the package decides a fixture's tracked-vs-model check
with one braid_equal against the fixture's stated conjugator, and the
tests use braid_conjugate to confirm that the braids are conjugate at
all, and to check relations that hold only up to conjugation.
"""

from __future__ import annotations

from itertools import permutations

from braidmono import BraidWord, CapacityError, DimensionMismatchError
from braidmono.words import NormalForm, _inverse, _normal_form, _tau, left_normal_form

# Beyond these sizes the super summit set closure in braid_conjugate
# raises CapacityError: it conjugates by all n! simple braids, so it
# runs only for n <= MAX_CLOSURE_STRANDS, and stops once the set it has
# built holds more than MAX_SUPER_SUMMIT braids.
MAX_CLOSURE_STRANDS = 6
MAX_SUPER_SUMMIT = 1000


def _cycle(n: int, x: NormalForm) -> NormalForm:
    """Cycling: conjugate Delta^p A_1 ... A_k to Delta^p A_2 ... A_k tau^p(A_1)."""
    p, fs = x
    if not fs:
        return x
    return _normal_form(n, p, fs[1:] + ((_tau(fs[0]) if p % 2 else fs[0]),))


def _decycle(n: int, x: NormalForm) -> NormalForm:
    """Decycling: conjugate Delta^p A_1 ... A_k to Delta^p tau^p(A_k) A_1 ... A_{k-1}."""
    p, fs = x
    if not fs:
        return x
    return _normal_form(n, p, ((_tau(fs[-1]) if p % 2 else fs[-1]),) + fs[:-1])


def _super_summit(n: int, x: NormalForm) -> NormalForm:
    """A conjugate of x in its super summit set (Elrifai & Morton).

    Cycling never lowers inf and decycling never raises sup; while inf
    (sup) is not yet extremal, one of the next n(n-1)/2 cyclings
    (decyclings) changes it.  So cycle until that many in a row leave inf
    alone, then decycle until that many in a row leave sup alone.
    """
    tries = n * (n - 1) // 2
    for step, gain in ((_cycle, lambda y: y[0]), (_decycle, lambda y: -y[0] - len(y[1]))):
        idle = 0
        while idle < tries:
            y = step(n, x)
            idle = 0 if gain(y) > gain(x) else idle + 1
            x = y
    return x


def _cycling_orbit(n: int, x: NormalForm) -> set[NormalForm]:
    orbit = set()
    while x not in orbit:
        orbit.add(x)
        x = _cycle(n, x)
    return orbit


def _closure_meets(n: int, x: NormalForm, targets: set[NormalForm]) -> bool:
    """Whether the closure of {x} under conjugation by simple braids,
    within the super summit set of x, meets targets.

    Any two conjugate elements of a super summit set are joined by a
    chain of such conjugations that stays inside it (Elrifai & Morton).
    """
    if n > MAX_CLOSURE_STRANDS:
        raise CapacityError(
            "conjugacy on %d strands needs the super summit set; the closure "
            "supports at most %d strands" % (n, MAX_CLOSURE_STRANDS))
    p, k = x[0], len(x[1])
    delta = tuple(range(n - 1, -1, -1))
    # s^-1 Delta^p A s = Delta^(p-1) tau^(p-1)(s^-1 Delta) A s, and every
    # braid of the super summit set has the same p.
    moves = []
    for s in list(permutations(range(n)))[1:]:
        star = tuple(delta[v] for v in _inverse(s))
        moves.append((_tau(star) if (p - 1) % 2 else star, s))
    seen, todo = {x}, [x]
    while todo:
        fs = todo.pop()[1]
        for head, s in moves:
            y = _normal_form(n, p - 1, (head,) + fs + (s,))
            if y[0] != p or len(y[1]) != k or y in seen:
                continue
            if y in targets:
                return True
            seen.add(y)
            todo.append(y)
            if len(seen) > MAX_SUPER_SUMMIT:
                raise CapacityError(
                    "super summit set has more than %d braids" % MAX_SUPER_SUMMIT)
    return False


def braid_conjugate(a: BraidWord, b: BraidWord) -> bool:
    """Decide whether a and b are conjugate in the braid group.

    Both are brought into their super summit sets.  Different inf or sup
    there proves them not conjugate; meeting cycling orbits prove them
    conjugate; otherwise the super summit set of a is closed under
    conjugation by simple braids and searched for b's orbit.
    """
    if a.strands != b.strands:
        raise DimensionMismatchError(
            "cannot compare braids on %d and %d strands" % (a.strands, b.strands)
        )
    n = a.strands
    x = _super_summit(n, left_normal_form(a))
    y = _super_summit(n, left_normal_form(b))
    if x[0] != y[0] or len(x[1]) != len(y[1]):
        return False
    targets = _cycling_orbit(n, y)
    if not targets.isdisjoint(_cycling_orbit(n, x)):
        return True
    return _closure_meets(n, x, targets)
