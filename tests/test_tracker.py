from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from braidmono import (
    LoopSpec,
    Polynomial2,
    braid_equal,
    braid_permutation,
    fiber_roots,
    fixtures,
    lefschetz_braid,
    local_braid_monodromy,
    n_tangency_fixture,
    parse_curve,
    track_loop,
    tracker,
)
from braidmono.errors import (
    CriticalFiberError,
    GeometryError,
    ImproperProjectionError,
    TrackingFailureError,
)
from braidmono.tracker import _RESIDUAL_TOL, _solve_fibers


def test_loop_spec_validation():
    with pytest.raises(GeometryError):
        LoopSpec(0j, Fraction(-1))
    with pytest.raises(GeometryError):
        LoopSpec(0j, Fraction(1), "upper")
    loop = LoopSpec(1 + 0j, Fraction(1, 2), "negative-half")
    assert loop.basepoint == pytest.approx(0.5 + 0j)
    assert loop.point(2.0 * 3.141592653589793) == pytest.approx(1.5 + 0j)


def test_fiber_roots_sorted_by_real_part():
    curve = parse_curve("(y^2-x)")
    assert fiber_roots(curve, 1 + 0j) == pytest.approx([-1, 1])


def test_fiber_roots_conjugate_pair_ordering():
    # Conjugate pairs share Re; the sheared key puts the lower one first.
    curve = parse_curve("(y^2+x)")
    roots = fiber_roots(curve, 1 + 0j)
    assert roots[0] == pytest.approx(-1j)
    assert roots[1] == pytest.approx(1j)


def test_fiber_roots_degenerate_fiber():
    curve = parse_curve("(y^2-x)")
    with pytest.raises(CriticalFiberError):
        fiber_roots(curve, 0j)


def test_branch_point_loop_is_half_twist():
    curve = parse_curve("(y^2-x)")
    b = local_braid_monodromy(curve, LoopSpec())
    assert b.letters == (1,)


def test_smooth_loop_is_trivial():
    curve = parse_curve("(y-x)(y+x)")
    b = local_braid_monodromy(curve, LoopSpec(5 + 0j, Fraction(1)))
    assert b.letters == ()


def test_node_loop_is_full_twist():
    curve = parse_curve("(y-x)(y+x)")
    b = local_braid_monodromy(curve, LoopSpec())
    assert b.letters == (1, 1)


def test_tangency_loop_is_double_full_twist():
    curve = parse_curve("(y+x^2)(y-x^2)")
    b = local_braid_monodromy(curve, LoopSpec())
    assert b.letters == (1, 1, 1, 1)


def test_single_strand_curve():
    curve = parse_curve("(y)")
    b = local_braid_monodromy(curve, LoopSpec())
    assert b.strands == 1
    assert b.letters == ()


def test_lefschetz_half_of_tangency():
    curve = parse_curve("(y+x^2)(y-x^2)")
    half = lefschetz_braid(curve, LoopSpec())
    assert half.letters == (1, 1)
    full = local_braid_monodromy(curve, LoopSpec())
    assert braid_equal(half * half, full)


def test_tracking_is_deterministic():
    curve = parse_curve("y(y^2+x)(y^2-x)")
    a = local_braid_monodromy(curve, LoopSpec())
    b = local_braid_monodromy(curve, LoopSpec())
    assert a.letters == b.letters
    assert braid_permutation(a).images == (5, 4, 3, 2, 1)


def test_motion_time_axis_is_normalised():
    curve = parse_curve("(y^2-x)")
    m = track_loop(curve, LoopSpec())
    assert m.times[0] == 0.0
    assert m.times[-1] == 1.0
    assert m.strands == 2


def test_loop_through_branch_point_fails():
    curve = parse_curve("(y^2-x)")
    with pytest.raises((TrackingFailureError, CriticalFiberError)):
        local_braid_monodromy(curve, LoopSpec(1 + 0j, Fraction(1)))


def test_branch_at_infinity_rejected():
    # The leading y-coefficient x-1 vanishes on the unit circle.
    curve = parse_curve("(x y^2 - y^2 - x)")
    with pytest.raises((ImproperProjectionError, TrackingFailureError)):
        local_braid_monodromy(curve, LoopSpec())


def test_steps_validation():
    curve = parse_curve("(y^2-x)")
    with pytest.raises(GeometryError):
        local_braid_monodromy(curve, LoopSpec(), initial_divisions=0)


def test_half_arc_rejected_for_full_monodromy():
    curve = parse_curve("(y^2-x)")
    with pytest.raises(GeometryError):
        local_braid_monodromy(curve, LoopSpec(0j, Fraction(1), "negative-half"))


def test_coarse_steps_still_converge():
    curve = parse_curve("(y+x^2)(y-x^2)")
    b = local_braid_monodromy(curve, LoopSpec(), initial_divisions=16)
    assert braid_equal(b, local_braid_monodromy(curve, LoopSpec()))


@pytest.mark.parametrize("radius", ["1e400", "1e-400"])
def test_loop_radius_must_be_a_positive_float(radius):
    with pytest.raises(GeometryError, match="out of floating-point range"):
        LoopSpec(0j, Fraction(radius))


def test_batch_solve_matches_a_batch_of_one():
    # Points on two of the verify radii plus the basepoints; the curves
    # with a y factor have a zero root in every fiber.
    xs = [r * cmath.exp(2j * math.pi * k / 16) for r in (0.5, 1.0) for k in range(16)]
    curves = [f.curve for f in fixtures() + [n_tangency_fixture(n) for n in range(2, 7)]]
    assert any(c.product.y_coeffs_at(0.5)[-1] == 0 for c in curves)
    for curve in curves:
        batch = _solve_fibers(curve.product, xs)
        for x, roots in zip(xs, batch):
            alone = _solve_fibers(curve.product, [x])[0]
            assert roots.tobytes() == alone.tobytes(), (str(curve), x)


@pytest.mark.parametrize("poly, bad, error", [
    pytest.param(parse_curve("(xy^2-y^2-x)").product, 1.0, ImproperProjectionError,
                 id="leading-coefficient"),
    pytest.param(Polynomial2.from_dict({(1, 1): 1, (1, 0): -1}), 0.0, CriticalFiberError,
                 id="vanishes-identically"),
    pytest.param(parse_curve("(y^2-x^2-x)").product, 1e200, TrackingFailureError,
                 id="overflow"),
])
def test_batch_returns_an_error_as_a_value(poly, bad, error):
    xs = [0.5j, -0.5, bad, 0.25]
    out = _solve_fibers(poly, xs)
    assert isinstance(out[2], error)
    for k in (0, 1, 3):
        assert out[k].tobytes() == _solve_fibers(poly, [xs[k]])[0].tobytes()


def test_polish_brings_roots_of_wide_magnitude_within_the_residual_bound():
    # Each fiber has ten roots of modulus 1 and two of modulus 3.2e5.  The
    # eigenvalues miss the residual bound, so the Newton polish must step.
    curve = parse_curve("(y^10-x)(y^2-100000000000)")
    xs = [cmath.exp(2j * math.pi * k / 6) for k in range(6)]

    def meets_bound(coeffs, z):
        bound = _RESIDUAL_TOL * np.abs(coeffs).max() * np.maximum(1.0, np.abs(z)) ** 12
        return bool(np.all(np.abs(np.polyval(coeffs, z)) <= bound))

    for x0, roots in zip(xs, _solve_fibers(curve.product, xs)):
        coeffs = np.asarray(curve.product.y_coeffs_at(x0), dtype=complex)
        assert not meets_bound(coeffs, np.roots(coeffs))
        assert meets_bound(coeffs, roots)


def test_tracking_the_verify_fixtures_solves_a_pinned_amount_of_work(monkeypatch):
    # Work counts of the 15 `verify all` fixtures at radius 1, both arcs:
    # batches and fibers passed to _solve_fibers, and samples kept.  Solving
    # fibers one at a time, or planning runs longer than the step rule
    # walks, changes the first two.
    solve = tracker._solve_fibers
    work = {"batches": 0, "fibers": 0}

    def counting(product, xs):
        work["batches"] += 1
        work["fibers"] += len(xs)
        return solve(product, xs)

    monkeypatch.setattr(tracker, "_solve_fibers", counting)
    samples = 0
    for f in fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)]:
        for arc in ("full", "negative-half"):
            samples += len(track_loop(f.curve, LoopSpec(arc=arc)).times)
    assert (work["batches"], work["fibers"], samples) == (997, 5770, 5318)
