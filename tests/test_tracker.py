from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from braidmono import (
    LoopSpec,
    Polynomial2,
    braid_equal,
    braid_permutation,
    catalog,
    cli,
    fixture_by_id,
    fixtures,
    lefschetz_braid,
    motion_to_braid,
    n_tangency_fixture,
    parse_curve,
    track_loop,
    tracker,
    verify_fixture,
)
from braidmono.errors import (
    BraidMonoError,
    CriticalFiberError,
    GeometryError,
    ImproperProjectionError,
    TrackingFailureError,
)
from braidmono.motion import Motion, nearest_match, strand_key
from braidmono.tracker import _solve_fibers, _step_test
from polynomial_product import product


def test_loop_spec_validation():
    with pytest.raises(GeometryError):
        LoopSpec(0j, Fraction(-1))
    with pytest.raises(GeometryError):
        LoopSpec(0j, Fraction(1), "upper")
    loop = LoopSpec(1 + 0j, Fraction(1, 2), "negative-half")
    assert loop.basepoint == 0.5 + 0j  # center - radius exactly, not 0.5 + 6.1e-17j
    assert LoopSpec(1 + 0j, Fraction(1, 2)).basepoint == 1.5 + 0j
    assert loop.point(2.0 * 3.141592653589793) == pytest.approx(1.5 + 0j)


def _basepoint_fiber(curve, loop):
    """The strands' starting points: the basepoint fiber, sorted by strand_key."""
    return track_loop(curve, loop).paths[:, 0].tolist()


def test_basepoint_fiber_sorted_by_real_part():
    curve = parse_curve("(y^2-x)")
    assert _basepoint_fiber(curve, LoopSpec(0j, 1)) == pytest.approx([-1, 1])


def test_basepoint_fiber_conjugate_pair_ordering():
    # Conjugate pairs share Re; the sheared key puts the lower one first.
    curve = parse_curve("(y^2+x)")
    roots = _basepoint_fiber(curve, LoopSpec(0j, 1))
    assert roots[0] == pytest.approx(-1j)
    assert roots[1] == pytest.approx(1j)


def test_degenerate_basepoint_fiber_is_refused():
    # The basepoint x = 0 of this loop is the branch point.
    curve = parse_curve("(y^2-x)")
    with pytest.raises(CriticalFiberError):
        _basepoint_fiber(curve, LoopSpec(-1 + 0j, 1))


def test_branch_point_loop_is_half_twist():
    curve = parse_curve("(y^2-x)")
    b = motion_to_braid(track_loop(curve, LoopSpec()))
    assert b.letters == (1,)


def test_smooth_loop_is_trivial():
    curve = parse_curve("(y-x)(y+x)")
    b = motion_to_braid(track_loop(curve, LoopSpec(5 + 0j, Fraction(1))))
    assert b.letters == ()


def test_node_loop_is_full_twist():
    curve = parse_curve("(y-x)(y+x)")
    b = motion_to_braid(track_loop(curve, LoopSpec()))
    assert b.letters == (1, 1)


def test_tangency_loop_is_double_full_twist():
    curve = parse_curve("(y+x^2)(y-x^2)")
    b = motion_to_braid(track_loop(curve, LoopSpec()))
    assert b.letters == (1, 1, 1, 1)


def test_small_fibers_are_judged_relative_to_their_size():
    # Over |x| = 1/2 the roots are +-2^-30 or so, apart by about 1.9e-9:
    # far apart relative to their size, so the tracker keeps them.
    curve = parse_curve("(y-x^30)(y+x^30)")
    b = motion_to_braid(track_loop(curve, LoopSpec(radius=Fraction(1, 2))))
    assert b.letters == (1,) * 60


def test_single_strand_curve():
    curve = parse_curve("(y)")
    b = motion_to_braid(track_loop(curve, LoopSpec()))
    assert b.strands == 1
    assert b.letters == ()


def test_lefschetz_half_of_tangency():
    curve = parse_curve("(y+x^2)(y-x^2)")
    half = lefschetz_braid(track_loop(curve, LoopSpec()))
    assert half.letters == (1, 1)
    full = motion_to_braid(track_loop(curve, LoopSpec()))
    assert braid_equal(half * half, full)


def test_tracking_is_deterministic():
    curve = parse_curve("y(y^2+x)(y^2-x)")
    a = motion_to_braid(track_loop(curve, LoopSpec()))
    b = motion_to_braid(track_loop(curve, LoopSpec()))
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
        motion_to_braid(track_loop(curve, LoopSpec(1 + 0j, Fraction(1))))


def test_branch_at_infinity_rejected():
    # The leading y-coefficient x-1 vanishes on the unit circle.
    curve = parse_curve("(x y^2 - y^2 - x)")
    with pytest.raises((ImproperProjectionError, TrackingFailureError)):
        motion_to_braid(track_loop(curve, LoopSpec()))


def test_coarse_steps_still_converge(monkeypatch):
    curve = parse_curve("(y+x^2)(y-x^2)")
    fine = motion_to_braid(track_loop(curve, LoopSpec()))
    monkeypatch.setattr(tracker, "_START_DIVISIONS", 16)
    assert braid_equal(motion_to_braid(track_loop(curve, LoopSpec())), fine)


def test_a_sheared_fixture_tracks_to_the_braid_of_the_unsheared_one():
    # y -> y + 100x moves each fiber of vertical-tangency-line-pair by 100x,
    # which leaves the braid as it is.  The roots of the product of the
    # factors are too ill-conditioned there: the full loop did not close,
    # and the half loop gave a wrong braid.
    sheared = parse_curve("(y+100x)(201x+2y)(y^2+200xy+10000x^2+x)(y^2+200xy+10000x^2-x)")
    plain = fixture_by_id("vertical-tangency-line-pair").curve
    assert braid_equal(motion_to_braid(track_loop(sheared, LoopSpec())),
                       motion_to_braid(track_loop(plain, LoopSpec())))
    assert braid_equal(lefschetz_braid(track_loop(sheared, LoopSpec())),
                       lefschetz_braid(track_loop(plain, LoopSpec())))


@pytest.mark.parametrize("arc", ["full", "negative-half"])
@pytest.mark.parametrize("equation, radius", [
    ("(2x+y)(y+x^2)(y-x^2)", 2),  # both basepoints lie under a meeting point
    ("(y^2-x)(y-x)(y+2x)(y-3)", 1),  # the half loop ends under one
])
def test_a_loop_through_a_point_where_two_factors_meet_is_critical(equation, radius, arc):
    with pytest.raises(CriticalFiberError, match="fiber"):
        track_loop(parse_curve(equation), LoopSpec(radius=Fraction(radius), arc=arc))


@pytest.mark.parametrize("radius", ["1e400", "1e-400"])
def test_loop_radius_must_be_a_positive_float(radius):
    with pytest.raises(GeometryError, match="out of floating-point range"):
        LoopSpec(0j, Fraction(radius))


def test_batch_solve_matches_a_batch_of_one():
    # Points on two of the verify radii plus the basepoints; the curves
    # with a y factor have a zero root in every fiber.
    xs = [r * cmath.exp(2j * math.pi * k / 16) for r in (0.5, 1.0) for k in range(16)]
    curves = [f.curve for f in fixtures() + [n_tangency_fixture(n) for n in range(2, 7)]]
    assert any(product(c.factors).y_coeffs_at(np.array([0.5]))[0, -1] == 0 for c in curves)
    for curve in curves:
        batch = _solve_fibers(curve, xs)
        for x, roots in zip(xs, batch):
            alone = _solve_fibers(curve, [x])[0]
            assert roots.tobytes() == alone.tobytes(), (str(curve), x)


def _unchecked(*factors):
    """The factors as a curve, without the checks of CurveSpec."""
    return SimpleNamespace(factors=factors)


_VANISHING = Polynomial2.from_dict({(1, 1): 1, (1, 0): -1})
_WIDE = Polynomial2.from_dict({(0, 2): Fraction(1, 1000), (1, 1): 10**305, (0, 0): -1})
_LINE = Polynomial2.from_dict({(0, 1): 1, (0, 0): -3})


# Each guard on a one-factor curve, and on a curve where only one factor fails it.
@pytest.mark.parametrize("curve, bad, error, message", [
    pytest.param(parse_curve("(xy^2-y^2-x)"), 1.0, ImproperProjectionError,
                 "leading y-coefficient vanishes", id="leading-coefficient"),
    pytest.param(parse_curve("(xy^2-y^2-x)(y-3)"), 1.0, ImproperProjectionError,
                 "leading y-coefficient vanishes", id="leading-coefficient-of-one-factor"),
    pytest.param(_unchecked(_VANISHING), 0.0, CriticalFiberError,
                 "vanishes identically", id="vanishes-identically"),
    pytest.param(_unchecked(_LINE, _VANISHING), 0.0, CriticalFiberError,
                 "vanishes identically", id="one-factor-vanishes-identically"),
    pytest.param(parse_curve("(y^2-x^2-x)"), 1e200, TrackingFailureError,
                 "out of floating-point range", id="overflow"),
    pytest.param(parse_curve("(y-3)(y^2-x^2-x)"), 1e200, TrackingFailureError,
                 "out of floating-point range", id="overflow-of-one-factor"),
    pytest.param(_unchecked(_WIDE), 10.0, TrackingFailureError,
                 "overflows once monic", id="overflow-once-monic"),
    pytest.param(_unchecked(_WIDE, _LINE), 10.0, TrackingFailureError,
                 "overflows once monic", id="overflow-once-monic-of-one-factor"),
])
def test_batch_returns_an_error_as_a_value(curve, bad, error, message):
    xs = [0.5j, -0.5, bad, 0.25]
    out = _solve_fibers(curve, xs)
    assert isinstance(out[2], error) and message in str(out[2])
    for k in (0, 1, 3):
        assert out[k].tobytes() == _solve_fibers(curve, [xs[k]])[0].tobytes()


def test_a_factor_of_wide_magnitude_tracks_to_its_recorded_braid():
    # Each fiber of (y^10-x)(y^2-100000000000), expanded into one factor, has
    # ten roots of modulus 1 and two of modulus 3.2e5: one companion matrix
    # solves both sizes well enough to track them.
    curve = parse_curve("(y^12-100000000000y^10-xy^2+100000000000x)")
    full = track_loop(curve, LoopSpec())
    assert motion_to_braid(full).letters == (3, 5, 7, 9, 2, 4, 6, 8, 10)
    assert len(full.times) == 76
    half = track_loop(curve, LoopSpec(arc="negative-half"))
    assert motion_to_braid(half).letters == (2, 4, 6, 8, 10)


@pytest.mark.parametrize("arc", ["full", "negative-half"])
@pytest.mark.parametrize("radius", [Fraction(1, 2), Fraction(1), Fraction(3, 2)])
@pytest.mark.parametrize("joined, split", [
    ("(y^2+xy)", "(y)(y+x)"),
    ("(y^3-6xy+7y^2)", "(y)(y^2+7y-6x)"),
    ("(y^4+3xy+xy^2+5x^2y^3)(y-2x-1/4)", "(y)(y^3+5x^2y^2+xy+3x)(y-2x-1/4)"),
])
def test_a_factor_that_y_divides_tracks_as_its_split_form(joined, split, radius, arc):
    # Every fiber of the joined factor has a zero constant term, so a root
    # at 0: the root the split form takes from its line y.
    loop = LoopSpec(radius=radius, arc=arc)
    assert (motion_to_braid(track_loop(parse_curve(joined), loop)).letters
            == motion_to_braid(track_loop(parse_curve(split), loop)).letters)


@pytest.mark.parametrize("fixture", fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)],
                         ids=lambda f: f.fixture_id)
def test_a_full_loop_ends_on_a_permutation_of_its_starting_fiber(fixture):
    # The last step of a full loop ends on the basepoint and reuses its
    # fiber, so the last column holds the first column's roots bit for bit.
    paths = track_loop(fixture.curve, LoopSpec()).paths
    first, last = ([z.tobytes() for z in column] for column in (paths[:, 0], paths[:, -1]))
    assert sorted(first) == sorted(last)


def test_tracking_the_verify_fixtures_solves_a_pinned_amount_of_work(monkeypatch):
    # Work counts of the 15 `verify all` fixtures at radius 1, both arcs:
    # batches and fibers passed to _solve_fibers, and samples kept.  The
    # basepoint shares the first run's batch and each run ends at its
    # probe, the first step at a grown size; a full loop's last step reuses
    # the basepoint's fiber.  Solving fibers one at a time, making the
    # basepoint or a probe a batch of its own, planning runs past the probe
    # or solving the basepoint again at the end changes the first two.
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
    assert (work["batches"], work["fibers"], samples) == (118, 2411, 2396)


def test_verifying_the_verify_fixtures_walks_each_full_loop_once(monkeypatch):
    # verify_fixture reads the half-loop braid off its full loop's walk, so
    # it solves the full-loop share of the work pinned above: a second walk
    # of the lower half changes all three counts.
    solve, walk = tracker._solve_fibers, catalog.track_loop
    work = {"batches": 0, "fibers": 0, "walks": 0}

    def counting(curve, xs):
        work["batches"] += 1
        work["fibers"] += len(xs)
        return solve(curve, xs)

    def counting_walks(*args, **kwargs):
        work["walks"] += 1
        return walk(*args, **kwargs)

    monkeypatch.setattr(tracker, "_solve_fibers", counting)
    monkeypatch.setattr(catalog, "track_loop", counting_walks)
    for f in fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)]:
        assert verify_fixture(f).passed, f.fixture_id
    assert (work["batches"], work["fibers"], work["walks"]) == (73, 1271, 15)


def test_tracking_the_verify_fixtures_solves_a_pinned_amount_of_eigenvalue_work(monkeypatch):
    # eigvals calls and companion matrices over the same loops.  Each fiber
    # is solved factor by factor: a line's root is a ratio, and the conics
    # of a batch share one call of 2x2 matrices.  Solving the product, or
    # sending a line to eigvals, changes the counts.
    eigvals = np.linalg.eigvals
    calls, matrices, sizes = 0, 0, set()

    def counting(a):
        nonlocal calls, matrices
        calls += 1
        matrices += len(a)
        sizes.add(a.shape[1:])
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    for f in fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)]:
        for arc in ("full", "negative-half"):
            track_loop(f.curve, LoopSpec(arc=arc))
    assert (calls, matrices) == (18, 906)
    assert sizes == {(2, 2)}


def _reference_walk(curve, loop):
    """The documented walk, one step at a time.

    Returns (times, paths, rejected probes of the largest step size).  One
    _solve_fibers call and one _step_test per step: the first step is arc
    over the tracker's _START_DIVISIONS, a rejected step halves the step,
    and eight accepted steps in a row double it, up to arc/64, which also
    caps the first step; a step that would pass the half turn by more
    than the tracker's _HALF_TOL ends on it.  The last step of a full
    loop ends on the basepoint and takes the basepoint's fiber as solved,
    unsorted, as its new fiber.  The tracker's runs must take exactly
    these steps.
    """
    theta0, theta1 = loop.angle_range
    arc = theta1 - theta0
    base = _solve_fibers(curve, [loop.basepoint])[0]
    if isinstance(base, BraidMonoError):
        raise base
    sep = tracker._separations(base[None]).min(initial=math.inf)
    if sep <= 2.0 * tracker._SEPARATION_TOL * np.abs(base).max(initial=0.0):
        raise CriticalFiberError("fiber over x=%s has nearly coincident roots (separation %.3e)"
                                 % (loop.basepoint, sep))
    current = np.asarray(sorted((complex(z) for z in base), key=strand_key), dtype=complex)
    thetas, samples = [theta0], [current]
    min_step, max_step = arc * 2.0**-40, arc / 64.0
    step = min(arc / tracker._START_DIVISIONS, max_step)
    theta, streak, probe, rejected_probes = theta0, 0, False, 0
    while theta < theta1 - 1e-15:
        target = theta + min(step, theta1 - theta)
        if theta < math.pi - tracker._HALF_TOL and target > math.pi + tracker._HALF_TOL:
            target = math.pi
        if loop.arc == "full" and target >= theta1 - 1e-15:
            fiber = base
        else:
            fiber = _solve_fibers(curve, [loop.point(target)])[0]
        if isinstance(fiber, BraidMonoError):
            raise fiber
        near, ok, sep, scale = _step_test(np.array([current, fiber]))
        if sep[0] <= 2.0 * tracker._SEPARATION_TOL * scale[0]:
            raise CriticalFiberError("fiber separation collapsed at loop angle %.6f" % theta)
        probed, probe = probe, False
        if not ok[0]:
            rejected_probes += probed and step == max_step
            step = min(step, theta1 - theta) / 2.0
            if step < min_step:
                raise TrackingFailureError(
                    "step underflow at loop angle %.6f (fiber too unstable)" % theta
                )
            streak = 0
            continue
        current = fiber[near[0]]
        theta = target
        thetas.append(theta)
        samples.append(current)
        streak += 1
        if streak == 8:
            probe = step < max_step
            step, streak = min(step * 2.0, max_step), 0
    times = [(t - theta0) / arc for t in thetas]
    times[0], times[-1] = 0.0, 1.0
    return tuple(times), np.array(samples).T, rejected_probes


def _assert_walks_alike(curve, loop):
    times, paths, rejected = _reference_walk(curve, loop)
    motion = track_loop(curve, loop)
    assert motion.times == times
    assert motion.paths.tobytes() == paths.tobytes()
    return rejected


@pytest.mark.parametrize("fixture", fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)],
                         ids=lambda f: f.fixture_id)
def test_tracking_takes_the_steps_of_a_one_step_walk(fixture):
    rejected = {arc: _assert_walks_alike(fixture.curve, LoopSpec(arc=arc))
                for arc in ("full", "negative-half")}
    if fixture.fixture_id == "n-tangency-3":
        # The probe of the largest size is rejected again and again here.
        assert rejected["full"] == 15


@pytest.mark.parametrize("equation", ["(y+x^2)(y-x^2)", "y(y^2+x)(y^2-x)"])
def test_tracking_from_a_coarse_start_takes_the_steps_of_a_one_step_walk(monkeypatch, equation):
    monkeypatch.setattr(tracker, "_START_DIVISIONS", 3)
    for arc in ("full", "negative-half"):
        _assert_walks_alike(parse_curve(equation), LoopSpec(arc=arc))


# Steps from 96 or 100 divisions do not fall on the half turn: before a
# step across it ended there, the nearest sample was 5.2e-3 or 1.9e-3 of
# a turn away from it.
@pytest.mark.parametrize("divisions", (96, 100))
@pytest.mark.parametrize("equation", ["(y+x^2)(y-x^2)", "y(y^2+x)(y^2-x)"])
def test_a_full_loop_has_a_sample_at_its_half_turn(monkeypatch, equation, divisions):
    curve = parse_curve(equation)
    half = motion_to_braid(track_loop(curve, LoopSpec(arc="negative-half")))
    monkeypatch.setattr(tracker, "_START_DIVISIONS", divisions)
    motion = track_loop(curve, LoopSpec())
    assert 0.5 in motion.times
    assert braid_equal(lefschetz_braid(motion), half)
    _assert_walks_alike(curve, LoopSpec())


def test_lefschetz_braid_needs_a_sample_at_the_half_turn():
    motion = Motion((0.0, 0.3, 1.0), np.array([[-1, -1j, 1], [1, 1j, -1]]))
    with pytest.raises(GeometryError, match="half turn"):
        lefschetz_braid(motion)


def _refusal(call, *args):
    try:
        call(*args)
    except BraidMonoError as e:
        return type(e), str(e)
    raise AssertionError("%s did not refuse" % call.__name__)


def test_tracking_refusals_match_a_one_step_walk(monkeypatch):
    # Each exit-3 case of the command-line transcript that reaches the
    # tracker fails there with the one-step walk's exception and message.
    cases = json.loads((Path(__file__).parent / "data" / "cli_transcript.json").read_text())
    calls = []
    monkeypatch.setattr(cli, "track_loop", lambda *args: calls.append(args) or track_loop(*args))
    refusals = 0
    for case in (c for c in cases if c["exit"] == 3):
        del calls[:]
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(case["argv"]) == 3
        if calls:
            (curve, loop), = calls
            refused = _refusal(_reference_walk, curve, loop)
            assert refused == _refusal(track_loop, curve, loop)
            assert case["stderr"] == "tracking error: %s\n" % refused[1]
            refusals += 1
    assert refusals == 3


def _grid_chain(rng, n, k):
    """k + 1 fibers of n distinct Gaussian integers: exact distances, ties."""
    grid = [complex(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    return [rng.sample(grid, n) for _ in range(k + 1)]


def _moved_chain(rng, n, k):
    """k + 1 fibers, each a shuffled copy of the last moved by up to its separation."""
    rows = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]]
    for _ in range(k):
        sep = min((abs(a - b) for a in rows[-1] for b in rows[-1] if a != b), default=1.0)
        row = [z + sep * complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
               for z in rows[-1]]
        rng.shuffle(row)
        rows.append(row)
    return rows


def _boundary_chain(rng):
    """A step whose first point moves half its distance to the other, up to rounding.

    Where np.abs rounds |d| differently from abs(), only distances taken
    as abs() takes them decide this step as nearest_match does.
    """
    d = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    return [[0j, 2 * d], [d, 2.1 * d]]


# (id, chain, the matching of each step or None)
_EXACT_CHAINS = [
    ("tie-first-wins-at-half-separation", [[0, 2], [3, 1]], [[1, 0]]),
    ("tie-makes-a-shared-target", [[0, 2], [1, 3]], [None]),
    ("just-above-half-separation", [[0, 2], [3, 1 + 2**-52]], [None]),
    ("shared-target-within-tolerance", [[0, 1, 10], [0.5, 10, 20]], [None]),
    ("single-strand", [[0], [100], [-5j]], [[0], [0]]),
    # Root 100 is 99 from its neighbour: it may move up to 49.5, past half
    # the fiber's least separation (0.5), but no further.
    ("isolated-root-within-its-own-half-gap", [[0, 1, 100], [0, 1, 130]], [[0, 1, 2]]),
    ("isolated-root-just-above-its-own-half-gap", [[0, 1, 100], [0, 1, 149.5 + 2**-45]],
     [None]),
]


@pytest.mark.parametrize("rows, expected", [c[1:] for c in _EXACT_CHAINS],
                         ids=[c[0] for c in _EXACT_CHAINS])
def test_step_test_decides_the_pinned_chains(rows, expected):
    near, ok, _, _ = _step_test(np.array(rows, dtype=complex))
    assert [m if good else None for m, good in zip(near.tolist(), ok)] == expected


def _matching(points, targets, tols):
    """nearest_match's rule with a tolerance per point: every point within
    its own tolerance of its nearest target, and no target shared."""
    hits = [nearest_match([z], targets, tol) for z, tol in zip(points, tols)]
    if None in hits:
        return None
    match = [k for k, in hits]
    return match if len(set(match)) == len(match) else None


@pytest.mark.parametrize("seed", range(4))
def test_step_test_equals_nearest_match(seed):
    rng = random.Random(seed)
    chains = [[[complex(z) for z in row] for row in rows] for _, rows, _ in _EXACT_CHAINS]
    for _ in range(100):
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        chains += [_grid_chain(rng, n, k), _moved_chain(rng, n, k), _boundary_chain(rng)]
    decisions = set()
    for rows in chains:
        chain = np.array(rows, dtype=complex)
        near, ok, sep, scale = _step_test(chain)
        for k in range(len(rows) - 1):
            # Each root's distance to its nearest neighbour, the least
            # separation and the scale, as the step test of a single fiber
            # had them.
            prev = chain[k]
            gaps = np.abs(prev[:, None] - prev[None, :])
            gaps[np.arange(len(prev)), np.arange(len(prev))] = math.inf
            assert sep[k] == gaps.min()
            assert scale[k] == np.abs(prev).max()
            match = _matching(rows[k], rows[k + 1], (0.5 * gaps.min(axis=1)).tolist())
            assert bool(ok[k]) == (match is not None)
            if match is not None:
                assert near[k].tolist() == match
            decisions.add(match is not None)
    assert decisions == {True, False}


def test_out_of_range_leading_coefficient_fails_tracking():
    # CurveSpec refuses the curve on construction, so track a bare one-factor curve.
    poly = Polynomial2.from_dict({(0, 2): 10**400, (1, 0): -1, (0, 0): -1})
    with pytest.raises(TrackingFailureError, match="out of floating-point range"):
        track_loop(_unchecked(poly), LoopSpec())


# Finite coefficients whose ratios c_k / c_0 overflow away from x = 1:
# the basepoint fiber at radius 1 is y^2, a double root.
_MONIC_OVERFLOW = "(1/1000y^2+%dxy-%dy-x+1)" % (10**308, 10**308)


@pytest.mark.parametrize("radius, error, message", [
    pytest.param(1, CriticalFiberError,
                 "fiber over x=(1+0j) has nearly coincident roots (separation 0.000e+00)",
                 id="basepoint-first"),
    pytest.param(Fraction(999, 1000), TrackingFailureError,
                 "fiber polynomial at x=(0.998699119877508+0.024516687294389376j) "
                 "overflows once monic",
                 id="mid-loop"),
])
def test_an_overflow_once_monic_refuses_as_a_one_step_walk_does(radius, error, message):
    loop = LoopSpec(radius=radius)
    curve = parse_curve(_MONIC_OVERFLOW)
    assert _refusal(_reference_walk, curve, loop) == (error, message)
    assert _refusal(track_loop, curve, loop) == (error, message)
