from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from braidmono import (
    Motion,
    MotionProgram,
    RotateBlock,
    compose_motions,
    motion_to_braid,
)
from braidmono import motion as motion_module
from braidmono.errors import DegenerateMotionError, GeometryError, TieError
from braidmono.motion import nearest_match
from catalog_programs import Encircle, FrameIn, FrameOut


def rotation(points, center, angle, steps=None, others=()):
    """Motion of a one-move program that turns `points` about `center`."""
    move = RotateBlock(tuple(points), center, Fraction(angle), steps)
    return MotionProgram((*points, *others), (move,)).to_motion()


def test_half_twist_of_two_points_is_positive_generator():
    m = rotation([-1, 1], 0, 1)
    assert motion_to_braid(m).letters == (1,)


def test_full_twist_of_two_points():
    m = rotation([-1, 1], 0, 2)
    assert motion_to_braid(m).letters == (1, 1)


def test_clockwise_half_twist_is_negative():
    m = rotation([-1, 1], 0, -1)
    assert motion_to_braid(m).letters == (-1,)


def test_stationary_motion_is_empty_braid():
    m = Motion.stationary([-1, 0, 1])
    assert motion_to_braid(m).letters == ()


def test_block_rotation_with_bystander():
    m = rotation([-1, 1], 0, 1, others=[3])
    b = motion_to_braid(m)
    assert b.strands == 3
    assert b.letters == (1,)


def test_coincident_points_rejected():
    with pytest.raises(DegenerateMotionError):
        Motion.stationary([1, 1])


def test_empty_time_grid_rejected():
    with pytest.raises(DegenerateMotionError, match="at least one sample"):
        Motion((), ((),))


def test_times_must_strictly_increase():
    with pytest.raises(DegenerateMotionError, match="strictly increasing"):
        Motion((0.0, 1.0, 1.0), ((0, 1, 2),))
    with pytest.raises(DegenerateMotionError, match="strictly increasing"):
        Motion((0.0, 2.0, 1.0), ((0, 1, 2),))


def test_ragged_paths_rejected():
    with pytest.raises(DegenerateMotionError, match="does not match time grid"):
        Motion((0.0, 1.0), ((0, 1), (2, 3, 4)))
    with pytest.raises(DegenerateMotionError, match="does not match time grid"):
        Motion((0.0, 1.0), ((0, 1, 2), (3, 4, 5)))


@pytest.mark.parametrize("times, paths", [
    pytest.param((0.0, 1.0), ((np.nan, np.nan), (1, 2)), id="nan"),
    pytest.param((0.0, 1.0), ((0, np.inf), (1, 2)), id="inf"),
    pytest.param((0.0, 1.0), ((0, complex(1, -np.inf)),), id="one-strand"),
    pytest.param((0.0, np.nan), ((0, 1),), id="nan-time"),
    pytest.param((0.0, np.inf), ((0, 1),), id="inf-time"),
])
def test_non_finite_samples_rejected(times, paths):
    with pytest.raises(DegenerateMotionError, match="must be finite"):
        Motion(times, paths)


def test_paths_are_a_read_only_copy():
    src = np.array([[0, 1], [2, 3]], dtype=complex)
    m = Motion((0.0, 1.0), src)
    assert m.paths.dtype == np.complex128 and m.paths.shape == (2, 2)
    src[0, 0] = 5
    assert m.paths[0, 0] == 0
    with pytest.raises(ValueError):
        m.paths[0, 0] = 1


def test_coincidence_names_the_first_sample_then_the_first_pair():
    with pytest.raises(DegenerateMotionError) as err:
        Motion((0.0, 1.0), ((0, 1), (2, 1), (3, 3)))
    assert str(err.value) == "strands 0 and 1 coincide at sample 1"
    with pytest.raises(DegenerateMotionError) as err:
        Motion((0.0, 1.0, 2.0), ((0, 5, 1), (2, 6, 1), (4, 6, 1)))
    assert str(err.value) == "strands 1 and 2 coincide at sample 1"


def test_rotation_about_a_member_point_rejected():
    with pytest.raises(DegenerateMotionError):
        rotation([0, 1], 0, 1)


def test_too_few_steps_rejected():
    with pytest.raises(GeometryError):
        rotation([-1, 1], 0, 2, steps=4)


def test_fewer_than_one_step_rejected_at_every_angle():
    for angle in (0, 1):
        with pytest.raises(GeometryError):
            rotation([1], 0, angle, steps=0, others=[5])
        with pytest.raises(GeometryError):
            MotionProgram((1,), (RotateBlock((1,), 0, angle, steps=0),)).to_motion()
    with pytest.raises(GeometryError):
        rotation([1], 0, 0, steps=-1)


def test_encircle_single_point_once():
    m = MotionProgram((2, 0, -3), (Encircle((2,), (0,), Fraction(1)),)).to_motion()
    assert motion_to_braid(m).letters == (2, 2)


def test_encircle_validations():
    cases = [
        ((0,), Encircle((), (0,), Fraction(1))),
        ((2,), Encircle((2,), (), Fraction(1))),
        ((2, 0, 3), Encircle((2,), (0, 3), Fraction(1))),
        ((2, 0, 1), Encircle((2,), (0,), Fraction(1))),
    ]
    for points, move in cases:
        with pytest.raises(GeometryError):
            MotionProgram(points, (move,)).to_motion()


def test_frame_round_trip_is_trivial():
    frame = FrameIn((-1, 0, 1), pair_re=Fraction(1, 2), pair_height=Fraction(1, 2))
    m = MotionProgram((-1, 0, 1), (frame, FrameOut(frame))).to_motion()
    assert motion_to_braid(m).letters == ()


def test_frame_moves_rightmost_pair_off_axis():
    frame = FrameIn((-1, 0, 1), pair_re=0, pair_height=1)
    pre = MotionProgram((-1, 0, 1), (frame,)).to_motion()
    ends = sorted(pre.end, key=lambda z: z.imag)
    assert ends[0].imag < 0 < ends[2].imag
    assert abs(ends[1] - (-1)) < 1e-9


def test_frame_level_validation():
    with pytest.raises(GeometryError):
        MotionProgram((0, 1j), (FrameIn((0, 1j)),)).to_motion()


def test_compose_requires_matching_configurations():
    a = rotation([-1, 1], 0, 1)
    with pytest.raises(DegenerateMotionError):
        compose_motions(a, Motion.stationary([5, 6]))
    with pytest.raises(DegenerateMotionError):
        compose_motions(a, a, Motion.stationary([-1, 2]))


def test_compose_concatenates_letters():
    a = rotation([-1, 1], 0, 1)
    b = rotation([-1, 1], 0, 1)
    assert motion_to_braid(compose_motions(a, b)).letters == (1, 1)
    a = rotation([-1, 1], 0, 1, others=[3])
    b = rotation([1, 3], 2, -1, others=[-1])
    c = rotation([-1, 1], 0, 2, others=[3])
    m = compose_motions(a, b, c)
    assert motion_to_braid(m).letters == (1, -2, 1, 1)
    assert len(m.times) == len(a.times) + len(b.times) + len(c.times) - 2
    assert m.times[0] == 0.0 and m.times[-1] == 1.0


def test_compose_keeps_first_motion_start_and_order():
    a = rotation([1, 3], 2, 1, others=[-1])
    b = rotation([-1, 1], 0, 1, others=[3])
    m = compose_motions(a, b)
    assert m.start == a.start == (1, 3, -1)
    assert all(abs(z - w) < 1e-12 for z, w in zip(m.end, (3, -1, 1)))


def _reference_compose(*motions):
    """The junction loop, one motion at a time.

    Motion i of k is rescaled onto [i/k, (i+1)/k] as (i + (t - t0)/span)/k;
    at each junction nearest_match continues every end point of one
    motion by a start point of the next, within _MATCH_TOL (relative), and
    strands keep the numbering of the first motion.  compose_motions must
    give exactly this motion.
    """
    k = len(motions)
    times, cols = [np.zeros(1)], [motions[0].paths[:, :1]]
    cur = list(range(motions[0].strands))
    for i, m in enumerate(motions):
        if i:
            ends = motions[i - 1].end
            tol = motion_module._MATCH_TOL * motion_module._scale(ends + m.start)
            link = nearest_match(ends, m.start, tol)
            assert link is not None
            cur = [link[s] for s in cur]
        t0 = m.times[0]
        times.append((i + (np.array(m.times[1:]) - t0) / (m.times[-1] - t0)) / k)
        cols.append(m.paths[cur, 1:])
    return Motion(np.concatenate(times), np.hstack(cols))


def _drawn_pieces(rng):
    """1-5 motions that continue one another on 1-6 real points: rotations
    of an adjacent pair about its midpoint or of every point about a
    centre off the axis (angles -2..3), stationary motions and, now and
    then, a one-sample motion; each lists its strands in a shuffled order
    and has its times shifted by t0 and scaled by span."""
    config = [complex(z) for z in rng.sample(range(-9, 10), rng.randint(1, 6))]
    pieces = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(["pair", "all", "still", "still", "one"])
        if kind == "pair" and len(config) > 1:
            a, b = sorted(config, key=lambda z: z.real)[rng.randrange(len(config) - 1):][:2]
            move = RotateBlock((a, b), (a + b) / 2, rng.randint(-2, 3),
                               rng.choice([None, 48, 64, 99]))
            m = MotionProgram(tuple(config), (move,)).to_motion()
        elif kind == "all":
            move = RotateBlock(tuple(config), 0.5 + 0.5j, rng.randint(-2, 3),
                               rng.choice([None, 48, 64, 99]))
            m = MotionProgram(tuple(config), (move,)).to_motion()
        elif kind == "one":
            m = Motion((0.0,), [(z,) for z in config])
        else:
            m = Motion.stationary(config)
        t0, span = rng.choice([0.0, 0.25, 3.0]), rng.choice([1.0, 0.5, 7.0])
        order = rng.sample(range(len(config)), len(config))
        m = Motion(tuple(t0 + span * t for t in m.times), m.paths[order])
        pieces.append(m)
        config = list(m.end)
    return pieces


def test_compose_motions_joins_as_the_reference_loop_does():
    rng = random.Random(33)
    for _ in range(300):
        pieces = _drawn_pieces(rng)
        got, want = compose_motions(*pieces), _reference_compose(*pieces)
        assert got.times == want.times
        assert got.paths.tobytes() == want.paths.tobytes()
        assert motion_to_braid(got).letters == motion_to_braid(want).letters


def test_a_program_takes_a_recorded_motion_as_a_move():
    turn = RotateBlock((-1, 1), 0, Fraction(1))
    recorded = rotation([1, 3], 2, -1, others=[-1])
    # The same motion with its strands listed (-1, 1, 3) and its times on [3, 5].
    listed = Motion(tuple(3 + 2 * t for t in recorded.times), recorded.paths[[2, 0, 1]])
    m = MotionProgram((-1, 1, 3), (turn, listed)).to_motion()
    alone = MotionProgram((-1, 1, 3), (turn,)).to_motion()
    assert motion_to_braid(m).letters == (1, -2)
    assert motion_to_braid(m).letters == (
        motion_to_braid(alone).letters + motion_to_braid(recorded).letters)
    assert m.start == (-1, 1, 3)
    assert len(m.times) == len(alone.times) + len(recorded.times) - 1
    assert m.times[0] == 0.0 and m.times[-1] == 1.0
    # As the first move, the recorded motion numbers the strands.
    assert MotionProgram((3, -1, 1), (listed,)).to_motion().start == listed.start


@pytest.mark.parametrize("moves", [
    pytest.param((RotateBlock((-1, 1), 0, Fraction(1)), Motion.stationary([-1, 1, 4])),
                 id="after-a-rotation"),
    pytest.param((Motion.stationary([-1, 1]),), id="fewer-strands"),
])
def test_a_recorded_motion_must_start_at_the_configuration(moves):
    with pytest.raises(DegenerateMotionError):
        MotionProgram((-1, 1, 3), moves).to_motion()


def test_empty_program_is_identity_braid():
    b = MotionProgram((-1, 0, 2), ()).braid()
    assert b.strands == 3
    assert b.letters == ()


def test_program_rejects_frame_off_the_configuration():
    frame = FrameIn((-1, 0, 1))
    with pytest.raises(DegenerateMotionError):
        MotionProgram((-1, 0, 2), (frame,)).to_motion()
    with pytest.raises(DegenerateMotionError):
        MotionProgram(
            (-1, 0, 1), (RotateBlock((1,), 3, Fraction(1)), frame)
        ).to_motion()


def test_matching_permutation_tracks_slot_exchange():
    m = rotation([-1, 1], 0, 1, others=[3])
    assert m.matching_permutation().images == (2, 1, 3)


def test_head_on_collision_is_a_tie():
    m = Motion((0.0, 1.0), (((-1 + 0j), (1 + 0j)), ((1 + 0j), (-1 + 0j))))
    with pytest.raises(TieError):
        motion_to_braid(m)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e150])
def test_crossing_test_is_scale_free(scale):
    # A product of the two gaps would underflow at 1e-170 and overflow at
    # 1e150; neither strand pair crosses at any scale.
    m = Motion((0.0, 1.0), [(0j, 0j), (scale + 0j, 2 * scale + 0j)])
    assert motion_to_braid(m).letters == ()


def _layered_swap(scale):
    """Strand 1 passes above strand 0, which comes from the left: s1."""
    return Motion((0.0, 1.0), [(-scale, scale), (scale * (0.6 + 0.6j), scale * (-0.6 + 0.6j))])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("at_bound", [False, True])
def test_a_layered_swap_is_s1_up_to_the_modulus_bound(at_bound):
    scale = motion_module.MAX_MODULUS if at_bound else 1.0
    assert motion_to_braid(_layered_swap(scale)).letters == (1,)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("paths", [
    pytest.param(lambda bound: [(1.7e308, -1.7e308), (-1.7e308, 1.7e308)], id="head-on-1.7e308"),
    pytest.param(lambda bound: _layered_swap(8.9e307).paths, id="layered-8.9e307"),
    pytest.param(lambda bound: [(0, 1), (2, np.nextafter(bound, np.inf))], id="one-ulp-above"),
    pytest.param(lambda bound: [(0, 1), (2, complex(1e308, 1e308))], id="modulus-overflows"),
])
def test_positions_above_the_modulus_bound_are_refused(paths):
    bound = motion_module.MAX_MODULUS
    with pytest.raises(DegenerateMotionError) as err:
        Motion((0.0, 1.0), paths(bound))
    assert str(err.value) == "positions must have modulus at most %r" % bound


def test_program_tracks_configuration_between_moves():
    prog = MotionProgram(
        (-1, 1, 3),
        (RotateBlock((-1, 1), 0, Fraction(1)), RotateBlock((-1, 1), 0, Fraction(1))),
    )
    assert prog.braid().letters == (1, 1)


def test_nearest_match_maps_each_point_to_its_nearest_target():
    assert nearest_match([1, 0, 5], [0, 5, 1.001], 0.01) == [2, 0, 1]
    assert nearest_match([1], [0, 1, 2], 0.0) == [1]  # a distance equal to tol passes
    assert nearest_match([], [0, 1], 0.1) == []


def test_nearest_match_rejects_a_shared_target():
    assert nearest_match([0, 0.01], [0, 1], 1.0) is None


def test_nearest_match_rejects_a_point_beyond_tol():
    assert nearest_match([0, 1.5], [0, 1], 0.4) is None
    assert nearest_match([0], [], 1.0) is None


def test_program_takes_the_nearest_listed_point():
    # Both 0 and 5e-8 lie within tolerance of the listed 4e-8.  It stands
    # for the nearest, 5e-8, so 0 stays put and the half turn about 1
    # crosses no other point.
    prog = MotionProgram((0, 5e-8, 5), (RotateBlock((4e-8,), 1, Fraction(1)),))
    assert prog.braid().letters == ()


def test_program_rejects_a_listed_point_absent_from_the_configuration():
    with pytest.raises(GeometryError):
        MotionProgram((-1, 1, 3), (RotateBlock((-1, 2), 0, Fraction(1)),)).to_motion()


@pytest.mark.parametrize("points, move, message", [
    pytest.param((1, 2, 3), RotateBlock((1, 1), 0, Fraction(1)),
                 "a configuration point is listed twice", id="rotate-twice"),
    pytest.param((1, 2, 3), Encircle((1,), (1,), Fraction(1)),
                 "a configuration point is listed twice", id="mover-encircled"),
    pytest.param((1, 2, 3), RotateBlock((1, 1, 9), 0, Fraction(1)),
                 "a listed point is absent from the configuration", id="twice-and-absent"),
    pytest.param((0, 1, 1), FrameIn((0, 1, 1)),
                 "the two rightmost slots coincide", id="frame-slots-coincide"),
])
def test_geometry_errors_name_the_fault(points, move, message):
    with pytest.raises(GeometryError) as err:
        MotionProgram(points, (move,)).to_motion()
    assert str(err.value) == message


def test_arguments_of_the_wrong_kind_raise_geometry_errors():
    # The first program fills the turn cache for (1, 16); 16.0 equals 16
    # as a key, so the steps check must not hide behind the cache.
    assert motion_to_braid(rotation([-1, 1], 0, 1, steps=16)).letters == (1,)
    cases = [
        ((-1, 1), RotateBlock((-1, 1), 0, Fraction(1), 16.0),
         "steps must be an integer or None, not 16.0"),
        ((-1, 1), RotateBlock((-1, 1), 0, float("nan")),
         "angle must be a finite rational number, not nan"),
        ((-1, 1), RotateBlock((-1, 1), 0, [1]),
         "angle must be a finite rational number, not [1]"),
        ((2, 0), Encircle((2,), (0,), float("inf")),
         "turns must be a finite rational number, not inf"),
    ]
    for _ in range(2):  # errors are not cached
        for points, move, message in cases:
            with pytest.raises(GeometryError) as err:
                MotionProgram(points, (move,)).to_motion()
            assert str(err.value) == message


def test_equal_angles_share_one_turn_table(monkeypatch):
    # The table cache is keyed by the angle's integer ratio, so a Fraction,
    # an int, a float and a string that name the same angle share an entry.
    cached = motion_module.functools.lru_cache(maxsize=8)(motion_module._turns.__wrapped__)
    monkeypatch.setattr(motion_module, "_turns", cached)
    for angle in (Fraction(2, 2), 1, 1.0, "4/4"):
        braid = MotionProgram((-1, 1), (RotateBlock((-1, 1), 0, angle),)).braid()
        assert braid.letters == (1,)
    for angle in (Fraction(-1, 2), -0.5):
        MotionProgram((-1, 1), (RotateBlock((-1, 1), 0, angle, 64),)).braid()
    info = cached.cache_info()
    assert (info.hits, info.misses) == (4, 2)


def test_program_on_no_points_rejects_a_listed_point():
    with pytest.raises(GeometryError):
        MotionProgram((), (RotateBlock((1,), 0, Fraction(1)),)).braid()


def test_compose_motions_on_no_points():
    m = compose_motions(Motion((0.0, 1.0), ()), Motion((0.0, 1.0), ()))
    assert m.strands == 0 and m.times == (0.0, 0.5, 1.0)
    with pytest.raises(DegenerateMotionError):
        motion_to_braid(m)


def test_program_rejects_stale_positions():
    prog = MotionProgram(
        (-1, 1),
        (RotateBlock((-1, 1), 0, Fraction(1, 2)), RotateBlock((-1, 1), 0, Fraction(1, 2))),
    )
    with pytest.raises(GeometryError):
        prog.braid()



def test_program_numbers_strands_as_its_first_move_rows():
    # The first move lists 1 and 3 before the bystander -1, so the
    # motion starts (1, 3, -1) whatever the order of `points`.
    prog = MotionProgram(
        (-1, 1, 3),
        (RotateBlock((1, 3), 2, Fraction(1)), RotateBlock((-1, 1), 0, Fraction(1))),
    )
    m = prog.to_motion()
    assert m.start == (1, 3, -1)
    assert all(abs(z - w) < 1e-12 for z, w in zip(m.end, (3, -1, 1)))
    assert prog.braid().letters == (2, 1)


def test_program_constructs_one_motion(monkeypatch):
    built = []
    validate = Motion.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(Motion, "__post_init__", counting)
    frame = FrameIn((-1, 0, 1))
    moves = (
        RotateBlock((-1, 0), Fraction(-1, 2), Fraction(1)),
        Encircle((1,), (-1, 0), Fraction(1)),
        frame,
        FrameOut(frame),
    )
    m = MotionProgram((-1, 0, 1), moves).to_motion()
    assert built == [m]
    assert m.times[0] == 0.0 and m.times[-1] == 1.0


def test_nearest_match_takes_a_tolerance_per_point():
    assert nearest_match([0, 10], [0.25, 13], [0.5, 3.0]) == [0, 1]
    assert nearest_match([0, 10], [0.25, 13], [0.5, 2.5]) is None
    assert nearest_match([0, 10], [0.25, 13], [0.2, 3.0]) is None


def _two_faults(head_on: int, stuck: int, samples: int = 5) -> Motion:
    """Strands 0 and 1 meet head on across step `head_on`; strand 3 keeps
    the sheared key of strand 2 (10) across step `stuck`."""
    a, b = [-1.0] * samples, [1.0] * samples
    for j in range(head_on + 1, samples):
        a[j], b[j] = 1.0, -1.0
    c, d = [10.0] * samples, [20.0] * samples
    d[stuck], d[stuck + 1] = 11 - 1000j, 12 - 2000j
    for j in range(stuck + 2, samples):
        d[j] = 30.0
    return Motion(tuple(float(t) for t in range(samples)), (a, b, c, d))


@pytest.mark.parametrize("motion, message", [
    pytest.param(Motion((0.0, 1.0), ((0, 1j), (1 - 1000j, 2 - 1000j))),
                 "tied sheared order at the initial configuration", id="initial"),
    pytest.param(Motion((0.0, 1.0, 2.0, 3.0),
                        ((0, 0, 0, 0), (1 + 5j, 1 - 1000j, 2 - 2000j, 3 - 2000j))),
                 "strands 0 and 1 keep equal sheared keys across step 1", id="stuck"),
    pytest.param(Motion((0.0, 1.0), ((-1, 1), (1, -1))),
                 "cannot layer simultaneous crossing at step 0", id="head-on"),
    pytest.param(_two_faults(head_on=3, stuck=1),
                 "strands 2 and 3 keep equal sheared keys across step 1",
                 id="stuck-before-head-on"),
    pytest.param(_two_faults(head_on=1, stuck=2),
                 "cannot layer simultaneous crossing at step 1",
                 id="head-on-before-stuck"),
])
def test_tie_error_names_the_first_faulty_step(motion, message):
    with pytest.raises(TieError) as err:
        motion_to_braid(motion)
    assert str(err.value) == message


# Strand 0 runs along the axis; strand 1 has the sheared key 0.5 of strand 0
# at the middle sample, above or below it.
_TIE_ABOVE, _TIE_BELOW = 0.499 + 1j, 0.501 - 1j


@pytest.mark.parametrize("paths, letters", [
    pytest.param(((0, 0.5, 1), (1, _TIE_ABOVE, 0)), (1,), id="swap-in-front"),
    pytest.param(((0, 0.5, 1), (1, _TIE_BELOW, 0)), (-1,), id="swap-behind"),
    pytest.param(((0, 0.5, 0), (1, _TIE_ABOVE, 1)), (), id="return"),
])
def test_keys_tied_at_a_step_start(paths, letters):
    assert motion_to_braid(Motion((0.0, 0.5, 1.0), paths)).letters == letters


def test_keys_tied_at_the_last_sample_lose_sync():
    # Strand 1 ends a hair left of strand 0 in sheared key, within the tie
    # tolerance, so no step crosses and the final order disagrees.
    m = Motion((0.0, 0.5, 1.0), ((0, 0.25, 0.5), (1, 0.75, 0.499 - 1e-13 + 1j)))
    with pytest.raises(TieError, match="lost sync with the final fiber"):
        motion_to_braid(m)
