from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from braidmono import (
    Encircle,
    FrameIn,
    FrameOut,
    Motion,
    MotionProgram,
    RotateBlock,
    compose_motions,
    motion_to_braid,
)
from braidmono.errors import DegenerateMotionError, GeometryError, TieError
from braidmono.motion import nearest_match


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
