from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from braidmono import (
    BraidWord,
    Fixture,
    LoopSpec,
    MotionProgram,
    braid_equal,
    braid_images,
    braid_permutation,
    exponent_sum,
    fixture_by_id,
    fixtures,
    motion_to_braid,
    n_tangency_fixture,
    track_loop,
    verify_fixture,
)
from braidmono.errors import CapacityError, CriticalFiberError, MalformedWordError, ParseError
from garside_conjugacy import braid_conjugate

ALL_IDS = [
    "two-tangent-conics",
    "tangent-conics-secant-below",
    "tangent-conics-secant-above",
    "vertical-tangency",
    "triple-tangency",
    "triple-tangency-secant-below",
    "triple-tangency-secant-above",
    "triple-tangency-vertical-line",
    "double-secant",
    "vertical-tangency-line-pair",
    "conic-line-tangency-secant-below",
    "conic-line-tangency-secant-above",
]


def test_catalogue_ids():
    assert [f.fixture_id for f in fixtures()] == ALL_IDS


def test_fixture_lookup():
    f = fixture_by_id("triple-tangency")
    assert f.equation == "y(y+x^2)(y-x^2)"
    assert len(f.model_program.points) == 3
    with pytest.raises(ParseError):
        fixture_by_id("bogus-id")


@pytest.mark.parametrize("fixture_id", ALL_IDS)
def test_a_lookup_builds_only_the_fixture_it_names(monkeypatch, fixture_id):
    built = []
    post_init = Fixture.__post_init__

    def spy(self):
        built.append(self.fixture_id)
        post_init(self)

    monkeypatch.setattr(Fixture, "__post_init__", spy)
    assert fixture_by_id(fixture_id).fixture_id == fixture_id
    assert built == [fixture_id]


def test_fixture_lookup_parses_parametric_ids():
    f = fixture_by_id("n-tangency-4")
    assert len(f.model_program.points) == 4
    assert f.fixture_id == "n-tangency-4"


def test_n_tangency_bounds():
    with pytest.raises(CapacityError):
        n_tangency_fixture(1)
    with pytest.raises(CapacityError):
        n_tangency_fixture(7)


def test_n_tangency_three_matches_triple_tangency_relations():
    parametric = n_tangency_fixture(3)
    catalogued = fixture_by_id("triple-tangency")
    p, q = parametric.expected_relations, catalogued.expected_relations
    assert (p.rank, p.canonical_relator_set()) == (q.rank, q.canonical_relator_set())


def test_fixture_parses_its_curve_once():
    f = fixture_by_id("two-tangent-conics")
    assert f.curve is f.curve
    # A parse error is not kept: each use raises it again.
    bad = dataclasses.replace(f, equation="(y-x)(y-x)")
    for _ in range(2):
        with pytest.raises(CriticalFiberError, match="repeated factor"):
            bad.curve


# The fixtures with complex points over the basepoint, and the radii
# that the benchmark's verify workload draws.
FRAMED_IDS = ["vertical-tangency", "triple-tangency-vertical-line", "vertical-tangency-line-pair"]
BENCH_RADII = [Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4), Fraction(3, 2)]


@pytest.mark.parametrize("fixture_id", FRAMED_IDS)
def test_stated_conjugator_carries_the_tracked_braid_to_the_model(fixture_id):
    f = fixture_by_id(fixture_id)
    model = BraidWord(f.expected_relations.rank, f.model_letters)
    c = BraidWord(model.strands, f.conjugator)
    for r in BENCH_RADII:
        tracked = motion_to_braid(track_loop(f.curve, LoopSpec(radius=r)))
        assert not braid_equal(tracked, model), r
        assert braid_equal(c * tracked * c.inverse(), model), r
        assert braid_conjugate(tracked, model), r


def test_only_the_framed_fixtures_state_a_conjugator():
    todo = fixtures() + [n_tangency_fixture(n) for n in range(2, 7)]
    stated = [f.fixture_id for f in todo if f.conjugator]
    assert stated == [i for i in ALL_IDS if i in FRAMED_IDS]


@pytest.mark.parametrize("letter", [5, -5, 0])
def test_fixture_refuses_a_conjugator_letter_out_of_range(letter):
    f = fixture_by_id("vertical-tangency")  # 5 strands
    with pytest.raises(MalformedWordError, match="letter %d out of range for 5 strands" % letter):
        dataclasses.replace(f, conjugator=(-3, letter))


@pytest.mark.parametrize("letter", [5, -5, 0])
def test_fixture_refuses_a_half_loop_letter_out_of_range(letter):
    f = fixture_by_id("vertical-tangency")  # 5 strands
    with pytest.raises(MalformedWordError, match="letter %d out of range for 5 strands" % letter):
        dataclasses.replace(f, lefschetz_letters=(2, letter))


@pytest.mark.parametrize("letters, error, message", [
    ((2, 0, 4), MalformedWordError, "letter 0 out of range for 5 strands"),
    ((2, -5, 4), ParseError, "vertical-tangency: 6 strands but expected relations have rank 5"),
    ((1, 2, 3), ParseError, "vertical-tangency: 4 strands but expected relations have rank 5"),
])
def test_fixture_reads_its_strand_count_from_the_model_word(letters, error, message):
    f = fixture_by_id("vertical-tangency")
    with pytest.raises(error, match=message):
        dataclasses.replace(f, model_letters=letters)


def test_verify_samples_no_motion_program(monkeypatch):
    # verify_fixture reads the stated words: it builds no program motion.
    sampled = []
    real = MotionProgram.to_motion
    monkeypatch.setattr(MotionProgram, "to_motion", lambda p: sampled.append(p) or real(p))
    for f in fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)]:
        assert verify_fixture(f, radius=Fraction(1)).passed, f.fixture_id
    assert sampled == []


@pytest.mark.parametrize("conjugator, line", [
    ((), "FAIL vertical-tangency tracked-vs-model: tracked braid differs from the model"),
    ((-3, -2), "FAIL vertical-tangency tracked-vs-model: conjugated braid differs from the model"),
])
def test_verify_fails_without_the_right_conjugator(conjugator, line):
    f = dataclasses.replace(fixture_by_id("vertical-tangency"), conjugator=conjugator)
    assert verify_fixture(f).lines()[0] == line


def test_fixture_strand_counts():
    expected = [2, 3, 3, 5, 3, 4, 4, 6, 4, 6, 3, 3]
    assert [len(f.model_program.points) for f in fixtures()] == expected


def test_secant_below_model_images():
    f = fixture_by_id("tangent-conics-secant-below")
    imgs = braid_images(BraidWord(f.expected_relations.rank, f.model_letters))
    assert [list(w.letters) for w in imgs] == [
        [3, 2, 1, -2, -3],
        [3, 2, 1, 3, 2, -3, -1, -2, -3],
        [3, 2, 1, 3, 2, 3, -2, -3, -1, -2, -3],
    ]


def test_triple_tangency_model_images():
    f = fixture_by_id("triple-tangency")
    imgs = braid_images(BraidWord(f.expected_relations.rank, f.model_letters))
    assert [list(w.letters) for w in imgs] == [
        [3, 2, 1, 3, 2, 1, -2, -3, -1, -2, -3],
        [3, 2, 1, 3, 2, 1, 2, -1, -2, -3, -1, -2, -3],
        [3, 2, 1, 3, 2, 1, 3, -1, -2, -3, -1, -2, -3],
    ]


def test_vertical_tangency_tracked_braid(tracked_braid):
    b = tracked_braid("vertical-tangency")
    assert b.letters == (2, 3, 2, 1, 4, 2, 3, 2, 4, 1)
    assert braid_permutation(b).images == (5, 4, 3, 2, 1)


def test_sheared_line_arrangement_tracked_braid(tracked_braid):
    b = tracked_braid("triple-tangency-vertical-line")
    assert b.letters == (3, 4, 2, 1, 2, 3, 4, 5, 4, 2, 3, 2, 4, 5, 4, 3, 2, 1, 2, 4)
    assert braid_permutation(b).images == (1, 6, 4, 3, 5, 2)


def test_exponent_sums_tracked_equals_model(tracked_braid):
    todo = fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)]
    for f in todo:
        tracked = tracked_braid(f.fixture_id)
        model = BraidWord(f.expected_relations.rank, f.model_letters)
        assert exponent_sum(tracked) == exponent_sum(model), f.fixture_id


def test_verify_fixture_reports_checks():
    report = verify_fixture(fixture_by_id("two-tangent-conics"))
    assert report.passed
    names = [c.name for c in report.checks]
    assert "tracked-vs-model" in names
    assert "model-vs-expected" in names
    assert all(line.startswith("pass ") for line in report.lines())


def test_verify_takes_the_model_braids_action_once(monkeypatch):
    # The model presentation and the redundancy checks read one list of raw relators.
    from braidmono import vankampen

    acted = []
    real = vankampen.braid_images
    monkeypatch.setattr(vankampen, "braid_images", lambda b: acted.append(b) or real(b))
    todo = [fixture_by_id(i) for i in ("two-tangent-conics", "vertical-tangency-line-pair")]
    assert all(verify_fixture(f).passed for f in todo)
    assert acted == [BraidWord(f.expected_relations.rank, f.model_letters) for f in todo]


def _spy(monkeypatch, owner, name):
    """The list of calls that owner.name gets from now on."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_one_fixture_checks_its_relations_once_over_many_loops(monkeypatch):
    # The relation checks depend on no loop: one fixture object makes
    # them on its first verify_fixture call only, whatever the radius,
    # also where tracking is refused (radius 2).
    from braidmono import catalog, homcount, vankampen

    radii = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    spies = [_spy(monkeypatch, homcount, "_counts"), _spy(monkeypatch, catalog, "is_consequence"),
             _spy(monkeypatch, vankampen, "braid_images")]
    f = fixture_by_id("tangent-conics-secant-below")
    reports = [verify_fixture(f, radius=radii[0])]
    first = [len(calls) for calls in spies]
    assert all(first)
    reports += [verify_fixture(f, radius=r) for r in radii[1:]]
    assert [len(calls) for calls in spies] == first
    for r, report in zip(radii, reports):
        fresh = verify_fixture(fixture_by_id("tangent-conics-secant-below"), radius=r)
        assert report.lines() == fresh.lines(), r
    assert [report.passed for report in reports] == [True, True, True, False]


def test_one_fixture_derives_its_stated_forms_once_over_many_loops(monkeypatch):
    # verify_fixture compares the tracked and half-loop braids' normal
    # forms with the stated words' forms, which one fixture object derives
    # once: two forms on the first call, none after, and the two tracked
    # forms on every loop that tracks.
    from braidmono import catalog

    forms = _spy(monkeypatch, catalog, "left_normal_form")
    f = fixture_by_id("vertical-tangency")
    radii = [Fraction(1), Fraction(1, 2), Fraction(3, 2)]
    reports = [verify_fixture(f, radius=r) for r in radii]
    assert len(forms) == 2 + 2 * len(radii)
    assert f.stated_forms == (catalog.left_normal_form(BraidWord(5, f.model_letters)),
                              catalog.left_normal_form(BraidWord(5, f.lefschetz_letters)))
    for r, report in zip(radii, reports):
        assert report.passed, r
        assert report.lines() == verify_fixture(fixture_by_id(f.fixture_id), radius=r).lines()


def test_a_failed_relation_check_is_not_kept(monkeypatch):
    from braidmono import homcount

    f = fixture_by_id("two-tangent-conics")

    def refuse(*args):
        raise CapacityError("no count today")

    with monkeypatch.context() as patch:
        patch.setattr(homcount, "_counts", refuse)
        with pytest.raises(CapacityError, match="no count today"):
            verify_fixture(f)
    counted = _spy(monkeypatch, homcount, "_counts")
    assert verify_fixture(f).passed
    assert counted


def test_stated_half_loops_that_double_to_the_model():
    # L * L = c^-1 * M * c for the stated half-loop L, model M and
    # conjugator c: the doubling identity that verify checks on the
    # tracked braids.  Fixture derives its flag from the same words.
    doubled = {}
    for f in fixtures() + [n_tangency_fixture(n) for n in range(2, 7)]:
        n = f.expected_relations.rank
        half, model, c = (BraidWord(n, w) for w in (f.lefschetz_letters, f.model_letters, f.conjugator))
        doubled[f.fixture_id] = braid_equal(half * half, c.inverse() * model * c)
        assert f.lefschetz_doubling == doubled[f.fixture_id], f.fixture_id
    assert len(doubled) == 17
    assert [fid for fid, ok in doubled.items() if ok] == [
        "two-tangent-conics", "vertical-tangency", "triple-tangency", "double-secant",
        *["n-tangency-%d" % n for n in range(2, 7)],
    ]


def test_the_doubling_flag_is_derived_not_passed():
    f = fixture_by_id("two-tangent-conics")
    with pytest.raises(TypeError, match="lefschetz_doubling"):
        Fixture(fixture_id="claimed", equation=f.equation, model_letters=(1,),
                lefschetz_letters=f.lefschetz_letters,
                expected_relations=f.expected_relations, lefschetz_doubling=True)
    assert f.lefschetz_doubling
    assert not dataclasses.replace(f, model_letters=(1,)).lefschetz_doubling


def test_a_replaced_fixture_makes_its_own_relation_checks():
    # dataclasses.replace builds a new object: it keeps no checks of the
    # fixture it copies, so a wrong model still fails.
    f = fixture_by_id("two-tangent-conics")
    assert verify_fixture(f).passed
    wrong = dataclasses.replace(f, fixture_id="wrong-model", model_letters=(1,))
    assert verify_fixture(wrong).lines()[:2] == [
        "FAIL wrong-model tracked-vs-model: tracked braid differs from the model",
        "FAIL wrong-model model-vs-expected: hom counts Inconsistent",
    ]


def test_verify_pins_level_one_and_deletion_checks():
    report = verify_fixture(fixture_by_id("vertical-tangency-line-pair"))
    assert report.lines() == [
        "pass vertical-tangency-line-pair tracked-vs-model: braids are conjugate",
        "pass vertical-tangency-line-pair model-vs-expected: hom counts Consistent",
        "pass vertical-tangency-line-pair redundancy-6: relation 6 Derivable from the others",
        "pass vertical-tangency-line-pair deletion-x2: hom counts Consistent",
        "pass vertical-tangency-line-pair deletion-x3: hom counts Consistent",
        "pass vertical-tangency-line-pair lefschetz-program: half-loop braid matches the program",
    ]


def test_verify_reports_both_tracking_failures():
    # At radius 2 the basepoint x = 2 lies under a point where the secant
    # meets a conic, so the one walk of the full loop is refused there, and
    # both tracked checks report that refusal.
    report = verify_fixture(fixture_by_id("tangent-conics-secant-below"), radius=Fraction(2))
    assert not report.passed
    assert report.lines() == [
        "FAIL tangent-conics-secant-below tracked-vs-model: tracking failed: "
        "fiber over x=(2+0j) has nearly coincident roots (separation 0.000e+00)",
        "pass tangent-conics-secant-below model-vs-expected: hom counts Consistent",
        "pass tangent-conics-secant-below redundancy-3: relation 3 Derivable from the others",
        "FAIL tangent-conics-secant-below lefschetz: tracking failed: "
        "fiber over x=(2+0j) has nearly coincident roots (separation 0.000e+00)",
    ]


def _fixture_with_model(fixture_id, like, model_letters, conjugator=()):
    """A fixture with the curve and expectations of `like`, its own model
    word and its own conjugator."""
    base = fixture_by_id(like)
    return Fixture(
        fixture_id=fixture_id,
        equation=base.equation,
        shear=base.shear,
        model_letters=model_letters,
        lefschetz_letters=base.lefschetz_letters,
        expected_relations=base.expected_relations,
        redundancy_claims=(),
        deletion_checks=(),
        conjugator=conjugator,
    )


def test_verify_reports_a_wrong_model_program():
    # A single half twist is not the monodromy of two tangent conics, and
    # the stated half-loop does not square to it, so no doubling is checked.
    report = verify_fixture(_fixture_with_model("wrong-model", "two-tangent-conics", (1,)))
    assert report.lines() == [
        "FAIL wrong-model tracked-vs-model: tracked braid differs from the model",
        "FAIL wrong-model model-vs-expected: hom counts Inconsistent",
        "pass wrong-model lefschetz-program: half-loop braid matches the program",
    ]


def test_verify_accepts_a_conjugate_model_program():
    # The catalogue model of the secant-below fixture, conjugated by s1:
    # s1 tracked s1^-1 is the model.
    conjugate = (1, 2, 2, 2, 2, 1, 2, 2, 1, -1)
    report = verify_fixture(
        _fixture_with_model("conjugate-model", "tangent-conics-secant-below", conjugate, (1,))
    )
    assert report.passed
    assert report.lines()[0] == "pass conjugate-model tracked-vs-model: braids are conjugate"
