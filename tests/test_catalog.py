from __future__ import annotations

import pytest

from braidmono import (
    braid_images,
    braid_permutation,
    exponent_sum,
    fixture_by_id,
    fixtures,
    n_tangency_fixture,
    verify_fixture,
)
from braidmono.errors import CapacityError, ParseError

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
    assert f.strands == 3
    with pytest.raises(ParseError):
        fixture_by_id("bogus-id")


def test_fixture_lookup_parses_parametric_ids():
    f = fixture_by_id("n-tangency-4")
    assert f.strands == 4
    assert f.fixture_id == "n-tangency-4"


def test_n_tangency_bounds():
    with pytest.raises(CapacityError):
        n_tangency_fixture(1)
    with pytest.raises(CapacityError):
        n_tangency_fixture(7)


def test_n_tangency_three_matches_triple_tangency_relations():
    parametric = n_tangency_fixture(3)
    catalogued = fixture_by_id("triple-tangency")
    assert parametric.expected_relations.same_relators(catalogued.expected_relations)


def test_fixture_strand_counts():
    expected = [2, 3, 3, 5, 3, 4, 4, 6, 4, 6, 3, 3]
    assert [f.strands for f in fixtures()] == expected


def test_complex_levels():
    levels = {f.fixture_id: f.complex_level for f in fixtures()}
    assert levels["vertical-tangency"] == 2
    assert levels["triple-tangency-vertical-line"] == 2
    assert levels["vertical-tangency-line-pair"] == 2
    assert levels["two-tangent-conics"] == 0


def test_secant_below_model_images():
    f = fixture_by_id("tangent-conics-secant-below")
    imgs = braid_images(f.model_program.braid())
    assert [list(w.letters) for w in imgs] == [
        [3, 2, 1, -2, -3],
        [3, 2, 1, 3, 2, -3, -1, -2, -3],
        [3, 2, 1, 3, 2, 3, -2, -3, -1, -2, -3],
    ]


def test_triple_tangency_model_images():
    f = fixture_by_id("triple-tangency")
    imgs = braid_images(f.model_program.braid())
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
        model = f.model_program.braid()
        assert exponent_sum(tracked) == exponent_sum(model), f.fixture_id


def test_verify_fixture_reports_checks():
    report = verify_fixture(fixture_by_id("two-tangent-conics"))
    assert report.passed
    names = [c.name for c in report.checks]
    assert "tracked-vs-model" in names
    assert "model-vs-expected" in names
    assert all(line.startswith("pass ") for line in report.lines())
