"""Garside normal forms, braid equality and the conjugacy oracle.

The reference for equality is the faithful Artin action: two braids are
equal iff they send every free generator to the same word.  The oracle
braid_conjugate of garside_conjugacy is checked on conjugates built by
hand, on fixed pairs that reach the closure of the super summit set
(each with its proof: a conjugator, or a hom count that differs, since
conjugate braids induce isomorphic groups), and on the tracked braids
of the catalogue.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import braidmono.words as words
import garside_conjugacy as conjugacy
from braidmono import (
    BraidWord,
    CapacityError,
    DimensionMismatchError,
    FreeWord,
    LoopSpec,
    artin_action,
    braid_equal,
    count_homomorphisms,
    default_targets,
    fixtures,
    induced_presentation,
    motion_to_braid,
    n_tangency_fixture,
    track_loop,
)
from braidmono.words import left_normal_form
from garside_conjugacy import braid_conjugate


def _artin_equal(a: BraidWord, b: BraidWord) -> bool:
    n = a.strands
    return all(
        artin_action(a, FreeWord.generator(n, k)) == artin_action(b, FreeWord.generator(n, k))
        for k in range(1, n + 1)
    )


def _random_braid(rng: random.Random, n: int, length: int) -> BraidWord:
    return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)))


def _rewrite(rng: random.Random, b: BraidWord) -> BraidWord:
    """b with relations of the braid group inserted at random places."""
    n, letters = b.strands, list(b.letters)
    for _ in range(4):
        k, i, j = rng.randrange(len(letters) + 1), rng.randint(1, n - 1), rng.randint(1, n - 1)
        if abs(i - j) == 1:
            insert = [i, j, i, -j, -i, -j]
        elif abs(i - j) > 1:
            insert = [i, j, -i, -j]
        else:
            insert = [i, -i] if rng.random() < 0.5 else [-i, i]
        letters[k:k] = insert
    return BraidWord(n, tuple(letters))


@pytest.mark.parametrize("n", range(2, 8))
def test_braid_equal_agrees_with_the_artin_action(n):
    rng = random.Random(20261018 + n)
    equal = 0
    for t in range(150):
        a = _random_braid(rng, n, rng.randint(0, 9))
        b = _rewrite(rng, a) if t % 2 else _random_braid(rng, n, rng.randint(0, 9))
        expected = _artin_equal(a, b)
        assert braid_equal(a, b) == expected, (a.letters, b.letters)
        equal += expected
    assert equal >= 75


@pytest.mark.parametrize("n", range(2, 8))
def test_normal_forms_are_left_weighted(n):
    rng = random.Random(n)
    delta, identity = tuple(range(n - 1, -1, -1)), tuple(range(n))
    for _ in range(100):
        p, factors = left_normal_form(_random_braid(rng, n, rng.randint(0, 12)))
        assert delta not in factors and identity not in factors
        for a, b in zip(factors, factors[1:]):
            assert words._left_weight(a, b) == (a, b)


def test_normal_form_of_delta_and_its_inverse():
    half_twist = BraidWord(4, (1, 2, 1, 3, 2, 1))
    assert left_normal_form(half_twist) == (1, ())
    assert left_normal_form(half_twist.inverse()) == (-1, ())
    assert left_normal_form(BraidWord(4, (-1,))) == (-1, ((3, 2, 0, 1),))


@pytest.mark.parametrize("k", [8, 10, 12])
def test_pseudo_anosov_word_with_a_cancelling_pair(k):
    w = BraidWord(3, (1, -2)) ** k
    assert braid_equal(w, w * BraidWord(3, (1, -1)))
    assert not braid_equal(w, w * BraidWord(3, (1,)))


def test_braid_conjugate_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        braid_conjugate(BraidWord(2, (1,)), BraidWord(3, (1,)))


@pytest.mark.parametrize("n", range(2, 7))
def test_conjugates_are_conjugate(n):
    rng = random.Random(100 + n)
    for _ in range(40):
        w = _random_braid(rng, n, rng.randint(0, 8))
        c = _random_braid(rng, n, rng.randint(0, 5))
        assert braid_conjugate(c * w * c.inverse(), w), (c.letters, w.letters)


def test_different_summit_bounds_prove_non_conjugacy():
    # s1 and s1^4 differ in sup; s1 s2 and s1 s2^-1 in inf.
    assert not braid_conjugate(BraidWord(2, (1,)), BraidWord(2, (1, 1, 1, 1)))
    assert not braid_conjugate(BraidWord(3, (1, 2)), BraidWord(3, (1, -2)))


# Pairs with equal exponent sum and permutation, equal inf_s and sup_s
# and disjoint cycling orbits, found by a seeded search over B3 and B4
# words of 2-7 letters.  Conjugate pairs come with a conjugator c,
# c^-1 a c = b; the others with a group of default_targets() over which
# the induced presentations have different hom counts.
CONJUGATE_BY = [
    (4, (-1, 2, -2, -2, -2, -1), (-1, -1, -2, -2), (1,)),
    (3, (-1, 2, 2, 1, 2, -2), (2, 2, -1, 1), (-1,)),
    (4, (2, 2), (-3, 1, 3, 1), (1, 2)),
    (3, (1, -2, 1, 2), (2, 1), (1, 1)),
    (4, (-2, 3, 1, -1), (-3, 2, 3, -2), (-2, -2)),
    (3, (2, 1), (1, 1, 2, -1), (1, 2)),
    (4, (2, -1), (-2, 1), (-1, -2)),
    (4, (3, -2, -2, 3), (-2, 3, -1, 1, 3, -2), (3, -2)),
]
NOT_CONJUGATE_BY_COUNT = [
    (3, (1, 1, -2, 1, -2), (-2, 1, -2, -1, 2, 2, 1), "D4"),
    (3, (2, -1, 2, 2, -1, -2, 2), (1, -1, 2, -1, -1, 2, 2), "D4"),
    (4, (-2, -2, 1, 1), (-1, -3, 1, 1, 1, -3), "S3"),
]


@pytest.fixture
def closure_calls(monkeypatch):
    calls = []
    inner = conjugacy._closure_meets

    def spy(*args):
        calls.append(inner(*args))
        return calls[-1]

    monkeypatch.setattr(conjugacy, "_closure_meets", spy)
    return calls


@pytest.mark.parametrize("n, a, b, c", CONJUGATE_BY)
def test_closure_finds_a_conjugacy(closure_calls, n, a, b, c):
    a, b, c = BraidWord(n, a), BraidWord(n, b), BraidWord(n, c)
    assert _artin_equal(c.inverse() * a * c, b)
    assert braid_conjugate(a, b)
    assert closure_calls == [True]


@pytest.mark.parametrize("n, a, b, group", NOT_CONJUGATE_BY_COUNT)
def test_closure_proves_non_conjugacy(closure_calls, n, a, b, group):
    a, b = BraidWord(n, a), BraidWord(n, b)
    table = dict(default_targets())[group]
    assert count_homomorphisms(induced_presentation(a), table) != count_homomorphisms(
        induced_presentation(b), table)
    assert not braid_conjugate(a, b)
    assert closure_calls == [False]


def test_closure_beyond_its_strand_bound_raises():
    # s6^2 and s5^2 in B7 are conjugate, but only the closure can tell.
    with pytest.raises(CapacityError, match="at most 6 strands"):
        braid_conjugate(BraidWord(7, (6, 6)), BraidWord(7, (5, 5)))


def test_closure_beyond_its_size_bound_raises(monkeypatch):
    monkeypatch.setattr(conjugacy, "MAX_SUPER_SUMMIT", 1)
    n, a, b, group = NOT_CONJUGATE_BY_COUNT[0]
    with pytest.raises(CapacityError, match="more than 1 braids"):
        braid_conjugate(BraidWord(n, a), BraidWord(n, b))


def test_catalogue_tracked_braids_never_need_the_closure(monkeypatch):
    # Every fixture of `verify all` at every radius the benchmark draws.
    def refuse(*args):
        raise AssertionError("closure reached")

    monkeypatch.setattr(conjugacy, "_closure_meets", refuse)
    todo = fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)]
    for f in todo:
        model = BraidWord(f.expected_relations.rank, f.model_letters)
        for r in (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4), Fraction(3, 2)):
            tracked = motion_to_braid(track_loop(f.curve, LoopSpec(radius=r)))
            assert braid_conjugate(tracked, model), (f.fixture_id, r)


def test_reversed_tracked_braid_is_conjugate(tracked_braid):
    # Reading a monodromy braid backwards gives a conjugate braid; on
    # two fixtures it is not the same braid.
    only_conjugate = []
    for f in fixtures():
        b = tracked_braid(f.fixture_id)
        reversed_b = BraidWord(b.strands, b.letters[::-1])
        assert braid_conjugate(reversed_b, b), f.fixture_id
        if not braid_equal(reversed_b, b):
            only_conjugate.append(f.fixture_id)
    assert only_conjugate == ["triple-tangency-vertical-line", "vertical-tangency-line-pair"]
