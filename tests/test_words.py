from __future__ import annotations

import random

import pytest

from braidmono import (
    BraidWord,
    FreeWord,
    Permutation,
    artin_action,
    braid_equal,
    braid_permutation,
    exponent_sum,
)
from braidmono.errors import CapacityError, DimensionMismatchError, MalformedWordError
from braidmono.words import MAX_IMAGE_LETTERS, donors, invert, reduce_onto


def test_free_word_reduces_on_construction():
    w = FreeWord(3, (1, 2, -2, -1, 3))
    assert w.letters == (3,)


def test_free_word_rejects_bad_letters():
    with pytest.raises(MalformedWordError):
        FreeWord(2, (0,))
    with pytest.raises(MalformedWordError):
        FreeWord(2, (3,))
    with pytest.raises(MalformedWordError):
        FreeWord(0)


def test_free_word_group_operations():
    w = FreeWord(2, (1, 2))
    assert not (w * w.inverse()).letters
    assert w.inverse().letters == (-2, -1)
    assert w.conjugate(FreeWord(2, (2,))).letters == (2, 1)
    assert not FreeWord(2, (1, -1)).letters


def test_word_rank_mismatch():
    with pytest.raises(DimensionMismatchError):
        FreeWord(2, (1,)) * FreeWord(3, (1,))


def test_braid_word_keeps_letters_verbatim():
    b = BraidWord(3, (1, -1))
    assert b.letters == (1, -1)
    assert braid_equal(b, BraidWord.identity(3))


def test_braid_word_range_checks():
    with pytest.raises(MalformedWordError):
        BraidWord(2, (2,))
    with pytest.raises(MalformedWordError):
        BraidWord(3, (0,))


def test_braid_power_and_inverse():
    b = BraidWord(3, (1, 2))
    assert (b ** 2).letters == (1, 2, 1, 2)
    assert (b ** -1).letters == (-2, -1)
    assert braid_equal(b * b.inverse(), BraidWord.identity(3))


def test_positive_generator_substitution():
    s1 = BraidWord(2, (1,))
    assert artin_action(s1, FreeWord.generator(2, 1)).letters == (2,)
    assert artin_action(s1, FreeWord.generator(2, 2)).letters == (2, 1, -2)


def test_negative_generator_substitution():
    s1inv = BraidWord(2, (-1,))
    assert artin_action(s1inv, FreeWord.generator(2, 2)).letters == (1,)
    assert artin_action(s1inv, FreeWord.generator(2, 1)).letters == (-1, 2, 1)


def test_action_composes_left_to_right():
    a = BraidWord(3, (1,))
    b = BraidWord(3, (2,))
    w = FreeWord(3, (1, 2, 3))
    assert artin_action(a * b, w) == artin_action(b, artin_action(a, w))


def test_action_fixes_descending_product():
    b = BraidWord(4, (1, 3, -2, 1, 2, 2, -3))
    w = FreeWord(4, (4, 3, 2, 1))
    assert artin_action(b, w) == w


def test_action_inverse_roundtrip():
    b = BraidWord(4, (1, 3, -2, 2, 1))
    w = FreeWord(4, (2, -3, 1, 4))
    assert artin_action(b * b.inverse(), w) == w


def test_action_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        artin_action(BraidWord(3, (1,)), FreeWord(2, (1,)))


def test_action_stops_at_the_image_limit():
    # x2's image under s1^n has 2n + 1 letters: 499 for n = 249, and 501,
    # over the limit, for n = 250.
    x2 = FreeWord.generator(2, 2)
    assert MAX_IMAGE_LETTERS == 500
    assert len(artin_action(BraidWord(2, (1,) * 249), x2)) == 499
    with pytest.raises(CapacityError, match="more than 500 letters"):
        artin_action(BraidWord(2, (1,) * 250), x2)
    # Each s1 s2^-1 multiplies the length by about 2.6; without the limit
    # 15 of them would build a 7,049,153-letter image.
    with pytest.raises(CapacityError):
        artin_action(BraidWord(3, (1, -2) * 15), FreeWord.generator(3, 2))


def test_braid_relations():
    assert braid_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert braid_equal(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))
    assert not braid_equal(BraidWord(3, (1,)), BraidWord(3, (2,)))


def test_full_twist_word_identity():
    # On three strands (s1 s2)^3 equals s1^2 s2 s1^2 s2.
    lhs = BraidWord(3, (1, 2)) ** 3
    rhs = BraidWord(3, (1, 1, 2, 1, 1, 2))
    assert braid_equal(lhs, rhs)


def test_full_twist_is_central_conjugation():
    # The full twist acts by conjugation with the descending product.
    n = 3
    delta2 = BraidWord(n, (1, 2)) ** n
    c = FreeWord(n, (3, 2, 1))
    for k in range(1, n + 1):
        x = FreeWord.generator(n, k)
        assert artin_action(delta2, x) == x.conjugate(c)


def test_braid_equal_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        braid_equal(BraidWord(2, (1,)), BraidWord(3, (1,)))


def test_permutation_validation():
    with pytest.raises(MalformedWordError):
        Permutation((1, 1))
    assert Permutation.identity(3).images == (1, 2, 3)


def test_permutation_composition_order():
    p = Permutation((2, 1, 3))
    q = Permutation((1, 3, 2))
    assert (p * q).images == (3, 1, 2)
    assert (p * q)(1) == q(p(1))
    assert (p * p.inverse()).images == (1, 2, 3)


def test_braid_permutation_matches_strand_motion():
    b = BraidWord(3, (1, 2))
    assert braid_permutation(b).images == (3, 1, 2)
    assert braid_permutation(b.inverse()) == braid_permutation(b).inverse()


def test_exponent_sum_counts_signs():
    assert exponent_sum(BraidWord(3, (1, 2, -1, -1))) == 0
    assert exponent_sum(BraidWord(2, (1, 1, 1, 1))) == 4



def _reference_donors(rank, rels):
    """The donor search as it was: one scan of the relator per generator."""
    for k, r in enumerate(rels):
        for g in range(1, rank + 1):
            hits = [i for i, a in enumerate(r) if abs(a) == g]
            if len(hits) == 1:
                u, s, v = r[: hits[0]], r[hits[0]], r[hits[0] + 1 :]
                vu = tuple(reduce_onto(list(v), u))
                expr = vu if s < 0 else invert(vu)
                yield k, g, {g: expr, -g: invert(expr)}


@pytest.mark.parametrize("seed", [460, 4601])
def test_donors_as_the_reference_scan_finds_them(seed):
    rng = random.Random(seed)
    found = 0
    for _ in range(400):
        rank = rng.randint(1, 6)
        rels = [tuple(rng.choice([1, -1]) * rng.randint(1, rank)
                      for _ in range(rng.randint(0, 3 * rank)))
                for _ in range(rng.randint(0, 5))]
        got = list(donors(rank, rels))
        assert got == list(_reference_donors(rank, rels)), rels
        found += len(got)
    assert found > 400
