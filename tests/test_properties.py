from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidmono import (
    BraidWord,
    FreeWord,
    LoopSpec,
    Presentation,
    Verdict,
    artin_action,
    braid_equal,
    braid_permutation,
    canonical_relator,
    count_homomorphisms,
    default_targets,
    exponent_sum,
    is_consequence,
    motion_to_braid,
    parse_curve,
    track_loop,
)
from braidmono.errors import CapacityError
from braidmono.presentations import witness


def _rand_word(rng: random.Random, rank: int, length: int) -> FreeWord:
    letters = []
    while len(letters) < length:
        a = rng.choice([k for k in range(-rank, rank + 1) if k != 0])
        if letters and letters[-1] == -a:
            continue
        letters.append(a)
    return FreeWord(rank, tuple(letters))


@st.composite
def _braid_pair_and_word(draw):
    n = draw(st.integers(2, 5))
    letter = st.integers(-(n - 1), n - 1).filter(lambda a: a != 0)
    a = draw(st.lists(letter, max_size=5))
    b = draw(st.lists(letter, max_size=5))
    w = draw(st.lists(st.integers(-n, n).filter(lambda a: a != 0), max_size=6))
    return BraidWord(n, tuple(a)), BraidWord(n, tuple(b)), FreeWord(n, tuple(w))


def _image_or_capacity(act):
    try:
        return act()
    except CapacityError:
        return CapacityError


@settings(max_examples=200, deadline=None)
@given(_braid_pair_and_word())
@example((BraidWord(4, (-1, 2, 2, -1, 2)), BraidWord(4, (-1, 2, -3, 2, 1)),
          FreeWord(4, (3, 1, 3))))
def test_action_composes_along_concatenation(data):
    # Both sides substitute the same letters into the same intermediate
    # words, so they pass MAX_IMAGE_LETTERS together, as the example does.
    a, b, w = data
    assert (_image_or_capacity(lambda: artin_action(a * b, w))
            == _image_or_capacity(lambda: artin_action(b, artin_action(a, w))))


@settings(max_examples=200, deadline=None)
@given(_braid_pair_and_word())
def test_permutation_is_a_braid_invariant(data):
    a, b, _ = data
    assert braid_permutation(a * b) == braid_permutation(a) * braid_permutation(b)
    assert braid_permutation(a.inverse()) == braid_permutation(a).inverse()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3).filter(lambda a: a != 0), max_size=12))
def test_free_words_stay_reduced(letters):
    w = FreeWord(3, tuple(letters))
    assert all(x != -y for x, y in zip(w.letters, w.letters[1:]))
    assert not (w * w.inverse()).letters


def test_relation_moves_preserve_braid_equality():
    rng = random.Random(4244)
    for _ in range(300):
        n = rng.randint(3, 6)
        letters = [
            rng.choice([-1, 1]) * rng.randint(1, n - 1)
            for _ in range(rng.randint(0, 12))
        ]
        b = BraidWord(n, tuple(letters))
        mutated = list(letters)
        k = rng.randint(0, len(mutated))
        i = rng.randint(1, n - 2)
        mutated[k:k] = [i, i + 1, i, -i, -(i + 1), -i]
        c = BraidWord(n, tuple(mutated))
        assert exponent_sum(b) == exponent_sum(c)
        assert braid_equal(b, c)


def test_canonical_relator_is_conjugation_invariant():
    rng = random.Random(4245)
    for _ in range(300):
        rank = rng.randint(2, 4)
        w = _rand_word(rng, rank, rng.randint(1, 8))
        u = _rand_word(rng, rank, rng.randint(0, 4))
        assert canonical_relator(w.conjugate(u)) == canonical_relator(w)
        assert canonical_relator(w.inverse()) == canonical_relator(w)


def test_constructed_consequences_are_derivable():
    rng = random.Random(4242)
    for _ in range(300):
        rank = rng.randint(2, 3)
        rels = [
            _rand_word(rng, rank, rng.randint(2, 5))
            for _ in range(rng.randint(1, 2))
        ]
        word = FreeWord(rank)
        for _ in range(rng.randint(1, 3)):
            r = rng.choice(rels)
            if rng.random() < 0.5:
                r = r.inverse()
            word = word * r.conjugate(_rand_word(rng, rank, rng.randint(0, 2)))
        assert is_consequence(rels, word) is Verdict.DERIVABLE


def test_consequences_never_get_a_witness():
    # Soundness of Independent: a product of conjugates of the relators
    # dies under every homomorphism that kills the relators, so no group
    # may tell it apart.  Longer conjugators than above, so the search
    # need not find the derivation; the verdict is never Independent.
    rng = random.Random(4246)
    for _ in range(200):
        rank = rng.randint(2, 4)
        rels = [
            _rand_word(rng, rank, rng.randint(1, 6))
            for _ in range(rng.randint(1, 3))
        ]
        word = FreeWord(rank)
        for _ in range(rng.randint(1, 4)):
            r = rng.choice(rels)
            if rng.random() < 0.5:
                r = r.inverse()
            word = word * r.conjugate(_rand_word(rng, rank, rng.randint(0, 6)))
        verdict = is_consequence(rels, word, budget=200)
        assert verdict is not Verdict.INDEPENDENT, witness(
            Presentation(rank, tuple(rels)), word, default_targets()
        )


def test_relabelling_generators_preserves_hom_counts():
    rng = random.Random(4243)
    targets = default_targets()[:5]
    for _ in range(200):
        rank = rng.randint(2, 3)
        rels = tuple(
            _rand_word(rng, rank, rng.randint(1, 6))
            for _ in range(rng.randint(1, 2))
        )
        perm = list(range(1, rank + 1))
        rng.shuffle(perm)

        def relabel(a: int) -> int:
            return perm[abs(a) - 1] if a > 0 else -perm[abs(a) - 1]

        p = Presentation(rank, rels)
        q = Presentation(
            rank,
            tuple(FreeWord(rank, tuple(relabel(a) for a in r.letters)) for r in rels),
        )
        for _, g in targets:
            assert count_homomorphisms(p, g) == count_homomorphisms(q, g)


def test_tracking_radius_independence():
    curve = parse_curve("(y+x^2)(y-x^2)")
    for radius in (Fraction(1, 2), Fraction(1), Fraction(2)):
        b = motion_to_braid(track_loop(curve, LoopSpec(0j, radius)))
        assert b.letters == (1, 1, 1, 1), radius
