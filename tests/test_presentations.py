from __future__ import annotations

import random

import pytest

from braidmono import (
    FreeWord,
    Presentation,
    Verdict,
    canonical_relator,
    count_homomorphisms,
    default_targets,
    is_consequence,
    kill_generator,
    simplify,
)
from braidmono import presentations
from braidmono.errors import DimensionMismatchError
from braidmono.presentations import _least_rotation, witness


def _w(rank, *letters):
    return FreeWord(rank, tuple(letters))


TARGETS = default_targets()


def _commutator(u, v):
    return u * v * u.inverse() * v.inverse()


# [[[a,b],[a,b^-1]], [[a^-1,b],[a^-1,b^-1]]] in a = x1, b = x2: 64
# letters in the third derived subgroup of the free group, so every
# solvable group of derived length at most 3, the whole battery of
# default_targets() included, kills it.  No finite quotient there can
# prove it independent of anything.
_A, _B = _w(2, 1), _w(2, 2)
_DEEP_COMMUTATOR = _commutator(
    _commutator(_commutator(_A, _B), _commutator(_A, _B.inverse())),
    _commutator(
        _commutator(_A.inverse(), _B), _commutator(_A.inverse(), _B.inverse())
    ),
)
# Its first factor lies in the second derived subgroup: only S4, of
# derived length 3, tells it from the identity.
_SECOND_DERIVED = _commutator(_commutator(_A, _B), _commutator(_A, _B.inverse()))


def test_canonical_relator_cyclic_reduction():
    # Lex-min over rotations of the word and its inverse; negative
    # letters sort first, so a bare generator canonicalises inverted.
    assert canonical_relator(_w(2, 2, 1, -2)).letters == (-1,)
    assert canonical_relator(_w(2, 1, -1)).letters == ()


def test_canonical_relator_identifies_conjugates_and_inverses():
    r = _w(3, 1, 2, -1, -2)
    assert canonical_relator(r) == canonical_relator(r.conjugate(_w(3, 3, 1)))
    assert canonical_relator(r) == canonical_relator(r.inverse())
    assert canonical_relator(r) != canonical_relator(_w(3, 1, 3, -1, -3))


def _all_rotations(letters):
    return [letters[k:] + letters[:k] for k in range(len(letters))]


def _inverse(letters):
    return tuple(-a for a in reversed(letters))


def _brute_canonical(letters):
    return min(_all_rotations(letters) + _all_rotations(_inverse(letters)))


def _random_cyclic_word(rng, rank, length):
    """A freely and cyclically reduced word with `length` letters."""
    gens = [a for g in range(1, rank + 1) for a in (g, -g)]
    while True:
        w = []
        while len(w) < length:
            a = rng.choice(gens)
            if not w or a != -w[-1]:
                w.append(a)
        if length < 2 or w[0] != -w[-1]:
            return tuple(w)


@pytest.mark.parametrize("letters", [
    pytest.param((1,), id="single-letter"),
    pytest.param((-3,), id="single-inverse-letter"),
    pytest.param((1,) * 7, id="constant"),
    pytest.param((1, 2) * 4, id="periodic-1-2"),
    pytest.param((-1, 2, -1, 2), id="periodic-inverse-letters"),
    pytest.param((2, 1, 2, 1, 1), id="smallest-letter-repeated"),
])
def test_least_rotation_explicit_cases(letters):
    assert _least_rotation(letters) == min(_all_rotations(letters))
    w = FreeWord(3, letters)
    assert canonical_relator(w).letters == _brute_canonical(letters)


def test_canonical_relator_can_come_from_the_inverse():
    letters = (1, 2, 1, -2)
    canon = canonical_relator(FreeWord(2, letters)).letters
    assert canon == (-2, -1, 2, -1)
    assert canon not in _all_rotations(letters)
    assert canon in _all_rotations(_inverse(letters))


def test_least_rotation_and_canonical_relator_match_brute_force():
    rng = random.Random(20261018)
    for _ in range(600):
        rank = rng.randint(1, 4)
        letters = _random_cyclic_word(rng, rank, rng.randint(1, 30))
        assert _least_rotation(letters) == min(_all_rotations(letters))
        w = FreeWord(rank, letters)
        assert canonical_relator(w).letters == _brute_canonical(letters)
        # A conjugate is no longer cyclically reduced; it canonicalises
        # to the same word.
        u = FreeWord(rank, _random_cyclic_word(rng, rank, rng.randint(1, 5)))
        assert canonical_relator(w.conjugate(u)).letters == _brute_canonical(letters)


def test_presentation_relator_set_drops_trivial():
    p = Presentation(2, (_w(2, 1, -1), _w(2, 2, 1, -2)))
    assert p.canonical_relator_set() == frozenset({(-1,)})
    assert str(p) == "< x1, x2 | x2 x1 x2^-1 >"


def test_presentation_keeps_only_nontrivial_relators_in_order():
    # Trivial as a FreeWord, and as tuples that freely reduce to 1.
    p = Presentation(3, (_w(3, 2, 3), FreeWord(3, ()), (1, -1), _w(3, -1),
                         (2, 3, -3, -2), (), (3, 3)))
    assert [r.letters for r in p.relators] == [(2, 3), (-1,), (3, 3)]
    assert all(isinstance(r, FreeWord) for r in p.relators)


def test_a_trivial_relator_changes_neither_equality_nor_hom_counts():
    w = _w(2, 1, 2, -1, -2)
    p = Presentation(2, (w, FreeWord(2, ())))
    assert p == Presentation(2, (w,))
    # The counts plan on the relators as given, and a plan needs each non-empty.
    loose = Presentation(2, (w.letters, (1, 2, -2, -1)))
    bare, with_p, with_loose = ([count_homomorphisms(q, g) for _, g in TARGETS]
                                for q in (Presentation(2, (w,)), p, loose))
    assert bare == with_p == with_loose


def test_same_relators_up_to_conjugacy():
    p = Presentation(2, (_w(2, 1, 2),))
    q = Presentation(2, (_w(2, -2, -1),))
    assert p.canonical_relator_set() == q.canonical_relator_set()
    r = Presentation(2, (_w(2, 1),))
    assert p.canonical_relator_set() != r.canonical_relator_set()


def test_relator_rank_check():
    with pytest.raises(DimensionMismatchError):
        Presentation(2, (_w(3, 1),))


def test_consequence_trivial_cases():
    rels = [_w(2, 1, 1, 1)]
    assert is_consequence(rels, _w(2)) is Verdict.DERIVABLE
    assert is_consequence(rels, _w(2, 1, 1, 1)) is Verdict.DERIVABLE
    assert is_consequence(rels, _w(2, -1, -1, -1)) is Verdict.DERIVABLE


def test_consequence_conjugate_and_product():
    r = _w(2, 1, 1, 1)
    assert is_consequence([r], r.conjugate(_w(2, 2, -1))) is Verdict.DERIVABLE
    assert is_consequence([r], _w(2, 1, 1, 1, 1, 1, 1)) is Verdict.DERIVABLE


def test_consequence_across_two_relators():
    rels = [_w(2, 1, 1), _w(2, 2, 2)]
    word = _w(2, 1, 1, 2, 2)
    assert is_consequence(rels, word) is Verdict.DERIVABLE


def test_non_consequence_is_unknown():
    # Nontrivial in the free group, but no battery group tells.
    assert len(_DEEP_COMMUTATOR) == 64
    assert witness(Presentation(2, ()), _DEEP_COMMUTATOR, TARGETS) is None
    assert is_consequence([], _DEEP_COMMUTATOR) is Verdict.UNKNOWN


def test_consequence_respects_budget():
    rels = [_w(2, 1, 1, 1)]
    assert is_consequence(rels, _DEEP_COMMUTATOR, budget=50) is Verdict.UNKNOWN


def test_witness_proves_independence():
    cases = [
        ([_w(2, 1, 1)], _w(2, 2), "C2"),
        ([], _w(2, 1), "C2"),
        ([_w(2, 1, 1, 1)], _w(2, 2, 1, 2, 1), "C3"),
        # x1 and x2 commute in S3's cyclic quotients but not in S3.
        ([], _commutator(_A, _B), "S3"),
        # Tried only after the search runs out.
        ([], _SECOND_DERIVED, "S4"),
        ([_w(2, 1, 1, 1)], _SECOND_DERIVED, "S4"),
    ]
    for rels, word, name in cases:
        assert witness(Presentation(2, tuple(rels)), word, TARGETS) == name
        assert is_consequence(rels, word) is Verdict.INDEPENDENT


def test_consequences_have_no_witness():
    rels = [_w(2, 1, 1), _w(2, 2, 2)]
    assert witness(Presentation(2, tuple(rels)), _w(2, 1, 1, 2, 2), TARGETS) is None
    assert witness(Presentation(2, ()), _w(2), TARGETS) is None


def test_consequence_rank_check():
    # The relators and the word must live in one free group.
    with pytest.raises(DimensionMismatchError):
        is_consequence([_w(2, 1, 1)], _w(3, 1, 1))
    with pytest.raises(DimensionMismatchError):
        is_consequence([_w(2, 1, 1)], _w(3, 3))
    with pytest.raises(DimensionMismatchError):
        is_consequence([_w(2, 1, 1)], _w(3))


def test_simplify_drops_duplicates_and_trivial():
    r = _w(2, 1, 2, 1, -2)
    result = simplify(Presentation(2, (r, r.conjugate(_w(2, 2)), _w(2, 1, -1))))
    assert result.presentation.canonical_relator_set() == frozenset(
        {canonical_relator(r).letters}
    )
    assert not result.truncated


def test_simplify_runs_euclid_on_powers():
    p = Presentation(1, (_w(1, 1, 1, 1, 1), _w(1, 1, 1, 1)))
    result = simplify(p)
    assert result.presentation.canonical_relator_set() == frozenset({(-1,)})


def test_simplify_substitutes_pinned_generator():
    p = Presentation(2, (_w(2, 2, 1), _w(2, 2, 2, 1, 1, 1)))
    result = simplify(p)
    assert result.presentation.canonical_relator_set() == frozenset({(-1,), (-2,)})


def test_simplify_keeps_generator_count():
    p = Presentation(3, (_w(3, 3, -1),))
    result = simplify(p)
    assert result.presentation.rank == 3


def test_simplify_records_moves():
    r = _w(2, 1, 1)
    result = simplify(Presentation(2, (r, r)))
    assert any("duplicate" in mv for mv in result.moves)


@pytest.mark.parametrize("kwargs, budget", [
    ({"budget": 200}, 200),
    ({}, 2000),
    ({"budget": 5000}, 5000),
], ids=["200", "default", "5000"])
def test_simplify_gives_each_drop_search_its_budget(monkeypatch, kwargs, budget):
    seen, real = [], presentations.is_consequence
    monkeypatch.setattr(presentations, "is_consequence",
                        lambda *a, **k: seen.append(k["budget"]) or real(*a, **k))
    simplify(Presentation(2, (_w(2, 1, 1), _w(2, 2, 2, 2))), **kwargs)
    assert seen and set(seen) == {budget}


def test_simplify_stops_after_its_round_limit(monkeypatch):
    # The commutator has no donor and, alone, no drop search, so every
    # round reaches the product phase, which here offers a no-op forever.
    def no_op(rels):
        while True:
            yield "no-op", 0, rels[0], 0

    monkeypatch.setattr(presentations, "_products", no_op)
    result = simplify(Presentation(2, (_w(2, 1, 2, -1, -2),)))
    assert result.truncated
    assert result.moves == ("canonicalise x1 x2 x1^-1 x2^-1 -> x2^-1 x1^-1 x2 x1",
                            *("no-op",) * 10_000)
    assert result.presentation.relators == (_w(2, -2, -1, 2, 1),)


def test_kill_generator_renumbers():
    p = Presentation(3, (_w(3, 1, 2, -3), _w(3, 2, -2, 1)))
    q = kill_generator(p, 2)
    assert q.rank == 2
    assert [r.letters for r in q.relators] == [(1, -2), (1,)]
    with pytest.raises(DimensionMismatchError):
        kill_generator(p, 4)


def test_kill_generator_on_the_last_generator():
    q = kill_generator(Presentation(1, (_w(1, 1, 1),)), 1)
    assert q == Presentation(0, ())


def test_kill_generator_drops_a_relator_that_reduces_to_one():
    # Killing x2 leaves x1 x1^-1 of the first relator, which is 1.
    q = kill_generator(Presentation(2, (_w(2, 1, 2, -1), _w(2, 1, 1, 2))), 2)
    assert q == Presentation(1, (_w(1, 1, 1),))
    assert str(q) == "< x1 | x1 x1 >"
