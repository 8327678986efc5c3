from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from braidmono import (
    BraidWord,
    FiniteGroupTable,
    FreeWord,
    Presentation,
    alternating_group,
    count_homomorphisms,
    cyclic_group,
    default_targets,
    dihedral_group,
    equivalence_evidence,
    fixture_by_id,
    induced_presentation,
    quaternion_group,
    simplify,
    symmetric_group,
    verify_fixture,
)
from braidmono import homcount
from braidmono.errors import GroupTableError
from braidmono.homcount import count_memo


def _p(rank, *relators):
    return Presentation(rank, tuple(FreeWord(rank, r) for r in relators))


def test_group_orders():
    assert cyclic_group(5).order == 5
    assert dihedral_group(4).order == 8
    assert symmetric_group(3).order == 6
    assert alternating_group(4).order == 12
    assert quaternion_group().order == 8


def test_constructors_over_their_whole_range():
    assert [cyclic_group(n).order for n in (1, 2, 7)] == [1, 2, 7]
    assert [symmetric_group(n).order for n in range(1, 6)] == [1, 2, 6, 24, 120]
    assert [alternating_group(n).order for n in (3, 4, 5)] == [3, 12, 60]
    assert [dihedral_group(n).order for n in (2, 3, 5)] == [4, 6, 10]
    # D2 is the Klein four-group: every element is its own inverse.
    klein = dihedral_group(2)
    assert all(klein.table[a][a] == klein.identity for a in range(4))


def test_table_validation():
    with pytest.raises(GroupTableError):
        FiniteGroupTable(2, 0, ((0, 1), (1, 1)))
    with pytest.raises(GroupTableError):
        FiniteGroupTable(2, 1, ((0, 1), (1, 0)))


def test_inverse_lookup():
    g = cyclic_group(4)
    assert g.inverse(1) == 3
    assert g.inverse(0) == 0


def test_default_target_battery():
    targets = default_targets()
    assert [name for name, _ in targets] == [
        "C2", "C3", "C4", "C6", "S3", "D4", "Q8", "A4", "D6", "S4",
    ]
    assert [g.order for _, g in targets] == [2, 3, 4, 6, 6, 8, 8, 12, 12, 24]


def test_default_targets_share_their_groups():
    first = default_targets()
    first[0] = ("X", cyclic_group(5))
    del first[1:]
    second = default_targets()
    assert len(second) == 10 and second[0][0] == "C2"
    assert all(a is b for (_, a), (_, b) in zip(second, default_targets()))


def test_free_group_counts():
    s3 = symmetric_group(3)
    assert count_homomorphisms(_p(1), s3) == 6
    assert count_homomorphisms(_p(2), s3) == 36
    assert count_homomorphisms(_p(0), s3) == 1


def test_abelianisation_count():
    # Commuting pairs in S3: six with the identity fibre argument -> 18.
    z2 = _p(2, (1, 2, -1, -2))
    assert count_homomorphisms(z2, symmetric_group(3)) == 18


def test_torsion_counts():
    assert count_homomorphisms(_p(1, (1, 1)), cyclic_group(4)) == 2
    assert count_homomorphisms(_p(1, (1, 1, 1)), symmetric_group(3)) == 3
    assert count_homomorphisms(_p(1, (1, 1, 1)), alternating_group(4)) == 9
    assert count_homomorphisms(_p(1, (1, 1, 1, 1)), quaternion_group()) == 8
    assert count_homomorphisms(_p(1, (1, 1, 1, 1)), cyclic_group(6)) == 2


def test_killed_generator_forces_identity():
    for _, g in default_targets():
        assert count_homomorphisms(_p(1, (1,)), g) == 1


def test_pinned_generator_eliminates():
    # x2 = x1^-2 pins x2, leaving a free generator.
    p = _p(2, (2, 1, 1))
    assert count_homomorphisms(p, symmetric_group(3)) == 6


def test_free_rank_five_count():
    assert count_homomorphisms(_p(5), cyclic_group(2)) == 32


def test_equivalence_report():
    a = _p(1, (1, 1))
    b = _p(1, (1, 1, 1))
    assert equivalence_evidence(a, a) is True
    assert equivalence_evidence(a, b) is False


def _brute_force(p, g):
    """Reference count: try every assignment of the generators."""

    def value(letters, images):
        acc = g.identity
        for a in letters:
            x = images[abs(a) - 1]
            acc = g.table[acc][x if a > 0 else g.inverse(x)]
        return acc

    return sum(
        all(value(r.letters, images) == g.identity for r in p.relators)
        for images in itertools.product(range(g.order), repeat=p.rank)
    )


# The reference tries |G|^rank assignments; groups past this are left out.
_BRUTE_FORCE_LIMIT = 8000


def _random_presentation(rng):
    rank = rng.randint(1, 5)
    return _p(rank, *(
        tuple(rng.choice((-1, 1)) * rng.randint(1, rank) for _ in range(rng.randint(1, 10)))
        for _ in range(rng.randint(0, 4))
    ))


_BRUTE_FORCE_CASES = [
    # relators in x1 alone, one of them beside a relator in x1, x2
    pytest.param(_p(2, (1, 1, 1, 1, 1, 1), (2, 1, 2, -1, -2, -1)), id="x1-only"),
    # two generators, so every relator is due while the pair is bound
    pytest.param(_p(2, (1, 1, 1, 1), (1, 2, -1, -2), (2, 2, 2, 2, 2, 2)), id="pair-only"),
    pytest.param(_p(1, (1, 1, -1, 1, 1)), id="x1-only-rank-1"),
    # x2 occurs in no relator and sits between bound generators
    pytest.param(_p(3, (1, 3, -1, -3), (1, 1, 3, 3)), id="unused-generator"),
    # x2 occurs once in the first relator, so it is eliminated
    pytest.param(_p(3, (1, 2, 3, 1), (2, 2, 3, -2, -1)), id="eliminated-generator"),
    pytest.param(
        _p(5, (1, 2, -1, -2), (2, 3, 2, -3, -2, -3), (3, 4, -3, -4), (4, 4, 5, 5),
           (5, 1, 5, -1, -5, -1)),
        id="rank-5",
    ),
    pytest.param(_p(5, (5, 1, -5, -1, 5, 1), (1, 2, 3, 4, 5, 1, 2, 3, 4, 5)), id="rank-5-long"),
    # one generator, alone, beside a free one, or left by an elimination
    pytest.param(_p(1, (1,) * 4, (1,) * 6), id="one-generator-4-6"),
    pytest.param(_p(2, (1,) * 4, (-1,) * 6), id="one-generator-and-free"),
    pytest.param(_p(2, (2, 1, 1, 1), (1, 2) * 4), id="one-generator-after-elimination"),
    # exponent sums that need reduction: 4 and 6 in both orders, zero rows
    # from commutators, and x3 free in the abelianisation
    pytest.param(
        _p(3, (1,) * 4 + (2,) * 6, (1,) * 6 + (-2,) * 4, (1, 2, -1, -2), (1, 3, -1, -3)),
        id="sums-4-6",
    ),
    pytest.param(_p(3, (1, 2) * 6, (2, 3) * 4, (3, 1, -3, -1)), id="sums-6-4-chain"),
    pytest.param(_p(4, (1,) * 4 + (2,) * 6, (3, 4, -3, -4)), id="sums-with-free-generator"),
] + [
    pytest.param(_random_presentation(random.Random(seed)), id="random-%d" % seed)
    for seed in range(40)
]


@pytest.mark.parametrize("p", _BRUTE_FORCE_CASES)
def test_counts_match_brute_force(p):
    for _, g in default_targets():
        if g.order ** p.rank <= _BRUTE_FORCE_LIMIT:
            assert count_homomorphisms(p, g) == _brute_force(p, g), p


def _relabelled_s3():
    """S3 with its labels permuted so that the identity is 5."""
    g = symmetric_group(3)
    label = [5, 3, 0, 4, 1, 2]
    assert label[g.identity] == 5
    table = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            table[label[a]][label[b]] = label[g.table[a][b]]
    return FiniteGroupTable(6, 5, table)


# Abelian groups that are not cyclic: C2 x C2 on four points, C2 x C4 on six.
_KLEIN = homcount._generated((1, 0, 2, 3), (0, 1, 3, 2))
_C2_C4 = homcount._generated((1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2))


@pytest.mark.parametrize("group", [
    pytest.param(cyclic_group(1), id="trivial"),
    pytest.param(dihedral_group(5), id="D5"),
    pytest.param(_relabelled_s3(), id="S3-relabelled"),
    pytest.param(_KLEIN, id="C2xC2"),
    pytest.param(_C2_C4, id="C2xC4"),
])
def test_counts_outside_the_battery_match_brute_force(group):
    for case in _BRUTE_FORCE_CASES:
        p = case.values[0]
        if group.order ** p.rank <= _BRUTE_FORCE_LIMIT:
            assert count_homomorphisms(p, group) == _brute_force(p, group), case.id


@pytest.mark.parametrize("name, orbits", [
    ("C2", 4), ("C3", 9), ("C4", 16), ("C6", 36), ("S3", 11),
    ("D4", 28), ("Q8", 28), ("A4", 22), ("D6", 44), ("S4", 43),
])
def test_pair_orbits_of_the_battery(name, orbits):
    g = dict(default_targets())[name]
    n, t = g.order, homcount._union((g,))
    pairs, weights = t.pairs[0] * n + t.pairs[1], t.weights
    assert len(pairs) == orbits
    assert sum(weights) == n * n
    # Burnside: the orbits of G x G under conjugation number
    # (1/|G|) sum_g |C(g)|^2, and (a, b) is fixed by g iff both lie in C(g).
    centraliser = [sum(g.table[a][b] == g.table[b][a] for b in range(n)) for a in range(n)]
    assert orbits * n == sum(c * c for c in centraliser)
    for code, size in zip(pairs.tolist(), weights.tolist()):
        a, b = divmod(code, n)
        orbit = set()
        for x in range(n):
            conj = [g.table[g.table[g.inverse(x)][y]][x] for y in (a, b)]
            orbit.add(conj[0] * n + conj[1])
        assert (min(orbit), len(orbit)) == (code, size)


@pytest.mark.parametrize("name, orbits", [
    ("C2", 8), ("C3", 27), ("C4", 64), ("C6", 216), ("S3", 49),
    ("D4", 176), ("Q8", 176), ("A4", 178), ("D6", 392), ("S4", 681),
])
def test_triple_orbits_of_the_battery(name, orbits):
    g = dict(default_targets())[name]
    n = g.order
    cols, block, weights = homcount._triples(homcount._union((g,)))
    assert len(weights) == orbits and not block.any()
    assert sum(weights) == n ** 3
    # Burnside, as for the pairs: g fixes (a, b, c) iff all three lie in C(g).
    centraliser = [sum(g.table[a][b] == g.table[b][a] for b in range(n)) for a in range(n)]
    assert orbits * n == sum(c ** 3 for c in centraliser)
    for *triple, size in zip(*(c.tolist() for c in cols), weights.tolist()):
        orbit = {tuple(g.table[g.table[g.inverse(x)][y]][x] for y in triple) for x in range(n)}
        assert (min(orbit), len(orbit)) == (tuple(triple), size)


@pytest.mark.parametrize("fixture_id, count", [
    ("triple-tangency-vertical-line", 16344),
    ("n-tangency-4", 141528),
])
def test_pinned_s4_counts_of_model_braids(fixture_id, count):
    f = fixture_by_id(fixture_id)
    braid = BraidWord(f.expected_relations.rank, f.model_letters)
    assert count_homomorphisms(induced_presentation(braid), symmetric_group(4)) == count


@pytest.fixture
def counted(monkeypatch):
    """The (rank, relator set, group) of every count actually made."""
    made = []
    real = homcount._counts

    def spy(rank, relators, groups):
        made.extend((rank, frozenset(relators), g) for g in groups)
        return real(rank, relators, groups)

    monkeypatch.setattr(homcount, "_counts", spy)
    return made


def test_memo_ignores_relator_order_and_duplicates(counted):
    g = symmetric_group(3)
    p = _p(2, (1, 1), (1, 2, -1, -2))
    q = _p(2, (1, 2, -1, -2), (), (1, 1), (1, 2, -1, -2))
    with count_memo():
        assert count_homomorphisms(p, g) == count_homomorphisms(q, g) == 12
        assert count_homomorphisms(_p(3, (1, 1), (1, 2, -1, -2)), g) == 72
    assert len(counted) == 2
    assert count_homomorphisms(p, g) == 12
    assert len(counted) == 3


def test_nested_memo_scopes_share_one_memo(counted):
    g = cyclic_group(3)
    assert homcount._memo.get() is None
    with count_memo():
        outer = homcount._memo.get()
        count_homomorphisms(_p(1, (1, 1, 1)), g)
        with count_memo():
            assert homcount._memo.get() is outer
            count_homomorphisms(_p(1, (1, 1, 1)), g)
        assert homcount._memo.get() is outer
    assert homcount._memo.get() is None
    assert len(counted) == 1


def _scoped_call(call: str) -> None:
    """One verify_fixture or simplify call that makes several counts."""
    f = fixture_by_id("triple-tangency")
    if call == "verify_fixture":
        verify_fixture(f)
    else:
        simplify(induced_presentation(BraidWord(f.expected_relations.rank, f.model_letters)))


@pytest.mark.parametrize("call", ["verify_fixture", "simplify"])
def test_no_memo_survives_a_call(counted, call):
    _scoped_call(call)
    assert homcount._memo.get() is None
    first = list(counted)
    assert first and len(set(first)) == len(first)
    _scoped_call(call)
    assert counted[len(first):] == first


@pytest.mark.parametrize("call", ["verify_fixture", "simplify"])
def test_no_memo_survives_a_call_that_raises(monkeypatch, call):
    seen = []

    def failing(rank, relators, groups):
        seen.append(homcount._memo.get() is not None)
        raise RuntimeError("count failed")

    monkeypatch.setattr(homcount, "_counts", failing)
    with pytest.raises(RuntimeError, match="count failed"):
        _scoped_call(call)
    assert seen == [True]
    assert homcount._memo.get() is None


def test_count_memo_plans_each_presentation_once(monkeypatch):
    calls = []
    real = homcount.eliminate_generators

    def spy(rank, relators):
        calls.append(rank)
        return real(rank, relators)

    monkeypatch.setattr(homcount, "eliminate_generators", spy)
    p = _p(3, (1, 2, -1, -2), (1, 3, 3), (2, 2, 2))
    with count_memo():
        inside = [count_homomorphisms(p, g) for _, g in default_targets()]
    assert len(calls) == 1
    outside = [count_homomorphisms(p, g) for _, g in default_targets()]
    assert len(calls) == 11
    assert inside == outside


def _element_order(g, a):
    k, x = 1, a
    while x != g.identity:
        k, x = k + 1, g.table[x][a]
    return k


@pytest.mark.parametrize("name, orders, commuting", [
    ("C2", {1: 1, 2: 1}, 4),
    ("C3", {1: 1, 3: 2}, 9),
    ("C4", {1: 1, 2: 1, 4: 2}, 16),
    ("C6", {1: 1, 2: 1, 3: 2, 6: 2}, 36),
    ("S3", {1: 1, 2: 3, 3: 2}, 18),
    ("D4", {1: 1, 2: 5, 4: 2}, 40),
    ("Q8", {1: 1, 2: 1, 4: 6}, 40),
    ("A4", {1: 1, 2: 3, 3: 8}, 48),
    ("D6", {1: 1, 2: 7, 3: 2, 6: 2}, 72),
    ("S4", {1: 1, 2: 9, 3: 8, 4: 6}, 120),
])
def test_battery_group_isomorphism_types(name, orders, commuting):
    # The multiset of element orders tells D4 from Q8; the commuting
    # pairs, |G| times the number of conjugacy classes, back it up.
    g = dict(default_targets())[name]
    n = g.order
    assert Counter(_element_order(g, a) for a in range(n)) == orders
    assert sum(g.table[a][b] == g.table[b][a] for a in range(n) for b in range(n)) == commuting


_RECORDED_D6 = [
    _p(rec["rank"], *map(tuple, rec["relators"]))
    for rec in json.loads((Path(__file__).parent / "data" / "hom_counts.json").read_text("utf-8"))
    if rec["group"] == "D6"
]


def test_the_battery_d6_is_counted_as_s3_times_c2():
    d6, plain = dict(default_targets())["D6"], dihedral_group(6)
    s3, c2 = symmetric_group(3), cyclic_group(2)
    assert d6._factors == (s3, c2) and plain._factors == () and d6 != plain
    assert Counter(_element_order(d6, a) for a in range(12)) == \
        Counter(_element_order(plain, a) for a in range(12))
    assert len(_RECORDED_D6) == 30
    for p in [case.values[0] for case in _BRUTE_FORCE_CASES] + _RECORDED_D6:
        count = count_homomorphisms(p, d6)
        assert count == count_homomorphisms(p, plain), p
        assert count == count_homomorphisms(p, s3) * count_homomorphisms(p, c2), p


def test_abelian_targets_and_one_generator_plans_skip_the_search(monkeypatch):
    searched = []
    real = homcount._search

    def spy(t, levels):
        searched.append(len(levels))
        return real(t, levels)

    monkeypatch.setattr(homcount, "_search", spy)
    abelian = [g for _, g in default_targets()[:4]] + [_KLEIN, _C2_C4]
    for case in _BRUTE_FORCE_CASES:
        for g in abelian:
            count_homomorphisms(case.values[0], g)
    one_generator = [_p(1, (1,) * 4, (1,) * 6), _p(2, (2, 1, 1, 1), (1, 2) * 4)]
    for p in one_generator:
        for _, g in default_targets():
            count_homomorphisms(p, g)
    assert searched == []
    # A non-abelian target of a two-generator presentation still searches.
    count_homomorphisms(_p(2, (1, 2, -1, -2)), symmetric_group(3))
    assert searched == [2]


# A non-abelian group outside the battery, of odd order: the Frobenius
# group of order 21, x -> x + 1 and x -> 2x on the integers mod 7.
_F21 = homcount._generated((1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5))

# Groups of unequal orders, abelian and not, in no order of size.
_MIXED_BATTERY = [g for _, g in default_targets()] + [_KLEIN, _C2_C4, _F21]


def _relator(rng, rank, draw):
    """A relator drawn by draw(rng), freely reduced, in which no generator
    occurs exactly once, so that no elimination removes it."""
    while True:
        r = FreeWord(rank, draw(rng)).letters
        if r and all(sum(abs(a) == abs(b) for b in r) > 1 for a in r):
            return r


def _letters(rng, gens, length):
    return tuple(rng.choice((-1, 1)) * rng.choice(gens) for _ in range(length))


def _conjugation(rng, k):
    """u x_k v x_k^-1 w, or the same with x_k^-1 first, with u, v, w in
    x_1 .. x_k-1 and u or w often empty."""
    u, w = (_letters(rng, range(1, k), rng.choice((0, 0, 1, 2, 3))) for _ in range(2))
    v = _letters(rng, range(1, k), rng.randint(1, 4))
    s = rng.choice((-1, 1))
    return u + (s * k,) + v + (-s * k,) + w


def _conjugation_presentation(seed):
    """Rank 2-5: conjugation relators in x_1 .. x_k with k highest, a few
    random relators beside them, and sometimes a last generator that
    occurs in no relator."""
    rng = random.Random(seed)
    rank = rng.randint(2, 5)
    used = rank - (rank > 2 and rng.random() < 0.4)
    relators = [_relator(rng, rank, lambda r: _conjugation(r, r.randint(max(2, used - 1), used)))
                for _ in range(rng.randint(1, 3))]
    relators += [_relator(rng, rank, lambda r: _letters(r, range(1, used + 1), r.randint(2, 8)))
                 for _ in range(rng.randint(0, 2))]
    return _p(rank, *relators)


@pytest.mark.parametrize("seed", range(60))
def test_battery_counts_match_one_group_counts(seed):
    p = _conjugation_presentation(seed)
    counts = homcount._counted(p, _MIXED_BATTERY)
    assert counts == [count_homomorphisms(p, g) for g in _MIXED_BATTERY], p


def test_a_battery_past_order_128_is_searched_as_one_union(monkeypatch):
    orders = []
    real = homcount._union

    def spy(groups):
        orders.append([g.order for g in groups])
        return real(groups)

    monkeypatch.setattr(homcount, "_union", spy)
    battery = [symmetric_group(4), alternating_group(5), _F21, symmetric_group(5), dihedral_group(5)]
    p = _p(3, (1, 2, -1, -2), (3, 1, -3, -2, -2))
    counts = homcount._counted(p, battery)
    assert orders == [[24, 60, 21, 120, 10]]
    assert counts == [count_homomorphisms(p, g) for g in battery]


def test_equivalence_evidence_searches_each_union_once(monkeypatch):
    """Outside any count_memo block, both sides share one memo: one search
    per battery, not two, whatever the battery's summed order."""
    searched = []
    real = homcount._search

    def spy(t, levels):
        searched.append(t)
        return real(t, levels)

    monkeypatch.setattr(homcount, "_search", spy)
    p = _p(3, (1, 2, -1, -2), (3, 1, -3, -2, -2))
    assert equivalence_evidence(p, p)
    assert len(searched) == 1
    battery = [symmetric_group(4), alternating_group(5), _F21]
    for groups in (battery, battery + [symmetric_group(5)]):
        searched.clear()
        with count_memo():
            assert homcount._counted(p, groups) == homcount._counted(p, groups)
        assert len(searched) == 1


@pytest.mark.parametrize("seed", range(0, 60, 6))
def test_counts_do_not_depend_on_the_batch_size(monkeypatch, seed):
    p = _conjugation_presentation(seed)
    whole = homcount._counted(p, _MIXED_BATTERY)
    monkeypatch.setattr(homcount, "_CHUNK", 5)
    assert homcount._counted(p, _MIXED_BATTERY) == whole
