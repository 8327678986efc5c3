"""An oracle for hom counts that shares no code with the counter.

The presentation <x_1 .. x_n | b(x_j) = x_j> that a braid b induces has
one homomorphism into G for each tuple (g_1 .. g_n) of G^n that the
Hurwitz action of b fixes: phi is a homomorphism iff phi o b = phi on
the generators.  A letter s_i sends x_i to x_i+1 and x_i+1 to
x_i+1 x_i x_i+1^-1 (vankampen.braid_images), so phi o s_i takes
(g_i, g_i+1) to (g_i+1, g_i+1 g_i g_i+1^-1); the letters of b act on
words left to right, so on tuples right to left.  The count needs no
Artin action on words, no relators, no elimination and no search plan.

The action commutes with simultaneous conjugation, so g_1 ranges over
one element of each conjugacy class, weighted by the class's size.
"""

from __future__ import annotations

import numpy as np
import pytest

from braidmono import (
    BraidWord,
    count_homomorphisms,
    default_targets,
    fixtures,
    induced_presentation,
    n_tangency_fixture,
)

# The largest |G|^n whose tuples are enumerated, before the classes cut them.
_TUPLES = 200_000


def _hurwitz_fixed_points(letters: tuple[int, ...], strands: int, g) -> int:
    """The number of tuples of G^strands that the braid's Hurwitz action fixes."""
    table = np.array(g.table)
    inv = np.array([g.inverse(a) for a in range(g.order)])
    classes = {frozenset(table[table[x, a], inv[x]] for x in range(g.order)) for a in range(g.order)}
    reps = np.array([min(c) for c in classes])
    sizes = np.array([len(c) for c in classes])
    grid = np.indices((len(reps),) + (g.order,) * (strands - 1)).reshape(strands, -1)
    start = [reps[grid[0]], *grid[1:]]
    x = list(start)
    for a in reversed(letters):
        i = abs(a) - 1
        u, v = x[i], x[i + 1]
        x[i], x[i + 1] = (v, table[table[v, u], inv[v]]) if a > 0 else (table[table[inv[u], v], u], u)
    fixed = np.logical_and.reduce([y == y0 for y, y0 in zip(x, start)])
    return int(sizes[grid[0]][fixed].sum())


@pytest.mark.parametrize(
    "fixture", fixtures() + [n_tangency_fixture(n) for n in (2, 3, 4)], ids=lambda f: f.fixture_id
)
def test_hurwitz_fixed_points_count_the_induced_presentation(fixture):
    n = fixture.expected_relations.rank
    braid = BraidWord(n, fixture.model_letters)
    p = induced_presentation(braid)
    groups = [(name, g) for name, g in default_targets() if g.order ** n <= _TUPLES]
    assert len(groups) >= 5
    for name, g in groups:
        assert _hurwitz_fixed_points(braid.letters, n, g) == count_homomorphisms(p, g), name
