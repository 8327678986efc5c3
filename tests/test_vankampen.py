from __future__ import annotations

from braidmono import (
    BraidWord,
    braid_images,
    induced_presentation,
    raw_relators,
)


def test_braid_images_of_single_generator():
    imgs = braid_images(BraidWord(2, (1,)))
    assert imgs[0].letters == (2,)
    assert imgs[1].letters == (2, 1, -2)


def test_identity_braid_gives_free_presentation():
    p = induced_presentation(BraidWord.identity(3))
    assert p.rank == 3
    assert p.relators == ()


def test_fixed_generators_give_no_relator():
    # s1 fixes x3, so only two relators survive.
    p = induced_presentation(BraidWord(3, (1,)))
    assert p.rank == 3
    assert len(p.relators) == 2


def test_raw_relators_keep_trivial_ones_in_place():
    # s1 fixes x3: its relator is empty but still third.
    rels = raw_relators(BraidWord(3, (1,)))
    assert len(rels) == 3
    assert rels[2].letters == ()
    assert [r for r in rels if r.letters] == list(
        induced_presentation(BraidWord(3, (1,))).relators
    )


def test_raw_relators_of_double_full_twist():
    p = induced_presentation(BraidWord(2, (1, 1, 1, 1)))
    assert [r.letters for r in p.relators] == [
        (-1, 2, 1, 2, 1, -2, -1, -2),
        (1, 2, 1, 2, -1, -2, -1, -2),
    ]
