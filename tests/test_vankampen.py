from __future__ import annotations

import random

from braidmono import (
    BraidWord,
    FreeWord,
    artin_action,
    braid_images,
    induced_presentation,
    raw_relators,
)
from braidmono.errors import CapacityError
from braidmono.words import invert, substitute


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


def _drawn_braids(seed: int, count: int) -> list[BraidWord]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, length = rng.randint(2, 6), rng.randint(0, 40)
        out.append(BraidWord(n, tuple(rng.choice((-1, 1)) * rng.randint(1, n - 1)
                                      for _ in range(length))))
    return out


def _letters_or_refusal(act):
    try:
        return [w.letters for w in act()]
    except CapacityError:
        return None


# 1,500 braids, n 2-6 and length 0-40.  artin_action is the reference:
# the image of one word, substituting each braid letter left to right.
DRAWN = _drawn_braids(34, 1500)


def test_braid_images_are_the_action_on_each_generator():
    only_images = only_action = 0
    for b in DRAWN:
        images = _letters_or_refusal(lambda: braid_images(b))
        action = _letters_or_refusal(lambda: [artin_action(b, FreeWord.generator(b.strands, k))
                                              for k in range(1, b.strands + 1)])
        if images is not None and action is not None:
            assert images == action, b
        only_images += action is None and images is not None
        only_action += images is None and action is not None
    # Draws that one route refuses and the other answers: braid_images
    # bounds the images of the braid's suffixes by MAX_IMAGE_LETTERS,
    # artin_action those of its prefixes.
    assert (only_images, only_action) == (10, 15)


def test_images_of_a_product_substitute_the_second_into_the_first():
    rng = random.Random(35)
    for c in DRAWN:
        cut = rng.randint(0, len(c.letters))
        a, b = BraidWord(c.strands, c.letters[:cut]), BraidWord(c.strands, c.letters[cut:])
        of_a, of_b, of_c = (_letters_or_refusal(lambda w=w: braid_images(w)) for w in (a, b, c))
        if None in (of_a, of_b, of_c):
            continue
        table = {k: w for k, w in enumerate(of_b, start=1)}
        table.update({-k: invert(w) for k, w in table.items()})
        assert [substitute(w, table) for w in of_a] == of_c, (a, b)
