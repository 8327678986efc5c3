"""From a braid monodromy to a fundamental-group presentation.

A braid on n strands acts on the free group generated by one loop per
strand.  The induced presentation has those n loops as generators and
one relator per generator the braid moves, saying the action fixes it.
For the local braid of a curve singularity this is exactly the
presentation of the complement's fundamental group given by the
classical projection argument, with relations read off over the
basepoint fiber.
"""

from __future__ import annotations

from .errors import CapacityError
from .presentations import Presentation
from .words import MAX_IMAGE_LETTERS, BraidWord, FreeWord, invert, reduce_onto


def braid_images(b: BraidWord) -> list[FreeWord]:
    """Images of the generators x_1, ..., x_n under the braid action; CapacityError
    once an image under a suffix of b (b itself included) has more than
    MAX_IMAGE_LETTERS letters."""
    images = [(k,) for k in range(b.strands + 1)]  # x_k's image under the letters after a
    for a in reversed(b.letters):
        # The letters from a on send x_k to a's own image of x_k (module words) with
        # each letter replaced by its image in images; a moves only x_i and x_{i+1}.
        u, v = images[abs(a)], images[abs(a) + 1]
        new = ((v, reduce_onto(reduce_onto(list(v), u), invert(v))) if a > 0
               else (reduce_onto(reduce_onto(list(invert(u)), v), u), u))
        if max(map(len, new)) > MAX_IMAGE_LETTERS:
            raise CapacityError("braid image has more than %d letters" % MAX_IMAGE_LETTERS)
        images[abs(a)], images[abs(a) + 1] = new
    return [FreeWord(b.strands, w) for w in images[1:]]


def raw_relators(b: BraidWord) -> list[FreeWord]:
    """The relators x_j^-1 * (action of the braid on x_j), j = 1..n.

    Trivial relators (generators fixed by the action) are kept, so the
    relator of x_j sits at index j - 1.
    """
    return [FreeWord(b.strands, (-j,) + img.letters)
            for j, img in enumerate(braid_images(b), start=1)]


def induced_presentation(b: BraidWord) -> Presentation:
    """Presentation with the raw relators, of which Presentation keeps the
    nontrivial ones.  Generators are never dropped, even those the action fixes.
    """
    return Presentation(b.strands, tuple(raw_relators(b)))
