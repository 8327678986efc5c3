"""From a braid monodromy to a fundamental-group presentation.

A braid on n strands acts on the free group generated by one loop per
strand.  The induced presentation has those n loops as generators and
one relator per generator, saying the braid action fixes it.  For the
local braid of a curve singularity this is exactly the presentation of
the complement's fundamental group given by the classical projection
argument, with relations read off over the basepoint fiber.
"""

from __future__ import annotations

from .presentations import Presentation
from .words import BraidWord, FreeWord, artin_action


def braid_images(b: BraidWord) -> list[FreeWord]:
    """Images of the generators x_1, ..., x_n under the braid action."""
    n = b.strands
    return [artin_action(b, FreeWord.generator(n, k)) for k in range(1, n + 1)]


def raw_relators(b: BraidWord) -> list[FreeWord]:
    """The relators x_j^-1 * (action of the braid on x_j), j = 1..n.

    Trivial relators (generators fixed by the action) are kept, so the
    relator of x_j sits at index j - 1.
    """
    n = b.strands
    return [
        FreeWord.generator(n, j).inverse() * img
        for j, img in enumerate(braid_images(b), start=1)
    ]


def induced_presentation(b: BraidWord) -> Presentation:
    """Presentation with the nontrivial raw relators.

    Generators are never dropped, even those the action fixes.
    """
    rels = tuple(r for r in raw_relators(b) if r.letters)
    return Presentation(b.strands, rels)
