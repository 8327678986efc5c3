"""Free-group words, braid words, the Artin action and Tietze elimination.

Conventions
-----------
Free-group letters are signed indices: ``k`` means the generator
``x_k`` and ``-k`` its inverse.  Braid letters likewise: ``i`` means
the Artin generator ``s_i`` (a counterclockwise half-twist of strands
``i`` and ``i+1``) and ``-i`` its inverse.

A positive ``s_i`` acts on generators by

    x_i     -> x_{i+1}
    x_{i+1} -> x_{i+1} x_i x_{i+1}^-1

fixing the others; a negative letter applies the inverse substitution.
Letters of a braid word act left to right, so concatenation satisfies

    artin_action(a * b, w) == artin_action(b, artin_action(a, w)).

With this convention the descending product x_n ... x_2 x_1 is fixed
by every braid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DimensionMismatchError, MalformedWordError


def reduce_onto(out: list[int], letters: Iterable[int]) -> list[int]:
    """Append letters to the freely reduced word `out` and return it.

    Each letter cancels against the end of `out` when it is its inverse,
    so `out` stays freely reduced.  Products, substitutions and the Artin
    action all use it; only is_consequence, whose two factors are always
    reduced, cancels at their junction itself.
    """
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return out


def substitute(
    letters: Iterable[int], images: Mapping[int, Sequence[int]]
) -> tuple[int, ...]:
    """Freely reduced word with each letter a replaced by images.get(a, (a,))."""
    return tuple(reduce_onto([], [b for a in letters for b in images.get(a, (a,))]))


def invert(letters: Sequence[int]) -> tuple[int, ...]:
    """The inverse word: the letters reversed, each inverted."""
    return tuple(-a for a in reversed(letters))


@dataclass(frozen=True)
class FreeWord:
    """Freely reduced word in the generators x_1 .. x_rank.

    Reduction happens on construction, so two words are equal as group
    elements iff their letter tuples are equal.
    """

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise MalformedWordError("rank must be positive, got %r" % (self.rank,))
        letters = tuple(self.letters)
        for a in letters:
            if not isinstance(a, int) or a == 0 or abs(a) > self.rank:
                raise MalformedWordError(
                    "letter %r out of range for rank %d" % (a, self.rank)
                )
        object.__setattr__(self, "letters", tuple(reduce_onto([], letters)))

    @classmethod
    def generator(cls, rank: int, k: int) -> "FreeWord":
        return cls(rank, (k,))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise DimensionMismatchError(
                "cannot multiply words of rank %d and %d" % (self.rank, other.rank)
            )
        return FreeWord(self.rank, self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(self.rank, invert(self.letters))

    def conjugate(self, by: "FreeWord") -> "FreeWord":
        """by * self * by^-1."""
        return by * self * by.inverse()


@dataclass(frozen=True)
class BraidWord:
    """Word in the Artin generators s_1 .. s_{strands-1}.

    No normalization is applied: distinct letter sequences may
    represent the same braid.  Use braid_equal for semantic equality.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise MalformedWordError(
                "strand count must be positive, got %r" % (self.strands,)
            )
        letters = tuple(self.letters)
        for a in letters:
            if not isinstance(a, int) or a == 0 or abs(a) >= self.strands:
                raise MalformedWordError(
                    "letter %r out of range for %d strands" % (a, self.strands)
                )
        object.__setattr__(self, "letters", letters)

    @classmethod
    def identity(cls, strands: int) -> "BraidWord":
        return cls(strands, ())

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise DimensionMismatchError(
                "cannot concatenate braids on %d and %d strands"
                % (self.strands, other.strands)
            )
        return BraidWord(self.strands, self.letters + other.letters)

    def __pow__(self, n: int) -> "BraidWord":
        if n >= 0:
            return BraidWord(self.strands, self.letters * n)
        return self.inverse() ** (-n)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, invert(self.letters))


@dataclass(frozen=True)
class Permutation:
    """Bijection on 1..n, stored as the tuple of images of 1, 2, ..., n."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise MalformedWordError("not a bijection on 1..%d: %r" % (n, images))
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right composition: (p * q)(k) == q(p(k))."""
        if len(self) != len(other):
            raise DimensionMismatchError(
                "cannot compose permutations of sizes %d and %d"
                % (len(self), len(other))
            )
        return Permutation(tuple(other(self(k)) for k in range(1, len(self) + 1)))

    def inverse(self) -> "Permutation":
        images = [0] * len(self.images)
        for k, v in enumerate(self.images, start=1):
            images[v - 1] = k
        return Permutation(tuple(images))


# Substitution table of one braid letter, s_i for a = i or s_i^-1 for
# a = -i; letters other than x_i^{+-1}, x_{i+1}^{+-1} are fixed.
@lru_cache(maxsize=None)
def _letter_images(a: int) -> dict[int, tuple[int, ...]]:
    i = abs(a)
    j = i + 1
    if a > 0:
        return {i: (j,), -i: (-j,), j: (j, i, -j), -j: (j, -i, -j)}
    return {j: (i,), -j: (-i,), i: (-i, j, i), -i: (-i, -j, i)}


def artin_action(b: BraidWord, w: FreeWord) -> FreeWord:
    """Image of w under the automorphism induced by the braid b.

    See the module docstring for the substitution convention and the
    composition order (letters of b act left to right).
    """
    if b.strands != w.rank:
        raise DimensionMismatchError(
            "braid on %d strands cannot act on rank-%d word" % (b.strands, w.rank)
        )
    letters = w.letters
    for a in b.letters:
        letters = substitute(letters, _letter_images(a))
    return FreeWord(w.rank, letters)


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """Decide equality in the braid group via the (faithful) Artin action."""
    if a.strands != b.strands:
        raise DimensionMismatchError(
            "cannot compare braids on %d and %d strands" % (a.strands, b.strands)
        )
    n = a.strands
    for k in range(1, n + 1):
        x = FreeWord.generator(n, k)
        if artin_action(a, x) != artin_action(b, x):
            return False
    return True


def braid_permutation(b: BraidWord) -> Permutation:
    """Underlying symmetric-group image: s_i maps to the transposition (i, i+1)."""
    perm = Permutation.identity(b.strands)
    for a in b.letters:
        i = abs(a)
        perm = perm * Permutation.transposition(b.strands, i, i + 1)
    return perm


def exponent_sum(b: BraidWord) -> int:
    """Sum of letter signs; an invariant of braid equality."""
    return sum(1 if a > 0 else -1 for a in b.letters)


def _solve_for(letters: tuple[int, ...], gen: int) -> dict[int, tuple[int, ...]] | None:
    """If gen occurs exactly once in the relator, the substitution that
    writes gen and its inverse as words in the remaining generators."""
    hits = [k for k, a in enumerate(letters) if abs(a) == gen]
    if len(hits) != 1:
        return None
    k = hits[0]
    u, s, v = letters[:k], letters[k], letters[k + 1 :]
    # u g v = 1  =>  g = (v u)^-1 ; u g^-1 v = 1  =>  g = v u.
    vu = tuple(reduce_onto(list(v), u))
    expr = vu if s < 0 else invert(vu)
    return {gen: expr, -gen: invert(expr)}


def donors(rank: int, rels: list[tuple[int, ...]]) -> Iterator[tuple[int, int, dict]]:
    """Each (k, g, rule) such that relator k contains generator g exactly
    once and `rule` solves it for g, relator by relator: the donor search
    of eliminate_generators and of presentations.simplify."""
    for k, r in enumerate(rels):
        for g in range(1, rank + 1):
            rule = _solve_for(r, g)
            if rule is not None:
                yield k, g, rule


def delete_generator(letters: Sequence[int], gen: int) -> tuple[int, ...]:
    """Drop the letters x_gen^{+-1} and renumber x_k as x_{k-1} for k > gen."""
    out = []
    for a in letters:
        g = abs(a)
        if g != gen:
            g = g - 1 if g > gen else g
            out.append(g if a > 0 else -g)
    return tuple(out)


def eliminate_generators(
    rank: int, relators: list[tuple[int, ...]]
) -> tuple[int, list[tuple[int, ...]]]:
    """Tietze-eliminate the generators that relators pin down.

    While the donor search finds a relator that contains a generator
    exactly once, solve the first such relator for its lowest such
    generator, substitute the solution into the other relators, and drop
    the relator and the generator.  Returns the new rank and the
    nontrivial relators that remain.
    """
    while (pick := next(donors(rank, relators), None)) is not None:
        k, g, rule = pick
        others = relators[:k] + relators[k + 1 :]
        out = [delete_generator(substitute(r, rule), g) for r in others]
        relators = [r for r in out if r]
        rank -= 1
    return rank, relators
