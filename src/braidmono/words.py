"""Free-group words, braid words, the Artin action, Garside normal forms
and braid equality, and Tietze elimination.

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

from .errors import CapacityError, DimensionMismatchError, MalformedWordError


def reduce_onto(out: list[int], letters: Iterable[int]) -> list[int]:
    """Append letters to the freely reduced word `out` and return it.

    Each letter cancels against the end of `out` when it is its inverse,
    so `out` stays freely reduced.  Substitutions and the Artin action
    use it; relator products in presentations, whose two factors are
    always reduced, cancel at their junction themselves.
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
        if not isinstance(self.rank, int) or self.rank < 1:
            raise MalformedWordError("rank must be a positive int, got %r" % (self.rank,))
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
        if not isinstance(self.strands, int) or self.strands < 1:
            raise MalformedWordError(
                "strand count must be a positive int, got %r" % (self.strands,)
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
        if len(letters) > MAX_IMAGE_LETTERS:
            raise CapacityError("braid image has more than %d letters" % MAX_IMAGE_LETTERS)
    return FreeWord(w.rank, letters)


# Garside normal form (Garside 1969; Elrifai & Morton 1994).  A simple
# braid, a positive braid in which each pair of strands crosses at most
# once, is stored as its permutation a: a[j] is the final position of
# the strand that starts at position j (0-based).  Simple braids
# multiply like their permutations, left to right.  Delta, the half
# twist, is (n-1, ..., 1, 0); tau(A) = Delta^-1 A Delta maps s_i to
# s_{n-i}.  A normal form Delta^p A_1 ... A_k is the pair (p, (A_1, ...,
# A_k)) with no A_j equal to Delta or to the identity, and each pair
# (A_j, A_{j+1}) left-weighted.
NormalForm = tuple[int, tuple[tuple[int, ...], ...]]

# CapacityError once an image under a prefix (artin_action) or a suffix
# (braid_images) of the braid outgrows this: images can grow exponentially in
# its length, and simplify's time on the induced relators about cubically in theirs.
MAX_IMAGE_LETTERS = 500


def _tau(a: tuple[int, ...]) -> tuple[int, ...]:
    n = len(a)
    return tuple(n - 1 - a[n - 1 - j] for j in range(n))


def _inverse(a: Sequence[int]) -> list[int]:
    q = [0] * len(a)
    for j, v in enumerate(a):
        q[v] = j
    return q


@lru_cache(maxsize=1 << 12)
def _left_weight(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(a', b') with a' b' = a b and every s_j that starts b' finishing a'.

    Each s_j that starts b (strands j, j+1 cross in b) but does not
    finish a (strands ending at j, j+1 have not crossed in a) moves from
    b to a; both stay simple.  a is kept as its inverse q.
    """
    q, b2 = _inverse(a), list(b)
    j = 0
    while j < len(b2) - 1:
        if b2[j] > b2[j + 1] and q[j] < q[j + 1]:
            q[j], q[j + 1] = q[j + 1], q[j]
            b2[j], b2[j + 1] = b2[j + 1], b2[j]
            j = max(j - 1, 0)
        else:
            j += 1
    return tuple(_inverse(q)), tuple(b2)


def _normal_form(n: int, p: int, factors: Iterable[tuple[int, ...]]) -> NormalForm:
    """Normal form of Delta^p times the product of the simple `factors`.

    Each factor is appended and the adjacent pairs are made left-weighted
    from the right until one is already left-weighted; Delta factors end
    up in front and identity factors at the back.
    """
    out: list[tuple[int, ...]] = []
    for f in factors:
        out.append(f)
        k = len(out) - 1
        while k > 0:
            pair = _left_weight(out[k - 1], out[k])
            if pair == (out[k - 1], out[k]):
                break
            out[k - 1], out[k] = pair
            k -= 1
    identity, delta = tuple(range(n)), tuple(range(n - 1, -1, -1))
    while out and out[-1] == identity:
        out.pop()
    lead = 0
    while lead < len(out) and out[lead] == delta:
        lead += 1
    return p + lead, tuple(out[lead:])


def left_normal_form(b: BraidWord) -> NormalForm:
    """Garside's left normal form Delta^p A_1 ... A_k of b, as (p, factors).

    One pass from the right writes each s_i^-1 as Delta^-1 (Delta s_i^-1)
    and moves the Delta^-1 to the front; a factor passes one Delta^-1 for
    each inverse letter to its right, so it is replaced by tau of itself
    when their number is odd.
    """
    n = b.strands
    delta = tuple(range(n - 1, -1, -1))
    p, factors = 0, []
    for a in reversed(b.letters):
        i, s = abs(a), list(range(n))
        s[i - 1], s[i] = i, i - 1
        f = tuple(s) if a > 0 else tuple(s[v] for v in delta)
        factors.append(_tau(f) if p % 2 else f)
        p -= a < 0
    return _normal_form(n, p, reversed(factors))


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """Decide equality in the braid group by comparing left normal forms."""
    if a.strands != b.strands:
        raise DimensionMismatchError(
            "cannot compare braids on %d and %d strands" % (a.strands, b.strands)
        )
    return left_normal_form(a) == left_normal_form(b)


def braid_permutation(b: BraidWord) -> Permutation:
    """Underlying symmetric-group image: s_i maps to the transposition (i, i+1)."""
    images = list(range(1, b.strands + 1))
    for a in b.letters:
        i = abs(a)
        p, q = images.index(i), images.index(i + 1)
        images[p], images[q] = i + 1, i
    return Permutation(tuple(images))


def exponent_sum(b: BraidWord) -> int:
    """Sum of letter signs; an invariant of braid equality."""
    return sum(1 if a > 0 else -1 for a in b.letters)


def donors(rank: int, rels: list[tuple[int, ...]]) -> Iterator[tuple[int, int, dict]]:
    """Each (k, g, rule) such that relator k contains generator g exactly
    once and `rule` writes g and its inverse as words in the remaining
    generators, relator by relator and generator by generator: the donor
    search of eliminate_generators and of presentations.simplify.  One
    pass over a relator's letters finds where each generator occurs
    once, None where it recurs."""
    for k, r in enumerate(rels):
        at: dict[int, int | None] = {}
        for i, a in enumerate(r):
            at[abs(a)] = None if abs(a) in at else i
        for g in sorted(at):
            if (i := at[g]) is not None and g <= rank:
                # u g v = 1  =>  g = (v u)^-1 ; u g^-1 v = 1  =>  g = v u.
                vu = tuple(reduce_onto(list(r[i + 1 :]), r[:i]))
                expr = vu if r[i] < 0 else invert(vu)
                yield k, g, {g: expr, -g: invert(expr)}


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
