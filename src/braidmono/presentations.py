"""Finite presentations, Tietze simplification and Tietze elimination.

Simplification keeps the generator set, because the presentations
produced downstream keep one generator per curve branch.  It uses only
relator-level moves: canonical cyclic reduction, substitution of a
generator expressed by one relator into the others, length-reducing
relator products, and dropping relators derivable from the rest.
Elimination, run before counting homomorphisms, drops the generators
that relators pin down.  Both find such a relator by one donor search.

Derivability (membership in the normal closure) is checked by a
best-first search on cyclic words and returns Derivable or Unknown,
never a false positive.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterator, Sequence

from .errors import DimensionMismatchError, MalformedWordError
from .words import FreeWord, reduce_onto, substitute

__all__ = [
    "Presentation",
    "SimplifyResult",
    "Verdict",
    "canonical_relator",
    "simplify",
    "is_consequence",
    "eliminate_generators",
    "kill_generator",
]

DEFAULT_MAX_LEN = 64
DEFAULT_BUDGET = 100_000


def _cyclic_reduce(letters: Sequence[int]) -> tuple[int, ...]:
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return tuple(letters[i : j + 1])


def _rotations(letters: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [letters[k:] + letters[:k] for k in range(len(letters))]


def _least_rotation(core: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least cyclic rotation of a nonempty word.

    That rotation starts with the word's smallest letter, so only the
    start positions holding it are compared.
    """
    n = len(core)
    low = min(core)
    doubled = core + core
    return min(doubled[i : i + n] for i in range(n) if core[i] == low)


def _invert(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-a for a in reversed(letters))


def canonical_relator(w: FreeWord) -> FreeWord:
    """Lexicographically least cyclic rotation of the relator or its inverse.

    Two relators define the same normal closure element up to conjugacy
    and inversion exactly when their canonical forms coincide.
    """
    core = _cyclic_reduce(w.letters)
    if not core:
        return FreeWord(w.rank, ())
    best = min(_least_rotation(core), _least_rotation(_invert(core)))
    return FreeWord(w.rank, best)


@dataclass(frozen=True)
class Presentation:
    """Group presentation with generators x1..x_rank and explicit relators."""

    rank: int
    relators: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise MalformedWordError("rank must be nonnegative")
        rels = []
        for r in self.relators:
            if not isinstance(r, FreeWord):
                r = FreeWord(self.rank, tuple(r))
            if r.rank != self.rank:
                raise DimensionMismatchError(
                    "relator rank %d does not match presentation rank %d"
                    % (r.rank, self.rank)
                )
            rels.append(r)
        object.__setattr__(self, "relators", tuple(rels))

    def canonical_relator_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(
            canonical_relator(r).letters for r in self.relators if r.letters
        )

    def same_relators(self, other: "Presentation") -> bool:
        return (
            self.rank == other.rank
            and self.canonical_relator_set() == other.canonical_relator_set()
        )

    def __str__(self) -> str:
        gens = ", ".join("x%d" % (i + 1) for i in range(self.rank))
        rels = "; ".join(_word_str(r.letters) for r in self.relators) or "-"
        return "< %s | %s >" % (gens, rels)


def _word_str(letters: Sequence[int]) -> str:
    if not letters:
        return "1"
    parts = []
    for a in letters:
        parts.append("x%d" % a if a > 0 else "x%d^-1" % -a)
    return " ".join(parts)


class Verdict(Enum):
    DERIVABLE = "Derivable"
    UNKNOWN = "Unknown"


def is_consequence(
    relators: Sequence[FreeWord],
    word: FreeWord,
    *,
    max_len: int = DEFAULT_MAX_LEN,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Search for a derivation of `word` from the normal closure of `relators`.

    States are cyclic words, each stored as its least rotation: the
    lexicographically least rotation of the letters, never of the
    inverse word.  Successors multiply by a cyclic rotation of a relator
    or its inverse; a successor longer than `max_len` once cyclically
    reduced is discarded before it is brought to that form.  Best-first
    on length, so a Derivable answer is a genuine derivation; Unknown
    only means the budget ran out.
    """
    target = _cyclic_reduce(word.letters)
    if not target:
        return Verdict.DERIVABLE
    by_first: dict[int, list[tuple[int, ...]]] = {}
    seen_m = set()
    for r in relators:
        core = _cyclic_reduce(r.letters)
        if not core:
            continue
        for rot in _rotations(core) + _rotations(_invert(core)):
            if rot not in seen_m:
                seen_m.add(rot)
                by_first.setdefault(rot[0], []).append(rot)
    if not seen_m:
        return Verdict.UNKNOWN

    start = _least_rotation(target)
    seen = {start}
    heap: list[tuple[int, int, tuple[int, ...]]] = [(len(start), 0, start)]
    expanded = 0
    tick = 0
    while heap and expanded < budget:
        _, _, state = heapq.heappop(heap)
        expanded += 1
        # Only multiply where the junction cancels: rotate the state so
        # it ends in letter a, then append a multiplier starting with
        # -a.  Products without cancellation never shorten anything and
        # are skipped, which keeps the frontier small; the cost is that
        # an exhausted search reports Unknown rather than a proof of
        # independence.
        for end in range(len(state)):
            mults = by_first.get(-state[end])
            if not mults:
                continue
            rot_state = state[end + 1 :] + state[: end + 1]
            for m in mults:
                core = _cyclic_reduce(reduce_onto(list(rot_state), m))
                if not core:
                    return Verdict.DERIVABLE
                if len(core) > max_len:
                    continue
                nxt = _least_rotation(core)
                if nxt in seen:
                    continue
                seen.add(nxt)
                tick += 1
                heapq.heappush(heap, (len(nxt), tick, nxt))
    return Verdict.UNKNOWN


@dataclass(frozen=True)
class SimplifyResult:
    presentation: Presentation
    moves: tuple[str, ...]
    truncated: bool


# A relator as a letter tuple, and a move: its text, the index of the
# relator it changes, and the new relator or None to delete that one.
_Rel = tuple[int, ...]
_Move = tuple[str, int, _Rel | None]


def _solve_for(letters: _Rel, gen: int) -> dict[int, _Rel] | None:
    """If gen occurs exactly once in the relator, the substitution that
    writes gen and its inverse as words in the remaining generators."""
    hits = [k for k, a in enumerate(letters) if abs(a) == gen]
    if len(hits) != 1:
        return None
    k = hits[0]
    u, s, v = letters[:k], letters[k], letters[k + 1 :]
    # u g v = 1  =>  g = (v u)^-1 ; u g^-1 v = 1  =>  g = v u.
    vu = tuple(reduce_onto(list(v), u))
    expr = vu if s < 0 else _invert(vu)
    return {gen: expr, -gen: _invert(expr)}


def _donors(rank: int, rels: list[_Rel]) -> Iterator[tuple[int, int, dict[int, _Rel]]]:
    """Each (k, g, rule) such that relator k contains generator g exactly
    once and `rule` solves it for g, relator by relator."""
    for k, r in enumerate(rels):
        for g in range(1, rank + 1):
            rule = _solve_for(r, g)
            if rule is not None:
                yield k, g, rule


def _shorter(rank: int, s: _Rel, word: Sequence[int], rels: list[_Rel]) -> _Rel | None:
    """Canonical `word` if it is nontrivial, shorter than `s` and new."""
    cand = canonical_relator(FreeWord(rank, word)).letters
    return cand if cand and len(cand) < len(s) and cand not in rels else None


def _drops(rank: int, rels: list[_Rel], max_len: int, budget: int) -> Iterator[_Move]:
    """Relators derivable from the others, longest first.  The searches
    get a small budget and a tight length cap: genuine dependencies
    resolve in a handful of expansions, and hopeless ones fail fast."""
    drop_len = min(max_len, 2 * max((len(r) for r in rels), default=0) + 4)
    for k in sorted(range(len(rels)), key=lambda k: (-len(rels[k]), -k)):
        rest = [FreeWord(rank, r) for i, r in enumerate(rels) if i != k]
        if rest and is_consequence(
            rest, FreeWord(rank, rels[k]), max_len=drop_len, budget=min(budget, 2000)
        ) is Verdict.DERIVABLE:
            yield "drop derivable relator %s" % _word_str(rels[k]), k, None


def _substitutions(rank: int, rels: list[_Rel]) -> Iterator[_Move]:
    """Relators shortened by a donor's rule, shortest donor first."""
    donors = sorted(_donors(rank, rels), key=lambda d: (len(rels[d[0]]), d[1], d[0]))
    for k, g, rule in donors:
        for j, s in enumerate(rels):
            if j == k:
                continue
            cand = _shorter(rank, s, substitute(s, rule), rels)
            if cand:
                text = "substitute x%d from %s into %s"
                yield text % (g, _word_str(rels[k]), _word_str(s)), j, cand


def _products(rank: int, rels: list[_Rel]) -> Iterator[_Move]:
    """Relators shortened by a product with a rotation of another."""
    for j, s in enumerate(rels):
        for r in rels[:j] + rels[j + 1 :]:
            for m in _rotations(r) + _rotations(_invert(r)):
                cand = _shorter(rank, s, reduce_onto(list(s), m), rels)
                if cand:
                    text = "multiply %s by a conjugate of %s"
                    yield text % (_word_str(s), _word_str(r)), j, cand


def simplify(
    p: Presentation,
    *,
    max_len: int = DEFAULT_MAX_LEN,
    budget: int = DEFAULT_BUDGET,
) -> SimplifyResult:
    """Shorten and prune relators without touching the generator set.

    After canonicalisation, each of at most 10,000 rounds applies the
    first move of three phases, tried in order: drop a derivable
    relator, substitute a donor's generator (the donor search that
    eliminate_generators shares), multiply by a conjugate.  Running out
    of rounds sets `truncated`.  Drop searches use min(budget, 2000), so
    a larger budget changes nothing there.  Deterministic: each phase
    scans relators in a fixed order.
    """
    moves: list[str] = []
    rels: list[_Rel] = []
    for r in p.relators:
        c = canonical_relator(r).letters
        if not c:
            if r.letters:
                moves.append("drop trivial relator %s" % _word_str(r.letters))
            continue
        if c in rels:
            moves.append("drop duplicate relator %s" % _word_str(r.letters))
            continue
        if c != r.letters:
            moves.append("canonicalise %s -> %s" % (_word_str(r.letters), _word_str(c)))
        rels.append(c)

    truncated = False
    for _ in range(10_000):
        phases = chain(
            _drops(p.rank, rels, max_len, budget),
            _substitutions(p.rank, rels),
            _products(p.rank, rels),
        )
        move = next(phases, None)
        if move is None:
            break
        text, k, new = move
        moves.append(text)
        if new is None:
            del rels[k]
        else:
            rels[k] = new
    else:
        truncated = True
    return SimplifyResult(Presentation(p.rank, tuple(rels)), tuple(moves), truncated)


def _delete_generator(letters: Sequence[int], gen: int) -> tuple[int, ...]:
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

    While the donor search shared with simplify finds a relator that
    contains a generator exactly once, solve the first such relator for
    its lowest such generator, substitute the solution into the other
    relators, and drop the relator and the generator.  Returns the new
    rank and the nontrivial relators that remain.
    """
    while (pick := next(_donors(rank, relators), None)) is not None:
        k, g, rule = pick
        others = relators[:k] + relators[k + 1 :]
        out = [_delete_generator(substitute(r, rule), g) for r in others]
        relators = [r for r in out if r]
        rank -= 1
    return rank, relators


def kill_generator(p: Presentation, gen: int) -> Presentation:
    """Set generator `gen` to the identity and renumber the rest."""
    if not 1 <= gen <= p.rank:
        raise DimensionMismatchError("no generator x%d in rank %d" % (gen, p.rank))
    rels = (_delete_generator(r.letters, gen) for r in p.relators)
    return Presentation(p.rank - 1, tuple(r for r in rels if r))
