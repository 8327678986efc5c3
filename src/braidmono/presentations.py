"""Finite presentations, Tietze simplification and Tietze elimination.

Simplification keeps the generator set, because the presentations
produced downstream keep one generator per curve branch.  It uses only
relator-level moves: canonical cyclic reduction, substitution of a
generator expressed by one relator into the others, length-reducing
relator products, and dropping relators derivable from the rest.
Its donor search is the one words.eliminate_generators runs.

Derivability (membership in the normal closure) gets one of three
verdicts.  Independent is proved by a finite quotient that kills the
relators but not the word; Derivable by a derivation, found by a
best-first search on cyclic words that stops when it generates a
rotation of a relator or its inverse.  Unknown proves nothing: the
search ran out of budget, and a verdict can move only from Unknown to
Derivable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import chain
from typing import Iterator, Sequence

from .errors import DimensionMismatchError, MalformedWordError
from .homcount import FiniteGroupTable, _counted, count_memo, default_targets
from .words import FreeWord, delete_generator, donors, invert, substitute

DEFAULT_MAX_LEN = 64
DEFAULT_BUDGET = 100_000


def _cyclic_reduce(letters: Sequence[int]) -> tuple[int, ...]:
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return tuple(letters[i : j + 1])


def _cyclic_product(
    s: tuple[int, ...], m: tuple[int, ...], cap: int
) -> tuple[int, ...] | None:
    """Cyclic reduction of s m for reduced s and m, or None if it has more
    than `cap` letters.  s m cancels k letters at the junction and,
    cyclically, c more at its ends; unless either run eats a whole
    factor, that leaves |s| + |m| - 2(k + c), known before it is built."""
    top = min(len(s), len(m))
    k = c = 0
    while k < top and m[k] == -s[-1 - k]:
        k += 1
    while c < top - k and s[c] == -m[-1 - c]:
        c += 1
    if c < top - k:
        if len(s) + len(m) - 2 * (k + c) > cap:
            return None
        return s[c : len(s) - k] + m[k : len(m) - c]
    core = _cyclic_reduce(s[: len(s) - k] + m[k:])
    return core if len(core) <= cap else None


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


def _canonical(core: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation of a nonempty cyclically reduced word or its inverse."""
    return min(_least_rotation(core), _least_rotation(invert(core)))


def canonical_relator(w: FreeWord) -> FreeWord:
    """Lexicographically least cyclic rotation of the relator or its inverse.

    Two relators define the same normal closure element up to conjugacy
    and inversion exactly when their canonical forms coincide.
    """
    core = _cyclic_reduce(w.letters)
    return FreeWord(w.rank, _canonical(core) if core else ())


@dataclass(frozen=True)
class Presentation:
    """Group presentation with generators x1..x_rank and explicit relators;
    those that freely reduce to 1 are dropped, the rest keep their order."""

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
            if r.letters:
                rels.append(r)
        object.__setattr__(self, "relators", tuple(rels))

    def canonical_relator_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(canonical_relator(r).letters for r in self.relators)

    def __str__(self) -> str:
        gens = ", ".join("x%d" % (i + 1) for i in range(self.rank))
        rels = "; ".join(_word_str(r.letters) for r in self.relators) or "-"
        return "< %s | %s >" % (gens, rels)


def _word_str(letters: Sequence[int]) -> str:
    return " ".join("x%d" % a if a > 0 else "x%d^-1" % -a for a in letters) or "1"


class Verdict(Enum):
    DERIVABLE = "Derivable"
    INDEPENDENT = "Independent"
    UNKNOWN = "Unknown"


@cache
def _battery() -> tuple[list[tuple[str, FiniteGroupTable]], ...]:
    """The witness groups: S3 and C4 before the search, Q8 and S4 after.
    A map into a subgroup H of G is one into G, so when H kills the
    relators but not the word, G does too.  C2 and C3 embed in S3, and
    D4, A4, S3 and C4 in S4; a map into C6 = C2 x C3 or D6 = S3 x C2
    that tells has a factor that tells.  So these find a witness exactly
    when default_targets() does.  Q8 and S4 wait for the search, because
    a consequence, which has no witness, pays for every count.  Each
    half counts a presentation in one call (witness)."""
    groups = dict(default_targets())
    return [(g, groups[g]) for g in ("S3", "C4")], [(g, groups[g]) for g in ("Q8", "S4")]


def witness(
    rest: Presentation, word: FreeWord, groups: Sequence[tuple[str, FiniteGroupTable]]
) -> str | None:
    """The first group G of `groups` with fewer homomorphisms from
    ⟨X | rest, word⟩ than from ⟨X | rest⟩, or None.  Some map to G kills
    every relator but not `word`, so `word` is no consequence.  Each
    presentation is counted into all of `groups` in one call."""
    full = Presentation(rest.rank, rest.relators + (word,))
    tables = [g for _, g in groups]
    return next((name for (name, _), a, b in zip(groups, _counted(rest, tables), _counted(full, tables))
                 if a != b), None)


def is_consequence(
    relators: Sequence[FreeWord],
    word: FreeWord,
    *,
    max_len: int = DEFAULT_MAX_LEN,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Decide whether `word` lies in the normal closure of `relators`.

    Independent when a group of default_targets() witnesses that it
    does not: S3 or C4 before the search, which then could never
    succeed and is skipped, or Q8 or S4 once it runs out; the other
    groups cannot tell more, and each half is counted in one call (see
    _battery).  Search states are cyclic words, each stored as its least
    rotation: the lexicographically least rotation of the letters, never
    of the inverse word.
    Successors multiply by a cyclic rotation of a relator or its
    inverse; a successor longer than `max_len` once cyclically reduced
    is discarded, mostly before it is built (_cyclic_product).
    Best-first on length; the goal test is made on generating a state,
    so the search stops at the start word or the first successor that is
    a rotation of a relator or its inverse, one multiplication from the
    empty word.  A Derivable answer is a genuine derivation; Unknown
    only means the budget ran out and no group told, and a verdict can
    move only from Unknown to Derivable.
    """
    # Raises DimensionMismatchError unless every rank is the word's.
    rest = Presentation(word.rank, tuple(relators))
    target = _cyclic_reduce(word.letters)
    if not target:
        return Verdict.DERIVABLE
    small, large = _battery()
    if witness(rest, word, small) is not None:
        return Verdict.INDEPENDENT
    by_first: dict[int, list[tuple[int, ...]]] = {}
    seen_m = set()
    for r in rest.relators:
        core = _cyclic_reduce(r.letters)
        for rot in _rotations(core) + _rotations(invert(core)):
            if rot not in seen_m:
                seen_m.add(rot)
                by_first.setdefault(rot[0], []).append(rot)
    if target in seen_m:
        return Verdict.DERIVABLE

    start = _least_rotation(target)
    seen = {start}
    heap: list[tuple[int, int, tuple[int, ...]]] = [(len(start), 0, start)]
    expanded = tick = 0
    while heap and expanded < budget:
        _, _, state = heapq.heappop(heap)
        expanded += 1
        # Only multiply where the junction cancels: rotate the state so
        # it ends in letter a, then append a multiplier starting with
        # -a.  Products without cancellation never shorten anything and
        # are skipped, which keeps the frontier small; the cost is that
        # an exhausted search proves nothing.
        for end in range(len(state)):
            mults = by_first.get(-state[end])
            if not mults:
                continue
            rot_state = state[end + 1 :] + state[: end + 1]
            for m in mults:
                core = _cyclic_product(rot_state, m, max_len)
                if core is None:
                    continue
                if core in seen_m:
                    return Verdict.DERIVABLE
                nxt = _least_rotation(core)
                if nxt in seen:
                    continue
                seen.add(nxt)
                tick += 1
                heapq.heappush(heap, (len(nxt), tick, nxt))
    found = witness(rest, word, large) is not None
    return Verdict.INDEPENDENT if found else Verdict.UNKNOWN


@dataclass(frozen=True)
class SimplifyResult:
    presentation: Presentation
    moves: tuple[str, ...]
    truncated: bool


# A relator as a letter tuple, and a move: its text, the index of the
# relator it changes, the new relator or None to delete that one, and
# the index of the relator it used (the donor or the multiplier; a drop
# uses only the relator it deletes).
_Rel = tuple[int, ...]
_Move = tuple[str, int, _Rel | None, int]


def _shorter(s: _Rel, word: Sequence[int], rels: list[_Rel]) -> _Rel | None:
    """Canonical freely reduced `word` if it is nontrivial, shorter than
    `s` and new; the length is tested before canonicalising."""
    core = _cyclic_reduce(word)
    cand = _canonical(core) if 0 < len(core) < len(s) else None
    return None if cand in rels else cand


def _drops(
    rank: int, rels: list[_Rel], max_len: int, budget: int, independent: set[_Rel]
) -> Iterator[_Move]:
    """Relators derivable from the others, longest first, skipping those
    in `independent` and adding those proved Independent to it.  The
    searches get simplify's small budget and a tight length cap: genuine
    dependencies resolve in a handful of expansions, and hopeless ones
    fail fast."""
    if len(rels) < 2:
        return
    drop_len = min(max_len, 2 * max(map(len, rels)) + 4)
    words = [FreeWord(rank, r) for r in rels]
    for k in sorted(range(len(rels)), key=lambda k: (-len(rels[k]), -k)):
        if rels[k] in independent:
            continue
        verdict = is_consequence(words[:k] + words[k + 1 :], words[k],
                                 max_len=drop_len, budget=budget)
        if verdict is Verdict.INDEPENDENT:
            independent.add(rels[k])
        elif verdict is Verdict.DERIVABLE:
            yield "drop derivable relator %s" % _word_str(rels[k]), k, None, k


def _substitutions(rank: int, rels: list[_Rel]) -> Iterator[_Move]:
    """Relators shortened by a donor's rule, shortest donor first."""
    picks = sorted(donors(rank, rels), key=lambda d: (len(rels[d[0]]), d[1], d[0]))
    for k, g, rule in picks:
        for j, s in enumerate(rels):
            if j == k:
                continue
            cand = _shorter(s, substitute(s, rule), rels)
            if cand:
                text = "substitute x%d from %s into %s"
                yield text % (g, _word_str(rels[k]), _word_str(s)), j, cand, k


def _products(rels: list[_Rel]) -> Iterator[_Move]:
    """Relators shortened by a product with a rotation of another; most
    are ruled out by length before they are built (_cyclic_product)."""
    mults = [_rotations(r) + _rotations(invert(r)) for r in rels]
    for j, s in enumerate(rels):
        for i, r in enumerate(rels):
            if i == j:
                continue
            for m in mults[i]:
                core = _cyclic_product(s, m, len(s) - 1)
                cand = _canonical(core) if core else None
                if cand and cand not in rels:
                    text = "multiply %s by a conjugate of %s"
                    yield text % (_word_str(s), _word_str(r)), j, cand, i


@count_memo()
def simplify(
    p: Presentation,
    *,
    max_len: int = DEFAULT_MAX_LEN,
    budget: int = 2000,
) -> SimplifyResult:
    """Shorten and prune relators without touching the generator set.

    After canonicalisation, each of at most 10,000 rounds applies the
    first move of three phases, tried in order: drop a derivable
    relator, substitute a donor's generator (the donor search that
    eliminate_generators shares), multiply by a conjugate.  Running out
    of rounds sets `truncated`.  Each drop search expands at most `budget`
    nodes, 2,000 by default.  Deterministic: each phase scans relators in
    a fixed order.  Candidates are rejected by length before they are
    canonicalised, products before they are built.  The witness tests of
    one call count each presentation once per group (homcount.count_memo).

    A relator proved Independent stays so until a move rewrites it or
    uses it, and is not searched again: a drop only shrinks the normal
    closure of the others, and a substitution or product rewrites one
    relator by others, which keeps the normal closure of every rest that
    holds both.  The witness that proved it still kills the new rest,
    so the search it skips would end Independent again.
    """
    moves: list[str] = []
    rels: list[_Rel] = []
    for r in p.relators:
        c = canonical_relator(r).letters
        if c in rels:
            moves.append("drop duplicate relator %s" % _word_str(r.letters))
            continue
        if c != r.letters:
            moves.append("canonicalise %s -> %s" % (_word_str(r.letters), _word_str(c)))
        rels.append(c)

    independent: set[_Rel] = set()
    truncated = False
    for _ in range(10_000):
        phases = chain(
            _drops(p.rank, rels, max_len, budget, independent),
            _substitutions(p.rank, rels),
            _products(rels),
        )
        move = next(phases, None)
        if move is None:
            break
        text, k, new, used = move
        moves.append(text)
        independent.difference_update((rels[k], rels[used]))
        if new is None:
            del rels[k]
        else:
            rels[k] = new
    else:
        truncated = True
    return SimplifyResult(Presentation(p.rank, tuple(rels)), tuple(moves), truncated)


def kill_generator(p: Presentation, gen: int) -> Presentation:
    """Set generator `gen` to the identity and renumber the rest."""
    if not 1 <= gen <= p.rank:
        raise DimensionMismatchError("no generator x%d in rank %d" % (gen, p.rank))
    rels = (delete_generator(r.letters, gen) for r in p.relators)
    # Killing the only generator kills every relator, and FreeWord refuses rank 0.
    return Presentation(p.rank - 1, tuple(rels) if p.rank > 1 else ())
