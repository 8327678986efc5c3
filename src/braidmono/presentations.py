"""Finite presentations and Tietze-style simplification.

Relators live in a fixed free group; the generator set never changes
during simplification, because the presentations produced downstream
keep one generator per curve branch.  Simplification therefore uses
only relator-level moves: canonical cyclic reduction, substitution of
a generator expressed by one relator into the others, length-reducing
relator products, and dropping relators derivable from the rest.

Derivability (membership in the normal closure) is checked by a
best-first search on cyclic words and returns Derivable or Unknown,
never a false positive.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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
        rels = "; ".join(_word_str(r) for r in self.relators) or "-"
        return "< %s | %s >" % (gens, rels)


def _word_str(w: FreeWord) -> str:
    if not w.letters:
        return "1"
    parts = []
    for a in w.letters:
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


def _solve_for(
    letters: tuple[int, ...], gen: int
) -> dict[int, tuple[int, ...]] | None:
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


def simplify(
    p: Presentation,
    *,
    max_len: int = DEFAULT_MAX_LEN,
    budget: int = DEFAULT_BUDGET,
) -> SimplifyResult:
    """Shorten and prune relators without touching the generator set.

    Deterministic: phases run in a fixed order and each phase scans
    relators in a fixed order, restarting after every applied move.
    """
    moves: list[str] = []
    truncated = False
    rels: list[tuple[int, ...]] = []
    for r in p.relators:
        c = canonical_relator(r).letters
        if not c:
            if r.letters:
                moves.append("drop trivial relator %s" % _word_str(r))
            continue
        if c in rels:
            moves.append("drop duplicate relator %s" % _word_str(r))
            continue
        if c != r.letters:
            moves.append(
                "canonicalise %s -> %s"
                % (_word_str(r), _word_str(FreeWord(p.rank, c)))
            )
        rels.append(c)

    guard = 0
    while True:
        guard += 1
        if guard > 10_000:
            truncated = True
            break
        changed = False

        # Drop relators derivable from the others, longest first.  The
        # inner searches get a small budget and a tight length cap:
        # genuine dependencies resolve in a handful of expansions, and
        # hopeless ones should fail fast.
        drop_budget = min(budget, 2000)
        drop_len = min(max_len, 2 * max((len(r) for r in rels), default=0) + 4)
        order = sorted(range(len(rels)), key=lambda k: (-len(rels[k]), -k))
        for k in order:
            rest = [FreeWord(p.rank, r) for i, r in enumerate(rels) if i != k]
            if not rest:
                continue
            verdict = is_consequence(
                rest, FreeWord(p.rank, rels[k]), max_len=drop_len, budget=drop_budget
            )
            if verdict is Verdict.DERIVABLE:
                moves.append(
                    "drop derivable relator %s" % _word_str(FreeWord(p.rank, rels[k]))
                )
                del rels[k]
                changed = True
                break
        if changed:
            continue

        # Use a relator that pins down a generator to shorten others.
        donors = sorted(
            (
                (len(r), g, k)
                for k, r in enumerate(rels)
                for g in range(1, p.rank + 1)
                if _solve_for(r, g) is not None
            ),
        )
        for _, g, k in donors:
            rule = _solve_for(rels[k], g)
            for j, s in enumerate(rels):
                if j == k:
                    continue
                cand = canonical_relator(
                    FreeWord(p.rank, substitute(s, rule))
                ).letters
                if cand and len(cand) < len(s) and cand not in rels:
                    moves.append(
                        "substitute x%d from %s into %s"
                        % (g, _word_str(FreeWord(p.rank, rels[k])),
                           _word_str(FreeWord(p.rank, s)))
                    )
                    rels[j] = cand
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue

        # Length-reducing products with rotations of other relators.
        for j, s in enumerate(rels):
            for k, r in enumerate(rels):
                if j == k:
                    continue
                for m in _rotations(r) + _rotations(_invert(r)):
                    cand = canonical_relator(
                        FreeWord(p.rank, reduce_onto(list(s), m))
                    ).letters
                    if cand and len(cand) < len(s) and cand not in rels:
                        moves.append(
                            "multiply %s by a conjugate of %s"
                            % (_word_str(FreeWord(p.rank, s)),
                               _word_str(FreeWord(p.rank, rels[k])))
                        )
                        rels[j] = cand
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
        if not changed:
            break

    out = Presentation(p.rank, tuple(FreeWord(p.rank, r) for r in rels))
    return SimplifyResult(out, tuple(moves), truncated)


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

    While some relator contains a generator exactly once, solve that
    relator for the generator, substitute the solution into the other
    relators, and drop the relator and the generator.  Returns the new
    rank and the nontrivial relators that remain.
    """
    while True:
        pick = None
        for k, r in enumerate(relators):
            for g in range(1, rank + 1):
                rule = _solve_for(r, g)
                if rule is not None:
                    pick = (k, g, rule)
                    break
            if pick:
                break
        if not pick:
            return rank, relators
        k, g, rule = pick
        out = []
        for j, r in enumerate(relators):
            if j == k:
                continue
            out.append(_delete_generator(substitute(r, rule), g))
        relators = [r for r in out if r]
        rank -= 1


def kill_generator(p: Presentation, gen: int) -> Presentation:
    """Set generator `gen` to the identity and renumber the rest."""
    if not 1 <= gen <= p.rank:
        raise DimensionMismatchError("no generator x%d in rank %d" % (gen, p.rank))
    new_rank = p.rank - 1
    rels = []
    for r in p.relators:
        w = FreeWord(new_rank, _delete_generator(r.letters, gen))
        if w.letters:
            rels.append(w)
    return Presentation(new_rank, tuple(rels))
