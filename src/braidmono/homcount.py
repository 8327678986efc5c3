"""Counting homomorphisms into small finite groups.

The number of homomorphisms from a finitely presented group into each
member of a battery of small finite groups is a cheap, exactly
computable invariant.  Two presentations with matching counts across
the battery are reported Consistent; a single mismatch proves the
groups differ and is reported Inconsistent.

Generators that occur exactly once in some relator are eliminated
first (their image is forced), and each generator left in no relator
contributes a factor |G|.  The rest are bound one at a time by
backtracking: the assignments that survive so far are extended by every
image of the next generator, and each relator is tested, dropping the
rows that fail it, as soon as its highest generator is bound.  With two
or more generators, x1 and x2 range together over one pair of each
orbit of G x G under simultaneous conjugation, each row weighted by the
orbit's size: conjugating a homomorphism by g maps those with (x1, x2)
-> (a, b) one-to-one onto those with (x1, x2) -> (g a g^-1, g b g^-1),
so the weighted sum is exact.  Products are read from flat tables at
a*n + b.  Rows are extended in batches of a fixed size, depth first, so
the working set stays bounded whatever the rank.  Each group's tables
are built on first use and kept with the group.

Inside a count_memo block a count is made once per presentation and
group: it depends only on the rank and the set of non-empty relators.
The elimination and the relator lists of the search do not depend on
the group, so inside a block they are made once per presentation and
reused across the battery.  A count_homomorphisms call outside any
block is its own block.  The memo lives only as long as the outermost
block, so nothing is cached from one verify_fixture or simplify call,
or bare count, to the next.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import GroupTableError
from .words import eliminate_generators

if TYPE_CHECKING:
    from .presentations import Presentation

# A header line of a target block, "order N" or "identity N", once stripped.
TARGET_HEADER = re.compile(r"(order|identity)\s+([0-9]+)")


@dataclass(frozen=True)
class FiniteGroupTable:
    """Finite group given by its multiplication table.

    table[a][b] is the product a*b; elements are 0..order-1.
    """

    order: int
    identity: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.order
        if n < 1:
            raise GroupTableError("group order must be positive")
        t = tuple(tuple(row) for row in self.table)
        if len(t) != n or any(len(row) != n for row in t):
            raise GroupTableError("table must be %d x %d" % (n, n))
        if any(not 0 <= v < n for row in t for v in row):
            raise GroupTableError("table entries must be elements 0..%d" % (n - 1))
        e = self.identity
        if not 0 <= e < n:
            raise GroupTableError("identity out of range")
        for a in range(n):
            if t[e][a] != a or t[a][e] != a:
                raise GroupTableError("identity axiom fails at element %d" % a)
        for a in range(n):
            if e not in t[a]:
                raise GroupTableError("element %d has no inverse" % a)
        arr = np.array(t, dtype=np.int64)
        # associativity: (a*b)*c == a*(b*c) for all triples
        left = arr[arr, :][:, :, :]
        right = arr[:, arr]
        if not np.array_equal(left, right):
            raise GroupTableError("table is not associative")
        object.__setattr__(self, "table", t)

    def inverse(self, a: int) -> int:
        return self.table[a].index(self.identity)

    @cached_property
    def _search(self) -> _SearchTables:
        """Arrays for count_homomorphisms, built on first use."""
        n = self.order
        table = np.array(self.table, dtype=np.min_scalar_type(n * n - 1))
        inv = np.argmax(table == self.identity, axis=1).astype(table.dtype)
        mul = table.ravel()
        least = np.arange(n * n, dtype=table.dtype)
        a, b = np.divmod(least, n)
        # The least code over the pairs (g^-1 a g, g^-1 b g) names the orbit.
        for g in range(n):
            conj = mul.take(table[inv[g]] * n + g)
            np.minimum(least, conj.take(a) * n + conj.take(b), out=least)
        pairs, weights = np.unique(least, return_counts=True)
        return _SearchTables(mul, table[:, inv].ravel(), inv, self.identity, pairs, weights)


class _SearchTables(NamedTuple):
    """Flat tables indexed by codes a*n + b, in a dtype that holds n*n - 1."""

    mul: np.ndarray  # mul[a*n + b] = a*b
    div: np.ndarray  # div[a*n + b] = a*b^-1
    inv: np.ndarray
    identity: int
    pairs: np.ndarray  # the least code of each conjugation orbit of pairs
    weights: np.ndarray  # the size of each orbit


def _generated(*gens: tuple[int, ...]) -> FiniteGroupTable:
    """The group generated by permutations of 0..d-1, closed breadth-first:
    the identity is element 0, the others numbered as first reached by right
    multiplication with a generator; a*b applies a, then b."""
    elems = [tuple(range(len(gens[0])))]
    index = {elems[0]: 0}
    for a in elems:
        for g in gens:
            c = tuple(g[x] for x in a)
            if c not in index:
                index[c] = len(elems)
                elems.append(c)
    table = tuple(tuple(index[tuple(b[x] for x in a)] for b in elems) for a in elems)
    return FiniteGroupTable(len(elems), 0, table)


def cyclic_group(n: int) -> FiniteGroupTable:
    if n < 1:
        raise GroupTableError("cyclic group needs order >= 1")
    # Element k is the k-th power of the n-cycle, so a*b is (a + b) mod n.
    return _generated(tuple(range(1, n)) + (0,))


def dihedral_group(n: int) -> FiniteGroupTable:
    """Symmetries of a regular n-gon, order 2n, acting on its flags (vertex
    i, side d) as 2i + d: faithful for n = 2 too, unlike on the vertices."""
    if n < 2:
        raise GroupTableError("dihedral group needs n >= 2")
    flags = [(i, d) for i in range(n) for d in (0, 1)]
    rotation = tuple(2 * ((i + 1) % n) + d for i, d in flags)
    reflection = tuple(2 * (-i % n) + 1 - d for i, d in flags)
    return _generated(rotation, reflection)


def symmetric_group(n: int) -> FiniteGroupTable:
    if not 1 <= n <= 5:
        raise GroupTableError("symmetric group supported for 1 <= n <= 5")
    # The n-cycle and the transposition (0 n-1) of two of its neighbours.
    swap = tuple(n - 1 - i if i in (0, n - 1) else i for i in range(n))
    return _generated(tuple(range(1, n)) + (0,), swap)


def alternating_group(n: int) -> FiniteGroupTable:
    if not 3 <= n <= 5:
        raise GroupTableError("alternating group supported for 3 <= n <= 5")
    # The 3-cycles (0 1 k) generate A_n.
    cycles = (tuple({0: 1, 1: k, k: 0}.get(i, i) for i in range(n)) for k in range(2, n))
    return _generated(*cycles)


def quaternion_group() -> FiniteGroupTable:
    """Order-8 quaternion group, as right multiplication by i and j on
    its elements 1, -1, i, -i, j, -j, k, -k."""
    return _generated((2, 3, 1, 0, 7, 6, 4, 5), (4, 5, 6, 7, 1, 0, 3, 2))


def default_targets() -> list[tuple[str, FiniteGroupTable]]:
    """Standard battery of ten small groups used for comparisons.

    The groups are built once; each call returns a new list of them.
    """
    return list(_built_targets())


@cache
def _built_targets() -> tuple[tuple[str, FiniteGroupTable], ...]:
    return (
        ("C2", cyclic_group(2)),
        ("C3", cyclic_group(3)),
        ("C4", cyclic_group(4)),
        ("C6", cyclic_group(6)),
        ("S3", symmetric_group(3)),
        ("D4", dihedral_group(4)),
        ("Q8", quaternion_group()),
        ("A4", alternating_group(4)),
        ("D6", dihedral_group(6)),
        ("S4", symmetric_group(4)),
    )


# A search plan: the exponent of the factor |G| for the generators in no
# relator, and the due lists of _backtrack.
_Plan = tuple[int, list[list[list[tuple[int, bool]]]]]
_Key = tuple[int, frozenset[tuple[int, ...]]]


class _Memo(NamedTuple):
    """What a count_memo block keeps, by (rank, relator set)."""

    counts: dict[tuple[_Key, FiniteGroupTable], int]
    plans: dict[_Key, _Plan]


# Each thread and task sees its own.
_memo: ContextVar[_Memo | None] = ContextVar("count_memo", default=None)


@contextmanager
def count_memo() -> Iterator[None]:
    """Count each presentation once per group, and plan it once, inside the block.

    A nested block shares the outer memo, which is dropped when the
    outermost block exits, whether or not it raised.
    """
    if _memo.get() is not None:
        yield
        return
    token = _memo.set(_Memo({}, {}))
    try:
        yield
    finally:
        _memo.reset(token)


def count_homomorphisms(p: Presentation, group: FiniteGroupTable) -> int:
    """Exact number of homomorphisms from the presented group into `group`."""
    relators = [r.letters for r in p.relators if r.letters]
    with count_memo():
        counts = _memo.get().counts
        key = ((p.rank, frozenset(relators)), group)
        if key not in counts:
            counts[key] = _count(p.rank, relators, group)
        return counts[key]


def _count(rank: int, relators: list[tuple[int, ...]], group: FiniteGroupTable) -> int:
    plans = _memo.get().plans
    key = (rank, frozenset(relators))
    if key not in plans:
        plans[key] = _plan(rank, relators)
    free, due = plans[key]
    count = group.order ** free
    return count * _backtrack(group._search, due) if due else count


def _plan(rank: int, relators: list[tuple[int, ...]]) -> _Plan:
    """What a count needs of a presentation, whatever the group."""
    rank, relators = eliminate_generators(rank, relators)
    used = sorted({abs(a) for r in relators for a in r})
    level = {g: k for k, g in enumerate(used)}
    due: list[list[list[tuple[int, bool]]]] = [[] for _ in used]
    for r in relators:
        word = [(level[abs(a)], a > 0) for a in r]
        k = max(g for g, _ in word)
        # A relator holds iff its rotations do; end it with its last x_k.
        cut = max(i for i, (g, _) in enumerate(word) if g == k) + 1
        due[k].append(word[cut:] + word[:cut])
    # A generator in no relator may go anywhere: a factor |G| each.
    return rank - len(used), due


# Partial assignments extended per batch: bounds the working set of each
# search level, whatever the rank.
_CHUNK = 1 << 16


def _backtrack(s: _SearchTables, due: list[list[list[tuple[int, bool]]]]) -> int:
    """Weighted count of the assignments that satisfy every relator.

    due[k] holds the relators whose highest generator is bound at level
    k, as (level, positive) letters.  With one level, x1 ranges over the
    whole group.  Otherwise levels 0 and 1 range over the pair orbits,
    weighted by orbit size, and each later level over the whole group.
    """
    n = len(s.inv)
    elems = np.arange(n, dtype=s.inv.dtype)
    last = len(due) - 1
    step = max(1, _CHUNK // n)

    def extend(cols: list[np.ndarray], weight: np.ndarray) -> int:
        if len(weight) > step:
            return sum(
                extend([c[i:i + step] for c in cols], weight[i:i + step])
                for i in range(0, len(weight), step)
            )
        # ok[row, j]: the relators due at level k hold with x_k -> j
        k = len(cols)
        images = [c[:, None] for c in cols] + [elems[None, :]]
        ok = np.ones((len(weight), n), dtype=bool)
        for word in due[k]:
            ok &= _value(s, word, images, k) == s.identity
        if k == last:
            return int(weight @ ok.sum(axis=1))
        row, col = np.nonzero(ok)
        return extend([c[row] for c in cols] + [elems[col]], weight[row])

    cols = list(np.divmod(s.pairs, n)) if last else [elems]
    weight = s.weights if last else np.ones(n, dtype=np.int64)
    ok = np.ones(len(weight), dtype=bool)
    for k in range(len(cols)):
        for word in due[k]:
            ok &= _value(s, word, cols, k) == s.identity
    cols, weight = [c[ok] for c in cols], weight[ok]
    return extend(cols, weight) if last > 1 else int(weight.sum())


def _value(s: _SearchTables, word: list[tuple[int, bool]], images: list[np.ndarray], k: int) -> np.ndarray:
    """The value of word, which ends in an x_k letter, at x_g -> images[g]."""
    # Runs of earlier letters are multiplied per row, and folded into the
    # product only before each x_k letter, whose image may be wider.
    acc = run = None
    for g, positive in word:
        if g < k:
            run = _times(s, run, images[g], positive)
            continue
        if run is not None:
            acc, run = _times(s, acc, run, True), None
        acc = _times(s, acc, images[k], positive)
    return acc


def _times(s: _SearchTables, acc: np.ndarray | None, img: np.ndarray, positive: bool) -> np.ndarray:
    """acc * img, or acc * img^-1; a missing acc stands for the identity."""
    if acc is None:
        return img if positive else s.inv.take(img)
    return (s.mul if positive else s.div).take(acc * len(s.inv) + img)


@dataclass(frozen=True)
class HomCountReport:
    """Per-target counts for two presentations and the verdict."""

    targets: tuple[str, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]

    @property
    def consistent(self) -> bool:
        return self.left == self.right

    @property
    def verdict(self) -> str:
        return "Consistent" if self.consistent else "Inconsistent"


def equivalence_evidence(
    p: Presentation,
    q: Presentation,
    targets: Sequence[tuple[str, FiniteGroupTable]] | None = None,
) -> HomCountReport:
    """Compare hom counts of two presentations over the target battery."""
    tg = list(targets) if targets is not None else default_targets()
    names = tuple(name for name, _ in tg)
    left = tuple(count_homomorphisms(p, g) for _, g in tg)
    right = tuple(count_homomorphisms(q, g) for _, g in tg)
    return HomCountReport(names, left, right)


def dump_targets(targets: Sequence[tuple[str, FiniteGroupTable]]) -> str:
    """Serialise a target battery: name, order, identity, then table rows."""
    blocks = []
    for name, g in targets:
        lines = ["group %s" % name, "order %d" % g.order, "identity %d" % g.identity]
        for row in g.table:
            lines.append(" ".join(str(v) for v in row))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def load_targets(text: str) -> list[tuple[str, FiniteGroupTable]]:
    """Parse what dump_targets writes; blank lines separate the blocks."""
    out = []
    for block in re.split(r"\n\s*\n", text.strip()):
        lines = [ln.strip() for ln in block.splitlines() if ln.strip()]
        if len(lines) < 4 or not lines[0].startswith("group "):
            raise GroupTableError("malformed target block: %r" % block[:40])
        name = lines[0].split(None, 1)[1]
        try:
            order = _header(lines[1], "order")
            identity = _header(lines[2], "identity")
            rows = tuple(tuple(int(v) for v in ln.split()) for ln in lines[3:])
            out.append((name, FiniteGroupTable(order, identity, rows)))
        except (ValueError, GroupTableError) as e:
            raise GroupTableError("group %s: %s" % (name, e)) from None
    return out


def _header(line: str, key: str) -> int:
    m = TARGET_HEADER.fullmatch(line)
    if not m or m[1] != key:
        raise ValueError("expected '%s N', got %r" % (key, line))
    return int(m[2])
