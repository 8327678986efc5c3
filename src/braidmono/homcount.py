"""Counting homomorphisms into small finite groups.

The number of homomorphisms from a finitely presented group into each
member of a battery of small finite groups is a cheap, exactly
computable invariant.  equivalence_evidence says whether two
presentations have the same counts across default_targets(); a single
mismatch proves the groups differ.  Counts into other groups go through
count_homomorphisms.

Generators that occur exactly once in some relator are eliminated
first (their image is forced).  Into an abelian group A there is no
search: Hom(G, A) = Hom(G^ab, A), and G^ab is the sum of the Z/d on
the diagonal that the exponent-sum matrix reduces to (Cohen 1993,
2.4.4); likewise into any group once the relators keep one generator.
A count into a direct product H x K is the product of the counts into
H and K (the battery's D6 is built as S3 x C2).  Else each generator
left in no relator contributes a factor |G|, and one backtracking
search counts the presentation into all the other groups at once, over
their disjoint union: a row, a partial assignment into one group,
takes images of the next generator from that group only.  x1 and x2
range together over one pair of each orbit of G x G under simultaneous
conjugation, each row weighted by the orbit's size: conjugating a
homomorphism by g maps those with (x1, x2) -> (a, b) one-to-one onto
those with (x1, x2) -> (g a g^-1, g b g^-1), so the weighted sum is
exact.  When no relator is due at x3 and every pair satisfies those
due at x1 and x2, x1, x2 and x3 range over the orbits of G^3 instead,
made once per union from the pair orbits: x3 over the orbits of each
pair's stabiliser.  A relator is due once its highest generator x_k is
bound.  One that reads x_k u x_k^-1 = w up to rotation is solved by
lookup: x_k takes the conjugators from u to w, one per row on average;
the others are tested, dropping the rows that fail.

A count depends only on the rank and the set of relators.
Inside a count_memo block it is made once per group, and the plan (the
elimination, the diagonal, the relator lists) once per presentation; a
count outside any block is its own block.  Nothing in the memo outlives
the outermost block; the union tables of recent batteries are kept.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, reduce
from itertools import accumulate, repeat
from operator import and_
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import GroupTableError
from .words import eliminate_generators

if TYPE_CHECKING:
    from .presentations import Presentation


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
        if not np.array_equal(arr[arr], arr[:, arr]):
            raise GroupTableError("table is not associative")
        object.__setattr__(self, "table", t)

    def inverse(self, a: int) -> int:
        return self.table[a].index(self.identity)

    # Hashed once: the count memo and the union cache key on groups.
    __hash__ = lambda self: self._hash
    _hash = cached_property(lambda self: hash((self.order, self.identity, self.table)))
    _abelian = cached_property(lambda self: self.table == tuple(zip(*self.table)))
    _factors = ()  # H and K of a group built as H x K by _direct_product

    @cached_property
    def _orders(self) -> list[int]:
        """The order of each element a: the number of distinct a^k, 1 <= k <= |G|."""
        return [len(set(accumulate(repeat(a, self.order), lambda x, b: self.table[x][b])))
                for a in range(self.order)]


class _Union(NamedTuple):
    """Search tables of groups as one: group i is block i, its elements codes offset_i + a.
    Products come as codes times N, ready for the next factor: mul[a*N + b] = a*b*N,
    div[a*N + b] = a*b^-1*N, inv[a] = a^-1*N, and unit[a*N] says a is its block's
    identity.  Arrays of codes and of keys have a dtype that holds N*N + blocks."""

    size: int  # N, the summed order
    blocks: int
    mul: np.ndarray
    div: np.ndarray
    inv: np.ndarray
    unit: np.ndarray
    # A row's images at key q are source[end[q] - count[q]:end[q]]: the j
    # with j u j^-1 = w at q = u*N + w, and block i at q = N*N + i.
    end: np.ndarray
    count: np.ndarray
    source: np.ndarray
    # The pair orbits of every block, sorted by block, as images of x1 and x2.
    pairs: tuple[np.ndarray, np.ndarray]
    weights: np.ndarray
    block: np.ndarray
    triples: list  # what _triples returns, once a search has needed it


@lru_cache(maxsize=16)
def _union(groups: tuple[FiniteGroupTable, ...]) -> _Union:
    orders = [g.order for g in groups]
    n, offsets = sum(orders), np.cumsum([0] + orders[:-1])
    dtype = np.min_scalar_type(n * n + len(groups))
    owner = np.repeat(np.arange(len(groups)), orders)
    same = owner[:, None] == owner
    mul = np.zeros((n, n), dtype=dtype)
    mul[same] = np.concatenate([np.add(g.table, o).ravel() for g, o in zip(groups, offsets)])
    unit = mul.diagonal() == np.arange(n, dtype=dtype)  # a group's one idempotent is its identity
    inv = np.argmax(same & (mul == np.flatnonzero(unit)[owner, None]), axis=1).astype(dtype)
    a, b = np.nonzero(same)
    key = b * n + mul[mul[a, b], inv[a]]  # b and its conjugate by a
    count = np.concatenate([np.bincount(key, minlength=n * n), orders])
    # The least code over the pairs (g^-1 a g, g^-1 b g) names the orbit.
    least, first, order = (a * n + b).astype(dtype), offsets[owner[a]], np.take(orders, owner[a])
    for i in range(max(orders)):
        g = first + i % order
        np.minimum(least, mul[mul[inv[g], a], g] * n + mul[mul[inv[g], b], g], out=least)
    least, weights = np.unique(least, return_counts=True)
    pairs = np.divmod(least, n)
    source = np.concatenate([a[np.argsort(key, kind="stable")], np.arange(n)]).astype(dtype)
    return _Union(n, len(groups), mul.ravel() * n, mul[:, inv].ravel() * n, inv * n, unit.repeat(n),
                  np.cumsum(count), count, source, pairs, weights,
                  owner[pairs[0]].astype(dtype), [])


def _triples(t: _Union) -> list:
    """The orbits of G^3 under simultaneous conjugation, for every block G, as _search
    takes its rows: x1, x2 and x3 columns, blocks and weights.  An orbit's least code has
    its pair orbit's (a, b) and, as x3, the least of x3's orbit under the stabiliser of
    (a, b); the orbit's size is the pair orbit's times that one's."""
    if not t.triples:
        n, key = t.size, t.block + t.size ** 2
        # Each pair orbit takes every x3 of its block, whose codes run from first to
        # first + |G| - 1: the |G| rows of a pair meet each residue mod |G| once.
        count = t.count.take(key)
        pair, order = np.repeat(np.arange(len(count)), count), count.repeat(count)
        first = t.source.take(t.end.take(key) - count).repeat(count)
        (a, b), c = (x.take(pair) for x in t.pairs), first + np.arange(len(pair)) % order
        least = c
        for i in range(count.max()):  # conjugate by every g of the block
            g = first + i % order
            g_a, g_b, g_c = (t.mul.take(t.mul.take(t.inv.take(g) + x) + g) for x in (a, b, c))
            least = np.minimum(least, np.where((g_a == a * n) & (g_b == b * n), g_c // n, c))
        code, size = np.unique(pair * n + least, return_counts=True)
        pair, x3 = np.divmod(code, n)
        t.triples[:] = ([x.take(pair) for x in t.pairs] + [x3.astype(t.source.dtype)],
                        t.block.take(pair), t.weights.take(pair) * size)
    return t.triples


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


def _direct_product(h: FiniteGroupTable, k: FiniteGroupTable) -> FiniteGroupTable:
    """H x K, its element (a, b) numbered a*|K| + b.  It keeps its factors: a count into
    it is the product of theirs, since Hom(G, H x K) = Hom(G, H) x Hom(G, K)."""
    n = k.order
    table = tuple(tuple(h.table[a][c] * n + k.table[b][d] for c in range(h.order) for d in range(n))
                  for a in range(h.order) for b in range(n))
    g = FiniteGroupTable(h.order * n, h.identity * n + k.identity, table)
    object.__setattr__(g, "_factors", (h, k))
    return g


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
        ("D6", _direct_product(symmetric_group(3), cyclic_group(2))),
        ("S4", symmetric_group(4)),
    )


# A search plan: the exponent of |G| for the generators in no relator, a _Level per bound
# generator (u, w with x u x^-1 = w to solve, or None; the relators to test), the _diagonal.
_Word = list[tuple[int, bool]]
_Level = tuple[tuple[_Word, _Word] | None, list[_Word]]
_Plan = tuple[int, list[_Level], list[int]]
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
    return _counted(p, [group])[0]


def _counted(p: Presentation, groups: Sequence[FiniteGroupTable]) -> list[int]:
    """The counts into each group, those not in the memo made in one _counts call."""
    relators = [r.letters for r in p.relators]
    key = (p.rank, frozenset(relators))
    with count_memo():
        counts = _memo.get().counts
        if todo := [g for g in dict.fromkeys(groups) if (key, g) not in counts]:
            counts.update(zip([(key, g) for g in todo], _counts(p.rank, relators, todo)))
        return [counts[key, g] for g in groups]


def _counts(rank: int, relators: list[tuple[int, ...]], groups: list[FiniteGroupTable]) -> list[int]:
    plans, key = _memo.get().plans, (rank, frozenset(relators))
    free, levels, diag = plans[key] if key in plans else plans.setdefault(key, _plan(rank, relators))
    # A direct product is counted as its factors are, with the other groups.
    wanted = dict.fromkeys(f for g in groups for f in g._factors or (g,))
    counts = {g: math.prod(sum(d % k == 0 for k in g._orders) for d in diag)
              for g in wanted if g._abelian or len(levels) < 2}
    # One search for the rest, over their union.
    if rest := tuple(g for g in wanted if g not in counts):
        counts.update((g, g.order ** free * c) for g, c in zip(rest, _search(_union(rest), levels)))
    return [math.prod(counts[f] for f in g._factors) if g._factors else counts[g] for g in groups]


def _plan(rank: int, relators: list[tuple[int, ...]]) -> _Plan:
    """What a count needs of a presentation, whatever the group."""
    rank, relators = eliminate_generators(rank, relators)
    used = sorted({abs(a) for r in relators for a in r})
    level = {g: k for k, g in enumerate(used)}
    solve, due = [None] * len(used), [[] for _ in used]
    for r in relators:
        word = [(level[abs(a)], a > 0) for a in r]
        k = max(g for g, _ in word)
        # A relator holds iff its rotations do; end it with its last x_k.
        at = [i for i, (g, _) in enumerate(word) if g == k]
        word, i = word[at[-1] + 1:] + word[:at[-1] + 1], at[0] + len(word) - at[-1] - 1
        # From level 2 on, the first a x^s b x^-s (a, b not empty) is solved for x: for
        # s = 1 it says x b x^-1 = a^-1, for s = -1 x a x^-1 = b^-1.
        if k > 1 and solve[k] is None and len(at) == 2 and word[i][1] != word[-1][1] \
                and 0 < i < len(word) - 2:
            u, v = (word[i + 1:-1], word[:i]) if word[i][1] else (word[:i], word[i + 1:-1])
            solve[k] = (u, [(g, not positive) for g, positive in reversed(v)])
        else:
            due[k].append(word)
    sums = [[r.count(g) - r.count(-g) for g in range(1, rank + 1)] for r in relators]
    # A generator in no relator may go anywhere: a factor |G| each.
    return rank - len(used), list(zip(solve, due)), _diagonal(sums, rank)


def _diagonal(m: list[list[int]], width: int) -> list[int]:
    """The diagonal, one entry per column, that unimodular row and column operations reduce m to."""
    diag = []
    while m := [r for r in m if any(r)]:
        _, i, j = min((abs(v), i, j) for i, r in enumerate(m) for j, v in enumerate(r) if v)
        # Leave residues mod the least entry in its column, then in its row.
        m = [r if k == i else [a - r[j] // m[i][j] * b for a, b in zip(r, m[i])] for k, r in enumerate(m)]
        qs = [0 if k == j else v // m[i][j] for k, v in enumerate(m[i])]
        m = [[a - q * r[j] for a, q in zip(r, qs)] for r in m]
        if sum(map(bool, m[i])) == 1 == sum(bool(r[j]) for r in m):
            diag.append(abs(m.pop(i)[j]))  # column j stays zero from here on
    return diag + [0] * (width - len(diag))


# Images tested per batch: bounds the working set of a search level, whatever the rank.
_CHUNK = 1 << 14


def _search(t: _Union, levels: list[_Level]) -> list[int]:
    """Weighted count, per block, of the assignments that satisfy every relator:
    rows, partial assignments, start from the pair orbits (the triple orbits if
    nothing is due at x3 and no pair failed a relator) and take as images of
    x_k the conjugators its relator to solve leaves, or else every element of
    their block; the other relators due are tested on them."""
    last = len(levels) - 1

    def tally(block, weight):  # the weight of each block
        return np.bincount(block, weight, t.blocks).astype(np.int64)
    def extend(cols: list[np.ndarray], block: np.ndarray, weight: np.ndarray) -> np.ndarray:
        k = len(cols)
        solve, tests = levels[k]
        key = (block + t.size ** 2 if solve is None
               else _value(t, solve[0], cols, k) + _value(t, solve[1], cols, k) // t.size)
        end, count = t.end.take(key), t.count.take(key)
        if k == last and not tests:
            return tally(block, weight * count)
        if count.sum() > _CHUNK and len(weight) > 1:
            halves = slice(len(weight) // 2), slice(len(weight) // 2, None)
            return sum(extend([c[h] for c in cols], block[h], weight[h]) for h in halves)
        x = np.repeat(end - np.cumsum(count), count)
        x = t.source.take(np.add(x, np.arange(len(x)), out=x))
        ok = reduce(and_, (t.unit.take(_value(t, w, cols, k, x, count)) for w in tests)) \
            if tests else slice(None)
        rep, x = np.repeat(np.arange(len(weight)), count)[ok], x[ok]
        if k == last:
            return tally(block.take(rep), weight.take(rep))
        grown = [c.take(rep) for c in cols] + [x], block.take(rep), weight.take(rep)
        del rep, x
        return extend(*grown)

    cols, weight, block = list(t.pairs), t.weights, t.block
    if tests := [(w, k) for k in (0, 1) for w in levels[k][1]]:
        ok = reduce(and_, (t.unit.take(_value(t, w, cols, k)) for w, k in tests))
        cols, weight, block = [c[ok] for c in cols], weight[ok], block[ok]
    if last > 1 and not any(levels[2]) and len(weight) == len(t.weights):
        return extend(*_triples(t)).tolist()  # any x3 may follow any pair: start from G^3
    return (extend(cols, block, weight) if last > 1 else tally(block, weight)).tolist()


def _value(t: _Union, word: _Word, cols: list[np.ndarray], k: int,
           x: np.ndarray | None = None, count: np.ndarray | None = None) -> np.ndarray:
    """The value of word at x_g -> cols[g] (g < k), x_k -> x (cols[k] if None), with row
    j of cols repeated count[j] times: runs of x_g are multiplied per row, then repeated."""
    acc = run = None
    for g, positive in word:
        if g < k:
            run = _times(t, run, cols[g], positive)
            continue
        if run is not None:
            run = run if count is None else run.repeat(count)
            acc, run = (run if acc is None else _times(t, acc, run // t.size, True)), None
        acc = _times(t, acc, cols[k] if x is None else x, positive)
    return acc if run is None else run


def _times(t: _Union, acc: np.ndarray | None, img: np.ndarray, positive: bool) -> np.ndarray:
    """acc * img, or acc * img^-1; a missing acc stands for the identity."""
    if acc is None:
        return img * t.size if positive else t.inv.take(img)
    return (t.mul if positive else t.div).take(acc + img)


@count_memo()
def equivalence_evidence(p: Presentation, q: Presentation) -> bool:
    """Whether p and q have the same hom count into every group of default_targets(),
    counting each presentation once per group (count_memo)."""
    groups = [g for _, g in default_targets()]
    return _counted(p, groups) == _counted(q, groups)
