"""Finite partially ordered sets on dense indices with bitmask relation rows.

Elements of an ``n``-element poset are the integers ``0..n-1``.  The strict
order is kept transitively closed as one bitmask per element: ``above[x]``
has bit ``y`` set exactly when ``x < y``.  Down-sets, up-sets, funnels and
the promotion kernel all reduce to word operations on these rows.  A poset
is immutable once built and every derived structure (cover pairs, minimal
and maximal elements, heights) is computed eagerly at construction time, so
instances can be shared freely between threads and worker processes.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Optional, Sequence


class CycleError(ValueError):
    """The input relation admits a directed cycle (antisymmetry would fail)."""


class DisconnectedError(ValueError):
    """A constructor that requires a connected poset produced separate parts."""


class SpecError(ValueError):
    """A poset-family specification is malformed."""


def _validate_covers(n: int, covers: Iterable[Sequence[int]]) -> list[tuple[int, int]]:
    pairs = []
    for pair in covers:
        a, b = pair
        if type(a) is not int or type(b) is not int:  # bool is an int subclass
            raise SpecError(f"cover pair {pair!r} is not a pair of integers")
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"cover pair ({a}, {b}) out of range for n={n}")
        if a == b:
            raise CycleError(f"self-relation ({a}, {a}) is not irreflexive")
        pairs.append((a, b))
    return pairs


def _closure_from_pairs(n: int, pairs: list[tuple[int, int]]) -> list[int]:
    """Transitive closure of an acyclic relation, as strictly-above bitmasks.

    Raises CycleError when the relation digraph has a directed cycle.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in set(pairs):
        succ[a].append(b)
        indeg[b] += 1
    # Kahn's algorithm; leftovers mean a cycle.
    queue = [x for x in range(n) if indeg[x] == 0]
    topo = []
    while queue:
        x = queue.pop()
        topo.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    if len(topo) != n:
        raise CycleError("cover relation contains a directed cycle")
    above = [0] * n
    for x in reversed(topo):
        acc = 0
        for y in succ[x]:
            acc |= (1 << y) | above[y]
        above[x] = acc
    return above


class Poset:
    """An immutable finite strict partial order on elements ``0..n-1``.

    Constructed from any acyclic generating relation; the stored order is its
    transitive closure and ``covers`` is the transitive reduction (redundant
    input pairs are dropped).  ``names`` is optional display metadata and
    never carries semantics.
    """

    __slots__ = ("n", "above", "below", "covers", "names", "minimals",
                 "maximals", "heights", "_hash")

    def __init__(self, n: int, covers: Iterable[Sequence[int]] = (),
                 names: Optional[Sequence[str]] = None):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"poset size must be a positive integer, got {n!r}")
        pairs = _validate_covers(n, covers)
        above = _closure_from_pairs(n, pairs)
        below = [0] * n
        for x in range(n):
            mask = above[x]
            while mask:
                low = mask & -mask
                below[low.bit_length() - 1] |= 1 << x
                mask ^= low
        self.n = n
        self.above = tuple(above)
        self.below = tuple(below)
        self.covers = tuple(sorted(
            (a, b)
            for a in range(n)
            for b in _bits(above[a])
            if not above[a] & below[b]
        ))
        heights = [0] * n
        order = sorted(range(n), key=lambda x: below[x].bit_count())
        for x in order:
            h = 0
            mask = below[x]
            while mask:
                low = mask & -mask
                y = low.bit_length() - 1
                if h <= heights[y]:
                    h = heights[y] + 1
                mask ^= low
            heights[x] = h
        self.heights = tuple(heights)
        self.minimals = tuple(x for x in range(n) if not below[x])
        self.maximals = tuple(x for x in range(n) if not above[x])
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise ValueError("names must have one entry per element")
        self.names = names
        self._hash = hash((n, self.above))

    # -- order queries ----------------------------------------------------

    def lt(self, x: int, y: int) -> bool:
        """Strict order test x < y."""
        return bool(self.above[x] >> y & 1)

    def leq(self, x: int, y: int) -> bool:
        return x == y or bool(self.above[x] >> y & 1)

    def comparable(self, x: int, y: int) -> bool:
        return x == y or bool((self.above[x] | self.below[x]) >> y & 1)

    def down_ideal(self, x: int) -> int:
        """Bitmask of the principal lower order ideal of x (inclusive)."""
        return self.below[x] | (1 << x)

    def up_ideal(self, x: int) -> int:
        return self.above[x] | (1 << x)

    def is_connected(self) -> bool:
        """Whether the Hasse diagram is a connected graph."""
        if self.n == 1:
            return True
        seen = 1
        frontier = [0]
        adj = [self.above[x] | self.below[x] for x in range(self.n)]
        while frontier:
            x = frontier.pop()
            new = adj[x] & ~seen
            seen |= new
            frontier.extend(_bits(new))
        return seen == (1 << self.n) - 1

    def induced(self, elements: Iterable[int]) -> tuple["Poset", tuple[int, ...]]:
        """Subposet on ``elements``; returns it with the old-index order used."""
        elems = sorted(set(elements))
        if not elems:
            raise ValueError("induced subposet needs at least one element")
        if elems[0] < 0 or elems[-1] >= self.n:
            raise IndexError("element out of range")
        index = {e: i for i, e in enumerate(elems)}
        rel = [(index[a], index[b]) for a in elems for b in elems
               if self.lt(a, b)]
        names = tuple(self.names[e] for e in elems) if self.names else None
        return Poset(len(elems), rel, names), tuple(elems)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Poset) and self.n == other.n
                and self.above == other.above)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={list(self.covers)})"

    def __reduce__(self):
        return (Poset, (self.n, self.covers, self.names))


def _bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- constructors ----------------------------------------------------------

def chain(n: int) -> Poset:
    """The n-element chain 0 < 1 < ... < n-1."""
    return Poset(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    """The n-element antichain."""
    return Poset(n, [])


def ordinal_sum(p: Poset, q: Poset) -> Poset:
    """Every element of ``p`` below every element of ``q``.

    Elements of ``p`` keep their indices; elements of ``q`` are shifted up
    by ``p.n``.
    """
    shift = p.n
    covers = list(p.covers)
    covers += [(a + shift, b + shift) for a, b in q.covers]
    covers += [(m, t + shift) for m in p.maximals for t in q.minimals]
    names = None
    if p.names is not None and q.names is not None:
        names = p.names + q.names
    return Poset(p.n + q.n, covers, names)


def disjoint_union(p: Poset, q: Poset) -> Poset:
    """Side-by-side union with no relations between the parts."""
    shift = p.n
    covers = list(p.covers) + [(a + shift, b + shift) for a, b in q.covers]
    names = None
    if p.names is not None and q.names is not None:
        names = p.names + q.names
    return Poset(p.n + q.n, covers, names)


# -- structural predicates --------------------------------------------------

def funnel_and_basins(p: Poset) -> dict[int, frozenset[int]]:
    """Map each minimal element to its funnel.

    The funnel of a minimal element ``x`` collects the elements ``y > x``
    whose principal lower order ideal has ``x`` as its only minimal element.
    Minimal elements with a nonempty funnel are the basins.
    """
    min_mask = 0
    for m in p.minimals:
        min_mask |= 1 << m
    out: dict[int, frozenset[int]] = {}
    for x in p.minimals:
        xbit = 1 << x
        funnel = frozenset(
            y for y in _bits(p.above[x])
            if (p.below[y] | (1 << y)) & min_mask == xbit
        )
        out[x] = funnel
    return out


def basins(p: Poset) -> tuple[int, ...]:
    """Minimal elements whose funnel is nonempty."""
    return tuple(x for x, f in funnel_and_basins(p).items() if f)


def is_loi_complete(p: Poset, x: int) -> bool:
    """Whether everything comparable to the down-set of x is comparable to x.

    Minimal elements are trivially complete because their down-set is just
    themselves.
    """
    if not 0 <= x < p.n:
        raise IndexError(f"element {x} out of range")
    comp_x = p.above[x] | p.below[x] | (1 << x)
    for y in _bits(p.down_ideal(x)):
        if (p.above[y] | p.below[y]) & ~comp_x:
            return False
    return True


# -- canonical JSON interchange ---------------------------------------------

def poset_to_json(p: Poset) -> str:
    """Canonical one-line JSON document for a poset.

    Covers are emitted sorted lexicographically, so the output is byte-stable
    and round-trips exactly through :func:`poset_from_json`.
    """
    doc: dict = {"n": p.n, "covers": [list(c) for c in p.covers]}
    if p.names is not None:
        doc["names"] = list(p.names)
    return json.dumps(doc, separators=(", ", ": "))


def poset_from_json(text: str) -> Poset:
    """Parse the JSON interchange format, closing and validating the relation."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from None
    return poset_from_doc(doc)


def poset_from_doc(doc) -> Poset:
    """Build a poset from a decoded JSON document, checking every field's type.

    ``"n"`` must be an integer (not a boolean), ``"covers"`` a list of
    two-element lists and ``"names"``, when present, a list.
    """
    if not isinstance(doc, Mapping) or "n" not in doc or "covers" not in doc:
        raise SpecError('poset document must carry "n" and "covers"')
    n = doc["n"]
    covers = doc["covers"]
    names = doc.get("names")
    if type(n) is not int:
        raise SpecError(f'"n" must be an integer, got {n!r}')
    if not isinstance(covers, list) or not all(
            isinstance(c, list) and len(c) == 2 for c in covers):
        raise SpecError('"covers" must be a list of [i, j] pairs')
    if names is not None and not isinstance(names, list):
        raise SpecError(f'"names" must be a list, got {names!r}')
    return Poset(n, [tuple(c) for c in covers], names)


def save_poset(p: Poset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(poset_to_json(p))
        fh.write("\n")


def load_poset(path) -> Poset:
    with open(path, "r", encoding="utf-8") as fh:
        return poset_from_json(fh.read())
