"""Finite partially ordered sets on dense indices with bitmask relation rows.

Elements of an ``n``-element poset are the integers ``0..n-1``.  The strict
order is kept transitively closed as one bitmask per element: ``above[x]``
has bit ``y`` set exactly when ``x < y``.  Down-sets, up-sets, funnels and
the promotion kernel all reduce to word operations on these rows.  A poset
is immutable once built, with its cover pairs and heights computed then;
minimal and maximal elements are read off the rows in O(n) when asked for.
Instances can be shared freely between threads and worker processes.
"""

from __future__ import annotations

import json
import math
import reprlib
from typing import Callable, Iterable, Mapping, Optional, Sequence


class _BoundedRepr(reprlib.Repr):
    """``reprlib.repr`` for error messages; an int too long to show whole is
    shown as its digit count.

    ``reprlib`` would truncate the int's decimal text, but Python refuses to
    build that text past 4,300 digits, so formatting the message that
    reports the bad value would itself raise ``ValueError``.
    """

    def repr_int(self, x: int, level: int) -> str:
        size = abs(x)
        # 2**(bits-1) <= size < 2**bits leaves two candidate digit counts
        digits = math.floor((size.bit_length() - 1) * math.log10(2)) + 1
        digits += size >= 10 ** digits
        if digits <= self.maxlong:
            return super().repr_int(x, level)
        return f"<{'-' if x < 0 else ''}{digits}-digit int>"


_short_repr = _BoundedRepr().repr


class CycleError(ValueError):
    """The input relation admits a directed cycle (antisymmetry would fail)."""


class DisconnectedError(ValueError):
    """A constructor that requires a connected poset produced separate parts."""


class SpecError(ValueError):
    """A poset-family specification is malformed."""


def _check_ints(error: type, **params) -> None:
    """Raise ``error`` for the first parameter that is not an ``int``; a ``bool`` is not one."""
    for name, value in params.items():
        if type(value) is not int:
            raise error(f"{name} must be an integer, got {_short_repr(value)}")


def _check_size(n) -> None:
    if type(n) is not int or n < 1:  # bool is an int subclass
        raise ValueError(f"poset size must be a positive integer, got {_short_repr(n)}")


def _validate_covers(n: int, covers: Iterable[Sequence[int]]) -> list[tuple[int, int]]:
    pairs = []
    for pair in covers:
        a, b = pair
        if type(a) is not int or type(b) is not int:  # bool is an int subclass
            raise SpecError(f"cover pair {_short_repr(pair)} is not a pair of integers")
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"cover pair {_short_repr((a, b))} out of range for n={n}")
        if a == b:
            raise CycleError(f"self-relation ({a}, {a}) is not irreflexive")
        pairs.append((a, b))
    return pairs


def _closure_from_pairs(n: int, pairs: list[tuple[int, int]]):
    """``above``, ``below`` (bitmasks), ``heights`` and sorted covers of an
    acyclic relation.

    One topological order drives the first three: Kahn's algorithm releases
    x after everything below it, so ``below[x]`` and ``heights[x]`` are final
    then and are pushed into x's successors; ``above`` is collected backward
    over the same order.  The covers are the input pairs with nothing
    strictly between, as any generating relation contains every cover.
    Raises CycleError when the relation has a directed cycle.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in set(pairs):
        succ[a].append(b)
        indeg[b] += 1
    below = [0] * n
    heights = [0] * n
    # Kahn's algorithm, the list growing while it is walked; leftovers mean a cycle.
    topo = [x for x in range(n) if indeg[x] == 0]
    for x in topo:
        down = 1 << x | below[x]
        up = heights[x] + 1
        for y in succ[x]:
            below[y] |= down
            if heights[y] < up:
                heights[y] = up
            indeg[y] -= 1
            if indeg[y] == 0:
                topo.append(y)
    if len(topo) != n:
        raise CycleError("cover relation contains a directed cycle")
    above = [0] * n
    for x in reversed(topo):
        acc = 0
        for y in succ[x]:
            acc |= (1 << y) | above[y]
        above[x] = acc
    covers = sorted((x, y) for x in range(n) for y in succ[x] if not above[x] & below[y])
    return above, below, heights, covers


class Poset:
    """An immutable finite strict partial order on elements ``0..n-1``.

    Constructed from any acyclic generating relation; the stored order is its
    transitive closure and ``covers`` is the transitive reduction (redundant
    input pairs are dropped).  ``names`` is optional display metadata and
    never carries semantics.
    """

    __slots__ = ("n", "above", "below", "covers", "names", "heights")

    def __init__(self, n: int, covers: Iterable[Sequence[int]] = (),
                 names: Optional[Sequence[str]] = None):
        _check_size(n)
        pairs = _validate_covers(n, covers)
        above, below, heights, covers = _closure_from_pairs(n, pairs)
        self.n = n
        self.above = tuple(above)
        self.below = tuple(below)
        self.covers = tuple(covers)
        self.heights = tuple(heights)
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise ValueError("names must have one entry per element")
        self.names = names

    @property
    def minimals(self) -> tuple[int, ...]:
        """Elements with nothing below them, in index order."""
        return tuple(x for x, down in enumerate(self.below) if not down)

    @property
    def maximals(self) -> tuple[int, ...]:
        """Elements with nothing above them, in index order."""
        return tuple(x for x, up in enumerate(self.above) if not up)

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

    def components(self) -> tuple[int, ...]:
        """Bitmasks of the connected components of the Hasse diagram, in
        order of their least elements."""
        comps = []
        rest = (1 << self.n) - 1
        while rest:
            seen = rest & -rest
            frontier = [seen.bit_length() - 1]
            while frontier:
                x = frontier.pop()
                new = (self.above[x] | self.below[x]) & ~seen
                seen |= new
                frontier.extend(_bits(new))
            comps.append(seen)
            rest &= ~seen
        return tuple(comps)

    def is_connected(self) -> bool:
        """Whether the Hasse diagram is a connected graph."""
        return len(self.components()) == 1

    def induced(self, elements: Iterable[int]) -> tuple["Poset", tuple[int, ...]]:
        """Subposet on ``elements``; returns it with the old-index order used."""
        elems = list(elements)
        if not elems:
            raise ValueError("induced subposet needs at least one element")
        if any(type(e) is not int or not 0 <= e < self.n for e in elems):
            raise IndexError("element out of range")
        elems = sorted(set(elems))
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
        return hash((self.n, self.above))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={list(self.covers)})"


def _bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- constructors ----------------------------------------------------------

def chain(n: int) -> Poset:
    """The n-element chain 0 < 1 < ... < n-1."""
    _check_size(n)
    return Poset(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    """The n-element antichain."""
    return Poset(n, [])


def _union(p: Poset, q: Poset, links: list[tuple[int, int]]) -> Poset:
    """``p`` and ``q`` side by side, ``q`` shifted up by ``p.n``, plus ``links``."""
    shift = p.n
    covers = list(p.covers) + [(a + shift, b + shift) for a, b in q.covers] + links
    names = None
    if p.names is not None and q.names is not None:
        names = p.names + q.names
    return Poset(p.n + q.n, covers, names)


def ordinal_sum(p: Poset, q: Poset) -> Poset:
    """Every element of ``p`` below every element of ``q``.

    Elements of ``p`` keep their indices; elements of ``q`` are shifted up
    by ``p.n``.
    """
    return _union(p, q, [(m, t + p.n) for m in p.maximals for t in q.minimals])


def disjoint_union(p: Poset, q: Poset) -> Poset:
    """Side-by-side union with no relations between the parts."""
    return _union(p, q, [])


# -- structural predicates --------------------------------------------------

def funnel_and_basins(p: Poset) -> dict[int, frozenset[int]]:
    """Map each minimal element to its funnel.

    The funnel of a minimal element ``x`` collects the elements ``y > x``
    whose principal lower order ideal has ``x`` as its only minimal element.
    Minimal elements with a nonempty funnel are the basins.
    """
    min_mask = sum(1 << m for m in p.minimals)
    return {x: frozenset(y for y in _bits(p.above[x]) if (p.below[y] | 1 << y) & min_mask == 1 << x)
            for x in p.minimals}


def basins(p: Poset) -> tuple[int, ...]:
    """Minimal elements whose funnel is nonempty."""
    return tuple(x for x, f in funnel_and_basins(p).items() if f)


def is_loi_complete(p: Poset, x: int) -> bool:
    """Whether everything comparable to the down-set of x is comparable to x.

    Minimal elements are trivially complete because their down-set is just
    themselves.
    """
    if type(x) is not int or not 0 <= x < p.n:  # bool is an int subclass
        raise IndexError(f"element {_short_repr(x)} out of range")
    comp_x = p.above[x] | p.below[x] | (1 << x)
    for y in _bits(p.down_ideal(x)):
        if (p.above[y] | p.below[y]) & ~comp_x:
            return False
    return True


# -- canonical JSON interchange ---------------------------------------------

_JSON = json.JSONEncoder(separators=(", ", ": "))


def poset_to_json(p: Poset) -> str:
    """Canonical one-line JSON document for a poset.

    Covers are emitted sorted lexicographically, so the output is byte-stable
    and round-trips exactly through :func:`poset_from_json`.  ``json`` writes
    the cover tuples as lists.
    """
    doc: dict = {"n": p.n, "covers": p.covers}
    if p.names is not None:
        doc["names"] = list(p.names)
    return _JSON.encode(doc)


def decode_json(text: str):
    """Decode a poset or inflation document; any failure, nesting too deep
    for the decoder included, is a SpecError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SpecError("invalid JSON: nested too deeply") from None


def poset_from_json(text: str, check_n: Optional[Callable[[int], None]] = None) -> Poset:
    """Parse the JSON interchange format, closing and validating the relation.

    ``check_n`` is passed on to :func:`poset_from_doc`.
    """
    return poset_from_doc(decode_json(text), check_n)


def poset_from_doc(doc, check_n: Optional[Callable[[int], None]] = None) -> Poset:
    """Build a poset from a decoded JSON document, checking every field's type.

    ``"n"`` must be an integer (not a boolean), ``"covers"`` a list of
    two-element lists and ``"names"``, when present, a list.  ``check_n``,
    when given, sees ``n`` before anything of size ``n`` is built, so a size
    budget raised from it costs no more than the document itself.
    """
    if not isinstance(doc, Mapping) or "n" not in doc or "covers" not in doc:
        raise SpecError('poset document must carry "n" and "covers"')
    n = doc["n"]
    covers = doc["covers"]
    names = doc.get("names")
    if type(n) is not int:
        raise SpecError(f'"n" must be an integer, got {_short_repr(n)}')
    if not isinstance(covers, list) or not all(
            isinstance(c, list) and len(c) == 2 for c in covers):
        raise SpecError('"covers" must be a list of [i, j] pairs')
    if names is not None and not isinstance(names, list):
        raise SpecError(f'"names" must be a list, got {_short_repr(names)}')
    if check_n is not None:
        check_n(n)
    return Poset(n, [tuple(c) for c in covers], names)


def save_poset(p: Poset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(poset_to_json(p))
        fh.write("\n")


def load_poset(path, check_n: Optional[Callable[[int], None]] = None) -> Poset:
    with open(path, "r", encoding="utf-8") as fh:
        return poset_from_json(fh.read(), check_n)
