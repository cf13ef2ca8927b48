"""Isomorphism-free poset generation and exhaustive conjecture checking.

Canonical forms make dedup exact: two posets get the same byte string
exactly when they are isomorphic.  The form is the lexicographic minimum,
over all element orders compatible with an invariant refinement, of the
pairwise relation encoding (for each element, its relation to every earlier
element: incomparable 0, below 1, above 2).  Ties between interchangeable
twin elements are collapsed, which keeps highly symmetric posets cheap.
Forms exist for at most ``CANON_MAX_N`` elements, with no override: each
relation row is spread through one table of 2**CANON_MAX_N entries, and
past that size the search over non-twin ties grows factorially.

Four shortcuts leave every class and every byte as the plain refinement
and search would give them:

- Packed initial keys.  The first ranking is over each element's (elements
  below, elements above, height, upper covers, lower covers).  Each count
  is at most n - 1, so it fits a digit of (n - 1).bit_length() bits, and
  the five digits are packed into one int, the first most significant.
  Equal-length digit strings order as the tuples do, so the ranks agree.
- Singleton keys.  Each refinement round ranks the elements by (class,
  sorted cover classes above, sorted cover classes below).  The class comes
  first, so a key's rank is the number of distinct keys in lower classes
  plus its place among the keys of its own class.  A class of one element
  has one key either way, so that element gets the key (class,) and the
  same rank.
- The stop rule.  Each round splits classes and keeps their order, so the
  ranks are unchanged exactly when the class count is; refinement stops
  when the count stops growing, or reaches n, where nothing can split.  It
  also stops when each class is one twin set (twins are elements with equal
  up- and down-sets): twins have the same covers, so they keep equal keys.
- Forced positions and the read-off.  The search fixes the element order
  position by position.  It compares relation digits, sliced from one
  table row per element, only where a class offers two candidates that
  are not twins.  Where one candidate is left, it is placed without a
  branch.  When each class is one twin set, a discrete refinement
  included, every position is forced: the form is read off along the class
  order, members in index order, with no search.  The orders below a
  branch share their digits up to it, so the least full form has the
  least tail.

Catalogs grow level by level: every poset on n + 1 elements is a poset on
n elements plus a new maximal element whose strict down-set is a lower
order ideal I.  Children are taken one per ideal, parents in order and each
parent's masks in increasing order, and the first child of each class that
passes three skips represents it:

- Canonical deletion, after McKay's canonical construction path (J.
  Algorithms 26, 1998).  The new element n has the initial key (|I|, 0,
  height, 0, number of maximal elements of I).  An element has fewer
  elements below it than anything above it has, and the below count is
  the key's first digit, so every element of I has a smaller key than n,
  and the parent's largest key is a maximal element's.  A maximal element
  of the parent outside I is maximal in the child and keeps its parent
  key, since nothing changes above or below it.  So n has the largest key
  among the child's maximal elements exactly when its key is at least the
  parent's largest; growth skips every other child before any child row,
  refinement or form.  Initial keys are invariant under isomorphism.  Let
  x be a maximal element of a class C with the largest key: C - x is
  isomorphic to some parent P, so C has a child of P, over the image of
  x's down-set, in which n plays x and passes.
- Twin orbits.  Twins are elements of the parent with equal up- and
  down-sets.  Swapping two twins is an automorphism of the parent that
  fixes n, so it maps the child over I to an isomorphic child, n to n,
  and the two pass or fail together.  Moving an ideal's bit to a
  lower-indexed twin makes the mask smaller, so the smallest mask of a
  twin orbit holds, in each twin class, the lowest-indexed members.
  Growth tries only the ideals that hold a prefix, in index order, of
  every twin class, and the first passing child is the one the whole
  list of ideals would give.
- Disconnected children.  The new element joins exactly the components of
  the parent that I meets, so the child is connected exactly when I meets
  every component.  A connected-only level tries only those ideals; when
  C is connected, the ideal over which n plays x meets every component.

So every class keeps at least one tried child.  Every level below the
last holds every poset, connected or not, as canonical deletion needs.  The
representative depends only on the parent order, not on the worker count.

No child is built to compute its form.  The child over I differs from its
parent only at the elements of I and at the new element n.  Each element of
I gains n above it, and each maximal element of I also gains n as an upper
cover.  Nothing else changes: n lies above everything it is compared with,
so it falls between no two elements, and heights count up from the minimal
elements.  The element n has I below it, nothing above, the maximal
elements of I as its lower covers, and a height one more than the highest
of them (0 when I is empty).  So growth packs the parent's initial keys
once, in the digit width of the child's size, and per ideal adds one to
the above digit of each element of I and to the upper-cover digit of each
maximal one; no digit can carry, since each count stays at most n.  Each
cover list is shared with the parent except at those maximal elements.
Each relation row is the parent's with a 1 (in I) or a 0 in column n and
the constant 0 after it, and n's row has a 2 in each column of I.  These
are the inputs ``canonicalize`` would build from the child itself, so the
form is the same byte string.
"""

from __future__ import annotations

import gzip
import io
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from operator import eq, itemgetter
from typing import Iterable, Iterator

from .enumeration import (CLOSED_FORM_MAX_N, TangleReport, _check_budget, _check_workers,
                          _run_chunks, _tangled_counts, sequence_shape, sorting_gf)
from .posets import Poset, _bits, _check_ints, poset_from_json, poset_to_json
from .promotion import InternalError

CANON_MAX_N = 10
GENERATION_MAX_N = 8

# The conjecture checks, in the order ConjectureReport.failed lists them.
ALL_CHECKS = ("n-2", "hodges", "n-1")


# -- canonical forms -----------------------------------------------------------

def _rank(values: list) -> list[int]:
    """Each value's index among the sorted distinct values."""
    ranks = {v: i for i, v in enumerate(sorted(set(values)))}
    return [ranks[v] for v in values]


def _digit_width(n: int) -> int:
    """Bits per digit of an initial key on n elements: each count is at most n - 1."""
    return (n - 1).bit_length()


def _cover_lists(n: int, covers) -> tuple[list, list]:
    """Each element's upper covers and lower covers."""
    cover_up: list[list[int]] = [[] for _ in range(n)]
    cover_down: list[list[int]] = [[] for _ in range(n)]
    for a, b in covers:
        cover_up[a].append(b)
        cover_down[b].append(a)
    return cover_up, cover_down


def _initial_keys(p: Poset, cover_up: list, cover_down: list, width: int) -> list[int]:
    """Each element's (elements below, elements above, height, upper covers,
    lower covers), packed most significant first in ``width``-bit digits."""
    return [(((b.bit_count() << width | a.bit_count()) << width | h) << width | len(u)) << width
            | len(d) for a, b, h, u, d in zip(p.above, p.below, p.heights, cover_up, cover_down)]


def _refine(keys: list[int], cover_up: list, cover_down: list, twins: list) -> list[int]:
    """Classes ranked from the initial ``keys``, then refined by the sorted
    classes of each element's upper and lower covers until no class can
    split; ``twins[x] == twins[y]`` exactly when x and y are twins."""
    n = len(keys)
    classes = _rank(keys)
    count = max(classes) + 1
    # a round can split only a class holding two elements that are not twins
    while count < n and len(set(zip(classes, twins))) > count:
        size = [0] * count
        for c in classes:
            size[c] += 1
        get = classes.__getitem__
        new = _rank([
            (c,) if size[c] == 1 else
            (c, tuple(sorted(map(get, cover_up[x]))), tuple(sorted(map(get, cover_down[x]))))
            for x, c in enumerate(classes)
        ])
        grown = max(new) + 1
        if grown == count:
            break
        classes, count = new, grown
    return classes


def _refined_classes(p: Poset) -> list[int]:
    """Stable invariant class per element, identical across isomorphic posets."""
    cover_up, cover_down = _cover_lists(p.n, p.covers)
    return _refine(_initial_keys(p, cover_up, cover_down, _digit_width(p.n)),
                   cover_up, cover_down, list(zip(p.above, p.below)))


def _spread_table(bits: int) -> tuple:
    """Every ``bits``-bit mask with bit i moved to bit 8i, the low bit of byte i."""
    table = [0]
    for i in range(bits):
        table += [s | 1 << 8 * i for s in table]
    return tuple(table)


_SPREAD = _spread_table(CANON_MAX_N)


def _digit_rows(p: Poset, length: int) -> list[bytes]:
    """Each element's relation digit to every element q in byte q (below 2,
    above 1, else 0), padded with zero bytes to ``length``."""
    return [(2 * _SPREAD[b] + _SPREAD[a]).to_bytes(length, "little")
            for a, b in zip(p.above, p.below)]


def _canonical_form(classes: list[int], rows: list[bytes]) -> bytes:
    """The least relation encoding over the element orders that follow
    ``classes``, read off with no search when every position is forced.

    ``rows[e][q]`` is e's relation digit to q, so rows are equal exactly for
    twins.  Column n is a constant 0, so ``itemgetter(*placed, n)`` needs no
    case for an empty ``placed``.
    """
    n = len(classes)

    def read_off(placed: list[int]) -> list[int]:
        pick = itemgetter(*placed, n)
        form: list[int] = []
        for k, e in enumerate(placed):
            form += pick(rows[e])[:k]
        return form

    count = max(classes) + 1
    if count == n or len(set(zip(classes, rows))) == count:
        # each class is one twin set, so every position is forced
        return f"{n}:".encode() + bytes(read_off(sorted(range(n), key=classes.__getitem__)))
    members: dict[int, list[int]] = {}
    for x in range(n):
        members.setdefault(classes[x], []).append(x)
    blocks = sorted(classes)

    def search(placed: list[int], used: int) -> list[int]:
        """The least form over the orders that extend ``placed`` (extended
        in place); a position with one candidate is taken without a branch."""
        while len(placed) < n:
            # Elements with equal rows are incomparable twins with equal
            # signatures: swapping two is an automorphism, so only the first
            # free member of each twin set is tried.
            candidates = []
            twins = set()
            for e in members[blocks[len(placed)]]:
                row = rows[e]
                if not used >> e & 1 and row not in twins:
                    twins.add(row)
                    candidates.append(e)
            if len(candidates) > 1:
                get = itemgetter(*placed, n)
                sigs = [get(rows[e]) for e in candidates]
                best = min(sigs)
                chosen = [e for e, sig in zip(candidates, sigs) if sig == best]
                if len(chosen) > 1:
                    return min(search([*placed, e], used | 1 << e) for e in chosen)
                candidates = chosen
            placed.append(candidates[0])
            used |= 1 << candidates[0]
        return read_off(placed)

    return f"{n}:".encode() + bytes(search([], 0))


def canonicalize(p: Poset) -> bytes:
    """Canonical byte string: equal exactly for isomorphic posets; over
    ``CANON_MAX_N`` elements, ``BudgetError`` with no override."""
    _check_budget(p.n, None, CANON_MAX_N, "canonicalized poset elements")
    return _canonical_form(_refined_classes(p), _digit_rows(p, p.n + 1))


# -- isomorphism-free generation -------------------------------------------------

def _orbit_ideal_masks(p: Poset) -> list[int]:
    """The lower order ideals of ``p`` that hold a prefix, in index order, of
    every twin class, as bitmasks in increasing order: the smallest mask of
    each orbit of the twin swaps (see the module docstring).

    Elements are decided along a linear extension, so an element joins an
    ideal exactly when everything below it is already there, and a twin
    only when the next lower-indexed twin is there too: twins share a
    height, so the stable sort decides that one first.
    """
    needs = list(p.below)
    last: dict[tuple[int, int], int] = {}
    for x in range(p.n):
        twin = (p.above[x], p.below[x])
        if twin in last:
            needs[x] |= 1 << last[twin]
        last[twin] = x
    ideals = [0]
    for x in sorted(range(p.n), key=p.heights.__getitem__):
        ideals += [m | 1 << x for m in ideals if not needs[x] & ~m]
    return sorted(ideals)


def _extend_by_maximal(p: Poset, ideal: int) -> Poset:
    """Add one new maximal element n whose strict down-set is the lower ideal
    ``ideal``, filling every slot from the parent's in O(n), with no closure."""
    n = p.n
    above = list(p.above)
    tops = []
    for e in _bits(ideal):
        if not above[e] & ideal:
            tops.append(e)
        above[e] |= 1 << n
    above.append(0)
    child = Poset.__new__(Poset)
    child.n = n + 1
    child.above = tuple(above)
    child.below = p.below + (ideal,)
    child.covers = tuple(sorted([*p.covers, *[(e, n) for e in tops]]))
    child.heights = p.heights + (1 + max(map(p.heights.__getitem__, tops)) if tops else 0,)
    child.names = None
    return child


class _GrownLevel(Sequence):
    """A catalog level held as one int per class, ``parent index << k | ideal
    mask`` against the k-element ``parents``, in canonical-form order.  Each
    entry is built by ``_extend_by_maximal`` when it is read, and nothing is
    cached, so a level costs eight bytes per class until it is read."""

    __slots__ = ("parents", "codes")

    def __init__(self, parents: tuple, codes: array):
        self.parents = parents
        self.codes = codes

    def _build(self, code: int) -> Poset:
        k = self.parents[0].n
        return _extend_by_maximal(self.parents[code >> k], code & (1 << k) - 1)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index: int) -> Poset:
        return self._build(self.codes[index])

    def __iter__(self) -> Iterator[Poset]:
        return map(self._build, self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


@dataclass(frozen=True)
class PosetCatalog:
    """All isomorphism classes of a given size, one representative each.

    ``entries`` is a tuple when loaded from a file; from :func:`generate_posets`
    it is a read-only sequence that builds each poset when it is read."""

    n: int
    connected_only: bool
    entries: Sequence[Poset]

    def __len__(self) -> int:
        return len(self.entries)


def _grow_task(p: Poset, connected: bool) -> list[tuple[bytes, int]]:
    """``(canonical form, ideal mask)`` of the first child of ``p`` in each
    isomorphism class whose new element n has the largest initial key
    among the child's maximal elements, children taken one per lower ideal
    in mask order; one ideal per twin orbit is tried, and with
    ``connected`` only the ideals giving connected children (see the
    module docstring).

    The skip compares only n's key, read off the ideal's size, maximal
    elements and their heights, with the largest key of ``p``.  A passing
    child's refinement inputs and digit rows are the parent's, changed
    only on the ideal's elements and n; no child is built.
    """
    n = p.n
    components = p.components() if connected else ()
    above = p.above
    raised = [h + 1 for h in p.heights]
    cover_up, cover_down = _cover_lists(n, p.covers)
    width = _digit_width(n + 1)
    keys = _initial_keys(p, cover_up, cover_down, width)
    # a child passes when n's key is at least this (see the module docstring)
    leader = max(keys)
    # an element of the ideal gains n above it; a maximal one gains n as a cover too
    in_ideal = 1 << 3 * width
    new_cover = 1 << width
    up_with_n = [[*ups, n] for ups in cover_up]
    rows = [(row + b"\0\0", row + b"\1\0") for row in _digit_rows(p, n)]
    firsts: dict[bytes, int] = {}
    for mask in _orbit_ideal_masks(p):
        # the ideal's size is the key's leading digit: a smaller one skips at once
        if mask.bit_count() < leader >> 4 * width or not all(mask & c for c in components):
            continue
        tops = [e for e in _bits(mask) if not above[e] & mask]
        key = (mask.bit_count() << 4 * width
               | max(map(raised.__getitem__, tops), default=0) << 2 * width | len(tops))
        if key < leader:
            continue
        child_keys = keys[:]
        for e in _bits(mask):
            child_keys[e] += in_ideal
        child_up = cover_up[:]
        for e in tops:
            child_keys[e] += new_cover
            child_up[e] = up_with_n[e]
        child_keys.append(key)
        child_up.append(())
        child_rows = [pair[mask >> e & 1] for e, pair in enumerate(rows)]
        child_rows.append((2 * _SPREAD[mask]).to_bytes(n + 2, "little"))
        classes = _refine(child_keys, child_up, [*cover_down, tops], child_rows)
        form = _canonical_form(classes, child_rows)
        firsts.setdefault(form, mask)
    return list(firsts.items())


def poset_levels(max_n: int, connected: bool = False, force: bool = False,
                 workers: int = 1) -> Iterator[Sequence[Poset]]:
    """One representative per isomorphism class for n = 1, .., max_n, level by
    level; with ``connected``, the last level holds the connected classes only.

    Grows size by size, as the module docstring sets out.  Each level runs
    one ``_grow_task`` per parent through ``_run_chunks``, which returns
    (canonical form, ideal mask) pairs in parent order, and the first
    passing child of each form represents its class whatever ``workers``
    is.  Each
    level is sorted by canonical form, so catalogs are deterministic.  The
    levels below the last are tuples, built once as the next level's
    parents; the last is a read-only sequence of (parent, ideal mask) codes
    that builds each poset when it is read.  The budgets are checked when
    this is called, before any level grows: ``force`` lifts
    ``GENERATION_MAX_N`` but not ``CANON_MAX_N``.
    """
    _check_ints(ValueError, max_n=max_n)
    _check_workers(workers)
    _check_budget(max_n, None, CANON_MAX_N, "canonicalized poset elements")
    _check_budget(max_n, force, cap=GENERATION_MAX_N, what="catalog poset elements")
    if max_n < 1:
        raise ValueError("catalogs need n >= 1")
    return _grow_levels(max_n, connected, workers)


def _grow_levels(max_n: int, connected: bool, workers: int) -> Iterator[Sequence[Poset]]:
    """The levels of :func:`poset_levels`, its arguments already checked.

    A level below the last is held as a dict from canonical form to
    representative in first-seen order, which is the next level's parent
    order; the last as ``parent index << k | ideal mask`` per form, for the
    k-element parents.
    """
    level = {canonicalize(Poset(1)): Poset(1)}
    for k in range(1, max_n):
        yield tuple(map(level.__getitem__, sorted(level)))
        parents = tuple(level.values())
        task = partial(_grow_task, connected=connected and k + 1 == max_n)
        firsts: dict[bytes, int] = {}
        for index, children in enumerate(_run_chunks(task, parents, workers)):
            for form, mask in children:
                firsts.setdefault(form, index << k | mask)
        if k + 1 == max_n:
            codes = array("q", map(firsts.__getitem__, sorted(firsts)))
            del level, firsts  # only the parents and one int per class stay alive
            yield _GrownLevel(parents, codes)
            return
        level = dict(zip(firsts, _GrownLevel(parents, array("q", firsts.values()))))
    yield tuple(level.values())


def generate_posets(n: int, connected: bool = False, force: bool = False,
                    workers: int = 1) -> PosetCatalog:
    """The last level of :func:`poset_levels`, optionally connected posets
    only, which growth alone selects (see the module docstring).  Its
    ``entries`` hold one (parent, ideal mask) code per class and build each
    poset when it is read, so a catalog read once is never held whole."""
    *_, entries = poset_levels(n, connected=connected, force=force, workers=workers)
    return PosetCatalog(n=n, connected_only=connected, entries=entries)


def _open_catalog(path, mode: str):
    """``path`` opened as text for ``mode`` "r" or "w", through gzip when it
    ends in .gz; the gzip header gets no time stamp, so a catalog written
    twice to one path gives the same bytes."""
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.GzipFile(path, mode + "b", mtime=0), encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _write_catalog(entries: Iterable[Poset], fh) -> None:
    """One poset JSON document per line, each poset read (and built) in turn."""
    for p in entries:
        fh.write(poset_to_json(p) + "\n")


def save_catalog(catalog: PosetCatalog, path) -> None:
    """Write one poset JSON document per line; gzip when the path ends in .gz."""
    with _open_catalog(path, "w") as fh:
        _write_catalog(catalog.entries, fh)


def load_catalog(path) -> PosetCatalog:
    """Read a :func:`save_catalog` file; a poset over ``CLOSED_FORM_MAX_N``
    elements is refused (``BudgetError``) before it is built."""
    entries = []
    with _open_catalog(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(poset_from_json(line, lambda n: _check_budget(
                    n, None, CLOSED_FORM_MAX_N, "catalog poset elements")))
    if not entries:
        raise ValueError(f"catalog file {path} holds no posets")
    sizes = {p.n for p in entries}
    if len(sizes) != 1:
        raise ValueError(f"catalog mixes poset sizes {sorted(sizes)}")
    return PosetCatalog(n=sizes.pop(), connected_only=all(p.is_connected() for p in entries),
                        entries=tuple(entries))


# -- conjecture checks -------------------------------------------------------------

@dataclass(frozen=True)
class ConjectureReport(TangleReport):
    """A poset's tangled counts (see ``TangleReport``) and the checks of
    ``ALL_CHECKS`` they fail, in that order."""

    failed: tuple

    @property
    def passed(self) -> bool:
        return not self.failed


def check_conjectures(p: Poset, force: bool = False) -> ConjectureReport:
    """Exhaustively test the tangled-count bounds on one poset (n >= 2).

    n-2 holds when every element's count is at most (n-2)!, with equality
    exactly on the funnel elements (the non-minimal elements above exactly
    one minimal element); hodges when the total is at most (n-m)(n-2)! for
    m minimal elements; n-1 when it is at most (n-1)!.
    """
    report, in_funnel = _tangled_counts(p, 1, force)
    n = p.n
    bound = math.factorial(n - 2)
    holds = (
        all(c <= bound and (c == bound) == (x in in_funnel)
            for x, c in enumerate(report.by_element)),
        report.total <= (n - len(p.minimals)) * bound,
        report.total <= math.factorial(n - 1),
    )
    return ConjectureReport(report.by_element,
                            tuple(check for check, ok in zip(ALL_CHECKS, holds) if not ok))


@dataclass(frozen=True)
class ScanReport:
    """Aggregate result of sweeping conjecture checks over a catalog."""

    scanned: int
    failures: tuple
    non_unimodal: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def _scan_one(p: Poset, unimodal: bool, force: bool):
    """``(report, coeffs)`` for one poset: the report only when a check
    fails, and f only when it is not unimodal; ``None`` otherwise."""
    report = check_conjectures(p, force=force) if p.n >= 2 else None
    coeffs = None
    if unimodal:
        coeffs = sorting_gf(p, force=force).coeffs
        if report is not None and coeffs[-1] != report.total:
            raise InternalError(f"f counts {coeffs[-1]} tangled labelings, not {report.total}")
        if sequence_shape(coeffs).unimodal:
            coeffs = None
    return (report if report and report.failed else None), coeffs


def scan_catalog(catalog: PosetCatalog, unimodal: bool = False, workers: int = 1,
                 force: bool = False) -> ScanReport:
    """Run :func:`check_conjectures` over each catalog entry with n >= 2.

    Each bound implies the next, so a failing poset always fails n-2; its
    report's ``failed`` names every bound it breaks.  With ``unimodal=True``
    the sorting generating functions are additionally scanned and
    non-unimodal instances reported; those are informational, not failures.
    From n = 2 on, f's top coefficient must equal the tangled count, or the
    two routes disagree: ``InternalError``.
    """
    failures, non_unimodal = [], []
    task = partial(_scan_one, unimodal=unimodal, force=force)
    for idx, (report, coeffs) in enumerate(_run_chunks(task, catalog.entries, workers)):
        if report is not None:
            failures.append((idx, report))
        if coeffs is not None:
            non_unimodal.append((idx, coeffs))
    return ScanReport(len(catalog.entries), tuple(failures), tuple(non_unimodal))
