"""Isomorphism-free poset generation and exhaustive conjecture checking.

Canonical forms make dedup exact: two posets get the same byte string
exactly when they are isomorphic.  The form is the lexicographic minimum,
over all element orders compatible with an invariant refinement, of the
pairwise relation encoding (for each element, its relation to every earlier
element: incomparable 0, below 1, above 2).  Ties between interchangeable
twin elements are collapsed, which keeps highly symmetric posets cheap.
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .enumeration import (_check_budget, _run_chunks, sequence_shape, sorting_gf,
                          tangled_report)
from .posets import Poset, _bits, poset_from_json, poset_to_json

CANON_MAX_N = 10
GENERATION_MAX_N = 8

ALL_CHECKS = ("n-2", "hodges", "n-1")


# -- canonical forms -----------------------------------------------------------

def _refined_classes(p: Poset) -> list[int]:
    """Stable invariant class per element, identical across isomorphic posets."""
    n = p.n
    cover_up: list[list[int]] = [[] for _ in range(n)]
    cover_down: list[list[int]] = [[] for _ in range(n)]
    for a, b in p.covers:
        cover_up[a].append(b)
        cover_down[b].append(a)
    inv = [
        (p.below[x].bit_count(), p.above[x].bit_count(), p.heights[x],
         len(cover_up[x]), len(cover_down[x]))
        for x in range(n)
    ]
    ranks = {v: i for i, v in enumerate(sorted(set(inv)))}
    classes = [ranks[v] for v in inv]
    while True:
        sig = [
            (classes[x],
             tuple(sorted(classes[y] for y in cover_up[x])),
             tuple(sorted(classes[y] for y in cover_down[x])))
            for x in range(n)
        ]
        ranks = {v: i for i, v in enumerate(sorted(set(sig)))}
        new = [ranks[sig[x]] for x in range(n)]
        if new == classes:
            return classes
        classes = new


def _twin_ids(p: Poset) -> list[int]:
    """Group elements with identical strict up- and down-sets.

    Such elements are incomparable to each other, so transposing two of them
    is an automorphism; search branches inside a group are interchangeable.
    """
    groups: dict[tuple, int] = {}
    ids = []
    for x in range(p.n):
        key = (p.above[x], p.below[x])
        ids.append(groups.setdefault(key, len(groups)))
    return ids


def canonicalize(p: Poset, force: bool = False) -> bytes:
    """Canonical byte string: equal exactly for isomorphic posets."""
    _check_budget(p.n, force, cap=CANON_MAX_N, what="canonicalization")
    n = p.n
    classes = _refined_classes(p)
    members: dict[int, list[int]] = {}
    for x in range(n):
        members.setdefault(classes[x], []).append(x)
    blocks: list[int] = []
    for cls in sorted(members):
        blocks.extend([cls] * len(members[cls]))
    twins = _twin_ids(p)
    above, below = p.above, p.below

    def search(placed: list[int], used: int) -> tuple:
        depth = len(placed)
        if depth == n:
            return ()
        cls = blocks[depth]
        best_sig = None
        chosen: list[int] = []
        seen_twins = set()
        for e in members[cls]:
            if used >> e & 1:
                continue
            sig = tuple(
                2 if below[e] >> q & 1 else (1 if above[e] >> q & 1 else 0)
                for q in placed)
            if best_sig is None or sig < best_sig:
                best_sig = sig
                chosen = [e]
                seen_twins = {twins[e]}
            elif sig == best_sig and twins[e] not in seen_twins:
                chosen.append(e)
                seen_twins.add(twins[e])
        best_tail = None
        for e in chosen:
            placed.append(e)
            tail = best_sig + search(placed, used | (1 << e))
            placed.pop()
            if best_tail is None or tail < best_tail:
                best_tail = tail
        return best_tail

    digits = search([], 0)
    return f"{n}:".encode() + bytes(digits)


# -- isomorphism-free generation -------------------------------------------------

def _lower_ideal_masks(p: Poset) -> list[int]:
    """Every lower order ideal of ``p`` as a bitmask, in increasing order.

    Elements are decided along a linear extension, so an element joins an
    ideal exactly when everything below it is already there.
    """
    ideals = [0]
    for x in sorted(range(p.n), key=p.heights.__getitem__):
        ideals += [m | 1 << x for m in ideals if not p.below[x] & ~m]
    return sorted(ideals)


def _extend_by_maximal(p: Poset, ideal_mask: int) -> Poset:
    """Add one new maximal element whose strict down-set is ``ideal_mask``."""
    covers = list(p.covers)
    covers += [(e, p.n) for e in _bits(ideal_mask) if not p.above[e] & ideal_mask]
    return Poset(p.n + 1, covers)


@dataclass(frozen=True)
class PosetCatalog:
    """All isomorphism classes of a given size, one representative each."""

    n: int
    connected_only: bool
    entries: tuple

    def __len__(self) -> int:
        return len(self.entries)


def poset_levels(max_n: int, force: bool = False) -> Iterator[tuple]:
    """Yield one representative per isomorphism class for n = 1, .., max_n.

    Grows size by size: every poset on k + 1 elements arises from a poset on
    k elements by adding a new maximal element over a lower order ideal, and
    canonical forms collapse the duplicate histories.  Each yielded level is
    a tuple sorted by canonical form, so catalogs are deterministic.
    """
    _check_budget(max_n, force, cap=GENERATION_MAX_N, what="catalog generation")
    if max_n < 1:
        raise ValueError("catalogs need n >= 1")
    level = {canonicalize(Poset(1), force=force): Poset(1)}
    for n in range(1, max_n + 1):
        if n > 1:
            grown: dict[bytes, Poset] = {}
            for p in level.values():
                for mask in _lower_ideal_masks(p):
                    q = _extend_by_maximal(p, mask)
                    grown.setdefault(canonicalize(q, force=force), q)
            level = grown
        yield tuple(level[key] for key in sorted(level))


def generate_posets(n: int, connected: bool = False, force: bool = False) -> PosetCatalog:
    """The last level of :func:`poset_levels`, optionally connected posets only."""
    *_, entries = poset_levels(n, force=force)
    if connected:
        entries = tuple(p for p in entries if p.is_connected())
    return PosetCatalog(n=n, connected_only=connected, entries=entries)


def save_catalog(catalog: PosetCatalog, path) -> None:
    """Write one poset JSON document per line; gzip when the path ends in .gz."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as fh:
        for p in catalog.entries:
            fh.write(poset_to_json(p))
            fh.write("\n")


def load_catalog(path, connected_only: Optional[bool] = None) -> PosetCatalog:
    opener = gzip.open if str(path).endswith(".gz") else open
    entries = []
    with opener(path, "rt", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(poset_from_json(line))
    if not entries:
        raise ValueError(f"catalog file {path} holds no posets")
    sizes = {p.n for p in entries}
    if len(sizes) != 1:
        raise ValueError(f"catalog mixes poset sizes {sorted(sizes)}")
    if connected_only is None:
        connected_only = all(p.is_connected() for p in entries)
    return PosetCatalog(n=sizes.pop(), connected_only=connected_only, entries=tuple(entries))


# -- conjecture checks -------------------------------------------------------------

@dataclass(frozen=True)
class ConjectureReport:
    """Evidence for the three tangled-count bounds on one poset.

    ``by_element[x]`` counts tangled labelings with label n - 1 on x.  The
    per-element bound is (n-2)! with equality predicted exactly when one
    minimal element sits below x; the aggregate bounds are (n-m)(n-2)! for m
    minimal elements and (n-1)! overall.
    """

    n: int
    covers: tuple
    by_element: tuple
    total: int
    per_element_bound: int
    equality_expected: tuple
    hodges_bound: int
    total_bound: int
    refined_ok: bool
    equality_ok: bool
    hodges_ok: bool
    total_ok: bool

    @property
    def passed(self) -> bool:
        return self.refined_ok and self.equality_ok and self.hodges_ok and self.total_ok


def check_conjectures(p: Poset, workers: int = 1, force: bool = False) -> ConjectureReport:
    """Exhaustively test the tangled-count bounds on one poset (n >= 2)."""
    if p.n < 2:
        raise ValueError("conjecture checks need at least two elements")
    report = tangled_report(p, workers=workers, force=force)
    n = p.n
    m = len(p.minimals)
    bound = math.factorial(n - 2)
    minimal_mask = 0
    for e in p.minimals:
        minimal_mask |= 1 << e
    expected = tuple((p.below[x] & minimal_mask).bit_count() == 1 for x in range(n))
    counts = report.by_element
    return ConjectureReport(
        n=n,
        covers=p.covers,
        by_element=counts,
        total=report.total,
        per_element_bound=bound,
        equality_expected=expected,
        hodges_bound=(n - m) * bound,
        total_bound=math.factorial(n - 1),
        refined_ok=all(c <= bound for c in counts),
        equality_ok=all((c == bound) == e for c, e in zip(counts, expected)),
        hodges_ok=report.total <= (n - m) * bound,
        total_ok=report.total <= math.factorial(n - 1),
    )


_CHECK_FLAGS = {
    "n-2": ("refined_ok", "equality_ok"),
    "hodges": ("hodges_ok",),
    "n-1": ("total_ok",),
}


@dataclass(frozen=True)
class ScanReport:
    """Aggregate result of sweeping conjecture checks over a catalog."""

    n: int
    scanned: int
    checks: tuple
    failures: tuple
    non_unimodal: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def _scan_one(args):
    p, checks, unimodal, force = args
    verdict_ok = True
    report = None
    if checks and p.n >= 2:
        report = check_conjectures(p, force=force)
        verdict_ok = all(
            getattr(report, flag)
            for check in checks for flag in _CHECK_FLAGS[check])
    gf_coeffs = None
    if unimodal:
        coeffs = sorting_gf(p, force=force).coeffs
        if not sequence_shape(coeffs).unimodal:
            gf_coeffs = coeffs
    return verdict_ok, report, gf_coeffs


def scan_catalog(catalog: PosetCatalog, checks: Sequence[str] = ALL_CHECKS,
                 unimodal: bool = False, workers: int = 1,
                 force: bool = False) -> ScanReport:
    """Run the selected conjecture checks over every catalog entry.

    ``checks`` selects from n-2 (per-element bound plus its equality
    characterization), hodges ((n-m)(n-2)! aggregate) and n-1 ((n-1)!
    aggregate).  With ``unimodal=True`` the sorting generating functions are
    additionally scanned and non-unimodal instances reported; those are
    informational, not failures.
    """
    checks = tuple(checks)
    for check in checks:
        if check not in _CHECK_FLAGS:
            raise ValueError(f"unknown check {check!r}; pick from {sorted(_CHECK_FLAGS)}")
    tasks = [(p, checks, unimodal, force) for p in catalog.entries]
    results = _run_chunks(_scan_one, tasks, workers)
    failures = tuple(
        (idx, report) for idx, (ok, report, _) in enumerate(results) if not ok)
    flagged = tuple(
        (idx, coeffs) for idx, (_, _, coeffs) in enumerate(results) if coeffs is not None)
    return ScanReport(
        n=catalog.n,
        scanned=len(tasks),
        checks=checks,
        failures=failures,
        non_unimodal=flagged,
    )
