"""Exhaustive enumeration over all labelings of a poset.

Labelings are enumerated as permutations in lexicographic order, which is
exactly the order of their factorial-base ranks: the space splits into
contiguous rank ranges, so multi-process runs partition deterministically
and merge by plain addition.  Everything here is exact integer arithmetic.

The default budget refuses posets with more than ``DEFAULT_MAX_N`` elements
unless ``force=True`` is passed; n! grows too fast to wander past that wall
by accident.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import accumulate, islice, permutations
from multiprocessing import Pool
from typing import Sequence

from .posets import Poset, basins
from .promotion import InternalError, _advance, _is_natural_pos

DEFAULT_MAX_N = 9


class BudgetError(RuntimeError):
    """A computation would exceed its default size budget; pass force=True."""


def _check_budget(n: int, force: bool, cap: int = DEFAULT_MAX_N, what: str = "enumeration") -> None:
    if n > cap and not force:
        raise BudgetError(
            f"{what} over {n} elements exceeds the default budget of {cap}; "
            f"pass force=True (--force on the command line) to run anyway")


# -- generating function container -------------------------------------------

@dataclass(frozen=True)
class GenFun:
    """Exact integer coefficient vector; index i is the coefficient of q^i."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    def cumulative(self) -> "GenFun":
        """Prefix sums: the count of labelings sorted within i steps."""
        return GenFun(tuple(accumulate(self.coeffs)))

    def trimmed(self) -> tuple:
        """Coefficients with trailing zeros dropped (polynomial form)."""
        coeffs = self.coeffs
        end = len(coeffs)
        while end > 1 and coeffs[end - 1] == 0:
            end -= 1
        return coeffs[:end]

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class SequenceShape:
    unimodal: bool
    log_concave: bool


def sequence_shape(values: Sequence[int]) -> SequenceShape:
    """Exact unimodality and log-concavity flags for an integer sequence."""
    v = [int(x) for x in values]
    i = 0
    while i + 1 < len(v) and v[i] <= v[i + 1]:
        i += 1
    while i + 1 < len(v) and v[i] >= v[i + 1]:
        i += 1
    unimodal = i == len(v) - 1
    log_concave = all(v[j] * v[j] >= v[j - 1] * v[j + 1] for j in range(1, len(v) - 1))
    return SequenceShape(unimodal=unimodal, log_concave=log_concave)


# -- permutation ranking ------------------------------------------------------

def unrank_permutation(rank: int, n: int) -> tuple:
    """The permutation of range(n) at position ``rank`` in lexicographic order."""
    total = math.factorial(n)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for n={n}")
    pool = list(range(n))
    out = []
    for i in range(n - 1, -1, -1):
        f = math.factorial(i)
        digit, rank = divmod(rank, f)
        out.append(pool.pop(digit))
    return tuple(out)


def _split_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, total)) if total else 1
    step, extra = divmod(total, parts)
    ranges = []
    lo = 0
    for i in range(parts):
        hi = lo + step + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


# -- order histogram (sorting generating function) -----------------------------

def _order_histogram_chunk(args) -> list[int]:
    """Count sorting times over the lexicographic rank range [lo, hi)."""
    p, lo, hi = args
    above, below = p.above, p.below
    counts = [0] * p.n
    for perm in islice(permutations(range(p.n)), lo, hi):
        pos = list(perm)
        for steps in range(p.n):
            if _is_natural_pos(below, pos):
                break
            _advance(above, pos)
        else:
            raise InternalError("promotion failed to sort within n - 1 steps")
        counts[steps] += 1
    return counts


def _pool_size(workers: int) -> int:
    """``workers`` capped at the machine's CPU count; rejects counts below 1."""
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def _run_chunks(worker, tasks, workers: int):
    """``[worker(t) for t in tasks]``, on a process pool when that can help.

    The pool gets at most one process per task and per CPU; with a single
    process the tasks run in this process and no pool starts.
    """
    processes = min(_pool_size(workers), len(tasks))
    if processes <= 1:
        return [worker(t) for t in tasks]
    with Pool(processes=processes) as pool:
        return pool.map(worker, tasks)


def sorting_gf(p: Poset, workers: int = 1, force: bool = False) -> GenFun:
    """Coefficient i counts the labelings with sorting time exactly i.

    Enumerates all n! labelings; coefficients sum to n! and vanish at index
    n - 1 and beyond only as the structure dictates (index n - 1 counts the
    tangled labelings).
    """
    _check_budget(p.n, force)
    total = math.factorial(p.n)
    tasks = [(p, lo, hi) for lo, hi in _split_ranges(total, _pool_size(workers))]
    results = _run_chunks(_order_histogram_chunk, tasks, workers)
    merged = [sum(col) for col in zip(*results)]
    return GenFun(tuple(merged))


def cumulative_gf(p: Poset, workers: int = 1, force: bool = False) -> GenFun:
    """Coefficient i counts the labelings sorted within i steps."""
    return sorting_gf(p, workers=workers, force=force).cumulative()


# -- tangled labelings ---------------------------------------------------------

@dataclass(frozen=True)
class TangleReport:
    """Tangled labeling counts, split by the element holding label n - 1."""

    total: int
    by_element: tuple

    def __post_init__(self):
        object.__setattr__(self, "by_element", tuple(int(c) for c in self.by_element))
        if self.total != sum(self.by_element):
            raise ValueError("total does not match the by-element split")


def _tangled_chunk(args) -> list[int]:
    """Tangled counts by element over a global rank range.

    The global space is (basin index) x (rank of the label assignment of
    1..n-1 over the remaining elements); only labelings with label n on a
    basin can be tangled, so nothing else is visited.
    """
    p, basin_list, lo, hi = args
    n = p.n
    above = p.above
    sub = math.factorial(n - 1)
    by_element = [0] * n
    steps = n - 2
    for b_idx, basin in enumerate(basin_list):
        b_lo = max(lo, b_idx * sub)
        b_hi = min(hi, (b_idx + 1) * sub)
        if b_lo >= b_hi:
            continue
        others = [e for e in range(n) if e != basin]
        up_basin = above[basin]
        for perm in islice(permutations(others), b_lo - b_idx * sub, b_hi - b_idx * sub):
            pos = list(perm)
            runner_up = pos[-1]
            pos.append(basin)
            for _ in range(steps):
                _advance(above, pos)
            if (up_basin >> pos[0]) & 1:
                by_element[runner_up] += 1
    return by_element


def tangled_report(p: Poset, workers: int = 1, force: bool = False) -> TangleReport:
    """Count the tangled labelings, split by the element holding label n - 1.

    A tangled labeling must place label n on a basin, so the enumeration
    runs over basins times the (n-1)! arrangements of the other labels.
    Minimal elements always report zero.
    """
    if p.n < 2:
        raise ValueError("tangled labelings need at least two elements")
    _check_budget(p.n, force)
    parts = _pool_size(workers)
    basin_list = basins(p)
    if not basin_list:
        return TangleReport(0, (0,) * p.n)
    total_space = len(basin_list) * math.factorial(p.n - 1)
    tasks = [(p, basin_list, lo, hi) for lo, hi in _split_ranges(total_space, parts)]
    results = _run_chunks(_tangled_chunk, tasks, workers)
    by_element = tuple(sum(col) for col in zip(*results))
    return TangleReport(sum(by_element), by_element)
