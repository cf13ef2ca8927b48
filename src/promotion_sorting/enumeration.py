"""Exhaustive enumeration over all labelings of a poset.

Work is cut into tasks by fixed tails of the position array: a task pins
the elements holding the top labels.  ``sorting_gf`` has one task per root
tail (below), which returns a column of order counts, and
``tangled_report`` one per search block (r, b, funnel, alive) of the
tangled-chain lemma below: r an alive element outside the basin b's
funnel, with the bitmasks of that funnel and of b's alive elements, which
returns one count.  The task list depends only on the poset, never on the
worker count, which only sets how many processes share it; each caller
merges the results by plain addition.  Everything here is exact integer
arithmetic.

The sorting generating function is read off the inverse-promotion forest.
Promotion maps the n! labelings to themselves, and it permutes the natural
ones, which are sorted; so a labeling's order is its depth in the forest
whose roots are the natural labelings.  ``sorting_gf`` walks each tree
backward, producing every labeling once, at depth equal to its order, and
promotes nothing forward.  A task stacks the roots that share their root
tail (the holders of labels n - 1 and n) at depth 0 and expands every node
with one ``_preimages`` call: preimages with label n on a maximal element
are pushed one level deeper, and the others, which have no preimages, are
only counted there.  Each root's one natural preimage is among those built,
since a natural labeling puts label n on a maximal element, and is dropped
at depth 0; deeper preimages are never natural, as promotion maps natural
labelings to natural ones.  A preimage built at depth n - 1 or counted at
depth n, or a total other than n!, raises ``InternalError``.

Tangled counting visits a smaller space, by the tangled-chain lemma: after
k promotions of a labeling whose label n sits on a basin b, the element
c_k holding label n - k - 1 satisfies c_{k+1} <= c_k.  (No walk enters the
minimal b before step n - 1, so b holds label n - k after k steps; c_k
either keeps its label or is walked, which hands the label to the chain
element just below it.)  Tangled means c_{n-2} > b, which holds exactly
when c_k > b for every k.  So only labelings with label n - 1 on an element
r strictly above b can be tangled (k = 0), and each one stops promoting at
the first c_k that is not above b.  Each (r, b) pair is a search block of
the (n-2)! arrangements of the other labels.

A block is searched level by level, merging equal states.  After k steps
the labels below b's sit in the low part ``pos[:n - k - 1]``, whose last
entry is c_k, and the low part after step k + 1 is a function of the low
part after step k: the walk scans forward, so one that leaves the low part
never comes back to it, and what it does above changes nothing below.  So
the low part alone decides every later check.  Level k maps each distinct
low part still undecided after c_k to the number of the block's labelings
that reach it, at most (n-2)! entries.  The next level promotes each once
with ``_advance`` and reads c_{k+1}, as below: it adds the state's count
to the block's total, drops the state, or keeps it, adding the counts of
equal ones.  Level 0 holds the arrangements of the other labels, each
once, without their last entry r.  Every low part is padded with r and
the maximal elements: that restores level 0's r, and a walk that leaves a
low part ends on the first maximal element above it.

The funnel decides every block early.  After k promotions of any labeling
the labels n - k + 1, .., n sit frozen on an upper ideal (the fact behind
Defant and Kravitz's n - 1 bound), so after n - 2 steps labels 1 and 2,
held by c_{n-2} and b, sit on a two-element lower set.  In a tangled
labeling c_{n-2} > b, so b is the only element below c_{n-2}: c_{n-2} lies
in b's funnel.  With r = c_0 >= c_1 >= .. >= c_{n-2} this gives two rules.
(1) A block (r, b) is empty unless r is alive for b: at or above some
element of b's funnel.  The alive elements of b lie above b and are closed
upward; a c_k that is not alive is above no funnel element, so neither is
c_{n-2} <= c_k, and the state is dropped.  (2) Once some c_k lies in b's
funnel, every later c is <= c_k and is not b, since b holds label n - k,
and every element <= c_k other than b lies above b, b being the only
minimal element below c_k; so the labeling is tangled, and the state's
count is added without further steps.  The block's count is the total
of its accepted states and of the states left at level n - 2; past n = 2,
where level 0 is the last, none is left, since an alive c_{n-2} lies in
the funnel by the frozen pair.

A funnel block, r in b's funnel, is all tangled by (2) at k = 0 and is
counted, not enumerated: (n-2)!.  An element of b's funnel lies above no
other basin, so each element's count is either this credit or its
enumerated blocks.  Only the blocks with r alive for b and outside b's
funnel are visited: the paper's equality "funnel => (n-2)!" follows from
the lemma, and enumeration tests the per-element bound and the strict
inequality off the funnels.

``_check_budget`` is the only code that raises ``BudgetError``.  Enumeration
refuses more than ``DEFAULT_MAX_N`` elements unless ``force=True`` is passed;
n! grows too fast to wander past that wall by accident.
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, permutations, repeat
from math import factorial
from multiprocessing import Pool
from typing import Optional, Sequence

from .posets import Poset, _bits, _short_repr, funnel_and_basins
from .promotion import InternalError, _advance, _is_natural_pos, _natural_positions, _preimages

DEFAULT_MAX_N = 9
CLOSED_FORM_MAX_N = 400  # no override; see promotion_sorting.formulas


class BudgetError(RuntimeError):
    """A computation would exceed its size budget (see ``_check_budget``)."""


def _check_budget(n: int, force: Optional[bool], cap: int = DEFAULT_MAX_N,
                  what: str = "enumerated poset elements") -> None:
    """Refuse ``n`` of ``what`` above ``cap`` unless ``force``; ``None`` means no override."""
    if n > cap and not force:
        hint = ("" if force is None
                else "; pass force=True (--force on the command line) to run anyway")
        raise BudgetError(f"{what} of {_short_repr(n)} exceeds the budget of {cap}{hint}")


# -- generating function container -------------------------------------------

@dataclass(frozen=True)
class GenFun:
    """Coefficient vector, stored as given; index i is the coefficient of q^i."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

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
    v = list(values)
    i = 0
    while i + 1 < len(v) and v[i] <= v[i + 1]:
        i += 1
    while i + 1 < len(v) and v[i] >= v[i + 1]:
        i += 1
    unimodal = i >= len(v) - 1
    log_concave = all(v[j] * v[j] >= v[j - 1] * v[j + 1] for j in range(1, len(v) - 1))
    return SequenceShape(unimodal=unimodal, log_concave=log_concave)


# -- task dispatch -------------------------------------------------------------

def _check_workers(workers) -> None:
    """A worker count that is not an ``int`` of at least 1 (a ``bool`` is not
    one) is a ``ValueError``."""
    if type(workers) is not int or workers < 1:
        raise ValueError(f"worker count must be an integer of at least 1, "
                         f"got {_short_repr(workers)}")


_MAX_BATCH = 64
_pool = None  # (processes, Pool): this process's one pool, terminated at exit
atexit.register(lambda: _pool and _pool[1].terminate())


def _run_chunks(worker, tasks, workers: int):
    """``worker(t)`` for each of ``tasks``, in task order: ``map`` here for
    one process or at most one task, else ``imap`` on this process's one
    pool of ``min(workers, CPUs)`` processes, started at the first such call
    and replaced by a call with another count.  A batch is a quarter of
    the tasks per process, rounded up, as ``Pool.map`` cuts them, but at
    most ``_MAX_BATCH`` tasks, so the last batch of a long sequence leaves
    the other workers idle only briefly.  The worker count passes
    :func:`_check_workers` first."""
    global _pool
    _check_workers(workers)
    if workers == 1 or len(tasks) <= 1 or (processes := min(workers, os.cpu_count() or 1)) == 1:
        return map(worker, tasks)
    if _pool is None or _pool[0] != processes:
        if _pool is not None:
            _pool[1].terminate()
        _pool = processes, Pool(processes)
    return _pool[1].imap(worker, tasks, min(-(-len(tasks) // (4 * processes)), _MAX_BATCH))


# -- order histogram (sorting generating function) -----------------------------

def _gf_task(p: Poset, tail: tuple) -> list[int]:
    """Sorting-time counts over the inverse-promotion trees rooted at the
    natural labelings whose top labels sit on ``tail`` (see the module docstring)."""
    above, below, n = p.above, p.below, p.n
    maximal = sum(1 << e for e in p.maximals)
    counts = [0] * (n + 1)
    stack = [([*root, *tail], 0)
             for root in _natural_positions(below, (1 << n) - 1 - sum(1 << e for e in tail))]
    while stack:
        q, depth = stack.pop()
        counts[depth] += 1
        children: list[list[int]] = []
        counts[depth + 1] += _preimages(above, below, q, maximal, children)
        if not depth:
            children = [pos for pos in children if not _is_natural_pos(below, pos)]
        elif depth == n - 1 and (children or counts[n]):
            raise InternalError("a labeling needs more than n - 1 promotions to sort")
        stack += [(pos, depth + 1) for pos in children]
    return counts[:n]


def sorting_gf(p: Poset, workers: int = 1, force: bool = False) -> GenFun:
    """Coefficient i counts the labelings with sorting time exactly i.

    Walks the inverse-promotion forest from the natural labelings (see the
    module docstring), one task per root tail; coefficients sum to n! and,
    for n >= 2, index n - 1 counts the tangled labelings.  At n = 1, f is
    (1,) but the one labeling is not tangled: its element is no basin.
    """
    _check_budget(p.n, force)
    tails = [(a, b) for b in p.maximals for a in range(p.n)
             if a != b and not p.above[a] & ~(1 << b)] if p.n > 1 else [(0,)]
    coeffs = [sum(col) for col in zip(*_run_chunks(partial(_gf_task, p), tails, workers))]
    if sum(coeffs) != factorial(p.n):
        raise InternalError(f"the inverse-promotion forest holds {sum(coeffs)} labelings, "
                            f"not {p.n}!")
    return GenFun(tuple(coeffs))


# -- tangled labelings ---------------------------------------------------------

@dataclass(frozen=True)
class TangleReport:
    """Tangled labeling counts split by the element holding label n - 1; ``total`` sums them."""

    by_element: tuple

    @property
    def total(self) -> int:
        return sum(self.by_element)


def _tangled_task(p: Poset, block: tuple[int, int, int, int]) -> int:
    """The number of tangled labelings with label n - 1 on ``r`` and label
    n on the basin ``b``, for ``block = (r, b, funnel, alive)``, where
    ``funnel`` and ``alive`` are the bitmasks of b's funnel and of the
    elements at or above some element of it: a level-wise search over the
    low parts of the arrays, each state with its multiplicity, accepted
    when its chain enters ``funnel`` and dropped when it leaves ``alive``
    (see the module docstring)."""
    r, b, funnel, alive = block
    above, pad = p.above, (r, *p.maximals)
    others = [e for e in range(p.n) if e != r and e != b]
    level = zip(permutations(others), repeat(1))
    total = 0
    for m in range(p.n - 2, 0, -1):
        states: dict[bytes, int] = {}
        for low, count in level:
            pos = [*low, *pad]
            _advance(above, pos)
            c = pos[m - 1]
            if (funnel >> c) & 1:
                total += count
            elif (alive >> c) & 1:
                key = bytes(pos[:m])
                states[key] = states.get(key, 0) + count
        level = states.items()
    return total + sum(count for _, count in level)


def tangled_report(p: Poset, workers: int = 1, force: bool = False) -> TangleReport:
    """Count the tangled labelings, split by the element holding label n - 1.

    A tangled labeling places label n on a basin b and label n - 1 on an
    element r strictly above b.  Each element of b's funnel is credited
    (n-2)! without search.  Each other block (r, b) with r alive for b, at
    or above an element of b's funnel, is one task (r, b, funnel, alive)
    that carries the bitmasks of b's funnel and alive elements and returns
    r's count from that block.  It is searched level by level, accepting
    a state once its chain enters the funnel, dropping it once the chain
    leaves the alive elements, and merging equal ones (see the module
    docstring).  Minimal elements always report zero.  A search over more
    than 256 elements is refused (``BudgetError``, no override) before any
    block starts.
    """
    return _tangled_counts(p, workers, force)[0]


def _tangled_counts(p: Poset, workers: int, force: bool) -> tuple[TangleReport, frozenset]:
    """``tangled_report`` and the funnel elements it credits without search."""
    if p.n < 2:
        raise ValueError("tangled labelings need at least two elements")
    _check_budget(p.n, force)
    funnels = funnel_and_basins(p)
    by_element, blocks = [0] * p.n, []
    for b, funnel in funnels.items():
        inside = alive = sum(1 << y for y in funnel)
        for y in funnel:
            alive |= p.above[y]
            by_element[y] += factorial(p.n - 2)
        blocks += [(r, b, inside, alive) for r in _bits(alive & ~inside)]
    if blocks:  # a search keys its states by bytes, one element index per byte
        _check_budget(p.n, None, 256, "tangled search poset elements")
    for (r, *_), count in zip(blocks, _run_chunks(partial(_tangled_task, p), blocks, workers)):
        by_element[r] += count
    return TangleReport(tuple(by_element)), frozenset().union(*funnels.values())
