"""Extended promotion of poset labelings and the statistics it drives.

A labeling of an ``n``-element poset assigns the values ``1..n`` bijectively
to the elements; it is natural when every cover goes from a smaller to a
larger label.  One promotion step walks the label 1 upward, repeatedly
swapping it with the smallest label strictly above it until it sits on a
maximal element, then cyclically shifts all labels down by one (the walked
label 1 becomes ``n``).  The number of steps needed to reach a natural
labeling is the order (or sorting time) of the labeling; it never exceeds
``n - 1``.  Labelings attaining ``n - 1`` on two or more elements are
tangled, and ``is_tangled`` tests exactly that through ``order``.

The hot loops work on position arrays: ``pos[i]`` is the element holding
label ``i + 1``.  The enumeration module runs these same kernels in its
task loops: ``_advance`` forward, in the level-wise tangled search, and
``_preimages``, the exact inverse of one step, in the backward walk; its
module docstring states both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .posets import Poset, _bits, _short_repr, antichain, ordinal_sum


class InternalError(RuntimeError):
    """An internal guarantee failed; indicates a bug, not a user error."""


class RangeError(ValueError):
    """A lift index sequence is out of range or not strictly increasing."""


# -- labeling plumbing -------------------------------------------------------

def validate_labeling(p: Poset, labels: Sequence[int]) -> tuple[int, ...]:
    """Check that ``labels`` assigns 1..n bijectively with plain ``int`` labels
    (not floats or bools); returns it as a tuple."""
    labels = tuple(labels)
    if (len(labels) != p.n or any(type(v) is not int for v in labels)
            or sorted(labels) != list(range(1, p.n + 1))):
        raise ValueError(f"labeling {_short_repr(labels)} is not a bijection onto 1..{p.n}")
    return labels


def positions_of(labels: Sequence[int]) -> list[int]:
    """Inverse permutation: positions_of(labels)[i] = element labeled i + 1."""
    pos = [0] * len(labels)
    for element, label in enumerate(labels):
        pos[label - 1] = element
    return pos


def labels_of(pos: Sequence[int]) -> tuple[int, ...]:
    labels = [0] * len(pos)
    for i, element in enumerate(pos):
        labels[element] = i + 1
    return tuple(labels)


def parse_labeling(text: str) -> tuple[int, ...]:
    """Parse the comma-separated labeling format, e.g. ``"2,3,1"``."""
    try:
        return tuple(int(part) for part in text.strip().split(","))
    except ValueError:
        raise ValueError(
            f"labeling {_short_repr(text)} is not comma-separated integers") from None


def format_labeling(labels: Iterable[int]) -> str:
    return ",".join(str(v) for v in labels)


# -- the promotion kernel ----------------------------------------------------

def _advance(above: Sequence[int], pos: list[int]) -> None:
    """One promotion step on a position array, in place.

    The scan index only moves forward: after swapping label 1 up to element
    ``y``, every label on an element above ``y`` is larger than the label
    just swapped, so earlier positions never need revisiting.  The step
    overwrites exactly the positions it swaps, then shifts the array by one.
    It reads no entry past the one the walk ends on, so ``pos`` need not be
    a permutation beyond that: the tangled search pads partial arrays.
    """
    x = pos[0]
    mask = above[x]
    scan = 1
    while mask:
        while not (mask >> pos[scan]) & 1:
            scan += 1
        y = pos[scan]
        pos[scan] = x
        x = y
        mask = above[x]
        scan += 1
    del pos[0]
    pos.append(x)


def _preimages(above: Sequence[int], below: Sequence[int], q: list[int], ends: int,
               out: list[list[int]]) -> int:
    """Every ``pos`` with ``_advance(pos) == q``: the exact inverse of ``_advance``.

    A step ends with its walked label on a maximal element, so there are
    none unless ``q[-1]`` is maximal.  Otherwise there is one preimage per
    chain of indices ``t_1 < .. < t_m < n - 1`` whose elements increase in
    the order, ``q[t_1] < .. < q[t_m] < q[n - 1]``, and where nothing
    before ``t_1``, or strictly between one chain index and the next, lies
    above the later element: read backward, that is the forward walk's rule
    of swapping with the first label above.  The walk started on ``q[t_1]`` and swapped
    ``q[t_{i+1}]`` out of position ``t_i + 1``, so the preimage has
    ``pos[0] = q[t_1]``, ``pos[t_i + 1] = q[t_{i+1}]`` (``t_{m+1} = n - 1``)
    and ``pos[j + 1] = q[j]`` at every other ``j``.  Preimages whose last
    entry is in the bitmask ``ends`` are appended to ``out``, the others
    only counted; returns that count (``ends = -1`` builds them all).
    """
    if above[q[-1]]:
        return 0
    return _unwalk(above, below, q, len(q) - 1, [q[-1], *q[:-1]], ends, out)


def _unwalk(above: Sequence[int], below: Sequence[int], q: list[int], t: int,
            pre: list[int], ends: int, out: list[list[int]]) -> int:
    """The chain search of ``_preimages``, from the chain element at index ``t``.

    ``pre`` holds ``q`` shifted right by one, with the links chosen so far
    written in.  Scanning back from ``t``, every element below ``q[t]`` met
    before the first one above it can be the next (lower) chain element;
    the chain can end at ``t`` only when nothing before ``t`` is above it.
    ``ends``, ``out`` and the returned count are as in ``_preimages``.
    """
    x = q[t]
    up, down = above[x], below[x]
    skipped = 0
    j = t - 1
    while j >= 0:
        y = q[j]
        if (up >> y) & 1:
            break
        if (down >> y) & 1:
            pre[j + 1] = x
            skipped += _unwalk(above, below, q, j, pre, ends, out)
            pre[j + 1] = y
        j -= 1
    else:
        pre[0] = x
        if not (ends >> pre[-1]) & 1:
            return skipped + 1
        out.append(pre.copy())
    return skipped


def _is_natural_pos(below: Sequence[int], pos: Sequence[int]) -> bool:
    """Whether every prefix of ``pos`` is a lower order ideal.

    Equivalent to every cover increasing the label, but exits at the first
    element placed before something below it.
    """
    seen = 0
    for e in pos:
        if below[e] & ~seen:
            return False
        seen |= 1 << e
    return True


def _natural_positions(below: Sequence[int], todo: int, seen: int = 0) -> Iterator[list[int]]:
    """Every order of the elements of the bitmask ``todo`` that keeps each
    prefix, together with ``seen``, a lower order ideal.

    With ``seen`` empty and ``todo`` a lower order ideal, these are the
    natural position arrays of the subposet on ``todo``.
    """
    if not todo:
        yield []
        return
    for e in _bits(todo):
        if not below[e] & ~seen:
            for rest in _natural_positions(below, todo & ~(1 << e), seen | 1 << e):
                yield [e, *rest]


def _order_pos(above: Sequence[int], below: Sequence[int], pos: list[int]) -> int:
    """Promote ``pos`` in place until it is natural; returns the step count.

    Sorting never takes more than ``n - 1`` steps, so a labeling still
    unsorted after that many is an ``InternalError`` rather than a hang.
    """
    for steps in range(len(pos)):
        if _is_natural_pos(below, pos):
            return steps
        _advance(above, pos)
    raise InternalError("promotion failed to sort within n - 1 steps")


# -- public operations --------------------------------------------------------

@dataclass(frozen=True)
class PromotionStep:
    """Result of one promotion: the new labeling and the walked chain.

    ``chain`` lists the elements visited by label 1, bottom to top; when the
    label already sits on a maximal element, the chain is that singleton.
    """

    labels: tuple[int, ...]
    chain: tuple[int, ...]


def promote(p: Poset, labels: Sequence[int]) -> PromotionStep:
    """Apply one extended promotion step."""
    labels = validate_labeling(p, labels)
    before = positions_of(labels)
    pos = before.copy()
    _advance(p.above, pos)
    # the walk starts at label 1's element and visits each element it swaps
    # out, in scan order; the step overwrites exactly those positions
    chain = (before[0],) + tuple(e for e, moved in zip(before[1:], pos) if moved != e)
    return PromotionStep(labels_of(pos), chain)


def is_natural(p: Poset, labels: Sequence[int]) -> bool:
    """Whether every cover relation increases the label."""
    return _is_natural_pos(p.below, positions_of(validate_labeling(p, labels)))


def promotion_path(p: Poset, labels: Sequence[int]) -> list[tuple[int, ...]]:
    """All labelings from ``labels`` to its natural end, inclusive."""
    labels = validate_labeling(p, labels)
    path = [labels]
    pos = positions_of(labels)
    for _ in range(_order_pos(p.above, p.below, pos.copy())):
        _advance(p.above, pos)
        path.append(labels_of(pos))
    return path


def order(p: Poset, labels: Sequence[int]) -> int:
    """Number of promotion steps needed to sort; at most ``n - 1``."""
    return _order_pos(p.above, p.below, positions_of(validate_labeling(p, labels)))


def frozen_set(p: Poset, labels: Sequence[int]) -> frozenset[int]:
    """Elements whose labels can no longer move under promotion.

    An element is frozen when every label window {a, .., n} with a at least
    its own label occupies an upper order ideal.  The result is itself an
    upper order ideal, and equals everything exactly for natural labelings.
    """
    labels = validate_labeling(p, labels)
    pos = positions_of(labels)
    window = 0
    cut = p.n + 1
    for a in range(p.n, 0, -1):
        element = pos[a - 1]
        window |= 1 << element
        if p.above[element] & ~window:
            break
        cut = a
    return frozenset(e for e in range(p.n) if labels[e] >= cut)


def standardize(p: Poset, labels: Sequence[int], subset: Iterable[int]) -> tuple[Poset, tuple[int, ...]]:
    """Relabel a subset with 1..|S| preserving label order.

    Returns the induced subposet together with the standardized labeling,
    indexed by the subposet's elements (the subset in increasing old-index
    order).
    """
    labels = validate_labeling(p, labels)
    sub, elements = p.induced(subset)
    ranked = sorted(elements, key=lambda e: labels[e])
    new_label = {e: i + 1 for i, e in enumerate(ranked)}
    return sub, tuple(new_label[e] for e in elements)


def is_tangled(p: Poset, labels: Sequence[int]) -> bool:
    """Whether the labeling attains the maximal order ``n - 1``: the
    definition, tested by sorting; one element is never tangled."""
    return order(p, labels) == p.n - 1 and p.n > 1


def lift_labeling(p: Poset, labels: Sequence[int], indices: Sequence[int]) -> tuple[Poset, tuple[int, ...]]:
    """Extend a labeling over new bottom elements carrying chosen labels.

    ``indices`` picks the labels of ``k`` new pairwise-incomparable elements
    placed below everything; the old labels shift up to make room, one shift
    per chosen index.  Returns the lifted poset (new minimal elements first)
    and its labeling.  The lifted order equals
    ``max(indices[-1] - k, order(labels))``.
    """
    labels = validate_labeling(p, labels)
    indices = tuple(indices)
    k = len(indices)
    if k < 1:
        raise RangeError("need at least one new label index")
    if any(type(i) is not int for i in indices):  # bool is an int subclass
        raise RangeError(f"indices {_short_repr(indices)} must be integers")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise RangeError(f"indices {_short_repr(indices)} must be strictly increasing")
    if indices[0] < 1 or indices[-1] > p.n + k:
        raise RangeError(f"indices {_short_repr(indices)} must lie in 1..{p.n + k}")
    lifted = list(indices)
    for value in labels:
        for step in indices:
            if value >= step:
                value += 1
        lifted.append(value)
    return ordinal_sum(antichain(k), p), tuple(lifted)
