"""Extended promotion of poset labelings and the statistics it drives.

A labeling of an ``n``-element poset assigns the values ``1..n`` bijectively
to the elements; it is natural when every cover goes from a smaller to a
larger label.  One promotion step walks the label 1 upward, repeatedly
swapping it with the smallest label strictly above it until it sits on a
maximal element, then cyclically shifts all labels down by one (the walked
label 1 becomes ``n``).  The number of steps needed to reach a natural
labeling is the order (or sorting time) of the labeling; it never exceeds
``n - 1``, and labelings attaining ``n - 1`` are called tangled.

The hot loops work on position arrays: ``pos[i]`` is the element holding
label ``i + 1``.  The enumeration module runs these same two kernels,
``_advance`` and ``_is_natural_pos``, in its chunk loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .posets import Poset, antichain, basins, ordinal_sum


class InternalError(RuntimeError):
    """An internal guarantee failed; indicates a bug, not a user error."""


class RangeError(ValueError):
    """A lift index sequence is out of range or not strictly increasing."""


# -- labeling plumbing -------------------------------------------------------

def validate_labeling(p: Poset, labels: Sequence[int]) -> tuple[int, ...]:
    """Check that ``labels`` assigns 1..n bijectively; returns it as a tuple."""
    labels = tuple(labels)
    if len(labels) != p.n or sorted(labels) != list(range(1, p.n + 1)):
        raise ValueError(f"labeling {labels!r} is not a bijection onto 1..{p.n}")
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
        raise ValueError(f"labeling {text!r} is not comma-separated integers") from None


def format_labeling(labels: Iterable[int]) -> str:
    return ",".join(str(v) for v in labels)


# -- the promotion kernel ----------------------------------------------------

def _advance(above: Sequence[int], pos: list[int]) -> None:
    """One promotion step on a position array, in place.

    The scan index only moves forward: after swapping label 1 up to element
    ``y``, every label on an element above ``y`` is larger than the label
    just swapped, so earlier positions never need revisiting.  The step
    overwrites exactly the positions it swaps, then shifts the array by one.
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
    while not _is_natural_pos(p.below, pos):
        if len(path) > p.n - 1:
            raise InternalError("promotion failed to sort within n - 1 steps")
        _advance(p.above, pos)
        path.append(labels_of(pos))
    return path


def order(p: Poset, labels: Sequence[int]) -> int:
    """Number of promotion steps needed to sort; at most ``n - 1``."""
    labels = validate_labeling(p, labels)
    pos = positions_of(labels)
    for steps in range(p.n):
        if _is_natural_pos(p.below, pos):
            return steps
        _advance(p.above, pos)
    raise InternalError("promotion failed to sort within n - 1 steps")


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
    """Whether the labeling attains the maximal order ``n - 1``.

    Uses the two-part characterization: label ``n`` must sit on a basin, and
    after ``n - 2`` promotions label 1 must sit strictly above that element.
    Single-element posets have no tangled labelings by convention.
    """
    labels = validate_labeling(p, labels)
    if p.n == 1:
        return False
    holder = labels.index(p.n)
    if holder not in basins(p):
        return False
    pos = positions_of(labels)
    for _ in range(p.n - 2):
        _advance(p.above, pos)
    return bool((p.above[holder] >> pos[0]) & 1)


def lift_labeling(p: Poset, labels: Sequence[int], indices: Sequence[int]) -> tuple[Poset, tuple[int, ...]]:
    """Extend a labeling over new bottom elements carrying chosen labels.

    ``indices`` picks the labels of ``k`` new pairwise-incomparable elements
    placed below everything; the old labels shift up to make room, one shift
    per chosen index.  Returns the lifted poset (new minimal elements first)
    and its labeling.  The lifted order equals
    ``max(indices[-1] - k, order(labels))``.
    """
    labels = validate_labeling(p, labels)
    indices = tuple(int(i) for i in indices)
    k = len(indices)
    if k < 1:
        raise RangeError("need at least one new label index")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise RangeError(f"indices {indices!r} must be strictly increasing")
    if indices[0] < 1 or indices[-1] > p.n + k:
        raise RangeError(f"indices {indices!r} must lie in 1..{p.n + k}")
    lifted = list(indices)
    for value in labels:
        for step in indices:
            if value >= step:
                value += 1
        lifted.append(value)
    return ordinal_sum(antichain(k), p), tuple(lifted)
