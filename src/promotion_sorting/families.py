"""Constructors for the structured poset families used by the closed forms.

Three families appear throughout the package:

* shoelaces: two tiers of extremal elements joined by disjoint chains, one
  chain per comparable (minimal, maximal) pair;
* W-shaped posets ``W(a, b, c, d)``: the 4-chain shoelace on two minimal and
  three maximal elements whose tangled labelings have a closed-form count;
* inflations of rooted forests: every forest node is replaced by a fiber
  poset with a unique minimal element, and distinct fibers compare exactly
  as their forest nodes do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .posets import (DisconnectedError, Poset, SpecError, _check_ints, _short_repr,
                     poset_from_doc)


class FiberError(ValueError):
    """An inflation fiber does not have exactly one minimal element."""


class ForestError(ValueError):
    """A parent map does not describe a rooted forest."""


# -- shoelaces ---------------------------------------------------------------

@dataclass(frozen=True)
class ShoelaceSpec:
    """Description of a shoelace poset.

    ``minimals`` and ``maximals`` count the bottom and top tier.  ``chains``
    maps each comparable (i, j) tier pair, 1-based on both sides, to the
    number of interior elements on the chain joining it (0 means a cover).
    """

    minimals: int
    maximals: int
    chains: Mapping


def build_shoelace(spec: ShoelaceSpec) -> Poset:
    """Build the shoelace poset described by ``spec``.

    Element layout: minimal elements first (``x1..``), then maximal elements
    (``y1..``), then the interior chain elements grouped by pair in sorted
    pair order, each chain listed bottom to top.  Raises SpecError unless
    every key is a pair of in-range ``int``s and every value an ``int``
    >= 0 (a ``bool`` is neither), and DisconnectedError when the result is
    not connected.
    """
    l, m = spec.minimals, spec.maximals
    _check_ints(SpecError, minimals=l, maximals=m)
    if l < 1 or m < 1:
        raise SpecError("a shoelace needs at least one minimal and one maximal element")
    for pair, length in spec.chains.items():
        if not (isinstance(pair, tuple) and len(pair) == 2 and all(type(v) is int for v in pair)
                and 1 <= pair[0] <= l and 1 <= pair[1] <= m):
            raise SpecError(f"pair {_short_repr(pair)} out of range for {l} minimals, "
                            f"{m} maximals")
        if type(length) is not int or length < 0:
            raise SpecError(f"chain length for {pair} is {_short_repr(length)}, not an int >= 0")

    names = [f"x{i}" for i in range(1, l + 1)] + [f"y{j}" for j in range(1, m + 1)]
    covers: list[tuple[int, int]] = []
    nxt = l + m
    for (i, j), length in sorted(spec.chains.items()):
        prev = i - 1
        for t in range(length):
            names.append(f"c{i}.{j}.{t + 1}")
            covers.append((prev, nxt))
            prev = nxt
            nxt += 1
        covers.append((prev, l + j - 1))
    poset = Poset(nxt, covers, names)
    if not poset.is_connected():
        raise DisconnectedError("shoelace specification splits into disconnected parts")
    return poset


# -- the W family ------------------------------------------------------------

@dataclass(frozen=True)
class WParams:
    """Arm lengths of a W-shaped poset.

    Zero-length arms are allowed and mean a missing branch (the closed-form
    tangled count additionally requires all four to be positive).
    """

    a: int
    b: int
    c: int
    d: int


def build_w_poset(params: WParams) -> Poset:
    """The poset on a + b + c + d + 3 elements with two minimal elements x, z.

    x sits below the chain ``a1 < .. < a<a>`` and the chain ``b1 < .. < b<b> < y``;
    z sits below ``g1 < .. < g<c> < y`` and ``d1 < .. < d<d>``.  Element order:
    x, the a-chain, the b-chain, y, z, the c-chain, the d-chain.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    _check_ints(SpecError, a=a, b=b, c=c, d=d)
    if min(a, b, c, d) < 0:
        raise SpecError("W-poset arm lengths must be nonnegative")
    names = (["x"]
             + [f"a{i}" for i in range(1, a + 1)]
             + [f"b{i}" for i in range(1, b + 1)]
             + ["y", "z"]
             + [f"g{i}" for i in range(1, c + 1)]
             + [f"d{i}" for i in range(1, d + 1)])
    x, y, z = 0, a + b + 1, a + b + 2
    chains = ([x, *range(1, a + 1)],
              [x, *range(a + 1, y), y],
              [z, *range(z + 1, z + 1 + c), y],
              [z, *range(z + 1 + c, z + 1 + c + d)])
    covers = [pair for run in chains for pair in zip(run, run[1:])]
    return Poset(a + b + c + d + 3, covers, names)


def w_as_shoelace(params: WParams) -> ShoelaceSpec:
    """The shoelace description of ``W(a, b, c, d)``.

    Minimals are (x, z); maximals are (top of the a-chain, y, top of the
    d-chain); chain lengths count the open intervals between the tied pairs.
    Zero arms collapse a maximal element, so all four lengths must be positive.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    _check_ints(SpecError, a=a, b=b, c=c, d=d)
    if min(a, b, c, d) < 1:
        raise SpecError("the shoelace view of W needs positive arm lengths")
    return ShoelaceSpec(minimals=2, maximals=3,
                        chains={(1, 1): a - 1, (1, 2): b, (2, 2): c, (2, 3): d - 1})


# -- inflations of rooted forests --------------------------------------------

@dataclass(frozen=True)
class InflationSpec:
    """A rooted forest plus one fiber poset per node, validated on construction.

    ``parents[q]`` is the node covering ``q`` (roots carry ``None``); roots
    are the maximal elements of the forest order.  Parents must be ``int``
    node indices (a ``bool`` is not accepted).  ``fibers[q]`` replaces node
    ``q`` and must be a :class:`Poset` with a unique minimal element.
    Construction checks one fiber per node, then the forest, then each fiber.
    """

    parents: tuple
    fibers: tuple

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "fibers", tuple(self.fibers))
        if len(self.fibers) != len(self.parents):
            raise SpecError("need exactly one fiber per forest node")
        _validate_forest(self.parents)
        for q, fiber in enumerate(self.fibers):
            if not isinstance(fiber, Poset):
                raise SpecError(f"fiber {q} is not a Poset")
            if len(fiber.minimals) != 1:
                raise FiberError(
                    f"fiber {q} has {len(fiber.minimals)} minimal elements, needs exactly 1")


def _validate_forest(parents: tuple) -> None:
    """Check that the parent map describes a rooted forest.

    Every parent is ``None`` or an in-range ``int`` node index, and every
    node reaches a root.  The walk from ``q`` marks its nodes with ``q`` and
    stops at a root or at a node an earlier, cycle-free walk marked, so each
    node is walked once; a walk that meets its own mark has found a cycle.
    """
    r = len(parents)
    if r == 0:
        raise ForestError("a forest needs at least one node")
    for q, par in enumerate(parents):
        if par is not None and (type(par) is not int or not 0 <= par < r):
            raise ForestError(f"parent of node {q} is {_short_repr(par)}")
    walk = [-1] * r
    for q in range(r):
        node = q
        while node is not None and walk[node] < 0:
            walk[node] = q
            node = parents[node]
        if node is not None and walk[node] == q:
            raise ForestError("parent map contains a cycle")


def build_inflation(spec: InflationSpec) -> tuple[Poset, tuple[int, ...]]:
    """Build the inflated poset and the fiber map ``phi``.

    Elements are laid out fiber by fiber in node order, preserving the
    internal indices of each fiber.  ``phi[e]`` is the forest node whose
    fiber contains element ``e``.  For elements of distinct fibers the built
    order satisfies: x < y exactly when phi(x) is below phi(y) in the forest.
    ``spec`` validated itself when it was constructed, so this only builds.
    """
    parents = spec.parents
    fibers = spec.fibers
    offsets = []
    total = 0
    for fiber in fibers:
        offsets.append(total)
        total += fiber.n
    phi = []
    covers: list[tuple[int, int]] = []
    for q, fiber in enumerate(fibers):
        base = offsets[q]
        phi.extend([q] * fiber.n)
        covers += [(a + base, b + base) for a, b in fiber.covers]
        parent = parents[q]
        if parent is not None:
            target = offsets[parent] + fibers[parent].minimals[0]
            covers += [(top + base, target) for top in fiber.maximals]
    return Poset(total, covers), tuple(phi)


def inflation_spec_from_json(doc: Mapping,
                             check_n: Optional[Callable[[int], None]] = None) -> InflationSpec:
    """Parse ``{"parents": [...], "fibers": [poset documents]}``.

    Each fiber is checked like any other poset document by
    :func:`~promotion_sorting.posets.poset_from_doc`, before
    :class:`InflationSpec` checks the parents.  ``check_n``, when given, sees
    the running total of the fiber sizes, each fiber's size added before that
    fiber is built.
    """
    if not isinstance(doc, Mapping) or "parents" not in doc or "fibers" not in doc:
        raise SpecError('inflation document must carry "parents" and "fibers"')
    parents, fibers = doc["parents"], doc["fibers"]
    if not isinstance(parents, list) or not isinstance(fibers, list):
        raise SpecError('"parents" and "fibers" must be lists')
    built: list[Poset] = []
    size = 0
    for fiber in fibers:
        built.append(poset_from_doc(fiber, None if check_n is None
                                    else lambda n: check_n(size + n)))
        size += built[-1].n
    return InflationSpec(parents=parents, fibers=built)
