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

from dataclasses import dataclass, field
from typing import Mapping

from .posets import DisconnectedError, Poset, SpecError, poset_from_doc


class FiberError(ValueError):
    """An inflation fiber does not have exactly one minimal element."""


class ForestError(ValueError):
    """A parent map does not describe a rooted forest."""


# -- shoelaces ---------------------------------------------------------------

@dataclass(frozen=True)
class ShoelaceSpec:
    """Description of a shoelace poset.

    ``minimals`` and ``maximals`` count the bottom and top tier.  ``pairs``
    holds the comparable (i, j) tier pairs, 1-based on both sides, and
    ``chain_lengths`` gives the number of interior elements on the chain
    joining each pair (missing pairs default to 0, meaning a cover).
    """

    minimals: int
    maximals: int
    pairs: frozenset = field(default_factory=frozenset)
    chain_lengths: Mapping = field(default_factory=dict)

    def __post_init__(self):
        pairs = frozenset((int(i), int(j)) for i, j in self.pairs)
        object.__setattr__(self, "pairs", pairs)

    def length_of(self, pair: tuple[int, int]) -> int:
        return int(self.chain_lengths.get(pair, 0))


def build_shoelace(spec: ShoelaceSpec) -> Poset:
    """Build the shoelace poset described by ``spec``.

    Element layout: minimal elements first (``x1..``), then maximal elements
    (``y1..``), then the interior chain elements grouped by pair in sorted
    pair order, each chain listed bottom to top.  Raises SpecError for
    malformed data and DisconnectedError when the result is not connected.
    """
    l, m = spec.minimals, spec.maximals
    if l < 1 or m < 1:
        raise SpecError("a shoelace needs at least one minimal and one maximal element")
    if not spec.pairs:
        raise DisconnectedError("a shoelace with no comparable pairs is disconnected")
    for i, j in spec.pairs:
        if not (1 <= i <= l and 1 <= j <= m):
            raise SpecError(f"pair ({i}, {j}) out of range for {l} minimals, {m} maximals")
    for pair, val in spec.chain_lengths.items():
        key = (int(pair[0]), int(pair[1]))
        if key not in spec.pairs:
            raise SpecError(f"chain length given for absent pair {key}")
        if int(val) < 0:
            raise SpecError(f"chain length for {key} must be nonnegative")

    names = [f"x{i}" for i in range(1, l + 1)] + [f"y{j}" for j in range(1, m + 1)]
    covers: list[tuple[int, int]] = []
    nxt = l + m
    for i, j in sorted(spec.pairs):
        bottom = i - 1
        top = l + j - 1
        prev = bottom
        for t in range(spec.length_of((i, j))):
            names.append(f"c{i}.{j}.{t + 1}")
            covers.append((prev, nxt))
            prev = nxt
            nxt += 1
        covers.append((prev, top))
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
    if min(a, b, c, d) < 0:
        raise SpecError("W-poset arm lengths must be nonnegative")
    names = (["x"]
             + [f"a{i}" for i in range(1, a + 1)]
             + [f"b{i}" for i in range(1, b + 1)]
             + ["y", "z"]
             + [f"g{i}" for i in range(1, c + 1)]
             + [f"d{i}" for i in range(1, d + 1)])
    x = 0
    alpha = list(range(1, a + 1))
    beta = list(range(a + 1, a + b + 1))
    y = a + b + 1
    z = a + b + 2
    gamma = list(range(a + b + 3, a + b + 3 + c))
    delta = list(range(a + b + 3 + c, a + b + 3 + c + d))
    covers = [(x, beta[0]) if beta else (x, y),
              (z, gamma[0]) if gamma else (z, y)]
    if alpha:
        covers.append((x, alpha[0]))
    if delta:
        covers.append((z, delta[0]))
    if beta:
        covers.append((beta[-1], y))
    if gamma:
        covers.append((gamma[-1], y))
    for run in (alpha, beta, gamma, delta):
        covers += list(zip(run, run[1:]))
    return Poset(a + b + c + d + 3, covers, names)


def w_as_shoelace(params: WParams) -> ShoelaceSpec:
    """The shoelace description of ``W(a, b, c, d)``.

    Minimals are (x, z); maximals are (top of the a-chain, y, top of the
    d-chain); chain lengths count the open intervals between the tied pairs.
    Zero arms collapse a maximal element, so all four lengths must be positive.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    if min(a, b, c, d) < 1:
        raise SpecError("the shoelace view of W needs positive arm lengths")
    return ShoelaceSpec(
        minimals=2, maximals=3,
        pairs=frozenset({(1, 1), (1, 2), (2, 2), (2, 3)}),
        chain_lengths={(1, 1): a - 1, (1, 2): b, (2, 2): c, (2, 3): d - 1},
    )


# -- inflations of rooted forests --------------------------------------------

@dataclass(frozen=True)
class InflationSpec:
    """A rooted forest plus one fiber poset per node.

    ``parents[q]`` is the node covering ``q`` (roots carry ``None``); roots
    are the maximal elements of the forest order.  Parents must be ``int``
    node indices (a ``bool`` is not accepted).  ``fibers[q]`` replaces node
    ``q`` and must have a unique minimal element.
    """

    parents: tuple
    fibers: tuple

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "fibers", tuple(self.fibers))


def _validate_forest(parents: tuple) -> None:
    """Check that the parent map describes a rooted forest.

    Every parent is ``None`` or an in-range ``int`` node index, and every
    node reaches a root within r - 1 steps; a longer walk repeats a node.
    """
    r = len(parents)
    if r == 0:
        raise ForestError("a forest needs at least one node")
    for q, par in enumerate(parents):
        if par is not None and (type(par) is not int or not 0 <= par < r):
            raise ForestError(f"parent of node {q} is {par!r}")
    for q in range(r):
        node = q
        for _ in range(r):
            if parents[node] is None:
                break
            node = parents[node]
        else:
            raise ForestError("parent map contains a cycle")


def build_inflation(spec: InflationSpec) -> tuple[Poset, tuple[int, ...]]:
    """Build the inflated poset and the fiber map ``phi``.

    Elements are laid out fiber by fiber in node order, preserving the
    internal indices of each fiber.  ``phi[e]`` is the forest node whose
    fiber contains element ``e``.  For elements of distinct fibers the built
    order satisfies: x < y exactly when phi(x) is below phi(y) in the forest.
    """
    parents = spec.parents
    fibers = spec.fibers
    if len(fibers) != len(parents):
        raise SpecError("need exactly one fiber per forest node")
    _validate_forest(parents)
    for q, fiber in enumerate(fibers):
        if not isinstance(fiber, Poset):
            raise SpecError(f"fiber {q} is not a Poset")
        if len(fiber.minimals) != 1:
            raise FiberError(
                f"fiber {q} has {len(fiber.minimals)} minimal elements, needs exactly 1")

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


def inflation_spec_from_json(doc: Mapping) -> InflationSpec:
    """Parse ``{"parents": [...], "fibers": [poset documents]}``.

    Parents must be integers or ``null`` and describe a rooted forest
    (:class:`ForestError` otherwise); each fiber is checked like any other
    poset document by :func:`~promotion_sorting.posets.poset_from_doc`.
    """
    if not isinstance(doc, Mapping) or "parents" not in doc or "fibers" not in doc:
        raise SpecError('inflation document must carry "parents" and "fibers"')
    parents, fibers = doc["parents"], doc["fibers"]
    if not isinstance(parents, list) or not isinstance(fibers, list):
        raise SpecError('"parents" and "fibers" must be lists')
    _validate_forest(tuple(parents))
    return InflationSpec(parents=parents, fibers=[poset_from_doc(f) for f in fibers])
