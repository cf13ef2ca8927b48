"""Closed-form counts and generating-function composition rules.

Every function here returns exact integers, rationals or integer vectors;
the matching enumeration oracles live in :mod:`promotion_sorting.enumeration`
and the test suite keeps the two routes in agreement.

Every size refusal goes through ``enumeration._check_budget``.  The families
built on a realized poset (inflated forests, W-posets, attached antichains,
pedestals, stacks of antichains, brooms) refuse one larger than
``CLOSED_FORM_MAX_N`` elements with no override (``force=None``): their
big-integer arithmetic grows polynomially in that size, to at most about
0.4 s at the cap on a 2-vCPU machine.  ``weak_order_family`` refuses more
than 6 entries the same way.  The CLI reuses the cap for ``order``,
``promote``, ``lift`` and ``export-dot``, and caps ``promote`` at
``CLOSED_FORM_MAX_N ** 2`` printed labels (elements times steps).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, permutations
from math import comb, factorial
from operator import le
from typing import Optional, Sequence

from .enumeration import GenFun, _check_budget
from .families import InflationSpec, build_inflation
from .posets import Poset, _check_ints, _short_repr
from .promotion import InternalError


class ParamError(ValueError):
    """A closed-form parameter is outside its domain."""


class ModeError(ValueError):
    """An unknown mode string was passed."""


class DistinctnessError(ValueError):
    """A composition that must have distinct entries repeats one."""


CLOSED_FORM_MAX_N = 400


# -- tangled counts for inflated rooted forests --------------------------------

def _leaf_sum(parents: Sequence[Optional[int]], weights: Sequence[int],
              target: int) -> tuple[Fraction, int]:
    """Leaf sum of chain products below ``target``, and its subtree weight.

    Each leaf below ``target`` (or ``target`` itself, when it is a leaf)
    contributes the product of (b-1)/(c-1) over the steps of its chain up to
    ``target``: b is the weight below and including the previous chain node,
    c the weight strictly below the current one.  A weight-1 step forces
    b = c = 1 and contributes the empty factor 1; steps through single-child
    nodes always have b = c and cancel, which is why collapsing such nodes
    first does not change the value.
    """
    children: list[list[int]] = [[] for _ in parents]
    for q, par in enumerate(parents):
        if par is not None:
            children[par].append(q)
    order = [target]
    for q in order:  # breadth first, so every node comes after its parent
        order += children[q]
    sub = list(weights)
    value = [Fraction(1)] * len(parents)
    for q in reversed(order):
        if children[q]:
            c = sum(sub[kid] for kid in children[q])
            sub[q] += c
            value[q] = sum(value[kid] * (Fraction(sub[kid] - 1, c - 1) if c > 1 else 1)
                           for kid in children[q])
    return value[target], sub[target]


def irf_tangled_by_element(spec: InflationSpec, x: int) -> int:
    """Tangled labelings of an inflated rooted forest with label n-1 on ``x``.

    Zero for minimal ``x``.  Within the tree containing ``x`` the count is
    (n_t - 2)! times the leaf sum of chain products at the fiber of ``x``;
    other trees contribute the disjoint-union factor
    (n - n_t)! * C(n - 2, n_t - 2).
    """
    weights = [fiber.n for fiber in spec.fibers]
    _check_budget(sum(weights), None, CLOSED_FORM_MAX_N, "inflated forest elements")
    p, phi = build_inflation(spec)
    if type(x) is not int or not 0 <= x < p.n:  # bool is an int subclass
        raise IndexError(f"element {_short_repr(x)} out of range for {p.n} elements")
    if not p.below[x]:
        return 0
    parents = spec.parents
    root = phi[x]
    while parents[root] is not None:
        root = parents[root]
    _, n_tree = _leaf_sum(parents, weights, root)
    total, _ = _leaf_sum(parents, weights, phi[x])
    scaled = factorial(n_tree - 2) * total
    if scaled.denominator != 1:
        raise InternalError(f"non-integral tangled count {scaled} for x={x}")
    count = int(scaled)
    if n_tree < p.n:
        count *= factorial(p.n - n_tree) * comb(p.n - 2, n_tree - 2)
    return count


def irf_bound(spec: InflationSpec) -> Fraction:
    """The leaf sum of chain products for a single inflated rooted tree.

    With n elements and m leaves the value is 1 when n = 1 and otherwise at
    most (n - m)/(n - 1), strictly below it as soon as m > 1.
    """
    weights = [fiber.n for fiber in spec.fibers]
    _check_budget(sum(weights), None, CLOSED_FORM_MAX_N, "inflated forest elements")
    roots = [q for q, par in enumerate(spec.parents) if par is None]
    if len(roots) != 1:
        raise ValueError("the leaf-sum bound applies to a single rooted tree")
    return _leaf_sum(spec.parents, weights, roots[0])[0]


# -- the W-poset count ----------------------------------------------------------

def _multinomial(i: int, j: int, t: int) -> int:
    return factorial(i + j + t) // (factorial(i) * factorial(j) * factorial(t))


def w_poset_tangled(a: int, b: int, c: int, d: int) -> int:
    """Exact number of tangled labelings of the W-poset W(a, b, c, d)."""
    _check_ints(ParamError, a=a, b=b, c=c, d=d)
    if min(a, b, c, d) < 1:
        raise ParamError("W-poset arm lengths must all be at least 1")
    n = a + b + c + d + 3
    _check_budget(n, None, CLOSED_FORM_MAX_N, "W-poset elements")
    x_sum = sum((d - j + 1) * _multinomial(i, j, c - 1)
                for i in range(b) for j in range(d + 1))
    z_sum = sum((a - j + 1) * _multinomial(i, j, b - 1)
                for i in range(c) for j in range(a + 1))
    corrections = comb(n - 2, a) * x_sum + comb(n - 2, d) * z_sum
    arm_orbits = factorial(a) * factorial(b) * factorial(c) * factorial(d)
    return (n - 2) * factorial(n - 2) - arm_orbits * corrections


# -- attaching an antichain below a poset -----------------------------------------

@dataclass(frozen=True)
class CompositionMatrices:
    """The transition matrices for hanging a k-antichain under an n-poset.

    ``x`` maps sorting counts, ``y`` cumulative counts, and ``r`` is the
    lower-triangular all-ones summation matrix; they satisfy y r = r x.
    """

    x: tuple
    y: tuple
    r: tuple


def composition_matrices(n: int, k: int) -> CompositionMatrices:
    _check_ints(ParamError, n=n, k=k)
    if n < 1 or k < 1:
        raise ParamError("need n >= 1 and k >= 1")
    kf = factorial(k)
    x = tuple(
        tuple(
            kf * comb(k + i, k) if i == j else (kf * comb(k + i - 1, k - 1) if i > j else 0)
            for j in range(n))
        for i in range(n))
    y = tuple(
        tuple(factorial(k + i) // factorial(i) if i == j else 0 for j in range(n))
        for i in range(n))
    r = tuple(tuple(1 if j <= i else 0 for j in range(n)) for i in range(n))
    return CompositionMatrices(x=x, y=y, r=r)


def _mat_vec(m, v) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in m]


def attach_antichain(gf, k: int, mode: str = "sorting") -> GenFun:
    """Generating function of (k-antichain) + (the poset behind ``gf``).

    ``gf`` is the length-n sorting or cumulative vector of some n-element
    poset; the result is the length-(n + k) vector of the ordinal sum with a
    k-element antichain hung below it.
    """
    coeffs = tuple(gf.coeffs if isinstance(gf, GenFun) else gf)
    n = len(coeffs)
    if n < 1:
        raise ParamError("the input vector must be nonempty")
    _check_ints(ParamError, k=k)
    if k < 1:
        raise ParamError("the antichain size k must be at least 1")
    _check_budget(n + k, None, CLOSED_FORM_MAX_N, "attached antichain poset elements")
    if any(type(c) is not int for c in coeffs):  # bool is an int subclass
        raise ParamError("generating function coefficients must be integers")
    if any(c < 0 for c in coeffs):
        raise ParamError("generating function coefficients must be nonnegative")
    if mode == "sorting":
        if sum(coeffs) != factorial(n):
            raise ParamError(
                f"sorting coefficients must sum to {n}! = {factorial(n)}, got {sum(coeffs)}")
        mats = composition_matrices(n, k)
        out = _mat_vec(mats.x, coeffs)
        out.append(factorial(n) * factorial(k) * comb(n + k - 1, k - 1))
        out.extend([0] * (k - 1))
    elif mode == "cumulative":
        if any(a > b for a, b in zip(coeffs, coeffs[1:])):
            raise ParamError("cumulative coefficients must be nondecreasing")
        if coeffs[-1] != factorial(n):
            raise ParamError(
                f"cumulative coefficients must end at {n}! = {factorial(n)}, got {coeffs[-1]}")
        mats = composition_matrices(n, k)
        out = _mat_vec(mats.y, coeffs)
        out.extend([factorial(n + k)] * k)
    else:
        raise ModeError(f"mode must be 'sorting' or 'cumulative', got {mode!r}")
    return GenFun(tuple(out))


# -- pedestals ---------------------------------------------------------------------

@dataclass(frozen=True)
class PedestalTails:
    """Top coefficients after placing a length-l chain under an n-poset.

    ``b_tail[r]`` is the cumulative coefficient at degree n + l - 1 - r for
    r = 0..l and ``a_tail[r]`` the sorting coefficient there for r = 0..l-1;
    both depend only on n and l.  ``quasi_plus_tangled`` is the combined
    count of the two highest sorting classes, which collapses to
    3(n + l - 1)! - (n + l - 2)! once l >= 2 (for l = 1 no closed form of
    that shape holds and the field is None).
    """

    b_tail: tuple
    a_tail: tuple
    quasi_plus_tangled: Optional[int]


def pedestal_coeffs(n: int, l: int) -> PedestalTails:
    _check_ints(ParamError, n=n, l=l)
    if n < 1 or l < 1:
        raise ParamError("need a base size n >= 1 and a chain length l >= 1")
    _check_budget(n + l, None, CLOSED_FORM_MAX_N, "pedestal poset elements")
    b_tail = tuple((n + l - r) ** r * factorial(n + l - r) for r in range(l + 1))
    a_tail = tuple(
        ((n + l - r) ** (r + 1) - (n + l - r - 1) ** (r + 1)) * factorial(n + l - r - 1)
        for r in range(l))
    if l >= 2:
        quasi = 3 * factorial(n + l - 1) - factorial(n + l - 2)
        if quasi != a_tail[0] + a_tail[1]:
            raise InternalError("pedestal tail coefficients disagree with the combined form")
    else:
        quasi = None
    return PedestalTails(b_tail=b_tail, a_tail=a_tail, quasi_plus_tangled=quasi)


# -- ordinal sums of antichains ------------------------------------------------------

def ordinal_sum_antichains_g(sizes: Sequence[int]) -> GenFun:
    """Cumulative generating function of a stack of antichains.

    ``sizes`` lists the antichain sizes top to bottom: the realized poset is
    ``antichain(sizes[-1]) + ... + antichain(sizes[0])`` read upward, matching
    the iteration that starts from the first block and keeps hanging the next
    antichain underneath.  Coefficient s only depends on which prefix of
    ``sizes`` is fully sorted after s steps.
    """
    sizes = tuple(sizes)
    if not sizes or any(type(c) is not int or c < 1 for c in sizes):
        raise ParamError("antichain sizes must be positive integers")
    _check_budget(sum(sizes), None, CLOSED_FORM_MAX_N, "antichain stack elements")
    prefix = list(accumulate(sizes))
    n = prefix[-1]
    coeffs = []
    for s in range(n):
        j = bisect_right(prefix, s)
        value = factorial(prefix[j])
        for m in range(j + 1, len(sizes)):
            value *= factorial(sizes[m] + s) // factorial(s)
        coeffs.append(value)
    return GenFun(tuple(coeffs))


# -- brooms ---------------------------------------------------------------------------

def broom_f(n: int, k: int) -> GenFun:
    """Sorting generating function of an n-antichain under a (k+1)-chain.

    Closed form: a_s = (n+s)! (s+1)^(k+1-s) - (n+s-1)! s^(k+2-s) for
    s <= k + 1 and 0 beyond, with 0^positive = 0 killing the second term at
    s = 0.  Satisfies the symmetry a_k(n, k) = a_n(k, n) for n <= k.
    """
    _check_ints(ParamError, n=n, k=k)
    if n < 0 or k < 0:
        raise ParamError("need n >= 0 and k >= 0")
    size = n + k + 1
    _check_budget(size, None, CLOSED_FORM_MAX_N, "broom elements")
    coeffs = [0] * size
    for s in range(min(k + 1, size - 1) + 1):
        first = factorial(n + s) * (s + 1) ** (k + 1 - s)
        power = s ** (k + 2 - s)
        second = factorial(n + s - 1) * power if power else 0
        coeffs[s] = first - second
    return GenFun(tuple(coeffs))


# -- the dominance family of a composition ----------------------------------------------

def _inversions(perm: tuple) -> frozenset:
    return frozenset(
        (perm[i], perm[j])
        for i in range(len(perm)) for j in range(i + 1, len(perm))
        if perm[i] > perm[j])


def weak_order_leq(u: tuple, v: tuple) -> bool:
    """Right weak order comparison via inversion-set containment."""
    return _inversions(u) <= _inversions(v)


def weak_order_covers(r: int) -> list[tuple[tuple, tuple]]:
    """All cover pairs of the right weak order on the permutations of 1..r."""
    covers = []
    for perm in permutations(range(1, r + 1)):
        for i in range(r - 1):
            if perm[i] < perm[i + 1]:
                upper = perm[:i] + (perm[i + 1], perm[i]) + perm[i + 2:]
                covers.append((perm, upper))
    return covers


def _vector_leq(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


@dataclass(frozen=True)
class CoeffFamily:
    """Cumulative coefficient vectors of all reorderings of a composition.

    ``vectors[perm]`` is the cumulative vector of the composition reordered
    by ``perm``; ``hasse`` lists the cover pairs of coordinatewise dominance
    between distinct vectors (keyed by lexicographically least permutation);
    ``extra_covers`` are the dominance covers that the weak order does not
    force; ``collisions`` lists permutation groups sharing a vector.
    ``refinement_ok`` records that reversing permutations embeds every weak
    order cover into dominance.
    """

    composition: tuple
    vectors: dict
    hasse: tuple
    extra_covers: tuple
    collisions: tuple
    refinement_ok: bool


def weak_order_family(composition: Sequence[int]) -> CoeffFamily:
    """Dominance structure on the vectors of all reorderings of a composition.

    The entries must be distinct positive integers; they are sorted
    ascending internally (the family only depends on the underlying set).
    The Hasse diagram is the cover relation of the dominance poset on the d
    distinct vectors, which compares all d^2 pairs of vectors.  Budgeted at
    6 entries (d <= 720, about a second): at 7 entries d reaches 5,040 and
    the comparisons alone number about 25 million.
    """
    entries = tuple(composition)
    if any(type(c) is not int for c in entries):  # bool is an int subclass
        raise ParamError("composition entries must be integers")
    if any(c < 1 for c in entries):
        raise ParamError("composition entries must be positive")
    if len(set(entries)) != len(entries):
        raise DistinctnessError(f"composition entries must be distinct, got {entries}")
    _check_budget(len(entries), None, 6, "composition entries")
    base = tuple(sorted(entries))
    r = len(base)

    vectors = {
        perm: ordinal_sum_antichains_g([base[p - 1] for p in perm]).coeffs
        for perm in permutations(range(1, r + 1))
    }

    groups: dict[tuple, list] = {}
    for perm in sorted(vectors):
        groups.setdefault(vectors[perm], []).append(perm)
    collisions = tuple(tuple(g) for g in groups.values() if len(g) > 1)

    distinct = list(groups)
    dominance = Poset(len(distinct), [
        (i, j) for i, low in enumerate(distinct) for j, high in enumerate(distinct)
        if i != j and _vector_leq(low, high)])
    hasse = sorted((groups[distinct[i]][0], groups[distinct[j]][0])
                   for i, j in dominance.covers)

    refinement_ok = all(
        _vector_leq(vectors[low[::-1]], vectors[high[::-1]])
        for low, high in weak_order_covers(r))
    extra = tuple(
        (low, high) for low, high in hasse
        if not weak_order_leq(low[::-1], high[::-1]))
    return CoeffFamily(
        composition=base,
        vectors=vectors,
        hasse=tuple(hasse),
        extra_covers=extra,
        collisions=collisions,
        refinement_ok=refinement_ok,
    )
