"""Closed forms against their enumeration oracles."""

from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from promotion_sorting import (
    BudgetError,
    DistinctnessError,
    GenFun,
    InflationSpec,
    ModeError,
    ParamError,
    Poset,
    WParams,
    antichain,
    attach_antichain,
    broom_f,
    build_inflation,
    build_w_poset,
    chain,
    composition_matrices,
    generate_posets,
    irf_bound,
    irf_tangled_by_element,
    ordinal_sum,
    ordinal_sum_antichains_g,
    pedestal_coeffs,
    sorting_gf,
    tangled_report,
    w_poset_tangled,
    weak_order_covers,
    weak_order_family,
    weak_order_leq,
)

LAMBDA = Poset(3, [(0, 2), (1, 2)])
V3 = Poset(3, [(0, 1), (0, 2)])


# -- attaching an antichain below a poset -----------------------------------------

def test_attach_quoted_vectors():
    assert attach_antichain((2, 4, 0), 1).trimmed() == (2, 10, 6, 6)
    assert attach_antichain((2, 4, 0), 2).trimmed() == (4, 32, 36, 48)
    assert attach_antichain((2, 4, 0), 3).trimmed() == (12, 132, 216, 360)
    assert attach_antichain((2, 4, 0), 2).coeffs == (4, 32, 36, 48, 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_attach_matches_brute_force(k):
    stacked = ordinal_sum(antichain(k), LAMBDA)
    assert attach_antichain(sorting_gf(LAMBDA), k).coeffs == sorting_gf(stacked).coeffs
    got = attach_antichain(sorting_gf(LAMBDA).cumulative(), k, mode="cumulative")
    assert got.coeffs == sorting_gf(stacked).cumulative().coeffs


def test_attach_matches_enumeration_on_every_catalog_ordinal_sum():
    # every poset A_k + Q with n <= 6: its k minimal elements lie below every
    # other element, and Q, the subposet the others induce, is not empty
    checked = 0
    for n in range(2, 7):
        for p in generate_posets(n).entries:
            rest = [x for x in range(n) if x not in p.minimals]
            rest_mask = sum(1 << x for x in rest)
            if not rest or any(p.above[m] != rest_mask for m in p.minimals):
                continue
            k = len(p.minimals)
            f, g = sorting_gf(p.induced(rest)[0]), sorting_gf(p)
            assert attach_antichain(f, k).coeffs == g.coeffs, p.covers
            got = attach_antichain(f.cumulative(), k, mode="cumulative")
            assert got.coeffs == g.cumulative().coeffs, p.covers
            checked += 1
    # one poset per k and nonempty Q: the sum of A000112(n - k) over k < n
    assert checked == 1 + 3 + 8 + 24 + 87


def test_attach_validation():
    with pytest.raises(ParamError):
        attach_antichain((2, 4, 0), 0)
    with pytest.raises(ParamError):
        attach_antichain((2, 4, 1), 1)  # does not sum to 3!
    with pytest.raises(ParamError):
        attach_antichain((-2, 8, 0), 1)
    with pytest.raises(ParamError):
        attach_antichain((6, 2, 6), 1, mode="cumulative")  # not nondecreasing
    with pytest.raises(ParamError):
        attach_antichain((2, 6, 7), 1, mode="cumulative")  # wrong endpoint
    with pytest.raises(ModeError):
        attach_antichain((2, 4, 0), 1, mode="both")
    with pytest.raises(ParamError):
        attach_antichain((), 1)


def test_attach_refuses_non_integer_coefficients():
    # floats and bools are refused, not truncated to integers
    for coeffs in ((2.9, 4.1, 0), (2.0, 4, 0), (True, True)):
        with pytest.raises(ParamError, match="integers"):
            attach_antichain(coeffs, 1)


def test_attach_refuses_a_genfun_of_floats():
    # GenFun stores its coefficients as given, so nothing truncates them first
    with pytest.raises(ParamError, match="integers"):
        attach_antichain(GenFun((2.9, 4.1, 0)), 1)


NON_INT_SCALARS = [
    (attach_antichain, ((2, 4, 0), 1.5)),
    (attach_antichain, ((2, 4, 0), True)),
    (broom_f, (1.5, 1)),
    (broom_f, (True, 1)),
    (pedestal_coeffs, (2.5, 1)),
    (pedestal_coeffs, (True, 2)),
    (composition_matrices, (2.5, 1)),
    (w_poset_tangled, (1.5, 1, 1, 1)),
    (w_poset_tangled, (True, 1, 1, 1)),
]


@pytest.mark.parametrize("func, args", NON_INT_SCALARS,
                         ids=[f"{func.__name__}{args}" for func, args in NON_INT_SCALARS])
def test_scalar_parameters_must_be_ints(func, args):
    # a float is refused rather than failing inside range or factorial, and a
    # bool, an int subclass, is refused rather than run as 0 or 1
    with pytest.raises(ParamError, match="must be an integer"):
        func(*args)


def test_composition_matrices_small():
    m = composition_matrices(3, 1)
    assert m.x == ((1, 0, 0), (1, 2, 0), (1, 1, 3))
    assert m.y == ((1, 0, 0), (0, 2, 0), (0, 0, 3))
    assert m.r == ((1, 0, 0), (1, 1, 0), (1, 1, 1))
    assert composition_matrices(3, 2).x == ((2, 0, 0), (4, 6, 0), (6, 6, 12))
    assert composition_matrices(3, 3).x == ((6, 0, 0), (18, 24, 0), (36, 36, 60))
    with pytest.raises(ParamError):
        composition_matrices(0, 1)
    with pytest.raises(ParamError):
        composition_matrices(3, 0)


def _matmul(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a)))


def test_intertwining_identity():
    for n in range(1, 13):
        for k in range(1, 7):
            m = composition_matrices(n, k)
            assert _matmul(m.y, m.r) == _matmul(m.r, m.x)


# -- W-posets -----------------------------------------------------------------------

def test_w_poset_closed_form():
    assert w_poset_tangled(1, 1, 1, 1) == 570
    assert w_poset_tangled(2, 2, 1, 1) == 34412


def test_w_poset_brute():
    for params in ((1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1)):
        w = build_w_poset(WParams(*params))
        assert tangled_report(w).total == w_poset_tangled(*params)


def test_w_poset_mirror_symmetry():
    # reading the drawing backwards swaps the arm roles pairwise
    for a, b, c, d in ((1, 2, 3, 1), (2, 3, 1, 2), (1, 1, 2, 2)):
        assert w_poset_tangled(a, b, c, d) == w_poset_tangled(d, c, b, a)


def test_w_poset_validation():
    with pytest.raises(ParamError):
        w_poset_tangled(0, 1, 1, 1)
    with pytest.raises(ParamError):
        w_poset_tangled(1, 1, -1, 1)


# -- inflated rooted forests ----------------------------------------------------------

C1, C2, C3 = chain(1), chain(2), chain(3)

IRF_SPECS = [
    InflationSpec((None, 0, 1), (C1, C1, C1)),           # non-reduced chain shape
    InflationSpec((None, 0), (C2, C1)),
    InflationSpec((None, 0, 0), (C1, C2, C2)),
    InflationSpec((None, 0, 0), (C1, C2, C1)),
    InflationSpec((None, 0, 1, 1), (C1, C1, C2, C2)),
    InflationSpec((None, None), (C2, C2)),               # forest of two trees
    InflationSpec((None, 0, None), (C1, C2, C3)),
    InflationSpec((None, 0, 0, 1, 1), (C2, C1, C1, C1, C2)),
    InflationSpec((None, 0), (V3, C2)),
]


@pytest.mark.parametrize("spec", IRF_SPECS, ids=range(len(IRF_SPECS)))
def test_irf_formula_matches_brute(spec):
    p, _ = build_inflation(spec)
    rep = tangled_report(p)
    assert tuple(irf_tangled_by_element(spec, x) for x in range(p.n)) == rep.by_element


def test_irf_frozen_values():
    spec = InflationSpec((None, 0, 1, 1), (C1, C1, C2, C2))
    assert [irf_tangled_by_element(spec, x) for x in range(6)] == [16, 16, 0, 24, 0, 24]
    deep = InflationSpec((None, 0, 0, 1, 1), (C2, C1, C1, C1, C2))
    assert [irf_tangled_by_element(deep, x) for x in range(7)] == [45, 45, 60, 0, 0, 0, 120]
    forest = InflationSpec((None, 0, None), (C1, C2, C3))
    assert [irf_tangled_by_element(forest, x) for x in range(6)] == [24, 0, 24, 0, 24, 24]


def test_irf_minimal_and_degenerate():
    spec = InflationSpec((None, 0, 1), (C1, C1, C1))
    # every factor along the chain is the degenerate b = c = 1 step
    assert irf_tangled_by_element(spec, 0) == 1
    assert irf_tangled_by_element(spec, 2) == 0  # bottom element of the 3-chain
    with pytest.raises(IndexError):
        irf_tangled_by_element(spec, 3)


@pytest.mark.parametrize("x", [1.5, 1.0, True, False], ids=repr)
def test_irf_element_must_be_an_int(x):
    spec = InflationSpec((None, 0, 1), (C1, C1, C1))
    assert build_inflation(spec)[0].covers == ((1, 0), (2, 1))  # a 3-chain, top first
    with pytest.raises(IndexError):
        irf_tangled_by_element(spec, x)


def test_irf_per_element_cap():
    # (n-2)! cap with equality exactly when one minimal element sits below x
    for spec in IRF_SPECS:
        p, _ = build_inflation(spec)
        cap = factorial(p.n - 2)
        for x in range(p.n):
            count = irf_tangled_by_element(spec, x)
            assert count <= cap
            mins_below = [m for m in p.minimals if p.leq(m, x) and m != x]
            if count == cap:
                assert len(mins_below) == 1


def test_irf_bound_values():
    assert irf_bound(InflationSpec((None, 0, 1), (C1, C1, C1))) == 1
    assert irf_bound(InflationSpec((None, 0), (V3, C2))) == 1
    assert irf_bound(InflationSpec((None, 0, 0), (C1, C2, C2))) == Fraction(2, 3)
    assert irf_bound(InflationSpec((None, 0, 0), (C1, C2, C1))) == Fraction(1, 2)
    assert irf_bound(InflationSpec((None, 0, 0, 1, 1), (C2, C1, C1, C1, C2))) == Fraction(3, 8)
    assert irf_bound(InflationSpec((None,), (C1,))) == 1


def test_irf_refuses_more_than_the_closed_form_cap():
    over = InflationSpec((None, 0), (chain(200), chain(201)))
    with pytest.raises(BudgetError):
        irf_tangled_by_element(over, 0)
    with pytest.raises(BudgetError):
        irf_bound(over)
    at_cap = InflationSpec((None, 0), (chain(200), chain(200)))
    assert irf_bound(at_cap) == 1
    assert irf_tangled_by_element(at_cap, 399) == factorial(398)


def test_irf_builds_nothing_it_does_not_need(monkeypatch):
    # the bound reads only the fiber sizes, and the count checks their sum
    # before it builds the inflated poset
    import promotion_sorting.formulas as formulas

    def refuse(spec):
        raise AssertionError("built the inflated poset")

    monkeypatch.setattr(formulas, "build_inflation", refuse)
    assert irf_bound(InflationSpec((None, 0, 0), (C1, C2, C2))) == Fraction(2, 3)
    with pytest.raises(BudgetError, match="401 exceeds the budget of 400"):
        irf_tangled_by_element(InflationSpec((None, 0), (chain(200), chain(201))), 0)


def test_irf_bound_cap():
    for spec in IRF_SPECS:
        kids = [0] * len(spec.parents)
        roots = 0
        for par in spec.parents:
            if par is None:
                roots += 1
            else:
                kids[par] += 1
        if roots != 1:
            with pytest.raises(ValueError):
                irf_bound(spec)
            continue
        p, _ = build_inflation(spec)
        m = sum(1 for k in kids if k == 0)
        value = irf_bound(spec)
        if p.n == 1:
            assert value == 1
        elif m == 1:
            assert value == Fraction(p.n - m, p.n - 1)
        else:
            assert value < Fraction(p.n - m, p.n - 1)


# -- pedestals ------------------------------------------------------------------------

@pytest.mark.parametrize("base", [LAMBDA, chain(2), antichain(3)], ids=["lam", "c2", "a3"])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_pedestal_tails_match_brute(base, l):
    ped = ordinal_sum(chain(l), base)
    f = sorting_gf(ped).coeffs
    g = sorting_gf(ped).cumulative().coeffs
    tails = pedestal_coeffs(base.n, l)
    total = base.n + l
    assert len(tails.b_tail) == l + 1 and len(tails.a_tail) == l
    for r in range(l + 1):
        assert tails.b_tail[r] == g[total - 1 - r]
    for r in range(l):
        assert tails.a_tail[r] == f[total - 1 - r]


def test_pedestal_quasi_closed_form():
    for n in (2, 3, 4, 6):
        for l in (2, 3, 4):
            tails = pedestal_coeffs(n, l)
            assert tails.quasi_plus_tangled == 3 * factorial(n + l - 1) - factorial(n + l - 2)
            assert tails.quasi_plus_tangled == tails.a_tail[0] + tails.a_tail[1]


def test_pedestal_single_step_has_no_combined_form():
    # the combined closed form needs two tail entries; at l = 1 only the top
    # one exists, and the countable truth disagrees with the l >= 2 expression
    tails = pedestal_coeffs(3, 1)
    assert tails.quasi_plus_tangled is None
    assert tails.a_tail == (6,)
    f = sorting_gf(ordinal_sum(chain(1), LAMBDA)).coeffs
    assert f[-1] + f[-2] == 12
    assert 3 * factorial(3) - factorial(2) == 16


def test_pedestal_tangled_count_is_factorial():
    # with one pedestal step the new poset always has n! tangled labelings
    for n in (2, 3, 4):
        assert pedestal_coeffs(n, 1).a_tail[0] == factorial(n)
    assert pedestal_coeffs(3, 2).a_tail[1] == 2 * factorial(4) - factorial(3)


def test_pedestal_validation():
    with pytest.raises(ParamError):
        pedestal_coeffs(0, 1)
    with pytest.raises(ParamError):
        pedestal_coeffs(3, 0)


# -- ordinal sums of antichains ----------------------------------------------------------

def _stack_top_down(sizes):
    p = antichain(sizes[-1])
    for s in reversed(sizes[:-1]):
        p = ordinal_sum(p, antichain(s))
    return p


def test_ordinal_sum_g_values():
    assert ordinal_sum_antichains_g((2, 2, 2)).coeffs == (8, 72, 288, 480, 720, 720)
    assert ordinal_sum_antichains_g((4,)).coeffs == (24, 24, 24, 24)
    assert ordinal_sum_antichains_g((1, 2, 3)).coeffs == (12, 144, 360, 720, 720, 720)


@pytest.mark.parametrize(
    "sizes",
    [(2, 2, 2), (1, 2, 3), (3, 2, 1), (3, 1, 2), (2, 3), (1, 1, 1, 1), (4, 2), (2, 4)])
def test_ordinal_sum_g_matches_brute(sizes):
    got = ordinal_sum_antichains_g(sizes).coeffs
    assert got == sorting_gf(_stack_top_down(sizes)).cumulative().coeffs


def test_ordinal_sum_g_log_concave():
    from promotion_sorting import sequence_shape

    for sizes in ((2, 2, 2), (1, 2, 3), (3, 1, 2), (5, 2), (1, 4, 2)):
        assert sequence_shape(ordinal_sum_antichains_g(sizes).coeffs).log_concave


def test_ordinal_sum_g_validation():
    with pytest.raises(ParamError):
        ordinal_sum_antichains_g(())
    with pytest.raises(ParamError):
        ordinal_sum_antichains_g((2, 0, 1))


def test_ordinal_sum_g_refuses_non_integer_sizes():
    # floats and bools are refused, not truncated to integers
    for sizes in ((1.5, 2), (1.0, 2), (True, 2)):
        with pytest.raises(ParamError):
            ordinal_sum_antichains_g(sizes)


# -- brooms ----------------------------------------------------------------------------

def test_broom_values():
    assert broom_f(1, 1).coeffs == (1, 3, 2)
    assert broom_f(1, 0).coeffs == (1, 1)
    assert broom_f(3, 0).coeffs == (6, 18, 0, 0)
    assert broom_f(2, 2).coeffs == (2, 22, 48, 48, 0)


def test_broom_matches_brute():
    for n in range(0, 8):
        for k in range(0, 8 - n):
            p = ordinal_sum(antichain(n), chain(k + 1)) if n else chain(k + 1)
            assert broom_f(n, k).coeffs == sorting_gf(p).coeffs


def test_broom_symmetry():
    for n in range(0, 6):
        for k in range(n, 6):
            assert broom_f(n, k).coeffs[k] == broom_f(k, n).coeffs[n]


def test_broom_tail_and_total():
    for n in range(0, 5):
        for k in range(0, 4):
            coeffs = broom_f(n, k).coeffs
            assert sum(coeffs) == factorial(n + k + 1)
            assert all(c == 0 for c in coeffs[k + 2:])
    with pytest.raises(ParamError):
        broom_f(-1, 2)


# -- dominance family of a composition ----------------------------------------------------

S3_VECTORS = {
    (1, 2, 3): (12, 144, 360, 720, 720, 720),
    (1, 3, 2): (12, 144, 288, 480, 720, 720),
    (2, 1, 3): (12, 96, 360, 720, 720, 720),
    (2, 3, 1): (12, 96, 360, 480, 600, 720),
    (3, 1, 2): (12, 72, 216, 480, 720, 720),
    (3, 2, 1): (12, 72, 216, 480, 600, 720),
}

S3_HASSE = (
    ((1, 3, 2), (1, 2, 3)),
    ((2, 1, 3), (1, 2, 3)),
    ((2, 3, 1), (2, 1, 3)),
    ((3, 1, 2), (1, 3, 2)),
    ((3, 1, 2), (2, 1, 3)),
    ((3, 2, 1), (2, 3, 1)),
    ((3, 2, 1), (3, 1, 2)),
)


def test_weak_order_leq_and_covers():
    assert weak_order_leq((1, 2, 3), (3, 2, 1))
    assert weak_order_leq((2, 1, 3), (1, 3, 2)) is False
    assert not weak_order_leq((3, 1, 2), (2, 3, 1))
    covers = weak_order_covers(3)
    assert len(covers) == 6
    assert ((1, 2, 3), (2, 1, 3)) in covers
    assert all(weak_order_leq(low, high) for low, high in covers)


def test_weak_order_family_123():
    fam = weak_order_family((1, 2, 3))
    assert fam.composition == (1, 2, 3)
    assert fam.vectors == S3_VECTORS
    assert fam.hasse == S3_HASSE
    assert fam.extra_covers == (((3, 1, 2), (2, 1, 3)),)
    assert fam.collisions == ()
    assert fam.refinement_ok is True


def test_weak_order_family_independent_of_input_order():
    assert weak_order_family((3, 1, 2)).vectors == S3_VECTORS


def test_weak_order_family_pair():
    fam = weak_order_family((1, 2))
    assert fam.vectors == {(1, 2): (2, 6, 6), (2, 1): (2, 4, 6)}
    assert fam.hasse == (((2, 1), (1, 2)),)
    assert fam.extra_covers == ()
    assert fam.refinement_ok


def test_weak_order_family_s4():
    fam = weak_order_family((1, 2, 3, 4))
    assert fam.refinement_ok is True
    assert fam.collisions == ()
    assert len(fam.vectors) == 24
    # observed dominance beyond the weak order, with a weak-incomparable image pair
    low, high = (4, 1, 2, 3), (3, 2, 1, 4)
    assert all(x <= y for x, y in zip(fam.vectors[low], fam.vectors[high]))
    assert (low, high) in fam.extra_covers
    assert not weak_order_leq(high[::-1], low[::-1])
    assert not weak_order_leq(low[::-1], high[::-1])


def test_weak_order_family_no_collisions_elsewhere():
    for comp in ((1, 2, 4), (2, 3, 4)):
        fam = weak_order_family(comp)
        assert fam.collisions == ()
        assert fam.refinement_ok


def test_weak_order_family_validation():
    with pytest.raises(DistinctnessError):
        weak_order_family((1, 2, 2))
    with pytest.raises(ParamError):
        weak_order_family((0, 1, 2))
    with pytest.raises(BudgetError):
        weak_order_family((1, 2, 3, 4, 5, 6, 7))
    with pytest.raises(BudgetError):
        weak_order_family((1, 2, 3, 4, 5, 6, 7, 8))


def test_weak_order_family_refuses_non_integer_entries():
    # floats and bools are refused, not truncated to integers
    for composition in ((1.2, 2.7), (1.0, 2), (True, 2)):
        with pytest.raises(ParamError, match="integers"):
            weak_order_family(composition)


def reference_hasse(vectors):
    """Dominance covers between distinct vectors by the definition: no
    distinct vector lies strictly between.  Keyed by the least permutation."""
    reps = {}
    for perm in sorted(vectors):
        reps.setdefault(vectors[perm], perm)
    distinct = sorted(reps)

    def leq(a, b):
        return all(x <= y for x, y in zip(a, b))

    hasse = []
    for low in distinct:
        for high in distinct:
            if low == high or not leq(low, high):
                continue
            if any(mid != low and mid != high and leq(low, mid) and leq(mid, high)
                   for mid in distinct):
                continue
            hasse.append((reps[low], reps[high]))
    return tuple(sorted(hasse))


@pytest.mark.parametrize("composition", [
    comp for r in range(2, 6) for comp in combinations(range(1, 7), r)], ids=str)
def test_weak_order_hasse_matches_definition(composition):
    fam = weak_order_family(composition)
    assert fam.hasse == reference_hasse(fam.vectors)
