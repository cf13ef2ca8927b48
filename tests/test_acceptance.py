"""Acceptance gate.

One test per stated criterion, each printing a single verdict line
(run with -s to see them; the project pytest config keeps -s on).
Criterion 9 contains a clause that is provably false at pedestal length 1;
its verdict line reports FAIL (honest) with the computed numbers, the test
itself asserts the computed truth, and a strict xfail companion pins the
clause as written so any behavior change trips the suite.
"""

import random
import time
from itertools import permutations
from math import factorial

import pytest

from promotion_sorting import (
    InflationSpec,
    Poset,
    WParams,
    antichain,
    attach_antichain,
    basins,
    broom_f,
    build_inflation,
    build_w_poset,
    chain,
    composition_matrices,
    frozen_set,
    generate_posets,
    irf_bound,
    irf_tangled_by_element,
    is_natural,
    is_tangled,
    lift_labeling,
    order,
    ordinal_sum,
    pedestal_coeffs,
    promotion_path,
    scan_catalog,
    sequence_shape,
    sorting_gf,
    standardize,
    tangled_report,
    w_poset_tangled,
    weak_order_family,
)

LAMBDA = Poset(3, [(0, 2), (1, 2)])
T222 = ordinal_sum(antichain(2), ordinal_sum(antichain(2), antichain(2)))

TABLE1 = {
    (1, 2, 3): 0, (2, 1, 3): 0, (2, 3, 1): 1,
    (3, 2, 1): 1, (1, 3, 2): 1, (3, 1, 2): 1,
}

CONNECTED_COUNTS = {2: 1, 3: 3, 4: 10, 5: 44, 6: 238}


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_lambda_generating_functions():
    t0 = time.perf_counter()
    f_ok = sorting_gf(LAMBDA).trimmed() == (2, 4)
    g_ok = sorting_gf(LAMBDA).cumulative().coeffs == (2, 6, 6)
    orders = {labels: order(LAMBDA, labels) for labels in permutations((1, 2, 3))}
    table_ok = orders == TABLE1
    us = (time.perf_counter() - t0) * 1e6
    ok = f_ok and g_ok and table_ok
    assert _verdict(1, ok, f"f=[2,4], g=[2,6,6], 6 table orders exact ({us:.0f} us)"), orders


def test_criterion_02_attach_antichain():
    t0 = time.perf_counter()
    quoted = {1: (2, 10, 6, 6), 2: (4, 32, 36, 48), 3: (12, 132, 216, 360)}
    closed_ok = all(attach_antichain((2, 4, 0), k).trimmed() == vec
                    for k, vec in quoted.items())
    brute_ok = all(
        attach_antichain((2, 4, 0), k).coeffs
        == sorting_gf(ordinal_sum(antichain(k), LAMBDA)).coeffs
        for k in quoted)
    s = time.perf_counter() - t0
    ok = closed_ok and brute_ok and s < 1.0
    assert _verdict(2, ok, f"k=1,2,3 match the quoted vectors and brute force ({s:.2f}s)")


def test_criterion_03_w_poset_count():
    closed = w_poset_tangled(2, 2, 1, 1)
    w = build_w_poset(WParams(2, 2, 1, 1))
    t0 = time.perf_counter()
    single = tangled_report(w).total
    t_single = time.perf_counter() - t0
    t0 = time.perf_counter()
    pooled = tangled_report(w, workers=8).total
    t_pool = time.perf_counter() - t0
    ok = (closed == single == pooled == 34412
          and t_single < 60.0 and t_pool < 10.0)
    assert _verdict(
        3, ok,
        f"34412 closed form = enumeration over 9! labelings "
        f"({t_single:.2f}s single, {t_pool:.2f}s at 8 workers)")


def test_criterion_04_unimodality_counterexample():
    t0 = time.perf_counter()
    f = sorting_gf(T222)
    g = f.cumulative()
    f_ok = f.trimmed() == (8, 64, 216, 192, 240) and not sequence_shape(f.coeffs).unimodal
    g_ok = g.coeffs == (8, 72, 288, 480, 720, 720) and sequence_shape(g.coeffs).log_concave
    s = time.perf_counter() - t0
    ok = f_ok and g_ok and s < 1.0
    assert _verdict(4, ok, f"f not unimodal, g log-concave on T2+T2+T2 ({s:.2f}s)")


def test_criterion_05_dominance_family():
    t0 = time.perf_counter()
    expected = {
        (1, 2, 3): (12, 144, 360, 720, 720, 720),
        (1, 3, 2): (12, 144, 288, 480, 720, 720),
        (2, 1, 3): (12, 96, 360, 720, 720, 720),
        (2, 3, 1): (12, 96, 360, 480, 600, 720),
        (3, 1, 2): (12, 72, 216, 480, 720, 720),
        (3, 2, 1): (12, 72, 216, 480, 600, 720),
    }
    fam = weak_order_family((1, 2, 3))
    vec_ok = fam.vectors == expected
    extra_ok = ((3, 1, 2), (2, 1, 3)) in fam.extra_covers
    s3_ok = fam.refinement_ok
    fam4 = weak_order_family((1, 2, 3, 4))
    s4_ok = fam4.refinement_ok and len(fam4.vectors) == 24 and not fam4.collisions
    s = time.perf_counter() - t0
    ok = vec_ok and extra_ok and s3_ok and s4_ok and s < 1.0
    assert _verdict(
        5, ok,
        f"six vectors verbatim, extra cover 312<=213, S3 and S4 refinements ({s:.2f}s)")


def test_criterion_06_conjecture_sweep():
    t0 = time.perf_counter()
    scanned = 0
    failures = 0
    counts_ok = True
    for n in range(2, 7):
        catalog = generate_posets(n, connected=True)
        counts_ok = counts_ok and len(catalog) == CONNECTED_COUNTS[n]
        report = scan_catalog(catalog)
        scanned += report.scanned
        failures += len(report.failures)
    s = time.perf_counter() - t0
    ok = failures == 0 and counts_ok and scanned == 296 and s < 1800
    assert _verdict(
        6, ok,
        f"(n-2)!, Hodges and (n-1)! bounds plus the equality rule clean on "
        f"{scanned} connected posets, n <= 6 ({s:.1f}s)")


def _random_tree_specs(count: int, rng: random.Random):
    fibers_pool = [
        chain(1), chain(1), chain(2), chain(3),
        Poset(3, [(0, 1), (0, 2)]),
        Poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    ]
    specs = []
    while len(specs) < count:
        q_size = rng.randint(1, 4)
        parents = [None] + [rng.randrange(i) for i in range(1, q_size)]
        fibers = [rng.choice(fibers_pool) for _ in range(q_size)]
        if sum(f.n for f in fibers) > 8:
            continue
        specs.append(InflationSpec(tuple(parents), tuple(fibers)))
    return specs


def _has_degenerate_step(spec: InflationSpec) -> bool:
    weights = [f.n for f in spec.fibers]
    sub = list(weights)
    for q in range(len(spec.parents) - 1, 0, -1):
        sub[spec.parents[q]] += sub[q]
    return any(sub[q] - weights[q] == 1 for q in range(len(spec.parents)))


def test_criterion_07_irf_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(73)
    specs = _random_tree_specs(48, rng)
    specs += [
        InflationSpec((None, 0, 1), (chain(1),) * 3),
        InflationSpec((None, 0, 1, 2), (chain(1),) * 4),
        InflationSpec((None, 0), (chain(2), chain(1))),
        InflationSpec((None, 0, 0), (chain(2), chain(1), chain(1))),
        InflationSpec((None, 0, 1), (chain(1), chain(1), chain(3))),
        InflationSpec((None, 0, 1, 1), (chain(1), chain(1), chain(2), chain(2))),
    ]
    degenerate = sum(1 for spec in specs if _has_degenerate_step(spec))
    formula_ok = True
    bound_ok = True
    for spec in specs:
        p, _ = build_inflation(spec)
        brute = tangled_report(p).by_element if p.n >= 2 else (0,) * p.n
        got = tuple(irf_tangled_by_element(spec, x) for x in range(p.n))
        formula_ok = formula_ok and got == brute
        leaves = set(range(len(spec.parents))) - {par for par in spec.parents
                                                  if par is not None}
        m = len(leaves)
        value = irf_bound(spec)
        if p.n == 1:
            bound_ok = bound_ok and value == 1
        elif m == 1:
            bound_ok = bound_ok and value * (p.n - 1) == p.n - m
        else:
            bound_ok = bound_ok and value * (p.n - 1) < p.n - m
    s = time.perf_counter() - t0
    ok = (len(specs) >= 50 and degenerate >= 5 and formula_ok and bound_ok
          and s < 600)
    assert _verdict(
        7, ok,
        f"{len(specs)} inflated rooted trees (n <= 8, {degenerate} with the "
        f"degenerate c=1 step): per-element formula = brute force, leaf-sum "
        f"bound tight exactly for one-leaf trees ({s:.1f}s)")


def test_criterion_08_broom():
    t0 = time.perf_counter()
    brute_ok = True
    cases = 0
    for n in range(0, 8):
        for k in range(0, 7 - n):
            p = ordinal_sum(antichain(n), chain(k + 1)) if n else chain(k + 1)
            brute_ok = brute_ok and broom_f(n, k).coeffs == sorting_gf(p).coeffs
            cases += 1
    sym_ok = all(broom_f(n, k).coeffs[k] == broom_f(k, n).coeffs[n]
                 for n in range(6) for k in range(n, 6))
    s = time.perf_counter() - t0
    ok = brute_ok and sym_ok and s < 300
    assert _verdict(
        8, ok,
        f"{cases} brooms with n+k+1 <= 8 match brute force; "
        f"a_k(n,k)=a_n(k,n) for 0 <= n <= k <= 5 ({s:.1f}s)")


def test_criterion_09_pedestal():
    t0 = time.perf_counter()
    bases = {"Lambda": LAMBDA, "C2": chain(2), "T3": antichain(3)}
    tails_ok = True
    quasi_high_ok = True
    l1_truth = {}
    for name, base in bases.items():
        for l in (1, 2, 3):
            ped = ordinal_sum(chain(l), base)
            f = sorting_gf(ped).coeffs
            g = sorting_gf(ped).cumulative().coeffs
            tails = pedestal_coeffs(base.n, l)
            total = base.n + l
            tails_ok = tails_ok and all(
                tails.b_tail[r] == g[total - 1 - r] for r in range(l + 1))
            tails_ok = tails_ok and all(
                tails.a_tail[r] == f[total - 1 - r] for r in range(l))
            claim = 3 * factorial(total - 1) - factorial(total - 2)
            top_two = f[total - 1] + f[total - 2]
            if l == 1:
                l1_truth[name] = (top_two, claim, tails.quasi_plus_tangled)
            else:
                quasi_high_ok = (quasi_high_ok
                                 and tails.quasi_plus_tangled == claim == top_two)
    s = time.perf_counter() - t0
    l1_clause_ok = all(got == claim for got, claim, _ in l1_truth.values())
    ok = tails_ok and quasi_high_ok and l1_clause_ok
    mism = ", ".join(f"{name} {got} vs {claim}"
                     for name, (got, claim, _) in sorted(l1_truth.items())
                     if got != claim)
    _verdict(
        9, ok,
        "tails exact for l=1,2,3 on all three bases; combined quasi+tangled "
        f"closed form exact for l=2,3 but false as written at l=1 ({mism}; "
        f"the field is None there) ({s:.1f}s)")
    # assert the computed truth: tails and the l >= 2 closed form hold, the
    # l = 1 closed form does not, and the library refuses to emit it
    assert tails_ok and quasi_high_ok
    assert l1_truth["Lambda"][:2] == (12, 16)
    assert l1_truth["T3"][:2] == (12, 16)
    assert l1_truth["C2"][:2] == (5, 5)  # accidental agreement on the chain
    assert all(field is None for _, _, field in l1_truth.values())
    assert not l1_clause_ok


@pytest.mark.xfail(strict=True,
                   reason="the combined quasi+tangled closed form is false at l=1: "
                          "three-element bases give 12, the formula gives 16")
def test_criterion_09_quasi_closed_form_at_l1_as_written():
    for base in (LAMBDA, chain(2), antichain(3)):
        ped = ordinal_sum(chain(1), base)
        f = sorting_gf(ped).coeffs
        assert f[-1] + f[-2] == 3 * factorial(base.n) - factorial(base.n - 1)


def _check_one_labeling(p, labels, rng, counters):
    n = p.n
    path = promotion_path(p, labels)
    assert len(path) <= n, (p.covers, labels)
    assert is_natural(p, path[-1])
    for cur, nxt in zip(path, path[1:]):
        assert frozen_set(p, cur) < frozen_set(p, nxt), (p.covers, cur)
        for i in range(2, n + 1):
            assert p.leq(nxt.index(i - 1), cur.index(i)), (p.covers, cur, i)
    tangled = is_tangled(p, labels)
    assert tangled == (len(path) == n)
    if tangled:
        counters["tangled"] += 1
        assert labels.index(n) in basins(p), (p.covers, labels)
        for r in range(n - 1):
            low = path[r].index(n - r)
            high = path[r].index(n - 1 - r)
            assert low != high and p.leq(low, high), (p.covers, labels, r)
    if counters["seen"] % 7 == 0:
        k = rng.randint(1, 2)
        indices = sorted(rng.sample(range(1, n + k + 1), k))
        lifted_poset, lifted = lift_labeling(p, labels, indices)
        assert order(lifted_poset, lifted) == max(indices[-1] - k, len(path) - 1)
        assert standardize(lifted_poset, lifted, range(k, k + n))[1] == labels
        counters["lifted"] += 1
    counters["seen"] += 1


def _matmul(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a)))


def test_criterion_10_invariant_sweep():
    t0 = time.perf_counter()
    rng = random.Random(421)
    catalogs = {n: generate_posets(n).entries for n in range(2, 8)}
    counters = {"seen": 0, "tangled": 0, "lifted": 0}
    while counters["seen"] < 10_000:
        n = rng.randint(2, 7)
        p = rng.choice(catalogs[n])
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        _check_one_labeling(p, tuple(labels), rng, counters)
    matrices_ok = True
    for n in range(1, 13):
        for k in range(1, 7):
            m = composition_matrices(n, k)
            matrices_ok = matrices_ok and _matmul(m.y, m.r) == _matmul(m.r, m.x)
    s = time.perf_counter() - t0
    ok = counters["seen"] >= 10_000 and matrices_ok and s < 600
    assert _verdict(
        10, ok,
        f"{counters['seen']} random labelings over catalog posets n <= 7 "
        f"({counters['tangled']} tangled, {counters['lifted']} lift checks): "
        f"sorting bound, freeze growth, label slide, tangled-chain, basin and "
        f"lift-order identities all hold; YR = RX for n <= 12, k <= 6 ({s:.1f}s)")
