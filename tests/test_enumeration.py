"""Brute-force enumeration: generating functions, tangled reports, unranking."""

from itertools import islice, permutations
from math import factorial

import pytest

from promotion_sorting import (
    BudgetError,
    GenFun,
    InternalError,
    Poset,
    antichain,
    chain,
    cumulative_gf,
    order,
    ordinal_sum,
    sequence_shape,
    sorting_gf,
    tangled_report,
    unrank_permutation,
)

LAMBDA = Poset(3, [(0, 2), (1, 2)])
T222 = ordinal_sum(antichain(2), ordinal_sum(antichain(2), antichain(2)))


def test_lambda_gfs():
    assert sorting_gf(LAMBDA).coeffs == (2, 4, 0)
    assert sorting_gf(LAMBDA).trimmed() == (2, 4)
    assert cumulative_gf(LAMBDA).coeffs == (2, 6, 6)


def test_t222_gfs():
    f = sorting_gf(T222)
    assert f.trimmed() == (8, 64, 216, 192, 240)
    assert cumulative_gf(T222).coeffs == (8, 72, 288, 480, 720, 720)


def test_antichain_gf():
    assert sorting_gf(antichain(3)).coeffs == (6, 0, 0)
    assert sorting_gf(antichain(2)).coeffs == (2, 0)
    assert cumulative_gf(antichain(3)).coeffs == (6, 6, 6)


def test_two_chain_cumulative():
    assert sorting_gf(chain(2)).coeffs == (1, 1)
    assert sorting_gf(chain(3)).coeffs == (1, 3, 2)
    assert cumulative_gf(chain(2)).coeffs == (1, 2)


def test_genfun_invariants():
    for p in (LAMBDA, T222, chain(4), antichain(4)):
        f = sorting_gf(p)
        g = cumulative_gf(p)
        assert len(f.coeffs) == p.n
        assert sum(f.coeffs) == factorial(p.n)
        assert g.coeffs == f.cumulative().coeffs
        assert all(x <= y for x, y in zip(g.coeffs, g.coeffs[1:]))
        assert g.coeffs[-1] == factorial(p.n)


def test_genfun_str_and_trim():
    f = GenFun((2, 4, 0))
    assert str(f) == "2 4 0"
    assert f.trimmed() == (2, 4)
    assert GenFun((0, 0)).trimmed() == (0,)
    assert len(f) == 3


def test_gf_against_direct_count():
    from promotion_sorting import order

    for p in (LAMBDA, chain(3), Poset(4, [(0, 2), (1, 2), (2, 3)])):
        counts = [0] * p.n
        for perm in permutations(range(1, p.n + 1)):
            counts[order(p, perm)] += 1
        assert sorting_gf(p).coeffs == tuple(counts)


def test_worker_determinism():
    # Pool path must agree with the serial path coefficient by coefficient
    for p in (T222, Poset(5, [(0, 2), (1, 2), (2, 3), (2, 4)])):
        assert sorting_gf(p, workers=2).coeffs == sorting_gf(p).coeffs
        assert tangled_report(p, workers=2) == tangled_report(p)


def test_worker_count_is_clamped(monkeypatch):
    # a fake pool records the process count it is asked for and runs the
    # tasks in this process, so nothing is ever spawned
    from promotion_sorting import enumeration, generate_posets, scan_catalog

    asked = []

    class FakePool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, tasks):
            return [worker(t) for t in tasks]

    monkeypatch.setattr(enumeration, "Pool", FakePool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    cat = generate_posets(4, connected=True)
    assert sorting_gf(T222, workers=64) == sorting_gf(T222)
    assert scan_catalog(cat, workers=64) == scan_catalog(cat)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 64)
    assert scan_catalog(cat, workers=1000) == scan_catalog(cat)
    assert asked == [3, 3, len(cat)]
    for bad in (0, -3):
        with pytest.raises(ValueError):
            sorting_gf(T222, workers=bad)
        with pytest.raises(ValueError):
            tangled_report(T222, workers=bad)
        with pytest.raises(ValueError):
            scan_catalog(cat, workers=bad)
    assert asked == [3, 3, len(cat)]


def test_defective_kernel_fails_instead_of_hanging(monkeypatch):
    # a step that never moves anything must trip the n - 1 step cap
    from promotion_sorting import enumeration, promotion

    def no_pool(processes):
        raise AssertionError("no pool may start")

    monkeypatch.setattr(enumeration, "Pool", no_pool)
    monkeypatch.setattr(enumeration, "_advance", lambda above, pos: None)
    monkeypatch.setattr(promotion, "_advance", lambda above, pos: None)
    with pytest.raises(InternalError):
        sorting_gf(chain(3), workers=1)
    with pytest.raises(InternalError):
        order(chain(3), (2, 1, 3))


def test_tangled_lambda():
    rep = tangled_report(LAMBDA)
    assert rep.total == 0
    assert rep.by_element == (0, 0, 0)


def test_tangled_two_chain():
    rep = tangled_report(chain(2))
    assert rep.total == 1
    assert rep.by_element == (0, 1)


def test_tangled_matches_top_coefficient():
    # basin-restricted enumeration against the unrestricted full scan
    posets = [
        chain(4),
        Poset(4, [(0, 2), (1, 2), (2, 3)]),
        Poset(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
        T222,
        antichain(4),
    ]
    for p in posets:
        rep = tangled_report(p)
        assert rep.total == sorting_gf(p).coeffs[-1]
        assert rep.total == sum(rep.by_element)


def test_tangled_single_element():
    with pytest.raises(ValueError):
        tangled_report(Poset(1, []))


def test_sequence_shape():
    assert sequence_shape((8, 64, 216, 192, 240)).unimodal is False
    s = sequence_shape((8, 72, 288, 480, 720, 720))
    assert s.log_concave is True
    assert s.unimodal is True
    assert sequence_shape((1, 2, 1)) == sequence_shape((1, 2, 1))
    assert sequence_shape((1, 2, 1)).unimodal and sequence_shape((1, 2, 1)).log_concave
    # log-concavity fails on an interior dip even though unimodality may hold
    assert sequence_shape((1, 1, 4, 1)).log_concave is False
    assert sequence_shape((0, 5, 0, 5)).unimodal is False


def test_unrank_is_lexicographic():
    for n in (1, 2, 3, 4, 5):
        want = list(permutations(range(n)))
        got = [unrank_permutation(r, n) for r in range(factorial(n))]
        assert got == want


def test_unrank_matches_islice_partition():
    n = 5
    lo, hi = 37, 101
    direct = list(islice(permutations(range(n)), lo, hi))
    assert [unrank_permutation(r, n) for r in range(lo, hi)] == direct
    with pytest.raises(ValueError):
        unrank_permutation(factorial(n), n)


def test_budget_refusal():
    big = antichain(10)
    with pytest.raises(BudgetError):
        sorting_gf(big)
    with pytest.raises(BudgetError):
        tangled_report(big)
