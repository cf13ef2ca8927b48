"""Canonical forms, isomorphism-free generation, exhaustive conjecture sweeps.

The generation oracle here is deliberately dumb: enumerate every strict
order relation on labeled vertices (3 states per pair, transitivity filter),
then collapse isomorphism by minimizing over all n! relabelings.  Catalog
counts and canonical-form partitions must agree with it exactly.
"""

import random
from itertools import combinations, permutations, product
from math import factorial

import pytest

from promotion_sorting import (
    BudgetError,
    Poset,
    WParams,
    antichain,
    build_w_poset,
    canonicalize,
    chain,
    check_conjectures,
    generate_posets,
    load_catalog,
    ordinal_sum,
    save_catalog,
    scan_catalog,
)
from promotion_sorting.harness import _lower_ideal_masks, poset_levels

LAMBDA = Poset(3, [(0, 2), (1, 2)])
V3 = Poset(3, [(0, 1), (0, 2)])

# OEIS A000112 (all posets) and A000608 (connected posets)
ISO_CLASS_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045, 8: 16999}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 3, 4: 10, 5: 44, 6: 238, 7: 1650, 8: 14512}
LABELED_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}


def _labeled_posets(n):
    """Every strict order on [n] as a row-mask vector (less[i] bit j = i < j)."""
    pairs = list(combinations(range(n), 2))
    out = []
    for digits in product((0, 1, 2), repeat=len(pairs)):
        less = [0] * n
        for (i, j), d in zip(pairs, digits):
            if d == 1:
                less[i] |= 1 << j
            elif d == 2:
                less[j] |= 1 << i
        ok = True
        for i in range(n):
            probe = less[i]
            while probe:
                low = probe & -probe
                if less[low.bit_length() - 1] & ~less[i]:
                    ok = False
                    break
                probe ^= low
            if not ok:
                break
        if ok:
            out.append(tuple(less))
    return out


def _orbit_min(less, n):
    best = None
    for perm in permutations(range(n)):
        rows = [0] * n
        for i in range(n):
            probe = less[i]
            while probe:
                low = probe & -probe
                rows[perm[i]] |= 1 << perm[low.bit_length() - 1]
                probe ^= low
        enc = tuple(rows)
        if best is None or enc < best:
            best = enc
    return best


def _poset_from_masks(less, n):
    covers = []
    below = [0] * n
    for i in range(n):
        probe = less[i]
        while probe:
            low = probe & -probe
            below[low.bit_length() - 1] |= 1 << i
            probe ^= low
    for i in range(n):
        probe = less[i]
        while probe:
            low = probe & -probe
            j = low.bit_length() - 1
            if not less[i] & below[j]:
                covers.append((i, j))
            probe ^= low
    return Poset(n, covers)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_canonical_partition_matches_brute_isomorphism(n):
    labeled = _labeled_posets(n)
    assert len(labeled) == LABELED_COUNTS[n]
    orbit_of = {}
    canon_of = {}
    for less in labeled:
        orbit = _orbit_min(less, n)
        canon = canonicalize(_poset_from_masks(less, n))
        orbit_of.setdefault(orbit, set()).add(canon)
        canon_of.setdefault(canon, set()).add(orbit)
    assert len(orbit_of) == ISO_CLASS_COUNTS[n]
    assert len(canon_of) == ISO_CLASS_COUNTS[n]
    assert all(len(s) == 1 for s in orbit_of.values())
    assert all(len(s) == 1 for s in canon_of.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_catalog_counts(n):
    assert len(generate_posets(n)) == ISO_CLASS_COUNTS[n]
    assert len(generate_posets(n, connected=True)) == CONNECTED_COUNTS[n]


@pytest.mark.parametrize("max_n", [7, pytest.param(8, marks=pytest.mark.slow)])
def test_catalog_levels_match_oeis(max_n):
    # one growth pass pins every level up to max_n
    for n, level in enumerate(poset_levels(max_n), start=1):
        assert len(level) == ISO_CLASS_COUNTS[n]
        assert sum(p.is_connected() for p in level) == CONNECTED_COUNTS[n]
    assert n == max_n


def test_lower_ideals_match_brute_filter():
    for n in range(1, 6):
        for p in generate_posets(n).entries:
            brute = [mask for mask in range(1 << n)
                     if all(not p.below[e] & ~mask for e in range(n) if mask >> e & 1)]
            assert _lower_ideal_masks(p) == brute


def test_catalog_matches_brute_classes():
    brute = {canonicalize(_poset_from_masks(less, 5)) for less in _labeled_posets(5)}
    catalog = generate_posets(5)
    assert {canonicalize(p) for p in catalog.entries} == brute


def test_canonicalize_relabel_invariance():
    rng = random.Random(11)
    posets = [LAMBDA, chain(5), ordinal_sum(antichain(2), antichain(3)),
              build_w_poset(WParams(1, 1, 1, 1)),
              Poset(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (4, 5)])]
    for p in posets:
        want = canonicalize(p)
        for _ in range(8):
            perm = list(range(p.n))
            rng.shuffle(perm)
            covers = [(perm[a], perm[b]) for a, b in p.covers]
            assert canonicalize(Poset(p.n, covers)) == want


def test_canonicalize_separates():
    assert canonicalize(LAMBDA) != canonicalize(V3)
    assert canonicalize(chain(3)) != canonicalize(antichain(3))
    assert canonicalize(build_w_poset(WParams(1, 2, 1, 1))) == \
        canonicalize(build_w_poset(WParams(1, 1, 2, 1)))
    assert canonicalize(build_w_poset(WParams(1, 2, 1, 1))) != \
        canonicalize(build_w_poset(WParams(2, 1, 1, 1)))


def test_canonicalize_prefix_and_budget():
    assert canonicalize(chain(4)).startswith(b"4:")
    with pytest.raises(BudgetError):
        canonicalize(chain(11))
    assert canonicalize(chain(11), force=True).startswith(b"11:")


def test_generation_determinism_and_order():
    a = generate_posets(4)
    b = generate_posets(4)
    keys = [canonicalize(p) for p in a.entries]
    assert keys == [canonicalize(p) for p in b.entries]
    assert keys == sorted(keys)


def test_generation_budget():
    with pytest.raises(BudgetError):
        generate_posets(9)
    with pytest.raises(ValueError):
        generate_posets(0)


def test_catalog_save_load_roundtrip(tmp_path):
    cat = generate_posets(4, connected=True)
    for name in ("cat.ndjson", "cat.ndjson.gz"):
        path = tmp_path / name
        save_catalog(cat, path)
        back = load_catalog(path)
        assert back.n == 4
        assert back.connected_only is True
        assert [p.covers for p in back.entries] == [p.covers for p in cat.entries]


def test_catalog_load_validation(tmp_path):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        load_catalog(empty)
    from promotion_sorting import poset_to_json

    mixed = tmp_path / "mixed.ndjson"
    mixed.write_text(poset_to_json(chain(2)) + "\n" + poset_to_json(chain(3)) + "\n")
    with pytest.raises(ValueError):
        load_catalog(mixed)


def test_check_conjectures_lambda():
    report = check_conjectures(LAMBDA)
    assert report.total == 0
    assert report.by_element == (0, 0, 0)
    assert report.per_element_bound == 1
    # the apex sits above two minimal elements, so the cap is not attained
    assert report.equality_expected == (False, False, False)
    assert report.passed


def test_check_conjectures_chain():
    report = check_conjectures(chain(4))
    assert report.per_element_bound == 2
    assert report.by_element == (0, 2, 2, 2)
    assert report.equality_expected == (False, True, True, True)
    assert report.total == 6 == report.total_bound
    assert report.hodges_bound == 6
    assert report.passed


def test_check_conjectures_w_poset():
    w = build_w_poset(WParams(2, 2, 1, 1))
    report = check_conjectures(w)
    assert report.total == 34412
    assert sorted(report.by_element) == [0, 0, 4172] + [5040] * 6
    assert report.per_element_bound == 5040
    assert report.passed


def test_check_conjectures_too_small():
    with pytest.raises(ValueError):
        check_conjectures(Poset(1))


def test_scan_small_catalogs_clean():
    for n in (2, 3, 4, 5):
        cat = generate_posets(n)
        report = scan_catalog(cat)
        assert report.scanned == ISO_CLASS_COUNTS[n]
        assert report.checks == ("n-2", "hodges", "n-1")
        assert report.failures == ()
        assert report.passed


def test_scan_worker_determinism():
    cat = generate_posets(4)
    serial = scan_catalog(cat, unimodal=True)
    pooled = scan_catalog(cat, unimodal=True, workers=2)
    assert serial.failures == pooled.failures
    assert serial.non_unimodal == pooled.non_unimodal


def test_scan_finds_non_unimodal_at_six():
    cat = generate_posets(6, connected=True)
    report = scan_catalog(cat, checks=(), unimodal=True)
    assert report.failures == ()
    assert len(report.non_unimodal) == 8
    t222 = canonicalize(ordinal_sum(antichain(2), ordinal_sum(antichain(2), antichain(2))))
    flagged = {canonicalize(cat.entries[idx]) for idx, _ in report.non_unimodal}
    assert t222 in flagged
    for _, coeffs in report.non_unimodal:
        from promotion_sorting import sequence_shape

        assert not sequence_shape(coeffs).unimodal
    # the full catalog picks up two more disconnected or wider instances
    assert len(scan_catalog(generate_posets(6), checks=(), unimodal=True).non_unimodal) == 10


def test_scan_rejects_unknown_check():
    cat = generate_posets(3)
    with pytest.raises(ValueError):
        scan_catalog(cat, checks=("n-3",))

