"""Canonical forms, isomorphism-free generation, exhaustive conjecture sweeps.

The generation oracle here is deliberately dumb: enumerate every strict
order relation on labeled vertices (3 states per pair, transitivity filter),
then collapse isomorphism by minimizing over all n! relabelings.  Catalog
counts and canonical-form partitions must agree with it exactly.
"""

import dataclasses
import hashlib
import pickle
import random
from itertools import combinations, permutations, product
from math import factorial

import pytest

from promotion_sorting import (
    BudgetError,
    ConjectureReport,
    Poset,
    WParams,
    antichain,
    build_w_poset,
    canonicalize,
    chain,
    check_conjectures,
    disjoint_union,
    generate_posets,
    load_catalog,
    ordinal_sum,
    poset_to_json,
    save_catalog,
    scan_catalog,
)
from promotion_sorting.cli import main
from promotion_sorting.enumeration import _check_budget
from promotion_sorting.harness import (ALL_CHECKS, CANON_MAX_N, _cover_lists, _digit_width,
                                       _extend_by_maximal, _grow_task, _initial_keys,
                                       _orbit_ideal_masks, _refined_classes, poset_levels)
from promotion_sorting.posets import _bits, funnel_and_basins

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


@pytest.mark.parametrize("max_n, workers", [pytest.param(7, 1, id="7"),
                                             pytest.param(8, 2, marks=pytest.mark.slow, id="8")])
def test_catalog_levels_match_oeis(max_n, workers):
    # one growth pass pins every level up to max_n
    for n, level in enumerate(poset_levels(max_n, workers=workers), start=1):
        assert len(level) == ISO_CLASS_COUNTS[n]
        assert sum(p.is_connected() for p in level) == CONNECTED_COUNTS[n]
    assert n == max_n


def test_worker_count_never_changes_representatives(monkeypatch):
    # two CPUs, so the pooled run really starts a pool on any machine
    from promotion_sorting import enumeration

    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    for connected in (False, True):
        serial = [[p.covers for p in level] for level in poset_levels(7, connected=connected)]
        pooled = [[p.covers for p in level]
                  for level in poset_levels(7, connected=connected, workers=2)]
        assert pooled == serial


def test_connected_growth_prunes_only_the_last_level():
    *lower, last = poset_levels(6, connected=True)
    assert [len(level) for level in lower] == [ISO_CLASS_COUNTS[n] for n in range(1, 6)]
    assert len(last) == CONNECTED_COUNTS[6]
    assert all(p.is_connected() for p in last)


def _lower_ideals(p):
    """Every lower order ideal of ``p`` as a bitmask, by brute filter."""
    return [mask for mask in range(1 << p.n)
            if all(not p.below[e] & ~mask for e in _bits(mask))]


def test_last_level_is_built_only_when_read(monkeypatch):
    # growth builds each class of the levels below the last once, as the next
    # level's parents; the last level builds a poset on every read, caching
    # nothing
    import promotion_sorting.harness as harness

    built = []
    extend = harness._extend_by_maximal
    monkeypatch.setattr(harness, "_extend_by_maximal",
                        lambda *args: built.append(1) or extend(*args))
    *lower, last = poset_levels(7)
    assert all(type(level) is tuple for level in lower)
    assert len(built) == sum(ISO_CLASS_COUNTS[n] for n in range(2, 7)) == 404
    entries = generate_posets(7).entries
    assert len(built) == 2 * 404
    posets = list(entries)
    assert len(built) == 2 * 404 + 2045
    assert entries[3] == posets[3] and len(built) == 2 * 404 + 2046
    assert list(last) == posets and entries == tuple(posets) == last
    assert (entries[-1], [entries[i] for i in range(5, 9)]) == (posets[-1], posets[5:9])


def test_lower_ideals_match_brute_filter():
    for n in range(1, 6):
        for p in generate_posets(n).entries:
            # a twin may join only after every lower-indexed twin of it
            twins = [(x, y) for x, y in combinations(range(n), 2)
                     if (p.above[x], p.below[x]) == (p.above[y], p.below[y])]
            assert _orbit_ideal_masks(p) == [
                mask for mask in _lower_ideals(p)
                if all(mask >> x & 1 or not mask >> y & 1 for x, y in twins)]


def _children(max_n):
    """Every (parent, ideal mask, child built with a closure) for the parents
    on at most ``max_n`` elements."""
    for level in poset_levels(max_n):
        for p in level:
            for mask in _lower_ideals(p):
                new = [(e, p.n) for e in _bits(mask) if not p.above[e] & mask]
                yield p, mask, Poset(p.n + 1, [*p.covers, *new])


def test_closure_free_child_matches_a_closed_build():
    count = 0
    for p, mask, want in _children(6):
        got = _extend_by_maximal(p, mask)
        back = pickle.loads(pickle.dumps(got))
        for built in (got, back):
            for name in (*Poset.__slots__, "minimals", "maximals"):
                assert getattr(built, name) == getattr(want, name), (p, mask, name)
            assert hash(built) == hash(want)
        count += 1
    assert count == 6377


def _new_element_leads(child):
    """Whether the child's last element, the one growth added, has the
    largest initial key among the child's maximal elements, read off the
    child built whole."""
    keys = _initial_keys(child, *_cover_lists(child.n, child.covers), _digit_width(child.n))
    return all(keys[x] <= keys[-1] for x in child.maximals)


def test_grow_task_prunes_no_first_child():
    # the reference builds every child, over every lower ideal, keeps those
    # whose new element leads, and takes the first of each form
    reference: dict = {}
    for p, mask, child in _children(6):
        firsts = reference.setdefault(p, {})
        if _new_element_leads(child):
            firsts.setdefault(canonicalize(child), (mask, child))
    for p, firsts in reference.items():
        pairs = [(key, mask) for key, (mask, _) in firsts.items()]
        assert _grow_task(p, False) == pairs
        assert _grow_task(p, True) == [
            (key, mask) for key, (mask, child) in firsts.items() if child.is_connected()]


@pytest.mark.parametrize("connected", [False, True], ids=["all", "connected"])
def test_grow_task_loses_no_class(connected):
    # with nothing skipped, the children of a level's parents hold every
    # class of the next level, and growth must keep each of them
    children: dict = {}
    for _, _, child in _children(5):
        if child.is_connected() or not connected:
            children.setdefault(child.n, set()).add(canonicalize(child))
    for n in range(2, 7):
        grown = {canonicalize(p) for p in generate_posets(n, connected=connected).entries}
        assert grown == children[n], n


def _forms_of_built_children(p, connected):
    """What ``_grow_task`` returns, from children built and canonicalized
    whole, the rule read off each child's own keys."""
    components = p.components() if connected else ()
    firsts = {}
    for mask in _orbit_ideal_masks(p):
        child = _extend_by_maximal(p, mask)
        if all(mask & c for c in components) and _new_element_leads(child):
            firsts.setdefault(canonicalize(child), mask)
    return list(firsts.items())


def test_grow_task_forms_match_built_children(monkeypatch):
    import promotion_sorting.harness as harness

    parents = [p for level in poset_levels(6) for p in level]
    # a child of an 8-element parent needs 4-bit key digits, one bit more than
    # the parent's own size would give; children of 9-element parents reach
    # CANON_MAX_N and fill the relation-digit table
    parents += [chain(8), chain(9), antichain(9),
                ordinal_sum(antichain(4), chain(4)), ordinal_sum(chain(4), antichain(5)),
                disjoint_union(chain(4), chain(4)), disjoint_union(chain(4), chain(5)),
                ordinal_sum(antichain(2), ordinal_sum(chain(5), antichain(2))),
                *(_random_poset(n, seed) for n in (8, 9) for seed in range(3))]
    want = {(p, connected): _forms_of_built_children(p, connected)
            for p in parents for connected in (False, True)}

    def no_child(*args):
        raise AssertionError("growth built a child")

    monkeypatch.setattr(harness, "Poset", no_child)
    monkeypatch.setattr(harness, "_extend_by_maximal", no_child)
    for (p, connected), pairs in want.items():
        assert _grow_task(p, connected) == pairs, (p.covers, connected)


@pytest.mark.parametrize("n, connected, forms", [
    pytest.param(7, False, 2656, id="7"),
    pytest.param(7, True, 2211, id="7-connected"),
    pytest.param(8, False, 21123, marks=pytest.mark.slow, id="8"),
    pytest.param(8, True, 18378, marks=pytest.mark.slow, id="8-connected")])
def test_forms_computed_per_catalog_are_pinned(monkeypatch, n, connected, forms):
    # every canonical form, the seed's and each child's, is read off by
    # _canonical_form once; growth must not compute more of them
    import promotion_sorting.harness as harness

    calls = []
    form = harness._canonical_form
    monkeypatch.setattr(harness, "_canonical_form", lambda *args: calls.append(1) or form(*args))
    generate_posets(n, connected=connected)
    assert len(calls) == forms


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
    assert canonicalize(chain(CANON_MAX_N)).startswith(b"10:")
    # a hard cap: the message offers no override
    with pytest.raises(BudgetError) as refused:
        canonicalize(chain(11))
    assert str(refused.value) == "canonicalized poset elements of 11 exceeds the budget of 10"


# The refinement and search as they stood before the singleton keys, the
# stop rule, the digit table and the discrete read-off, kept verbatim as the
# oracle for those four.

def _reference_rank(values: list) -> list[int]:
    """Each value's index among the sorted distinct values."""
    ranks = {v: i for i, v in enumerate(sorted(set(values)))}
    return [ranks[v] for v in values]


def _reference_refined_classes(p: Poset) -> list[int]:
    """Stable invariant class per element, identical across isomorphic posets."""
    n = p.n
    cover_up: list[list[int]] = [[] for _ in range(n)]
    cover_down: list[list[int]] = [[] for _ in range(n)]
    for a, b in p.covers:
        cover_up[a].append(b)
        cover_down[b].append(a)
    classes = _reference_rank([
        (p.below[x].bit_count(), p.above[x].bit_count(), p.heights[x],
         len(cover_up[x]), len(cover_down[x]))
        for x in range(n)
    ])
    while True:
        new = _reference_rank([
            (classes[x],
             tuple(sorted(classes[y] for y in cover_up[x])),
             tuple(sorted(classes[y] for y in cover_down[x])))
            for x in range(n)
        ])
        if new == classes:
            return classes
        classes = new


def _reference_canonicalize(p: Poset, force: bool = False) -> bytes:
    """Canonical byte string: equal exactly for isomorphic posets."""
    _check_budget(p.n, force, cap=CANON_MAX_N, what="canonicalized poset elements")
    n = p.n
    classes = _reference_refined_classes(p)
    members: dict[int, list[int]] = {}
    for x in range(n):
        members.setdefault(classes[x], []).append(x)
    blocks = sorted(classes)
    above, below = p.above, p.below

    def search(placed: list[int], used: int) -> tuple:
        if len(placed) == n:
            return ()
        best = None
        chosen: list[int] = []
        # Elements with equal strict up- and down-sets are incomparable twins
        # with equal signatures: swapping two is an automorphism, so only the
        # first free member of each twin set is tried.
        twins = set()
        for e in members[blocks[len(placed)]]:
            twin = (above[e], below[e])
            if used >> e & 1 or twin in twins:
                continue
            twins.add(twin)
            sig = tuple(
                2 if below[e] >> q & 1 else (1 if above[e] >> q & 1 else 0)
                for q in placed)
            if best is None or sig < best:
                best, chosen = sig, [e]
            elif sig == best:
                chosen.append(e)
        return best + min(search([*placed, e], used | 1 << e) for e in chosen)

    return f"{n}:".encode() + bytes(search([], 0))


def _random_poset(n, seed):
    """A poset on ``n`` elements generated by random pairs i < j, relabeled."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[j]) for i, j in combinations(range(n), 2) if rng.random() < 0.15]
    return Poset(n, pairs)


def test_canonical_forms_match_the_reference():
    posets = [child for _, _, child in _children(6)]
    posets += generate_posets(7).entries
    assert len(posets) == 6377 + 2045
    for p in posets:
        assert _refined_classes(p) == _reference_refined_classes(p), p.covers
        assert canonicalize(p) == _reference_canonicalize(p), p.covers
    # at 9 and 10 elements the digit rows index the whole relation table;
    # antichains and stacked antichains branch only on twins, the others on
    # non-twin ties too
    wide = [chain(10), antichain(10), ordinal_sum(antichain(3), antichain(7)),
            disjoint_union(chain(5), chain(5)), disjoint_union(chain(4), chain(5)),
            disjoint_union(build_w_poset(WParams(1, 1, 1, 1)), LAMBDA),
            *(_random_poset(n, seed) for n in (9, 10) for seed in range(4))]
    for p in wide:
        assert _refined_classes(p) == _reference_refined_classes(p), p.covers
        assert canonicalize(p) == _reference_canonicalize(p), p.covers


def test_generation_determinism_and_order():
    a = generate_posets(4)
    b = generate_posets(4)
    keys = [canonicalize(p) for p in a.entries]
    assert keys == [canonicalize(p) for p in b.entries]
    assert keys == sorted(keys)


def test_canonical_bytes_and_catalog_order_are_pinned(capsys):
    # the forms digest is as first computed: a change to the canonical-form
    # search must leave it byte-identical; the catalog digests also pin each
    # class's representative, its first child whose new element leads
    forms = b"\n".join(canonicalize(p) for p in generate_posets(7).entries)
    assert forms.count(b"\n") + 1 == 2045
    assert hashlib.sha256(forms).hexdigest() == (
        "e152587d1ae1e93b674fd67b452f5c59dced3ce2ab8df31dfe18a23539f0769c")
    assert main(["gen-posets", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 318
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dfc1cf92656b82f25a8b8b3040e2d2f2e4bde5e112aa8ab3d369f2a656ecb3ff")
    assert main(["gen-posets", "--n", "7", "--connected"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1650
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b5563de7a152856b031065499fb971b8c83c5abad64ddd275f7b310c0de79832")


@pytest.mark.slow
def test_connected_catalog_8_is_pinned(tmp_path):
    # the classes and, for each, its first child whose new element leads
    path = tmp_path / "catalog8.jsonl"
    assert main(["gen-posets", "--n", "8", "--connected", "--out", str(path)]) == 0
    data = path.read_bytes()
    assert data.count(b"\n") == 14512
    assert hashlib.sha256(data).hexdigest() == (
        "2c266bcb0c8bc712fc9c7fdfe3aa0b7bd935d7643075bf100b5186d2e017fcfc")


@pytest.mark.slow
def test_connected_catalog_9_matches_oeis():
    assert len(generate_posets(9, connected=True, force=True, workers=2)) == 163341


@pytest.mark.slow
def test_catalog_9_matches_oeis():
    # the last level unpruned: every child of every 8-element parent
    assert len(generate_posets(9, force=True, workers=2)) == 183231


@pytest.mark.slow
def test_catalog_8_traced_peak_is_bounded():
    # the last level holds one int per class, not a poset: about 4.1 MiB traced
    # where a level of posets peaked at 13.7 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        cat = generate_posets(8, connected=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cat) == 14512
    assert peak < 6 * 2**20


def test_generation_budget(monkeypatch):
    import promotion_sorting.harness as harness

    with pytest.raises(BudgetError):
        generate_posets(9)

    def no_growth(*args):
        raise AssertionError("a level grew")

    # force lifts the generation cap, never the canonical-form cap
    monkeypatch.setattr(harness, "_run_chunks", no_growth)
    for force in (False, True):
        with pytest.raises(BudgetError) as refused:
            generate_posets(11, force=force)
        assert str(refused.value) == "canonicalized poset elements of 11 exceeds the budget of 10"
    with pytest.raises(ValueError):
        generate_posets(0)
    for size in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="max_n must be an integer"):
            generate_posets(size)


def test_catalog_save_load_roundtrip(tmp_path):
    cat = generate_posets(4, connected=True)
    for name in ("cat.ndjson", "cat.ndjson.gz"):
        path = tmp_path / name
        save_catalog(cat, path)
        back = load_catalog(path)
        assert back.n == 4
        assert back.connected_only is True
        assert [p.covers for p in back.entries] == [p.covers for p in cat.entries]


def test_gzip_catalog_bytes_are_reproducible(tmp_path, monkeypatch):
    # the gzip header holds no time stamp: one catalog saved twice to one
    # path, at two different times, gives the same bytes
    import time

    cat = generate_posets(5)
    path = tmp_path / "cat.jsonl.gz"
    saved = []
    for now in (1_000_000_000.0, 1_900_000_000.0):
        monkeypatch.setattr(time, "time", lambda now=now: now)
        save_catalog(cat, path)
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]
    assert load_catalog(path).entries == cat.entries


def test_catalog_load_validation(tmp_path):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        load_catalog(empty)
    mixed = tmp_path / "mixed.ndjson"
    mixed.write_text(poset_to_json(chain(2)) + "\n" + poset_to_json(chain(3)) + "\n")
    with pytest.raises(ValueError):
        load_catalog(mixed)


def test_catalog_load_is_size_gated(tmp_path):
    # the 400-element cap of order, promote and export-dot, with no override
    path = tmp_path / "wide.ndjson"
    path.write_text('{"n": 401, "covers": []}\n')
    with pytest.raises(BudgetError,
                       match="catalog poset elements of 401 exceeds the budget of 400"):
        load_catalog(path)
    path.write_text(poset_to_json(antichain(400)) + "\n")
    assert load_catalog(path).n == 400


def test_catalog_load_refuses_before_building(tmp_path):
    # a one-line document declaring a huge n is refused before anything of
    # size n is allocated
    import time
    import tracemalloc

    path = tmp_path / "huge.ndjson"
    path.write_text('{"n": 1000000, "covers": []}\n')
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(BudgetError):
            load_catalog(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 5 * 2**20


def test_check_conjectures_lambda():
    report = check_conjectures(LAMBDA)
    assert report.total == 0
    # the apex sits above two minimal elements, so (n-2)! = 1 is not attained
    assert report.by_element == (0, 0, 0)
    assert report.failed == ()
    assert report.passed


def test_check_conjectures_chain():
    report = check_conjectures(chain(4))
    # every non-minimal element of a chain lies in the funnel: (n-2)! = 2 each
    assert report.by_element == (0, 2, 2, 2)
    # the total attains both (n-m)(n-2)! and (n-1)!, which coincide at m = 1
    assert report.total == 6 == factorial(3)
    assert report.failed == ()
    assert report.passed


def test_check_conjectures_w_poset():
    w = build_w_poset(WParams(2, 2, 1, 1))
    report = check_conjectures(w)
    assert report.total == 34412
    assert sorted(report.by_element) == [0, 0, 4172] + [5040] * 6
    assert report.failed == ()
    assert report.passed


def test_conjecture_report_holds_only_the_verdict():
    assert [f.name for f in dataclasses.fields(ConjectureReport)] == ["by_element", "failed"]
    report = ConjectureReport((0, 2, 3), ("n-2",))
    assert report.total == 5
    assert not report.passed


def _reference_failed(p, counts):
    """The checks ``counts`` fail on ``p``, by the bound arithmetic that
    ``check_conjectures`` used when its report stored every bound."""
    n = p.n
    m = len(p.minimals)
    bound = factorial(n - 2)
    in_funnel = frozenset().union(*funnel_and_basins(p).values())
    expected = tuple(x in in_funnel for x in range(n))
    total = sum(counts)
    hodges_bound = (n - m) * bound
    total_bound = factorial(n - 1)
    holds = (
        all(c <= bound and (c == bound) == e for c, e in zip(counts, expected)),
        total <= hodges_bound,
        total <= total_bound,
    )
    return tuple(check for check, ok in zip(ALL_CHECKS, holds) if not ok)


def test_check_conjectures_matches_the_reference_bounds(monkeypatch):
    # every poset with n <= 6, each element's count skewed in turn by -1, +1
    # and (n-1)!, fed through a stand-in tangled count
    import promotion_sorting.harness as harness
    from promotion_sorting import TangleReport, tangled_report

    fed = []
    monkeypatch.setattr(harness, "_tangled_counts", lambda p, *args: (
        TangleReport(fed[-1]), frozenset().union(*funnel_and_basins(p).values())))
    verdicts = set()
    for n in range(2, 7):
        for p in generate_posets(n).entries:
            counts = tangled_report(p).by_element
            for x in range(n):
                for delta in (-1, 1, factorial(n - 1)):
                    skewed = list(counts)
                    skewed[x] += delta
                    fed.append(tuple(skewed))
                    report = check_conjectures(p)
                    assert report.by_element == fed[-1]
                    assert report.failed == _reference_failed(p, fed[-1])
                    verdicts.add(report.failed)
            fed.append(counts)
            assert check_conjectures(p).failed == _reference_failed(p, counts) == ()
    # stand-in counts need not nest the bounds as true counts do, so the
    # skews reach verdicts without n-2 too (an antichain has a zero hodges bound)
    assert verdicts == {(), ("n-2",), ("n-2", "hodges"), ("n-2", "hodges", "n-1"),
                        ("hodges",), ("hodges", "n-1")}


def test_check_conjectures_too_small():
    with pytest.raises(ValueError):
        check_conjectures(Poset(1))


def test_scan_small_catalogs_clean():
    for n in (2, 3, 4, 5):
        cat = generate_posets(n)
        report = scan_catalog(cat)
        assert report.scanned == ISO_CLASS_COUNTS[n]
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
    report = scan_catalog(cat, unimodal=True)
    assert report.failures == ()
    assert len(report.non_unimodal) == 8
    t222 = canonicalize(ordinal_sum(antichain(2), ordinal_sum(antichain(2), antichain(2))))
    flagged = {canonicalize(cat.entries[idx]) for idx, _ in report.non_unimodal}
    assert t222 in flagged
    for _, coeffs in report.non_unimodal:
        from promotion_sorting import sequence_shape

        assert not sequence_shape(coeffs).unimodal
    # the full catalog picks up two more disconnected or wider instances
    assert len(scan_catalog(generate_posets(6), unimodal=True).non_unimodal) == 10


@pytest.mark.slow
def test_unimodal_census_at_seven():
    cat = generate_posets(7)
    report = scan_catalog(cat, unimodal=True, workers=2)
    assert report.failures == ()
    assert len(report.non_unimodal) == 75
    assert sum(p.is_connected() for p in cat.entries) == 1650
    assert sum(cat.entries[idx].is_connected() for idx, _ in report.non_unimodal) == 64


def test_unimodal_scan_checks_the_two_routes_agree(monkeypatch):
    # f's top coefficient and the tangled report count the same labelings
    import promotion_sorting.harness as harness
    from promotion_sorting import InternalError, TangleReport

    count = harness._tangled_counts

    def over_count(p, *args):
        report, in_funnel = count(p, *args)
        by_element = list(report.by_element)
        by_element[-1] += 1
        return TangleReport(tuple(by_element)), in_funnel

    monkeypatch.setattr(harness, "_tangled_counts", over_count)
    cat = generate_posets(4, connected=True)
    with pytest.raises(InternalError, match="tangled"):
        scan_catalog(cat, unimodal=True)
    scan_catalog(cat)


def test_scan_reports_only_the_failing_poset(monkeypatch, fresh_pool):
    import promotion_sorting.harness as harness
    from promotion_sorting import TangleReport

    cat = generate_posets(4)
    target = canonicalize(chain(4))
    idx = next(i for i, p in enumerate(cat.entries) if canonicalize(p) == target)
    count = harness._tangled_counts

    def skew_top_count(delta):
        def skewed(p, *args):
            report, in_funnel = count(p, *args)
            by_element = list(report.by_element)
            if canonicalize(p) == target:
                by_element[-1] += delta
            return TangleReport(tuple(by_element)), in_funnel

        monkeypatch.setattr(harness, "_tangled_counts", skewed)
        fresh_pool()

    # the chain's top element exceeds (n-1)!, so every bound breaks
    skew_top_count(factorial(3) + 1)
    for workers in (1, 2):
        report = scan_catalog(cat, workers=workers)
        assert [i for i, _ in report.failures] == [idx]
        assert report.failures[0][1].failed == ("n-2", "hodges", "n-1")
        assert not report.passed
    # one short of (n-2)! on a funnel element breaks only the equality rule
    skew_top_count(-1)
    for workers in (1, 2):
        report = scan_catalog(cat, workers=workers)
        assert [(i, r.failed) for i, r in report.failures] == [(idx, ("n-2",))]


def test_scan_finds_each_posets_funnels_once(monkeypatch):
    # check_conjectures takes the funnel elements from the tangled count
    # that credited them, so a serial scan finds each poset's funnels once
    import sys

    calls = []

    def spy(p):
        calls.append(p)
        return funnel_and_basins(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("promotion_sorting.") and hasattr(module, "funnel_and_basins"):
            monkeypatch.setattr(module, "funnel_and_basins", spy)
    report = scan_catalog(generate_posets(7, connected=True))
    assert (report.scanned, report.passed, len(calls)) == (1650, True, 1650)


def test_dispatch_passes_each_callers_own_sequence(monkeypatch, capsys):
    # every _run_chunks caller binds its fixed arguments to the worker and
    # hands over the sequence it already holds, so no task list is built:
    # the scan passes catalog.entries itself, verify's last level goes as
    # the grown level, growth passes its tuple of parents, and gf and
    # tangled pass tails and blocks of ints, with no poset inside
    import promotion_sorting.enumeration as enumeration
    import promotion_sorting.harness as harness
    from promotion_sorting.harness import _GrownLevel

    run_chunks = enumeration._run_chunks
    calls = []

    def spy(worker, tasks, workers):
        calls.append((getattr(worker, "func", worker), tasks))
        return run_chunks(worker, tasks, workers)

    monkeypatch.setattr(enumeration, "_run_chunks", spy)
    monkeypatch.setattr(harness, "_run_chunks", spy)

    def tasks_of(worker):
        return [tasks for func, tasks in calls if func is worker]

    cat = generate_posets(5, connected=True)
    grown = tasks_of(harness._grow_task)
    assert len(grown) == 4
    assert all(type(tasks) is tuple and all(type(p) is Poset for p in tasks) for tasks in grown)
    calls.clear()
    scan_catalog(cat, unimodal=True)
    assert [tasks is cat.entries for tasks in tasks_of(harness._scan_one)] == [True]
    gf, tangled = tasks_of(enumeration._gf_task), tasks_of(enumeration._tangled_task)
    assert len(gf) == len(cat) and len(tangled) == len(cat)
    assert any(tasks for tasks in tangled)
    assert all(type(task) is tuple and all(type(e) is int for e in task)
               for tasks in gf + tangled for task in tasks)
    calls.clear()
    assert main(["verify", "--max-n", "5", "--threads", "1"]) == 0
    capsys.readouterr()
    scanned = tasks_of(harness._scan_one)
    assert [type(tasks) for tasks in scanned] == [tuple, tuple, tuple, _GrownLevel]
    assert len(scanned[-1]) == CONNECTED_COUNTS[5]


@pytest.mark.slow
def test_serial_scan_traced_peak_is_bounded():
    # the scan reads each poset from the catalog as it runs and keeps only
    # the failing and flagged results: about 0.4 MiB traced, where a task
    # list and one result pair per poset peaked at 1.43 MiB
    import tracemalloc

    cat = generate_posets(7, connected=True)
    tracemalloc.start()
    try:
        report = scan_catalog(cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.scanned, report.passed) == (1650, True)
    assert peak < 0.8 * 2**20
