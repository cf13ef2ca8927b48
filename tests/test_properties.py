"""Randomized invariants of promotion, tangledness, lifting and canonical forms.

The package runs one position-array promotion kernel everywhere, so it is
also pinned here to an independent label-level reading of the definition:
label 1 swaps with the smallest label strictly above its holder until the
holder is maximal, then every label drops by one and label 1 becomes n.
"""

import random
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from promotion_sorting import (
    InflationSpec,
    Poset,
    basins,
    build_inflation,
    canonicalize,
    frozen_set,
    generate_posets,
    irf_tangled_by_element,
    is_natural,
    is_tangled,
    lift_labeling,
    order,
    poset_from_json,
    poset_to_json,
    promote,
    promotion_path,
    sorting_gf,
    standardize,
    tangled_report,
)


@st.composite
def posets(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pairs:
        return Poset(n)
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Poset(n, chosen)


@st.composite
def labeled_posets(draw, min_n=2, max_n=6):
    p = draw(posets(min_n, max_n))
    labels = tuple(draw(st.permutations(range(1, p.n + 1))))
    return p, labels


@settings(deadline=None)
@given(labeled_posets())
def test_sorting_path(case):
    p, labels = case
    path = promotion_path(p, labels)
    assert path[0] == labels
    assert len(path) == order(p, labels) + 1
    assert len(path) <= p.n
    assert is_natural(p, path[-1])
    assert all(not is_natural(p, step) for step in path[:-1])


@settings(deadline=None)
@given(labeled_posets())
def test_promotion_chain_walks_upward(case):
    p, labels = case
    step = promote(p, labels)
    chain = step.chain
    assert chain[0] == labels.index(1)
    assert not p.above[chain[-1]]  # ends on a maximal element
    for a, b in zip(chain, chain[1:]):
        assert p.leq(a, b) and a != b


@settings(deadline=None)
@given(labeled_posets())
def test_freeze_grows_strictly(case):
    p, labels = case
    current = labels
    for _ in range(p.n):
        before = frozen_set(p, current)
        after_labels = promote(p, current).labels
        after = frozen_set(p, after_labels)
        if is_natural(p, current):
            break
        assert before < after  # proper inclusion
        current = after_labels


@settings(deadline=None)
@given(labeled_posets())
def test_frozen_set_is_upper_ideal_label_suffix(case):
    p, labels = case
    for step in promotion_path(p, labels):
        frozen = frozen_set(p, step)
        want = set(range(p.n - len(frozen) + 1, p.n + 1))
        assert {step[e] for e in frozen} == want or not frozen
        for e in frozen:
            mask = p.above[e]
            while mask:
                low = mask & -mask
                assert low.bit_length() - 1 in frozen
                mask ^= low


@settings(deadline=None)
@given(labeled_posets())
def test_label_slide(case):
    p, labels = case
    n = p.n
    current = labels
    for _ in range(n):
        nxt = promote(p, current).labels
        for i in range(2, n + 1):
            assert p.leq(nxt.index(i - 1), current.index(i))
        current = nxt


@settings(deadline=None)
@given(labeled_posets())
def test_tangled_iff_maximal_order(case):
    p, labels = case
    assert is_tangled(p, labels) == (order(p, labels) == p.n - 1)


@settings(deadline=None)
@given(labeled_posets())
def test_tangled_implications(case):
    p, labels = case
    if not is_tangled(p, labels):
        return
    n = p.n
    assert labels.index(n) in basins(p)
    path = promotion_path(p, labels)
    for r in range(n - 1):
        below = path[r].index(n - r)
        above = path[r].index(n - 1 - r)
        assert below != above and p.leq(below, above)


@settings(deadline=None)
@given(labeled_posets(), st.data())
def test_standardize_keeps_relative_order(case, data):
    p, labels = case
    subset = data.draw(st.sets(st.integers(0, p.n - 1), min_size=1))
    sub_poset, sub_labels = standardize(p, labels, subset)
    members = sorted(subset)
    assert sub_poset.n == len(members)
    assert sorted(sub_labels) == list(range(1, len(members) + 1))
    original = [labels[x] for x in members]
    ranks = {v: i + 1 for i, v in enumerate(sorted(original))}
    assert tuple(ranks[v] for v in original) == sub_labels


@settings(deadline=None)
@given(labeled_posets(), st.data())
def test_lift_order_identity(case, data):
    p, labels = case
    k = data.draw(st.integers(1, 3))
    indices = sorted(data.draw(
        st.sets(st.integers(1, p.n + k), min_size=k, max_size=k)))
    lifted_poset, lifted = lift_labeling(p, labels, indices)
    assert lifted_poset.n == p.n + k
    assert sorted(lifted) == list(range(1, p.n + k + 1))
    assert order(lifted_poset, lifted) == max(indices[-1] - k, order(p, labels))
    # the original labeling standardizes back out of the lifted one
    _, restored = standardize(lifted_poset, lifted, range(k, k + p.n))
    assert restored == labels


@settings(deadline=None)
@given(posets())
def test_json_roundtrip(p):
    assert poset_from_json(poset_to_json(p)) == p


@settings(deadline=None)
@given(posets(), st.randoms(use_true_random=False))
def test_canonicalize_relabel_invariant(p, rng):
    perm = list(range(p.n))
    rng.shuffle(perm)
    relabeled = Poset(p.n, [(perm[a], perm[b]) for a, b in p.covers])
    assert canonicalize(relabeled) == canonicalize(p)


def test_seeded_bulk_consistency():
    # one broad deterministic pass tying several invariants together
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        covers = [pair for pair in pairs if rng.random() < 0.3]
        p = Poset(n, covers)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        labels = tuple(labels)
        path = promotion_path(p, labels)
        assert len(path) <= n
        if is_tangled(p, labels):
            assert labels.index(n) in basins(p)


def reference_promote(p, labels):
    """One promotion step on a labeling; returns (labels, walked chain)."""
    labels = list(labels)
    holder = labels.index(1)
    chain = [holder]
    while True:
        up = [y for y in range(p.n) if p.lt(holder, y)]
        if not up:
            break
        nxt = min(up, key=lambda y: labels[y])
        labels[holder], labels[nxt] = labels[nxt], labels[holder]
        holder = nxt
        chain.append(holder)
    return tuple(p.n if v == 1 else v - 1 for v in labels), tuple(chain)


def reference_order(p, labels):
    steps = 0
    while not all(labels[a] < labels[b] for a, b in p.covers):
        assert steps < p.n, "promotion must sort within n - 1 steps"
        labels, _ = reference_promote(p, labels)
        steps += 1
    return steps


@settings(deadline=None, max_examples=300)
@given(labeled_posets(min_n=1, max_n=7))
def test_promote_matches_reference(case):
    p, labels = case
    step = promote(p, labels)
    assert (step.labels, step.chain) == reference_promote(p, labels)
    assert order(p, labels) == reference_order(p, labels)


def test_enumeration_matches_reference_on_catalogs():
    # every isomorphism class up to n = 5: the order histogram is f, and the
    # order n - 1 labelings split by the holder of label n - 1 are the tangled
    # report
    for n in range(1, 6):
        for p in generate_posets(n).entries:
            counts = [0] * n
            by_element = [0] * n
            for labels in permutations(range(1, n + 1)):
                k = reference_order(p, labels)
                counts[k] += 1
                if n > 1 and k == n - 1:
                    by_element[labels.index(n - 1)] += 1
            assert sorting_gf(p).coeffs == tuple(counts)
            if n > 1:
                assert tangled_report(p).by_element == tuple(by_element)


# fiber posets with a unique minimal element, up to four elements
ROOTED_FIBERS = [p for k in range(1, 5) for p in generate_posets(k).entries
                 if len(p.minimals) == 1]


@st.composite
def inflated_forests(draw, max_n=7):
    """An inflated rooted forest: two or more nodes, at most ``max_n`` elements."""
    fibers, budget = [], max_n
    while budget and (len(fibers) < 2 or draw(st.booleans())):
        fiber = draw(st.sampled_from([f for f in ROOTED_FIBERS if f.n <= budget]))
        fibers.append(fiber)
        budget -= fiber.n
    r = len(fibers)
    parents = [draw(st.sampled_from([None, *range(q)])) for q in range(r)]
    perm = draw(st.permutations(range(r)))  # node q is renamed perm[q]
    renamed_parents, renamed_fibers = [None] * r, [None] * r
    for q in range(r):
        renamed_parents[perm[q]] = None if parents[q] is None else perm[parents[q]]
        renamed_fibers[perm[q]] = fibers[q]
    return InflationSpec(tuple(renamed_parents), tuple(renamed_fibers))


@settings(deadline=None, max_examples=60)
@given(inflated_forests())
def test_irf_closed_form_matches_enumeration(spec):
    p, _ = build_inflation(spec)
    by_element = tangled_report(p).by_element
    assert tuple(irf_tangled_by_element(spec, x) for x in range(p.n)) == by_element
