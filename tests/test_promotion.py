"""Promotion steps, sorting time, frozen sets, standardization, tangledness, lifts."""

import pytest

from promotion_sorting import (
    InternalError,
    Poset,
    RangeError,
    antichain,
    basins,
    chain,
    format_labeling,
    frozen_set,
    is_natural,
    is_tangled,
    lift_labeling,
    order,
    parse_labeling,
    promote,
    promotion_path,
    standardize,
    validate_labeling,
)
from promotion_sorting.promotion import positions_of
from test_enumeration import _is_tangled_pos

LAMBDA = Poset(3, [(0, 2), (1, 2)])

# Six-element walkthrough poset: indices 0 bottom, 1/2 the two atoms,
# 3 the left top, 4 the middle join, 5 the apex above 4.
WALK = Poset(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (4, 5)])
WALK_L = (6, 1, 4, 3, 2, 5)
WALK_PATH = [
    (6, 1, 4, 3, 2, 5),
    (5, 1, 3, 2, 4, 6),
    (4, 1, 2, 6, 3, 5),
    (3, 2, 1, 5, 4, 6),
    (2, 1, 3, 4, 5, 6),
    (1, 3, 2, 6, 4, 5),
]
WALK_FROZEN = [set(), {5}, {3, 5}, {3, 4, 5}, {2, 3, 4, 5}, {0, 1, 2, 3, 4, 5}]

# Orders of all six labelings of the Λ-poset, keyed by (L(0), L(1), L(2)).
TABLE1 = {
    (1, 2, 3): 0,
    (2, 1, 3): 0,
    (2, 3, 1): 1,
    (3, 2, 1): 1,
    (1, 3, 2): 1,
    (3, 1, 2): 1,
}


def test_promote_lambda_relabel_only():
    step = promote(LAMBDA, (2, 3, 1))
    assert step.labels == (1, 2, 3)
    assert step.chain == (2,)


def test_promote_lambda_swap():
    step = promote(LAMBDA, (3, 1, 2))
    assert step.labels == (2, 1, 3)
    assert step.chain == (1, 2)


def test_promote_natural_chain():
    step = promote(chain(3), (1, 2, 3))
    assert step.labels == (1, 2, 3)
    assert step.chain == (0, 1, 2)


def test_singleton_chain_convention():
    # label 1 on a maximal element: nothing swaps, chain is that element
    step = promote(antichain(2), (2, 1))
    assert step.chain == (1,)
    assert step.labels == (1, 2)


def test_table1_orders():
    for labels, want in TABLE1.items():
        assert order(LAMBDA, labels) == want, labels


def test_order_reversed_two_chain():
    assert order(chain(2), (2, 1)) == 1


def test_walkthrough_path():
    assert promotion_path(WALK, WALK_L) == WALK_PATH
    assert order(WALK, WALK_L) == 5
    assert promote(WALK, WALK_L).chain == (1, 4, 5)
    assert is_natural(WALK, WALK_PATH[-1])
    assert not any(is_natural(WALK, lab) for lab in WALK_PATH[:-1])


def test_walkthrough_frozen_growth():
    got = [set(frozen_set(WALK, lab)) for lab in WALK_PATH]
    assert got == WALK_FROZEN


def test_frozen_lambda():
    assert frozen_set(LAMBDA, (1, 2, 3)) == frozenset({0, 1, 2})
    assert frozen_set(LAMBDA, (2, 3, 1)) == frozenset()


def test_frozen_strictly_grows_until_natural():
    for lab in WALK_PATH[:-1]:
        after = promote(WALK, lab).labels
        assert frozen_set(WALK, lab) < frozen_set(WALK, after)


def test_frozen_is_upper_ideal_suffix():
    for lab in WALK_PATH:
        fr = frozen_set(WALK, lab)
        if fr:
            cut = min(lab[e] for e in fr)
            assert fr == frozenset(e for e in range(6) if lab[e] >= cut)
            for e in fr:
                for b in range(6):
                    if WALK.lt(e, b):
                        assert b in fr


def test_standardize_walkthrough_box():
    sub, st = standardize(WALK, WALK_L, {0, 1, 2, 4})
    assert st == (4, 1, 3, 2)
    assert sub.covers == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_standardize_identity_and_sorted():
    sub, st = standardize(LAMBDA, (3, 1, 2), {1, 2})
    assert st == (1, 2)
    sub, st = standardize(WALK, WALK_L, range(6))
    assert st == WALK_L


def test_is_tangled():
    assert is_tangled(chain(2), (2, 1))
    assert not is_tangled(chain(2), (1, 2))
    assert is_tangled(chain(3), (3, 1, 2))
    for labels in TABLE1:
        assert not is_tangled(LAMBDA, labels)
    assert not is_tangled(chain(1), (1,))
    with pytest.raises(ValueError):
        is_tangled(chain(1), (2,))


def test_tangled_agrees_with_order():
    # the definition (order n - 1) against the lemma route: label n on a
    # basin, then the chain kernel the tests hold
    from itertools import permutations

    for p in (chain(3), LAMBDA, Poset(4, [(0, 2), (1, 2), (2, 3)]), antichain(3)):
        for perm in permutations(range(1, p.n + 1)):
            lemma = perm.index(p.n) in basins(p) and _is_tangled_pos(p.above, positions_of(perm))
            assert is_tangled(p, perm) == (order(p, perm) == p.n - 1) == lemma


def test_lift_two_chain():
    big, lifted = lift_labeling(chain(2), (1, 2), (2,))
    assert lifted == (2, 1, 3)
    assert order(big, lifted) == 1
    big, lifted = lift_labeling(chain(2), (2, 1), (1,))
    assert lifted == (1, 3, 2)
    assert order(big, lifted) == 1


def test_lift_figure():
    p = Poset(6, [(1, 0), (2, 1), (2, 3), (3, 0), (4, 0), (5, 4)])
    L = (4, 5, 1, 3, 6, 2)
    big, lifted = lift_labeling(p, L, (2, 4, 7))
    assert lifted == (2, 4, 7, 6, 8, 1, 5, 9, 3)
    assert big.n == 9
    assert order(big, lifted) == max(7 - 3, order(p, L)) == 4
    sub, st = standardize(big, lifted, range(3, 9))
    assert st == L


def test_lift_validates_indices():
    with pytest.raises(RangeError):
        lift_labeling(chain(2), (1, 2), (3, 2))  # not increasing
    with pytest.raises(RangeError):
        lift_labeling(chain(2), (1, 2), (0,))  # below range
    with pytest.raises(RangeError):
        lift_labeling(chain(2), (1, 2), (4,))  # above n + k


def test_lift_needs_at_least_one_index():
    with pytest.raises(RangeError):
        lift_labeling(chain(2), (1, 2), ())


def test_lift_refuses_non_integer_indices():
    # floats and bools are refused, not truncated to integers
    for indices in ((1.9,), (1.0,), (True,), (1, 2.5)):
        with pytest.raises(RangeError, match="integers"):
            lift_labeling(chain(3), (1, 2, 3), indices)


def test_validate_labeling():
    assert validate_labeling(LAMBDA, [2, 3, 1]) == (2, 3, 1)
    for bad in ([1, 2], [1, 1, 2], [0, 1, 2], [1, 2, 4], [2.0, 3, 1], [2, 3, True]):
        with pytest.raises(ValueError):
            validate_labeling(LAMBDA, bad)
    # floats failed only later, with a TypeError; True equals 1 and gave order 0
    for bad in ((1.0, 2.0), (True, 2)):
        with pytest.raises(ValueError, match="not a bijection"):
            order(chain(2), bad)


def test_parse_format_labeling():
    assert parse_labeling("2,3,1") == (2, 3, 1)
    assert parse_labeling(" 2, 3 ,1 ") == (2, 3, 1)
    assert format_labeling((2, 3, 1)) == "2,3,1"
    with pytest.raises(ValueError):
        parse_labeling("2,x,1")
    with pytest.raises(ValueError):
        parse_labeling("")


def test_order_bound_on_all_small_labelings():
    from itertools import permutations

    for p in (WALK, LAMBDA, chain(4)):
        for perm in permutations(range(1, p.n + 1)):
            k = order(p, perm)
            assert 0 <= k <= p.n - 1
            path = promotion_path(p, perm)
            assert len(path) == k + 1


def test_preimages_invert_one_step_on_small_catalogs():
    # every labeling of every poset with n <= 5: _preimages with every end
    # allowed builds exactly the position arrays that one step sends to q;
    # with only maximal ends it builds those ending on a maximal element and
    # counts the rest; and the natural position arrays are exactly those
    # that pass the naturality test
    from itertools import permutations

    from promotion_sorting import generate_posets
    from promotion_sorting.promotion import (
        _advance, _is_natural_pos, _natural_positions, _preimages)

    for n in range(1, 6):
        for p in generate_posets(n).entries:
            maximal = sum(1 << e for e in p.maximals)
            inverse = {q: [] for q in permutations(range(n))}
            for perm in permutations(range(n)):
                pos = list(perm)
                _advance(p.above, pos)
                inverse[tuple(pos)].append(list(perm))
            for q, want in inverse.items():
                built: list = []
                assert _preimages(p.above, p.below, list(q), -1, built) == 0
                assert sorted(built) == sorted(want)
                built = []
                counted = _preimages(p.above, p.below, list(q), maximal, built)
                assert sorted(built) == sorted(pre for pre in want if pre[-1] in p.maximals)
                assert len(built) + counted == len(want)
            natural = [list(perm) for perm in permutations(range(n))
                       if _is_natural_pos(p.below, perm)]
            assert sorted(_natural_positions(p.below, (1 << n) - 1)) == natural
