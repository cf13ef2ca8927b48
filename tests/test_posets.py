"""Poset construction, closure/reduction, ideals, funnels, LOI, serialization."""

import pickle

import pytest

from promotion_sorting import (
    CycleError,
    DisconnectedError,
    Poset,
    SpecError,
    antichain,
    basins,
    chain,
    disjoint_union,
    funnel_and_basins,
    is_loi_complete,
    load_poset,
    ordinal_sum,
    poset_from_json,
    poset_to_json,
    save_poset,
)
from promotion_sorting import posets
from promotion_sorting.posets import _bits

LAMBDA = Poset(3, [(0, 2), (1, 2)])

# Figure poset with two basins g and i; indices are alphabetical a=0 .. i=8.
FUNNEL_COVERS = [(6, 3), (6, 4), (7, 4), (8, 4), (8, 5), (4, 1), (3, 1), (1, 0), (5, 2), (2, 0)]
FUNNEL = Poset(9, FUNNEL_COVERS, names=tuple("abcdefghi"))

# Figure poset whose LOI-complete elements are c, f, g, j; indices a=0 .. j=9.
LOI_COVERS = [(2, 0), (2, 1), (3, 2), (4, 2), (6, 3), (6, 4), (5, 2), (7, 5), (8, 5), (9, 7), (9, 8)]
LOI = Poset(10, LOI_COVERS, names=tuple("abcdefghij"))


def test_lambda_shape():
    assert LAMBDA.minimals == (0, 1)
    assert LAMBDA.maximals == (2,)
    assert LAMBDA.covers == ((0, 2), (1, 2))
    assert LAMBDA.heights == (0, 0, 1)


def test_single_element():
    p = Poset(1, [])
    assert p.minimals == (0,) == p.maximals
    assert p.covers == ()
    assert p.is_connected()


@pytest.mark.parametrize("build, n", [(chain, 2.0), (chain, "3"), (chain, True), (chain, 0),
                                      (antichain, 2.0), (Poset, 2.0)],
                         ids=lambda v: getattr(v, "__name__", repr(v)))
def test_size_must_be_a_positive_int(build, n):
    # chain refuses a float itself, before it ranges over n
    with pytest.raises(ValueError, match="poset size must be a positive integer"):
        build(n)


def test_transitive_reduction():
    p = Poset(3, [(0, 1), (1, 2), (0, 2)])
    assert p.covers == ((0, 1), (1, 2))
    assert p.lt(0, 2)


def test_closure():
    c = chain(4)
    assert c.lt(0, 3)
    assert c.leq(2, 2)
    assert not c.lt(2, 2)
    assert c.comparable(1, 3)
    assert not antichain(3).comparable(0, 2)


def test_cycle_rejected():
    with pytest.raises(CycleError):
        Poset(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        Poset(2, [(0, 0)])


def test_bad_cover_indices():
    with pytest.raises(IndexError):
        Poset(2, [(0, 5)])
    for size in (0, True, 2.0):
        with pytest.raises(ValueError):
            Poset(size, [])
    with pytest.raises(ValueError):
        Poset(2, [(0, 1)], names=["only-one"])


def test_heights_by_longest_chain():
    # diamond: two midpoints share height 1, top gets 2
    d = Poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert d.heights == (0, 1, 1, 2)
    n = Poset(4, [(0, 2), (1, 2), (1, 3)])
    assert n.heights == (0, 0, 1, 1)


def test_ordinal_sum_lambda():
    p = ordinal_sum(antichain(2), antichain(1))
    assert p == LAMBDA


def test_ordinal_sum_chain():
    assert ordinal_sum(chain(1), chain(1)) == chain(2)
    t222 = ordinal_sum(antichain(2), ordinal_sum(antichain(2), antichain(2)))
    assert t222.n == 6
    assert len(t222.covers) == 8
    assert t222.heights == (0, 0, 1, 1, 2, 2)


def test_ordinal_sum_concatenates_names():
    p = ordinal_sum(Poset(1, names=["a"]), Poset(2, [(0, 1)], names=["b", "c"]))
    assert p.names == ("a", "b", "c")
    assert ordinal_sum(Poset(1, names=["a"]), chain(2)).names is None


def test_disjoint_union():
    p = disjoint_union(chain(2), chain(2))
    assert not p.is_connected()
    assert p.minimals == (0, 2)
    assert chain(3).is_connected()


def test_components_are_masks_by_least_element():
    p = disjoint_union(disjoint_union(chain(2), antichain(1)), LAMBDA)
    assert p.components() == (0b11, 0b100, 0b111000)
    assert chain(3).components() == (0b111,)
    assert antichain(3).components() == (1, 2, 4)


def test_ideals_are_bitmasks():
    c = chain(3)
    assert list(_bits(c.down_ideal(2))) == [0, 1, 2]
    assert list(_bits(LAMBDA.down_ideal(2))) == [0, 1, 2]


def test_induced_subposet():
    sub, kept = FUNNEL.induced([0, 1, 3, 6])
    assert kept == (0, 1, 3, 6)
    assert sub.names == ("a", "b", "d", "g")
    # g < d < b < a collapses to a 4-chain
    assert sub == chain(4) or sub.covers == ((1, 0), (2, 1), (3, 2))
    assert sub.lt(3, 0)
    with pytest.raises(ValueError):
        FUNNEL.induced([])
    with pytest.raises(IndexError):
        FUNNEL.induced([0, 99])


def test_equality_and_hash():
    assert Poset(3, [(0, 2), (1, 2)]) == LAMBDA
    assert hash(Poset(3, [(0, 2), (1, 2)])) == hash(LAMBDA)
    assert LAMBDA != Poset(3, [(0, 1), (0, 2)])


def test_pickle_roundtrip(monkeypatch):
    data = pickle.dumps(FUNNEL)

    def rebuilt(*args):
        raise AssertionError("unpickling rebuilt the order")

    monkeypatch.setattr(posets, "_closure_from_pairs", rebuilt)
    q = pickle.loads(data)
    assert q == FUNNEL
    for field in ("covers", "heights", "minimals", "maximals", "names"):
        assert getattr(q, field) == getattr(FUNNEL, field), field
    assert hash(q) == hash(FUNNEL)


def test_funnel_figure():
    fb = funnel_and_basins(FUNNEL)
    assert fb[6] == frozenset({3})
    assert fb[8] == frozenset({2, 5})
    assert fb[7] == frozenset()
    assert basins(FUNNEL) == (6, 8)


def test_funnel_figure_subideals():
    # two basins below a, a single basin below b
    sub_a, kept_a = FUNNEL.induced(_bits(FUNNEL.down_ideal(0)))
    assert sorted(kept_a[i] for i in basins(sub_a)) == [6, 8]
    sub_b, kept_b = FUNNEL.induced(_bits(FUNNEL.down_ideal(1)))
    assert [kept_b[i] for i in basins(sub_b)] == [6]


def test_lambda_has_no_basin():
    assert basins(LAMBDA) == ()
    assert funnel_and_basins(LAMBDA) == {0: frozenset(), 1: frozenset()}


def test_chain_funnel():
    fb = funnel_and_basins(chain(3))
    assert fb == {0: frozenset({1, 2})}
    assert basins(chain(3)) == (0,)


def test_loi_figure():
    loi = sorted(x for x in range(LOI.n) if is_loi_complete(LOI, x))
    assert loi == [2, 5, 6, 9]


def brute_loi(p, x):
    down = list(_bits(p.down_ideal(x)))
    for z in range(p.n):
        if any(p.comparable(z, y) for y in down) and not (p.comparable(z, x)):
            return False
    return True


@pytest.mark.parametrize("p", [LAMBDA, FUNNEL, LOI, chain(4), antichain(4)])
def test_loi_matches_definition(p):
    for x in range(p.n):
        assert is_loi_complete(p, x) == brute_loi(p, x)


def test_loi_refuses_an_element_out_of_range():
    with pytest.raises(IndexError):
        is_loi_complete(LAMBDA, LAMBDA.n)


@pytest.mark.parametrize("x", [1.5, 1.0, True, False], ids=repr)
def test_element_indices_must_be_ints(x):
    # a float or bool index gets the range check's IndexError, not a bare
    # TypeError or a silent run as element 1 or 0
    p = chain(3)
    with pytest.raises(IndexError):
        is_loi_complete(p, x)
    with pytest.raises(IndexError):
        p.induced([x, 2])
    assert p.induced([1, 2])[1] == (1, 2)


def test_huge_int_in_a_message_keeps_the_error_type():
    # Python refuses the decimal text of an int over 4,300 digits, so the
    # message shows a digit count instead of raising that ValueError
    with pytest.raises(IndexError, match="element <5001-digit int> out of range"):
        is_loi_complete(chain(3), 10**5000)
    assert posets._short_repr(-10**5000) == "<-5001-digit int>"
    assert posets._short_repr(10**40 - 1) == "9" * 40
    assert posets._short_repr([1, 10**40]) == "[1, <41-digit int>]"


def test_minimal_elements_loi_complete():
    for p in (LAMBDA, FUNNEL, LOI):
        for x in p.minimals:
            assert is_loi_complete(p, x)
    assert is_loi_complete(chain(5), 4)


def test_json_roundtrip():
    text = poset_to_json(FUNNEL)
    assert "\n" not in text
    q = poset_from_json(text)
    assert q == FUNNEL and q.names == FUNNEL.names
    assert poset_to_json(q) == text


def test_json_covers_sorted():
    text = poset_to_json(Poset(3, [(1, 2), (0, 2)]))
    assert text.index("[0, 2]") < text.index("[1, 2]")


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        poset_from_json('{"covers": [[0, 1]]}')
    with pytest.raises(ValueError):
        poset_from_json('{"n": 2, "covers": [[0, 1], [1, 0]]}')
    # bool is an int subclass, and a string is a sequence of names
    with pytest.raises(SpecError):
        poset_from_json('{"n": true, "covers": []}')
    with pytest.raises(SpecError):
        poset_from_json('{"n": 2, "covers": [[true, false]]}')
    with pytest.raises(SpecError):
        poset_from_json('{"n": 2, "covers": [], "names": "ab"}')


def test_save_load(tmp_path):
    path = tmp_path / "funnel.json"
    save_poset(FUNNEL, path)
    assert load_poset(path) == FUNNEL
