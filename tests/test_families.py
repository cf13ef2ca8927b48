"""Shoelace, W-poset, and inflation constructors."""

import pytest

from promotion_sorting import (
    DisconnectedError,
    FiberError,
    ForestError,
    InflationSpec,
    Poset,
    ShoelaceSpec,
    SpecError,
    WParams,
    antichain,
    build_inflation,
    build_shoelace,
    build_w_poset,
    chain,
    inflation_spec_from_json,
    is_loi_complete,
    w_as_shoelace,
)
from promotion_sorting.harness import canonicalize

V = Poset(3, [(0, 1), (0, 2)])
LAMBDA = Poset(3, [(0, 2), (1, 2)])
DIAMOND = Poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
W_PAIRS = frozenset({(1, 1), (1, 2), (2, 2), (2, 3)})


def iso(p, q):
    return canonicalize(p) == canonicalize(q)


def test_shoelace_two_chain():
    p = build_shoelace(ShoelaceSpec(1, 1, frozenset({(1, 1)}), {}))
    assert iso(p, chain(2))


def test_shoelace_w_shaped():
    # every interior chain one element long gives W(2,1,1,2), not W(1,1,1,1):
    # the alpha and delta branches carry their maximal as the top chain node
    all1 = build_shoelace(ShoelaceSpec(2, 3, W_PAIRS, {p: 1 for p in W_PAIRS}))
    assert all1.n == 9
    assert iso(all1, build_w_poset(WParams(2, 1, 1, 2)))
    w1111 = build_shoelace(ShoelaceSpec(2, 3, W_PAIRS, {(1, 2): 1, (2, 2): 1}))
    assert w1111.n == 7
    assert iso(w1111, build_w_poset(WParams(1, 1, 1, 1)))


def test_shoelace_figure():
    # 3 minimals, 4 maximals, 7 laces; C_3^4 has two interior elements
    pairs = frozenset({(1, 2), (1, 3), (1, 4), (2, 1), (2, 3), (3, 3), (3, 4)})
    lengths = {(3, 4): 2, (1, 2): 1, (2, 1): 1, (2, 3): 1, (3, 3): 1, (1, 4): 1}
    p = build_shoelace(ShoelaceSpec(3, 4, pairs, lengths))
    assert p.n == 3 + 4 + sum(lengths.values())
    assert p.minimals == (0, 1, 2)
    assert p.maximals == (3, 4, 5, 6)
    assert p.is_connected()
    assert p.names[0] == "x1" and p.names[3] == "y1"


def test_shoelace_validation():
    with pytest.raises(SpecError):
        build_shoelace(ShoelaceSpec(0, 1, frozenset(), {}))
    with pytest.raises(SpecError):  # pair out of range
        build_shoelace(ShoelaceSpec(1, 1, frozenset({(1, 2)}), {}))
    with pytest.raises(SpecError):  # negative chain length
        build_shoelace(ShoelaceSpec(1, 1, frozenset({(1, 1)}), {(1, 1): -1}))
    with pytest.raises(DisconnectedError):
        build_shoelace(ShoelaceSpec(2, 2, frozenset({(1, 1), (2, 2)}), {}))


def test_shoelace_length_of_defaults_zero():
    spec = ShoelaceSpec(1, 1, frozenset({(1, 1)}), {})
    assert spec.length_of((1, 1)) == 0


def test_w_poset_shape():
    w = build_w_poset(WParams(2, 2, 1, 1))
    assert w.n == 9
    assert len(w.minimals) == 2
    assert len(w.maximals) == 3
    assert w.names[0] == "x"
    w7 = build_w_poset(WParams(1, 1, 1, 1))
    assert (w7.n, len(w7.minimals), len(w7.maximals)) == (7, 2, 3)


def test_w_poset_degenerate():
    w0 = build_w_poset(WParams(0, 0, 0, 0))
    assert w0.n == 3
    assert iso(w0, LAMBDA)


def test_w_as_shoelace_lengths():
    spec = w_as_shoelace(WParams(1, 1, 1, 1))
    assert spec.length_of((1, 1)) == 0
    assert spec.length_of((1, 2)) == 1
    assert spec.length_of((2, 2)) == 1
    assert spec.length_of((2, 3)) == 0
    with pytest.raises(SpecError):
        w_as_shoelace(WParams(0, 1, 1, 1))


@pytest.mark.parametrize("params", [(1, 1, 1, 1), (2, 2, 1, 1), (2, 1, 1, 2), (1, 2, 2, 1), (3, 1, 2, 1)])
def test_w_matches_its_shoelace(params):
    wp = WParams(*params)
    assert iso(build_w_poset(wp), build_shoelace(w_as_shoelace(wp)))


def test_inflation_identity():
    p, phi = build_inflation(InflationSpec((None,), (V,)))
    assert p == V
    assert phi == (0, 0, 0)


def test_inflation_singleton_fibers_lambda_tree():
    p, phi = build_inflation(InflationSpec((None, 0, 0), (chain(1),) * 3))
    assert iso(p, LAMBDA)
    assert phi == (0, 1, 2)


def test_inflation_two_chain_gives_three_chain():
    p, _ = build_inflation(InflationSpec((None, 0), (chain(1), chain(2))))
    assert iso(p, chain(3))


def test_inflation_loi_figure():
    # root fiber V, one V leaf and one diamond leaf reproduce the LOI figure
    p, phi = build_inflation(InflationSpec((None, 0, 0), (V, V, DIAMOND)))
    figure = Poset(10, [(2, 0), (2, 1), (3, 2), (4, 2), (6, 3), (6, 4), (5, 2), (7, 5), (8, 5), (9, 7), (9, 8)])
    assert iso(p, figure)
    for node, start in ((0, 0), (1, 3), (2, 6)):
        assert phi[start] == node
        assert is_loi_complete(p, start)


def test_inflation_rejects_multi_minimal_fiber():
    with pytest.raises(FiberError):
        build_inflation(InflationSpec((None,), (LAMBDA,)))


def test_inflation_rejects_bad_forest():
    with pytest.raises(ForestError):
        build_inflation(InflationSpec((1, 0), (chain(1), chain(1))))
    with pytest.raises(ForestError):
        build_inflation(InflationSpec((None, 5), (chain(1), chain(1))))
    with pytest.raises(SpecError):
        build_inflation(InflationSpec((None,), (chain(1), chain(1))))


def test_inflation_forest_layout():
    spec = InflationSpec((None, 0, None), (chain(2), chain(1), chain(2)))
    p, phi = build_inflation(spec)
    assert not p.is_connected()
    assert phi == (0, 0, 1, 2, 2)
    assert p.n == 5


def test_inflation_spec_from_json():
    doc = {
        "parents": [None, 0, 0],
        "fibers": [
            {"n": 3, "covers": [[0, 1], [0, 2]]},
            {"n": 2, "covers": [[0, 1]]},
            {"n": 1, "covers": []},
        ],
    }
    spec = inflation_spec_from_json(doc)
    assert spec.parents == (None, 0, 0)
    assert spec.fibers[0] == V
    p, _ = build_inflation(spec)
    assert p.n == 6
    with pytest.raises(ValueError):
        inflation_spec_from_json({"parents": [None]})
    # parents and fibers get the same type checks as every poset document
    point = {"n": 1, "covers": []}
    for bad, error, message in [
        ({"parents": [None], "fibers": [{"n": True, "covers": []}]}, SpecError, '"n"'),
        ({"parents": [None], "fibers": [{"n": 2, "covers": [[0, 1]], "names": "ab"}]},
         SpecError, '"names"'),
        ({"parents": [None], "fibers": [{"n": 2, "covers": "ab"}]}, SpecError, '"covers"'),
        ({"parents": [None], "fibers": [[1]]}, SpecError, '"n" and "covers"'),
        ({"parents": [None, True], "fibers": [point, point]}, ForestError, "True"),
        ({"parents": [None, 0.7], "fibers": [point, point]}, ForestError, "0.7"),
        ({"parents": [None, "0"], "fibers": [point, point]}, ForestError, "'0'"),
        ({"parents": 3, "fibers": [point]}, SpecError, "lists"),
        ({"parents": [1, 0], "fibers": [point, point]}, ForestError, "cycle"),
    ]:
        with pytest.raises(error, match=message):
            inflation_spec_from_json(bad)
