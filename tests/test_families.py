"""Shoelace, W-poset, and inflation constructors."""

import itertools

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
    p = build_shoelace(ShoelaceSpec(1, 1, {(1, 1): 0}))
    assert iso(p, chain(2))


def test_shoelace_w_shaped():
    # every interior chain one element long gives W(2,1,1,2), not W(1,1,1,1):
    # the alpha and delta branches carry their maximal as the top chain node
    all1 = build_shoelace(ShoelaceSpec(2, 3, {p: 1 for p in W_PAIRS}))
    assert all1.n == 9
    assert iso(all1, build_w_poset(WParams(2, 1, 1, 2)))
    w1111 = build_shoelace(ShoelaceSpec(2, 3, {(1, 1): 0, (1, 2): 1, (2, 2): 1, (2, 3): 0}))
    assert w1111.n == 7
    assert iso(w1111, build_w_poset(WParams(1, 1, 1, 1)))


FIGURE_CHAINS = {(3, 4): 2, (1, 2): 1, (2, 1): 1, (2, 3): 1, (3, 3): 1, (1, 4): 1, (1, 3): 0}


def test_shoelace_figure():
    # 3 minimals, 4 maximals, 7 laces; C_3^4 has two interior elements
    p = build_shoelace(ShoelaceSpec(3, 4, FIGURE_CHAINS))
    assert p.n == 3 + 4 + sum(FIGURE_CHAINS.values())
    assert p.minimals == (0, 1, 2)
    assert p.maximals == (3, 4, 5, 6)
    assert p.is_connected()
    assert p.names[0] == "x1" and p.names[3] == "y1"


def test_shoelace_figure_layout():
    # laces in sorted pair order, each chain bottom to top, whatever order
    # the map lists them in
    p = build_shoelace(ShoelaceSpec(3, 4, FIGURE_CHAINS))
    assert p.covers == ((0, 5), (0, 7), (0, 8), (1, 9), (1, 10), (2, 11), (2, 12),
                        (7, 4), (8, 6), (9, 3), (10, 5), (11, 5), (12, 13), (13, 6))
    assert p.names == ("x1", "x2", "x3", "y1", "y2", "y3", "y4", "c1.2.1", "c1.4.1",
                       "c2.1.1", "c2.3.1", "c3.3.1", "c3.4.1", "c3.4.2")
    assert build_shoelace(ShoelaceSpec(3, 4, dict(sorted(FIGURE_CHAINS.items())))) == p


def test_shoelace_validation():
    with pytest.raises(SpecError):
        build_shoelace(ShoelaceSpec(0, 1, {}))
    with pytest.raises(SpecError):  # pair out of range
        build_shoelace(ShoelaceSpec(1, 1, {(1, 2): 0}))
    with pytest.raises(SpecError):  # negative chain length
        build_shoelace(ShoelaceSpec(1, 1, {(1, 1): -1}))
    # keys must be pairs of ints and lengths ints: floats and bools are refused
    for chains in ({(1, 1): 1.5}, {(1, 1): 1.0}, {(1, 1): True}, {(1.0, 1): 0},
                   {(1, True): 0}, {(1,): 0}, {(1, 1, 1): 0}, {"ab": 0}):
        with pytest.raises(SpecError):
            build_shoelace(ShoelaceSpec(1, 1, chains))
    with pytest.raises(DisconnectedError):
        build_shoelace(ShoelaceSpec(2, 2, {(1, 1): 0, (2, 2): 0}))
    with pytest.raises(DisconnectedError):  # no laces at all
        build_shoelace(ShoelaceSpec(1, 1, {}))


NON_INT_FIELDS = [
    (build_shoelace, ShoelaceSpec(1.5, 1, {(1, 1): 0})),
    (build_shoelace, ShoelaceSpec(True, 1, {(1, 1): 0})),
    (build_shoelace, ShoelaceSpec(1, 1.0, {(1, 1): 0})),
    (build_w_poset, WParams(1.5, 1, 1, 1)),
    (build_w_poset, WParams(True, 1, 1, 1)),
    (w_as_shoelace, WParams(1, 1, True, 1)),
]


@pytest.mark.parametrize("build, spec", NON_INT_FIELDS,
                         ids=[f"{build.__name__}-{spec}" for build, spec in NON_INT_FIELDS])
def test_scalar_fields_must_be_ints(build, spec):
    # a float is refused rather than failing inside range, and a bool, an
    # int subclass, is refused rather than built as 0 or 1
    with pytest.raises(SpecError, match="must be an integer"):
        build(spec)


def test_w_poset_refuses_a_negative_arm():
    with pytest.raises(SpecError, match="nonnegative"):
        build_w_poset(WParams(-1, 1, 1, 1))


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


def test_w_poset_covers_are_its_four_chains():
    # zero-length arms included: x < a-chain, x < b-chain < y, z < g-chain < y,
    # z < d-chain, with elements laid out x, a, b, y, z, g, d
    def arm(tag, k):
        return [f"{tag}{i}" for i in range(1, k + 1)]

    for arms in itertools.product(range(3), repeat=4):
        a, b, c, d = arms
        names = ["x", *arm("a", a), *arm("b", b), "y", "z", *arm("g", c), *arm("d", d)]
        chains = [["x", *arm("a", a)], ["x", *arm("b", b), "y"],
                  ["z", *arm("g", c), "y"], ["z", *arm("d", d)]]
        index = {name: i for i, name in enumerate(names)}
        covers = sorted((index[lo], index[hi]) for run in chains
                        for lo, hi in zip(run, run[1:]))
        w = build_w_poset(WParams(*arms))
        assert w.names == tuple(names), arms
        assert w.covers == tuple(covers), arms


def test_w_as_shoelace_lengths():
    assert w_as_shoelace(WParams(1, 1, 1, 1)).chains == {(1, 1): 0, (1, 2): 1, (2, 2): 1,
                                                         (2, 3): 0}
    assert w_as_shoelace(WParams(3, 1, 2, 4)).chains == {(1, 1): 2, (1, 2): 1, (2, 2): 2,
                                                         (2, 3): 3}
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
    # the spec checks itself on construction: the fiber count before any
    # walk, then the forest, then the fibers
    with pytest.raises(SpecError, match="one fiber per forest node"):
        InflationSpec((1, 0, *range(10**5)), (LAMBDA,))
    with pytest.raises(ForestError):
        InflationSpec((1, 0), (LAMBDA, LAMBDA))
    with pytest.raises(SpecError, match="not a Poset"):
        InflationSpec((None,), ("fiber",))


def test_inflation_refuses_an_empty_forest():
    with pytest.raises(ForestError, match="at least one node"):
        InflationSpec((), ())


def test_forest_validation_walks_each_node_once():
    # a quadratic walk took seconds on a 24,000-node path
    import time

    n = 200_000
    start = time.perf_counter()
    spec = InflationSpec((None, *range(n - 1)), (chain(1),) * n)
    assert time.perf_counter() - start < 2 and len(spec.parents) == n
    start = time.perf_counter()
    with pytest.raises(ForestError, match="cycle"):
        InflationSpec(tuple((q + 1) % n for q in range(n)), (chain(1),) * n)
    assert time.perf_counter() - start < 2


def test_inflation_spec_validates_once(monkeypatch):
    from promotion_sorting import families

    calls = []
    validate = families._validate_forest
    monkeypatch.setattr(families, "_validate_forest",
                        lambda parents: calls.append(parents) or validate(parents))
    spec = InflationSpec((None, 0, 0), (V, chain(1), DIAMOND))
    assert len(calls) == 1
    build_inflation(spec)
    assert len(calls) == 1


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
        # fibers are parsed before the spec, so their error comes first
        ({"parents": [1, 0], "fibers": [point, {"n": True, "covers": []}]}, SpecError, '"n"'),
    ]:
        with pytest.raises(error, match=message):
            inflation_spec_from_json(bad)
