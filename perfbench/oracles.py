"""Seeded inputs and exact oracles for the benchmark's CLI jobs.

Nothing here imports the package under test: the W-posets are written from
their definition, and every expected value is a pinned constant with its
provenance.  A job's time counts only when it exits 0 and its output passes
these checks.
"""

from __future__ import annotations

import json
import math
import random
import re

# Sorting generating function of W(2,2,1,1), n = 9.  It sums to 9!, and its
# last coefficient is the tangled count w_poset_tangled(2, 2, 1, 1).
GF_W2211 = (1168, 7846, 20654, 37700, 55592, 70124, 73746, 61638, 34412)
TANGLED_W2211 = 34412
# Tangled labelings of W(2,2,2,1), n = 10: w_poset_tangled(2, 2, 2, 1), and
# the split by the element holding label n - 1, in definition order
# (x, a1, a2, b1, b2, y, z, g1, g2, d1).  Minimal elements x and z hold 0.
TANGLED_W2221 = 316864
BY_ELEMENT_W2221 = (0, 40320, 40320, 40320, 40320, 34624, 0, 40320, 40320, 40320)
# OEIS A000112 (all posets) and A000608 (connected posets) by size.
A000112 = {1: 1, 2: 3, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045, 8: 16999}
A000608 = {1: 1, 2: 1, 3: 3, 4: 10, 5: 44, 6: 238, 7: 1650, 8: 14512}
# Labelings `verify --max-n 7` enumerates: the sum over connected posets with
# 2 <= n <= 7 of |basins| * (n-1)!.  The basin counts per level are
# 1, 2, 7, 36, 218, 1670; test_perfbench recomputes them with basin_count.
SWEEP7_LABELINGS = 1229471
SWEEP7_POSETS = sum(A000608[k] for k in range(2, 8))
# Tangled labelings of the 3-chain, split by element: only 1 and 2 can hold
# label n - 1.
BY_ELEMENT_CHAIN3 = (0, 1, 1)


def w_poset(a: int, b: int, c: int, d: int) -> tuple[int, list, list]:
    """W(a, b, c, d) from its definition: (n, covers, names).

    x lies below the chain a1 < .. < a<a> and below b1 < .. < b<b> < y; z lies
    below g1 < .. < g<c> < y and below d1 < .. < d<d>.  All arms are >= 1.
    """
    names = (["x"] + [f"a{i}" for i in range(1, a + 1)]
             + [f"b{i}" for i in range(1, b + 1)] + ["y", "z"]
             + [f"g{i}" for i in range(1, c + 1)]
             + [f"d{i}" for i in range(1, d + 1)])
    idx = {name: i for i, name in enumerate(names)}
    chains = [["x"] + [f"a{i}" for i in range(1, a + 1)],
              ["x"] + [f"b{i}" for i in range(1, b + 1)] + ["y"],
              ["z"] + [f"g{i}" for i in range(1, c + 1)] + ["y"],
              ["z"] + [f"d{i}" for i in range(1, d + 1)]]
    covers = sorted((idx[lo], idx[hi]) for run in chains for lo, hi in zip(run, run[1:]))
    return len(names), covers, names


def relabel(n: int, covers, names, seed: int) -> tuple[list, list, list]:
    """Apply a seeded permutation to the element indices.

    Returns (perm, covers, names) where element e of the input becomes
    element perm[e].
    """
    perm = random.Random(seed).sample(range(n), n)
    new_covers = sorted([perm[a], perm[b]] for a, b in covers)
    new_names = [""] * n
    for e, name in enumerate(names):
        new_names[perm[e]] = name
    return perm, new_covers, new_names


def poset_document(n: int, covers, names) -> str:
    return json.dumps({"n": n, "covers": [list(c) for c in covers], "names": names}) + "\n"


# -- output checks --------------------------------------------------------------

def check_gf(stdout: str) -> bool:
    """`gf` on W(2,2,1,1): f matches the pinned vector and g its prefix sums."""
    lines = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    try:
        f = tuple(int(v) for v in lines["f"].split())
        g = tuple(int(v) for v in lines["g"].split())
    except (KeyError, ValueError):
        return False
    return (f == GF_W2211 and sum(f) == math.factorial(9)
            and f[-1] == TANGLED_W2211
            and g == tuple(sum(f[:i + 1]) for i in range(len(f))))


_ELEMENT_LINE = re.compile(r"^(\d+)(?: \(.*\))?: (\d+)$")


def check_tangled(stdout: str, perm) -> bool:
    """`tangled --by-element` on a relabeled W(2,2,2,1).

    The per-element counts are mapped back through ``perm`` and compared
    with the pinned split; each is also held to the (n-2)! = 8! bound.
    """
    lines = stdout.splitlines()
    if not lines or lines[0] != f"total: {TANGLED_W2221}":
        return False
    counts = {}
    for line in lines[1:]:
        match = _ELEMENT_LINE.match(line)
        if not match:
            return False
        counts[int(match.group(1))] = int(match.group(2))
    if sorted(counts) != list(range(len(perm))):
        return False
    by_element = tuple(counts[perm[e]] for e in range(len(perm)))
    return (by_element == BY_ELEMENT_W2221 and sum(by_element) == TANGLED_W2221
            and max(by_element) <= math.factorial(8))


def is_connected(n: int, covers) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in covers:
        parent[find(a)] = find(b)
    return len({find(x) for x in range(n)}) == 1


def check_catalog(text: str, n: int = 8) -> bool:
    """`gen-posets --connected --out`: A000608(n) distinct connected entries."""
    lines = text.splitlines()
    if len(lines) != A000608[n] or len(set(lines)) != len(lines):
        return False
    for line in lines:
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            return False
        if doc.get("n") != n or not is_connected(n, doc.get("covers", ())):
            return False
    return True


def expected_sweep(max_n: int) -> list[str]:
    return [f"n={k}: {A000608[k]} posets, 0 counterexamples" for k in range(2, max_n + 1)]


def check_sweep(stdout: str, max_n: int = 7) -> bool:
    """`verify --max-n`: one clean line per size."""
    return stdout.splitlines() == expected_sweep(max_n)


def basin_count(n: int, covers) -> int:
    """Minimal elements x with some y > x whose down-set meets only x among minimals."""
    below = [set() for _ in range(n)]
    for a, b in covers:
        below[b].add(a)
    changed = True
    while changed:
        changed = False
        for y in range(n):
            grown = set().union(*(below[z] for z in below[y])) | below[y]
            if grown != below[y]:
                below[y] = grown
                changed = True
    minimals = {x for x in range(n) if not below[x]}
    return sum(1 for x in minimals
               if any(below[y] & minimals == {x} for y in range(n)))
