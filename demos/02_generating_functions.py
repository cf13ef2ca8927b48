"""Sorting-time generating functions and what their shapes can do.

Computes the sorting and cumulative generating functions for a few posets,
shows the duality between k-sorted and k-tangled counts, and exhibits the
stack of three 2-antichains whose sorting polynomial is not unimodal even
though its cumulative partner stays log-concave.
"""

from promotion_sorting import (
    antichain,
    chain,
    ordinal_sum,
    sequence_shape,
    sorting_gf,
    tangled_report,
)

# f counts labelings by exact sorting order, g by "sorted within s steps";
# coefficients are exact integers and sum to n!
for name, p in [("3-chain", chain(3)),
                ("3-antichain", antichain(3)),
                ("funnel a,b < top", None)]:
    if p is None:
        p = ordinal_sum(antichain(2), chain(1))
    f = sorting_gf(p)
    g = f.cumulative()
    print(f"{name}: f = [{f}]  g = [{g}]  trimmed f = {f.trimmed()}")
print()

# k-sorted counts are the coefficients of f; k-tangled counts (order
# n - 1 - k) are the same coefficients read backwards
k_sorted = sorting_gf(chain(4)).coeffs
print("4-chain k-sorted :", k_sorted)
print("4-chain k-tangled:", k_sorted[::-1])
print()

# the top coefficient of f is the tangled count, also available per element
report = tangled_report(chain(4))
print("4-chain tangled labelings:", report.total, "by element:", report.by_element)
print()

# stacking antichains T2 + T2 + T2 breaks unimodality of f
t222 = ordinal_sum(antichain(2), ordinal_sum(antichain(2), antichain(2)))
f = sorting_gf(t222)
g = f.cumulative()
print("T2+T2+T2 sorting     f =", f.coeffs)
print("T2+T2+T2 cumulative  g =", g.coeffs)
print("f shape:", sequence_shape(f.coeffs))
print("g shape:", sequence_shape(g.coeffs))
print()

# how rare is that at n = 6? scan the whole landscape in the sweep demo;
# here just confirm the dip 216 -> 192 -> 240 by hand
a, b, c = f.coeffs[2:5]
print(f"the dip: {a} >= {b} <= {c} with {b} strictly below both ->",
      a > b < c)
