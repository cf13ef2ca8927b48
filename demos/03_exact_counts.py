"""Closed-form counts for structured families, cross-checked by brute force.

Every formula here is exact integer (or rational) arithmetic.  Each section
computes the closed form and then recounts the same quantity by exhausting
labelings, so the script doubles as a small self-test.
"""

from promotion_sorting import (
    InflationSpec,
    WParams,
    antichain,
    attach_antichain,
    broom_f,
    build_inflation,
    build_w_poset,
    chain,
    irf_bound,
    irf_tangled_by_element,
    ordinal_sum,
    ordinal_sum_antichains_g,
    pedestal_coeffs,
    sorting_gf,
    tangled_report,
    w_poset_tangled,
)

# W-shaped posets: four arms hanging off a zigzag of three tops
for params in [(1, 1, 1, 1), (2, 2, 1, 1), (2, 1, 1, 2)]:
    closed = w_poset_tangled(*params)
    w = build_w_poset(WParams(*params))
    brute = tangled_report(w).total
    print(f"W{params}: {closed} tangled labelings "
          f"(n = {w.n}, enumeration agrees: {closed == brute})")
print()

# inflated rooted trees: hang a 2-chain fiber under a root fiber that is a
# single element, then a 3-chain under that; count tangled labelings per
# element without touching a single labeling
spec = InflationSpec((None, 0, 1), (chain(1), chain(2), chain(3)))
p, fiber_of = build_inflation(spec)
formula = [irf_tangled_by_element(spec, x) for x in range(p.n)]
brute = tangled_report(p).by_element
print("inflated tree, fibers C1 over C2 over C3 (n = 6):")
print("  per-element formula:", formula)
print("  per-element brute  :", list(brute))
print("  tangled fraction bound for the family:", irf_bound(spec))
print()

# brooms: an n-antichain under a (k+1)-chain
print("broom sorting polynomials:")
for n, k in [(2, 2), (3, 1), (1, 3)]:
    f = broom_f(n, k)
    direct = sorting_gf(ordinal_sum(antichain(n), chain(k + 1)))
    print(f"  bristles {n}, handle {k}: f = {f.coeffs}"
          f"  (direct: {f.coeffs == direct.coeffs})")
print()

# pedestals: any n-poset on top of an l-chain; the top l + 1 cumulative and
# top l sorting coefficients depend only on n and l
tails = pedestal_coeffs(3, 2)
funnel = ordinal_sum(antichain(2), chain(1))
ped = ordinal_sum(chain(2), funnel)
print("pedestal tails for n = 3, l = 2:", tails)
print("  realized on the funnel: f =", sorting_gf(ped).coeffs,
      " g =", sorting_gf(ped).cumulative().coeffs)
print()

# attaching a k-antichain below any poset rewrites f in closed form
funnel_f = sorting_gf(funnel).coeffs
for k in (1, 2, 3):
    lifted = attach_antichain(funnel_f, k)
    direct = sorting_gf(ordinal_sum(antichain(k), funnel))
    print(f"funnel over a {k}-antichain: f = {lifted.trimmed()}"
          f"  (direct: {lifted.coeffs == direct.coeffs})")
print()

# stacks of antichains admit a product formula for g, top block first
sizes = (1, 2, 3)
g = ordinal_sum_antichains_g(sizes)
stack = antichain(3)
stack = ordinal_sum(stack, antichain(2))
stack = ordinal_sum(stack, antichain(1))
print(f"antichain stack {sizes} (top to bottom): g = {g.coeffs}"
      f"  (direct: {g.coeffs == sorting_gf(stack).cumulative().coeffs})")
