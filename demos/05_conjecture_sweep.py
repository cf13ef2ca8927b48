"""Exhaustive conjecture checking over isomorphism-free poset catalogs.

Generates one representative per isomorphism class, runs the per-element
(n-2)! bound with its equality characterization, the Hodges bound on the
total, and the (n-1)! cap, then censuses which n = 6 posets break
unimodality of the sorting polynomial.  Finishes by round-tripping a
catalog through its NDJSON file format.
"""

import tempfile
from pathlib import Path

from promotion_sorting import (
    check_conjectures,
    generate_posets,
    load_catalog,
    save_catalog,
    scan_catalog,
    sorting_gf,
)

print("isomorphism classes by size:")
for n in range(1, 8):
    catalog = generate_posets(n)
    connected = generate_posets(n, connected=True)
    print(f"  n = {n}: {len(catalog):5d} posets, {len(connected):5d} connected")
print()

# a single report: every check on one poset
catalog6 = generate_posets(6, connected=True)
report = check_conjectures(catalog6.entries[0])
print("sample report for one 6-element poset:")
print("  tangled by element:", report.by_element, "total:", report.total)
print("  failed checks:", report.failed, " all checks pass:", report.passed)
print()

# the full sweep: nothing fails up through n = 6
for n in range(2, 7):
    cat = generate_posets(n, connected=True)
    scan = scan_catalog(cat)
    print(f"n = {n}: scanned {scan.scanned:3d} connected posets,"
          f" failures: {len(scan.failures)}")
print()

# unimodality census at n = 6
scan = scan_catalog(generate_posets(6), unimodal=True)
print(f"n = 6 sorting polynomials that are not unimodal:"
      f" {len(scan.non_unimodal)} of {scan.scanned}")
for idx, coeffs in scan.non_unimodal[:3]:
    print(f"  catalog entry {idx}: f = {coeffs}")
print("  ...")
print()

# catalogs serialize to newline-delimited JSON, gzip by suffix
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "posets6.ndjson.gz"
    save_catalog(catalog6, path)
    loaded = load_catalog(path)
    same = all(p.covers == q.covers
               for p, q in zip(catalog6.entries, loaded.entries))
    print(f"saved and reloaded {len(loaded)} posets"
          f" ({path.stat().st_size} bytes gzipped), identical: {same}")

# sanity: the non-unimodal witness from the generating function demo is here
t222_f = (8, 64, 216, 192, 240, 0)
found = any(sorting_gf(p).coeffs == t222_f for p in generate_posets(6).entries)
print("the T2+T2+T2 counterexample appears in the catalog:", found)
