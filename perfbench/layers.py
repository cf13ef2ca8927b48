"""In-process traced run: per-layer metrics from spans around public calls.

Each call the run makes into a module's public function is wrapped in a
span (name, start, end, parent, run id).  Spans stay in memory and are
written to ``spans.json.gz`` in the output directory when the run ends.  Every
result a span times is checked against an oracle value; a wrong one counts
as failed.  The run also times a few of its call loops a second time with
tracing off and reports the ratio as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import gzip
import json
import math
import pickle
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracles

# name -> (unit, better, end-to-end metric and workloads it should move)
PER_LAYER = {
    "promotion.step_ns": ("ns", "lower", "work_per_s on enum-w; no change on catalog-8"),
    "promotion.is_natural_ns": ("ns", "lower", "wall_s of the gf job of enum-w only"),
    "enumeration.gf_labelings_per_s": ("1/s", "higher", "work_per_s on enum-w"),
    "enumeration.tangled_labelings_per_s": ("1/s", "higher", "work_per_s on enum-w and sweep-7"),
    "enumeration.parallel_eff": ("ratio", "higher", "wall_s on enum-w"),
    "enumeration.pool_fixed_ms": ("ms", "lower", "wall_s on enum-w"),
    "harness.canonicalize_us": ("us", "lower",
                                "posets_per_s on catalog-8, partly sweep-7; no change on enum-w"),
    "harness.canonicalize_calls": ("count", "lower", "posets_per_s on catalog-8"),
    "harness.dedup_ratio": ("ratio", "higher", "posets_per_s on catalog-8"),
    "harness.level_s.7": ("s", "lower", "wall_s on sweep-7"),
    "harness.level_s.8": ("s", "lower", "posets_per_s on catalog-8"),
    "harness.scan_posets_per_s": ("1/s", "higher", "posets_per_s and wall_s on sweep-7"),
    "harness.scan_parallel_eff": ("ratio", "higher", "wall_s on sweep-7"),
    "harness.pickle_us": ("us", "lower", "wall_s on sweep-7 at 2 threads"),
    "harness.save_catalog_s": ("s", "lower", "wall_s on catalog-8"),
    "posets.construct_us": ("us", "lower", "wall_s on catalog-8 and sweep-7"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced over untraced time of the same calls"),
}

SAMPLE = 10000          # seeded W(2,2,1,1) labelings for the promotion metrics
POOL_REPEATS = 7
# One and two workers are timed twice each, in this order, and averaged, so
# that a drift in machine speed during the pair cancels out of their ratio.
WORKER_ORDER = (1, 2, 2, 1)


@dataclass
class Tracer:
    """In-memory spans: (name, start_ns, end_ns, parent index or None)."""

    run_id: str
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a span; return (result, seconds)."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
        return result, (end - start) / 1e9

    def loop(self, name: str, fn, items) -> tuple[list, float]:
        """One span per call of fn over items; return (results, summed seconds)."""
        results, total = [], 0.0
        for item in items:
            result, seconds = self.call(name, fn, *item)
            results.append(result)
            total += seconds
        return results, total

    def write(self, path: Path) -> None:
        """One gzipped JSON document; a span's parent is an index into ``spans``."""
        doc = {"run": self.run_id, "fields": ["name", "start_ns", "end_ns", "parent"],
               "spans": self.spans}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


@dataclass
class Traced:
    values: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def expect(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED traced check: {what}", flush=True)


def untraced_seconds(fn, items) -> float:
    start = time.perf_counter()
    for item in items:
        fn(*item)
    return time.perf_counter() - start


def _promotion(tracer: Tracer, out: Traced, promotion, w9, seed: int) -> list:
    """order() and is_natural() over a seeded sample of labelings; returns the sample."""
    rng = random.Random(seed)
    sample = []
    for _ in range(SAMPLE):
        labels = list(range(1, w9.n + 1))
        rng.shuffle(labels)
        sample.append((w9, tuple(labels)))
    orders, order_s = tracer.loop("promotion.order", promotion.order, sample)
    natural, natural_s = tracer.loop("promotion.is_natural", promotion.is_natural, sample)
    steps = sum(orders)
    out.expect("order stays within n - 1", max(orders) <= w9.n - 1 and steps > 0)
    out.expect("is_natural agrees with order",
               all(nat == (o == 0) for nat, o in zip(natural, orders)))
    out.values["promotion.step_ns"] = order_s * 1e9 / steps
    out.values["promotion.is_natural_ns"] = natural_s * 1e9 / SAMPLE
    return sample


def _enumeration(tracer: Tracer, out: Traced, enumeration, posets, w9, w10, perm10) -> None:
    """Whole-poset kernels at one and two workers, and the pool's fixed cost."""
    span = tracer.call
    gf_s = {1: 0.0, 2: 0.0}
    for workers in WORKER_ORDER:
        gf, seconds = span("enumeration.sorting_gf", enumeration.sorting_gf, w9, workers=workers)
        out.expect(f"sorting_gf W(2,2,1,1), {workers} workers", gf.coeffs == oracles.GF_W2211)
        gf_s[workers] += seconds / 2
    out.values["enumeration.gf_labelings_per_s"] = math.factorial(w9.n) / gf_s[1]
    out.values["enumeration.parallel_eff"] = gf_s[1] / (2 * gf_s[2])

    report, tangled_s = span("enumeration.tangled_report", enumeration.tangled_report,
                             w10, workers=1, force=True)
    by_element = tuple(report.by_element[perm10[e]] for e in range(w10.n))
    out.expect("tangled_report W(2,2,2,1)", by_element == oracles.BY_ELEMENT_W2221)
    labelings = oracles.basin_count(w10.n, w10.covers) * math.factorial(w10.n - 1)
    out.values["enumeration.tangled_labelings_per_s"] = labelings / tangled_s

    chain3 = posets.chain(3)
    pool_ms = {}
    for workers in (1, 2):
        times = []
        for _ in range(POOL_REPEATS):
            small, seconds = span("enumeration.tangled_report", enumeration.tangled_report,
                                  chain3, workers=workers)
            out.expect(f"tangled_report chain(3), {workers} workers",
                       small.by_element == oracles.BY_ELEMENT_CHAIN3)
            times.append(seconds * 1e3)
        pool_ms[workers] = statistics.median(times)
    out.values["enumeration.pool_fixed_ms"] = pool_ms[2] - pool_ms[1]


def _catalogs(tracer: Tracer, out: Traced, harness) -> dict:
    """generate_posets(6, 7, 8), counting canonicalize calls at the module
    attribute generate_posets looks up; returns the catalogs by size."""
    calls = [0]
    canonicalize = harness.canonicalize

    def counting(*args, **kwargs):
        calls[0] += 1
        return canonicalize(*args, **kwargs)

    harness.canonicalize = counting
    try:
        catalogs, seconds = {}, {}
        for k in (6, 7, 8):
            calls[0] = 0
            catalogs[k], seconds[k] = tracer.call("harness.generate_posets",
                                                  harness.generate_posets, k)
            out.expect(f"generate_posets({k}) size", len(catalogs[k]) == oracles.A000112[k])
    finally:
        harness.canonicalize = canonicalize
    out.values["harness.canonicalize_calls"] = calls[0]
    out.values["harness.dedup_ratio"] = len(catalogs[8]) / calls[0]
    out.values["harness.level_s.7"] = seconds[7] - seconds[6]
    out.values["harness.level_s.8"] = seconds[8] - seconds[7]
    return catalogs


def _catalog_calls(tracer: Tracer, out: Traced, harness, posets, cat8, out_dir: Path) -> None:
    """canonicalize, Poset construction and save_catalog over the n = 8 catalog."""
    keys, canon_s = tracer.loop("harness.canonicalize", harness.canonicalize,
                                [(p,) for p in cat8.entries])
    out.expect("canonical forms of the n = 8 catalog are distinct",
               len(set(keys)) == oracles.A000112[8])
    out.values["harness.canonicalize_us"] = canon_s * 1e6 / len(keys)

    rebuilt, construct_s = tracer.loop("posets.Poset", posets.Poset,
                                       [(8, p.covers) for p in cat8.entries])
    out.expect("Poset rebuilt from covers equals the catalog entry",
               rebuilt == list(cat8.entries))
    out.values["posets.construct_us"] = construct_s * 1e6 / len(rebuilt)

    connected = harness.PosetCatalog(8, True, tuple(p for p in cat8.entries if p.is_connected()))
    path = out_dir / "catalog8-traced.jsonl"
    _, save_s = tracer.call("harness.save_catalog", harness.save_catalog, connected, path)
    with open(path) as fh:
        out.expect("save_catalog writes A000608(8) lines",
                   sum(1 for _ in fh) == oracles.A000608[8])
    path.unlink()
    out.values["harness.save_catalog_s"] = save_s


def round_trip(p):
    return pickle.loads(pickle.dumps(p))


def _scan(tracer: Tracer, out: Traced, harness, cat7) -> list:
    """scan_catalog over the connected n = 7 posets at one and two workers,
    and the pickle round trip each dispatched task pays; returns the items."""
    connected = harness.PosetCatalog(7, True, tuple(p for p in cat7.entries if p.is_connected()))
    scan_s = {1: 0.0, 2: 0.0}
    for workers in WORKER_ORDER:
        scan, seconds = tracer.call("harness.scan_catalog", harness.scan_catalog,
                                    connected, workers=workers)
        out.expect(f"scan_catalog n = 7, {workers} workers",
                   scan.scanned == oracles.A000608[7] and scan.passed)
        scan_s[workers] += seconds / 2
    out.values["harness.scan_posets_per_s"] = oracles.A000608[7] / scan_s[1]
    out.values["harness.scan_parallel_eff"] = scan_s[1] / (2 * scan_s[2])

    items = [(p,) for p in connected.entries]
    copies, pickle_s = tracer.loop("harness.pickle_round_trip", round_trip, items)
    out.expect("pickled posets round-trip", copies == list(connected.entries))
    out.values["harness.pickle_us"] = pickle_s * 1e6 / len(copies)
    return items


def _harness(tracer: Tracer, out: Traced, harness, posets, out_dir: Path) -> list:
    catalogs = _catalogs(tracer, out, harness)
    _catalog_calls(tracer, out, harness, posets, catalogs[8], out_dir)
    return _scan(tracer, out, harness, catalogs[7])


def traced_run(src: Path, out_dir: Path, seed: int, record: dict) -> Traced:
    """Every per-layer metric, from one traced pass over fixed, seeded inputs.

    Each layer's calls run under one parent span named after the layer.
    """
    sys.path.insert(0, str(src))
    from promotion_sorting import enumeration, harness, posets, promotion

    tracer = Tracer(f"{record['workload']}-seed{seed}-{int(record['started_unix'])}")
    out = Traced()
    wall_start = time.perf_counter()

    n9, covers9, _ = oracles.w_poset(2, 2, 1, 1)
    _, covers9, _ = oracles.relabel(n9, covers9, [""] * n9, seed)
    w9 = posets.Poset(n9, covers9)
    n10, covers10, _ = oracles.w_poset(2, 2, 2, 1)
    perm10, covers10, _ = oracles.relabel(n10, covers10, [""] * n10, seed)
    w10 = posets.Poset(n10, covers10)

    sample, _ = tracer.call("promotion", _promotion, tracer, out, promotion, w9, seed)
    tracer.call("enumeration", _enumeration, tracer, out, enumeration, posets, w9, w10, perm10)
    items7, _ = tracer.call("harness", _harness, tracer, out, harness, posets, out_dir)

    # Tracing overhead: the densest call loops once more, untraced and traced.
    loops = [("promotion.order", promotion.order, sample),
             ("promotion.is_natural", promotion.is_natural, sample),
             ("harness.pickle_round_trip", round_trip, items7)]
    plain = sum(untraced_seconds(fn, items) for _, fn, items in loops)
    _, traced = tracer.call("overhead", lambda: [tracer.loop(*spec) for spec in loops])
    out.values["trace.overhead_ratio"] = traced / plain

    tracer.write(out_dir / "spans.json.gz")
    print(f"traced run: {len(tracer.spans)} spans in "
          f"{time.perf_counter() - wall_start:.1f} s; written to {out_dir / 'spans.json.gz'}",
          flush=True)
    for name, (unit, _, moves) in PER_LAYER.items():
        print(f"  {name} = {out.values[name]:.6g} {unit}  -> {moves}", flush=True)
    return out
