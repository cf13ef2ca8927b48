"""Command-line front end.

Exit codes: 0 success, 1 user error (bad flags, malformed files, domain
errors), 2 budget refusal (pass --force to override where supported),
3 counterexample found (a conjecture in verify, or a closed form that
disagrees with enumeration in wposet --enumerate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .enumeration import (BudgetError, GenFun, _check_budget, sorting_gf,
                          tangled_report)
from .families import WParams, build_w_poset, inflation_spec_from_json
from .formulas import (attach_antichain, broom_f, irf_bound,
                       irf_tangled_by_element, ordinal_sum_antichains_g,
                       pedestal_coeffs, w_poset_tangled, weak_order_family)
from .harness import (ALL_CHECKS, PosetCatalog, generate_posets, poset_levels,
                      save_catalog, scan_catalog)
from .posets import Poset, load_poset, poset_to_json
from .promotion import (format_labeling, lift_labeling, order, parse_labeling,
                        promote, validate_labeling)

VERIFY_DEFAULT_MAX_N = 6


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_threads() -> int:
    return os.cpu_count() or 1


def _add_poset_arg(cmd, required: bool = True):
    cmd.add_argument("--poset", required=required, metavar="FILE",
                     help="poset JSON file ({\"n\": .., \"covers\": [[i, j], ..]})")


def _add_threads_arg(cmd):
    cmd.add_argument("--threads", type=int, default=_default_threads(), metavar="N",
                     help="worker processes (default: machine parallelism)")


def _load(args) -> Poset:
    return load_poset(args.poset)


def _labeling_for(p: Poset, text: str):
    return validate_labeling(p, parse_labeling(text))


# -- DOT export -----------------------------------------------------------------

def export_dot(p: Poset, labels: Optional[Sequence[int]] = None) -> str:
    """Graphviz text for the Hasse diagram, byte-stable for equal inputs.

    Elements of equal height share a rank; an optional labeling captions
    each node as element:label.
    """
    if labels is not None:
        labels = validate_labeling(p, labels)
    lines = ["digraph poset {", "  rankdir=BT;"]
    tiers: dict[int, list[int]] = {}
    for e in range(p.n):
        tiers.setdefault(p.heights[e], []).append(e)
    for h in sorted(tiers):
        row = " ".join(f"n{e};" for e in tiers[h])
        lines.append(f"  {{ rank=same; {row} }}")
    for e in range(p.n):
        text = p.names[e] if p.names else str(e)
        if labels is not None:
            text = f"{text}:{labels[e]}"
        text = text.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{e} [label="{text}"];')
    for a, b in p.covers:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- handlers ---------------------------------------------------------------------

def _cmd_promote(args) -> int:
    p = _load(args)
    labels = _labeling_for(p, args.labeling)
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    for _ in range(args.steps):
        step = promote(p, labels)
        print(f"{format_labeling(step.labels)} chain={list(step.chain)}")
        labels = step.labels
    return 0


def _cmd_order(args) -> int:
    p = _load(args)
    print(order(p, _labeling_for(p, args.labeling)))
    return 0


def _cmd_gf(args) -> int:
    p = _load(args)
    f = sorting_gf(p, workers=args.threads, force=args.force)
    g = f.cumulative()
    if args.json:
        print(json.dumps({"poset": args.poset, "f": list(f.coeffs), "g": list(g.coeffs)}))
    else:
        print("f: " + " ".join(str(c) for c in f.trimmed()))
        print("g: " + " ".join(str(c) for c in g.coeffs))
    return 0


def _cmd_tangled(args) -> int:
    p = _load(args)
    report = tangled_report(p, workers=args.threads, force=args.force)
    if args.json:
        print(json.dumps({"poset": args.poset, "total": report.total,
                          "by_element": list(report.by_element)}))
        return 0
    print(f"total: {report.total}")
    if args.by_element:
        for e, count in enumerate(report.by_element):
            tag = f" ({p.names[e]})" if p.names else ""
            print(f"{e}{tag}: {count}")
    return 0


def _cmd_lift(args) -> int:
    p = _load(args)
    labels = _labeling_for(p, args.labeling)
    indices = [int(v) for v in args.indices.split(",")]
    lifted_poset, lifted = lift_labeling(p, labels, indices)
    print(format_labeling(lifted))
    print(f"order: {order(lifted_poset, lifted)}")
    return 0


def _cmd_irf(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = inflation_spec_from_json(json.load(fh))
    if args.bound:
        value = irf_bound(spec)
        print(f"bound sum: {value.numerator}/{value.denominator}"
              if value.denominator != 1 else f"bound sum: {value.numerator}")
    if args.element is not None:
        print(irf_tangled_by_element(spec, args.element))
    elif not args.bound:
        raise ValueError("pass --element and/or --bound")
    return 0


def _cmd_wposet(args) -> int:
    count = w_poset_tangled(args.a, args.b, args.c, args.d)
    print(count)
    if args.enumerate:
        p = build_w_poset(WParams(args.a, args.b, args.c, args.d))
        report = tangled_report(p, workers=args.threads, force=args.force)
        print(f"enumerated: {report.total}")
        if report.total != count:
            print(f"mismatch: closed form {count}, enumeration {report.total}")
            return 3
    return 0


def _cmd_attach(args) -> int:
    coeffs = [int(v) for v in args.gf.split()]
    print(attach_antichain(GenFun(tuple(coeffs)), args.k, args.mode))
    return 0


def _cmd_pedestal(args) -> int:
    tails = pedestal_coeffs(args.n, args.l)
    print("b_tail: " + " ".join(str(v) for v in tails.b_tail))
    print("a_tail: " + " ".join(str(v) for v in tails.a_tail))
    quasi = tails.quasi_plus_tangled
    print(f"quasi_plus_tangled: {quasi if quasi is not None else 'none'}")
    return 0


def _cmd_ordsum(args) -> int:
    sizes = [int(v) for v in args.composition.split(",")]
    print(ordinal_sum_antichains_g(sizes))
    return 0


def _cmd_broom(args) -> int:
    print(broom_f(args.n, args.k))
    return 0


def _perm_text(perm) -> str:
    return "".join(str(v) for v in perm)


def _cmd_weak_order(args) -> int:
    sizes = [int(v) for v in args.composition.split(",")]
    family = weak_order_family(sizes)
    for perm in sorted(family.vectors):
        vec = " ".join(str(v) for v in family.vectors[perm])
        print(f"{_perm_text(perm)}: {vec}")
    print("hasse covers:")
    for low, high in family.hasse:
        print(f"  {_perm_text(low)} <= {_perm_text(high)}")
    print(f"weak-order covers embed: {'yes' if family.refinement_ok else 'NO'}")
    if family.extra_covers:
        print("extra dominance covers:")
        for low, high in family.extra_covers:
            print(f"  {_perm_text(low)} <= {_perm_text(high)}")
    else:
        print("extra dominance covers: none")
    if family.collisions:
        print("collisions:")
        for group in family.collisions:
            print("  " + " ".join(_perm_text(g) for g in group))
    return 0


def _cmd_gen_posets(args) -> int:
    catalog = generate_posets(args.n, connected=args.connected, force=args.force)
    if args.out:
        save_catalog(catalog, args.out)
    else:
        for p in catalog.entries:
            print(poset_to_json(p))
    print(f"{len(catalog)} posets with {args.n} elements"
          + (" (connected)" if args.connected else ""), file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    _check_budget(args.max_n, args.force, cap=VERIFY_DEFAULT_MAX_N, what="verify sweep")
    checks = ALL_CHECKS if args.conjecture == "all" else (args.conjecture,)
    found = 0
    for n, level in enumerate(poset_levels(args.max_n, force=args.force), start=1):
        if n < 2:
            continue
        entries = tuple(p for p in level if args.all_posets or p.is_connected())
        catalog = PosetCatalog(n=n, connected_only=not args.all_posets, entries=entries)
        report = scan_catalog(catalog, checks=checks, unimodal=args.unimodal,
                              workers=args.threads, force=args.force)
        line = f"n={n}: {report.scanned} posets, {len(report.failures)} counterexamples"
        if args.unimodal:
            line += f", {len(report.non_unimodal)} non-unimodal"
        print(line)
        for idx, item in report.failures:
            print(f"  counterexample: covers={list(catalog.entries[idx].covers)} "
                  f"counts={list(item.by_element)}")
        for idx, coeffs in report.non_unimodal:
            print(f"  non-unimodal: covers={list(catalog.entries[idx].covers)} "
                  f"f={list(coeffs)}")
        found += len(report.failures)
    return 3 if found else 0


def _cmd_export_dot(args) -> int:
    p = _load(args)
    labels = _labeling_for(p, args.labeling) if args.labeling else None
    text = export_dot(p, labels)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


# -- parser ------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="promotion-sorting",
                     description="Exact promotion-sorting statistics on finite posets.")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True

    cmd = sub.add_parser("promote", help="apply promotion steps to a labeling")
    _add_poset_arg(cmd)
    cmd.add_argument("--labeling", required=True, help="comma-separated labels by element")
    cmd.add_argument("--steps", type=int, default=1)
    cmd.set_defaults(func=_cmd_promote)

    cmd = sub.add_parser("order", help="sorting time of a labeling")
    _add_poset_arg(cmd)
    cmd.add_argument("--labeling", required=True)
    cmd.set_defaults(func=_cmd_order)

    cmd = sub.add_parser("gf", help="sorting and cumulative generating functions")
    _add_poset_arg(cmd)
    _add_threads_arg(cmd)
    cmd.add_argument("--force", action="store_true", help="override the size budget")
    cmd.add_argument("--json", action="store_true", help="machine-readable output")
    cmd.set_defaults(func=_cmd_gf)

    cmd = sub.add_parser("tangled", help="count tangled labelings")
    _add_poset_arg(cmd)
    cmd.add_argument("--by-element", action="store_true",
                     help="split by the element holding label n-1")
    _add_threads_arg(cmd)
    cmd.add_argument("--force", action="store_true")
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(func=_cmd_tangled)

    cmd = sub.add_parser("lift", help="extend a labeling over new bottom elements")
    _add_poset_arg(cmd)
    cmd.add_argument("--labeling", required=True)
    cmd.add_argument("--indices", required=True,
                     help="comma-separated labels for the new minimal elements")
    cmd.set_defaults(func=_cmd_lift)

    cmd = sub.add_parser("irf", help="closed-form tangled counts for inflated forests")
    cmd.add_argument("--spec", required=True, metavar="FILE",
                     help="JSON file with \"parents\" and \"fibers\"")
    cmd.add_argument("--element", type=int, default=None,
                     help="element that should hold label n-1")
    cmd.add_argument("--bound", action="store_true", help="print the leaf-sum bound")
    cmd.set_defaults(func=_cmd_irf)

    cmd = sub.add_parser("wposet", help="closed-form tangled count of W(a, b, c, d)")
    for arm in "abcd":
        cmd.add_argument(f"--{arm}", type=int, required=True)
    cmd.add_argument("--enumerate", action="store_true",
                     help="cross-check against brute-force enumeration")
    _add_threads_arg(cmd)
    cmd.add_argument("--force", action="store_true")
    cmd.set_defaults(func=_cmd_wposet)

    cmd = sub.add_parser("attach", help="hang a k-antichain under a generating function")
    cmd.add_argument("--gf", required=True, help="space-separated coefficients, length n")
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--mode", default="sorting", help="sorting or cumulative")
    cmd.set_defaults(func=_cmd_attach)

    cmd = sub.add_parser("pedestal", help="top coefficients after a chain pedestal")
    cmd.add_argument("--n", type=int, required=True, help="base poset size")
    cmd.add_argument("--l", type=int, required=True, help="pedestal chain length")
    cmd.set_defaults(func=_cmd_pedestal)

    cmd = sub.add_parser("ordsum", help="cumulative gf of stacked antichains")
    cmd.add_argument("--composition", required=True,
                     help="comma-separated antichain sizes, top block first")
    cmd.set_defaults(func=_cmd_ordsum)

    cmd = sub.add_parser("broom", help="sorting gf of an antichain under a chain")
    cmd.add_argument("--n", type=int, required=True, help="antichain size")
    cmd.add_argument("--k", type=int, required=True, help="chain length above, minus one")
    cmd.set_defaults(func=_cmd_broom)

    cmd = sub.add_parser("weak-order", help="dominance family of a composition")
    cmd.add_argument("--composition", required=True, help="comma-separated distinct sizes")
    cmd.set_defaults(func=_cmd_weak_order)

    cmd = sub.add_parser("gen-posets", help="catalog of isomorphism classes")
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--connected", action="store_true")
    cmd.add_argument("--out", metavar="FILE", help="write newline-delimited JSON here")
    cmd.add_argument("--force", action="store_true")
    cmd.set_defaults(func=_cmd_gen_posets)

    cmd = sub.add_parser("verify", help="sweep conjecture checks over catalogs")
    cmd.add_argument("--max-n", type=int, default=VERIFY_DEFAULT_MAX_N)
    cmd.add_argument("--conjecture", default="all",
                     choices=["n-2", "hodges", "n-1", "all"])
    cmd.add_argument("--unimodal", action="store_true",
                     help="also flag non-unimodal sorting gfs")
    cmd.add_argument("--all-posets", action="store_true",
                     help="include disconnected posets")
    _add_threads_arg(cmd)
    cmd.add_argument("--force", action="store_true")
    cmd.set_defaults(func=_cmd_verify)

    cmd = sub.add_parser("export-dot", help="Graphviz text of the Hasse diagram")
    _add_poset_arg(cmd)
    cmd.add_argument("--labeling", default=None)
    cmd.add_argument("--out", metavar="FILE")
    cmd.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
