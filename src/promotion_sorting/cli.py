"""Command-line front end: each command imports the modules it uses when it runs.

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
from contextlib import nullcontext
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from .posets import Poset

VERIFY_DEFAULT_MAX_N = 6


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        # argparse quotes the offending value whole; keep only both ends
        if len(message) > 160:
            message = f"{message[:80]}...{message[-80:]}"
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_poset_arg(cmd):
    cmd.add_argument("--poset", required=True, metavar="FILE",
                     help="poset JSON file ({\"n\": .., \"covers\": [[i, j], ..]})")


def _add_pool_args(cmd):
    def worker_count(text: str) -> int:
        count = int(text)
        if count < 1:
            raise argparse.ArgumentTypeError(f"worker count must be at least 1, got {count}")
        return count

    cmd.add_argument("--threads", type=worker_count, default=os.cpu_count() or 1, metavar="N",
                     help="worker processes (default: machine parallelism)")
    cmd.add_argument("--force", action="store_true", help="override the size budget")


def _load_labeled(args, extra: int = 0) -> tuple[Poset, Optional[tuple[int, ...]]]:
    """The ``--poset`` document and its ``--labeling``, parsed first so that a
    document of another size is refused before its poset is built, and so is
    one whose size plus ``extra`` exceeds ``CLOSED_FORM_MAX_N``.  An absent
    ``--labeling`` gives ``None`` labels."""
    from .enumeration import CLOSED_FORM_MAX_N, _check_budget
    from .posets import _short_repr, load_poset
    from .promotion import parse_labeling, validate_labeling
    labels = None if args.labeling is None else parse_labeling(args.labeling)

    def check_n(n: int) -> None:
        if labels is not None and n != len(labels):
            raise ValueError(f"labeling {_short_repr(labels)} is not a bijection onto 1..{n}")
        _check_budget(n + extra, None, CLOSED_FORM_MAX_N, f"{args.command} poset elements")

    p = load_poset(args.poset, check_n)
    return p, labels if labels is None else validate_labeling(p, labels)


# -- DOT export -----------------------------------------------------------------

def export_dot(p: Poset, labels: Optional[Sequence[int]] = None) -> str:
    """Graphviz text for the Hasse diagram, byte-stable for equal inputs.

    Elements of equal height share a rank; an optional labeling, already
    checked by ``validate_labeling``, captions each node as element:label.
    """
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
    from .enumeration import CLOSED_FORM_MAX_N, _check_budget
    from .promotion import format_labeling, promote
    p, labels = _load_labeled(args)
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    _check_budget(p.n * args.steps, None, CLOSED_FORM_MAX_N ** 2, "promote printed labels")
    for _ in range(args.steps):
        step = promote(p, labels)
        print(f"{format_labeling(step.labels)} chain={list(step.chain)}")
        labels = step.labels
    return 0


def _cmd_order(args) -> int:
    from .promotion import order
    print(order(*_load_labeled(args)))
    return 0


def _cmd_gf(args) -> int:
    from .enumeration import _check_budget, sorting_gf
    from .posets import load_poset
    p = load_poset(args.poset, lambda n: _check_budget(n, args.force))
    f = sorting_gf(p, workers=args.threads, force=args.force)
    g = f.cumulative()
    if args.json:
        print(json.dumps({"poset": args.poset, "f": list(f.coeffs), "g": list(g.coeffs)}))
    else:
        print("f: " + " ".join(str(c) for c in f.trimmed()))
        print("g: " + " ".join(str(c) for c in g.coeffs))
    return 0


def _cmd_tangled(args) -> int:
    from .enumeration import _check_budget, tangled_report
    from .posets import load_poset
    p = load_poset(args.poset, lambda n: _check_budget(n, args.force))
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
    from .promotion import format_labeling, lift_labeling, order
    indices = [int(v) for v in args.indices.split(",")]
    p, labels = _load_labeled(args, extra=len(indices))
    lifted_poset, lifted = lift_labeling(p, labels, indices)
    print(format_labeling(lifted))
    print(f"order: {order(lifted_poset, lifted)}")
    return 0


def _cmd_irf(args) -> int:
    from .enumeration import CLOSED_FORM_MAX_N, _check_budget
    from .families import inflation_spec_from_json
    from .formulas import irf_bound, irf_tangled_by_element
    from .posets import decode_json
    with open(args.spec, "r", encoding="utf-8") as fh:
        doc = decode_json(fh.read())
    spec = inflation_spec_from_json(doc, lambda n: _check_budget(
        n, None, CLOSED_FORM_MAX_N, "inflated forest elements"))
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
    from .enumeration import tangled_report
    from .families import WParams, build_w_poset
    from .formulas import w_poset_tangled
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
    from .enumeration import GenFun
    from .formulas import attach_antichain
    coeffs = [int(v) for v in args.gf.split()]
    print(attach_antichain(GenFun(tuple(coeffs)), args.k, args.mode))
    return 0


def _cmd_pedestal(args) -> int:
    from .formulas import pedestal_coeffs
    tails = pedestal_coeffs(args.n, args.l)
    print("b_tail: " + " ".join(str(v) for v in tails.b_tail))
    print("a_tail: " + " ".join(str(v) for v in tails.a_tail))
    quasi = tails.quasi_plus_tangled
    print(f"quasi_plus_tangled: {quasi if quasi is not None else 'none'}")
    return 0


def _cmd_ordsum(args) -> int:
    from .formulas import ordinal_sum_antichains_g
    sizes = [int(v) for v in args.composition.split(",")]
    print(ordinal_sum_antichains_g(sizes))
    return 0


def _cmd_broom(args) -> int:
    from .formulas import broom_f
    print(broom_f(args.n, args.k))
    return 0


def _perm_text(perm) -> str:
    return "".join(str(v) for v in perm)


def _cmd_weak_order(args) -> int:
    from .formulas import weak_order_family
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
    from .harness import _open_catalog, _write_catalog, poset_levels
    # the budgets are checked here, so a refused run opens no file, and the
    # output is opened before any level grows, so a bad --out fails at once
    levels = poset_levels(args.n, connected=args.connected, force=args.force,
                          workers=args.threads)
    with _open_catalog(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        *_, entries = levels
        _write_catalog(entries, out)
    print(f"{len(entries)} posets with {args.n} elements"
          + (" (connected)" if args.connected else ""), file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    from .enumeration import _check_budget
    from .harness import CANON_MAX_N, PosetCatalog, poset_levels, scan_catalog
    if args.max_n < 2:
        raise ValueError("--max-n must be at least 2: the sweep starts at n = 2")
    if args.max_n <= CANON_MAX_N:  # past it, poset_levels refuses with no override to offer
        _check_budget(args.max_n, args.force, VERIFY_DEFAULT_MAX_N, "verify sweep poset elements")
    found = 0
    levels = poset_levels(args.max_n, connected=not args.all_posets, force=args.force,
                          workers=args.threads)
    for n, level in enumerate(levels, start=1):
        if n < 2:
            continue
        if not (args.all_posets or n == args.max_n):
            level = tuple(p for p in level if p.is_connected())
        catalog = PosetCatalog(n=n, connected_only=not args.all_posets, entries=level)
        report = scan_catalog(catalog, unimodal=args.unimodal, workers=args.threads,
                              force=args.force)
        line = f"n={n}: {report.scanned} posets, {len(report.failures)} counterexamples"
        if args.unimodal:
            line += f", {len(report.non_unimodal)} non-unimodal"
        print(line)
        for idx, item in report.failures:
            print(f"  counterexample: covers={list(catalog.entries[idx].covers)} "
                  f"counts={list(item.by_element)} failed={','.join(item.failed)}")
        for idx, coeffs in report.non_unimodal:
            print(f"  non-unimodal: covers={list(catalog.entries[idx].covers)} "
                  f"f={list(coeffs)}")
        found += len(report.failures)
    return 3 if found else 0


def _cmd_export_dot(args) -> int:
    text = export_dot(*_load_labeled(args))
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
    _add_pool_args(cmd)
    cmd.add_argument("--json", action="store_true", help="machine-readable output")
    cmd.set_defaults(func=_cmd_gf)

    cmd = sub.add_parser("tangled", help="count tangled labelings")
    _add_poset_arg(cmd)
    cmd.add_argument("--by-element", action="store_true",
                     help="split by the element holding label n-1")
    _add_pool_args(cmd)
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
    _add_pool_args(cmd)
    cmd.set_defaults(func=_cmd_wposet)

    cmd = sub.add_parser("attach", help="hang a k-antichain under a generating function")
    cmd.add_argument("--gf", required=True,
                     help="space-separated coefficients, all n of them "
                          "(gf's text output drops trailing zeros; use f from gf --json)")
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
    _add_pool_args(cmd)
    cmd.set_defaults(func=_cmd_gen_posets)

    cmd = sub.add_parser("verify", help="sweep conjecture checks over catalogs")
    cmd.add_argument("--max-n", type=int, default=VERIFY_DEFAULT_MAX_N)
    cmd.add_argument("--unimodal", action="store_true",
                     help="also flag non-unimodal sorting gfs")
    cmd.add_argument("--all-posets", action="store_true",
                     help="include disconnected posets")
    _add_pool_args(cmd)
    cmd.set_defaults(func=_cmd_verify)

    cmd = sub.add_parser("export-dot", help="Graphviz text of the Hasse diagram")
    _add_poset_arg(cmd)
    # an empty --labeling draws without labels, as an absent one does
    cmd.add_argument("--labeling", type=lambda text: text or None)
    cmd.add_argument("--out", metavar="FILE")
    cmd.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .enumeration import BudgetError
    try:
        return int(args.func(args))
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
