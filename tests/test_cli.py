"""End-to-end command-line checks, run in process through main()."""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import promotion_sorting.cli as cli
from promotion_sorting import (Poset, chain, inflation_spec_from_json, poset_to_json,
                               save_poset)
from promotion_sorting.cli import export_dot, main
from promotion_sorting.posets import poset_from_doc

LAMBDA = Poset(3, [(0, 2), (1, 2)])
FUNNEL = Poset(9, [(6, 3), (6, 4), (7, 4), (8, 4), (8, 5), (4, 1), (3, 1),
                   (1, 0), (5, 2), (2, 0)], names=tuple("abcdefghi"))


@pytest.fixture
def lam_file(tmp_path):
    path = tmp_path / "lam.json"
    save_poset(LAMBDA, path)
    return str(path)


@pytest.fixture
def chain4_file(tmp_path):
    path = tmp_path / "c4.json"
    save_poset(chain(4), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_promote(capsys, lam_file):
    code, out, _ = run(capsys, "promote", "--poset", lam_file, "--labeling", "2,3,1")
    assert code == 0
    assert out.splitlines() == ["1,2,3 chain=[2]"]


def test_promote_multiple_steps(capsys, lam_file):
    code, out, _ = run(capsys, "promote", "--poset", lam_file,
                       "--labeling", "3,2,1", "--steps", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all("chain=" in line for line in lines)


def test_promote_needs_a_step(capsys, lam_file):
    code, out, err = run(capsys, "promote", "--poset", lam_file,
                         "--labeling", "2,3,1", "--steps", "0")
    assert (code, out) == (1, "")
    assert "--steps must be at least 1" in err


def test_order(capsys, lam_file):
    code, out, _ = run(capsys, "order", "--poset", lam_file, "--labeling", "3,1,2")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "order", "--poset", lam_file, "--labeling", "1,2,3")
    assert (code, out.strip()) == (0, "0")


def test_gf_text_and_json(capsys, lam_file):
    code, out, _ = run(capsys, "gf", "--poset", lam_file)
    assert code == 0
    assert out.splitlines() == ["f: 2 4", "g: 2 6 6"]
    code, out, _ = run(capsys, "gf", "--poset", lam_file, "--json")
    data = json.loads(out)
    assert (code, data["f"], data["g"]) == (0, [2, 4, 0], [2, 6, 6])


def test_tangled(capsys, chain4_file):
    code, out, _ = run(capsys, "tangled", "--poset", chain4_file, "--by-element")
    assert code == 0
    assert out.splitlines() == ["total: 6", "0: 0", "1: 2", "2: 2", "3: 2"]
    code, out, _ = run(capsys, "tangled", "--poset", chain4_file, "--json")
    data = json.loads(out)
    assert (code, data["total"], data["by_element"]) == (0, 6, [0, 2, 2, 2])


def test_lift(capsys, lam_file):
    code, out, _ = run(capsys, "lift", "--poset", lam_file,
                       "--labeling", "2,3,1", "--indices", "2,4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("order: ")
    assert int(lines[1].split()[-1]) == max(2 - 1, 4 - 2, 1)


def test_irf(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "parents": [None, 0, 0],
        "fibers": [{"n": 1, "covers": []},
                   {"n": 2, "covers": [[0, 1]]},
                   {"n": 2, "covers": [[0, 1]]}],
    }))
    code, out, _ = run(capsys, "irf", "--spec", str(spec_path), "--element", "2")
    assert (code, out.strip()) == (0, "6")
    code, out, _ = run(capsys, "irf", "--spec", str(spec_path), "--bound")
    assert (code, out.strip()) == (0, "bound sum: 2/3")
    code, out, err = run(capsys, "irf", "--spec", str(spec_path))
    assert code == 1
    assert "--element" in err
    # the forest is validated before its roots are counted
    spec_path.write_text(json.dumps({"parents": [0], "fibers": [{"n": 1, "covers": []}]}))
    code, _, err = run(capsys, "irf", "--spec", str(spec_path), "--bound")
    assert code == 1
    assert "cycle" in err
    # fibers are checked like any other poset document
    spec_path.write_text(json.dumps({"parents": [None], "fibers": [{"n": True, "covers": []}]}))
    code, _, err = run(capsys, "irf", "--spec", str(spec_path), "--element", "0")
    assert code == 1
    assert '"n" must be an integer' in err


def test_wposet(capsys):
    code, out, _ = run(capsys, "wposet", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
                       "--enumerate")
    assert code == 0
    assert out.splitlines() == ["570", "enumerated: 570"]


def test_wposet_mismatch_exits_three(capsys, monkeypatch):
    import promotion_sorting.formulas as formulas

    monkeypatch.setattr(formulas, "w_poset_tangled", lambda a, b, c, d: 571)
    code, out, _ = run(capsys, "wposet", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
                       "--enumerate", "--threads", "1")
    assert code == 3
    assert out.splitlines() == ["571", "enumerated: 570",
                                "mismatch: closed form 571, enumeration 570"]


def test_attach(capsys):
    code, out, _ = run(capsys, "attach", "--gf", "2 4 0", "--k", "2")
    assert (code, out.strip()) == (0, "4 32 36 48 0")
    code, out, _ = run(capsys, "attach", "--gf", "2 6 6", "--k", "1",
                       "--mode", "cumulative")
    assert (code, out.strip()) == (0, "2 12 18 24")
    code, _, err = run(capsys, "attach", "--gf", "2 4 0", "--k", "1", "--mode", "wat")
    assert code == 1 and "mode" in err


def test_pedestal(capsys):
    code, out, _ = run(capsys, "pedestal", "--n", "3", "--l", "2")
    assert code == 0
    assert out.splitlines() == [
        "b_tail: 120 96 54",
        "a_tail: 24 42",
        "quasi_plus_tangled: 66",
    ]
    code, out, _ = run(capsys, "pedestal", "--n", "3", "--l", "1")
    assert code == 0
    assert out.splitlines()[-1] == "quasi_plus_tangled: none"


def test_ordsum(capsys):
    code, out, _ = run(capsys, "ordsum", "--composition", "1,2,3")
    assert (code, out.strip()) == (0, "12 144 360 720 720 720")


def test_broom(capsys):
    code, out, _ = run(capsys, "broom", "--n", "3", "--k", "0")
    assert (code, out.strip()) == (0, "6 18 0 0")


def test_weak_order(capsys):
    code, out, _ = run(capsys, "weak-order", "--composition", "1,2,3")
    assert code == 0
    lines = out.splitlines()
    assert "123: 12 144 360 720 720 720" in lines
    assert "321: 12 72 216 480 600 720" in lines
    assert "weak-order covers embed: yes" in lines
    start = lines.index("extra dominance covers:")
    assert lines[start + 1].strip() == "312 <= 213"
    assert "collisions:" not in lines
    code, out, err = run(capsys, "weak-order", "--composition", "1,2,3,4,5,6,7")
    assert (code, out) == (2, "")
    assert "composition entries of 7 exceeds the budget of 6" in err


def test_weak_order_without_extra_covers(capsys):
    code, out, _ = run(capsys, "weak-order", "--composition", "1,2")
    assert code == 0
    assert "extra dominance covers: none" in out.splitlines()


def test_weak_order_prints_collisions(capsys, monkeypatch):
    # the block is read off a family given one collision group
    import dataclasses

    from promotion_sorting import formulas

    family = dataclasses.replace(formulas.weak_order_family([1, 2]),
                                 collisions=(((1, 2), (2, 1)),))
    monkeypatch.setattr(formulas, "weak_order_family", lambda sizes: family)
    code, out, _ = run(capsys, "weak-order", "--composition", "1,2")
    assert code == 0
    assert out.splitlines()[-3:] == ["extra dominance covers: none", "collisions:", "  12 21"]


def test_gen_posets_stdout_and_file(capsys, tmp_path):
    code, out, err = run(capsys, "gen-posets", "--n", "3")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 5
    assert all(doc["n"] == 3 for doc in docs)
    assert "5 posets with 3 elements" in err

    out_path = tmp_path / "cat.ndjson"
    code, out, err = run(capsys, "gen-posets", "--n", "4", "--connected",
                         "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert "(connected)" in err
    assert len(out_path.read_text().splitlines()) == 10


@pytest.mark.parametrize("name", ["c8.jsonl", "c8.jsonl.gz"])
def test_gen_posets_opens_its_output_before_growing(capsys, tmp_path, name):
    # a bad --out fails before any level grows (growing to 9 would take
    # seconds), and a budget refusal, checked before the output is opened,
    # creates no file
    import time

    path = tmp_path / "missing" / name
    start = time.perf_counter()
    assert run(capsys, "gen-posets", "--n", "9", "--connected", "--force",
               "--out", str(path)) == (
        1, "", f"error: [Errno 2] No such file or directory: '{path}'\n")
    assert time.perf_counter() - start < 1
    refused = tmp_path / name
    for argv in (["--n", "9"], ["--n", "11", "--force"]):
        assert run(capsys, "gen-posets", *argv, "--out", str(refused))[0] == 2
        assert not refused.exists()


def test_verify_clean_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--unimodal")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=2: 1 posets, 0 counterexamples, 0 non-unimodal"
    assert lines[-1] == "n=4: 10 posets, 0 counterexamples, 0 non-unimodal"


@pytest.mark.parametrize("argv, digest", [
    pytest.param(("--max-n", "7", "--force"),
                 "198223e81ddba94d39c1a3e0623729e4d87b6f85929a1bec0bc1edbde90c8a1f", id="7"),
    pytest.param(("--max-n", "6", "--all-posets", "--unimodal"),
                 "01e67180677600a89dad5c19c3fb87fe466cf96b978018fe3534715c768bdd3e",
                 id="6-all-unimodal"),
    # both routes: f's top coefficient against the tangled total on every
    # connected poset with n <= 7
    pytest.param(("--max-n", "7", "--unimodal", "--force"),
                 "0f6bad2522bcbbd051ea53946f9ddf3ff96c11e03469d021962b52e9df21261e",
                 id="7-unimodal", marks=pytest.mark.slow)])
def test_verify_stdout_is_pinned(capsys, argv, digest):
    # the whole report: it prints the covers of each flagged poset, so the
    # child each class is accepted as, and the catalog order, show in it
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_tests_connectedness_below_the_last_level_only(capsys, monkeypatch):
    # connected growth makes every poset of the last level connected, so
    # only the lower levels, grown whole, are filtered
    from collections import Counter

    sizes = Counter()
    is_connected = Poset.is_connected
    monkeypatch.setattr(Poset, "is_connected", lambda p: sizes.update([p.n]) or is_connected(p))
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--threads", "1")
    assert (code, out.splitlines()[-1]) == (0, "n=5: 44 posets, 0 counterexamples")
    assert sizes == {2: 2, 3: 5, 4: 16}


def test_tangled_search_past_256_elements_exits_two(capsys, tmp_path):
    # a search block over 260 elements is refused with no override; the
    # 300-element antichain has none and is still counted, and so is a
    # 260-element poset whose blocks the funnel rules all prove empty:
    # 258! on its one funnel element
    from math import factorial

    from promotion_sorting import antichain
    from test_enumeration import NO_SEARCH_260, OVER_256

    over, wide, none = (tmp_path / f"{name}.json" for name in ("over", "wide", "none"))
    save_poset(OVER_256, over)
    save_poset(antichain(300), wide)
    save_poset(NO_SEARCH_260, none)
    assert run(capsys, "tangled", "--poset", str(over), "--force") == (
        2, "", "budget: tangled search poset elements of 260 exceeds the budget of 256\n")
    assert run(capsys, "tangled", "--poset", str(wide), "--force") == (0, "total: 0\n", "")
    code, out, err = run(capsys, "tangled", "--poset", str(none), "--force", "--by-element")
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"total: {factorial(258)}",
                                *[f"{e}: {factorial(258) if e == 2 else 0}" for e in range(260)]]


def test_thread_count_never_changes_output(capsys, tmp_path):
    from promotion_sorting import WParams, build_w_poset

    path = tmp_path / "w.json"
    save_poset(build_w_poset(WParams(1, 1, 1, 1)), path)
    for argv in (["verify", "--max-n", "5", "--all-posets", "--unimodal"],
                 ["gf", "--poset", str(path), "--json"],
                 ["tangled", "--poset", str(path), "--json"],
                 ["gen-posets", "--n", "6"]):
        serial = run(capsys, *argv, "--threads", "1")
        assert serial[0] == 0 and serial[1]
        assert run(capsys, *argv, "--threads", "2") == serial
    catalogs = []
    for threads in ("1", "2"):
        out = tmp_path / f"cat{threads}.ndjson"
        assert run(capsys, "gen-posets", "--n", "6", "--connected", "--out", str(out),
                   "--threads", threads) == (0, "", "238 posets with 6 elements (connected)\n")
        catalogs.append(out.read_text())
    assert catalogs[0] == catalogs[1] and catalogs[0].count("\n") == 238


def test_pooled_run_exits_cleanly():
    # the process's one pool is terminated at exit, so the interpreter's
    # teardown prints nothing after the count line, not even the
    # ResourceWarning of a pool still running when it is collected
    import os
    import subprocess
    import sys
    from pathlib import Path

    paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    argv = ["gen-posets", "--n", "5", "--threads", "2"]
    result = subprocess.run([sys.executable, "-W", "always::ResourceWarning", "-m",
                             "promotion_sorting", *argv], env=env, capture_output=True,
                            text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "63 posets with 5 elements\n")
    assert result.stdout.count("\n") == 63


def test_verify_budget_gate(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "7")
    assert code == 2
    assert "budget" in err
    code, _, _ = run(capsys, "verify", "--max-n", "3")
    assert code == 0


@pytest.mark.parametrize("max_n", ["1", "0", "-5"])
def test_verify_refuses_a_sweep_below_two(capsys, monkeypatch, max_n):
    # the sweep starts at n = 2, so a smaller --max-n would check nothing;
    # it is refused with a verify message before the budget check and
    # before any level grows
    import promotion_sorting.enumeration as enumeration
    import promotion_sorting.harness as harness

    def unreachable(*args, **kwargs):
        pytest.fail("the refusal must come first")

    monkeypatch.setattr(enumeration, "_check_budget", unreachable)
    monkeypatch.setattr(harness, "poset_levels", unreachable)
    assert run(capsys, "verify", "--max-n", max_n) == (
        1, "", "error: --max-n must be at least 2: the sweep starts at n = 2\n")


@pytest.mark.parametrize("argv", [["gen-posets", "--n", "11", "--force"],
                                  ["verify", "--max-n", "11", "--force"],
                                  ["gen-posets", "--n", "11"],
                                  ["verify", "--max-n", "11"]])
def test_canonical_form_cap_has_no_override(capsys, argv):
    # --force lifts the catalog caps to 10, where canonical forms stop, so
    # past 10 no refusal offers --force
    import time

    start = time.perf_counter()
    assert run(capsys, *argv) == (
        2, "", "budget: canonicalized poset elements of 11 exceeds the budget of 10\n")
    assert time.perf_counter() - start < 1


def test_verify_counterexample_exit(capsys, monkeypatch):
    from types import SimpleNamespace

    import promotion_sorting.harness as harness

    def fake_scan(catalog, unimodal, workers, force):
        bad = SimpleNamespace(by_element=(9, 9), failed=("n-2", "n-1"))
        return SimpleNamespace(scanned=len(catalog), failures=((0, bad),),
                               non_unimodal=())

    monkeypatch.setattr(harness, "scan_catalog", fake_scan)
    code, out, _ = run(capsys, "verify", "--max-n", "2")
    assert code == 3
    assert "  counterexample: covers=[(0, 1)] counts=[9, 9] failed=n-2,n-1\n" in out


@pytest.mark.parametrize("delta, failed", [(7, "n-2,hodges,n-1"), (-1, "n-2")],
                         ids=["over", "under"])
def test_verify_names_the_broken_bounds(capsys, monkeypatch, delta, failed):
    # skew the 4-chain's top count: past (n-1)! every bound breaks, one short
    # of (n-2)! on a funnel element only the equality rule of n-2 does
    import promotion_sorting.harness as harness
    from promotion_sorting import TangleReport
    from promotion_sorting.harness import canonicalize

    count = harness._tangled_counts
    target = canonicalize(chain(4))

    def skewed(p, *args):
        report, in_funnel = count(p, *args)
        by_element = list(report.by_element)
        if canonicalize(p) == target:
            by_element[-1] += delta
        return TangleReport(tuple(by_element)), in_funnel

    monkeypatch.setattr(harness, "_tangled_counts", skewed)
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--threads", "1")
    assert code == 3
    lines = [line for line in out.splitlines() if "counterexample:" in line]
    assert len(lines) == 1
    assert lines[0].startswith("  counterexample: covers=")
    assert lines[0].endswith(f" failed={failed}")
    assert "n=4: 10 posets, 1 counterexamples" in out


def test_export_dot(capsys, tmp_path):
    path = tmp_path / "funnel.json"
    save_poset(FUNNEL, path)
    code, out, _ = run(capsys, "export-dot", "--poset", str(path))
    assert code == 0
    assert out.startswith("digraph poset {\n  rankdir=BT;\n")
    assert out.count(" -> ") == 10
    assert out.count("[label=") == 9
    assert "{ rank=same;" in out

    lam_path = tmp_path / "lam.json"
    save_poset(LAMBDA, lam_path)
    code, out, _ = run(capsys, "export-dot", "--poset", str(lam_path),
                       "--labeling", "2,3,1")
    assert code == 0
    assert '[label="0:2"]' in out
    # an empty labeling draws without labels, as an absent one does
    unlabeled = run(capsys, "export-dot", "--poset", str(lam_path))
    assert run(capsys, "export-dot", "--poset", str(lam_path), "--labeling", "") == unlabeled
    code, _, err = run(capsys, "order", "--poset", str(lam_path), "--labeling", "")
    assert code == 1 and "not comma-separated integers" in err
    out_file = tmp_path / "dot.gv"
    code, _, _ = run(capsys, "export-dot", "--poset", str(lam_path),
                     "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("digraph poset {")


def test_export_dot_function_stability():
    assert export_dot(LAMBDA) == export_dot(Poset(3, [(0, 2), (1, 2)]))


def test_export_dot_escapes_names():
    text = export_dot(Poset(2, [(0, 1)], names=['a"b', "c\\"]))
    assert 'n0 [label="a\\"b"];' in text
    assert 'n1 [label="c\\\\"];' in text


def test_user_errors(capsys, lam_file, tmp_path):
    code, _, err = run(capsys, "order", "--poset", lam_file, "--labeling", "1,2")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "order", "--poset", lam_file, "--labeling", "1,2,2")
    assert code == 1
    code, _, err = run(capsys, "order", "--poset", str(tmp_path / "nope.json"),
                       "--labeling", "1,2,3")
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "order", "--poset", str(bad), "--labeling", "1,2,3")
    assert code == 1
    code, _, err = run(capsys, "wposet", "--a", "0", "--b", "1", "--c", "1", "--d", "1")
    assert code == 1
    for threads in ("0", "-3"):
        for argv in (("verify", "--max-n", "3"), ("gf", "--poset", lam_file)):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--threads", threads])
            assert exc.value.code == 1 and "worker count" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("gen-posets", "--n", "1", "--threads", "0"),
    ("verify", "--max-n", "1", "--threads", "0"),
    ("wposet", "--a", "1", "--b", "1", "--c", "1", "--d", "1", "--threads", "-3"),
], ids=lambda argv: argv[0])
def test_threads_below_one_is_a_usage_error(capsys, argv):
    # refused when parsed, even where no pool would start
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --threads: worker count must be at least 1" in captured.err


def test_budget_exit(capsys, tmp_path):
    from promotion_sorting import antichain

    big = tmp_path / "big.json"
    big.write_text(poset_to_json(antichain(10)))
    code, _, err = run(capsys, "gf", "--poset", str(big))
    assert code == 2 and "budget" in err


HUGE = {"n": 400_000, "covers": []}
LONG_CHAIN = {"n": 20_000, "covers": [[i, i + 1] for i in range(19_999)]}
LONG_NATURAL = ",".join(str(v) for v in range(1, 20_001))
WIDE = {"n": 300, "covers": []}
WIDE_NATURAL = ",".join(str(v) for v in range(1, 301))
MANY_INDICES = ",".join(str(v) for v in range(1, 1_501))
# every command that reads a --poset or --spec document, with a document too
# large for it; building a 20,000-element chain alone would take over 10 MiB
OVERSIZED = [
    (["gf", "--poset"], HUGE, 2, "budget"),
    (["tangled", "--poset"], HUGE, 2, "budget"),
    (["order", "--labeling", "1", "--poset"], HUGE, 1,
     "error: labeling (1,) is not a bijection"),
    (["promote", "--labeling", "1", "--poset"], HUGE, 1, "error: labeling (1,)"),
    (["lift", "--labeling", "1", "--indices", "1", "--poset"], HUGE, 1, "error: labeling (1,)"),
    (["export-dot", "--labeling", "1", "--poset"], HUGE, 1, "error: labeling (1,)"),
    (["export-dot", "--poset"], HUGE, 2,
     "budget: export-dot poset elements of 400000 exceeds the budget of 400\n"),
    (["order", "--labeling", LONG_NATURAL, "--poset"], LONG_CHAIN, 2,
     "budget: order poset elements of 20000 exceeds the budget of 400\n"),
    (["promote", "--labeling", LONG_NATURAL, "--poset"], LONG_CHAIN, 2,
     "budget: promote poset elements of 20000 exceeds the budget of 400\n"),
    (["lift", "--labeling", LONG_NATURAL, "--indices", "1", "--poset"], LONG_CHAIN, 2,
     "budget: lift poset elements of 20001 exceeds the budget of 400\n"),
    (["lift", "--labeling", WIDE_NATURAL, "--indices", MANY_INDICES, "--poset"], WIDE, 2,
     "budget: lift poset elements of 1800 exceeds the budget of 400\n"),
    (["export-dot", "--labeling", LONG_NATURAL, "--poset"], LONG_CHAIN, 2,
     "budget: export-dot poset elements of 20000 exceeds the budget of 400\n"),
    (["irf", "--bound", "--spec"], {"parents": [None], "fibers": [HUGE]}, 2,
     "budget: inflated forest elements of 400000 exceeds the budget of 400\n"),
    (["irf", "--element", "0", "--spec"],
     {"parents": [None, 0], "fibers": [{"n": 1, "covers": []}, HUGE]}, 2,
     "budget: inflated forest elements of 400001 exceeds the budget of 400\n"),
]


def test_budget_refused_before_the_poset_is_built(capsys, tmp_path):
    # a small document naming a large n must not cost n-sized memory: the
    # counting commands check their budget, the labeling commands the
    # labeling's length and the 400-element cap, export-dot that cap and irf
    # the closed-form cap on its fibers' total, before any poset is built
    import tracemalloc

    path = tmp_path / "big.json"
    for argv, doc, expected, message in OVERSIZED:
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            code = main([*argv, str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == expected and message in capsys.readouterr().err, argv[0]
        assert peak < 10 * 2**20, argv[0]


def test_promote_steps_are_budgeted(capsys, tmp_path):
    # elements times steps is the count of printed labels, capped at 400 ** 2
    from promotion_sorting import antichain

    path = tmp_path / "p.json"
    save_poset(antichain(2), path)
    code, out, err = run(capsys, "promote", "--poset", str(path), "--labeling", "1,2",
                         "--steps", "1000000")
    assert (code, out) == (2, "")
    assert "promote printed labels of 2000000 exceeds the budget of 160000\n" in err
    save_poset(chain(400), path)
    reverse = ",".join(str(400 - i) for i in range(400))
    code, out, _ = run(capsys, "promote", "--poset", str(path), "--labeling", reverse,
                       "--steps", "400")
    assert code == 0 and len(out.splitlines()) == 400
    code, out, err = run(capsys, "promote", "--poset", str(path), "--labeling", reverse,
                         "--steps", "401")
    assert (code, out) == (2, "")
    assert "160400 exceeds the budget of 160000\n" in err


def test_long_parent_path_with_few_fibers_exits_one(capsys, tmp_path):
    # refused by its fiber count before any forest walk
    import time

    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"parents": [None, *range(23_999)],
                                "fibers": [{"n": 1, "covers": []}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "irf", "--bound", "--spec", str(path))
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "") and "one fiber per forest node" in err


def test_every_document_command_is_size_gated():
    # a new command that reads a --poset or --spec document must join
    # OVERSIZED, so that it cannot skip the size gate
    import argparse

    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    reads_document = {name for name, cmd in commands.items()
                      if {"--poset", "--spec"} & set(cmd._option_string_actions)}
    assert reads_document == {argv[0] for argv, *_ in OVERSIZED}


def test_export_dot_admits_the_cap(capsys, tmp_path):
    from promotion_sorting import antichain

    path = tmp_path / "wide.json"
    save_poset(antichain(400), path)
    code, out, _ = run(capsys, "export-dot", "--poset", str(path))
    assert code == 0 and out.count("[label=") == 400


def test_labeling_commands_admit_the_cap(capsys, tmp_path):
    from promotion_sorting import antichain

    path = tmp_path / "c400.json"
    save_poset(chain(400), path)
    reverse = ",".join(str(400 - i) for i in range(400))
    assert run(capsys, "order", "--poset", str(path), "--labeling", reverse) == (0, "399\n", "")
    code, out, _ = run(capsys, "promote", "--poset", str(path), "--labeling", reverse)
    assert code == 0 and out.startswith("399,398,")
    # lift caps the lifted size: 398 + 2 elements run, 399 + 2 do not
    for n, expected in ((398, 0), (399, 2)):
        save_poset(antichain(n), path)
        code, _, err = run(capsys, "lift", "--poset", str(path), "--indices", "1,2",
                           "--labeling", ",".join(str(v) for v in range(1, n + 1)))
        assert code == expected
        assert ("401 exceeds the budget of 400" in err) == (expected == 2)


MEGABYTE = "x" * 10**6


@pytest.mark.parametrize("doc, argv", [
    ('{"n": ' + "[" * 900 + "]" * 900 + ', "covers": []}', ["gf"]),
    ({"n": 3, "covers": [], "names": MEGABYTE}, ["gf"]),
    ({"n": 3, "covers": [[MEGABYTE, 1]]}, ["gf"]),
    ({"n": 3, "covers": []}, ["order", "--labeling", MEGABYTE]),
    ({"n": 3, "covers": []}, ["order", "--labeling", ",".join(["1"] * 200_000)]),
    ({"parents": [MEGABYTE], "fibers": [{"n": 1, "covers": []}]}, ["irf", "--bound"]),
], ids=["nested-n", "names", "cover", "labeling-text", "labeling-length", "irf-parent"])
def test_error_messages_stay_short(capsys, tmp_path, doc, argv):
    # the offending value is echoed in abbreviated form, not in full
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    flag = "--spec" if argv[0] == "irf" else "--poset"
    code, out, err = run(capsys, *argv, flag, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and len(err) < 500


@pytest.mark.parametrize("argv", [
    ("verify", "--max-n", "x" * 100_000),
    ("gf", "--poset", "unread.json", "--threads", "9" * 5_000),
], ids=["max-n", "threads"])
def test_usage_error_messages_stay_short(capsys, argv):
    # argparse quotes the offending value; the usage error abbreviates it
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error:" in err and len(err) < 500


@pytest.mark.parametrize("argv", [
    ("gf", "--poset"),
    ("order", "--labeling", "1", "--poset"),
    ("irf", "--element", "0", "--spec"),
], ids=lambda argv: argv[0])
def test_deeply_nested_json_exits_one(capsys, tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code, out, err = run(capsys, *argv, str(deep))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


def two_chains(top: int, bottom: int) -> dict:
    """An inflated forest of two chains, the second below the first."""
    return {"parents": [None, 0],
            "fibers": [{"n": k, "covers": [[i, i + 1] for i in range(k - 1)]}
                       for k in (top, bottom)]}


@pytest.mark.parametrize("argv, size", [
    (("broom", "--n", "3", "--k", "100000000"), 100_000_004),
    (("pedestal", "--n", "3", "--l", "100000000"), 100_000_003),
    (("ordsum", "--composition", "200,201"), 401),
    (("attach", "--gf", "2 4 0", "--k", "398"), 401),
    (("wposet", "--a", "100", "--b", "100", "--c", "100", "--d", "98"), 401),
    (("irf", "--bound", "--spec", two_chains(200, 201)), 401),
], ids=["broom", "pedestal", "ordsum", "attach", "wposet", "irf"])
def test_closed_form_budget_exit(capsys, tmp_path, argv, size):
    # each realizes a poset of more than CLOSED_FORM_MAX_N = 400 elements, and
    # the refusal has no override; a document argument is passed as a file
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(argv[-1]))
    code, out, err = run(capsys, *(str(path) if isinstance(a, dict) else a for a in argv))
    assert (code, out) == (2, "")
    assert err.endswith(f" elements of {size} exceeds the budget of 400\n")


def test_closed_form_budget_admits_the_cap(capsys, tmp_path):
    code, out, _ = run(capsys, "broom", "--n", "3", "--k", "396")
    assert code == 0 and len(out.split()) == 400
    code, _, _ = run(capsys, "broom", "--n", "3", "--k", "397")
    assert code == 2
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(two_chains(200, 200)))
    code, out, _ = run(capsys, "irf", "--spec", str(path), "--bound", "--element", "0")
    assert code == 0 and out.startswith("bound sum: 1\n")


@pytest.mark.parametrize("value", ["", "1,,2", "x"])
@pytest.mark.parametrize("argv, flag", [
    (("lift", "--poset", "p.json", "--labeling", "1"), "--indices"),
    (("attach", "--k", "1"), "--gf"),
    (("ordsum",), "--composition"),
    (("weak-order",), "--composition"),
], ids=lambda arg: arg[0] if isinstance(arg, tuple) else None)
def test_bad_integer_list_names_its_flag(capsys, argv, flag, value):
    if (flag, value) == ("--gf", ""):
        # --gf splits on whitespace, so '' is an empty vector, which attach refuses
        assert run(capsys, *argv, flag, value) == (
            1, "", "error: the input vector must be nonempty\n")
        return
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: invalid integers value: " in captured.err


def test_usage_error_exits_one(capsys, lam_file):
    with pytest.raises(SystemExit) as exc:
        main(["promote", "--poset", lam_file])
    assert exc.value.code == 1
    assert "--labeling" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    assert "invalid choice" in capsys.readouterr().err
    # verify always checks every bound: there is no selector to pass
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-n", "3", "--conjecture", "hodges"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --conjecture hodges" in capsys.readouterr().err


# -- fuzz: any JSON document ends in an exit code, never a traceback ---------------

DOC_KEYS = st.sampled_from(["n", "covers", "names", "parents", "fibers"]) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.integers(-50, 50)
    | st.floats(-50, 50) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(DOC_KEYS, inner, max_size=5),
    max_leaves=30)


@st.composite
def mostly(draw, good):
    """A draw from ``good`` most of the time, any JSON value otherwise."""
    return draw(good) if draw(st.integers(0, 3)) < 3 else draw(JSON_VALUES)


# documents of the right shape, with fields sometimes replaced by any value
PAIRS = st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True).map(sorted)
POSET_DOCS = st.fixed_dictionaries(
    {"n": mostly(st.integers(1, 5)),
     "covers": mostly(st.lists(PAIRS, max_size=6))},
    optional={"names": mostly(st.lists(st.text(max_size=2), max_size=5))})
INFLATION_DOCS = st.integers(1, 3).flatmap(lambda r: st.fixed_dictionaries(
    {"parents": mostly(st.tuples(st.none(), *(st.none() | st.integers(0, q - 1)
                                              for q in range(1, r))).map(list)),
     "fibers": mostly(st.lists(st.just({"n": 1, "covers": []}) | POSET_DOCS,
                               min_size=r, max_size=r))}))
DOCUMENTS = mostly(POSET_DOCS | INFLATION_DOCS)


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(DOCUMENTS)
def test_documents_fuzz(capsys, tmp_path, doc):
    # integers stay within +-50, so no draw builds a large poset; order and
    # irf never start a worker pool
    for parse in (poset_from_doc, inflation_spec_from_json):
        try:
            parse(doc)
        except (ValueError, IndexError, OSError):
            pass
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    n = doc.get("n") if isinstance(doc, dict) else None
    size = n if type(n) is int and 1 <= n <= 50 else 1
    labeling = ",".join(str(v) for v in range(1, size + 1))
    assert main(["order", "--poset", str(path), "--labeling", labeling]) in (0, 1, 2, 3)
    for query in (["--element", "0"], ["--bound"]):
        assert main(["irf", "--spec", str(path), *query]) in (0, 1, 2, 3)
    capsys.readouterr()
