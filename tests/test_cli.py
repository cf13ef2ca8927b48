"""End-to-end command-line checks, run in process through main()."""

import json

import pytest

import promotion_sorting.cli as cli
from promotion_sorting import Poset, chain, poset_to_json, save_poset
from promotion_sorting.cli import export_dot, main

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
    monkeypatch.setattr(cli, "w_poset_tangled", lambda a, b, c, d: 571)
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


def test_verify_clean_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--unimodal")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=2: 1 posets, 0 counterexamples, 0 non-unimodal"
    assert lines[-1] == "n=4: 10 posets, 0 counterexamples, 0 non-unimodal"


def test_verify_budget_gate(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "7")
    assert code == 2
    assert "budget" in err
    code, _, _ = run(capsys, "verify", "--max-n", "3", "--conjecture", "hodges")
    assert code == 0


def test_verify_counterexample_exit(capsys, monkeypatch):
    from types import SimpleNamespace

    def fake_scan(catalog, checks, unimodal, workers, force):
        bad = SimpleNamespace(by_element=(9, 9))
        return SimpleNamespace(scanned=len(catalog), failures=((0, bad),),
                               non_unimodal=())

    monkeypatch.setattr(cli, "scan_catalog", fake_scan)
    code, out, _ = run(capsys, "verify", "--max-n", "2")
    assert code == 3
    assert "counterexample: covers=" in out


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
        code, _, err = run(capsys, "verify", "--max-n", "3", "--threads", threads)
        assert code == 1 and "worker count" in err
        code, _, err = run(capsys, "gf", "--poset", lam_file, "--threads", threads)
        assert code == 1 and "worker count" in err


def test_budget_exit(capsys, tmp_path):
    from promotion_sorting import antichain

    big = tmp_path / "big.json"
    big.write_text(poset_to_json(antichain(10)))
    code, _, err = run(capsys, "gf", "--poset", str(big))
    assert code == 2 and "budget" in err


def test_usage_error_exits_one(capsys, lam_file):
    with pytest.raises(SystemExit) as exc:
        main(["promote", "--poset", lam_file])
    assert exc.value.code == 1
    assert "--labeling" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    assert "invalid choice" in capsys.readouterr().err
