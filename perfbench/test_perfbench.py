"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import oracles
import run

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def gf_output(f) -> str:
    g = [sum(f[:i + 1]) for i in range(len(f))]
    return f"f: {' '.join(map(str, f))}\ng: {' '.join(map(str, g))}\n"


def printing_job(name: str, text: str, check) -> run.Job:
    """A job whose program just prints ``text``, checked by ``check``."""
    return run.Job(name, [sys.executable, "-c", f"print({text!r}, end='')"], check)


def test_corrupted_result_counts_as_failure(tmp_path):
    corrupted = list(oracles.GF_W2211)
    corrupted[3] += 1
    assert oracles.check_gf(gf_output(oracles.GF_W2211))
    assert not oracles.check_gf(gf_output(corrupted))
    tally = run.Tally()
    deadline = run.time.monotonic() + 60
    good, _ = tally.run(printing_job("good", gf_output(oracles.GF_W2211), oracles.check_gf),
                        tmp_path, deadline)
    bad, _ = tally.run(printing_job("bad", gf_output(corrupted), oracles.check_gf),
                       tmp_path, deadline)
    assert (good, bad) == (True, False)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_tangled_counts_are_mapped_back_before_the_check():
    n, covers, names = oracles.w_poset(2, 2, 2, 1)
    perm, _, _ = oracles.relabel(n, covers, names, seed=5)
    counts = [0] * n
    for e, count in enumerate(oracles.BY_ELEMENT_W2221):
        counts[perm[e]] = count
    text = f"total: {oracles.TANGLED_W2221}\n" + "".join(
        f"{i}: {c}\n" for i, c in enumerate(counts))
    assert oracles.check_tangled(text, perm)
    identity = list(range(n))
    assert perm != identity and not oracles.check_tangled(text, identity)


def test_pinned_constants_agree_with_independent_routes():
    from promotion_sorting import build_w_poset, generate_posets, w_poset_tangled, WParams

    for arms in ((2, 2, 1, 1), (2, 2, 2, 1)):
        n, covers, _ = oracles.w_poset(*arms)
        assert build_w_poset(WParams(*arms)).covers == tuple(covers)
    assert w_poset_tangled(2, 2, 1, 1) == oracles.TANGLED_W2211 == oracles.GF_W2211[-1]
    assert w_poset_tangled(2, 2, 2, 1) == oracles.TANGLED_W2221 == sum(oracles.BY_ELEMENT_W2221)
    assert sum(oracles.GF_W2211) == math.factorial(9)
    labelings = 0
    for n in range(2, 8):
        catalog = generate_posets(n, connected=True)
        assert len(catalog) == oracles.A000608[n]
        labelings += sum(oracles.basin_count(p.n, p.covers) for p in catalog.entries) \
            * math.factorial(n - 1)
    assert labelings == oracles.SWEEP7_LABELINGS


def test_seed_changes_inputs_not_verdicts(tmp_path):
    texts = []
    for seed in (1, 2):
        out_dir = tmp_path / f"seed{seed}"
        out_dir.mkdir()
        workload = run.enum_w(out_dir, seed)
        texts.append([(out_dir / name).read_text() for name in ("w2211.json", "w2221.json")])
        tally = run.Tally()
        for job in workload.jobs:
            tally.run(job, out_dir, run.time.monotonic() + 120)
        assert (tally.attempted, tally.failed) == (2, 0)
    assert texts[0][0] != texts[1][0] and texts[0][1] != texts[1][1]


def last_json(*args, cwd=ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_declared_per_layer_table_matches_benchmark_json():
    assert {name: unit for name, (unit, _, _) in layers.PER_LAYER.items()} == declared("per_layer")
    assert ({name: better for name, (_, better, _) in layers.PER_LAYER.items()}
            == {m["name"]: m["better"] for m in BENCHMARK["per_layer"]})
    assert run.END_TO_END == declared("end_to_end")


def test_every_printed_metric_is_declared_with_its_unit():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        rc, result = last_json("--workload", "sweep-7", "--seed", "1", "--seconds", "1",
                               "--trace", str(trace))
        assert rc == 0 and result["correct"] and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared(kind)


def test_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, result = last_json("--workload", "enum-w", "--seed", "1", "--seconds", "1",
                           "--trace", "0", cwd=tmp_path)
    assert rc != 0 and result is None
