"""Closed-loop benchmark of the promotion_sorting CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload enum-w --seed 1 --seconds 35 --trace 0

One driver process starts one ``python -m promotion_sorting`` job at a time
and waits for it before starting the next; no job runs more than
``THREADS`` worker processes.  A pass runs every job of the workload once,
and passes repeat for about ``--seconds`` seconds (at least one pass).  Each
job's output is checked against an exact oracle (oracles.py) before its time
counts; a job that exits non-zero or fails its oracle is counted in
``failed`` and its pass is not timed.

End-to-end metrics (``--trace 0``), medians over the passes of one run:
wall_s per pass; work_per_s, the workload's unit of work per second
(labelings enumerated for enum-w and sweep-7, classes emitted for
catalog-8), counted from the inputs and never from the program's output;
posets_per_s, posets the pass handles per second; setup_s, the time of
``--help`` (interpreter start, import, parser); peak_rss_mib, the largest
resident set of any job or pool worker; ok_ratio, jobs that passed over jobs
attempted.

With ``--trace 1`` the run instead makes one in-process traced pass over
fixed inputs (layers.py) and reports the per-layer metrics; ``--seconds``
does not apply to it.  Inputs, job outputs, the run record and the spans go
to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
THREADS = 2
SETUP_REPEATS = 7
# A job still running this long after the run started is killed, so that the
# whole run ends within three minutes.
RUN_DEADLINE_S = 160.0

END_TO_END = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "posets_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}


@dataclass
class Job:
    """One CLI invocation and the oracle its output must pass.

    A job passes when it exits 0 and ``check`` accepts the text of ``output``
    (a file the job writes) or, when ``output`` is None, its standard output.
    """

    name: str
    argv: list
    check: Callable[[str], bool]
    output: Path | None = None


@dataclass
class Workload:
    jobs: list
    work: int          # units of work in one pass, derived from the inputs
    work_unit: str
    posets: int        # posets handled in one pass


def cli(*args) -> list:
    return [sys.executable, "-m", "promotion_sorting", *args]


def enum_w(out_dir: Path, seed: int) -> Workload:
    """gf on W(2,2,1,1) and tangled on W(2,2,2,1), both seeded relabelings."""
    gf_path, tangled_path = out_dir / "w2211.json", out_dir / "w2221.json"
    n9, covers9, names9 = oracles.w_poset(2, 2, 1, 1)
    _, covers9, names9 = oracles.relabel(n9, covers9, names9, seed)
    gf_path.write_text(oracles.poset_document(n9, covers9, names9))
    n10, covers10, names10 = oracles.w_poset(2, 2, 2, 1)
    perm10, covers10, names10 = oracles.relabel(n10, covers10, names10, seed)
    tangled_path.write_text(oracles.poset_document(n10, covers10, names10))
    jobs = [
        Job("gf", cli("gf", "--poset", str(gf_path), "--threads", str(THREADS)),
            oracles.check_gf),
        Job("tangled", cli("tangled", "--poset", str(tangled_path), "--by-element",
                           "--force", "--threads", str(THREADS)),
            lambda out: oracles.check_tangled(out, perm10)),
    ]
    labelings = (math.factorial(n9)
                 + oracles.basin_count(n10, covers10) * math.factorial(n10 - 1))
    return Workload(jobs, labelings, "labelings", len(jobs))


def catalog_8(out_dir: Path, seed: int) -> Workload:
    """gen-posets --n 8 --connected; the input is just n, so the seed is unused."""
    path = out_dir / "catalog8.jsonl"
    job = Job("gen-posets", cli("gen-posets", "--n", "8", "--connected", "--out", str(path)),
              oracles.check_catalog, output=path)
    return Workload([job], oracles.A000608[8], "classes", oracles.A000608[8])


def sweep_7(out_dir: Path, seed: int) -> Workload:
    """verify --max-n 7; the input is just n, so the seed is unused."""
    job = Job("verify", cli("verify", "--max-n", "7", "--force", "--threads", str(THREADS)),
              oracles.check_sweep)
    return Workload([job], oracles.SWEEP7_LABELINGS, "labelings", oracles.SWEEP7_POSETS)


WORKLOADS = {"enum-w": enum_w, "catalog-8": catalog_8, "sweep-7": sweep_7}


def kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # the job ended as the deadline passed
        pass


def run_job(job: Job, out_dir: Path, deadline: float) -> tuple[bool, float]:
    """Run one job to completion; return (passed the oracle, wall seconds)."""
    stdout_path = out_dir / f"{job.name}.out"
    if job.output:
        job.output.unlink(missing_ok=True)  # a stale file must not pass the oracle
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(stdout_path, "w") as out, open(out_dir / f"{job.name}.err", "w") as err:
        start = time.perf_counter()
        # A session of its own, so that a kill at the deadline also reaches
        # the job's pool workers.
        proc = subprocess.Popen(job.argv, cwd=ROOT, stdout=out, stderr=err, env=env,
                                start_new_session=True)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                 kill_session, (proc.pid,))
        killer.start()
        rc = proc.wait()
        seconds = time.perf_counter() - start
        killer.cancel()
        killer.join()
    if rc != 0:
        return False, seconds
    try:
        text = (job.output or stdout_path).read_text()
    except OSError:
        return False, seconds
    return job.check(text), seconds


class Tally:
    """Jobs attempted and failed over one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, job: Job, out_dir: Path, deadline: float) -> tuple[bool, float]:
        ok, seconds = run_job(job, out_dir, deadline)
        self.attempted += 1
        self.failed += not ok
        if not ok:
            print(f"FAILED {job.name}: exit code or output wrong; see {out_dir}", flush=True)
        return ok, seconds


def measure_setup(tally: Tally, out_dir: Path, deadline: float) -> float:
    """Median wall time of `--help`: interpreter start, import and parser."""
    job = Job("help", cli("--help"), lambda out: out.startswith("usage:"))
    tally.run(job, out_dir, deadline)  # warm the bytecode cache; not timed
    return statistics.median(
        tally.run(job, out_dir, deadline)[1] for _ in range(SETUP_REPEATS))


def end_to_end(workload: Workload, seconds: int, tally: Tally, out_dir: Path,
               started: float) -> dict:
    deadline = started + RUN_DEADLINE_S
    setup_s = measure_setup(tally, out_dir, deadline)
    passes, failed_passes = [], []
    begin = time.monotonic()
    while True:
        results = [tally.run(job, out_dir, deadline) for job in workload.jobs]
        walls = [s for _, s in results]
        (passes if all(ok for ok, _ in results) else failed_passes).append(sum(walls))
        print(f"pass {len(passes) + len(failed_passes)}: " + " ".join(
            f"{job.name}={s:.3f}s" for job, s in zip(workload.jobs, walls)), flush=True)
        # Start another pass only if it should end nearer to `seconds` than
        # stopping now would, and before the deadline.
        mean_pass = (time.monotonic() - begin) / (len(passes) + len(failed_passes))
        if (time.monotonic() - begin + mean_pass / 2 > seconds
                or time.monotonic() + 2 * mean_pass > deadline):
            break
    # Failed passes are timed only when no pass succeeded, and then the run
    # reports correct: false anyway.
    wall_s = statistics.median(passes or failed_passes)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"passes counted: {len(passes)} of {len(passes) + len(failed_passes)}; "
          f"work per pass: {workload.work} {workload.work_unit}, "
          f"{workload.posets} posets", flush=True)
    return {
        "wall_s": wall_s,
        "work_per_s": workload.work / wall_s,
        "posets_per_s": workload.posets / wall_s,
        "setup_s": setup_s,
        "peak_rss_mib": peak_kib / 1024,
        "ok_ratio": (tally.attempted - tally.failed) / max(1, tally.attempted),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_record(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": THREADS,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "commit": git_commit(ROOT),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "loadavg_1m": os.getloadavg()[0],
        "started_unix": time.time(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "promotion_sorting" / "__main__.py").is_file():
        print(f"no promotion_sorting package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = run_record(args)
    print("run record: " + json.dumps(record), flush=True)
    (out_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        import layers
        traced = layers.traced_run(ROOT / "src", out_dir, args.seed, record)
        metrics = {name: {"value": traced.values[name], "unit": unit}
                   for name, (unit, _, _) in layers.PER_LAYER.items()}
        attempted, failed = traced.attempted, traced.failed
    else:
        tally = Tally()
        workload = WORKLOADS[args.workload](out_dir, args.seed)
        values = end_to_end(workload, args.seconds, tally, out_dir, started)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        attempted, failed = tally.attempted, tally.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
