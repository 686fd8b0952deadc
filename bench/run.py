"""Benchmark of the tadic package: one workload, measured for a fixed time.

    python3 bench/run.py --workload compare-golden --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` and the golden reports are read from `tests/golden/`.  Jobs run as a
closed loop with one client: a pass runs the workload's jobs back to back,
and passes repeat while the next one still fits in `--seconds`.  Before
each pass the package is imported afresh and the jobs are built again
(timed as set-up), so every pass starts cold, as a command-line run does,
and set-up samples spread over the whole run.  Every output is checked.

With `--trace 0` the last line of standard output carries the end-to-end
metrics, measured on the unmodified program.  A pass's CPU time is
reported in units of a reference kernel timed during the pass (see
`speed.py`), so the speed of a shared host cancels.  Wall time is not a
metric: the package runs in one thread and does no I/O in a pass, so wall
minus CPU time is only the time the host takes the core away, which no
change to the program moves; the raw seconds of both clocks, and wall time
in kernel units, go into the record line.  With `--trace 1` untraced and
traced passes alternate (see `spans.py`), and the last line carries the
per-layer metrics.  The line before it is a record of the run: seed,
generated f of each job, sample counts, machine.  The exit code is 0 only
when every output is correct; without a checkout around it the command
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
from speed import SpeedProbe
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUPS_PER_PASS = 3


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from `.git` without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = root / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_golden() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted((ROOT / "tests" / "golden").glob("*.json"))}


def setup(workload: str, seed: int, golden: dict[str, str]):
    """Import a fresh copy of the package and build the workload's jobs
    (towers, profiles, job configs).  Returns (seconds, jobs).  A fresh
    import lets set-up be timed several times, and starts every pass from
    the cold state of a command-line run (empty `lru_cache`s)."""
    t0 = time.perf_counter()
    for name in [m for m in sys.modules if m == "tadic" or m.startswith("tadic.")]:
        del sys.modules[name]
    tadic = importlib.import_module("tadic")
    importlib.import_module("tadic.cli")
    jobs = WORKLOADS[workload](tadic, seed, golden)
    return time.perf_counter() - t0, jobs


class Tally:
    """Jobs attempted and failed, and the lowest precision reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.a_eff_min: int | None = None

    def record(self, job, outcome) -> None:
        self.attempted += 1
        ok, a_eff, detail = False, None, "raised"
        if outcome is not None:
            try:
                ok, a_eff, detail = job.check(outcome)
            except Exception:
                traceback.print_exc()
                detail = "check raised"
        if not ok:
            self.failed += 1
            print(f"FAILED {job.name} f={job.f}: {detail}", file=sys.stderr)
        if a_eff is not None:
            self.a_eff_min = a_eff if self.a_eff_min is None else min(self.a_eff_min, a_eff)


def one_pass(jobs, tally: Tally, recorder=None, probe=None) -> tuple[float, float]:
    """Run the jobs back to back; returns the pass's wall and CPU seconds,
    the speed probe's samples included when one is given.  Outputs are
    checked after the pass, outside its timing."""
    gc.collect()  # garbage of earlier passes is not collected in this one
    outcomes = []
    w0, c0 = time.perf_counter(), time.process_time()
    with probe or contextlib.nullcontext():
        for job in jobs:
            try:
                outcomes.append(job.call())
            except Exception:
                traceback.print_exc()
                outcomes.append(None)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if recorder is not None:
        recorder.end_pass()
    for job, outcome in zip(jobs, outcomes):
        tally.record(job, outcome)
    return wall, cpu


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Closed loop of cycles, each SETUPS_PER_PASS fresh set-ups and one
    pass.  Without `trace` every pass runs under the speed probe.  With
    `trace`, untraced and traced passes alternate, so both sides see the
    same machine, and neither is probed.  A cycle starts only while the
    median cycle of its kind so far still fits before the deadline; at
    least one pass of each kind runs."""
    golden = load_golden()
    tally = Tally()
    recorder = spans.Recorder() if trace else None
    probe = None if trace else SpeedProbe()
    setups, walls, cpus, traced = [], [], [], []
    wall_k, cpu_k, kernel_ms = [], [], []
    cycle_s: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        traced_pass = trace and len(traced) < len(walls)
        done = len(walls) + len(traced) >= (2 if trace else 1)
        history = cycle_s[traced_pass] or cycle_s[not traced_pass]
        if done and time.perf_counter() + statistics.median(history) > start + seconds:
            break
        c0 = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            gc.collect()
            setup_s, jobs = setup(workload, seed, golden)
            setups.append(setup_s)
        spans.assert_unwrapped()
        if traced_pass:
            with recorder:
                wall, _ = one_pass(jobs, tally, recorder)
            spans.assert_unwrapped()
            traced.append(wall)
        else:
            wall, cpu = one_pass(jobs, tally, probe=probe)
            walls.append(wall)
            cpus.append(cpu)
            if probe is not None:
                w, c = probe.in_kernels(wall, cpu)
                wall_k.append(w)
                cpu_k.append(c)
                kernel_ms.append(1e3 * statistics.fmean(probe.cpu))
        cycle_s[traced_pass].append(time.perf_counter() - c0)
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "jobs": [{"name": j.name, "f": j.f} for j in jobs],
        "samples": {"setup": len(setups), "passes": len(walls)},
        "setup_s": setups, "wall_s": walls, "cpu_s": cpus,
        "wall_kernels": wall_k, "cpu_kernels": cpu_k, "kernel_ms": kernel_ms,
        "commit": git_commit(ROOT), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    if not trace:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "cpu_kernels": metric(statistics.median(cpu_k), "kernels"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB"),
            "ok_ratio": metric((tally.attempted - tally.failed) / tally.attempted, "ratio"),
            "a_eff_min": metric(tally.a_eff_min or 0, "digits"),
        }
    else:
        values = recorder.layer_metrics(len(traced), sum(traced))
        # each traced pass against the untraced pass just before it, so slow
        # drift of the machine cancels within a pair
        values["trace.overhead_ratio"] = statistics.median(
            t / u for u, t in zip(walls, traced))
        metrics = {name: metric(values[name], unit) for name, unit in spans.LAYER_METRICS}
        record["samples"]["traced_passes"] = len(traced)
        record["traced_wall_s"] = traced
        record["spans"] = len(recorder.spans)
    return record, tally, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tadic" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "golden").is_dir():
        print(f"no tadic source checkout at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    record, tally, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    correct = tally.failed == 0 and tally.a_eff_min is not None
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
