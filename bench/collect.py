"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/collect.py --seeds 0-9 [--workload NAME ...] [--trace 1]
                             [--out bench/baseline.json --label NAME]

Each (workload, seed) is one run of the command in BENCHMARK.json, one after
another.  For every metric the summary gives the median of the runs, the
quartiles from `statistics.quantiles(values, n=4)` and the spread: the
distance between the quartiles as a share of the median.  A spread within a
third of the metric's bound is steady; one above the bound fails.  With
`--out`, the summary and the machine it ran on are appended to a JSON list.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, git_commit


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def parse_seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "samples": len(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    entry = {
        "label": args.label, "date": datetime.date.today().isoformat(),
        "commit": git_commit(ROOT), "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {},
    }
    ok = True
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            result["record"] = json.loads(lines[-2])["record"]
            runs.append(result)
        if not runs:
            continue
        summary = {"seeds": [r["record"]["seed"] for r in runs],
                   "passes": [r["record"]["samples"]["passes"] for r in runs],
                   "attempted": sum(r["attempted"] for r in runs),
                   "failed": sum(r["failed"] for r in runs), "metrics": {}}
        print(f"{workload}: {len(runs)} runs, passes per run {summary['passes']}")
        for name in runs[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            summary["metrics"][name] = s
            bound = bounds.get(name) if not args.trace else None
            verdict = ""
            if bound is not None:
                verdict = ("steady" if s["spread"] <= bound / 3 else
                           "within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"  {name:52s} {s['median']:12.5g} {s['unit']:7s} "
                  f"spread {s['spread']:7.2%}  {verdict}")
        entry["workloads"][workload] = summary
    if args.out:
        history = json.loads(args.out.read_text()) if args.out.exists() else []
        history.append(entry)
        args.out.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
