"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --seeds 0-9                # every workload
    python3 bench/collect.py --workloads desk-train --seeds 0-4
    python3 bench/collect.py --seeds 0-9 --out bench/reference.json

Runs ``bench/run.py`` once per (workload, seed), one at a time, with the
run length from BENCHMARK.json. For each metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound. ``--out`` writes every run's figures and the summary as
JSON; ``bench/reference.json`` was made this way.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    doc = json.loads(lines[-1])
    doc["wall_s"] = wall
    for line in proc.stderr.splitlines():
        if line.startswith("info checkpoint_sha256"):
            doc["checkpoint_sha256"] = line.split("\t")[1].strip("'")
    return doc


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--seeds", default="0-9", type=parse_seeds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    group = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[group]}
    report = {"machine": machine(), "run_seconds": spec["run_seconds"],
              "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            doc = run_once(workload, seed, spec["run_seconds"], args.trace)
            print(f"{workload} seed {seed}: correct {doc['correct']} "
                  f"attempted {doc['attempted']} failed {doc['failed']} "
                  f"wall {doc['wall_s']:.1f}s "
                  f"checkpoint {doc.get('checkpoint_sha256', '?')[:12]}", flush=True)
            runs.append(doc)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = summarise(values)
            s = summary[name]
            bound = bounds[name]
            mark = "" if bound is None else (
                f"  bound {bound}" + ("  OVER bound/3" if s["spread"] > bound / 3
                                      and name != "setup_s" else ""))
            print(f"  {name:45s} median {s['median']:.6g}  q1 {s['q1']:.6g}"
                  f"  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{mark}",
                  flush=True)
        fail_shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed shares {sorted(fail_shares)}; max wall "
              f"{max(r['wall_s'] for r in runs):.1f}s", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


def machine() -> dict:
    import os

    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "ROBUSTSEQ_THREADS": os.environ.get("ROBUSTSEQ_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


if __name__ == "__main__":
    sys.exit(main())
