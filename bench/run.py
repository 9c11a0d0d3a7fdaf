"""Run one benchmark workload once and print its result as JSON.

    python3 bench/run.py --workload desk-train --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout: robustseq is imported from its
``src/`` directory and nowhere else, so the figures always describe the
code beside the benchmark. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps the package's public functions in timing spans and
prints the per-layer metrics instead. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; a
readable report goes to standard error. Scratch files go under
``.bench_out/`` in the checkout; the cohort and checkpoint are removed at
the end, and a traced run leaves its aggregated spans in
``.bench_out/traces/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("desk-train", "long-deep-train", "cohort-score")


def _process_age() -> float:
    """Seconds since this process started (Linux), else 0."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = int(fields[19])  # field 22 of proc(5): starttime
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME)
                   - ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE0 = _process_age()


def since_start() -> float:
    return _AGE0 + (time.perf_counter() - _T0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """robustseq from this checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "robustseq" / "__init__.py").is_file():
        print(f"error: no robustseq package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import robustseq

    if Path(robustseq.__file__).resolve().parent != src / "robustseq":
        print(f"error: robustseq imported from {robustseq.__file__}, "
              f"not {src}", file=sys.stderr)
        sys.exit(2)
    return robustseq


def main(argv=None) -> int:
    args = parse_args(argv)
    rs = import_program()
    import pipeline
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    out_root = ROOT / ".bench_out"
    run_dir = out_root / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        tracer.install("robustseq")
    try:
        out = pipeline.run_pipeline(rs, wl, args.seconds, run_dir, tracer,
                                    since_start)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        tracer.uninstall()
        pipeline.cross_check_trace(tracer, out)
        metrics = pipeline.per_layer_metrics(tracer, out)
        traces = out_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        doc = {"workload": args.workload, "seed": args.seed,
               "end_to_end_traced": out.e2e, "info": out.info,
               "trace": tracer.to_dict()}
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(doc, indent=1, default=str) + "\n")
    else:
        metrics = {name: (value, pipeline.END_TO_END_UNITS[name])
                   for name, value in out.e2e.items()}
    pipeline.emit(out, metrics)
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
