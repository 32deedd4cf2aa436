"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --blas-threads 2 --workload nd-sweep --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root: the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics instead.  Each run also writes its full record, and a
traced run its spans, under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# Imports what a run imports and prints how long that took.
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import numpy, harness, tracing, workloads; print(time.perf_counter() - t0)"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="threads for the BLAS, fixed before numpy loads")
    return p.parse_args(argv)


def import_times(paths: list[str]) -> list[float]:
    """Import times in fresh interpreters, one after another.

    How fast a new process imports varies from one process to the next
    by up to a half on a shared host, so one in-process sample would
    set `setup_s` by chance.
    """
    return [
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, *paths],
                             capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


def main() -> int:
    t_start = time.perf_counter()
    args = parse_args()
    # The BLAS reads its thread count once, when numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rcoreset", "__init__.py")):
        print(f"no rcoreset sources under {src}", file=sys.stderr)
        return 1
    paths = [os.path.dirname(os.path.abspath(__file__)), src]
    sys.path[:0] = paths
    import numpy as np

    import harness
    import workloads
    from tracing import LAYER_METRICS, Tracer

    import_s = time.perf_counter() - t_start
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = cls(args.seed, workdir)
        tracer = Tracer() if args.trace else None
        setup_times = []
        if tracer:
            tracer.install()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        # Inputs computed once per run by the program itself (nd-sweep's
        # C*): timed apart and kept out of every end-to-end metric.
        t0 = time.perf_counter()
        if hasattr(wl, "prepare"):
            if tracer:
                tracer.phase = "prep"
            wl.prepare()
        prep_s = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
        errors = wl.verify_setup() if hasattr(wl, "verify_setup") else []

        rounds, timed = harness.run_rounds(wl, None, args.seconds)
        metrics = harness.summarise(rounds)
        imports = import_times(paths)
        metrics["setup_s"] = float(np.median(imports)) + float(np.median(setup_times))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        all_rounds = list(rounds)
        if tracer:
            # Replay the same rounds with spans on; the difference in
            # timed work is the tracing overhead.
            tracer.phase = "pass"
            tracer.install()
            try:
                traced, traced_timed = harness.run_rounds(wl, len(rounds), args.seconds)
            finally:
                tracer.uninstall()
            all_rounds += traced
            passes = len(rounds) // len(wl.groups)
            layer = tracer.layer_metrics(passes, SETUP_REPEATS, traced_timed)
            layer["trace.overhead_s"] = (traced_timed - timed) / passes
            tracer.write(os.path.join(OUT_DIR, f"{tag}-spans.jsonl"))
            report = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                      for name, unit in LAYER_METRICS}
            report.update({name: {"value": metrics[key], "unit": unit}
                           for name, key, unit in harness.QUALITY})
        else:
            report = {name: {"value": float(metrics[name]), "unit": unit}
                      for name, unit in harness.END_TO_END}
        errors += [e for rnd in all_rounds for e in rnd.errors]
        result = {
            "correct": not errors and all(np.isfinite(v["value"]) for v in report.values()),
            "attempted": sum(rnd.attempted for rnd in all_rounds),
            "failed": sum(rnd.failed for rnd in all_rounds),
            "metrics": report,
        }
        record = harness.record(args, import_s, imports, setup_times, prep_s, metrics, result,
                                errors, all_rounds)
        with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
