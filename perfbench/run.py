#!/usr/bin/env python3
"""toruslab benchmark: one workload, closed loop, one JSON result line.

    python3 perfbench/run.py --workload grid-curvature --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout: toruslab is imported from the checkout's
``src/`` and nowhere else.  After the workload's untimed warm-up items, items
run one at a time, the next starting when the last one and its check have
finished, while the next item is expected to end within ``--seconds`` of wall
time (every workload runs at least its ``min_items``).  Each item, warm-up
included, is checked at the repository's own tolerances; an item that raises
or fails its check counts as failed.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs each input twice, traced then untraced, and prints the
per-layer metrics of the traced items; its spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.
The last line of standard output is the result object, and the exit code is 0
once it is printed, whether or not every item passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 3
WARMUP_INPUTS = 10**6      # inputs of warm-up items are numbered from here

# One BLAS thread, set before numpy loads OpenBLAS: on a shared host with few
# cores a second thread makes every BLAS call wait on the busier core.
NPROC = len(os.sched_getaffinity(0))
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

IMPORTS = ("import numpy, scipy.linalg, scipy.sparse.linalg, click, toruslab.cli, "
           "toruslab.curvature, toruslab.family, toruslab.oracle")

UNITS = {"self_s": "s", "build_s": "s", "solve_s": "s", "fd_s": "s",
         "oracle_s": "s", "als_s": "s", "setup_build_s": "s", "item_s": "s",
         "sweep_share": "fraction", "coverage": "fraction", "overhead": "ratio"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small problem sizes, for the benchmark's own smoke test")
    return ap.parse_args(argv)


def import_seconds():
    """Wall time of a fresh interpreter that imports toruslab and its dependencies."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], env=dict(os.environ, PYTHONPATH=SRC),
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return perf_counter() - t0


def tail(times):
    """Item time at the highest percentile with at least 10 samples beyond it.

    With 10 items or fewer no percentile qualifies, and the maximum is used.
    Returns (value, percentile, samples beyond).
    """
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_record():
    """OpenBLAS builds loaded in this process, their configs and thread counts."""
    import ctypes

    out = []
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        rec = {"library": os.path.basename(path)}
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                rec["threads"] = threads()
                rec["config"] = config().decode()
                break
        out.append(rec)
    return out


def environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "nproc": NPROC,
        "blas_threads_set": THREADS,
        "blas": blas_record(),
    }


def main(argv=None):
    args = parse_args(argv)
    os.environ.update({v: str(THREADS) for v in THREAD_VARS})
    sys.path.insert(0, SRC)
    try:
        import toruslab
    except ImportError as exc:
        print(f"cannot import toruslab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(toruslab.__file__).startswith(SRC + os.sep):
        print(f"toruslab imported from {toruslab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_item(workload, fixture, tracer, index, item_id, traced):
    """Inputs number ``index``, the timed item, then its check.

    Returns (passed, wall seconds); the seconds are None when the item raised.
    Spans are recorded under ``item_id`` when ``traced``.
    """
    try:
        inp = workload.inputs(fixture, index)
        tracer.item = item_id if traced else None
        t0 = perf_counter()
        out = workload.item(fixture, inp)
        dt = perf_counter() - t0
        tracer.item = None
        ok, detail = workload.check(fixture, inp, out)
    except Exception:
        tracer.item = None
        print(f"item {item_id}: raised\n{traceback.format_exc()}", flush=True)
        return False, None
    print(f"item {item_id}: {'ok' if ok else 'FAILED'} {dt:.4f}s peak_rss_mb={peak_rss_mb():.0f}"
          f"{' traced' if traced else ''} {detail}", flush=True)
    return ok, dt


def measure(args, workload_cls, workdir):
    from spans import Tracer, layer_metrics

    env = environment()
    tracer = Tracer()
    print("environment " + json.dumps(env), flush=True)
    workload = workload_cls(args.seed, args.smoke, tracer, workdir)
    trace = bool(args.trace)
    if trace:
        tracer.install()
        tracer.enable()

    # set-up: imports in fresh interpreters, then the workload's fixtures
    imports = [] if trace else [import_seconds() for _ in range(SETUP_REPS)]
    fixtures = []
    tracer.item = "setup"
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        fixture = workload.setup()
        fixtures.append(perf_counter() - t0)
    tracer.item = None
    print(f"setup import_s={imports} fixture_s={fixtures}", flush=True)

    # warm-up items, untraced and untimed but checked, on inputs of their own
    attempted = failed = 0
    tracer.disable()
    for w in range(workload.warmup):
        ok, _ = run_item(workload, fixture, tracer, WARMUP_INPUTS + w, "warm-up", False)
        attempted += 1
        failed += not ok
    if trace:
        tracer.enable()

    min_items = max(workload.min_items, 2 if trace else 1)
    times = []                 # wall time of every timed item that did not raise
    traced, plain = {}, {}     # trace runs: item id -> time, per copy
    i = 0
    start = perf_counter()
    while i < min_items or (
            perf_counter() - start + statistics.median(times or [0.0]) <= args.seconds):
        # a trace run times each input twice, traced first
        traced_item = trace and i % 2 == 0
        if trace and not traced_item:
            tracer.disable()
        ok, dt = run_item(workload, fixture, tracer, i // 2 if trace else i, i, traced_item)
        if trace:
            tracer.enable()
        attempted += 1
        failed += not ok
        if dt is not None:
            times.append(dt)
            (traced if traced_item else plain)[i] = dt
        i += 1

    if trace:
        metrics = layer_metrics(tracer.spans, traced, SETUP_REPS)
        # traced / untraced time of the same input; the first pair carries the
        # process's warm-up, so it counts only when it is the only pair
        ratios = [traced[i] / plain[i + 1] for i in sorted(traced) if i + 1 in plain]
        metrics["trace.overhead"] = statistics.median(ratios[1:] or ratios or [float("nan")])
        result = {k: {"value": v, "unit": UNITS.get(k.split(".", 1)[1], "count")}
                  for k, v in metrics.items()}
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"),
                     {"workload": args.workload, "seed": args.seed, "environment": env})
    elif times:
        value, pct, beyond = tail(times)
        print(f"item_tail_s is p{pct:.1f} of {len(times)} items ({beyond} beyond it)",
              flush=True)
        result = {
            "items_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "item_p50_s": {"value": statistics.median(times), "unit": "s"},
            "item_tail_s": {"value": value, "unit": "s"},
            "setup_s": {"value": statistics.median(imports) + statistics.median(fixtures),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    else:
        result = {}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}), flush=True)
    return 0     # the result line carries the verdict: correct, attempted, failed


if __name__ == "__main__":
    sys.exit(main())
