#!/usr/bin/env python3
"""voltsentry benchmark: one workload per invocation, result JSON last.

    python3 perfbench/run.py --workload stream|sweep --seed N \\
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` every public voltsentry function is wrapped in a span and the
last line holds the per-layer metrics instead.  Earlier lines carry the
environment fingerprint, the output digest, detection outcomes and (traced)
the full layer table.  Exits nonzero without a result line when the package
or its configs are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

MANIFEST = os.path.join(ROOT, "BENCHMARK.json")


def declared(kind: str) -> dict:
    """Metric name -> unit, for ``end_to_end`` or ``per_layer``, as declared."""
    with open(MANIFEST, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def select(measured: dict, wanted: dict) -> dict:
    """The declared metrics, in their declared units, or ValueError."""
    missing = sorted(set(wanted) - set(measured))
    wrong = sorted(k for k in wanted if k in measured and measured[k][1] != wanted[k])
    if missing or wrong:
        raise ValueError(f"metrics missing {missing}, in another unit {wrong}")
    return {k: {"value": measured[k][0], "unit": wanted[k]} for k in wanted}


def pin_env() -> None:
    """One BLAS/OpenMP thread, and no transparent huge pages for numpy's
    large arrays: whether the kernel grants them depends on the host's free
    memory, so peak RSS would vary from run to run.  Before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "pinned": {v: os.environ.get(v)
                       for v in THREAD_VARS + ("NUMPY_MADVISE_HUGEPAGE",)}}


def percentile_ms(latencies_s, q: float) -> float:
    import numpy as np

    return float(np.percentile(latencies_s, q)) * 1e3


def block_medians_ms(result, block_s: float = 1.0) -> list:
    """Median operation latency of each one-second block of the timed phase."""
    import numpy as np

    blocks = np.floor(np.asarray(result.starts_s) / block_s)
    lat = np.asarray(result.latencies_s)
    return [float(np.median(lat[blocks == b])) * 1e3 for b in np.unique(blocks)]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_digest(workload: str, seed: int, digest: str) -> bool:
    """Same seed, same digest: compare with the first run in this checkout."""
    path = os.path.join(WORK, "digests.json")
    seen = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    key = f"{workload}:{seed}"
    if key not in seen:
        seen[key] = digest
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(seen, fh, indent=1, sort_keys=True)
    return seen[key] == digest


def tail_percentile(n: int) -> float:
    """The highest usual percentile with at least ten of n samples beyond it."""
    return next((q for q in (99.9, 99, 95, 90, 75) if n * (100 - q) >= 1000), 50)


def end_to_end(result) -> dict:
    """Metric name -> (value, unit) of an untraced run."""
    lat = result.latencies_s
    tail = tail_percentile(len(lat))
    return {
        "setup_s": (result.setup_s, "s"),
        "op_p50_ms": (percentile_ms(lat, 50), "ms"),
        "op_count": (len(lat), "count"),
        "op_tail_pct": (tail, "%"),
        "op_tail_ms": (percentile_ms(lat, tail), "ms"),
        "ops_per_s": (len(lat) / result.wall_s, "1/s"),
        "test_err_pct": (result.test_err_pct, "%"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(tracer, e2e: dict, t_start: float) -> dict:
    """Metric name -> (value, unit) of a traced run, from its spans."""
    import spans

    layers = tracer.layer_metrics()
    cost_s = spans.span_cost_s()
    layers["trace.span_cost_us"] = (cost_s * 1e6, "us")
    layers["trace.overhead_pct"] = (
        100.0 * len(tracer.spans) * cost_s / (time.perf_counter() - t_start), "%")
    for name in ("op_p50_ms", "ops_per_s"):
        layers[f"trace.{name}"] = e2e[name]
    return layers


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream", "sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    pin_env()
    if not (os.path.isdir(os.path.join(SRC, "voltsentry"))
            and os.path.isdir(CONFIGS)):
        print(f"perfbench: no voltsentry sources under {ROOT}", file=sys.stderr)
        return 2
    try:
        wanted = declared("per_layer" if args.trace else "end_to_end")
    except (OSError, KeyError, ValueError) as exc:
        print(f"perfbench: cannot read {MANIFEST}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import workloads

    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        result = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, workdir, CONFIGS, t_start)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    same = check_digest(args.workload, args.seed, result.digest)
    failed = result.failed + (not same)
    print("env " + json.dumps(fingerprint(), sort_keys=True))
    print("digest " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "sha256": result.digest, "repeatable": same}))
    print("ops " + json.dumps({"attempted": result.attempted, "failed": failed,
                               "failed_frac": failed / result.attempted,
                               "wall_s": result.wall_s}))
    for key, value in result.notes.items():
        print(f"{key} " + json.dumps(value, sort_keys=True))

    measured = end_to_end(result)
    print("timing " + json.dumps(
        {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}))
    print("blocks " + json.dumps([round(v, 3) for v in block_medians_ms(result)]))
    if args.trace:
        measured = per_layer(tracer, measured, t_start)
        os.makedirs(WORK, exist_ok=True)
        tracer.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"))
        print("layers " + json.dumps(
            {k: {"value": v, "unit": u} for k, (v, u) in sorted(measured.items())}))
    try:
        metrics = select(measured, wanted)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
