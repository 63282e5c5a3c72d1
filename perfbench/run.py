"""Benchmark of the fhn_meanfield package.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
./src.  Each workload runs in its own single-threaded process and prints,
as its last line, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("ensemble-wide", "ensemble-narrow", "density-oracle", "regime-scan")
SETUP_REPEATS = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Every workload, one after another, each in its own process."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(json.dumps({"workload": name, "exit": proc.returncode,
                          "result": json.loads(lines[-1]) if proc.returncode == 0 else None}))
        code = code or proc.returncode
    return code


def import_package() -> float:
    """Import fhn_meanfield from this checkout's src; return the seconds."""
    if not (SRC / "fhn_meanfield" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'fhn_meanfield'}; "
                 "run from the root of a source checkout")
    # single-threaded numerical libraries, fixed before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import fhn_meanfield.cli  # noqa: F401  (pulls in every module)
    elapsed = perf_counter() - t0
    if Path(fhn_meanfield.cli.__file__).resolve().parent != (SRC / "fhn_meanfield").resolve():
        sys.exit(f"perfbench: fhn_meanfield imported from {fhn_meanfield.cli.__file__}, "
                 f"not from {SRC}")
    return elapsed


def run_ops(wl, inputs, seconds: float, first: int, tracer=None, cals=None):
    """Operations until `seconds` have passed (at least one), ending on a
    whole round for a workload that declares ROUND.  With a cals
    list, the calibration job runs before the first operation and after
    each one, and its times are appended there."""
    import calibration

    results, walls = [], []
    start = perf_counter()
    k = first
    if cals is not None:
        cals.append(calibration.job(wl.CALIBRATION))
    while True:
        t0 = perf_counter()
        if tracer is None:
            res = wl.op(inputs, k)
        else:
            with tracer.span("op"):
                res = wl.op(inputs, k)
        walls.append(perf_counter() - t0)
        results.append(res)
        if cals is not None:
            cals.append(calibration.job(wl.CALIBRATION))
        k += 1
        if perf_counter() - start >= seconds and (k - first) % getattr(wl, "ROUND", 1) == 0:
            return results, walls


def op_scales(cals: list[float]) -> list[float]:
    """Per-operation factor NOMINAL_S / (mean of the calibration jobs run
    before and after the operation)."""
    import calibration

    return [2.0 * calibration.NOMINAL_S / (c0 + c1) for c0, c1 in zip(cals, cals[1:])]


def end_to_end(wl, seed, seconds, import_s):
    import calibration

    setup_cals, setups = [], []
    for _ in range(SETUP_REPEATS):
        setup_cals.append(calibration.job(wl.CALIBRATION))
        t0 = perf_counter()
        inputs = wl.setup(seed)
        setups.append(perf_counter() - t0)
    cals = []
    results, _ = run_ops(wl, inputs, seconds, 0, cals=cals)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the host's speed changes by up to 2x within minutes: each time is
    # scaled by the nominal over the calibration jobs run next to it
    setup_scale = [calibration.NOMINAL_S / c for c in setup_cals]
    op_scale = op_scales(cals)
    setup_s = statistics.median(
        (import_s + s) * f for s, f in zip(setups, setup_scale))
    work_per_s = statistics.median(
        r.work / (r.work_time * f) for r, f in zip(results, op_scale))
    op_time = statistics.median(r.latency * f for r, f in zip(results, op_scale))
    print(f"unscaled: setup_s {import_s + statistics.median(setups):.6g}, work_per_s "
          f"{statistics.median(r.work / r.work_time for r in results):.6g}, op_time_s_p50 "
          f"{statistics.median(r.latency for r in results):.6g}; "
          f"calibration job median {statistics.median(cals):.5f} s over {len(cals)}",
          file=sys.stderr)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak, "MiB"),
        "work_per_s": (work_per_s, "1/s"),
        "op_time_s_p50": (op_time, "s"),
    }
    return inputs, results, metrics


def per_layer(wl, seed, seconds):
    import layers
    from tracing import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span("setup"):
            inputs = wl.setup(seed)
    finally:
        tracer.unwrap_all()
    plain_cals, traced_cals = [], []
    plain, plain_walls = run_ops(wl, inputs, seconds / 2.0, 0, cals=plain_cals)
    layers.install(tracer)
    try:
        traced, traced_walls = run_ops(wl, inputs, seconds / 2.0, len(plain), tracer,
                                       cals=traced_cals)
    finally:
        tracer.unwrap_all()
    tracer.save(OUT / f"trace-{wl.name}.npz")
    metrics = layers.metrics(tracer)
    # both medians scaled to the nominal host speed, as the end-to-end times
    metrics["trace.overhead_s"] = (
        statistics.median(w * f for w, f in zip(traced_walls, op_scales(traced_cals)))
        - statistics.median(w * f for w, f in zip(plain_walls, op_scales(plain_cals))), "s")
    return inputs, plain + traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_s = import_package()
    sys.path.insert(0, str(HERE))
    import workloads

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](out_dir)
    if args.trace:
        inputs, results, metrics = per_layer(wl, args.seed, args.seconds)
    else:
        inputs, results, metrics = end_to_end(wl, args.seed, args.seconds, import_s)

    problems = [p for r in results for p in r.problems] + wl.final_checks(inputs)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
