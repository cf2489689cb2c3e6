"""splitlab benchmark: one workload per process, one thread, checked results.

    python3 perfbench/run.py --workload ssc-f2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from a checkout root that holds src/splitlab.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it name every metric with its unit.  Exit status: 0 when every
result is correct, 1 when a correctness check failed, 2 when the program
under test cannot be imported or the arguments are bad.

--trace 0 measures the end-to-end metrics with tracing off: set-up (median
of SETUP_PROBES fresh processes), then passes over the workload's fixed
point list until --seconds have elapsed.  --trace 1 runs one untraced pass,
one pass with spans (bench_trace.SpanRecorder) and one pass counting scalar
ops, and reports the per-layer metrics.  Every pass starts with splitlab's
caches empty.  See NOTES.md for the workloads and their rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 5
SETUP_SPEED_PROBES = 3
PROBE_TIMEOUT_S = 60

import bench_speed  # noqa: E402  (sibling modules; HERE is sys.path[0])
import bench_trace  # noqa: E402
import bench_workloads as wl  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "cands_per_s": "candidates/s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


class Unavailable(Exception):
    """The program under test cannot be found or imported."""


def import_splitlab():
    if not os.path.isfile(os.path.join(SRC, "splitlab", "__init__.py")):
        raise Unavailable(f"no splitlab package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import splitlab
    except ImportError as err:
        raise Unavailable(f"cannot import splitlab: {err}") from err
    where = os.path.dirname(os.path.abspath(splitlab.__file__))
    if where != os.path.join(SRC, "splitlab"):
        raise Unavailable(f"splitlab imported from {where}, not from {SRC}")
    return splitlab


def setup_probe(workload: str, size: str, seed: int) -> None:
    """Fresh-process set-up: import splitlab and build the inputs.  Prints
    the seconds taken and the median of SETUP_SPEED_PROBES speed probes."""
    t0 = time.perf_counter()
    sl = import_splitlab()
    wl.build_inputs(sl, workload, size, seed)
    took = time.perf_counter() - t0
    probe = statistics.median(bench_speed.sample() for _ in range(SETUP_SPEED_PROBES))
    print(f"{took!r} {probe!r}")


def probe_setups(workload: str, size: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw set-up seconds of SETUP_PROBES fresh processes, and the same
    scaled to the reference speed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--size", size, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        took, probe = (float(x) for x in done.stdout.split()[-2:])
        raw.append(took)
        scaled.append(took * bench_speed.REFERENCE_S / probe)
    return raw, scaled


def measure(sl, args, checks: wl.Checks) -> dict[str, dict]:
    """End-to-end metrics.  Passes repeat the item list, caches emptied at
    the start of each.  The first pass always completes; after it, an item
    starts only if its previous time still fits in --seconds, and the run
    ends at the first item that does not fit.  Speed probes run every half
    second, also inside items (bench_speed); each item's time, less the
    probes' own time, is scaled by the probes around it.  A pass's time is
    the sum of each item's median, so a partial last pass still contributes
    samples."""
    inputs = wl.build_inputs(sl, args.workload, args.size, args.seed)
    setup_raw, setup_scaled = probe_setups(args.workload, args.size, args.seed)
    items = range(len(inputs.items))
    # (start, end, wall, cpu) per sample of each item.
    samples: list[list[tuple[float, float, float, float]]] = [[] for _ in items]
    start = time.perf_counter()
    fits = True
    with bench_speed.SpeedLog() as speed:
        while fits:
            wl.clear_caches(sl)
            for i in items:
                elapsed = time.perf_counter() - start
                if samples[i] and elapsed + samples[i][-1][2] > args.seconds:
                    fits = False
                    break
                spent_wall, spent_cpu = speed.spent_wall, speed.spent_cpu
                c0 = time.process_time()
                t0 = time.perf_counter()
                checks.merge(wl.run_item(sl, inputs, i))
                t1 = time.perf_counter()
                cpu = time.process_time() - c0 - (speed.spent_cpu - spent_cpu)
                samples[i].append((t0, t1, t1 - t0 - (speed.spent_wall - spent_wall), cpu))

    def per_pass(column: int, scaled: bool) -> float:
        return sum(
            statistics.median(s[column] * (speed.factor(s[0], s[1]) if scaled else 1.0)
                              for s in item)
            for item in samples
        )

    wall_s = per_pass(2, True)
    counts = sorted({len(s) for s in samples})
    failed = len(checks.failures)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": wall_s,
        "cpu_s": per_pass(3, True),
        "cands_per_s": inputs.cands / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": (checks.attempted - failed) / checks.attempted,
    }
    samples_per_item = f"{counts[0]}" if len(counts) == 1 else f"{counts[0]}-{counts[-1]}"
    print(f"# {args.workload}: {counts[-1]} passes over {len(samples)} items "
          f"({samples_per_item} samples per item), {inputs.cands} candidates per pass; "
          f"{len(speed.probes)} speed probes, median {statistics.median(speed.probes):.6f} s "
          f"(reference {bench_speed.REFERENCE_S} s)")
    print("# times are scaled to the reference speed; raw values in brackets")
    print(f"setup_s = {metrics['setup_s']:.6f} s (median of {len(setup_scaled)} fresh processes; "
          f"raw {statistics.median(setup_raw):.6f} s)")
    print(f"wall_s = {wall_s:.6f} s (one pass: sum of per-item medians, "
          f"{samples_per_item} samples each; raw {per_pass(2, False):.6f} s)")
    print(f"cpu_s = {metrics['cpu_s']:.6f} s (one pass: sum of per-item medians; "
          f"raw {per_pass(3, False):.6f} s)")
    print(f"cands_per_s = {metrics['cands_per_s']:.1f} candidates/s "
          f"({inputs.cands} candidates / wall_s)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.3f} MB (ru_maxrss)")
    print(f"fail_ratio = {failed / checks.attempted:.6f} ratio "
          f"({failed} failed / {checks.attempted} checks)")
    print(f"pass_ratio = {metrics['pass_ratio']:.6f} ratio (1 - fail_ratio)")
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def traced(sl, args, checks: wl.Checks) -> dict[str, dict]:
    """Per-layer metrics: one untraced pass, one pass (and set-up) with
    spans, one pass (and set-up) counting scalar ops."""
    inputs = wl.build_inputs(sl, args.workload, args.size, args.seed)
    t0 = time.perf_counter()
    checks.merge(wl.run_pass(sl, inputs))
    plain_wall = time.perf_counter() - t0

    rec = bench_trace.SpanRecorder()
    patches = rec.install(sl)
    try:
        rec.phase = 1
        with rec.span("bench.setup"):
            traced_inputs = wl.build_inputs(sl, args.workload, args.size, args.seed)
        traced_inputs.report_digests = inputs.report_digests
        rec.phase = 2
        t0 = time.perf_counter()
        with rec.span("bench.pass"):
            checks.merge(wl.run_pass(sl, traced_inputs))
        traced_wall = time.perf_counter() - t0
    finally:
        patches.restore()

    scalars = bench_trace.ScalarCounter()
    patches = scalars.install(sl)
    try:
        counted_inputs = wl.build_inputs(sl, args.workload, args.size, args.seed)
        counted_inputs.report_digests = inputs.report_digests
        checks.merge(wl.run_pass(sl, counted_inputs))
    finally:
        patches.restore()

    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.size}.bin")
    rec.write(span_file)
    metrics = bench_trace.layer_metrics(
        rec, scalars, inputs.recurrence_space(), traced_wall / plain_wall
    )
    units = {name: unit for name, unit, _ in bench_trace.PER_LAYER}
    print(f"# {args.workload}: traced pass {traced_wall:.6f} s, untraced {plain_wall:.6f} s, "
          f"{len(rec.start)} spans in {os.path.relpath(span_file, ROOT)}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def run_one(args) -> int:
    sl = import_splitlab()
    checks = wl.Checks()
    print(f"# workload {args.workload}, size {args.size}, seed {args.seed}"
          + ("" if args.workload.startswith("ssc-") else " (ignored: this workload has no seeded input)"))
    metrics = traced(sl, args, checks) if args.trace else measure(sl, args, checks)
    for failure in checks.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not checks.failures else 1


def run_all(args) -> int:
    """Every workload in its own process; prints each one's lines and a
    combined result with metrics keyed <workload>.<metric>."""
    import_splitlab()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode not in (0, 1) or not lines:
            print(f"workload {name} did not report (exit {done.returncode})", file=sys.stderr)
            return 2
        res = json.loads(lines[-1])
        status = max(status, done.returncode)
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, metric in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=wl.SIZES, default="full",
                        help="tiny runs a few small points, for smoke tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.size, args.seed)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except Unavailable as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
