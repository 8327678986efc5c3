"""braidmono benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload program-braids --seed 1 --seconds 30 --trace 0

The library is imported from ./src.  --trace 0 times a fixed batch of
operations with tracing off and reports the end-to-end metrics; --trace 1
runs the same batch traced and reports per-layer metrics.  Times are
calibrated for host speed (see CalibratedClock).  Every answer is
checked outside the timed region.  Earlier stdout lines carry the host
record and details; the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SNIPPET = "import braidmono; braidmono.default_targets(); braidmono.fixtures()"
SETUP_REPEATS = 9
TAIL_ABOVE = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# Host-speed calibration.  On the shared host this benchmark was built
# on, the same code runs up to half again slower for seconds to minutes
# at a time, and whole runs move together.  Next to every timed call the
# benchmark times a fixed pure-Python loop (the probe) and scales the
# call's wall time by CALIBRATION_NOMINAL_S over the mean of the probes
# just before and just after it.  A time so scaled is in seconds at the
# host speed at which the probe takes CALIBRATION_NOMINAL_S (about the
# quiet speed of that host).  The program under test never runs inside a
# probe, so no change to it can move the scale.  The unscaled wall times
# are printed on the `detail` line.
CALIBRATION_LOOPS = 20000
CALIBRATION_REPEATS = 2
CALIBRATION_NOMINAL_S = 0.0022


def probe() -> float:
    """Fastest of CALIBRATION_REPEATS timings of the fixed loop."""
    best = math.inf
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class CalibratedClock:
    """Times calls in wall seconds and in calibrated seconds.

    Each call is bracketed by probes; the probe after one call is the
    probe before the next.  `speeds` keeps the host speed seen at each
    call, as CALIBRATION_NOMINAL_S over the mean of its two probes.
    """

    def __init__(self):
        self.last = probe()
        self.speeds = []

    def time(self, fn, *args):
        """Returns (result, error, wall seconds, calibrated seconds)."""
        t0 = time.perf_counter()
        try:
            result, err = fn(*args), None
        except Exception as e:  # a failed operation, counted and reported
            result, err = None, "%s: %s" % (type(e).__name__, e)
        wall = time.perf_counter() - t0
        after = probe()
        speed = CALIBRATION_NOMINAL_S / ((self.last + after) / 2)
        self.last = after
        self.speeds.append(speed)
        return result, err, wall, wall * speed


def setup_seconds(src: str) -> float:
    """Median calibrated time of a fresh interpreter doing the library's set-up.

    One untimed run fills the bytecode cache.
    """
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-c", SETUP_SNIPPET]
    subprocess.run(cmd, env=env, check=True)
    clock = CalibratedClock()
    times = []
    for _ in range(SETUP_REPEATS):
        _, err, _, cal = clock.time(lambda: subprocess.run(cmd, env=env, check=True))
        if err is not None:
            raise RuntimeError("set-up run failed: " + err)
        times.append(cal)
    return statistics.median(times)


def host_record(args) -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except Exception:  # numpy builds differ in what they expose
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_batch(workload, ctx, batch, call):
    """Run every operation once.

    Returns (answers, errors, wall latencies, calibrated latencies,
    host speeds).
    """
    clock = CalibratedClock()
    answers, errors, wall, cal = [], [], [], []
    for _, item in batch:
        answer, err, w, c = clock.time(call, workload.run, ctx, item)
        answers.append(answer)
        errors.append(err)
        wall.append(w)
        cal.append(c)
    return answers, errors, wall, cal, clock.speeds


def judge(workload, ctx, batch, answers, errors):
    """Indices of operations that raised or returned a wrong answer."""
    return [
        k for k, ((_, item), ans, err) in enumerate(zip(batch, answers, errors))
        if err is not None or not workload.check(ctx, item, ans)
    ]


def goodput(lat, bad):
    """Right operations per second of operation time."""
    return (len(lat) - len(bad)) / sum(lat)


def tail(lat):
    """Latency at the highest percentile with TAIL_ABOVE operations above it.

    Returns the latency, its percentile and the number of operations
    above it (fewer than TAIL_ABOVE only when the batch is that small).
    """
    s = sorted(lat)
    k = max(0, len(s) - TAIL_ABOVE - 1)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - k - 1


def describe(item) -> str:
    text = repr(item)
    return text if len(text) <= 160 else text[:157] + "..."


def end_to_end(workload, ctx, batch, src):
    setup_s = setup_seconds(src)
    answers, errors, wall, cal, speeds = run_batch(workload, ctx, batch, lambda f, *a: f(*a))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bad = judge(workload, ctx, batch, answers, errors)
    tail_s, tail_pct, tail_above = tail(cal)
    n = len(batch)
    for k in bad:
        print("failed op %d: %s -> %s" % (k, describe(batch[k]), errors[k] or "wrong answer"))
    print(json.dumps({"detail": {
        "ops": n, "op_tail_percentile": tail_pct, "op_tail_above": tail_above,
        "host_speed_p50": statistics.median(speeds),
        "wall_goodput_ops_per_s": goodput(wall, bad),
        "wall_op_p50_s": statistics.median(wall),
        "wall_op_tail_s": tail(wall)[0],
        "wall_ops_s": sum(wall),
    }}))
    metrics = {
        "setup_s": (setup_s, "s"),
        "goodput_ops_per_s": (goodput(cal, bad), "ops/s"),
        "op_p50_s": (statistics.median(cal), "s"),
        "op_tail_s": (tail_s, "s"),
        "ok_frac": ((n - len(bad)) / n, "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return n, len(bad), metrics


def per_layer(workload, ctx, batch):
    from spans import LAYERS, ROOT, TRACED, Tracer

    tracer = Tracer()
    with tracer:
        answers, errors, _, cal, _ = run_batch(workload, ctx, batch, tracer.op)
    bad = judge(workload, ctx, batch, answers, errors)

    stats = tracer.stats
    names = [f"{t[0]}.{t[1]}" for t in TRACED]
    total = stats[ROOT].self_s + sum(stats[name].self_s for name in names)
    n = len(batch)

    def pct(x):
        return 100.0 * x / total if total > 0 else 0.0

    metrics = {}
    rows = []
    for name, (_, _, _, counts) in zip(names, TRACED):
        st = stats[name]
        metrics[f"{name}.calls"] = (st.calls, "count")
        metrics[f"{name}.self_pct"] = (pct(st.self_s), "%")
        for key in counts:
            metrics[f"{name}.{key}"] = (st.counts[key], "count")
        rows.append((name, st.calls, st.self_s))
    cons = stats["presentations.is_consequence"]
    metrics["presentations.is_consequence.unknown_pct"] = (pct(cons.unknown_s), "%")
    metrics["presentations.is_consequence.derivable_ratio"] = (
        cons.counts["derivable"] / cons.calls if cons.calls else 0.0, "ratio")
    for layer in LAYERS:
        layer_s = sum(stats[name].self_s for name, t in zip(names, TRACED) if t[0] == layer)
        metrics[f"layer.{layer}.self_pct"] = (pct(layer_s), "%")
    metrics["trace.op.self_pct"] = (pct(stats[ROOT].self_s), "%")
    metrics["trace.total_s"] = (total, "s")
    # Tracing overhead: this against goodput_ops_per_s of a --trace 0 run.
    metrics["trace.goodput_ops_per_s"] = (goodput(cal, bad), "ops/s")

    rows.append((ROOT, stats[ROOT].calls, stats[ROOT].self_s))
    for name, calls, self_s in sorted(rows, key=lambda r: -r[2]):
        print("trace %-40s calls %8d self_s %10.4f %6.2f%%" % (name, calls, self_s, pct(self_s)))
    return n, len(bad), metrics


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "braidmono", "__init__.py")):
        print("perfbench: no braidmono package under %s; run from the repository root"
              % src, file=sys.stderr)
        return 2
    # One process generates the load; BLAS gets one thread.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)

    import braidmono
    from workloads import WORKLOADS, make_batch

    if not os.path.abspath(braidmono.__file__).startswith(src + os.sep):
        print("perfbench: imported braidmono from %s, not %s" % (braidmono.__file__, src),
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    print(json.dumps({"host": host_record(args)}))
    ctx = workload.setup()
    batch = make_batch(workload, args.seed, args.seconds, ctx)
    if args.trace:
        attempted, failed, metrics = per_layer(workload, ctx, batch)
    else:
        attempted, failed, metrics = end_to_end(workload, ctx, batch, src)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
