#!/usr/bin/env python3
"""Benchmark of the quasifolds package: one workload per run.

    python3 qfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
`src/` directory (pure Python, nothing to build).  With --trace 0 the run
reports the end-to-end metrics, measured for --seconds; with --trace 1 it
runs the same two rounds once untraced and once with per-layer wrappers
installed, and reports the per-layer metrics.  The last line of standard output is the result object;
the line before it records the interpreter, numpy, kernel backend and core
count.  Every operation's output is checked by qfbench/oracles.py; problems
go to standard error and make "correct" false.
"""

import os

# One thread per process, numpy's BLAS included.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("algebra-line", "algebra-circle", "bimodule", "point-queries")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
MIN_OPS = 100        # so that ten samples lie beyond the 90th percentile
# The traced run covers a fixed number of rounds instead of a time span, so
# that its call counts repeat exactly for a given seed and compare between
# versions of the program.
TRACE_ROUNDS = 2

# The CPUs this benchmark runs on change speed by up to 1.6x within a
# second, as neighbouring tenants come and go, and an operation takes as long
# as the state it happens to run in.  So each timed span is bracketed by a
# short fixed reference computation, and reported in reference-normalised
# time: raw time × REF_NOMINAL_S / (reference time measured around it).  A
# change to the program moves the span and not the reference, so it shows in
# full; a change of machine speed moves both and cancels.  REF_NOMINAL_S is
# the reference's typical duration on the 2-core machine the README figures
# come from, so normalised figures read as milliseconds there.
REF_NOMINAL_S = 0.8e-3


def reference_work():
    """Fixed interpreter work resembling the package's: Fraction arithmetic,
    tuple keys, dict stores and complex products."""
    total = 0
    for _ in range(5):
        acc = Fraction(0)
        seen = {}
        for i in range(1, 40):
            acc += Fraction(i, i + 3)
            seen[(i, acc.denominator % 97)] = complex(i, 1) * complex(1, -i)
        total += len(seen)
    return total


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_package():
    if not (SRC / "quasifolds" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC}; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads


def setup_probe(name, seed):
    """Child process body: set up, then report on stdout the reference time
    before and after (the least of three, which drops the first run's
    warm-up) and the total time spent on references."""
    t0 = time.perf_counter()
    before = min(reference_seconds() for _ in range(3))
    spent = time.perf_counter() - t0
    workloads = import_package()
    wl = workloads.WORKLOADS[name](seed)
    wl.inputs(0)
    t0 = time.perf_counter()
    after = min(reference_seconds() for _ in range(3))
    spent += time.perf_counter() - t0
    sys.stdout.write(f"ready {before!r} {after!r} {spent!r}\n")
    sys.stdout.flush()


def setup_seconds(name, seed) -> tuple:
    """Time from spawning a fresh interpreter to its ready signal, once per
    sample; the ready signal comes after import, models, atlases, groupoids,
    bi-atlases and the round-0 corpus.  Returns (normalised, raw) samples;
    the child's reference computations are subtracted from the raw time and
    set its speed."""
    norm, raw = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        words = line.split()
        if len(words) != 4 or words[0] != b"ready" or child.returncode != 0:
            sys.exit(f"error: set-up probe for {name} failed "
                     f"(exit {child.returncode})")
        r1, r2, spent = (float(w) for w in words[1:])
        raw.append(elapsed - spent)
        norm.append(raw[-1] * 2 * REF_NOMINAL_S / (r1 + r2))
    return norm, raw


def run_rounds(wl, seconds=None, rounds=None, tracer=None) -> dict:
    """Run whole rounds until `seconds` of wall time have passed and at
    least MIN_OPS operations were attempted (or exactly `rounds` rounds).
    Only the operations are timed; input generation and checks sit outside
    the timed spans.  Each span is normalised by the reference computations
    run just before and just after it, outside the tracer's window."""
    latencies, raw, problems, kinds = [], [], [], {}
    failed = 0
    start = time.perf_counter()
    r = 0
    while True:
        ops = wl.ops(wl.inputs(r))
        gc.collect()
        for op in ops:
            ref = reference_seconds()
            if tracer is not None:
                tracer.start()
            t0 = time.perf_counter()
            try:
                res = op.run()
            except Exception as exc:  # an operation that fails is counted
                failed += 1
                problems.append(f"{op.kind}: raised {exc!r}")
                continue
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.stop()
            ref += reference_seconds()
            raw.append(dt)
            dt *= 2 * REF_NOMINAL_S / ref
            latencies.append(dt)
            kinds.setdefault(op.kind, []).append(dt)
            problems.extend(f"{op.kind}: {p}" for p in op.check(res))
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif time.perf_counter() - start >= seconds \
                and len(latencies) + failed >= MIN_OPS:
            break
    return {"latencies": latencies, "raw": raw, "failed": failed,
            "problems": problems,
            "rounds": r, "wall": time.perf_counter() - start, "kinds": kinds}


def environment(args) -> dict:
    import platform

    import numpy
    from quasifolds import _kernels

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "kernels_backend": _kernels.BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def end_to_end(args, workloads) -> tuple:
    setups, raw_setups = setup_seconds(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    res = run_rounds(wl, seconds=args.seconds)
    lat, raw = sorted(res["latencies"]), sorted(res["raw"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3 if lat else 0.0, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3
                      if len(lat) >= 2 else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    detail = {"setup_samples_s": setups, "raw_setup_samples_s": raw_setups,
              "raw_op_p50_ms": statistics.median(raw) * 1e3 if raw else 0.0,
              "raw_verdicts_per_s": len(raw) / sum(raw) if raw else 0.0,
              "rounds": res["rounds"], "wall_s": res["wall"],
              "ops_by_kind": {k: {"count": len(v),
                                  "median_ms": statistics.median(v) * 1e3,
                                  "max_ms": max(v) * 1e3}
                              for k, v in sorted(res["kinds"].items())}}
    return res, metrics, detail


def traced(args, workloads) -> tuple:
    import tracing

    wl = workloads.WORKLOADS[args.workload](args.seed)
    plain = run_rounds(wl, rounds=TRACE_ROUNDS)
    tracer = tracing.Tracer()
    tracer.install(extra_modules=(workloads,))
    problems = [f"unwrapped binding {b}"
                for b in tracer.unbound_originals((workloads,))]
    res = run_rounds(wl, rounds=TRACE_ROUNDS, tracer=tracer)
    res["problems"] = problems + plain["problems"] + res["problems"] \
        + tracing.activity_problems(tracer, args.workload)
    metrics = {name: (value, tracing.unit_of(name))
               for name, value in tracer.metrics().items()}
    # normalised operation time, traced minus untraced, over the same rounds
    metrics["trace.overhead_s"] = (sum(res["latencies"])
                                   - sum(plain["latencies"]), "s")
    detail = {"rounds": res["rounds"], "untraced_wall_s": plain["wall"],
              "traced_wall_s": res["wall"], "spans": tracer.table()}
    return res, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    workloads = import_package()
    env = environment(args)
    res, metrics, detail = (traced if args.trace else end_to_end)(args, workloads)
    for p in res["problems"][:20]:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": not res["problems"],
        "attempted": len(res["latencies"]) + res["failed"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"env": env, "result": result, "detail": detail,
                                "problems": res["problems"][:100]},
                               indent=1, sort_keys=True) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
