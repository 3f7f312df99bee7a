"""Benchmark of the dunkl package: one workload per invocation.

    python3 perfbench/run.py --workload sph_a3_deep --seed 1 --seconds 38 --trace 0

Run it from the repository root (any checkout holding ``src/dunkl``).  With
``--trace 0`` it sets up five times in fresh processes, then runs rounds of
the workload (see ``workloads.py``) until the next one would end after
``--seconds``, checks every point, and prints the end-to-end metrics.  With
``--trace 1`` it runs round 0 untraced and then traced, checks that both give
bit-identical values, self-tests the counters, and prints the per-layer
metrics.  Human readable lines come first; the last line of standard output
is one JSON object.  Details, and the spans of a traced run, go to
``perfbench/out/``.

The load is one closed-loop client in one process: each point starts when
the previous one has returned.  BLAS and OpenMP use one thread.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
#: glibc mallopt parameters and the values the benchmark pins them to: the
#: state glibc's dynamic mmap threshold converges to (its 32 MiB maximum, and
#: a trim threshold of twice that).  Left dynamic, the threshold depends on
#: which large arrays were freed before, so round times of one workload
#: differed up to twofold from seed to seed.  See README.md, "The allocator".
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_PINS = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 64 << 20))
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
#: the 90th percentile is reported only with at least this many points a round
P90_MIN_POINTS = 100
#: the names in workloads.WORKLOADS; that module imports dunkl, which is set-up
WORKLOADS = ("sph_a3_deep", "sweep_small", "chamber_batch")


def pin_malloc() -> str:
    """Fix glibc's mmap and trim thresholds; say what was done."""
    name = ctypes.util.find_library("c")
    try:
        mallopt = ctypes.CDLL(name).mallopt
    except (OSError, AttributeError, TypeError):
        return "default (no mallopt)"
    if not all(mallopt(param, value) == 1 for param, value in MALLOC_PINS):
        return "default (mallopt refused)"
    return "mmap_threshold=32MiB trim_threshold=64MiB"


def machine_info(malloc: str = "default") -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "malloc": malloc,
    }


def load_workload(name: str, seed: int, out_dir: str | None):
    """Import dunkl and build the workload's inputs: set-up before warm-up."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import dunkl
    import workloads

    if not os.path.abspath(dunkl.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported dunkl from {dunkl.__file__}, not {SRC}")
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    return workloads.WORKLOADS[name](seed, ref, out_dir)


def setup_probe(name: str, seed: int) -> int:
    t0 = time.perf_counter()
    load_workload(name, seed, None).warm_up()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up time of fresh processes: import, inputs, warm-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def same_bits(a, b) -> bool:
    """Equality of float bit patterns: NaN equals NaN, -0.0 differs from 0.0."""
    if isinstance(a, float) and isinstance(b, float):
        return float.hex(a) == float.hex(b)
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    return a == b


def fingerprint(outcome) -> dict:
    """Label -> value of every point and report of a round."""
    out = {p.label: p.value for p in outcome.points}
    out.update({label: digest for label, digest, _ in outcome.report_checks})
    return out


def same_fingerprint(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)


def repeat_mismatches(outcomes) -> list[str]:
    """Labels whose value differs from the one an earlier round gave."""
    seen: dict = {}
    problems = []
    for i, oc in enumerate(outcomes, start=1):
        for label, value in fingerprint(oc).items():
            if label in seen and not same_bits(seen[label], value):
                problems.append(f"round {i}: {label} is not bit-identical "
                                "to its earlier value")
            seen.setdefault(label, value)
    return problems


def failure_groups(outcome) -> dict[tuple[str, str], int]:
    """(sweep or point label, cause) -> number of failed points."""
    groups: dict[tuple[str, str], int] = {}
    for p in outcome.points:
        if p.cause:
            key = (p.label.partition(" #")[0], p.cause)
            groups[key] = groups.get(key, 0) + 1
    return groups


def unexpected_failures(outcome, known: dict) -> list[str]:
    bad = [f"{sweep}: {cause} in {n} point(s)"
           for (sweep, cause), n in failure_groups(outcome).items() if sweep not in known]
    bad += [f"{label}: {cause}" for label, _, cause in outcome.report_checks if cause]
    return bad


def counter_self_test() -> list[str]:
    """Traced innermost rows equal spherical._predicted_evals, and traced
    values equal untraced ones bit for bit, at one A_2 and one A_3 point."""
    from dunkl import spherical
    from dunkl.rootsys import rootsystem
    from tracing import Tracer

    problems = []
    cases = ((2, None, (2.0, 1.0, 0.0), (1.1, 0.2, -0.5)),
             (3, (12, 10, 10), (3.0, 2.0, 1.0, 0.0), (1.5, 0.8, 0.1, -0.7)))
    for n, plan, lam, X in cases:
        rs = rootsystem(n, 0.75)
        plan = plan or spherical.default_node_plan(n)
        plain = spherical.spherical_log(rs, lam, X, plan)
        with Tracer() as tracer:
            traced = spherical.spherical_log(rs, lam, X, plan)
        predicted = int(spherical._predicted_evals(n, plan))
        if tracer.innermost_rows != predicted:
            problems.append(f"A_{n} plan {plan}: traced innermost rows "
                            f"{tracer.innermost_rows} != predicted {predicted}")
        if not same_bits(plain, traced):
            problems.append(f"A_{n} plan {plan}: traced {traced!r} != untraced {plain!r}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dunkl", "__init__.py")):
        print(f"no dunkl package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    malloc = pin_malloc()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    os.makedirs(os.path.join(OUT, "csv"), exist_ok=True)
    compileall.compile_dir(os.path.join(SRC, "dunkl"), quiet=1)
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)

    t0 = time.perf_counter()
    wl = load_workload(args.workload, args.seed, os.path.join(OUT, "csv"))
    import workloads
    from tracing import LAYER_METRICS, Tracer, layer_metrics

    setup_tracer = Tracer()
    with setup_tracer if args.trace else contextlib.nullcontext():
        wl.warm_up()
    main_setup_s = time.perf_counter() - t0

    problems: list[str] = []
    outcomes, walls = [], []
    window0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        outcomes.append(wl.run_round(len(outcomes)))
        walls.append(time.perf_counter() - p0)
        if args.trace or time.perf_counter() - window0 + walls[-1] > args.seconds:
            break
    problems += repeat_mismatches(outcomes)
    latencies = sorted(p.latency_s for oc in outcomes for p in oc.points)

    layers = None
    units = dict(LAYER_METRICS)
    if args.trace:
        tracer = Tracer()
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        p0 = time.perf_counter()
        with tracer:
            traced = wl.run_round(0)
        traced_wall = time.perf_counter() - p0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
        if not same_fingerprint(fingerprint(outcomes[0]), fingerprint(traced)):
            problems.append("the traced round is not bit-identical to the untraced round")
        problems += [f"traced function not found: {m}"
                     for m in tracer.missing + setup_tracer.missing]
        layers = layer_metrics(tracer.spans, tracer.innermost_rows,
                               setup_tracer.spans)
        layers["process.minor_faults"] = faults
        layers["trace.overhead_s"] = traced_wall - walls[0]
        problems += counter_self_test()
        outcomes.append(traced)

    known = workloads.KNOWN_DEFECTS
    attempted = sum(len(oc.points) for oc in outcomes)
    failed = sum(1 for oc in outcomes for p in oc.points if p.cause)
    for oc in outcomes:
        problems += unexpected_failures(oc, known)
    problems = list(dict.fromkeys(problems))
    per_round = len(outcomes[0].points)
    info = machine_info(malloc)
    end_to_end = {
        "setup_s": (statistics.median(setup_times) if setup_times else main_setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "point_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"setup_s": f"median of {len(setup_times)} fresh-process set-ups"
             if setup_times else "this process, warm-up traced",
             "wall_s": f"median of {len(walls)} untraced round(s)",
             "point_p50_ms": f"median of {len(latencies)} untraced point latencies"}

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# machine: " + json.dumps(info))
    print(f"# closed loop, 1 client, 1 process; {len(walls)} untraced round(s), "
          f"{per_round} points in round 1")
    for name, (value, unit) in end_to_end.items():
        print(f"{name:14s} = {value:.6g} {unit}  {notes.get(name, '')}")
    if per_round >= P90_MIN_POINTS:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        beyond = sum(1 for x in latencies if x > p90)
        print(f"{'point_p90_ms':14s} = {1e3 * p90:.6g} ms  "
              f"(n={len(latencies)} samples, {beyond} beyond it)")
    else:
        print(f"{'point_p90_ms':14s} = not reported ({per_round} < "
              f"{P90_MIN_POINTS} points a round)")
    print(f"{'failed_frac':14s} = {failed / attempted:.6g}  ({failed} of {attempted})")
    for (sweep, cause), n in failure_groups(outcomes[0]).items():
        note = f" [known defect: {known[sweep]}]" if sweep in known else ""
        print(f"  {sweep}: {cause} in {n} point(s) in round 1{note}")
    if layers is not None:
        print(f"# traced round {traced_wall:.4g} s vs untraced {walls[0]:.4g} s")
        for name, value in layers.items():
            print(f"{name:44s} = {value:.6g} {units[name]}")
    for p in problems:
        print(f"PROBLEM: {p}")

    if layers is None:
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in end_to_end.items()}
    else:
        metrics = {n: {"value": v, "unit": units[n]} for n, v in layers.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "setup_s_samples": setup_times,
              "round_walls_s": walls, "problems": problems, "result": result,
              "point_fields": ["round", "label", "latency_s", "cause"],
              "points": [[j, p.label, p.latency_s, p.cause]
                         for j, oc in enumerate(outcomes) for p in oc.points]}
    if args.trace:
        detail["span_fields"] = ["name", "start", "end", "parent", "attrs"]
        detail["spans"] = tracer.spans
        detail["setup_spans"] = setup_tracer.spans
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
