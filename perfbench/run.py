"""zetavac benchmark: one workload per run, result as JSON on the last line.

    python3 perfbench/run.py --workload gauge_scan --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process makes the load.  It pins the OpenBLAS pool to
``nproc`` threads, builds the seeded inputs, runs one untimed warm-up
pass and then timed passes until ``--seconds`` have elapsed, checking
every result of every pass outside the timed region.  Set-up is also
repeated in a few short-lived child processes (``--setup-only``) so that
``setup_s`` is a median.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones, from passes run with spans around every
library call, alternated with untraced passes to measure the overhead.
Spans, the environment record and the result are written under
``.perfbench-results/``.  NOTES.md explains the workloads and metrics.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".perfbench-results")
SETUP_SAMPLES = 5  # this process plus four children
NPROC = len(os.sched_getaffinity(0))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import NumPy/SciPy/zetavac and build the inputs; the timed set-up."""
    # The pool size is read when OpenBLAS loads, so it is pinned before
    # NumPy and SciPy are imported.
    os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "zetavac")):
        sys.exit(f"error: {src}/zetavac not found; run from a zetavac source checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads

    if workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    build, run, check = workloads.WORKLOADS[workload]
    return build(seed), run, check


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def environment():
    import ctypes

    import numpy
    import scipy

    env = {
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "cpu_model": "unknown",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": "unknown (checkout is not a git repository)",
        "seed_drives": "gauge_scan z points only; convergence_sweep, vqe_chain and "
                       "probe_suite ignore the seed (see NOTES.md)",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    # Read the pool size back from the OpenBLAS copies NumPy and SciPy load.
    for name, prefix in (("numpy", "scipy_openblas64_"), ("scipy", "scipy_openblas")):
        libdir = os.path.join(os.path.dirname(sys.modules[name].__file__), "..", f"{name}.libs")
        try:
            lib = next(f for f in sorted(os.listdir(libdir)) if f.startswith("lib" + prefix))
            dll = ctypes.CDLL(os.path.join(libdir, lib))
            suffix = "64_" if name == "numpy" else ""
            get_threads = getattr(dll, f"scipy_openblas_get_num_threads{suffix}")
            get_config = getattr(dll, f"scipy_openblas_get_config{suffix}")
            get_config.restype = ctypes.c_char_p
            env[f"{name}_openblas_threads"] = get_threads()
            env[f"{name}_openblas"] = get_config().decode()
        except (OSError, StopIteration, AttributeError):
            env[f"{name}_openblas"] = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    ref = fh.read().strip()
        env["commit"] = ref
    return env


def pass_time(walls):
    """Lower quartile of the pass times: the benchmark's timing statistic.

    The work of a pass is deterministic, so slower passes measure other
    load on the host; NOTES.md compares this with the median and minimum.
    """
    return walls[0] if len(walls) == 1 else statistics.quantiles(walls, n=4, method="inclusive")[0]


def layer_metrics(tracer, counts, walls_untraced, walls_traced):
    """Per-layer metrics of BENCHMARK.json from the traced passes."""
    passes = tracer.per_pass()
    med = statistics.median
    out = {}
    names = set().union(*(p[2] for p in passes))
    for name in names:
        out[f"{name}.calls"] = med(len(p[1].get(name, ())) for p in passes)
        out[f"{name}.self_s"] = med(p[2].get(name, 0.0) for p in passes)
    ratio_ms = [1e3 * d for p in passes for d in p[1].get("gauge.gauge_ratio", ())]
    if ratio_ms:
        out["gauge.gauge_ratio.p50_ms"] = med(ratio_ms)
        out["gauge.gauge_ratio.p99_ms"] = statistics.quantiles(ratio_ms, n=100)[98]
    iters = sum(v for k, v in counts.items() if k.startswith("vqe.cg_iterations."))
    if iters:
        out["vqe.iter_ms"] = 1e3 * out["vqe.warm_started_chain.self_s"] / iters
    out.update(counts)
    out["trace.coverage"] = med(p[3] / p[0] for p in passes)
    out["trace.wall_s"] = pass_time(walls_traced)
    out["trace.overhead_s"] = pass_time(walls_traced) - pass_time(walls_untraced)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    inputs, run, check = setup(args.workload, args.seed)
    own_setup = time.perf_counter() - T_START
    if args.setup_only:
        print(repr(own_setup))
        return 0

    import resource

    import tracing

    setups = [own_setup] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    plain = tracing.library()
    run(plain, inputs)  # warm-up: the first LAPACK calls pay lazy set-up

    tracer = tracing.Tracer() if args.trace else None
    traced = tracing.library(tracer) if args.trace else None
    walls = {False: [], True: []}
    attempted = failed = 0
    failures, counts = [], {}
    begin = time.perf_counter()
    while True:
        for with_trace in ((False, True) if args.trace else (False,)):
            t0 = time.perf_counter()
            if with_trace:
                out = tracer.run_pass(run, traced, inputs)
            else:
                out = run(plain, inputs)
            walls[with_trace].append(time.perf_counter() - t0)
            verdicts, pass_counts = check(inputs, out)
            attempted += len(verdicts)
            bad = [name for name, good in verdicts if not good]
            failed += len(bad)
            failures.extend(bad)
            if with_trace:
                for key, value in pass_counts.items():
                    counts.setdefault(key, []).append(value)
        if time.perf_counter() - begin >= args.seconds:
            break

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.trace:
        counts = {k: statistics.median(v) for k, v in counts.items()}
        measured = layer_metrics(tracer, counts, walls[False], walls[True])
        declared = spec["per_layer"]
    else:
        measured = {
            "setup_s": statistics.median(setups),
            "wall_s": pass_time(walls[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_frac": (attempted - failed) / attempted,
        }
        declared = spec["end_to_end"]
    # A layer the workload never calls reports zero.
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "setup_samples_s": setups,
        "pass_wall_s": walls[False], "traced_pass_wall_s": walls[True],
        "failed_results": failures[:50], "failed_frac": failed / attempted,
        "all_measured": measured, "result": result,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2, default=float)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl", args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
