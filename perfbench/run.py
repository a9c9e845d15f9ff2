"""gsim benchmark: one workload per run, closed loop, one client, one process.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs every
operation untraced and then again traced, and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# BLAS is pinned to one thread here, by the launcher, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# cold set-ups per run: this process's own and SETUP_REPS - 1 fresh processes
SETUP_REPS = 3
# The host-speed probe: PROBE_REPS rounds of fixed work, which take
# PROBE_NOMINAL_S at the nominal speed that the timed figures are scaled to.
PROBE_REPS = 60
PROBE_NOMINAL_S = 0.004
# a run stops early only once its op time passes this many times --seconds
MAX_STRETCH = 5
_PROBE_M = np.array([[1.3 + 0.2j, 0.4], [0.1 - 0.3j, 0.9 + 0.1j]])
_PROBE_V = np.linspace(0.0, 1.0, 64) * (0.3 + 0.7j)


def host_probe() -> float:
    """Seconds for a fixed slice of small-matrix LAPACK calls, counter-based
    generator set-up and short complex vector arithmetic, the kinds of work
    gsim's operations are made of; it tracks the speed of the host over time
    and shares no code with gsim."""
    t0 = time.perf_counter()
    for k in range(PROBE_REPS):
        np.linalg.solve(_PROBE_M, _PROBE_M)
        np.linalg.cond(_PROBE_M)
        np.random.Generator(np.random.Philox(key=k)).standard_normal(4)
        float(np.abs(np.exp(_PROBE_V) @ _PROBE_V.conj()))
    return time.perf_counter() - t0


def cold_setup(args):
    """One cold set-up in a process that has not loaded gsim yet: import the
    gsim modules the workloads use (``apps`` and ``cli`` included), build the
    workload's library states and inputs, and run one warm-up operation.
    Returns (seconds, workload)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gsim", "__init__.py")):
        sys.exit(f"benchmark error: no gsim sources under {src}")
    if "gsim" in sys.modules:
        sys.exit("benchmark error: gsim was loaded before the cold set-up")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import gsim
    import workloads  # imports gsim.apps, gsim.cli, gsim.simulator and gsim.states

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, _out_dir(args))
    wl.build()
    wl.run(wl.cycle(0)[0])  # the one warm-up op
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(gsim.__file__).startswith(src + os.sep):
        sys.exit(f"benchmark error: imported gsim from {gsim.__file__}, not from {src}")
    return elapsed, wl


def _out_dir(args) -> str:
    return os.path.join(OUT_DIR, f"{args.workload}-{args.seed}")


def timed_setup(args):
    """(seconds at nominal host speed, wall seconds, workload) of one cold set-up."""
    host_probe()  # the first call pays numpy's own lazy set-up
    before = statistics.median(host_probe() for _ in range(3))
    wall, wl = cold_setup(args)
    after = statistics.median(host_probe() for _ in range(3))
    return wall * 2.0 * PROBE_NOMINAL_S / (before + after), wall, wl


def fresh_setups(args, n: int) -> list:
    """(nominal, wall) seconds of ``n`` cold set-ups, each in a fresh process
    run to its end."""
    times = []
    for _ in range(n):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"benchmark error: set-up process exit {proc.returncode}: {proc.stderr[-400:]}")
        times.append(tuple(float(v) for v in proc.stdout.split()[-2:]))
    return times


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_reported": _blas_threads(),
        "workload_seed": seed,
        "git_commit": commit,
    }


def _tally():
    from gsim import counters

    t = counters.tally
    return (t.amplitude_evals, t.overlap_evals, t.samples)


def run_op(op, call) -> tuple:
    """(op, seconds, result or exception, tally counts) for one operation."""
    from gsim import counters

    counters.tally.reset()
    t0 = time.perf_counter()
    try:
        result = call(op)
    except Exception as exc:  # an op that raises is a failed op; keep measuring
        result = exc
    dt = time.perf_counter() - t0
    return op, dt, result, _tally()


def _busy(records) -> float:
    return sum(dt for _, dt, _, _ in records)


def measure(wl, n_cycles: int, seconds: float):
    """``n_cycles`` whole cycles; a host-speed probe runs before every op and
    after the last.  Only a program far slower than the cycle size assumes
    (op time past MAX_STRETCH x ``seconds``) ends the run early, at the end
    of a cycle, so that it still ends within its time limit."""
    records, probes = [], []
    for c in range(n_cycles):
        if _busy(records) > MAX_STRETCH * seconds:
            break
        for op in wl.cycle(c):
            probes.append(host_probe())
            records.append(run_op(op, wl.run))
    probes.append(host_probe())
    return records, probes


def at_nominal_speed(records, probes) -> list:
    """Each op's seconds scaled to the host speed at which the probe takes
    PROBE_NOMINAL_S, by the mean of the probes just before and after it."""
    return [
        dt * 2.0 * PROBE_NOMINAL_S / (probes[i] + probes[i + 1])
        for i, (_, dt, _, _) in enumerate(records)
    ]


def measure_traced(wl, n_cycles: int, seconds: float, tracer):
    """``n_cycles`` whole cycles, each op untraced and then again traced;
    alternating keeps host speed drifts out of the overhead figure."""
    untraced, traced = [], []
    for c in range(n_cycles):
        if _busy(untraced) > MAX_STRETCH * seconds:
            break
        for op in wl.cycle(c):
            untraced.append(run_op(op, wl.run))
            tracer.install()
            try:
                traced.append(run_op(op, lambda o: tracer.run_op(wl.run, o)))
            finally:
                tracer.uninstall()
    return untraced, traced


def classify(wl, records, inject_wrong: bool) -> list:
    checked = []
    for op, _, result, _ in records:
        if isinstance(result, Exception):
            checked.append((op, result, "raised"))
            continue
        status = wl.check(op, result)
        if inject_wrong and status == "ok":
            result, inject_wrong = wl.corrupt(result), False
            status = wl.check(op, result)
        checked.append((op, result, status))
    statuses = wl.run_check(checked)
    return [(op, res, st) for (op, res, _), st in zip(checked, statuses)]


def latency_stats(seconds, statuses, window: float):
    """p50, tail, tail percentile and sample count over per-op ``seconds``.

    A failed op ranks above every success: it counts as taking the whole
    timed ``window``, as if it never completed within the run."""
    lat = sorted(1e3 * (dt if st == "ok" else window) for dt, st in zip(seconds, statuses))
    n = len(lat)
    p50 = statistics.median(lat)
    if n > 10:
        tail, pct = lat[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = lat[-1], 100.0
    return p50, tail, pct, n


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_workload(args) -> int:
    nominal_s, wall_s, wl = timed_setup(args)
    if args.setup_only:
        print(repr(nominal_s), repr(wall_s))
        return 0
    setup = [(nominal_s, wall_s)] + fresh_setups(args, SETUP_REPS - 1)
    setup_s = statistics.median(t for t, _ in setup)
    import tracing

    env = environment(args.seed)

    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}", "environment " + json.dumps(env)]
    if not args.trace:
        n_cycles = wl.n_cycles(args.seconds)
        records, probes = measure(wl, n_cycles, args.seconds)
    else:
        tracer = tracing.Tracer()
        n_cycles = wl.n_cycles(args.seconds / 2.0)
        untraced, records = measure_traced(wl, n_cycles, args.seconds / 2.0, tracer)
        if [r[3] for r in records] != [r[3] for r in untraced]:
            sys.exit("benchmark error: per-op tally counts differ between the untraced and traced passes")
        lines.append("per-op tally counts repeat exactly between the untraced and traced passes")

    # read before the references are built, which allocate oracle tables
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.reference()
    checked = classify(wl, records, args.inject_wrong)
    statuses = [st for _, _, st in checked]
    attempted = len(records)
    n_ok = statuses.count("ok")
    failed = attempted - n_ok
    correct = "wrong" not in statuses
    timed_s = _busy(records)
    lines += wl.summary(checked)
    lines.append(f"{n_cycles} cycles planned" + ("" if attempted == n_cycles * len(wl.cycle(0)) else
                 f"; the run stopped early after {MAX_STRETCH} x --seconds of op time"))
    by_label = {}
    for (op, dt, _, _), st in zip(records, statuses):
        by_label.setdefault(op.label, []).append(dt * 1e3)
    lines.append("median latency by class: " + ", ".join(
        f"{k} {statistics.median(v):.1f} ms (n={len(v)})" for k, v in sorted(by_label.items())))
    lines.append(f"ops {attempted}, ok {n_ok}, raised {statuses.count('raised')}, "
                 f"missed their band {statuses.count('missed')}, wrong {statuses.count('wrong')}")

    if not args.trace:
        nominal = at_nominal_speed(records, probes)
        p50, tail, pct, n = latency_stats(nominal, statuses, sum(nominal))
        raw_p50, raw_tail, _, _ = latency_stats([r[1] for r in records], statuses, timed_s)
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "ops_per_s": _metric(n_ok / sum(nominal), "1/s"),
            "latency_p50_ms": _metric(p50, "ms"),
            "latency_tail_ms": _metric(tail, "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        if statuses.count("ok") <= n / 2:
            lines.append("the median and the tail fall on failed ops, which count as the whole timed window")
        elif n > 10 and statuses.count("ok") < n - 10:
            lines.append("the tail falls on a failed op, which counts as the whole timed window")
        lines.append(f"latency over {n} ops; tail is p{pct:.1f}, the highest percentile with ten samples beyond it")
        lines.append(f"ops_per_s: {n_ok} correct ops in {sum(nominal):.3f} s of op time at nominal speed")
        lines.append(
            f"host-speed probe: median {1e3 * statistics.median(probes):.3f} ms over {len(probes)} probes "
            f"(nominal {1e3 * PROBE_NOMINAL_S:.3f} ms); wall-clock figures: ops_per_s {n_ok / timed_s:.4g}, "
            f"latency_p50_ms {raw_p50:.4g}, latency_tail_ms {raw_tail:.4g}"
        )
        lines.append(f"setup_s is the median of {SETUP_REPS} cold set-ups at nominal speed, one in this process "
                     f"and {SETUP_REPS - 1} in fresh ones: " + ", ".join(f"{t:.4f}" for t, _ in setup)
                     + " s; wall-clock: " + ", ".join(f"{w:.4f}" for _, w in setup) + " s")
        extra = {"fail_frac": _metric(failed / attempted, "ratio")}
    else:
        agg = tracer.aggregate()
        per_op = np.mean([r[3] for r in records], axis=0)
        tally = dict(zip(("amplitude_evals", "overlap_evals", "samples"), per_op))
        untraced_s = _busy(untraced)
        metrics = tracing.layer_metrics(agg, attempted, tally, timed_s, untraced_s)
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl.gz")
        tracer.write(span_file)
        lines.append(f"{len(tracer.spans)} spans written to {os.path.relpath(span_file, ROOT)}")
        extra = {}

    for line in lines:
        print(line)
    for name, m in {**metrics, **extra}.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def smoke() -> int:
    """Every workload at tiny size: metric names and units, and the gate."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []

    def run(workload, trace, *extra):
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            problems.append(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-400:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    for w in spec["workloads"]:
        for trace in (0, 1):
            res = run(w["name"], trace)
            if res is None:
                continue
            for m in want[trace]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{w['name']} trace {trace}: metric {m['name']} missing or wrong unit")
            print(f"smoke {w['name']} trace {trace}: attempted {res['attempted']} failed {res['failed']}")
        res = run(w["name"], 0, "--inject-wrong")
        if res is not None and (res["failed"] < 1 or res["correct"]):
            problems.append(f"{w['name']}: an injected wrong value was not counted as failed")
    for p in problems:
        print("SMOKE FAIL", p)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["exact-sweep", "approx-default", "circuit-programs", "optimize"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke mode")
    parser.add_argument("--inject-wrong", action="store_true", help="corrupt one result before the gate")
    parser.add_argument("--smoke", action="store_true", help="run every workload at tiny size and check the output")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
