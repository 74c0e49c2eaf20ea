"""qwblock benchmark: one workload per process, checked and measured.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``cold-solve``  blocking() on parameter sets the process has not seen;
* ``warm-sweep``  in-process CLI sweeps and solves on built caches;
* ``crosscheck``  the truncated-walk oracle on the 18 golden points and
                  the pre-limit ladder nu = 50, 100, 200.

The load comes from one thread, with BLAS/OpenMP pinned to one thread.
With ``--trace 0`` the end-to-end metrics are measured with no wrappers;
with ``--trace 1`` every other operation runs under span wrappers and the
per-layer metrics are reported instead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_PROBES = 4     # fresh interpreters that repeat this process's imports
GOLDEN = ROOT / "tests" / "golden" / "oracle_golden.json"

# name: unit of the end-to-end metrics BENCHMARK.json lists
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op2_p50_s": "s",
              "work_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-solve", "warm-sweep", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-fault", action="store_true",
                        help="add a wrong B1 to the first checked operation "
                             "(used by the self-test)")
    return parser.parse_args(argv)


def probe_imports() -> float:
    """Seconds a fresh interpreter takes for the imports run.py makes."""
    code = ("import time; t0 = time.perf_counter(); "
            "import argparse, hashlib, json, os, platform, subprocess, sys, "
            "tempfile, pathlib; "
            f"sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
            "import workloads, spans; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def metadata(args) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": sha, "src_sha256": digest.hexdigest(),
            "src_lines": lines, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "grid_size": 512}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qwblock" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"perfbench: {SRC / 'qwblock'} or {GOLDEN} is missing; run "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["QW_GRID_SIZE"] = "512"
    sys.path.insert(0, str(SRC))

    import workloads as wl
    from spans import LAYERS, Tracer

    # the imports happen once here; fresh interpreters repeat them so that
    # setup_s takes a median like the rest of the set-up
    imports = [time.perf_counter() - T_START]
    imports += [probe_imports() for _ in range(IMPORT_PROBES)]
    import_s = wl.median(imports)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        reps = []
        for rep in range(wl.SETUP_REPEATS):
            t0 = time.perf_counter()
            golden = wl.Golden(GOLDEN)
            if args.workload == "warm-sweep":
                work = wl.WarmSweep(golden, args.seed, Path(tmp))
            else:
                work = wl.WORKLOADS[args.workload](golden, args.seed)
            work.setup(rep)
            reps.append(time.perf_counter() - t0)
        setup_s = import_s + wl.median(reps)

        tracer = Tracer() if args.trace else None
        run = wl.Run(tracer=tracer, plant_fault=args.plant_fault)
        t0 = time.perf_counter()
        work.timed(run, args.seconds)
        timed_s = time.perf_counter() - t0

    run.calibrate(force=True)
    # set-up ran just before the timed phase; the median calibration of
    # the whole run gives its speed (single short windows were too noisy)
    setup_speed = wl.CAL_REF_S / wl.median([c for _, c in run.cal])
    e2e, raw = {}, {}
    for norm, out in ((True, e2e), (False, raw)):
        m = work.metrics(run, norm)
        out.update({"setup_s": setup_s * (setup_speed if norm else 1.0),
                    "op_p50_s": wl.median(m["op"]),
                    "op2_p50_s": wl.median(m["op2"]),
                    "work_per_s": m["work_per_s"],
                    "peak_rss_mb": wl.peak_rss_mb()})
    fail_frac = run.failed / max(run.attempted, 1)

    print(f"workload {args.workload}  seed {args.seed}  timed {timed_s:.1f} s  "
          f"trace {args.trace}")
    print("meta " + json.dumps(metadata(args), sort_keys=True))
    print(f"setup_s {setup_s:.4f} s  (median of imports "
          f"{[round(t, 4) for t in imports]} + median of set-ups "
          f"{[round(r, 4) for r in reps]})")
    for (name, values, unit), (_, raw_values, _) in zip(
            work.report(run, True), work.report(run, False)):
        line = (f"{name} {wl.median(values):.6g} {unit}  n={len(values)}  "
                f"(raw {wl.median(raw_values):.6g})")
        tail = wl.tail_percentile(values)
        if tail:
            line += f"  p{tail[0]:g}={tail[1]:.6g}"
        print(line)
    if args.workload == "crosscheck":
        print(f"oracle_states_per_s {e2e['work_per_s']:.6g} 1/s  "
              f"(raw {raw['work_per_s']:.6g})")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"fail_frac {fail_frac:.4g}  (failed {run.failed} of "
          f"{run.attempted}: refused {run.refused}, wrong {run.wrong}, "
          f"untyped {run.untyped})")
    print("stats " + json.dumps(run.stats, sort_keys=True))
    cal = [c for _, c in run.cal]
    print(f"calibration median {wl.median(cal):.6g} s (n={len(cal)}), "
          f"reference {wl.CAL_REF_S} s")
    for name, value in e2e.items():
        print(f"metric {name} {value:.6g} {END_TO_END[name]}  "
              f"(raw {raw[name]:.6g})")

    if args.trace:
        metrics = layer_metrics(run, tracer, LAYERS, fail_frac)
        for name, entry in metrics.items():
            print(f"layer {name} {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in e2e.items()}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def layer_metrics(run, tracer, layers, fail_frac) -> dict:
    """Per-layer metrics of a traced run; the names BENCHMARK.json lists."""
    import workloads as wl

    summary = tracer.summary()
    out = {}
    for name, _, _ in layers:
        out[f"{name}.calls"] = {"value": summary[name]["calls"],
                                "unit": "count"}
        out[f"{name}.self_s"] = {"value": summary[name]["self_s"],
                                 "unit": "s"}
    pv_calls = summary["quadrature.integrate_pv"]["calls"]
    out["quadrature.integrand_evals_per_pv"] = {
        "value": (summary["boundary.theta1"]["calls"] / pv_calls
                  if pv_calls else 0.0), "unit": "count"}
    root_s = sum(row["total_s"] for name, row in summary.items()
                 if name not in {n for n, _, _ in layers})
    out["boundary.phi1_exponent_big.share"] = {
        "value": (summary["boundary.phi1_exponent_big"]["total_s"] / root_s
                  if root_s else 0.0), "unit": "ratio"}
    st = run.stats
    for name, key, unit in (("oracle.states", "oracle_states", "count"),
                            ("oracle.prelimit_states", "prelimit_states",
                             "count"),
                            ("oracle.rim_mass_max", "rim_mass_max", "1"),
                            ("oracle.residual_max", "oracle_residual_max",
                             "1"),
                            ("solver.cond_max", "cond_max", "1"),
                            ("check.golden_max_abs_err", "golden_max_abs_err",
                             "1"),
                            ("check.residual_max", "residual_max", "1")):
        out[name] = {"value": st[key], "unit": unit}
    out["check.fail_frac"] = {"value": fail_frac, "unit": "1"}
    traced = wl.median(run.traced_durations)
    untraced = wl.median(run.untraced_durations)
    out["trace.op_p50_s"] = {"value": traced, "unit": "s"}
    out["trace.untraced_op_p50_s"] = {"value": untraced, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    out["trace.missing_layers"] = {"value": len(tracer.missing),
                                   "unit": "count"}
    return out


if __name__ == "__main__":
    sys.exit(main())
