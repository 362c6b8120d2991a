#!/usr/bin/env python3
"""charmarch benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload march-wide --seed 1 --seconds 25 \
        --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Each job runs in worker processes (perfbench/worker.py), one at a
time, with BLAS pinned to one thread.

--trace 0  sets the workload up SETUP_SAMPLES times in fresh processes
           (setup_s is their median), then times closed-loop jobs for
           --seconds and prints the end-to-end metrics, with times in
           reference seconds (see refclock.py).
--trace 1  alternates untraced and traced jobs for --seconds and prints
           the per-layer metrics (self time per job, call counts).

The metric names and units are those of BENCHMARK.json.  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; the lines before it
are a readable table with sample counts and quartiles.  The exit code is
non-zero when any output check fails or the run cannot be made.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(mode, args, workdir, deadline):
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
                "PYTHONDONTWRITEBYTECODE": "1",
                "PYTHONPATH": os.path.join(ROOT, "src")})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(workdir, f"{mode}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    expected = os.path.join(ROOT, "src", "charmarch", "__init__.py")
    if result["package"] != expected:
        raise BenchError(f"worker imported {result['package']}, "
                         f"not {expected}")
    return result


def _p99(values):
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(args, workdir, deadline):
    samples = []
    for i in range(SETUP_SAMPLES - 1):
        sdir = os.path.join(workdir, f"setup{i}")
        samples.append(_worker("setup", args, sdir, deadline))
        shutil.rmtree(sdir)
    main = _worker("run", args, os.path.join(workdir, "run"), deadline)
    samples.append(main)
    setups = [s["setup_s"] for s in samples]
    # the same seed must give the same inputs in every process
    digests_differ = len({s["digest"] for s in samples}) != 1
    attempted = main["attempted"] + 1
    failed = main["failed"] + digests_differ

    jobs = main["jobs"]
    checks_ms = [1e3 * c for c in main["checks"]]
    # name -> (value, sample count, samples for the quartiles or None)
    rows = {
        "setup_s": (statistics.median(setups), len(setups), setups),
        "solve_s": (statistics.median(jobs), len(jobs), jobs),
        "checks_per_s": (len(checks_ms) / sum(jobs), len(checks_ms), None),
        "check_ms_p50": (statistics.median(checks_ms), len(checks_ms),
                         checks_ms),
        "check_ms_p99": (_p99(checks_ms), len(checks_ms), checks_ms),
        "peak_mem_mb": (main["peak_rss_kb"] / 1024.0, 1, None),
    }
    print(f"workload {args.workload}  seed {args.seed}  jobs "
          + " ".join(f"{j:.3f}" for j in jobs) + " reference s; raw "
          + " ".join(f"{j:.3f}" for j in main["raw_jobs"]) + " s; kernel "
          + " ".join(f"{1e3 * k:.4f}" for k in main["kernel_s"]) + " ms")
    print("set-up raw " + " ".join(f"{s['setup_raw_s']:.3f}"
                                    for s in samples) + " s")
    print(f"{'metric':<24}{'value':>14}  {'unit':<6}{'n':>7}"
          f"{'q1':>12}{'q3':>12}")
    for name, (value, n, samples) in rows.items():
        q = "".join(f"{x:>12.6g}" for x in _quartiles(samples)) \
            if samples else ""
        print(f"{name:<24}{value:>14.6g}  {args.units[name]:<6}{n:>7}{q}")
    print(f"{'failed_frac':<24}{failed / attempted:>14.6g}  {'1':<6}"
          f"{attempted:>7}")
    for key, val in sorted(main["figures"].items()):
        print(f"{key:<24}{val:>14.6g}")
    metrics = {name: rows[name][0] for name in args.units}
    return attempted, failed, metrics


def per_layer(args, workdir, deadline):
    res = _worker("trace", args, os.path.join(workdir, "trace"), deadline)
    self_t, counters = res["self"], res["counters"]
    values = {}
    for name, (s, calls) in self_t.items():
        values[f"{name}.s"] = s
        values[f"{name}.calls"] = calls
    for layer in LAYERS:
        values[f"{layer}.s"] = math.fsum(
            s for name, (s, _) in self_t.items()
            if name.split(".")[0] == layer)
    values.update(counters)
    xpoints = values.pop("charsolve.hypersurface_integrate.xpoints", 0.0)
    hs = values.get("charsolve.hypersurface_integrate.s", 0.0)
    values["charsolve.hypersurface_integrate.xpoints_per_s"] = \
        xpoints / hs if hs > 0 else 0.0
    job_s = statistics.median(res["traced"])
    untraced_s = statistics.median(res["untraced"])
    layers_s = sum(values[f"{layer}.s"] for layer in LAYERS)
    values.update({
        "trace.job_s": job_s,
        "trace.untraced_job_s": untraced_s,
        "trace.overhead_s": job_s - untraced_s,
        "trace.layers_s": layers_s,
        # self time of the job's root span: the benchmark's own code
        "trace.unaccounted_s": self_t["job"][0],
    })
    covered = layers_s / (layers_s + self_t["job"][0])
    print(f"workload {args.workload}  seed {args.seed}  traced jobs "
          f"{len(res['traced'])}  untraced jobs {len(res['untraced'])}")
    print(f"layer self times cover {100.0 * covered:.2f}% of the traced "
          f"job; untraced job - layers = {untraced_s - layers_s:.4g} s, "
          f"overhead {job_s - untraced_s:.4g} s")
    for layer in LAYERS:
        print(f"  {layer:<10} {values[layer + '.s']:>12.6g} s  "
              f"{100.0 * values[layer + '.s'] / layers_s:6.2f}%")
    metrics = {name: values.get(name, 0.0) for name in args.units}
    return res["attempted"], res["failed"], metrics


def main():
    deadline = time.monotonic() + DEADLINE_S
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "charmarch",
                                       "__init__.py")):
        sys.stderr.write(f"error: no charmarch sources under {ROOT}/src\n")
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    args.units = {m["name"]: m["unit"] for m in spec[kind]}
    workdir = os.path.join(ROOT, ".bench_out",
                           f"{args.workload}-{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        attempted, failed, metrics = (per_layer if args.trace else
                                      end_to_end)(args, workdir, deadline)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        for sub in ("run", "trace"):
            shutil.rmtree(os.path.join(workdir, sub, "systems"),
                          ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": args.units[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
