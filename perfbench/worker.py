#!/usr/bin/env python3
"""One benchmark process: set-up, then a timed or a traced loop of jobs.

    worker.py setup|run|trace --workload W --seed N --seconds S --workdir DIR

`setup` builds the inputs and stops; `run` then times closed-loop jobs
(one client) until their busy time reaches S seconds; `trace` alternates
untraced and traced jobs for S seconds.  Every job's output is checked
outside the timed region.  The result is one JSON object on stdout.

Set-up time is counted from the first line of this file, so it includes
importing numpy, scipy and charmarch.  Times are in reference seconds
(see refclock.py), with the raw seconds beside them.  The reference clock
starts in main(), once refclock has imported numpy for its kernel; the
time before that, mostly numpy's import, is counted in raw seconds.
`trace` stops the clock after set-up, so that no kernel time lands in a
span.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import refclock  # noqa: E402


def _setup(args, clock):
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    unclocked = clock.started - _T0
    return wl, {"setup_s": unclocked + clock.now(),
                "setup_raw_s": unclocked + clock.raw()}


class _Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.figures = {}

    def add(self, attempted, failed, figures):
        self.attempted += attempted
        self.failed += failed
        for key, val in figures.items():
            val = float(val)
            self.figures[key] = max(val, self.figures.get(key, val))


def _more(busy, last, seconds):
    """Start another job unless it would end more than half a job after
    the measuring window."""
    return busy + last / 2 < seconds


def run(args, clock):
    wl, setup = _setup(args, clock)
    tally = _Tally()
    raw, jobs, checks, kernel = [], [], [], []
    while not raw or _more(sum(raw), raw[-1], args.seconds):
        first = len(clock.samples)
        job_checks = []
        t, r = clock.now(), clock.raw()
        out = wl.job(job_checks.append, clock.now)
        jobs.append(clock.now() - t)
        raw.append(clock.raw() - r)
        kernel.append(clock.kernel_s(first))
        checks.extend(job_checks)
        tally.add(*wl.verify(out))
        del out
        gc.collect()
    clock.stop()
    tally.add(*wl.final_check())
    return {**setup, "digest": wl.digest(), "jobs": jobs, "raw_jobs": raw,
            "kernel_s": kernel, "checks": checks,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "attempted": tally.attempted, "failed": tally.failed,
            "figures": tally.figures}


def _observers():
    def xpoints(args, kwargs, result):
        return {"charsolve.hypersurface_integrate.xpoints":
                result.x_extent - 1}

    def trace_bytes(args, kwargs, result):
        return {"charsolve.trace_bytes_computed":
                sum(s.values.nbytes for s in result.slices)}

    def verdict(args, kwargs, result):
        return {f"wellposed.verdict.{result.verdict.value}": 1}

    return {"charsolve.hypersurface_integrate": xpoints,
            "charsolve.march": trace_bytes,
            "wellposed.check_criteria": verdict}


def trace(args, clock):
    from tracer import Tracer
    wl, setup = _setup(args, clock)
    clock.stop()
    tracer = Tracer(_observers())
    tally = _Tally()
    untraced, traced, busy = [], [], []
    while not traced or _more(sum(busy), busy[-1], args.seconds):
        if len(untraced) <= len(traced):
            t = time.perf_counter()
            out = wl.job(lambda s: None, time.perf_counter)
            untraced.append(time.perf_counter() - t)
            busy.append(untraced[-1])
        else:
            tracer.job = len(traced)
            tracer.install()
            try:
                t = time.perf_counter()
                out = tracer.wrap("job", wl.job)(lambda s: None,
                                                 time.perf_counter)
                traced.append(time.perf_counter() - t)
                busy.append(traced[-1])
            finally:
                tracer.uninstall()
                tracer.job = None
        tally.add(*wl.verify(out))
        del out
        gc.collect()
    tally.add(*wl.final_check())
    tracer.write(os.path.join(args.workdir, "spans.jsonl"))
    n = len(traced)
    per_job = {name: (s / n, calls / n)
               for name, (s, calls) in tracer.self_times().items()}
    return {**setup, "untraced": untraced, "traced": traced,
            "self": per_job,
            "counters": {k: v / n for k, v in tracer.counters.items()},
            "attempted": tally.attempted, "failed": tally.failed,
            "figures": tally.figures}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    clock = refclock.RefClock()
    clock.start()
    try:
        args = ap.parse_args()
        os.makedirs(args.workdir, exist_ok=True)
        if args.mode == "setup":
            wl, setup = _setup(args, clock)
            result = {**setup, "digest": wl.digest()}
        else:
            result = (run if args.mode == "run" else trace)(args, clock)
    finally:
        clock.stop()
    import charmarch
    result["package"] = os.path.abspath(charmarch.__file__)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
