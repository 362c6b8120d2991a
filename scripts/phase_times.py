#!/usr/bin/env python3
"""Phase times of the march and the estimate check, as one JSON object.

The inputs are the benchmark's own, seed 1 (perfbench/workloads.py): the
grids, data and verify_estimate ladders of estimate-dense (damped wave3d,
nx = 128) and march-wide (wave3d, nx = 256).  Each round times one `march`
call and, for its length, the library's own loop, through timers around
the stepper build, the evolution steps, the hypersurface passes and the
slice checks (seconds of time.perf_counter summed over the march).  Then
the energy forms of the trace are built on their own, and the ladder is
run on the forms kept.  Each figure is the median over --repeats rounds,
after one untimed warm-up.  A loop phase whose timer is never entered (its
method renamed or inlined) makes the script exit 1, naming the phase.

    PYTHONPATH=src python scripts/phase_times.py [--repeats R]
"""
import argparse
import contextlib
import json
import pathlib
import statistics
import sys
import time
from unittest import mock

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "perfbench"))

import charmarch as cm  # noqa: E402
from charmarch import charsolve, energymon  # noqa: E402
from workloads import EstimateDense, MarchWide  # noqa: E402

PHASES = ("stepper_build", "evolve", "fill_null", "check", "march", "forms",
          "ladder")
# the loop phases of `march`, each the (owner, name) its timer wraps
LOOP = {"stepper_build": (charsolve._Stepper, "__init__"),
        "evolve": (charsolve._Stepper, "evolve"),
        "fill_null": (charsolve._Stepper, "fill_null"),
        "check": (charsolve, "_slice_max")}


def _timer(fn, phase, times, calls):
    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times[phase] += time.perf_counter() - t
            calls[phase] += 1
    return timed


def one_round(w, calls):
    """Phase times of one march and ladder of `w`; counts into `calls`."""
    clock = time.perf_counter
    times = dict.fromkeys(PHASES, 0.0)
    with contextlib.ExitStack() as stack:
        for phase, (owner, name) in LOOP.items():
            stack.enter_context(mock.patch.object(owner, name, _timer(
                getattr(owner, name), phase, times, calls)))
        t = clock()
        trace = cm.march(w.canon, w.grid, w.data, report=w.report)
        times["march"] = clock() - t
    t = clock()
    energymon._forms(trace, w.cf)
    times["forms"] = clock() - t
    t = clock()
    for T in w.ladder:
        cm.verify_estimate(trace, w.cf, w.report, T)
    times["ladder"] = clock() - t
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--repeats", type=int, default=20)
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    out = {}
    for name, w in (("estimate-dense", EstimateDense(1, None)),
                    ("march-wide", MarchWide(1, None))):
        calls = dict.fromkeys(LOOP, 0)
        rounds = [one_round(w, calls) for _ in range(args.repeats + 1)][1:]
        missed = [phase for phase, n in calls.items() if not n]
        if missed:
            sys.exit(f"phase_times: {name}: march never entered "
                     f"{', '.join(missed)}")
        out[name] = {
            "nx": w.grid.nx, "cells": list(w.grid.cells),
            "slices": w.grid.nx + 1, "surfaces": len(w.ladder),
            "repeats": args.repeats,
            "median_s": {p: statistics.median(r[p] for r in rounds)
                         for p in PHASES}}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    sys.exit(main())
