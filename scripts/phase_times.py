#!/usr/bin/env python3
"""Phase times of the march and the estimate check, as one JSON object.

Two grids, those of the benchmark's march workloads:
  estimate-dense  damped wave3d (D = -I), X = 0.5, nx = 128, cells (8, 4),
                  verify_estimate on every grid level X/9 <= T < c/r
  march-wide      wave3d, X = 2, nx = 256, cells (64, 4), sin(s - y) data,
                  verify_estimate on the eight-surface estimate ladder

For each grid, a march is rebuilt phase by phase through the stepper's own
methods on the nodal data of a `march`, and timed per phase (seconds of
time.perf_counter, summed over one march): the stepper build, the
evolution steps, the hypersurface passes and the slice checks.  Then the
energy forms of the trace are built on their own, and the ladder is run
on the forms kept.  `march` is the whole public call.  Each figure is the
median over --repeats marches, after one untimed warm-up.

    PYTHONPATH=src python scripts/phase_times.py [--nx N] [--repeats R]

--nx sets nx on both grids, keeping their cells and X (a small nx makes
a quick smoke run).
"""
import argparse
import dataclasses
import json
import math
import statistics
import sys
import time

import numpy as np

import charmarch as cm
from charmarch import builtin, charsolve, energymon

PHASES = ("stepper_build", "evolve", "fill_null", "check", "march", "forms",
          "ladder")


def _sine(amp, k=1.0, phase=0.0, trans=()):
    return cm.ProfileTerm(kind="sine", amp=amp, k=k, phase=phase,
                          trans=trans)


def cases(nx=None):
    """(name, analysis, grid, data, ladder) of the two grids, at their own
    nx or at `nx`."""
    system, chart = cm.load_system(builtin.example_text("wave3d"))
    damped = cm.analyze(dataclasses.replace(system, D=-np.eye(4)), chart)
    grid = cm.GridSpec(
        X_total=0.5, nx=128 if nx is None else nx,
        transverse=(cm.TransverseAxis(cells=8), cm.TransverseAxis(cells=4)))
    data = cm.DataSpec(
        q0=((_sine(0.8, k=2.0, trans=((1.0, 0.0), (0.0, 0.0))),), (), ()),
        w0=((_sine(1.2),),))
    dx = grid.dx
    ladder = [k * dx for k in range(math.ceil(grid.X_total / 9.0 / dx),
                                    grid.nx + 1)
              if k * dx < damped.report.T_max]
    yield "estimate-dense", damped, grid, data, ladder

    wave = cm.analyze(system, chart)
    r2 = 1.0 / math.sqrt(2.0)

    def sin_minus_y(amp):
        return (_sine(amp, trans=((1.0, 0.0), (0.0, 0.0))),
                _sine(amp, phase=math.pi / 2,
                      trans=((1.0, math.pi / 2), (0.0, 0.0))))

    grid = cm.GridSpec(
        X_total=2.0, nx=256 if nx is None else nx,
        transverse=(cm.TransverseAxis(cells=64), cm.TransverseAxis(cells=4)))
    data = cm.DataSpec(q0=(sin_minus_y(-r2), sin_minus_y(1.0), ()),
                       w0=(sin_minus_y(-r2),))
    yield "march-wide", wave, grid, data, cm.estimate_ladder(grid)


def one_round(a, grid, data, ladder):
    """The phase times of one march and its ladder, in seconds."""
    clock = time.perf_counter
    times = dict.fromkeys(PHASES, 0.0)
    t = clock()
    trace = cm.march(a.canon, grid, data, report=a.report)
    times["march"] = clock() - t
    nq, n = a.canon.nq, a.canon.n_unknowns
    nodal = np.empty((n, grid.nx + 1) + grid.cells)
    nodal[:nq] = trace.slices[0].values[:nq]
    nodal[nq:] = trace._x0_column()[nq:]

    t = clock()
    stepper = charsolve._Stepper(a.canon, grid, a.report.tols)
    times["stepper_build"] = clock() - t
    views = charsolve._slice_views(
        charsolve._trace_store(n, grid),
        [(n, width) + grid.cells for width in range(grid.nx + 1, 0, -1)])
    views[0][:nq] = nodal[:nq]
    for j, vals in enumerate(views):
        if j:
            t = clock()
            stepper.evolve(views[j - 1], vals)
            times["evolve"] += clock() - t
        vals[nq:, 0] = nodal[nq:, j]
        t = clock()
        stepper.fill_null(vals)
        times["fill_null"] += clock() - t
        t = clock()
        charsolve._slice_max(vals, nq, j * grid.dx, not j)
        times["check"] += clock() - t
    for got, made in zip(trace.slices, views):
        if got.values.tobytes() != made.tobytes():
            raise RuntimeError("the phase-by-phase march differs from march")

    t = clock()
    energymon._forms(trace, a.compact)
    times["forms"] = clock() - t
    t = clock()
    for T in ladder:
        cm.verify_estimate(trace, a.compact, a.report, T)
    times["ladder"] = clock() - t
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--nx", type=int, default=None,
                    help="nx of both grids (default: 128 and 256)")
    ap.add_argument("--repeats", type=int, default=20)
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.nx is not None and args.nx < 2:
        ap.error("--nx must be at least 2")
    out = {}
    for name, a, grid, data, ladder in cases(args.nx):
        one_round(a, grid, data, ladder)
        rounds = [one_round(a, grid, data, ladder)
                  for _ in range(args.repeats)]
        out[name] = {
            "nx": grid.nx, "cells": list(grid.cells), "slices": grid.nx + 1,
            "surfaces": len(ladder), "repeats": args.repeats,
            "median_s": {p: statistics.median(r[p] for r in rounds)
                         for p in PHASES}}
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
