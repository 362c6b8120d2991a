#!/usr/bin/env python3
"""Energy-estimate sweep: march sine data at several resolutions and tabulate
the a priori bound margin and energy-balance residual on a ladder of
diagonal surfaces u + x = T.

With the wave system R = 0 and the bound factor is 1; pass --damping to set
D = -I, which turns on the exponential branch (R = -2I) and restricts the
ladder to T < c/r.
"""
import argparse
import contextlib
import sys

import numpy as np

import charmarch as cm
from charmarch import builtin
from charmarch.energymon import EstimateHorizonError


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="36,72,144")
    ap.add_argument("--Xtotal", type=float, default=2.0)
    ap.add_argument("--damping", action="store_true",
                    help="use D = -I (exponential growth factor)")
    args = ap.parse_args()

    sys_, chart = cm.load_system(builtin.example_text("wave3d"))
    if args.damping:
        import dataclasses
        sys_ = dataclasses.replace(sys_, D=-np.eye(4))
    a = cm.analyze(sys_, chart)
    if a.report.verdict is not cm.Verdict.WELL_POSED:
        sys.stderr.write(f"verdict is {a.report.verdict.value}; aborting\n")
        return 2

    data = cm.DataSpec(
        q0=((cm.ProfileTerm(kind="sine", amp=0.8, k=2.0,
                            trans=((1.0, 0.0), (0.0, 0.0))),), (), ()),
        w0=((cm.ProfileTerm(kind="sine", amp=1.2, k=1.0),),))

    print("nx," + cm.EnergyReport.CSV_HEADER)
    for nx in (int(s) for s in args.sizes.split(",")):
        grid = cm.GridSpec(X_total=args.Xtotal, nx=nx,
                           transverse=(cm.TransverseAxis(cells=8),
                                       cm.TransverseAxis(cells=4)))
        trace = cm.march(a.canon, grid, data, report=a.report)
        for T in cm.estimate_ladder(grid):
            with contextlib.suppress(EstimateHorizonError):
                rep = cm.verify_estimate(trace, a.compact, a.report, T)
                print(f"{nx}," + rep.csv_row())
    return 0


if __name__ == "__main__":
    sys.exit(main())
