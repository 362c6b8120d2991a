#!/usr/bin/env python3
"""Self-convergence study for the marching solver on the 3D wave system.

Marches a manufactured y-dependent solution built from f = cos(u + x - y)
at several resolutions and reports the max-norm error against the closed
form together with the observed convergence order between levels.
"""
import argparse
import math

import numpy as np

import charmarch as cm
from charmarch import builtin

R2 = 1.0 / math.sqrt(2.0)


def sin_minus_y_terms(amp):
    return (
        cm.ProfileTerm(kind="sine", amp=amp, k=1.0,
                       trans=((1.0, 0.0), (0.0, 0.0))),
        cm.ProfileTerm(kind="sine", amp=amp, k=1.0, phase=math.pi / 2,
                       trans=((1.0, math.pi / 2), (0.0, 0.0))),
    )


def exact(slice_, grid, cy):
    x = np.arange(slice_.x_extent) * grid.dx
    y = np.arange(cy) * (2.0 * math.pi / cy)
    ph = np.sin((slice_.u_level + x)[:, None] - y[None, :])[None, :, :, None]
    return np.concatenate([-R2 * ph, ph, 0.0 * ph, -R2 * ph], axis=0)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="32,64,128,256",
                    help="comma-separated nx values")
    ap.add_argument("--Xtotal", type=float, default=2.0)
    args = ap.parse_args()

    a = cm.analyze(*cm.load_system(builtin.example_text("wave3d")))
    data = cm.DataSpec(
        q0=(sin_minus_y_terms(-R2), sin_minus_y_terms(1.0), ()),
        w0=(sin_minus_y_terms(-R2),))

    print("nx,cells_y,dx,max_error,order")
    prev = None
    for nx in (int(s) for s in args.sizes.split(",")):
        cy = max(8, nx // 4)
        grid = cm.GridSpec(X_total=args.Xtotal, nx=nx,
                           transverse=(cm.TransverseAxis(cells=cy),
                                       cm.TransverseAxis(cells=4)))
        trace = cm.march(a.canon, grid, data, report=a.report)
        err = max(float(np.abs(s.values - exact(s, grid, cy)).max())
                  for s in trace.slices)
        order = "" if prev is None else "%.3f" % math.log2(prev / err)
        print(f"{nx},{cy},{grid.dx:.6g},{err:.6e},{order}")
        prev = err


if __name__ == "__main__":
    main()
