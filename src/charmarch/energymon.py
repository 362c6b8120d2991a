"""Discrete norms, energy balance and a priori estimate verification.

Quadratures: cell-averaged (trapezoidal) rule along the data surfaces,
rectangle rule (exact for periodic trigonometric data) in the transverse
directions, per-point weight dx on the diagonal surface u + x = T, and
corner-averaged midpoint cells for the volume term.

The per-slice forms are computed once per trace and kept on it for every
later call: the C^u, Nu and R forms cell-summed at each x point of a slice
(the R form of a slice when the volume term first reaches it), and the C^x
and |w|^2 forms on the x = 0 column of every slice.  The tables are keyed
by the content of the matrix and belong to the trace's current slices;
marched traces are read-only.  Each call evaluates only the form
C^u + C^x on the diagonal points of its T.
"""
from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalSystem, CompactSystem
from .charsolve import GridSpec, SolutionTrace
from .matkit import Tolerances
from .wellposed import Verdict, WellPosednessReport


class RangeError(ValueError):
    """Requested T exceeds the region covered by the trace."""


class EstimateHorizonError(ValueError):
    """Requested T at or beyond the validity horizon c/r."""


@dataclass(frozen=True)
class EnergyReport:
    T: float
    norm_q0_sq: float
    norm_w0_sq: float
    sigma_norm_sq: float
    bound: float
    margin: float
    balance_residual: float
    holds: bool

    CSV_HEADER = ("T,norm_q0_sq,norm_w0_sq,sigma_norm_sq,bound,margin,"
                  "balance_residual,holds")

    def csv_row(self) -> str:
        return "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s" % (
            self.T, self.norm_q0_sq, self.norm_w0_sq, self.sigma_norm_sq,
            self.bound, self.margin, self.balance_residual,
            "true" if self.holds else "false")


def _quad_form(W: np.ndarray, plane: np.ndarray) -> np.ndarray:
    """v^T W v on each grid point of a field plane (component axis first)."""
    return np.einsum("a...,ab,b...->...", plane, W, plane)


def _cell_sum(pointwise: np.ndarray, trace: SolutionTrace) -> np.ndarray:
    """Sum over transverse cells times the transverse cell volume.

    Input has shape (...) + cells; output drops the transverse axes.
    """
    nt = len(trace.grid.transverse)
    out = pointwise
    for _ in range(nt):
        out = out.sum(axis=-1)
    return out * trace.grid.transverse_cell_volume()


def _line_integral(g: np.ndarray, h: float, K: int) -> float:
    """Cell-averaged quadrature of nodal values g over [0, K*h]."""
    if K == 0:
        return 0.0
    return float(h * (0.5 * g[0] + g[1:K].sum() + 0.5 * g[K]))


def _steps_for(T: float, h: float, limit: int, what: str) -> int:
    K = int(round(T / h))
    if abs(K * h - T) > 1e-9 * max(h, 1.0):
        warnings.warn(f"{what}: T={T!r} snapped to the nearest grid level "
                      f"{K * h!r}", stacklevel=3)
    if K < 0 or K > limit:
        raise RangeError(f"{what}: T={T!r} outside the trace coverage")
    return K


def _content(W: np.ndarray) -> tuple:
    """Key part naming a matrix by its content, never by its identity."""
    return (W.dtype.str, W.shape, W.tobytes())


def _table(trace: SolutionTrace, key: tuple, build):
    """The table stored on the trace under key, made by build() on first use.

    The store belongs to the trace's current slices: when a slice has been
    appended, removed or replaced since it was filled, it is emptied, so a
    table never describes other slices than the trace holds.
    """
    store = trace._forms
    built_from = store.get("slices")
    if built_from is None or len(built_from) != trace.n_slices \
            or not all(map(operator.is_, built_from, trace.slices)):
        store.clear()
        store["slices"] = tuple(trace.slices)
    if key not in store:
        store[key] = build()
    return store[key]


def _row(trace: SolutionTrace, W: np.ndarray, j: int) -> np.ndarray:
    """Cell-summed form of W, on the leading len(W) components, at each x
    point of slice j."""
    rows = _table(trace, ("row",) + _content(W),
                  lambda: [None] * trace.n_slices)
    if rows[j] is None:
        rows[j] = _cell_sum(
            _quad_form(W, trace.slices[j].values[:len(W)]), trace)
    return rows[j]


def _column(trace: SolutionTrace, key: tuple, form) -> np.ndarray:
    """Cell-summed form(v) at x = 0 of every slice, built in one pass."""
    def build():
        col = np.stack([s.values[:, 0] for s in trace.slices], axis=1)
        return _cell_sum(form(col), trace)
    return _table(trace, key, build)


def _volume_cells(trace: SolutionTrace, R: np.ndarray, top: int) -> list:
    """Corner-averaged R form on the cells between slices j-1 and j, for
    j = 1..top (list index j-1).

    Each slice's R form is computed when the volume term first reaches it,
    once per trace.
    """
    cells = _table(trace, ("volume",) + _content(R), list)
    while len(cells) < top:
        j = len(cells) + 1
        gl, gh = _row(trace, R, j - 1), _row(trace, R, j)
        n = max(0, min(len(gl) - 1, len(gh) - 1))
        cells.append(0.25 * (gl[:n] + gl[1:n + 1] + gh[:n] + gh[1:n + 1]))
    return cells[:top]


def _data_norms(trace: SolutionTrace, Nu: np.ndarray, nq: int, T: float):
    dx, du = trace.grid.dx, trace.grid.du
    Kx = _steps_for(T, dx, trace.slices[0].x_extent - 1, "norm_q0")
    Ku = _steps_for(T, du, trace.n_slices - 1, "norm_w0")
    norm_q0 = _line_integral(_row(trace, Nu, 0), dx, Kx)
    gw = _column(trace, ("|w|^2", nq),
                 lambda col: (col[nq:] ** 2).sum(axis=0))
    norm_w0 = _line_integral(gw, du, Ku)
    return norm_q0, norm_w0


def data_norms(trace: SolutionTrace, canon: CanonicalSystem, T: float):
    """(||q0||^2, ||w0||^2): weighted data norms on {u=0, x<=T} and
    {x=0, u<=T}."""
    return _data_norms(trace, canon.Nu, canon.nq, T)


def _diagonal_points(trace: SolutionTrace, T: float):
    """(slice index, x index) pairs on the diagonal u + x = T."""
    dx, du = trace.grid.dx, trace.grid.du
    pts = []
    warned = False
    for j, s in enumerate(trace.slices):
        xt = T - s.u_level
        if xt < -1e-9 * dx:
            break
        i = int(round(xt / dx))
        if not warned and abs(i * dx - xt) > 1e-9 * max(dx, 1.0):
            warnings.warn(
                f"sigma_norm: diagonal point at u={s.u_level!r} snapped to "
                "the nearest x node", stacklevel=3)
            warned = True
        if 0 <= i < s.x_extent:
            pts.append((j, i))
    if not pts:
        raise RangeError(f"no diagonal grid points found for T={T!r}")
    return pts


def sigma_norm(trace: SolutionTrace, cf: CompactSystem, T: float) -> float:
    """Norm of the solution on the surface u + x = T.

    Quadrature over grid points on the diagonal with weight dx times the
    transverse cell volume; off-grid T is snapped with a warning.
    """
    W = cf.C["u"] + cf.C["x"]
    dx = trace.grid.dx
    plane = np.stack([trace.slices[j].values[:, i]
                      for j, i in _diagonal_points(trace, T)], axis=1)
    total = 0.0
    for g in _cell_sum(_quad_form(W, plane), trace).tolist():
        total += dx * g
    return total


def balance_residual(trace: SolutionTrace, cf: CompactSystem,
                     T: float) -> float:
    """Residual of the discrete energy balance over the triangular prism:

        | int_Sigma v(Cu+Cx)v - int_N vCuv - int_T vCxv + int_V vRv |
    """
    return _balance_residual(trace, cf, T, sigma_norm(trace, cf, T))


def _balance_residual(trace: SolutionTrace, cf: CompactSystem, T: float,
                      sigma: float) -> float:
    """balance_residual with int_Sigma already computed."""
    dx, du = trace.grid.dx, trace.grid.du

    Kx = _steps_for(T, dx, trace.slices[0].x_extent - 1, "balance N-side")
    intN = _line_integral(_row(trace, cf.C["u"], 0), dx, Kx)

    Ku = _steps_for(T, du, trace.n_slices - 1, "balance T-side")
    gT = _column(trace, ("column",) + _content(cf.C["x"]),
                 lambda col: _quad_form(cf.C["x"], col))
    intT = _line_integral(gT, du, Ku)

    intV = 0.0
    if np.any(cf.R):
        # slices 1..top-1 lie at u <= T and close a layer of cells each
        top = 1
        while top < trace.n_slices \
                and trace.slices[top].u_level <= T + 1e-9 * du:
            top += 1
        for hi, corner in zip(trace.slices[1:top],
                              _volume_cells(trace, cf.R, top - 1)):
            # cells whose far corner stays inside u + x <= T
            ncell = max(0, min(len(corner),
                               int(round((T - hi.u_level) / dx))))
            intV += float(corner[:ncell].sum()) * dx * du
    return abs(sigma - intN - intT + intV)


def estimate_ladder(grid: GridSpec) -> list:
    """The diagonal surfaces T_k = k X/9 (k = 1..8) snapped to the x grid;
    positive, without repeats, in increasing order."""
    snapped = (round(k * grid.X_total / 9.0 / grid.dx) * grid.dx
               for k in range(1, 9))
    return list(dict.fromkeys(T for T in snapped if T > 0))


def verify_estimate(trace: SolutionTrace, cf: CompactSystem,
                    report: WellPosednessReport, T: float,
                    c_tol: float = Tolerances.ctol) -> EnergyReport:
    """Check the a priori bound sigma <= factor(T) (||q0||^2 + ||w0||^2).

    The growth factor and the horizon c/r are those of `report`.  The
    discrete tolerance is tol_h = c_tol * dx scaled by the data norms
    (first-order scheme).  Raises EstimateHorizonError when T is at or
    beyond the validity horizon c/r of the exponential branch.
    """
    if report.verdict is not Verdict.WELL_POSED:
        raise ValueError("verify_estimate requires a WELL_POSED verdict")
    if T >= report.T_max:
        raise EstimateHorizonError(
            f"estimate not guaranteed for T >= c/r = {report.T_max!r}")
    nq_sq, nw_sq = _data_norms(trace, cf.Nu, cf.nq, T)
    sig = sigma_norm(trace, cf, T)
    bound = report.bound_factor(T) * (nq_sq + nw_sq)
    margin = bound - sig
    tol_h = c_tol * trace.grid.dx * (nq_sq + nw_sq)
    residual = _balance_residual(trace, cf, T, sig)
    return EnergyReport(
        T=T, norm_q0_sq=nq_sq, norm_w0_sq=nw_sq, sigma_norm_sq=sig,
        bound=bound, margin=margin, balance_residual=residual,
        holds=bool(margin >= -tol_h))
