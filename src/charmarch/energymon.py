"""Discrete norms, energy balance and a priori estimate verification.

Quadratures: cell-averaged (trapezoidal) rule along the data surfaces,
rectangle rule (exact for periodic trigonometric data) in the transverse
directions, per-point weight dx on the diagonal surface u + x = T, and
corner-averaged midpoint cells for the volume term.

The march steps du = dx, so the surface u + x = T of grid level K = T/dx
passes through the nodes (j, K - j); every term is read at that one level,
and off-grid T is snapped to it with one warning.

A trace cannot change, so the per-slice forms are computed once per trace
and kept on it for every later call: the Nu and C^u forms cell-summed over
x on slice 0, the C^x and |w|^2 forms on the x = 0 column of every slice,
and the corner-averaged R form of the volume cells, each table built in
one pass and keyed by the content of the matrix.  Each call evaluates only
the form C^u + C^x on the diagonal points of its level.
"""
from __future__ import annotations

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


def _level(trace: SolutionTrace, T: float) -> int:
    """The grid level K of the surface u + x = T: it passes through the
    nodes (j, K - j).  Off-grid T is snapped with a warning."""
    dx = trace.grid.dx
    K = int(round(T / dx))
    if abs(K * dx - T) > 1e-9 * max(dx, 1.0):
        warnings.warn(f"T={T!r} snapped to the nearest grid level {K * dx!r}",
                      stacklevel=3)
    if K < 0 or K > trace.n_slices - 1:
        raise RangeError(f"T={T!r} outside the trace coverage")
    return K


def _content(W: np.ndarray) -> tuple:
    """Key part naming a matrix by its content, never by its identity."""
    return (W.dtype.str, W.shape, W.tobytes())


def _table(trace: SolutionTrace, key: tuple, build):
    """The table stored on the trace under key, made by build() on first
    use; the trace cannot change, so a table never goes stale."""
    store = trace._forms
    if key not in store:
        store[key] = build()
    return store[key]


def _row(trace: SolutionTrace, W: np.ndarray, j: int) -> np.ndarray:
    """Cell-summed form of W, on the leading len(W) components, at each x
    point of slice j."""
    return _cell_sum(_quad_form(W, trace.slices[j].values[:len(W)]), trace)


def _first_row(trace: SolutionTrace, W: np.ndarray) -> np.ndarray:
    """_row of slice 0 (u = 0), once per trace."""
    return _table(trace, ("row",) + _content(W), lambda: _row(trace, W, 0))


def _column(trace: SolutionTrace, key: tuple, form) -> np.ndarray:
    """Cell-summed form(v) at x = 0 of every slice, built in one pass."""
    def build():
        col = np.stack([s.values[:, 0] for s in trace.slices], axis=1)
        return _cell_sum(form(col), trace)
    return _table(trace, key, build)


def _volume_cells(trace: SolutionTrace, R: np.ndarray) -> list:
    """Corner-averaged R form on the cells between slices j-1 and j, for
    every j >= 1 (list index j-1), built in one pass over the slices."""
    def build():
        rows = [_row(trace, R, j) for j in range(trace.n_slices)]
        cells = []
        for gl, gh in zip(rows, rows[1:]):
            n = min(len(gl), len(gh)) - 1
            cells.append(0.25 * (gl[:n] + gl[1:n + 1] + gh[:n] + gh[1:n + 1]))
        return cells
    return _table(trace, ("volume",) + _content(R), build)


def _data_norms(trace: SolutionTrace, Nu: np.ndarray, nq: int, K: int):
    dx = trace.grid.dx
    norm_q0 = _line_integral(_first_row(trace, Nu), dx, K)
    gw = _column(trace, ("|w|^2", nq),
                 lambda col: (col[nq:] ** 2).sum(axis=0))
    norm_w0 = _line_integral(gw, dx, K)
    return norm_q0, norm_w0


def data_norms(trace: SolutionTrace, canon: CanonicalSystem, T: float):
    """(||q0||^2, ||w0||^2): weighted data norms on {u=0, x<=T} and
    {x=0, u<=T}."""
    return _data_norms(trace, canon.Nu, canon.nq, _level(trace, T))


def _sigma_norm(trace: SolutionTrace, cf: CompactSystem, K: int) -> float:
    W = cf.C["u"] + cf.C["x"]
    dx = trace.grid.dx
    plane = np.stack([trace.slices[j].values[:, K - j]
                      for j in range(K + 1)], axis=1)
    total = 0.0
    for g in _cell_sum(_quad_form(W, plane), trace).tolist():
        total += dx * g
    return total


def sigma_norm(trace: SolutionTrace, cf: CompactSystem, T: float) -> float:
    """Norm of the solution on the surface u + x = T.

    Quadrature over the grid points (j, K - j) of its level K with weight
    dx times the transverse cell volume.
    """
    return _sigma_norm(trace, cf, _level(trace, T))


def balance_residual(trace: SolutionTrace, cf: CompactSystem,
                     T: float) -> float:
    """Residual of the discrete energy balance over the triangular prism:

        | int_Sigma v(Cu+Cx)v - int_N vCuv - int_T vCxv + int_V vRv |
    """
    K = _level(trace, T)
    return _balance_residual(trace, cf, K, _sigma_norm(trace, cf, K))


def _balance_residual(trace: SolutionTrace, cf: CompactSystem, K: int,
                      sigma: float) -> float:
    """balance_residual at level K with int_Sigma already computed."""
    dx = trace.grid.dx
    intN = _line_integral(_first_row(trace, cf.C["u"]), dx, K)
    gT = _column(trace, ("column",) + _content(cf.C["x"]),
                 lambda col: _quad_form(cf.C["x"], col))
    intT = _line_integral(gT, dx, K)

    intV = 0.0
    if np.any(cf.R):
        # the K - j cells below slice j stay inside u + x <= T
        for j, corner in enumerate(_volume_cells(trace, cf.R)[:K], start=1):
            intV += float(corner[:K - j].sum()) * dx * dx
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
    (first-order scheme).  Every field but T is that of the grid level K
    of T, the factor too.  Raises EstimateHorizonError when T or its level
    is at or beyond the validity horizon c/r of the exponential branch.
    """
    if report.verdict is not Verdict.WELL_POSED:
        raise ValueError("verify_estimate requires a WELL_POSED verdict")
    dx = trace.grid.dx
    K = _level(trace, T) if T < report.T_max else None
    if K is None or K * dx >= report.T_max:
        raise EstimateHorizonError(
            f"estimate not guaranteed for T >= c/r = {report.T_max!r}")
    nq_sq, nw_sq = _data_norms(trace, cf.Nu, cf.nq, K)
    sig = _sigma_norm(trace, cf, K)
    bound = report.bound_factor(K * dx) * (nq_sq + nw_sq)
    margin = bound - sig
    tol_h = c_tol * dx * (nq_sq + nw_sq)
    residual = _balance_residual(trace, cf, K, sig)
    return EnergyReport(
        T=T, norm_q0_sq=nq_sq, norm_w0_sq=nw_sq, sigma_norm_sq=sig,
        bound=bound, margin=margin, balance_residual=residual,
        holds=bool(margin >= -tol_h))
