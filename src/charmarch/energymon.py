"""Discrete norms, energy balance and a priori estimate verification.

Quadratures: cell-averaged (trapezoidal) rule along the data surfaces,
rectangle rule (exact for periodic trigonometric data) in the transverse
directions, per-point weight dx on the diagonal surface u + x = T, and
corner-averaged midpoint cells for the volume term.
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


def _steps_for(T: float, h: float, limit: int, what: str) -> int:
    K = int(round(T / h))
    if abs(K * h - T) > 1e-9 * max(h, 1.0):
        warnings.warn(f"{what}: T={T!r} snapped to the nearest grid level "
                      f"{K * h!r}", stacklevel=3)
    if K < 0 or K > limit:
        raise RangeError(f"{what}: T={T!r} outside the trace coverage")
    return K


def _data_norms(trace: SolutionTrace, Nu: np.ndarray, nq: int, T: float):
    dx, du = trace.grid.dx, trace.grid.du
    first = trace.slices[0]
    Kx = _steps_for(T, dx, first.x_extent - 1, "norm_q0")
    Ku = _steps_for(T, du, trace.n_slices - 1, "norm_w0")

    gq = _cell_sum(_quad_form(Nu, first.values[:nq]), trace)
    norm_q0 = _line_integral(gq, dx, Kx)

    gw = np.array([
        _cell_sum((s.values[nq:, 0] ** 2).sum(axis=0), trace)
        for s in trace.slices[:Ku + 1]])
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
    total = 0.0
    for j, i in _diagonal_points(trace, T):
        g = _cell_sum(_quad_form(W, trace.slices[j].values[:, i]), trace)
        total += dx * float(g)
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

    first = trace.slices[0]
    Kx = _steps_for(T, dx, first.x_extent - 1, "balance N-side")
    gN = _cell_sum(_quad_form(cf.C["u"], first.values), trace)
    intN = _line_integral(gN, dx, Kx)

    Ku = _steps_for(T, du, trace.n_slices - 1, "balance T-side")
    gT = np.array([
        _cell_sum(_quad_form(cf.C["x"], s.values[:, 0]), trace)
        for s in trace.slices[:Ku + 1]])
    intT = _line_integral(gT, du, Ku)

    intV = 0.0
    if np.any(cf.R):
        gh = _cell_sum(_quad_form(cf.R, trace.slices[0].values), trace)
        for hi in trace.slices[1:]:
            if hi.u_level > T + 1e-9 * du:
                break
            gl, gh = gh, _cell_sum(_quad_form(cf.R, hi.values), trace)
            # cells whose far corner stays inside u + x <= T
            ncell = max(0, min(len(gl) - 1, len(gh) - 1,
                               int(round((T - hi.u_level) / dx))))
            corner = 0.25 * (gl[:ncell] + gl[1:ncell + 1]
                             + gh[:ncell] + gh[1:ncell + 1])
            intV += float(corner.sum()) * dx * du
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
