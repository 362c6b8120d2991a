"""Discrete norms, energy balance and a priori estimate verification.

Quadratures: cell-averaged (trapezoidal) rule along the data surfaces,
rectangle rule (exact for periodic trigonometric data) in the transverse
directions, per-point weight dx on the diagonal surface u + x = T, and
corner-averaged midpoint cells for the volume term.

The march steps du = dx, so the surface u + x = T of grid level K = T/dx
passes through the nodes (j, K - j); every term is read at that one level,
and off-grid T is snapped to it with one warning.

`verify_estimate` is the one energy check: its report carries the data
norms, sigma, the bound and the balance residual, and its CSV header is
the report's field names.  A trace cannot change, so the per-slice forms
of a compact system are built in one pass on its first call and kept on
the trace as one record, keyed by the content of C^u, C^x and Dc
(R = 2 Dc) and by nq: the Nu form cell-summed over x on slice 0, the |w|^2
and C^x forms on one stack of the x = 0 column, and the volume term as a
prefix sum.  C^u = blockdiag(Nu, 0), so the C^u flux through u = 0 in the
energy identity is ||q0||^2_Nu itself, and the balance reads it from the
q0 norm.  The volume cell (j, i), between slices j - 1 and j at x from
i dx to (i + 1) dx, carries the corner average of the R form and lies
below level K when j + i < K; the corner averages are summed along each
anti-diagonal j + i and then accumulated, so the volume integral of
level K is one read, prefix[K] dx^2.  Each call evaluates only the form
C^u + C^x on the diagonal points of its level: it stacks the node
(j, K - j) of each slice j into one plane and takes one form on it.

Both kernels work on flattened views: a quadratic form v^T W v is one
matrix product on the (components, points) view of a plane, summed as
v * (W v) over the components, and the sum over the transverse cells is
one reduction over their flattened axes.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .canonical import CompactSystem
from .charsolve import GridSpec, SolutionTrace
from .sysmodel import _fmt
from .wellposed import Verdict, WellPosednessReport


class RangeError(ValueError):
    """Requested T is not finite or lies outside the trace's grid levels."""


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

    def csv_row(self) -> str:
        """The fields in CSV_HEADER's order, holds as true or false."""
        *numbers, holds = (getattr(self, f.name) for f in fields(self))
        return ",".join([*map(_fmt, numbers), "true" if holds else "false"])


EnergyReport.CSV_HEADER = ",".join(f.name for f in fields(EnergyReport))


def _quad_form(W: np.ndarray, plane: np.ndarray) -> np.ndarray:
    """v^T W v on each grid point of a field plane (component axis first):
    one matrix product on the (components, points) view, which may have no
    components."""
    flat = plane.reshape(plane.shape[0], math.prod(plane.shape[1:]))
    return (flat * (W @ flat)).sum(axis=0).reshape(plane.shape[1:])


def _cell_sum(pointwise: np.ndarray, trace: SolutionTrace) -> np.ndarray:
    """Sum over transverse cells times the transverse cell volume.

    Input has shape (...) + cells; output drops the transverse axes.  The
    cells, one when there are none, are summed in one reduction.
    """
    lead = pointwise.shape[:pointwise.ndim - len(trace.grid.transverse)]
    return pointwise.reshape(lead + (-1,)).sum(axis=-1) \
        * trace.grid.transverse_cell_volume()


def _line_integral(g: np.ndarray, h: float, K: int) -> float:
    """Cell-averaged quadrature of nodal values g over [0, K*h], K >= 1."""
    return float(h * (0.5 * g[0] + g[1:K].sum() + 0.5 * g[K]))


def _level(trace: SolutionTrace, T: float) -> int:
    """The grid level K >= 1 of the surface u + x = T: it passes through
    the nodes (j, K - j).  Off-grid T is snapped with a warning; T that
    snaps to level 0, a surface of one node with no data, is refused."""
    dx = trace.grid.dx
    K = int(round(T / dx))
    if K < 1:
        raise RangeError(f"T={T!r} is below the first grid level, "
                         f"dx = {dx!r}")
    if abs(K * dx - T) > 1e-9 * max(dx, 1.0):
        warnings.warn(f"T={T!r} snapped to the nearest grid level {K * dx!r}",
                      stacklevel=3)
    if K > trace.n_slices - 1:
        raise RangeError(f"T={T!r} outside the trace coverage")
    return K


def _content(W: np.ndarray) -> tuple:
    """Key part naming a matrix by its content, never by its identity."""
    return (W.dtype.str, W.shape, W.tobytes())


def _row(trace: SolutionTrace, W: np.ndarray, j: int) -> np.ndarray:
    """Cell-summed form of W, on the leading len(W) components, at each x
    point of slice j."""
    return _cell_sum(_quad_form(W, trace.slices[j].values[:len(W)]), trace)


@dataclass(frozen=True)
class _Forms:
    """The per-slice forms of one compact system on one trace."""
    q0: np.ndarray      # Nu form at each x point of u = 0
    w0: np.ndarray      # |w|^2 at x = 0 of each slice
    column: np.ndarray  # C^x form at x = 0 of each slice
    volume: np.ndarray  # corner-averaged R form summed over the cells
                        # (j, i) with j + i < K, at index K; zero at R = 0


def _forms(trace: SolutionTrace, cf: CompactSystem) -> _Forms:
    """The forms of cf on trace, built in one pass on first use and kept
    on the trace, which cannot change, so they never go stale."""
    key = (_content(cf.C["u"]), _content(cf.C["x"]), _content(cf.Dc), cf.nq)
    if key not in trace._forms:
        col = np.stack([s.values[:, 0] for s in trace.slices], axis=1)
        # the cell (j, i) between slices j - 1 and j lies below level K
        # when j + i < K: sum the cells along each anti-diagonal j + i,
        # then along the levels
        diagonal = np.zeros(trace.n_slices)
        R = cf.R
        if np.any(R):
            rows = [_row(trace, R, j) for j in range(trace.n_slices)]
            for j, (gl, gh) in enumerate(zip(rows, rows[1:]), start=1):
                n = min(len(gl), len(gh)) - 1
                diagonal[j:j + n] += \
                    0.25 * (gl[:n] + gl[1:n + 1] + gh[:n] + gh[1:n + 1])
        volume = np.concatenate(([0.0], np.cumsum(diagonal)))
        trace._forms[key] = _Forms(
            q0=_row(trace, cf.Nu, 0),
            w0=_cell_sum((col[cf.nq:] ** 2).sum(axis=0), trace),
            column=_cell_sum(_quad_form(cf.C["x"], col), trace),
            volume=volume)
    return trace._forms[key]


def estimate_ladder(grid: GridSpec) -> list:
    """The diagonal surfaces T_k = k X/9 (k = 1..8) snapped to the x grid;
    positive, without repeats, in increasing order."""
    snapped = (round(k * grid.X_total / 9.0 / grid.dx) * grid.dx
               for k in range(1, 9))
    return list(dict.fromkeys(T for T in snapped if T > 0))


def verify_estimate(trace: SolutionTrace, cf: CompactSystem,
                    report: WellPosednessReport, T: float) -> EnergyReport:
    """Check the a priori bound sigma <= factor(T) (||q0||^2 + ||w0||^2).

    The data norms are taken on {u=0, x<=T} and {x=0, u<=T}, sigma on the
    surface u + x = T, and the balance residual is that of the discrete
    energy identity over the triangular prism.  The growth factor, the
    horizon c/r and ctol are those of `report`; the discrete tolerance is
    tol_h = ctol * dx scaled by the data norms (first-order scheme).
    Every field but T is that of the grid level K of T, the factor too.
    Raises RangeError for a T that is not finite, and EstimateHorizonError
    for a T or level at or beyond the horizon c/r of the exponential branch.
    """
    if report.verdict is not Verdict.WELL_POSED:
        raise ValueError("verify_estimate requires a WELL_POSED verdict")
    if not math.isfinite(T):
        raise RangeError(f"T={T!r} is not finite")
    dx = trace.grid.dx
    K = _level(trace, T) if T < report.T_max else None
    if K is None or K * dx >= report.T_max:
        raise EstimateHorizonError(
            f"estimate not guaranteed for T >= c/r = {report.T_max!r}")
    forms = _forms(trace, cf)
    nq_sq = _line_integral(forms.q0, dx, K)
    nw_sq = _line_integral(forms.w0, dx, K)
    # sigma: the nodes (j, K - j) of level K, weight dx times the cell volume
    plane = np.stack([trace.slices[j].values[:, K - j]
                      for j in range(K + 1)], axis=1)
    sig = 0.0
    for g in _cell_sum(_quad_form(cf.C["u"] + cf.C["x"], plane),
                       trace).tolist():
        sig += dx * g
    bound = report.bound_factor(K * dx) * (nq_sq + nw_sq)
    margin = bound - sig
    tol_h = report.tols.ctol * dx * (nq_sq + nw_sq)
    # balance: | int_Sigma v(Cu+Cx)v - int_N vCuv - int_T vCxv + int_V vRv |,
    # where int_N vCuv = ||q0||^2_Nu since C^u = blockdiag(Nu, 0)
    intV = float(forms.volume[K]) * dx * dx
    residual = abs(sig - nq_sq - _line_integral(forms.column, dx, K) + intV)
    return EnergyReport(
        T=T, norm_q0_sq=nq_sq, norm_w0_sq=nw_sq, sigma_norm_sq=sig,
        bound=bound, margin=margin, balance_residual=residual,
        holds=bool(margin >= -tol_h))
