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
and C^x forms on the x = 0 column, one gather from the trace's packed
store, the volume term as a prefix sum, and the matrix C^u + C^x of
sigma.  C^u = blockdiag(Nu, 0), so the C^u flux through u = 0 in the
energy identity is ||q0||^2_Nu itself, and the balance reads it from the
q0 norm.  The volume cell (j, i), between slices j - 1 and j at x from
i dx to (i + 1) dx, carries the corner average of the R form and lies
below level K when j + i < K.  The corner averages of all cells are one
expression on the slices' R rows, laid end to end; `np.add.at` adds them
into their anti-diagonal j + i in slice order, the additions a loop over
the slices makes, and the anti-diagonals are then accumulated, so the
volume integral of level K is one read, prefix[K] dx^2.  Each call
evaluates only the form C^u + C^x on the diagonal points of its level:
the nodes (j, K - j) of the slices j <= K are one gather from the trace's
store, into one plane, and it takes one form on that plane; its line
integrals add Python floats, and sigma is one cumulative sum, which adds
the nodes left to right, as a loop over them would.  A level that some
slice j <= K does not reach (no x index K - j) is outside the trace's
coverage.

One kernel, `_cell_form`, takes every form on flattened views: a
quadratic form v^T W v is one matrix product on the (components, points)
view of a plane, summed as v * (W v) over the components, and the sum
over the transverse cells is one reduction over their flattened axes.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .canonical import CompactSystem
from .charsolve import DataSpecError, GridSpec, SolutionTrace
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


def _cell_form(W, plane: np.ndarray, grid: GridSpec) -> np.ndarray:
    """v^T W v at each point of a field plane (component axis first, the
    transverse axes last), summed over the transverse cells times the cell
    volume: the output drops the component and transverse axes.  W None
    is the identity, |v|^2.

    The form is one matrix product on the (components, points) view,
    which may have no components, summed as v * (W v) over the components;
    the cells, one when there are none, are summed in one reduction."""
    flat = plane.reshape(len(plane), math.prod(plane.shape[1:]))
    pointwise = (flat * (flat if W is None else W @ flat)).sum(axis=0)
    points = plane.shape[1:plane.ndim - len(grid.transverse)]
    return pointwise.reshape(points + (-1,)).sum(axis=-1) \
        * grid.transverse_cell_volume()


def _line_integral(g: np.ndarray, h: float, K: int) -> float:
    """Cell-averaged quadrature of nodal values g over [0, K*h], K >= 1,
    on Python floats."""
    return h * (0.5 * g.item(0) + g[1:K].sum().item() + 0.5 * g.item(K))


def _level(trace: SolutionTrace, T: float) -> int:
    """The grid level K >= 1 of the surface u + x = T: it passes through
    the nodes (j, K - j).  T that snaps to level 0, a surface of one node
    with no data, or to a level that the trace does not cover (a slice
    j <= K without x index K - j) is refused, and T more than 1e-9 dx off
    its level, on any scale of dx, is then snapped with a warning.  T / dx
    is clipped to [0, n_slices] before it is rounded, so that a finite T
    whose T / dx overflows is refused too."""
    dx = trace.grid.dx
    K = int(round(min(max(T / dx, 0.0), trace.n_slices)))
    if K < 1:
        raise RangeError(f"T={T!r} is below the first grid level, "
                         f"dx = {dx!r}")
    if K >= trace._levels:
        raise RangeError(f"T={T!r} outside the trace coverage")
    if abs(K * dx - T) > 1e-9 * dx:
        warnings.warn(f"T={T!r} snapped to the nearest grid level {K * dx!r}",
                      stacklevel=3)
    return K


def _content(W: np.ndarray) -> tuple:
    """Key part naming a matrix by its content, never by its identity."""
    return (W.dtype.str, W.shape, W.tobytes())


@dataclass(frozen=True)
class _Forms:
    """The per-slice forms of one compact system on one trace."""
    q0: np.ndarray      # Nu form at each x point of u = 0
    w0: np.ndarray      # |w|^2 at x = 0 of each slice
    column: np.ndarray  # C^x form at x = 0 of each slice
    volume: np.ndarray  # corner-averaged R form summed over the cells
                        # (j, i) with j + i < K, at index K; zero at R = 0
    sigma: np.ndarray   # C^u + C^x, the matrix of the form on a level


def _volume(trace: SolutionTrace, R: np.ndarray) -> np.ndarray:
    """The corner-averaged R form summed over the cells (j, i) with
    j + i < K, at index K = 0 .. n_slices.

    The cell (j, i) lies between slices j - 1 and j, at x from i dx to
    (i + 1) dx, where both slices have the x points i and i + 1, and below
    level K when j + i < K; cells on anti-diagonals past the last slice
    lie below no level.  The corner averages of all cells are one
    expression on the slices' R rows, laid end to end; they are added
    into their anti-diagonal in slice order, then summed along the
    levels."""
    grid, S = trace.grid, trace.n_slices
    diagonal = np.zeros(S)
    if np.any(R):
        rows = [_cell_form(R, s.values, grid) for s in trace.slices]
        widths = np.array([len(g) for g in rows])
        j = np.arange(1, S)
        cells = np.maximum(np.minimum(
            np.minimum(widths[:-1], widths[1:]) - 1, S - j), 0)
        j = np.repeat(j, cells)
        i = np.arange(len(j)) - np.repeat(np.cumsum(cells) - cells, cells)
        lo = (np.cumsum(widths) - widths)[j - 1] + i
        hi = lo + widths[j - 1]
        g = np.concatenate(rows)
        np.add.at(diagonal, j + i,
                  0.25 * (g[lo] + g[lo + 1] + g[hi] + g[hi + 1]))
    return np.concatenate(([0.0], np.cumsum(diagonal)))


def _forms(trace: SolutionTrace, cf: CompactSystem) -> _Forms:
    """The forms of cf on trace, built in one pass on first use and kept
    on the trace, which cannot change, so they never go stale.  A cf whose
    unknowns or transverse axes are not the trace's raises DataSpecError."""
    key = (_content(cf.C["u"]), _content(cf.C["x"]), _content(cf.Dc), cf.nq)
    if key not in trace._forms:
        n, nt = len(trace.slices[0].values), len(trace.grid.transverse)
        if (cf.n, len(cf.transverse_names)) != (n, nt):
            raise DataSpecError(
                f"compact system of {cf.n} unknowns and "
                f"{len(cf.transverse_names)} transverse axes does not fit a "
                f"trace of {n} unknowns and {nt} transverse axes")
        grid, col = trace.grid, trace._x0_column()
        trace._forms[key] = _Forms(
            q0=_cell_form(cf.Nu, trace.slices[0].values[:cf.nq], grid),
            w0=_cell_form(None, col[cf.nq:], grid),
            column=_cell_form(cf.C["x"], col, grid),
            volume=_volume(trace, cf.R),
            sigma=cf.C["u"] + cf.C["x"])
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
    Raises RangeError for a T that is not finite, snaps to level 0 or lies
    past the trace, EstimateHorizonError for a T or level at or beyond the
    horizon c/r of the exponential branch, and DataSpecError for a cf that
    does not fit the trace.
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
    # sigma: the nodes (j, K - j) of level K, weight dx times the cell
    # volume, added left to right as a loop over the nodes adds them
    g = _cell_form(forms.sigma, trace._level_nodes(K), trace.grid)
    g *= dx
    sig = np.cumsum(g, out=g).item(-1)
    bound = report.bound_factor(K * dx) * (nq_sq + nw_sq)
    margin = bound - sig
    tol_h = report.tols.ctol * dx * (nq_sq + nw_sq)
    # balance: | int_Sigma v(Cu+Cx)v - int_N vCuv - int_T vCxv + int_V vRv |,
    # where int_N vCuv = ||q0||^2_Nu since C^u = blockdiag(Nu, 0)
    intV = forms.volume.item(K) * dx * dx
    residual = abs(sig - nq_sq - _line_integral(forms.column, dx, K) + intV)
    return EnergyReport(
        T=T, norm_q0_sq=nq_sq, norm_w0_sq=nw_sq, sigma_norm_sq=sig,
        bound=bound, margin=margin, balance_residual=residual,
        holds=bool(margin >= -tol_h))
