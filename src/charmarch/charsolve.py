"""Hierarchical marching solver on the triangular causal domain.

The domain is {u >= 0, x >= 0, u + x <= X_total} with periodic transverse
directions.  Each u-slice is completed by integrating the hypersurface
equations outward from x = 0 (Heun), then the normal variables are advanced
to the next slice with Lax-Friedrichs in x and centered periodic transverse
differences.  The march steps du = dx, which meets the CFL condition for
every WELL_POSED system: Nu > 0, Nx <= 0 and Nu + Nx > 0 put the
eigenvalues of Nu^-1 Nx in (-1, 0].  One x-cell is trimmed per step, so no
outer-x boundary condition is needed.

The hypersurface right-hand side is linear in v = (q, w) and q is known on
the slice, so d_x w = f + A w with the q-driven forcing f evaluated over
the whole slice at once.  Heun then needs A only on the m null components;
when the system has no w -> w coupling (A = 0) the pass is a cumulative sum
of trapezoid increments of f.  The operators (Nu^-1 Nx, Nu^-1 N^i,
Nu^-1 N0 and the hypersurface blocks) are built once per march, after one
CFL check, and periodic differences are taken from slices of the plane.

`march` is the one public way into the scheme, so its guards (grid and data
against the system, the verdict, the CFL check) hold for every step taken.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .canonical import CanonicalSystem
from .wellposed import Verdict, WellPosednessReport


class CFLError(ValueError):
    """Spectral radius of Nu^-1 Nx exceeds 1 (never when WELL_POSED)."""


class NotWellPosedError(RuntimeError):
    """March refused: system verdict is not WELL_POSED (use force=True)."""


class MarchAbortError(RuntimeError):
    """Non-finite value produced during the march."""


class DataSpecError(ValueError):
    """Initial-data specification inconsistent with the system or grid."""


@dataclass(frozen=True)
class TransverseAxis:
    """A periodic coordinate on [0, 2 pi) of `cells` cells of width h."""
    cells: int

    @property
    def h(self) -> float:
        return 2.0 * math.pi / self.cells


@dataclass(frozen=True)
class GridSpec:
    X_total: float
    nx: int
    transverse: tuple = ()

    def __post_init__(self):
        if not (math.isfinite(self.X_total) and self.X_total > 0):
            raise ValueError(f"X_total must be positive and finite, "
                             f"got {self.X_total!r}")
        if self.nx < 2:
            raise ValueError("nx must be at least 2")

    @property
    def dx(self) -> float:
        return self.X_total / self.nx

    def transverse_meshes(self):
        """Open periodic grids, meshed with indexing='ij'."""
        axes = [np.arange(t.cells) * t.h for t in self.transverse]
        if not axes:
            return []
        return list(np.meshgrid(*axes, indexing="ij"))

    def transverse_cell_volume(self) -> float:
        return math.prod((t.h for t in self.transverse), start=1.0)


@dataclass(frozen=True)
class ProfileTerm:
    """One separable data term: amp * base(s) * prod_i cos(k_i theta_i + p_i).

    base is sin(k s + phase) for kind='sine' and a Gaussian bump for
    kind='gauss'.  s is x for normal data and u for null data; a zero
    profile is the empty tuple of terms.
    """
    kind: str
    amp: float = 1.0
    k: float = 1.0
    phase: float = 0.0
    center: float = 0.0
    width: float = 1.0
    trans: tuple = ()   # ((wavenumber, phase), ...) per transverse axis

    def __post_init__(self):
        if self.kind not in ("sine", "gauss"):
            raise DataSpecError(f"unknown profile kind '{self.kind}'")

    def evaluate(self, s, tmeshes):
        if self.kind == "sine":
            out = self.amp * np.sin(self.k * np.asarray(s, dtype=float)
                                    + self.phase)
        else:
            z = (np.asarray(s, dtype=float) - self.center) / self.width
            out = self.amp * np.exp(-z * z)
        for (kt, pt), mesh in zip(self.trans, tmeshes):
            out = out * np.cos(kt * mesh + pt)
        return out


def evaluate_profile(terms, s, tmeshes):
    """Sum of ProfileTerm values on s (scalar or array) times the meshes."""
    shape = np.broadcast(np.asarray(s, dtype=float), *tmeshes).shape
    out = np.zeros(shape)
    for term in terms:
        out = out + term.evaluate(s, tmeshes)
    return out


@dataclass(frozen=True)
class DataSpec:
    """Free data: q0 profiles (in x) on u=0 and w0 profiles (in u) on x=0.

    Each entry is a tuple of ProfileTerm summed together.
    """
    q0: tuple
    w0: tuple


@dataclass(frozen=True)
class SliceState:
    u_level: float
    values: np.ndarray   # (n_unknowns, x_extent, *cells), order (q, w)

    @property
    def x_extent(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SolutionTrace:
    """The slices of one march: slice j lies at u = j dx and holds
    nx + 1 - j x points.  A trace cannot change: slices and diagnostics
    are tuples (a list passed in is copied into one)."""
    grid: GridSpec
    slices: tuple = ()
    diagnostics: tuple = ()   # per-slice max |v|
    # energymon's per-slice forms, one record per compact system
    _forms: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(self.slices))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))

    @property
    def n_slices(self) -> int:
        return len(self.slices)


def _apply(M: np.ndarray, plane: np.ndarray) -> np.ndarray:
    """Matrix acting on the component axis of a field plane."""
    flat = plane.reshape(plane.shape[0], -1)
    return (M @ flat).reshape((M.shape[0],) + plane.shape[1:])


def _periodic_difference(plane: np.ndarray, axis: int) -> np.ndarray:
    """f[j+1] - f[j-1] along one periodic axis, built from slices of the
    plane."""
    axis %= plane.ndim
    n = plane.shape[axis]
    if n < 3:   # the periodic neighbours coincide: the difference vanishes
        return np.zeros(plane.shape)
    out = np.empty(plane.shape)   # C order, so that its flat view is a view
    # neighbours along the axis lie `stride` apart in the flat array: one
    # contiguous pass is right for 0 < j < n-1 ...
    stride = math.prod(plane.shape[axis + 1:])
    flat = plane.reshape(-1)
    np.subtract(flat[2 * stride:], flat[:-2 * stride],
                out=out.reshape(-1)[stride:-stride])

    # ... and the wrap-around at j = 0 and j = n-1 is written over it
    def at(lo, hi):
        return (slice(None),) * axis + (slice(lo, hi),)

    np.subtract(plane[at(1, 2)], plane[at(-1, None)], out=out[at(None, 1)])
    np.subtract(plane[at(None, 1)], plane[at(-2, -1)], out=out[at(-1, None)])
    return out


class _FieldOperator:
    """v -> M0 v + sum_j M_j d_j v on a field plane whose trailing axes are
    the transverse ones; d_j is the centred periodic difference along
    transverse axis j.  Zero matrices are dropped."""

    def __init__(self, M0, Mt, grid: GridSpec):
        self.rows = M0.shape[0]
        self.M0 = M0 if np.any(M0) else None
        nt = len(grid.transverse)
        self.terms = [(M / (2.0 * t.h), j - nt)
                      for j, (M, t) in enumerate(zip(Mt, grid.transverse))
                      if np.any(M)]

    @property
    def is_zero(self) -> bool:
        return self.M0 is None and not self.terms

    def __call__(self, plane: np.ndarray) -> np.ndarray:
        out = None if self.M0 is None else _apply(self.M0, plane)
        for M, axis in self.terms:
            d = _periodic_difference(_apply(M, plane), axis)
            if out is None:
                out = d
            else:
                out += d
        return np.zeros((self.rows,) + plane.shape[1:]) if out is None else out


def _check_finite(arr, u_level, what):
    if not np.all(np.isfinite(arr)):
        raise MarchAbortError(
            f"non-finite value in {what} at u = {u_level:.6g}")


def _spectral_radius(canon: CanonicalSystem) -> float:
    if canon.nq == 0:
        return 0.0
    A = np.linalg.solve(canon.Nu, canon.Nx)
    return float(np.abs(np.linalg.eigvals(A)).max())


class _Stepper:
    """The operators of the march for one system and grid, built once.

    Hypersurface pass: d_x w = f + A w, with the q-driven forcing
    f = -(L0_q q + L^i_q d_i q) and the null coupling
    A w = -(L0_w w + L^i_w d_i w).  Evolution by one step du = dx:
    Nu^-1 Nx, and the source operator dx Nu^-1 (N0 v + N^i d_i v).
    """

    def __init__(self, canon: CanonicalSystem, grid: GridSpec):
        nq = canon.nq
        names = canon.transverse_names
        self.nq, self.n, self.dx = nq, canon.n_unknowns, grid.dx
        self.forcing = _FieldOperator(
            -canon.L0[:, :nq], [-canon.Li[k][:, :nq] for k in names], grid)
        self.coupling = _FieldOperator(
            -canon.L0[:, nq:], [-canon.Li[k][:, nq:] for k in names], grid)
        Nui = np.linalg.inv(canon.Nu) if nq else np.zeros((0, 0))
        self.NuiNx = Nui @ canon.Nx
        self.source = _FieldOperator(
            grid.dx * Nui @ canon.N0,
            [grid.dx * Nui @ canon.Ni[k] for k in names], grid)

    def fill_null(self, slice_: SliceState, w_boundary) -> None:
        """Integrate d_x w outward from x = 0 in place on the slice (Heun).

        Heun's stages reduce to k1 = f_i + A w_i and
        k2 = f_{i+1} + A (w_i + dx k1), with f evaluated on the whole slice
        at once; without null coupling (A = 0) the pass is a cumulative
        sum of trapezoid increments.
        """
        nq, dx = self.nq, self.dx
        vals = slice_.values
        w = vals[nq:]
        wb = np.asarray(w_boundary, dtype=float)
        if wb.ndim == 1:  # constant in the transverse directions
            wb = wb.reshape(wb.shape + (1,) * (vals.ndim - 2))
        if not np.all(np.isfinite(wb)):
            raise MarchAbortError(
                "non-finite boundary data for the null variables")
        f = self.forcing(vals[:nq])
        if self.coupling.is_zero:
            inc = np.empty_like(w)
            inc[:, 0] = wb
            np.add(f[:, :-1], f[:, 1:], out=inc[:, 1:])
            inc[:, 1:] *= 0.5 * dx
            np.cumsum(inc, axis=1, out=w)
        else:
            w[:, 0] = wb
            A = self.coupling
            for i in range(slice_.x_extent - 1):
                wi = w[:, i]
                k1 = f[:, i] + A(wi)
                k2 = f[:, i + 1] + A(wi + dx * k1)
                w[:, i + 1] = wi + 0.5 * dx * (k1 + k2)
        _check_finite(w, slice_.u_level, "hypersurface integration")

    def evolve(self, slice_: SliceState) -> SliceState:
        """Lax-Friedrichs step of q onto a one-cell-narrower slice."""
        nq = self.nq
        vals = slice_.values
        npts = slice_.x_extent
        if npts < 2:
            raise ValueError("slice too narrow to advance")
        src = self.source(vals)
        q = vals[:nq]
        new = np.zeros((self.n, npts - 1) + vals.shape[2:])
        if npts > 2:
            inner = new[:nq, 1:]
            np.add(q[:, :-2], q[:, 2:], out=inner)
            inner *= 0.5
            inner -= _apply(0.5 * self.NuiNx, q[:, 2:] - q[:, :-2])
            inner -= src[:, 1:-1]
        new[:nq, 0] = (q[:, 0] - _apply(self.NuiNx, q[:, 1] - q[:, 0])
                       - src[:, 0])
        out = SliceState(u_level=slice_.u_level + self.dx, values=new)
        _check_finite(new[:nq], out.u_level, "evolution step")
        return out


def _validate(canon: CanonicalSystem, grid: GridSpec, data: DataSpec):
    if len(grid.transverse) != len(canon.transverse_names):
        raise DataSpecError("grid transverse axes do not match the system")
    if len(data.q0) != canon.nq:
        raise DataSpecError(f"expected {canon.nq} q0 profiles")
    if len(data.w0) != canon.m:
        raise DataSpecError(f"expected {canon.m} w0 profiles")
    for j, name in enumerate(canon.transverse_names):
        coupled = np.any(canon.Ni[name]) or np.any(canon.Li[name])
        if coupled and grid.transverse[j].cells < 4:
            raise DataSpecError(
                f"transverse direction {name} needs at least 4 cells")


def march(canon: CanonicalSystem, grid: GridSpec, data: DataSpec, *,
          report: WellPosednessReport,
          force: bool = False) -> SolutionTrace:
    """Run the zig-zag march: hypersurface integration, then evolution.

    `report` is the well-posedness report of the reduction that gave
    `canon`; systems whose verdict is not WELL_POSED are refused unless
    force=True.  Marches until fewer than two x-points remain.  The
    returned trace cannot change: its slices are a tuple of frozen slices
    with read-only values.
    """
    _validate(canon, grid, data)
    if report.verdict is not Verdict.WELL_POSED and not force:
        raise NotWellPosedError(
            f"verdict is {report.verdict.value}; pass force=True to march anyway")
    # du = dx is stable in x only when rho(Nu^-1 Nx) <= 1
    if _spectral_radius(canon) > 1.0 + 1e-12:
        raise CFLError("spectral_radius(Nu^-1 Nx) exceeds 1")
    stepper = _Stepper(canon, grid)

    tmeshes = grid.transverse_meshes()
    cells = tuple(t.cells for t in grid.transverse)
    x = np.arange(grid.nx + 1) * grid.dx
    nq, m, n = canon.nq, canon.m, canon.n_unknowns

    def q_initial():
        vals = np.zeros((n, grid.nx + 1) + cells)
        xs = x.reshape((grid.nx + 1,) + (1,) * len(cells))
        for a in range(nq):
            vals[a] = evaluate_profile(data.q0[a], xs, tmeshes)
        return vals

    def w_at(u_level):
        wb = np.zeros((m,) + cells)
        for a in range(m):
            wb[a] = evaluate_profile(data.w0[a], u_level, tmeshes)
        return wb

    slices, diagnostics = [], []
    cur = SliceState(u_level=0.0, values=q_initial())
    while True:
        stepper.fill_null(cur, w_at(cur.u_level))
        cur.values.flags.writeable = False
        slices.append(cur)
        diagnostics.append(float(np.abs(cur.values).max())
                           if cur.values.size else 0.0)
        if cur.x_extent < 2:
            break
        cur = stepper.evolve(cur)
    return SolutionTrace(grid=grid, slices=slices, diagnostics=diagnostics)
