"""Hierarchical marching solver on the triangular causal domain.

The domain is {u >= 0, x >= 0, u + x <= X_total} with periodic transverse
directions.  Each u-slice is completed by integrating the hypersurface
equations outward from x = 0 (Heun), then the normal variables are advanced
to the next slice with the one-sided (upwind) difference
q'[i] = q[i] - Nu^-1 Nx (q[i+1] - q[i]) - src[i] in x and centered periodic
transverse differences.  The march steps du = dx, which meets the CFL
condition of that scheme for every WELL_POSED system: Nu > 0, Nx <= 0 and
Nu + Nx > 0 put the eigenvalues of Nu^-1 Nx in (-1, 0], where the step is
Friedrichs' positive scheme, exact for the speeds 0 and -1.  Where
round-off or the verdict's zero band puts one outside [-1, 0], those signs
bound how far it may be.
One x-cell is trimmed per step, so no outer-x boundary condition is needed.

The hypersurface right-hand side is linear in v = (q, w) and q is known on
the slice, so d_x w = f + A w with the q-driven forcing f evaluated over
the whole slice at once.  Heun on that equation is the exact linear
recurrence w_{i+1} = G w_i + g_i, with the propagator
G = I + dx A + dx^2 A^2 / 2 and g_i = dx (f_i + f_{i+1}) / 2 + dx^2 A f_i / 2,
and the pass solves it with a log-depth doubling scan, w[d:] += G^d w[:-d]
for d = 1, 2, 4, ...; without w -> w coupling (A = 0, G = I) the scan is a
cumulative sum.  A that acts pointwise is a real m x m matrix and the scan
runs on the physical slice; A with transverse terms is block-diagonal in
the transverse Fourier modes of a real FFT, with the symbol
M0 + i sum_j M_j sin(theta_j) / h_j of the centred differences, and the
scan runs mode by mode.  The operators (Nu^-1 Nx, Nu^-1 N^i, Nu^-1 N0,
the hypersurface blocks and the powers G^(2^s)) are built once per march,
and the CFL check reads the eigenvalues of the Nu^-1 Nx that the step
multiplies by.  Slice j holds nx + 1 - j x points, and its u is j dx,
taken from that index, not summed.  The field operators are row-sparse:
one stacked product over M0 and the nonzero rows of each transverse M_j,
and each periodic difference, taken from slices of the plane, written
straight into its output row.

Memory: the march owns it.  The slices of one march are consecutive views
of one packed store (x extents nx + 1 down to 1) on an anonymous mapping,
populated by the mmap call where the platform can.  That one kernel pass
is the steadiest way to map a new store in: for the 271 MB store of a
256-cell march (2-vCPU KVM guest) it took 70-100 ms, where faulting the
pages in one by one took 105-200 ms, and huge pages 35-250 ms, by how
much memory the kernel had to compact for them.  When the last view dies,
the mapping returns to a pool that keeps the largest one released, so
the next march of that size reuses mapped pages whatever the allocator's
thresholds.  The step temporaries are views of one work buffer
of the stepper, sized once by the widest slice.

`march` is the one public way into the scheme, so its guards (grid and data
against the system, the verdict, the CFL check) hold for every step taken.
It alone owns the slices and the one np.errstate: it writes the data (no
pass rewrites w_0), steps, checks and freezes each one, and the stepper
only computes, in place.
"""
from __future__ import annotations

import math
import mmap
import numbers
import weakref
from dataclasses import dataclass, field, fields

import numpy as np

from . import matkit
from .canonical import CanonicalSystem
from .wellposed import Verdict, WellPosednessReport


class CFLError(ValueError):
    """An eigenvalue of Nu^-1 Nx is not real or lies outside [-1, 0], beyond
    the slack the verdict's signs give, so the upwind step du = dx is
    unstable."""


class NotWellPosedError(RuntimeError):
    """March refused: system verdict is not WELL_POSED (use force=True)."""


class MarchAbortError(RuntimeError):
    """Non-finite value produced during the march."""


class DataSpecError(ValueError):
    """Initial-data specification inconsistent with the system or grid."""


def _check_count(value, name: str, low: int):
    # numpy integers are integers, bool is not
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class TransverseAxis:
    """A periodic coordinate on [0, 2 pi) of `cells` cells of width h."""
    cells: int

    def __post_init__(self):
        _check_count(self.cells, "cells", 1)

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
        _check_count(self.nx, "nx", 2)

    @property
    def dx(self) -> float:
        return self.X_total / self.nx

    @property
    def cells(self) -> tuple:
        """The cell count of each transverse axis."""
        return tuple(t.cells for t in self.transverse)

    def transverse_meshes(self):
        """Open periodic grids, meshed with indexing='ij'."""
        return list(np.meshgrid(*(np.arange(t.cells) * t.h
                                  for t in self.transverse), indexing="ij"))

    def transverse_cell_volume(self) -> float:
        return math.prod((t.h for t in self.transverse), start=1.0)


# the shape fields that each kind of profile takes, as do the CLI's presets
_TAKES = {"sine": ("amp", "k", "phase"), "gauss": ("amp", "center", "width")}


@dataclass(frozen=True)
class ProfileTerm:
    """One separable data term: amp * base(s) * prod_i cos(k_i theta_i + p_i).

    base is sin(k s + phase) for kind='sine' and a Gaussian bump
    exp(-((s - center) / width)^2) for kind='gauss'; a field that the
    kind does not read must keep its default.  The transverse axes are
    periodic on [0, 2 pi), so each wavenumber k_i must be an integer.  s is
    x for normal data and u for null data; a zero profile is the empty
    tuple of terms.
    """
    kind: str
    amp: float = 1.0
    k: float = 1.0
    phase: float = 0.0
    center: float = 0.0
    width: float = 1.0
    trans: tuple = ()   # ((wavenumber, phase), ...) per transverse axis

    def __post_init__(self):
        if self.kind not in _TAKES:
            raise DataSpecError(f"unknown profile kind '{self.kind}'")
        takes = ("kind", "trans") + _TAKES[self.kind]
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in takes and value != f.default:
                raise DataSpecError(f"profile kind '{self.kind}' does not "
                                    f"take {f.name}, got {value!r}")
        for name in ("amp", "k", "phase", "center"):
            if not math.isfinite(getattr(self, name)):
                raise DataSpecError(f"profile {name} must be finite, "
                                    f"got {getattr(self, name)!r}")
        if not (math.isfinite(self.width) and self.width > 0):
            raise DataSpecError(
                f"profile width must be finite and > 0, got {self.width!r}")
        for i, pair in enumerate(self.trans):
            if len(pair) != 2 or not all(map(math.isfinite, pair)):
                raise DataSpecError(
                    f"profile trans[{i}] must be a finite (wavenumber, "
                    f"phase) pair, got {pair!r}")
            if not float(pair[0]).is_integer():
                raise DataSpecError(
                    f"profile trans[{i}] wavenumber must be an integer, "
                    f"got {pair[0]!r}")

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


@dataclass(frozen=True, eq=False)
class SliceState:
    u_level: float
    values: np.ndarray   # (n_unknowns, x_extent, *cells), order (q, w)

    @property
    def x_extent(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class SolutionTrace:
    """The slices of one march: slice j lies at u = j dx and holds
    nx + 1 - j x points.  A trace cannot change: slices and diagnostics
    are tuples (a list passed in is copied into one)."""
    grid: GridSpec
    slices: tuple = ()
    diagnostics: tuple = ()   # per-slice max |v|
    # energymon's per-slice forms, one record per compact system
    _forms: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(self.slices))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))

    @property
    def n_slices(self) -> int:
        return len(self.slices)


def _centred_difference(plane: np.ndarray, axis: int,
                        out: np.ndarray) -> None:
    """out = f[j+1] - f[j-1] along one periodic axis of at least 3 cells,
    built from slices of the plane.  Each component row of `plane` and of
    `out` must be contiguous; the rows need not be adjacent."""
    axis %= plane.ndim
    rows, size = plane.shape[0], math.prod(plane.shape[1:])
    # neighbours along the axis lie `stride` apart in a flat row: one
    # contiguous pass per row is right for 0 < j < n-1 ...
    stride = math.prod(plane.shape[axis + 1:])
    flat = plane.reshape(rows, size)
    np.subtract(flat[:, 2 * stride:], flat[:, :-2 * stride],
                out=out.reshape(rows, size)[:, stride:-stride])

    # ... and the wrap-around at j = 0 and j = n-1 is written over it
    def at(lo, hi):
        return (slice(None),) * axis + (slice(lo, hi),)

    np.subtract(plane[at(1, 2)], plane[at(-1, None)], out=out[at(None, 1)])
    np.subtract(plane[at(None, 1)], plane[at(-2, -1)], out=out[at(-1, None)])


def _progressions(rows) -> list:
    """Sorted row indices as slices of constant step, grown greedily."""
    runs = []
    for r in map(int, rows):
        if runs and (len(runs[-1]) == 1
                     or r - runs[-1][-1] == runs[-1][1] - runs[-1][0]):
            runs[-1].append(r)
        else:
            runs.append([r])
    return [slice(run[0], run[-1] + 1, run[-1] - run[-2] if len(run) > 1
                  else 1) for run in runs]


class _FieldOperator:
    """v -> M0 v + sum_j M_j d_j v on a field plane whose trailing axes are
    the transverse ones; d_j is the centred periodic difference along
    transverse axis j.  Zero matrices are dropped.

    A call is one stacked product of the plane with M0 and with the
    nonzero rows of each M_j, into work buffers sized once for planes of
    up to `width` x points.  M0's rows of the product are the result;
    without M0 each difference is written straight into its output row,
    through a difference buffer only where the row already holds another
    term, and rows that no term touches are set to zero.  The result is a
    view of the buffers, valid until the next call.

    Each entry is the sum that M0 v + sum_j d_j (M_j v) makes, in the same
    order, and so the same bits, as long as every product keeps its BLAS
    path: a row of a matrix product (gemm) rounds alike whatever rows are
    stacked with it, but a one-row product takes numpy's vector path.  So
    a lone stacked row is padded to two, and the terms of a one-row
    operator keep a product each.
    """

    def __init__(self, M0, Mt, grid: GridSpec, width: int):
        self.rows, self.cols = M0.shape
        self.M0 = M0 if np.any(M0) else None
        self.cells = grid.cells
        nt = len(self.cells)
        self.terms = [(M / (2.0 * t.h), j - nt)
                      for j, (M, t) in enumerate(zip(Mt, grid.transverse))
                      if np.any(M)]
        # (axis, rows of the product, output rows, added) per difference;
        # along fewer than 3 cells the difference vanishes
        blocks = [] if self.M0 is None else [self.M0]
        touched = np.full(self.rows, self.M0 is not None)
        self._steps = []
        for M, axis in self.terms:
            if self.cells[axis] < 3:
                continue
            nonzero = np.flatnonzero(M.any(axis=1))
            for added in (False, True):
                for rows in _progressions(
                        nonzero[touched[nonzero] == added]):
                    k = sum(map(len, blocks))
                    blocks.append(M[rows])
                    self._steps.append(
                        (axis, slice(k, k + len(blocks[-1])), rows, added))
            touched[nonzero] = True
        self._zero = _progressions(np.flatnonzero(~touched))
        S = np.vstack(blocks) if blocks else np.zeros((0, self.cols))
        if self.rows == 1:
            self._products = [(S[i:i + 1], slice(i, i + 1))
                              for i in range(len(S))]
        else:
            if len(S) == 1:
                S = np.vstack([S, np.zeros_like(S)])
            self._products = [(S, slice(0, len(S)))] if len(S) else []
        # work: the product, the result when it is not M0's rows, and the
        # difference buffer, each (rows, *plane.shape[1:])
        self._k = len(S)
        out_rows = 0 if self.M0 is not None else self.rows
        diff_rows = max((p.stop - p.start for _, p, _, added in self._steps
                         if added), default=0)
        ends = np.cumsum([0, self._k, out_rows, diff_rows])
        self._regions = tuple(zip(ends[:-1], ends[1:]))
        self.work = int(ends[-1]) * width * math.prod(self.cells)

    @property
    def is_zero(self) -> bool:
        return self.M0 is None and not self.terms

    def symbol(self) -> np.ndarray:
        """The operator on each transverse mode of `numpy.fft.rfftn`,
        M0 + i sum_j M_j sin(theta_j) / h_j, shaped (*modes, rows, cols).

        The centred difference f[j+1] - f[j-1] of mode theta is
        2i sin(theta) f, and sin(theta) is exactly 0 at theta = 0 and pi,
        where the difference of the plane cancels exactly."""
        modes = self.cells[:-1] + (self.cells[-1] // 2 + 1,)
        nt = len(modes)
        out = np.zeros(modes + (self.rows, self.cols), dtype=complex)
        if self.M0 is not None:
            out += self.M0
        for M, axis in self.terms:
            n = self.cells[axis]
            k = np.arange(modes[axis])
            sin = np.where((k == 0) | (2 * k == n), 0.0,
                           np.sin(2.0 * math.pi * k / n))
            shape = [1] * nt + [1, 1]
            shape[axis + nt] = len(k)
            out += 2j * sin.reshape(shape) * M
        return out

    def __call__(self, plane: np.ndarray, work: np.ndarray) -> np.ndarray:
        """The operator on `plane`, computed in `work` (at least `self.work`
        entries for the widest plane); the result is a view of `work`."""
        shape = plane.shape[1:]
        size = math.prod(shape)
        stack, out, diff = (work[a * size:b * size].reshape((b - a,) + shape)
                            for a, b in self._regions)
        if self._products:
            flat = plane.reshape(self.cols, size)
            product = stack.reshape(self._k, size)
            for S, rows in self._products:
                np.matmul(S, flat, out=product[rows])
        if self.M0 is not None:
            out = stack[:self.rows]
        for axis, product_rows, rows, added in self._steps:
            if added:
                d = diff[:product_rows.stop - product_rows.start]
                _centred_difference(stack[product_rows], axis, d)
                out[rows] += d
            else:
                _centred_difference(stack[product_rows], axis, out[rows])
        for rows in self._zero:
            out[rows] = 0.0
        return out


def _finite_max(block: np.ndarray, u_level: float, what: str) -> float:
    """max |block| from one max and one min, without a temporary; 0.0 for
    an empty block.  inf or NaN aborts the march, naming `what`."""
    top = abs(float(max(block.max(), -block.min()))) if block.size else 0.0
    if not math.isfinite(top):
        raise MarchAbortError(
            f"non-finite value in {what} at u = {u_level:.6g}")
    return top


def _sign_rule_slack(P, Nu, Nx, tols: matkit.Tolerances) -> float:
    """How far an eigenvalue of P = Nu^-1 Nx may lie outside [-1, 0] where
    the verdict's signs at tols, symmetric Nu > 0, Nx <= 0 and Nu + Nx >= 0,
    put the exact ones inside: the zero band tols.eig on P's scale (on Nx's
    it would pass 1 / lambda_min(Nu) times the band) plus the round-off of
    forming P, n eps cond(Nu) ||P||.  0.0 where the signs do not hold."""
    try:
        cls = [matkit.classify_definiteness(M, tols)
               for M in (Nu, Nx, Nu + Nx)]
    except matkit.NotSymmetricError:
        return 0.0
    if not (cls[0].tag is matkit.Definiteness.POSITIVE_DEFINITE
            and cls[1].is_nonpositive() and cls[2].is_nonnegative()):
        return 0.0
    lam = cls[0].eigenvalues
    return (tols.eig + len(lam) * np.finfo(float).eps * lam[-1] / lam[0]) \
        * float(np.linalg.norm(P, 2))


class _Stepper:
    """The operators of the march for one system and grid, built once.

    Hypersurface pass: d_x w = f + A w, with the q-driven forcing
    f = -(L0_q q + L^i_q d_i q) and the null coupling
    A w = -(L0_w w + L^i_w d_i w), and the powers G^(2^s) of its Heun
    propagator G = I + dx A + dx^2 A^2 / 2 that the scan of the widest
    slice uses: real m x m matrices when A is pointwise, one per transverse
    Fourier mode when it is not, none when A = 0.  Evolution by one step
    du = dx: Nu^-1 Nx, checked here for the CFL condition (its eigenvalues,
    up to the verdict's slack at `tols`) before anything else is built
    from it, and the source operator dx Nu^-1 (N0 v + N^i d_i v).

    The stepper only computes, in place on the slice values it is given:
    it knows no u, sets no floating-point policy, never writes w_0 and
    checks only its propagator powers.  It owns its temporaries: the
    operators and the x difference of q compute in views of one work
    buffer, sized once for the widest slice, which the hypersurface pass
    and the evolution step share; only the spectral scan allocates.
    """

    def __init__(self, canon: CanonicalSystem, grid: GridSpec,
                 tols: matkit.Tolerances = matkit.Tolerances()):
        nq = canon.nq
        names = canon.transverse_names
        width = grid.nx + 1
        self.nq, self.dx = nq, grid.dx
        self.forcing = _FieldOperator(
            -canon.L0[:, :nq], [-canon.Li[k][:, :nq] for k in names], grid,
            width)
        self.coupling = _FieldOperator(
            -canon.L0[:, nq:], [-canon.Li[k][:, nq:] for k in names], grid,
            width)
        Nui = np.linalg.inv(canon.Nu) if nq else np.zeros((0, 0))
        self.NuiNx = Nui @ canon.Nx
        # the upwind x step with du = dx is stable only when every
        # eigenvalue of the P = Nu^-1 Nx it multiplies by is real and in
        # [-1, 0].  Where one is not, the verdict's signs bound how far it
        # may be (`_sign_rule_slack`); CFLError names the first beyond that
        for lam in np.linalg.eigvals(self.NuiNx):
            excess = max(abs(lam.imag), lam.real, -1.0 - lam.real)
            if excess > 1e-12 and excess > _sign_rule_slack(
                    self.NuiNx, canon.Nu, canon.Nx, tols):
                raise CFLError(f"eigenvalue {lam:.6g} of Nu^-1 Nx is outside "
                               f"[-1, 0]: the upwind step du = dx is unstable")
        self.source = _FieldOperator(
            grid.dx * Nui @ canon.N0,
            [grid.dx * Nui @ canon.Ni[k] for k in names], grid, width)
        self.powers = [] if self.coupling.is_zero else \
            self._propagator_powers(width)
        # the step temporaries: those of the hypersurface pass (the
        # forcing, then the coupling of it, or the pointwise scan's
        # G^d w[:-d]) and those of the evolution step (the source, then the
        # x difference of q) share one buffer
        scan = 0 if self.coupling.terms or not self.powers else \
            canon.m * width * math.prod(grid.cells)
        self._work = np.empty(max(
            self.forcing.work + self.coupling.work, scan,
            self.source.work + nq * width * math.prod(grid.cells)))

    def _propagator_powers(self, x_extent: int) -> list:
        """G^(2^s) for every 2^s < x_extent; an overflow is an abort."""
        A = self.coupling.symbol() if self.coupling.terms else \
            self.coupling.M0
        dx = self.dx
        G = np.eye(A.shape[-1]) + dx * A + (0.5 * dx * dx) * (A @ A)
        powers = [G]
        while 2 ** len(powers) < x_extent:
            powers.append(powers[-1] @ powers[-1])
        for s, P in enumerate(powers):
            if not np.all(np.isfinite(P)):
                raise MarchAbortError(
                    f"non-finite hypersurface propagator power G^{2 ** s} "
                    f"(dx = {dx:.6g})")
        return powers

    def fill_null(self, vals: np.ndarray) -> None:
        """Integrate d_x w = f + A w outward from the w_0 in column x = 0
        of the slice values `vals`, in place, leaving that column as it is.

        Heun's step is w_{i+1} = G w_i + g_i with
        g_i = dx (f_i + f_{i+1}) / 2 + dx^2 A f_i / 2, built for the whole
        slice from one forcing and, with null coupling, one coupling
        evaluation and stored in w behind w_0.  `_scan` then solves the
        recurrence in place.  An overflow leaves inf or NaN in w.
        """
        nq, dx = self.nq, self.dx
        w = vals[nq:]
        f = self.forcing(vals[:nq], self._work)
        np.add(f[:, :-1], f[:, 1:], out=w[:, 1:])
        if not self.coupling.is_zero:
            Af = self.coupling(f, self._work[self.forcing.work:])[:, :-1]
            Af *= dx
            w[:, 1:] += Af
        w[:, 1:] *= 0.5 * dx
        self._scan(w)

    def _scan(self, w: np.ndarray) -> None:
        """w[i] <- sum_{k <= i} G^(i-k) w[k] along x, in place: a doubling
        scan, w[d:] += G^d w[:-d] for d = 1, 2, 4, ... < x_extent, the
        right side taken from the values before the update.  Pointwise A
        scans the physical slice; A with transverse terms scans each
        transverse Fourier mode with that mode's G^d.  Without null
        coupling (G = I) the scan is a cumulative sum."""
        if not self.powers:
            np.cumsum(w, axis=1, out=w)
            return
        axes = tuple(range(2, w.ndim))
        spectral = bool(self.coupling.terms)
        z = np.fft.rfftn(w, axes=axes) if spectral else w
        for s, P in enumerate(self.powers):
            d = 2 ** s
            if d >= w.shape[1]:
                break
            head = z[:, :-d]
            product = None if spectral else \
                self._work[:head.size].reshape(head.shape)
            z[:, d:] += np.einsum("...ab,bx...->ax...", P, head, out=product)
        if spectral:   # column x = 0, w_0, stays the data it was
            w[:, 1:] = np.fft.irfftn(z[:, 1:], s=w.shape[2:], axes=axes)

    def evolve(self, vals: np.ndarray, new: np.ndarray) -> None:
        """Upwind step of q from the slice values `vals` onto `new`, one x
        point narrower: q'[i] = q[i] - Nu^-1 Nx (q[i+1] - q[i]) - src[i]
        is written into the q rows of `new`, its w rows are left to
        `fill_null`.  An overflow leaves inf or NaN in q'."""
        nq = self.nq
        q, head = vals[:nq], new[:nq]
        size = math.prod(head.shape[1:])
        # on the whole contiguous slice: its last x point is not read
        src = self.source(vals, self._work)
        start = self.source.work
        d = self._work[start:start + head.size].reshape(head.shape)
        np.subtract(q[:, 1:], q[:, :-1], out=d)
        np.matmul(self.NuiNx, d.reshape(nq, size), out=head.reshape(nq, size))
        np.subtract(q[:, :-1], head, out=head)
        head -= src[:, :-1]


# At most one released trace mapping, the largest: a later march of that
# size or smaller takes it back with its pages already mapped in.  It is
# process-wide, as the allocator it replaces is.  Only single list
# operations touch it, and finalizers run in any thread, so a race can at
# worst drop a larger mapping for a smaller one.
_POOL = []
# private anonymous memory (mmap's default is shared, which the kernel
# backs with shmem), populated by the mmap call where the platform has
# MAP_POPULATE; Windows has no flags
_PRIVATE = {"flags": mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)} \
    if hasattr(mmap, "MAP_PRIVATE") else {}


def _release(mapping: mmap.mmap) -> None:
    pooled = _POOL[:1]
    if not pooled or len(mapping) > len(pooled[0]):
        _POOL[:] = [mapping]


def _store(size: int) -> np.ndarray:
    """`size` float64 entries, not zeroed, on an anonymous mapping: the
    pooled one when it is large enough, else a new, populated one.

    Every view of the returned array has it as `.base`, so it dies with
    the last slice of its trace, and its finalizer returns the mapping to
    the pool."""
    nbytes = 8 * size
    try:
        mapping = _POOL.pop()
    except IndexError:
        mapping = None
    if mapping is not None and len(mapping) < nbytes:
        _release(mapping)
        mapping = None
    if mapping is None:
        mapping = mmap.mmap(-1, nbytes, **_PRIVATE)
    store = np.frombuffer(mapping, dtype=float, count=size)
    weakref.finalize(store, _release, mapping).atexit = False
    return store


def _packed_slices(n: int, nx: int, cells: tuple):
    """The values of the slices of one march, x extents nx + 1 down to 1,
    as consecutive views of one store."""
    per_x = n * math.prod(cells)
    store = _store(per_x * (nx + 1) * (nx + 2) // 2)
    start = 0
    for width in range(nx + 1, 0, -1):
        stop = start + per_x * width
        yield store[start:stop].reshape((n, width) + cells)
        start = stop


def _validate(canon: CanonicalSystem, grid: GridSpec, data: DataSpec):
    if len(grid.transverse) != len(canon.transverse_names):
        raise DataSpecError("grid transverse axes do not match the system")
    if len(data.q0) != canon.nq:
        raise DataSpecError(f"expected {canon.nq} q0 profiles")
    if len(data.w0) != canon.m:
        raise DataSpecError(f"expected {canon.m} w0 profiles")
    # fewer pairs are legal: a term is constant along an axis it omits
    nt = len(grid.transverse)
    for side, profiles in (("q0", data.q0), ("w0", data.w0)):
        for a, terms in enumerate(profiles):
            for term in terms:
                if len(term.trans) > nt:
                    raise DataSpecError(
                        f"profile {side}[{a}] has a term with "
                        f"{len(term.trans)} transverse pairs, but the grid "
                        f"has {nt} transverse axes")
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
    force=True, and CFLError refuses one only for a speed that the upwind
    step amplifies and the verdict's zero band hides.  For each of
    the nx + 1 views of its store it writes q0 (slice 0) or takes the
    evolution step, writes w0 into column x = 0, runs the hypersurface
    pass, checks each new block (inf or NaN, which an overflow leaves under
    the march's np.errstate, raises MarchAbortError naming it) and freezes
    the slice.  The returned trace cannot change: its slices are a tuple
    of frozen slices with read-only values.
    """
    _validate(canon, grid, data)
    if report.verdict is not Verdict.WELL_POSED and not force:
        raise NotWellPosedError(
            f"verdict is {report.verdict.value}; pass force=True to march anyway")
    tmeshes = grid.transverse_meshes()
    xs = (np.arange(grid.nx + 1) * grid.dx).reshape(
        (grid.nx + 1,) + (1,) * len(grid.transverse))
    nq, m, n = canon.nq, canon.m, canon.n_unknowns

    # slice j lies at u = j dx; diagnostics[j] = max |v| on it, the larger
    # of max |q| and max |w|.  Data whose terms sum past the float range
    # is inf, and its own check names it before the pass reads it.
    slices, diagnostics = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        stepper = _Stepper(canon, grid, report.tols)
        for j, vals in enumerate(_packed_slices(n, grid.nx, grid.cells)):
            u = j * grid.dx
            if j == 0:
                for a in range(nq):
                    vals[a] = evaluate_profile(data.q0[a], xs, tmeshes)
            else:
                stepper.evolve(slices[-1].values, vals)
            for a in range(m):
                vals[nq + a, 0] = evaluate_profile(data.w0[a], u, tmeshes)
            q_top = _finite_max(vals[:nq], u,
                                "evolution step" if j else "q0 data")
            _finite_max(vals[nq:, 0], u, "w0 data")
            stepper.fill_null(vals)
            w_top = _finite_max(vals[nq:], u, "hypersurface integration")
            vals.flags.writeable = False
            slices.append(SliceState(u_level=u, values=vals))
            diagnostics.append(max(q_top, w_top))
    return SolutionTrace(grid=grid, slices=slices, diagnostics=diagnostics)
