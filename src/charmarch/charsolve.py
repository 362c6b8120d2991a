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
the hypersurface blocks and the powers G^(2^s)) are built once per march
(`_Stepper`), and the CFL check reads the eigenvalues of the Nu^-1 Nx that
the step multiplies by.  Their zero entries are decided there once, on
the system's scale: |a| <= n eps s is zero, n the number of unknowns and s
the largest |entry| of a's family ({L0, L^i}, {N0, N^i}, Nu^-1 Nx, or
the source {dx Nu^-1 N0, dx Nu^-1 N^i} once more after its product), so
reduction round-off neither picks the spectral scan nor adds a term.  At
m = 1 a pointwise A is a number, and A f one multiply.  Slice j holds
nx + 1 - j x points, and its u is j dx, taken from that index, not summed.

Memory: the slices of one march are consecutive views of one packed store
on an anonymous mapping (`_trace_store`), populated by the mmap call where
the platform can.  That one kernel pass is the steadiest way to map a new
store in: for the 271 MB store of a 256-cell march (2-vCPU KVM guest) it
took 70-100 ms, where faulting the pages in one by one took 105-200 ms,
and huge pages 35-250 ms, by how much memory the kernel had to compact for
them.  When the last view dies, the mapping returns to a pool that keeps
the largest one released, so the next march of that size reuses mapped
pages whatever the allocator's thresholds.
"""
from __future__ import annotations

import errno
import math
import mmap
import numbers
import sys
import weakref
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .canonical import CanonicalSystem
from .matkit import Definiteness
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
        # dx must not underflow to 0; an nx past the float range has no
        # float quotient at all
        if self.nx > sys.float_info.max or not self.X_total / self.nx > 0:
            raise ValueError(f"X_total / nx must be a float > 0, got "
                             f"X_total = {self.X_total!r}, nx = {self.nx!r}")

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
        try:
            pairs = tuple(self.trans)
        except TypeError:   # a bare number, as in 1.0 for ((1.0, 0.0),)
            raise DataSpecError(
                f"profile trans must be a tuple of (wavenumber, phase) "
                f"pairs, got {self.trans!r}") from None
        for i, pair in enumerate(pairs):
            try:  # a bare number, as in ((k, p)) for ((k, p),), has no len
                ok = len(pair) == 2 and all(map(math.isfinite, pair))
            except TypeError:
                ok = False
            if not ok:
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
    are tuples (a list passed in is copied into one).

    Every slice holds the same unknowns on the grid's transverse cells,
    else DataSpecError names the slice.  The slices are views of one
    read-only packed store, a row of cells per component and x point of
    each slice in turn: `march` hands over the store it wrote, and a trace
    built by hand from slices copies them into one store when it is made,
    and remakes them as its views, so that no later write to the arrays
    passed in reaches the trace.  Level K, the nodes (j, K - j), is
    covered when every slice j <= K holds x index K - j; the covered
    levels are 0 .. levels - 1.
    """
    grid: GridSpec
    slices: tuple = ()
    diagnostics: tuple = ()   # per-slice max |v|
    # energymon's per-slice forms, one record per compact system
    _forms: dict = field(default_factory=dict, init=False, repr=False)
    # the packed store of the slices, as `march` passes it in; None to
    # copy them into one.  Kept as (rows, cells)
    _store: np.ndarray = field(default=None, repr=False, kw_only=True)
    # R0[c, j]: the store row of node (j, 0), component c, minus j
    _rows: np.ndarray = field(init=False, repr=False)
    _levels: int = field(init=False, repr=False)

    def __post_init__(self):
        slices = tuple(self.slices)
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))
        cells = self.grid.cells
        n = slices[0].values.shape[0] if slices else 0
        for j, s in enumerate(slices):
            shape = s.values.shape
            if len(shape) < 2 or shape[2:] != cells:
                raise DataSpecError(
                    f"slice {j} of shape {shape} does not fit the grid's "
                    f"transverse cells {cells}")
            if shape[0] != n:
                raise DataSpecError(f"slice {j} holds {shape[0]} unknowns, "
                                    f"slice 0 holds {n}")
        widths = np.array([s.x_extent for s in slices], dtype=np.intp)
        j = np.arange(len(slices))
        starts = np.cumsum(n * widths) - n * widths
        object.__setattr__(self, "_rows", starts
                           + np.arange(n)[:, None] * widths - j)
        object.__setattr__(self, "_levels", int(
            (widths + j).min(initial=len(slices))))
        store = self._store
        if store is None:
            store = np.concatenate([s.values.reshape(-1) for s in slices]
                                   or [np.zeros(0)])
            store.flags.writeable = False
            views = _slice_views(store, [s.values.shape for s in slices])
            slices = tuple(replace(s, values=v)
                           for s, v in zip(slices, views))
        object.__setattr__(self, "slices", slices)
        object.__setattr__(self, "_store",
                           store.reshape(-1, math.prod(cells)))

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    def _gather(self, rows: np.ndarray) -> np.ndarray:
        return self._store.take(rows, axis=0).reshape(
            rows.shape + self.grid.cells)

    def _level_nodes(self, K: int) -> np.ndarray:
        """The nodes (j, K - j), j = 0..K, of a covered level K, in one
        gather: (unknowns, K + 1, *cells)."""
        return self._gather(self._rows[:, :K + 1] + K)

    def _x0_column(self) -> np.ndarray:
        """Column x = 0 of the slices of the covered levels, in one
        gather: (unknowns, levels, *cells)."""
        return self._gather(self._rows[:, :self._levels]
                            + np.arange(self._levels))


def _centred_difference(flat: np.ndarray, res: np.ndarray, stride: int,
                        block: int) -> None:
    """res = f[j+1] - f[j-1] along one periodic axis of n >= 3 cells, on
    (rows, points) views of a plane whose rows are contiguous but need not
    be adjacent: neighbours along the axis lie `stride` entries apart in a
    row, which is made of blocks of block = n * stride entries."""
    # one contiguous pass per row is right for 0 < j < n-1 ...
    np.subtract(flat[:, 2 * stride:], flat[:, :-2 * stride],
                out=res[:, stride:-stride])
    # ... and the wrap-around at j = 0 and j = n-1 is written over it, in
    # each block of a row
    shape = (len(flat), -1, block)
    flat, res = flat.reshape(shape), res.reshape(shape)
    np.subtract(flat[:, :, stride:2 * stride], flat[:, :, -stride:],
                out=res[:, :, :stride])
    np.subtract(flat[:, :, :stride], flat[:, :, -2 * stride:-stride],
                out=res[:, :, -stride:])


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
    up to the grid's nx + 1 x points.  M0's rows of the product are the
    result; without M0 each difference is written straight into its output
    row, through a difference buffer only where the row already holds
    another term, and rows that no term touches are set to zero.  The
    result is a view of the buffers, valid until the next call.  The
    strides of the differences and the rows of each buffer are fixed
    here; a call works on (rows, points) views whose length, the plane's
    x points times its cells, is all it computes.

    Each entry is the sum that M0 v + sum_j d_j (M_j v) makes, in the same
    order, and so the same bits, as long as every product keeps its BLAS
    path: a row of a matrix product (gemm) rounds alike whatever rows are
    stacked with it, but a one-row product takes numpy's vector path.  So
    a lone stacked row is padded to two, and the terms of a one-row
    operator keep a product each.
    """

    def __init__(self, M0, Mt, grid: GridSpec):
        self.rows, self.cols = M0.shape
        self.M0 = M0 if np.any(M0) else None
        self.cells = grid.cells
        nt = len(self.cells)
        self.terms = [(M / (2.0 * t.h), j - nt)
                      for j, (M, t) in enumerate(zip(Mt, grid.transverse))
                      if np.any(M)]
        # (rows of the product, output rows, rows of the difference buffer
        # when added to the output, else 0, stride, block) per difference;
        # along fewer than 3 cells the difference vanishes
        blocks = [] if self.M0 is None else [self.M0]
        touched = np.full(self.rows, self.M0 is not None)
        self._cell_size = math.prod(self.cells)
        self._steps = []
        for M, axis in self.terms:
            if self.cells[axis] < 3:
                continue
            stride = math.prod(self.cells[nt + axis + 1:])
            nonzero = np.flatnonzero(M.any(axis=1))
            for added in (False, True):
                for rows in _progressions(
                        nonzero[touched[nonzero] == added]):
                    k = sum(map(len, blocks))
                    blocks.append(M[rows])
                    n = len(blocks[-1])
                    self._steps.append((slice(k, k + n), rows, added * n,
                                        stride, self.cells[axis] * stride))
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
        # work: the product (rows 0 .. k), the result when it is not M0's
        # rows (k .. diff) and the difference buffer (diff ..), each
        # (rows, points)
        self._k = len(S)
        self._diff = self._k + (0 if self.M0 is not None else self.rows)
        diff_rows = max((step[2] for step in self._steps), default=0)
        self.work = (self._diff + diff_rows) * (grid.nx + 1) \
            * self._cell_size

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
        size = shape[0] * self._cell_size
        stack = work[:self._k * size].reshape(self._k, size)
        if self._products:
            flat = plane.reshape(self.cols, size)
            for S, rows in self._products:
                np.matmul(S, flat, out=stack[rows])
        out = stack[:self.rows] if self.M0 is not None else \
            work[self._k * size:self._diff * size].reshape(self.rows, size)
        diff = work[self._diff * size:]
        for product_rows, rows, added, stride, block in self._steps:
            if added:
                d = diff[:added * size].reshape(added, size)
                _centred_difference(stack[product_rows], d, stride, block)
                out[rows] += d
            else:
                _centred_difference(stack[product_rows], out[rows], stride,
                                    block)
        for rows in self._zero:
            out[rows] = 0.0
        return out.reshape((self.rows,) + shape)


class _UpwindStep:
    """head = q[:, :-1] - P (q[:, 1:] - q[:, :-1]) - src[:, :-1], the upwind
    x step with P = Nu^-1 Nx.

    Where P uses one column c, as wave3d's P = diag(-1/2, 0, 0) does, the
    x difference d is taken of q_c alone, the rows that span P's nonzero
    ones take P[:, c] d in one multiply per entry, and the rows outside
    that span, zero in P, get q - src in one subtract per progression.
    For finite d every entry equals the dense step's, as a row of P with
    one nonzero entry sums nothing.  Any other P takes the dense product
    on the difference of all of q.  d lives in a work buffer of at least
    `work` entries, sized for planes of up to the grid's nx + 1 x points.
    """

    def __init__(self, P: np.ndarray, grid: GridSpec):
        rows = np.flatnonzero(P.any(axis=1))
        cols = np.flatnonzero(P.any(axis=0))
        self._rows = self._cols = slice(None)
        self._outside, self._times = [], np.matmul
        if len(cols) == 1:
            lo, hi, c = int(rows[0]), int(rows[-1]) + 1, int(cols[0])
            self._rows, self._cols = slice(lo, hi), slice(c, c + 1)
            self._outside = [r for r in (slice(0, lo), slice(hi, len(P)))
                             if r.start < r.stop]
            self._times = np.multiply
        self.P = np.ascontiguousarray(P[self._rows, self._cols])
        self._cell_size = math.prod(grid.cells)
        self.work = self.P.shape[1] * (grid.nx + 1) * self._cell_size

    def __call__(self, q: np.ndarray, src: np.ndarray, head: np.ndarray,
                 work: np.ndarray) -> None:
        """Write the step of q, with the source src, into head, one x
        point narrower; `work` holds at least `self.work` entries.  Each
        of them must be contiguous: the step works on their (rows, points)
        views, where the next x point lies one cell plane further on."""
        cells = self._cell_size
        size = head.shape[1] * cells
        q = q.reshape(len(q), size + cells)
        src = src.reshape(len(src), size + cells)
        head = head.reshape(len(head), size)
        span = head[self._rows]
        d = work[:self.P.shape[1] * size].reshape(self.P.shape[1], size)
        np.subtract(q[self._cols, cells:], q[self._cols, :-cells], out=d)
        self._times(self.P, d, out=span)
        np.subtract(q[self._rows, :-cells], span, out=span)
        span -= src[self._rows, :-cells]
        for r in self._outside:
            np.subtract(q[r, :-cells], src[r, :-cells], out=head[r])


def _slice_max(vals: np.ndarray, nq: int, u_level: float,
               first: bool) -> float:
    """max |v| on the values of a finished slice, from one max and one min
    over the whole slice, without a temporary: the larger of max |q| and
    max |w|.  A slice that is not finite has its blocks checked in the
    order the march made them, and the first that holds inf or NaN aborts,
    named: the q rows ("q0 data" on the first slice, else "evolution
    step"), the w0 column ("w0 data"), then the w rows ("hypersurface
    integration")."""
    top = abs(float(max(vals.max(), -vals.min())))
    if not math.isfinite(top):
        for block, what in ((vals[:nq], "q0 data" if first else
                             "evolution step"),
                            (vals[nq:, 0], "w0 data"),
                            (vals[nq:], "hypersurface integration")):
            if not np.isfinite(block).all():
                raise MarchAbortError(
                    f"non-finite value in {what} at u = {u_level:.6g}")
    return top


def _sign_rule_slack(P, report: WellPosednessReport) -> float:
    """How far an eigenvalue of P = Nu^-1 Nx may lie outside [-1, 0] where
    the report's signs (symmetric C^u and C^x, Nu > 0, Nx <= 0, Nu + Nx >= 0)
    put the exact ones inside: the zero band tols.eig on P's scale (on Nx's
    it would pass 1 / lambda_min(Nu) times the band) plus the round-off of
    forming P, n eps cond(Nu) ||P||.  0.0 where the signs do not hold."""
    if not (report.symmetric_Ca["u"] and report.symmetric_Ca["x"]
            and report.class_Nu.tag is Definiteness.POSITIVE_DEFINITE
            and report.class_Nx.is_nonpositive()
            and report.class_NuPlusNx.is_nonnegative()):
        return 0.0
    lam, tols = report.class_Nu.eigenvalues, report.tols
    return (tols.eig + len(lam) * np.finfo(float).eps * lam[-1] / lam[0]) \
        * float(np.linalg.norm(P, 2))


def _structural(n: int, *blocks) -> list:
    """One family of blocks with its round-off taken out: an entry counts
    as a structural zero when |a| <= n eps s, with n the number of
    unknowns and s the largest |entry| of all the blocks given.  Every
    other entry, and the sign of an exact zero, is kept bit for bit."""
    cut = n * np.finfo(float).eps * max(
        float(np.abs(B).max(initial=0.0)) for B in blocks)
    return [B * (np.abs(B) > cut) for B in blocks]


class _Stepper:
    """The operators of the march for one system and grid, built once.

    Hypersurface pass: d_x w = f + A w, with the q-driven forcing
    f = -(L0_q q + L^i_q d_i q) and the null coupling
    A w = -(L0_w w + L^i_w d_i w), and the powers G^(2^s) of its Heun
    propagator G = I + dx A + dx^2 A^2 / 2 that the scan of the widest
    slice uses: real m x m matrices when A is pointwise, one per transverse
    Fourier mode when it is not, none when A = 0; at m = 1 a pointwise A
    and its powers are numbers.  Evolution by one step du = dx: the source
    operator dx Nu^-1 (N0 v + N^i d_i v) and Nu^-1 Nx, from blocks that
    `_structural` has cleaned (the source again after the product, of
    Nu^-1's round-off).  Then two guards: an axis that these operators
    difference needs 4 cells (DataSpecError), and Nu^-1 Nx's eigenvalues
    the CFL condition, up to the slack of `report`'s signs (CFLError).

    The stepper only computes, in place on the slice values it is given:
    it knows no u, sets no floating-point policy, never writes w_0 and
    checks only its propagator powers.  It owns its temporaries: the
    operators and the x difference of q compute in views of one work
    buffer, sized once for the widest slice, which the hypersurface pass
    and the evolution step share; only the spectral scan allocates.
    """

    def __init__(self, canon: CanonicalSystem, grid: GridSpec,
                 report: WellPosednessReport):
        nq, n = canon.nq, canon.n_unknowns
        names = canon.transverse_names
        self.nq, self.dx, self.width = nq, grid.dx, grid.nx + 1
        L0, *Li = _structural(n, canon.L0, *(canon.Li[k] for k in names))
        N0, *Ni = _structural(n, canon.N0, *(canon.Ni[k] for k in names))
        self.forcing = _FieldOperator(
            -L0[:, :nq], [-L[:, :nq] for L in Li], grid)
        self.coupling = _FieldOperator(
            -L0[:, nq:], [-L[:, nq:] for L in Li], grid)
        Nui = np.linalg.inv(canon.Nu) if nq else np.zeros((0, 0))
        S0, *Si = _structural(n, grid.dx * Nui @ N0,
                              *(grid.dx * Nui @ N for N in Ni))
        self.source = _FieldOperator(S0, Si, grid)
        for axis in sorted({a for op in (self.forcing, self.coupling,
                                         self.source) for _, a in op.terms}):
            if grid.cells[axis] < 4:
                raise DataSpecError(f"transverse direction {names[axis]} "
                                    f"needs at least 4 cells")
        self.NuiNx, = _structural(n, Nui @ canon.Nx)
        # the upwind x step with du = dx is stable only when every
        # eigenvalue of the P = Nu^-1 Nx it multiplies by is real and in
        # [-1, 0], up to the slack of the report's signs
        for lam in np.linalg.eigvals(self.NuiNx):
            excess = max(abs(lam.imag), lam.real, -1.0 - lam.real)
            if excess > 1e-12 and excess > _sign_rule_slack(self.NuiNx,
                                                            report):
                raise CFLError(f"eigenvalue {lam:.6g} of Nu^-1 Nx is outside "
                               f"[-1, 0]: the upwind step du = dx is unstable")
        self.upwind = _UpwindStep(self.NuiNx, grid)
        self.powers = [] if self.coupling.is_zero else \
            self._propagator_powers()
        # at m = 1 a pointwise A is one number, and so is each G^d
        self._gains = self._A = None
        if canon.m == 1 and self.powers and not self.coupling.terms:
            self._A = float(self.coupling.M0[0, 0])
            self._gains = [float(P[0, 0]) for P in self.powers]
        # the step temporaries: those of the hypersurface pass (the
        # forcing, then the coupling of it, or the pointwise scan's
        # G^d w[:-d]) and those of the evolution step (the source, then the
        # x difference of q) share one buffer
        scan = 0 if self.coupling.terms or not self.powers else \
            canon.m * self.width * math.prod(grid.cells)
        self._work = np.empty(max(
            self.forcing.work + self.coupling.work, scan,
            self.source.work + self.upwind.work))

    def _propagator_powers(self) -> list:
        """G^(2^s) for every 2^s < nx + 1; an overflow is an abort."""
        A = self.coupling.symbol() if self.coupling.terms else \
            self.coupling.M0
        dx = self.dx
        G = np.eye(A.shape[-1]) + dx * A + (0.5 * dx * dx) * (A @ A)
        powers = [G]
        while 2 ** len(powers) < self.width:
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
            work = self._work[self.forcing.work:]
            if self._A is None:
                Af = self.coupling(f, work)[:, :-1]
            else:   # the one product a 1 x 1 matmul rounds
                head = f[:, :-1]
                Af = np.multiply(head, self._A,
                                 out=work[:head.size].reshape(head.shape))
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
        coupling (G = I) the scan is a cumulative sum.  At m = 1, G^d is a
        number, and the scan takes one multiply and one add per step on
        the one field of w."""
        if not self.powers:
            np.cumsum(w, axis=1, out=w)
            return
        if self._gains is not None:
            w = w[0]
            product = self._work[:w.size].reshape(w.shape)
            d = 1
            for gain in self._gains:
                if d >= len(w):
                    break
                w[d:] += np.multiply(w[:-d], gain, out=product[d:])
                d *= 2
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
        # on the whole contiguous slice: its last x point is not read
        src = self.source(vals, self._work)
        self.upwind(vals[:self.nq], src, new[:self.nq],
                    self._work[self.source.work:])


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


def _trace_bytes(n: int, grid: GridSpec) -> tuple:
    """The bytes of the trace of a march of n unknowns on grid, and the
    start of the MemoryError text that refuses it for them."""
    # 8 bytes per entry, n x cells entries per x point, and the slices
    # hold (nx + 1) + nx + ... + 1 = (nx + 1)(nx + 2) / 2 x points
    nbytes = 4 * n * math.prod(grid.cells) * (grid.nx + 1) * (grid.nx + 2)
    return nbytes, (f"the trace of nx = {grid.nx}, cells {grid.cells} "
                    f"needs {nbytes} bytes")


def _trace_store(n: int, grid: GridSpec) -> np.ndarray:
    """One float64 store, not zeroed, for the slices of one march of n
    unknowns on grid, on an anonymous mapping: the pooled one when it is
    large enough, else a new, populated one.  A mapping the system refuses
    for want of memory is a MemoryError that names the grid.

    Every view of the returned array has it as `.base`, so it dies with
    the last slice of its trace, and its finalizer returns the mapping to
    the pool."""
    nbytes, needs = _trace_bytes(n, grid)
    try:
        mapping = _POOL.pop()
    except IndexError:
        mapping = None
    if mapping is not None and len(mapping) < nbytes:
        _release(mapping)
        mapping = None
    if mapping is None:
        try:
            mapping = mmap.mmap(-1, nbytes, **_PRIVATE)
        except OSError as exc:
            if exc.errno != errno.ENOMEM:
                raise
            raise MemoryError(f"{needs}: {exc.strerror}") from None
    store = np.frombuffer(mapping, dtype=float, count=nbytes // 8)
    weakref.finalize(store, _release, mapping).atexit = False
    return store


def _slice_views(store: np.ndarray, shapes) -> list:
    """Consecutive views of the flat `store` from its start, one of each
    shape in turn: how a trace packs its slices."""
    start, views = 0, []
    for shape in shapes:
        end = start + math.prod(shape)
        views.append(store[start:end].reshape(shape))
        start = end
    return views


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
    nbytes, needs = _trace_bytes(canon.n_unknowns, grid)
    if nbytes > sys.maxsize:
        raise MemoryError(f"{needs}, more than sys.maxsize")


def march(canon: CanonicalSystem, grid: GridSpec, data: DataSpec, *,
          report: WellPosednessReport,
          force: bool = False) -> SolutionTrace:
    """Run the zig-zag march: hypersurface integration, then evolution.

    `report` is the well-posedness report of the reduction that gave
    `canon`; systems whose verdict is not WELL_POSED are refused unless
    force=True, and the stepper's guards (`_Stepper`: the cells of an axis
    it differences, the CFL condition) hold even then.  A grid whose trace
    would take more than sys.maxsize bytes is refused with MemoryError
    before anything is allocated, and the trace store, the largest
    allocation by far, is mapped before anything else that grows with the
    grid, so that a store the system cannot map is the MemoryError that
    names the grid.  The data are then evaluated once, on the nodes
    s = k dx, k = 0..nx: q0 on u = 0 at x = s and w0 on x = 0 at u = s;
    `_march_nodal` marches those nodal values in the store.  The returned
    trace cannot change: its slices are a tuple of frozen slices with
    read-only values.
    """
    _validate(canon, grid, data)
    if report.verdict is not Verdict.WELL_POSED and not force:
        raise NotWellPosedError(
            f"verdict is {report.verdict.value}; pass force=True to march anyway")
    store = _trace_store(canon.n_unknowns, grid)
    s = (np.arange(grid.nx + 1) * grid.dx).reshape(
        (grid.nx + 1,) + (1,) * len(grid.transverse))
    tmeshes = grid.transverse_meshes()
    # data whose terms sum past the float range is inf, and the march
    # names it; an overflow in a pass leaves inf or NaN, which the march
    # names too
    with np.errstate(over="ignore", invalid="ignore"):
        nodal = np.empty((canon.n_unknowns, grid.nx + 1) + grid.cells)
        for row, terms in zip(nodal, data.q0 + data.w0):
            row[...] = evaluate_profile(terms, s, tmeshes)
        return _march_nodal(canon, grid, nodal, report, store)


def _march_nodal(canon: CanonicalSystem, grid: GridSpec, nodal: np.ndarray,
                 report: WellPosednessReport,
                 store: np.ndarray) -> SolutionTrace:
    """March nodal data, shaped (n_unknowns, nx + 1, *cells), into `store`
    (`_trace_store`): the q rows hold q0 at x = k dx on u = 0, the w rows
    w0 at u = k dx on x = 0.

    The slices are consecutive views of the store, x extents nx + 1 down
    to 1.  Slice 0's q rows are written before the first step.  Then, for
    each slice, the loop takes the evolution step (from slice 1 on),
    copies the w0 column into x = 0, runs the hypersurface pass, checks
    the slice (`_slice_max`, which names the first block that an overflow
    under `march`'s np.errstate left inf or NaN) and freezes it.  The loop
    evaluates no profile.
    """
    nq = canon.nq
    stepper = _Stepper(canon, grid, report)
    views = _slice_views(store, [(canon.n_unknowns, width) + grid.cells
                                 for width in range(grid.nx + 1, 0, -1)])
    views[0][:nq] = nodal[:nq]
    # slice j lies at u = j dx; diagnostics[j] = max |v| on it
    slices, diagnostics = [], []
    for j, vals in enumerate(views):
        u = j * grid.dx
        if j:
            stepper.evolve(slices[-1].values, vals)
        vals[nq:, 0] = nodal[nq:, j]
        stepper.fill_null(vals)
        diagnostics.append(_slice_max(vals, nq, u, not j))
        vals.flags.writeable = False
        slices.append(SliceState(u_level=u, values=vals))
    store.flags.writeable = False
    return SolutionTrace(grid=grid, slices=slices, diagnostics=diagnostics,
                         _store=store)
