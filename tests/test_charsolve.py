import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import charmarch as cm
from charmarch.charsolve import (CFLError, DataSpecError, MarchAbortError,
                                 NotWellPosedError, SliceState, _Stepper,
                                 _spectral_radius)
from charmarch.wellposed import Verdict

import conftest

R2 = 1.0 / math.sqrt(2.0)


def wave_grid(nx=16, cy=8, cz=8, X=2.0):
    return cm.GridSpec(X_total=X, nx=nx,
                       transverse=(cm.TransverseAxis(cells=cy),
                                   cm.TransverseAxis(cells=cz)))


def empty_slice(grid, n=4, u=0.0):
    cells = tuple(t.cells for t in grid.transverse)
    return SliceState(u_level=u, values=np.zeros((n, grid.nx + 1) + cells))


# The single steps run through _Stepper, the object that march drives;
# fill_null works in place on the slice.
class TestHypersurfaceIntegrate:
    def test_constant_boundary_zero_q(self, wave_canon):
        grid = wave_grid()
        s = empty_slice(grid)
        _Stepper(wave_canon, grid).fill_null(s, np.array([0.7]))
        np.testing.assert_allclose(s.values[3], 0.7, atol=1e-15)
        np.testing.assert_allclose(s.values[:3], 0.0, atol=1e-15)

    def test_sine_mode_antiderivative(self, wave_canon):
        # with q3 = sin(y) the null equation is d_x w = (1/sqrt2) cos(y)
        grid = wave_grid(nx=32, cy=64, cz=4)
        s = empty_slice(grid)
        y = np.arange(64) * (2.0 * math.pi / 64)
        s.values[1] = np.sin(y)[None, :, None]
        _Stepper(wave_canon, grid).fill_null(s, np.array([0.0]))
        x = np.arange(grid.nx + 1) * grid.dx
        expected = (x[:, None, None] * R2) * np.cos(y)[None, :, None]
        err = np.abs(s.values[3] - expected).max()
        dy = 2.0 * math.pi / 64
        assert err <= 2.0 * (grid.dx ** 2 + dy ** 2)

    def test_zero_everything(self, wave_canon):
        grid = wave_grid()
        s = empty_slice(grid)
        _Stepper(wave_canon, grid).fill_null(s, np.zeros(1))
        assert not np.any(s.values)

    def test_non_finite_boundary_aborts(self, wave_canon):
        grid = wave_grid()
        with pytest.raises(MarchAbortError):
            _Stepper(wave_canon, grid).fill_null(empty_slice(grid),
                                                 np.array([math.inf]))


class TestEvolutionStep:
    def test_zero_slice_stays_zero(self, wave_canon):
        grid = wave_grid()
        s = _Stepper(wave_canon, grid).evolve(empty_slice(grid))
        assert s.x_extent == grid.nx
        assert not np.any(s.values)
        assert s.u_level == grid.dx

    def test_plane_wave_keeps_q_zero(self, wave_canon):
        grid = wave_grid()
        s0 = empty_slice(grid)
        s0.values[3] = 0.37  # w constant on the slice
        s = _Stepper(wave_canon, grid).evolve(s0)
        np.testing.assert_allclose(s.values[:3], 0.0, atol=1e-15)

    def test_single_mode_hand_computation(self, wave_canon):
        # q2-mode eps*sin(y): only the q3 equation picks up a source
        # (1/sqrt2) d_y q2; the expected update is one explicit step with a
        # centered transverse difference, computed independently here
        grid = wave_grid(nx=8, cy=16, cz=4)
        eps = 0.01
        s0 = empty_slice(grid)
        y = np.arange(16) * (2.0 * math.pi / 16)
        s0.values[0] = eps * np.sin(y)[None, :, None]
        s = _Stepper(wave_canon, grid).evolve(s0)
        dy = 2.0 * math.pi / 16
        centered = (np.roll(eps * np.sin(y), -1) - np.roll(eps * np.sin(y), 1)) / (2 * dy)
        expected_q2 = grid.dx * R2 * centered
        shape = (s.x_extent, 16, 4)
        np.testing.assert_allclose(
            s.values[1], np.broadcast_to(expected_q2[None, :, None], shape),
            atol=1e-12)
        np.testing.assert_allclose(
            s.values[0],
            np.broadcast_to(eps * np.sin(y)[None, :, None], shape), atol=1e-12)
        np.testing.assert_allclose(s.values[2], 0.0, atol=1e-15)

    def test_cfl_violation_rejected(self, wave_canon, wave_report):
        fast = dataclasses.replace(wave_canon, Nx=np.diag([-3.0, 0.0, 0.0]))
        grid = wave_grid()
        data = cm.DataSpec(q0=((), (), ()), w0=((),))
        with pytest.raises(CFLError):
            cm.march(fast, grid, data, report=wave_report)

    @given(arrays(float, (3, 3), elements=st.floats(-2.0, 2.0)),
           arrays(float, (3, 3), elements=st.floats(-2.0, 2.0)),
           st.floats(1e-3, 1.0), st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_well_posed_meets_cfl_at_du_equal_dx(self, wave_canon,
                                                 wave_report, A, B, shift,
                                                 s):
        # Nu > 0, Nx <= 0 and Nu + Nx > 0 put the eigenvalues of
        # Nu^-1 Nx in (-1, 0], so the one step du = dx never trips CFLError.
        # Nx = -s lambda_min(Nu) / lambda_max(B B^T) B B^T with s < 1 gives
        # Nu + Nx >= (1 - s) lambda_min(Nu) > 0: the draws are WELL_POSED
        # by construction.
        Nu = A @ A.T + shift * np.eye(3)
        Nx = np.zeros((3, 3))
        if np.any(B):
            B = B / np.abs(B).max()   # tiny entries would underflow in B B^T
            BBt = B @ B.T
            Nx = (-s * np.linalg.eigvalsh(Nu)[0]
                  / np.linalg.eigvalsh(BBt)[-1]) * BBt
        canon = dataclasses.replace(wave_canon, Nu=Nu, Nx=Nx)
        report = cm.check_criteria(cm.compact_form(canon))
        assume(report.verdict is Verdict.WELL_POSED)
        assert _spectral_radius(canon) < 1.0
        data = cm.DataSpec(
            q0=((cm.ProfileTerm(kind="sine", k=2.0),), (), ()),
            w0=((cm.ProfileTerm(kind="sine", amp=1.2, k=1.0),),))
        grid = wave_grid(nx=6, cy=4, cz=4)
        assert cm.march(canon, grid, data, report=report).n_slices == 7


class TestMarch:
    def test_plane_wave_exact(self, wave_canon, wave_report, plane_wave_data):
        grid = wave_grid(nx=24, cy=4, cz=4)
        tr = cm.march(wave_canon, grid, plane_wave_data, report=wave_report)
        for s in tr.slices:
            np.testing.assert_allclose(s.values[:3], 0.0, atol=1e-13)
            np.testing.assert_allclose(
                s.values[3], math.sqrt(2.0) * math.sin(s.u_level), atol=1e-13)

    def test_zero_data_zero_trace(self, wave_canon, wave_report):
        grid = wave_grid(nx=12, cy=4, cz=4)
        data = cm.DataSpec(q0=((), (), ()), w0=((),))
        tr = cm.march(wave_canon, grid, data, report=wave_report)
        for s in tr.slices:
            assert not np.any(s.values)

    def test_extent_non_increasing_and_coverage(self, wave_canon,
                                                wave_report, plane_wave_data):
        grid = wave_grid(nx=12, cy=4, cz=4)
        tr = cm.march(wave_canon, grid, plane_wave_data, report=wave_report)
        extents = [s.x_extent for s in tr.slices]
        assert extents == sorted(extents, reverse=True)
        assert extents[-1] == 1
        assert tr.n_slices == grid.nx + 1

    def test_determinism_bit_identical(self, wave_canon, wave_report,
                                       manufactured_data):
        grid = wave_grid(nx=12, cy=8, cz=4)
        t1 = cm.march(wave_canon, grid, manufactured_data, report=wave_report)
        t2 = cm.march(wave_canon, grid, manufactured_data, report=wave_report)
        for a, b in zip(t1.slices, t2.slices):
            assert np.array_equal(a.values, b.values)
        assert t1.diagnostics == t2.diagnostics

    def test_linearity(self, wave_canon, wave_report):
        def scaled(data, a):
            sc = lambda terms: tuple(dataclasses.replace(t, amp=a * t.amp)
                                     for t in terms)
            return cm.DataSpec(q0=tuple(sc(p) for p in data.q0),
                               w0=tuple(sc(p) for p in data.w0))

        d1 = cm.DataSpec(
            q0=((cm.ProfileTerm(kind="sine", k=2.0, trans=((1.0, 0.0), (0.0, 0.0))),),
                (), ()),
            w0=((cm.ProfileTerm(kind="sine", k=1.0, phase=0.4),),))
        d2 = cm.DataSpec(
            q0=((), (cm.ProfileTerm(kind="gauss", center=0.8, width=0.3),), ()),
            w0=((cm.ProfileTerm(kind="sine", k=3.0,
                                trans=((0.0, 0.0), (2.0, 0.1))),),))
        alpha, beta = 0.6, -1.7
        combined = cm.DataSpec(
            q0=tuple(scaled(d1, alpha).q0[i] + scaled(d2, beta).q0[i]
                     for i in range(3)),
            w0=tuple(scaled(d1, alpha).w0[i] + scaled(d2, beta).w0[i]
                     for i in range(1)))
        grid = wave_grid(nx=10, cy=8, cz=8)
        t1 = cm.march(wave_canon, grid, d1, report=wave_report)
        t2 = cm.march(wave_canon, grid, d2, report=wave_report)
        tc = cm.march(wave_canon, grid, combined, report=wave_report)
        for s1, s2, sc_ in zip(t1.slices, t2.slices, tc.slices):
            np.testing.assert_allclose(
                sc_.values, alpha * s1.values + beta * s2.values, atol=1e-12)

    def test_refuses_not_well_posed(self):
        a = cm.analyze(*cm.load_system(conftest.reversed_x_chart_text()))
        grid = wave_grid(nx=8, cy=4, cz=4)
        data = cm.DataSpec(q0=((), (), ()), w0=((),))
        with pytest.raises(NotWellPosedError):
            cm.march(a.canon, grid, data, report=a.report)
        # zero data still runs
        tr = cm.march(a.canon, grid, data, report=a.report, force=True)
        assert tr.n_slices == grid.nx + 1

    def test_marched_slices_are_read_only(self, wave_canon, wave_report,
                                          plane_wave_data):
        grid = wave_grid(nx=8, cy=4, cz=4)
        tr = cm.march(wave_canon, grid, plane_wave_data, report=wave_report)
        with pytest.raises(ValueError):
            tr.slices[0].values[3, 1] = 1.0

    def test_transverse_cells_validated(self, wave_canon, wave_report):
        grid = cm.GridSpec(X_total=2.0, nx=8,
                           transverse=(cm.TransverseAxis(cells=2),
                                       cm.TransverseAxis(cells=4)))
        data = cm.DataSpec(q0=((), (), ()), w0=((),))
        with pytest.raises(DataSpecError):
            cm.march(wave_canon, grid, data, report=wave_report)

    @pytest.mark.parametrize("X", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_X_total_rejected(self, X):
        with pytest.raises(ValueError, match="X_total"):
            cm.GridSpec(X_total=X, nx=8)

    def test_zero_profile_kind_rejected(self):
        # a zero profile is the empty tuple of terms
        with pytest.raises(DataSpecError):
            cm.ProfileTerm(kind="zero")

    def test_wrong_data_arity_rejected(self, wave_canon, wave_report):
        grid = wave_grid(nx=8, cy=4, cz=4)
        with pytest.raises(DataSpecError):
            cm.march(wave_canon, grid, cm.DataSpec(q0=((),), w0=((),)),
                     report=wave_report)


# --- oracle: the per-x-point Heun loop and the np.roll evolution step ------

def _oracle_apply(M, plane):
    return np.einsum("ab,b...->a...", M, plane)


def _oracle_derivatives(plane, grid):
    nt = len(grid.transverse)
    derivs = []
    for j, t in enumerate(grid.transverse):
        axis = plane.ndim - nt + j
        h = t.h
        derivs.append((np.roll(plane, -1, axis=axis)
                       - np.roll(plane, 1, axis=axis)) / (2.0 * h))
    return derivs


def _oracle_hypersurface(canon, vals, wb, grid):
    nq, dx = canon.nq, grid.dx
    vals = vals.copy()
    vals[nq:, 0] = wb

    def rhs(plane):
        out = _oracle_apply(canon.L0, plane)
        for name, d in zip(canon.transverse_names,
                           _oracle_derivatives(plane, grid)):
            out = out + _oracle_apply(canon.Li[name], d)
        return -out

    for i in range(vals.shape[1] - 1):
        k1 = rhs(vals[:, i])
        pred = vals[:, i + 1].copy()
        pred[nq:] = vals[nq:, i] + dx * k1
        k2 = rhs(pred)
        vals[nq:, i + 1] = vals[nq:, i] + 0.5 * dx * (k1 + k2)
    return vals


def _oracle_evolution(canon, vals, grid):
    nq, du, dx = canon.nq, grid.dx, grid.dx
    lam = du / dx
    Nui = np.linalg.inv(canon.Nu)
    A = Nui @ canon.Nx
    src = _oracle_apply(canon.N0, vals)
    for name, d in zip(canon.transverse_names,
                       _oracle_derivatives(vals, grid)):
        src = src + _oracle_apply(canon.Ni[name], d)
    src = _oracle_apply(Nui, src)
    q = vals[:nq]
    npts = vals.shape[1]
    new = np.zeros((canon.n_unknowns, npts - 1) + vals.shape[2:])
    if npts > 2:
        new[:nq, 1:] = (0.5 * (q[:, :-2] + q[:, 2:])
                        - 0.5 * lam * _oracle_apply(A, q[:, 2:] - q[:, :-2])
                        - du * src[:, 1:-1])
    new[:nq, 0] = (q[:, 0] - lam * _oracle_apply(A, q[:, 1] - q[:, 0])
                   - du * src[:, 0])
    return new


def _oracle_march(canon, grid, data):
    """Slice values of the zig-zag march, one Heun step per x point."""
    tmeshes = grid.transverse_meshes()
    cells = tuple(t.cells for t in grid.transverse)
    x = np.arange(grid.nx + 1) * grid.dx
    xs = x.reshape((grid.nx + 1,) + (1,) * len(cells))
    vals = np.zeros((canon.n_unknowns, grid.nx + 1) + cells)
    for a in range(canon.nq):
        vals[a] = cm.charsolve.evaluate_profile(data.q0[a], xs, tmeshes)
    out = []
    for j in range(grid.nx + 1):
        wb = np.array([cm.charsolve.evaluate_profile(p, j * grid.dx, tmeshes)
                       for p in data.w0])
        vals = _oracle_hypersurface(canon, vals, wb, grid)
        out.append(vals)
        if vals.shape[1] < 2:
            break
        vals = _oracle_evolution(canon, vals, grid)
    return out


def _transverse_null_coupling(canon):
    """wave3d with L^y[0, 3] = 0.3: d_y w feeds d_x w."""
    Ly = canon.Li["y"].copy()
    Ly[0, 3] = 0.3
    return dataclasses.replace(canon, Li={**canon.Li, "y": Ly})


class TestMarchMatchesOracle:
    DATA = cm.DataSpec(
        q0=((cm.ProfileTerm(kind="sine", amp=0.8, k=2.0, phase=0.3,
                            trans=((1.0, 0.0), (0.0, 0.0))),),
            (cm.ProfileTerm(kind="gauss", center=0.7, width=0.4,
                            trans=((0.0, 0.0), (1.0, 0.2))),),
            ()),
        w0=((cm.ProfileTerm(kind="sine", amp=1.2, k=1.0, phase=0.1,
                            trans=((2.0, 0.5), (0.0, 0.0))),),))

    @pytest.mark.parametrize("system", ["undamped", "damped", "w_coupled"])
    def test_slices_match_to_round_off(self, system, wave_canon, wave_report,
                                       damped_wave_pipeline):
        canon, report = {
            "undamped": (wave_canon, wave_report),
            "damped": (damped_wave_pipeline[0], damped_wave_pipeline[2]),
            "w_coupled": (_transverse_null_coupling(wave_canon), wave_report),
        }[system]
        grid = wave_grid(nx=16, cy=8, cz=4, X=1.0)
        trace = cm.march(canon, grid, self.DATA, report=report, force=True)
        expected = _oracle_march(canon, grid, self.DATA)
        assert trace.n_slices == len(expected)
        scale = max(float(np.abs(v).max()) for v in expected)
        worst = max(float(np.abs(s.values - v).max())
                    for s, v in zip(trace.slices, expected))
        assert scale > 0.1
        assert worst <= 1e-13 * scale
