import dataclasses
import gc
import math
import mmap
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import charmarch as cm
from charmarch import charsolve
from charmarch.charsolve import (CFLError, DataSpecError, MarchAbortError,
                                 NotWellPosedError, _FieldOperator, _Stepper)
from charmarch.wellposed import Verdict

import conftest

R2 = 1.0 / math.sqrt(2.0)


def wave_grid(nx=16, cy=8, cz=8, X=2.0):
    return cm.GridSpec(X_total=X, nx=nx,
                       transverse=(cm.TransverseAxis(cells=cy),
                                   cm.TransverseAxis(cells=cz)))


def empty_slice(grid, n=4):
    cells = tuple(t.cells for t in grid.transverse)
    return np.zeros((n, grid.nx + 1) + cells)


def evolve(stepper, vals):
    """One evolution step onto a zeroed slice one x point narrower."""
    new = np.zeros((vals.shape[0], vals.shape[1] - 1) + vals.shape[2:])
    stepper.evolve(vals, new)
    return new


# The single steps run through _Stepper, the object that march drives;
# fill_null works in place on the slice values from the w_0 in column
# x = 0, evolve writes the q rows of the next one.
class TestHypersurfaceIntegrate:
    def test_constant_boundary_zero_q(self, wave_canon):
        grid = wave_grid()
        s = empty_slice(grid)
        s[3, 0] = 0.7
        _Stepper(wave_canon, grid).fill_null(s)
        np.testing.assert_allclose(s[3], 0.7, atol=1e-15)
        np.testing.assert_allclose(s[:3], 0.0, atol=1e-15)

    def test_sine_mode_antiderivative(self, wave_canon):
        # with q3 = sin(y) the null equation is d_x w = (1/sqrt2) cos(y)
        grid = wave_grid(nx=32, cy=64, cz=4)
        s = empty_slice(grid)
        y = np.arange(64) * (2.0 * math.pi / 64)
        s[1] = np.sin(y)[None, :, None]
        _Stepper(wave_canon, grid).fill_null(s)
        x = np.arange(grid.nx + 1) * grid.dx
        expected = (x[:, None, None] * R2) * np.cos(y)[None, :, None]
        err = np.abs(s[3] - expected).max()
        dy = 2.0 * math.pi / 64
        assert err <= 2.0 * (grid.dx ** 2 + dy ** 2)

    def test_zero_everything(self, wave_canon):
        grid = wave_grid()
        s = empty_slice(grid)
        _Stepper(wave_canon, grid).fill_null(s)
        assert not np.any(s)

    @pytest.mark.parametrize("x_extent", [1, 2])
    @pytest.mark.parametrize("system", ["damped", "w_coupled",
                                        "damped_w_coupled"])
    def test_narrow_slice_matches_oracle(self, x_extent, system, wave_canon,
                                         damped_wave_pipeline):
        # the scan takes no step at x_extent 1 and the G^1 step alone at 2
        canon = _coupled_system(system, wave_canon, damped_wave_pipeline)
        grid = wave_grid(nx=16, cy=8, cz=4, X=1.0)
        rng = np.random.default_rng(x_extent)
        s = np.zeros((4, x_extent, 8, 4))
        s[:3] = rng.standard_normal((3, x_extent, 8, 4))
        wb = rng.standard_normal((1, 8, 4))
        expected = _oracle_hypersurface(canon, s, wb, grid)
        s[3:, 0] = wb
        _Stepper(canon, grid).fill_null(s)
        assert np.abs(s - expected).max() <= 1e-13


class TestEvolutionStep:
    def test_zero_slice_stays_zero(self, wave_canon):
        grid = wave_grid()
        s = evolve(_Stepper(wave_canon, grid), empty_slice(grid))
        assert s.shape[1] == grid.nx
        assert not np.any(s)

    def test_plane_wave_keeps_q_zero(self, wave_canon):
        grid = wave_grid()
        s0 = empty_slice(grid)
        s0[3] = 0.37  # w constant on the slice
        s = evolve(_Stepper(wave_canon, grid), s0)
        np.testing.assert_allclose(s[:3], 0.0, atol=1e-15)

    def test_single_mode_hand_computation(self, wave_canon):
        # q2-mode eps*sin(y): only the q3 equation picks up a source
        # (1/sqrt2) d_y q2; the expected update is one explicit step with a
        # centered transverse difference, computed independently here
        grid = wave_grid(nx=8, cy=16, cz=4)
        eps = 0.01
        s0 = empty_slice(grid)
        y = np.arange(16) * (2.0 * math.pi / 16)
        s0[0] = eps * np.sin(y)[None, :, None]
        s = evolve(_Stepper(wave_canon, grid), s0)
        dy = 2.0 * math.pi / 16
        centered = (np.roll(eps * np.sin(y), -1) - np.roll(eps * np.sin(y), 1)) / (2 * dy)
        expected_q2 = grid.dx * R2 * centered
        shape = (s.shape[1], 16, 4)
        np.testing.assert_allclose(
            s[1], np.broadcast_to(expected_q2[None, :, None], shape),
            atol=1e-12)
        np.testing.assert_allclose(
            s[0],
            np.broadcast_to(eps * np.sin(y)[None, :, None], shape), atol=1e-12)
        np.testing.assert_allclose(s[2], 0.0, atol=1e-15)

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
        # Nu^-1 Nx in (-1, 0], so the upwind step du = dx never trips
        # CFLError.
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
        lam = np.linalg.eigvals(np.linalg.solve(Nu, Nx))
        assert np.all(np.abs(lam.imag) <= 1e-12)
        assert np.all(lam.real > -1.0) and np.all(lam.real <= 1e-12)
        data = cm.DataSpec(
            q0=((cm.ProfileTerm(kind="sine", k=2.0),), (), ()),
            w0=((cm.ProfileTerm(kind="sine", amp=1.2, k=1.0),),))
        grid = wave_grid(nx=6, cy=4, cz=4)
        assert cm.march(canon, grid, data, report=report).n_slices == 7

    def test_round_off_speed_of_a_well_posed_system_marches(self,
                                                            wave_canon):
        # Nx's eigenvalue 5e-12 is zero at the verdict's tolerance, and so
        # is the speed it gives Nu^-1 Nx, though it fails an eigenvalue
        # test with a 1e-12 slack
        Nx = wave_canon.Nx.copy()
        Nx[2, 2] = 5e-12
        canon = dataclasses.replace(wave_canon, Nx=Nx)
        report = cm.check_criteria(cm.compact_form(canon))
        assert report.verdict is Verdict.WELL_POSED
        assert max(np.linalg.eigvals(np.linalg.solve(canon.Nu, Nx)).real) \
            > 1e-12
        data = cm.DataSpec(q0=((cm.ProfileTerm(kind="sine"),), (), ()),
                           w0=((),))
        trace = cm.march(canon, wave_grid(nx=8, cy=4, cz=4), data,
                         report=report)
        assert trace.n_slices == 9

    def test_speed_hidden_by_the_verdicts_band_is_refused(self, wave_canon):
        # Nx's eigenvalue 4e-11 is zero at the verdict's tolerance, but
        # divided by lambda_min(Nu) = 1e-8 it is the speed +4e-3 of
        # Nu^-1 Nx, where the upwind step grows by about 1.008 per slice
        canon = dataclasses.replace(wave_canon, Nu=np.diag([1.0, 1.0, 1e-8]),
                                    Nx=np.diag([-0.5, 0.0, 4e-11]))
        report = cm.check_criteria(cm.compact_form(canon))
        assert report.verdict is Verdict.WELL_POSED
        data = cm.DataSpec(q0=((), (), ()), w0=((),))
        with pytest.raises(CFLError, match="eigenvalue 0.004 of Nu"):
            cm.march(canon, wave_grid(nx=8, cy=4, cz=4), data, report=report)

    @pytest.mark.parametrize("force", [True, False])
    def test_complex_speeds_are_refused(self, wave_canon, wave_report, force):
        # the symmetric parts of Nu = I and Nx pass Nu > 0, Nx <= 0 and
        # Nu + Nx >= 0, but Nu^-1 Nx = Nx has the eigenvalues -0.5 +- 0.6i;
        # force=True, or a WELL_POSED report of another system, reaches
        # the guard
        Nx = np.zeros((3, 3))
        Nx[:2, :2] = [[-0.5, 0.6], [-0.6, -0.5]]
        canon = dataclasses.replace(wave_canon, Nu=np.eye(3), Nx=Nx)
        report = cm.check_criteria(cm.compact_form(canon)) if force \
            else wave_report
        assert (report.verdict is Verdict.WELL_POSED) is not force
        data = cm.DataSpec(q0=((), (), ()), w0=((),))
        with pytest.raises(CFLError, match=r"eigenvalue -0.5[+-]0.6j of Nu"):
            cm.march(canon, wave_grid(nx=8, cy=4, cz=4), data, report=report,
                     force=force)

    # seeds whose zero speed comes out of Nu^-1 Nx above 1e-12
    @example(seed=6)
    @example(seed=40)
    @example(seed=50)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_round_off_speeds_meet_no_cfl_error(self, wave_canon, seed):
        # Nu = Q diag(10^U(-4, 4)) Q^T and Nx = -L Q2 diag(mu) Q2^T L^T with
        # L = chol(Nu), mu in [0, 0.999) and, half the time, one mu = 0: the
        # round-off in the eigenvalues of Nu^-1 Nx grows with cond(Nu), past
        # any fixed eigenvalue slack, and a WELL_POSED report of these
        # draws never meets CFLError
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        Nu = (Q * 10.0 ** rng.uniform(-4.0, 4.0, 3)) @ Q.T
        L = np.linalg.cholesky(Nu)
        Q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        mu = rng.uniform(0.0, 0.999, 3)
        if rng.random() < 0.5:
            mu[0] = 0.0
        canon = dataclasses.replace(wave_canon, Nu=Nu,
                                    Nx=-(L @ ((Q2 * mu) @ Q2.T) @ L.T))
        report = cm.check_criteria(cm.compact_form(canon))
        assume(report.verdict is Verdict.WELL_POSED)
        data = cm.DataSpec(q0=((), (), ()), w0=((),))
        grid = wave_grid(nx=2, cy=4, cz=4)
        assert cm.march(canon, grid, data, report=report).n_slices == 3


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

    def test_u_level_is_index_times_dx(self, wave_canon, wave_report,
                                       plane_wave_data):
        # dx = 2/72 is inexact, so a running sum of dx drifts off j dx
        grid = wave_grid(nx=72, cy=4, cz=4)
        tr = cm.march(wave_canon, grid, plane_wave_data, report=wave_report)
        assert [s.u_level for s in tr.slices] == \
            [j * grid.dx for j in range(grid.nx + 1)]

    def test_determinism_bit_identical(self, wave_canon, wave_report,
                                       manufactured_data):
        grid = wave_grid(nx=12, cy=8, cz=4)
        t1 = cm.march(wave_canon, grid, manufactured_data, report=wave_report)
        t2 = cm.march(wave_canon, grid, manufactured_data, report=wave_report)
        for a, b in zip(t1.slices, t2.slices):
            assert np.array_equal(a.values, b.values)
        assert t1.diagnostics == t2.diagnostics

    def test_diagnostics_are_max_abs_of_each_slice(self, wave_canon,
                                                   wave_report,
                                                   manufactured_data):
        # taken from one max and one min of the q and w blocks, exactly
        grid = wave_grid(nx=12, cy=8, cz=4)
        tr = cm.march(wave_canon, grid, manufactured_data, report=wave_report)
        assert tr.diagnostics == tuple(float(np.abs(s.values).max())
                                       for s in tr.slices)

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
        a = cm.analyze(*cm.load_system(conftest.asymmetric_y_text()))
        assert a.report.verdict is Verdict.NOT_WELL_POSED
        grid = wave_grid(nx=8, cy=4, cz=4)
        data = cm.DataSpec(q0=((), (), ()), w0=((),))
        with pytest.raises(NotWellPosedError):
            cm.march(a.canon, grid, data, report=a.report)
        # zero data still runs
        tr = cm.march(a.canon, grid, data, report=a.report, force=True)
        assert tr.n_slices == grid.nx + 1

    def test_force_does_not_lift_the_cfl_guard(self):
        # the reversed chart gives Nu^-1 Nx the eigenvalue +0.5, where the
        # upwind step grows without bound
        a = cm.analyze(*cm.load_system(conftest.reversed_x_chart_text()))
        data = cm.DataSpec(q0=((cm.ProfileTerm(kind="sine"),), (), ()),
                           w0=((),))
        with pytest.raises(CFLError, match="eigenvalue 0.5 of Nu"):
            cm.march(a.canon, wave_grid(nx=16, cy=4, cz=4), data,
                     report=a.report, force=True)

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

    @pytest.mark.parametrize("nx, cells, field", [
        (8.0, 4, "nx"), (True, 4, "nx"), (1, 4, "nx"),
        (8, 4.5, "cells"), (8, 0, "cells"), (8, -2, "cells"),
        (8, True, "cells"), (8, np.bool_(True), "cells"),
    ])
    def test_bad_grid_count_rejected(self, nx, cells, field):
        # counts are integers (numpy integers too, bool not), checked where
        # they enter, not by a TypeError in the march
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            cm.GridSpec(X_total=2.0, nx=nx,
                        transverse=(cm.TransverseAxis(cells=cells),))

    def test_numpy_integer_counts_accepted(self):
        grid = cm.GridSpec(X_total=2.0, nx=np.int64(8),
                           transverse=(cm.TransverseAxis(cells=np.int32(4)),))
        assert grid.dx == 0.25 and grid.transverse[0].h == math.pi / 2

    def test_zero_profile_kind_rejected(self):
        # a zero profile is the empty tuple of terms
        with pytest.raises(DataSpecError):
            cm.ProfileTerm(kind="zero")

    @pytest.mark.parametrize("kwargs, cause", [
        ({"kind": "gauss", "width": 0.0}, "width must be finite and > 0"),
        ({"kind": "gauss", "width": -1.0}, "width must be finite and > 0"),
        ({"kind": "gauss", "width": math.inf}, "width must be finite"),
        ({"kind": "sine", "amp": math.nan}, "amp must be finite"),
        ({"kind": "sine", "k": math.inf}, "k must be finite"),
        ({"kind": "sine", "phase": -math.inf}, "phase must be finite"),
        ({"kind": "gauss", "center": math.nan}, "center must be finite"),
        ({"kind": "sine", "trans": ((1.0, 0.0), (math.inf, 0.0))},
         r"trans\[1\] must be a finite"),
        ({"kind": "sine", "trans": ((0.0, math.nan),)},
         r"trans\[0\] must be a finite"),
        ({"kind": "sine", "trans": ((1.0,),)}, r"trans\[0\] must be a finite"),
        # a field the kind does not read would change nothing
        ({"kind": "sine", "center": 5.0}, "'sine' does not take center"),
        ({"kind": "sine", "width": 0.2}, "'sine' does not take width"),
        ({"kind": "gauss", "k": 3.0}, "'gauss' does not take k"),
        ({"kind": "gauss", "phase": math.nan}, "'gauss' does not take phase"),
        # the transverse axes are periodic on [0, 2 pi)
        ({"kind": "sine", "trans": ((0.5, 0.0),)},
         r"trans\[0\] wavenumber must be an integer, got 0.5"),
    ])
    def test_bad_profile_numbers_rejected(self, kwargs, cause):
        # refused by name where the term is built, not by a non-finite
        # boundary value once the march has started
        with pytest.raises(DataSpecError, match=cause):
            cm.ProfileTerm(**kwargs)

    def test_finite_profile_numbers_accepted(self):
        term = cm.ProfileTerm(kind="gauss", amp=-2.0, center=-1.0,
                              width=1e-3, trans=((np.float64(3.0), -0.5),))
        assert term.width == 1e-3

    def test_wrong_data_arity_rejected(self, wave_canon, wave_report):
        grid = wave_grid(nx=8, cy=4, cz=4)
        with pytest.raises(DataSpecError):
            cm.march(wave_canon, grid, cm.DataSpec(q0=((),), w0=((),)),
                     report=wave_report)

    @pytest.mark.parametrize("grid, w0, cause", [
        (cm.GridSpec(X_total=2.0, nx=8,
                     transverse=(cm.TransverseAxis(cells=4),)), ((),),
         "grid transverse axes do not match the system"),
        (wave_grid(nx=8, cy=4, cz=4), ((), ()), "expected 1 w0 profiles"),
    ])
    def test_grid_axes_and_w0_count_checked(self, grid, w0, cause,
                                            wave_canon, wave_report):
        data = cm.DataSpec(q0=((), (), ()), w0=w0)
        with pytest.raises(DataSpecError, match=f"^{cause}$"):
            cm.march(wave_canon, grid, data, report=wave_report)

    def test_extra_transverse_pairs_rejected(self, wave_canon, wave_report):
        # wave3d has two transverse axes; a third pair was dropped in silence
        grid = wave_grid(nx=8, cy=4, cz=4)
        term = cm.ProfileTerm(kind="sine", trans=((1, 0), (0, 0), (5, 0)))
        data = cm.DataSpec(q0=((), (term,), ()), w0=((),))
        cause = r"q0\[1\] .* 3 transverse pairs, .* 2 transverse axes"
        with pytest.raises(DataSpecError, match=cause):
            cm.march(wave_canon, grid, data, report=wave_report)

    def test_missing_transverse_pair_is_constant(self, wave_canon,
                                                 wave_report):
        grid = wave_grid(nx=8, cy=4, cz=4)

        def trace(trans):
            term = cm.ProfileTerm(kind="sine", trans=trans)
            data = cm.DataSpec(q0=((), (), ()), w0=((term,),))
            return cm.march(wave_canon, grid, data, report=wave_report)

        short, full = trace(((1, 0),)), trace(((1, 0), (0, 0)))
        for a, b in zip(short.slices, full.slices):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("nx", [100, 128])
    def test_propagator_overflow_aborts(self, nx, wave_canon, wave_report,
                                        plane_wave_data):
        # L0_w = -1e3 at dx = 0.1 gives G = 5101: G^128 overflows at
        # nx = 128, and at nx = 100 the scan itself does
        L0 = wave_canon.L0.copy()
        L0[0, 3] = -1e3
        canon = dataclasses.replace(wave_canon, L0=L0)
        grid = wave_grid(nx=nx, cy=4, cz=4, X=0.1 * nx)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MarchAbortError, match="non-finite"):
                cm.march(canon, grid, plane_wave_data, report=wave_report,
                         force=True)

    @pytest.mark.parametrize("block, where", [
        ("N0", "evolution step"), ("L0", "hypersurface integration")])
    def test_overflow_aborts_without_warning(self, block, where, wave_canon,
                                             wave_report):
        # a 1e300 coefficient on q2 ~ 1e10 overflows in the source of the
        # evolution step (N0) or in the forcing of the A = 0 hypersurface
        # pass (L0): the march must stop with its own error, not with a
        # numpy RuntimeWarning
        M = getattr(wave_canon, block).copy()
        M[0, 1] = 1e300
        canon = dataclasses.replace(wave_canon, **{block: M})
        data = cm.DataSpec(
            q0=((), (cm.ProfileTerm(kind="sine", amp=1e10),), ()), w0=((),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MarchAbortError,
                               match=f"non-finite .* {where}"):
                cm.march(canon, wave_grid(nx=16, cy=4, cz=4), data,
                         report=wave_report, force=True)

    @pytest.mark.parametrize("side", ["q0", "w0"])
    def test_data_overflow_is_a_typed_abort(self, side, wave_canon,
                                            wave_report):
        # two terms of 1e308 sum past the float range at x = 0 or u = 0:
        # the march names the data, not a pass that read it, and no numpy
        # RuntimeWarning escapes
        big = (cm.ProfileTerm(kind="gauss", amp=1e308),) * 2
        data = cm.DataSpec(q0=((), big if side == "q0" else (), ()),
                           w0=(big if side == "w0" else (),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MarchAbortError,
                               match=f"^non-finite value in {side} data "
                                     f"at u = 0$"):
                cm.march(wave_canon, wave_grid(nx=8, cy=4, cz=4, X=1.0),
                         data, report=wave_report)


# --- oracle: the per-x-point Heun loop and the upwind evolution step ---------

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
    """The upwind step, point by point along x."""
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
    for i in range(npts - 1):
        new[:nq, i] = (q[:, i] - lam * _oracle_apply(A, q[:, i + 1] - q[:, i])
                       - du * src[:, i])
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


def _coupled_system(system, wave_canon, damped_wave_pipeline):
    """A canonical system whose hypersurface pass has null coupling A:
    pointwise (damped), transverse (w_coupled) or both."""
    damped = damped_wave_pipeline[0]
    return {"damped": damped,
            "w_coupled": _transverse_null_coupling(wave_canon),
            "damped_w_coupled": _transverse_null_coupling(damped)}[system]


class TestMarchMatchesOracle:
    DATA = cm.DataSpec(
        q0=((cm.ProfileTerm(kind="sine", amp=0.8, k=2.0, phase=0.3,
                            trans=((1.0, 0.0), (0.0, 0.0))),),
            (cm.ProfileTerm(kind="gauss", center=0.7, width=0.4,
                            trans=((0.0, 0.0), (1.0, 0.2))),),
            ()),
        w0=((cm.ProfileTerm(kind="sine", amp=1.2, k=1.0, phase=0.1,
                            trans=((2.0, 0.5), (0.0, 0.0))),),))

    @pytest.mark.parametrize("system", ["undamped", "damped", "w_coupled",
                                        "damped_w_coupled"])
    def test_slices_match_to_round_off(self, system, wave_canon, wave_report,
                                       damped_wave_pipeline):
        canon = wave_canon if system == "undamped" else \
            _coupled_system(system, wave_canon, damped_wave_pipeline)
        self._assert_matches(canon, wave_report, nx=16)

    @pytest.mark.parametrize("system", ["damped", "damped_w_coupled"])
    def test_long_grid_matches_to_round_off(self, system, wave_canon,
                                            wave_report,
                                            damped_wave_pipeline):
        # nx = 128 takes the scan of the hypersurface pass up to G^64
        canon = _coupled_system(system, wave_canon, damped_wave_pipeline)
        self._assert_matches(canon, wave_report, nx=128)

    @pytest.mark.parametrize("system", ["w_coupled", "damped_w_coupled"])
    def test_w0_column_is_the_data(self, system, wave_canon, wave_report,
                                   damped_wave_pipeline):
        # the spectral scan of transverse null coupling writes w behind
        # x = 0 only: the column is the data march wrote, bit for bit
        canon = _coupled_system(system, wave_canon, damped_wave_pipeline)
        grid = wave_grid(nx=16, cy=8, cz=4, X=1.0)
        trace = cm.march(canon, grid, self.DATA, report=wave_report,
                         force=True)
        tmeshes = grid.transverse_meshes()
        for s in trace.slices:
            assert np.array_equal(s.values[3, 0], charsolve.evaluate_profile(
                self.DATA.w0[0], s.u_level, tmeshes))

    def _assert_matches(self, canon, report, nx):
        grid = wave_grid(nx=nx, cy=8, cz=4, X=1.0)
        trace = cm.march(canon, grid, self.DATA, report=report, force=True)
        expected = _oracle_march(canon, grid, self.DATA)
        assert trace.n_slices == len(expected)
        scale = max(float(np.abs(v).max()) for v in expected)
        worst = max(float(np.abs(s.values - v).max())
                    for s, v in zip(trace.slices, expected))
        assert scale > 0.1
        assert worst <= 1e-13 * scale


# --- oracle: the dense operators, one product per matrix -------------------

def _dense_apply(M, plane):
    flat = plane.reshape(plane.shape[0], math.prod(plane.shape[1:]))
    return (M @ flat).reshape((M.shape[0],) + plane.shape[1:])


def _dense_difference(plane, axis):
    """f[j+1] - f[j-1] along one periodic axis, from whole rolled copies;
    exactly zero along fewer than 3 cells, where f[j+1] is f[j-1]."""
    return np.roll(plane, -1, axis) - np.roll(plane, 1, axis)


def _dense_operator(M0, Mt, grid, plane):
    """M0 v + sum_j d_j (M_j v), each matrix applied whole."""
    nt = len(grid.transverse)
    out = _dense_apply(M0, plane) if np.any(M0) else None
    for j, (M, t) in enumerate(zip(Mt, grid.transverse)):
        if np.any(M):
            d = _dense_difference(_dense_apply(M / (2.0 * t.h), plane),
                                  j - nt)
            out = d if out is None else out + d
    return np.zeros((M0.shape[0],) + plane.shape[1:]) if out is None else out


# sparse matrices: most entries zero, so that rows, columns and whole
# matrices vanish; the others inexact in products, where BLAS paths differ
_entries = st.one_of(st.just(0.0), st.just(0.0),
                     st.floats(-3.0, 3.0, allow_subnormal=False))


@st.composite
def _operator_case(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cells = tuple(draw(st.lists(st.integers(1, 6), max_size=2)))
    npts = draw(st.integers(2, 5))
    matrix = arrays(float, (rows, cols), elements=_entries)
    M0 = draw(st.one_of(st.just(np.zeros((rows, cols))), matrix))
    Mt = [draw(matrix) for _ in cells]
    return M0, Mt, cells, npts, draw(st.integers(0, 2 ** 32 - 1))


class TestRowSparseOperators:
    """The stacked row-sparse operator gives the dense products' bits."""

    @given(_operator_case(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_operator_matches_dense_bit_for_bit(self, case, narrower):
        M0, Mt, cells, npts, seed = case
        grid = cm.GridSpec(X_total=1.0, nx=4, transverse=tuple(
            cm.TransverseAxis(cells=c) for c in cells))
        op = _FieldOperator(M0, Mt, grid, width=5)
        # the work buffer holds old values: nothing may read them
        work = np.full(op.work, np.nan)
        rng = np.random.default_rng(seed)
        for width in (npts, npts - 1) if narrower else (npts,):
            plane = rng.standard_normal((M0.shape[1], width) + cells)
            got = op(plane, work)
            expected = _dense_operator(M0, Mt, grid, plane)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("M0, Mt", [
        # the one stacked row of a two-row operator is padded to two rows
        (np.zeros((2, 3)), [np.array([[0.0, 0.0, 0.0], [0.37, -1.3, 2.1]])]),
        # a one-row operator keeps a product per term
        (np.array([[0.37, -1.3, 2.1]]), [np.array([[1.7, 0.0, -0.9]])]),
    ])
    def test_products_keep_their_blas_path(self, M0, Mt):
        # the matrix-matrix and vector paths round these rows differently
        grid = cm.GridSpec(X_total=1.0, nx=8,
                           transverse=(cm.TransverseAxis(cells=7),))
        op = _FieldOperator(M0, Mt, grid, width=9)
        plane = np.random.default_rng(0).standard_normal((3, 9, 7))
        assert op(plane, np.empty(op.work)).tobytes() == \
            _dense_operator(M0, Mt, grid, plane).tobytes()

    def test_empty_blocks(self):
        # nq = 0 (no q rows, or a forcing with no columns) and a grid with
        # no transverse axes
        grid = cm.GridSpec(X_total=1.0, nx=4)
        for shape in ((0, 2), (2, 0), (0, 0)):
            op = _FieldOperator(np.zeros(shape), [], grid, width=5)
            out = op(np.ones((shape[1], 5)), np.empty(op.work))
            assert out.shape == (shape[0], 5) and not np.any(out)


class TestTraceStore:
    """A trace's slices are views of one store that it owns: no later march
    writes into it while any slice is alive, and a dropped store is
    reused."""

    def _march(self, wave_canon, wave_report, manufactured_data, amp=1.0,
               nx=16):
        data = dataclasses.replace(
            manufactured_data,
            w0=tuple(tuple(dataclasses.replace(t, amp=amp * t.amp)
                           for t in p) for p in manufactured_data.w0))
        return cm.march(wave_canon, wave_grid(nx=nx, cy=8, cz=4), data,
                        report=wave_report)

    def test_slices_are_views_of_one_store(self, wave_canon, wave_report,
                                           manufactured_data):
        tr = self._march(wave_canon, wave_report, manufactured_data)
        store = tr.slices[0].values.base
        assert all(s.values.base is store for s in tr.slices)

    def test_held_trace_and_held_slice_survive_later_marches(
            self, wave_canon, wave_report, manufactured_data):
        a = self._march(wave_canon, wave_report, manufactured_data)
        kept = [s.values.copy() for s in a.slices]
        self._march(wave_canon, wave_report, manufactured_data, amp=-3.0)
        assert all(np.array_equal(s.values, v)
                   for s, v in zip(a.slices, kept))
        one = a.slices[5]
        del a
        gc.collect()
        b = self._march(wave_canon, wave_report, manufactured_data,
                        amp=7.0)
        assert np.array_equal(one.values, kept[5])
        assert b.slices[5].values.base is not one.values.base

    def test_dropped_store_is_reused(self, wave_canon, wave_report,
                                     manufactured_data):
        def mapping(trace):
            # the np.frombuffer store's buffer is a memoryview of the mapping
            return trace.slices[0].values.base.base.obj

        a = self._march(wave_canon, wave_report, manufactured_data,
                        amp=-3.0)
        first = mapping(a)
        del a
        gc.collect()
        b = self._march(wave_canon, wave_report, manufactured_data,
                        amp=2.0)
        assert mapping(b) is first
        # the old values of a reused store do not leak into the new trace
        fresh = self._march(wave_canon, wave_report, manufactured_data,
                            amp=2.0)
        assert mapping(fresh) is not first
        assert all(np.array_equal(s.values, t.values)
                   for s, t in zip(b.slices, fresh.slices))

    @pytest.mark.parametrize("damped", [False, True])
    def test_step_allocations_do_not_grow_with_nx(
            self, damped, wave_canon, wave_report, damped_wave_pipeline,
            manufactured_data, monkeypatch):
        # traced memory each step allocates above what it started with:
        # the physical-space steps take their temporaries from the
        # stepper's work buffer and allocate only per-column arrays (the
        # spectral scan of a transverse null coupling still allocates its
        # FFTs).  numpy's ufunc iteration buffers (up to bufsize elements
        # per operand) are cut to 64 elements, so that they cannot hide
        # a slice-sized allocation.
        canon = damped_wave_pipeline[0] if damped else wave_canon
        peaks = []

        def traced(step):
            def wrapper(*args):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = step(*args)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
                return result
            return wrapper

        monkeypatch.setattr(_Stepper, "fill_null",
                            traced(_Stepper.fill_null))
        monkeypatch.setattr(_Stepper, "evolve", traced(_Stepper.evolve))

        def worst_step(nx):
            peaks.clear()
            bufsize = np.getbufsize()
            np.setbufsize(64)
            tracemalloc.start()
            try:
                self._march(canon, wave_report, manufactured_data, nx=nx)
            finally:
                tracemalloc.stop()
                np.setbufsize(bufsize)
            return max(peaks)

        small, large = worst_step(16), worst_step(128)
        one_slice = 4 * 129 * 8 * 4 * 8   # bytes of the widest slice
        assert large <= small + 1024
        assert large < one_slice / 20

    @pytest.mark.skipif(not hasattr(mmap, "MAP_POPULATE"),
                        reason="the platform has no MAP_POPULATE")
    def test_new_store_is_mapped_in_when_made(self, monkeypatch):
        # the march writes a new store without a page fault: its pages
        # come in with the mmap call, at one steady cost, and not one by
        # one (or as huge pages, by compaction) during the first march
        resource = pytest.importorskip("resource")
        monkeypatch.setattr(charsolve, "_POOL", [])
        store = charsolve._store(4 << 20)  # 32 MB: 8192 pages, 16 huge ones

        def faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        before = faults()
        store[:] = 1.0
        assert faults() - before < 8
