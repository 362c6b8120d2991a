import dataclasses
import errno
import gc
import math
import mmap
import os
import pathlib
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
# Maxwell's equations for (E, B) in wave3d's chart u = t - x
MAXWELL = pathlib.Path(__file__).resolve().parent / "data" / "maxwell3d.txt"


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
    def test_constant_boundary_zero_q(self, wave_canon, wave_report):
        grid = wave_grid()
        s = empty_slice(grid)
        s[3, 0] = 0.7
        _Stepper(wave_canon, grid, wave_report).fill_null(s)
        np.testing.assert_allclose(s[3], 0.7, atol=1e-15)
        np.testing.assert_allclose(s[:3], 0.0, atol=1e-15)

    def test_sine_mode_antiderivative(self, wave_canon, wave_report):
        # with q3 = sin(y) the null equation is d_x w = (1/sqrt2) cos(y)
        grid = wave_grid(nx=32, cy=64, cz=4)
        s = empty_slice(grid)
        y = np.arange(64) * (2.0 * math.pi / 64)
        s[1] = np.sin(y)[None, :, None]
        _Stepper(wave_canon, grid, wave_report).fill_null(s)
        x = np.arange(grid.nx + 1) * grid.dx
        expected = (x[:, None, None] * R2) * np.cos(y)[None, :, None]
        err = np.abs(s[3] - expected).max()
        dy = 2.0 * math.pi / 64
        assert err <= 2.0 * (grid.dx ** 2 + dy ** 2)

    def test_zero_everything(self, wave_canon, wave_report):
        grid = wave_grid()
        s = empty_slice(grid)
        _Stepper(wave_canon, grid, wave_report).fill_null(s)
        assert not np.any(s)

    @pytest.mark.parametrize("x_extent", [1, 2])
    @pytest.mark.parametrize("system", ["damped", "w_coupled",
                                        "damped_w_coupled"])
    def test_narrow_slice_matches_oracle(self, x_extent, system, wave_canon,
                                         wave_report, damped_wave_pipeline):
        # the scan takes no step at x_extent 1 and the G^1 step alone at 2
        canon = _coupled_system(system, wave_canon, damped_wave_pipeline)
        grid = wave_grid(nx=16, cy=8, cz=4, X=1.0)
        rng = np.random.default_rng(x_extent)
        s = np.zeros((4, x_extent, 8, 4))
        s[:3] = rng.standard_normal((3, x_extent, 8, 4))
        wb = rng.standard_normal((1, 8, 4))
        expected = _oracle_hypersurface(canon, s, wb, grid)
        s[3:, 0] = wb
        _Stepper(canon, grid, wave_report).fill_null(s)
        assert np.abs(s - expected).max() <= 1e-13

    def test_round_off_is_no_forcing_term(self, damped_wave_pipeline):
        # damped wave3d's canonical L0[0, 0] = 2.2e-16 and N0[0, 3] =
        # -8.5e-17 are reduction round-off where the exact entries are 0:
        # the canonical form keeps them, the stepper drops them
        canon, _, report = damped_wave_pipeline
        assert canon.L0[0, 0] != 0.0 and canon.N0[0, 3] != 0.0
        stepper = _Stepper(canon, wave_grid(nx=128, cy=8, cz=4, X=0.5),
                           report)
        assert stepper.forcing.M0 is None
        assert stepper.source.M0[:, 3].tolist() == [0.0, 0.0, 0.0]

    def test_one_null_field_couples_by_a_number(self, damped_wave_pipeline):
        # at m = 1 pointwise A f is one multiply by A's entry, which is
        # the one product the 1 x 1 matmul of the coupling operator rounds
        canon, _, report = damped_wave_pipeline
        grid = wave_grid(nx=16, cy=8, cz=4, X=1.0)
        stepper = _Stepper(canon, grid, report)
        assert stepper._A == -canon.L0[0, 3]
        s = np.random.default_rng(5).standard_normal((4, 17, 8, 4))
        by_operator = s.copy()
        stepper.fill_null(s)
        stepper._A = None
        stepper.fill_null(by_operator)
        assert s.tobytes() == by_operator.tobytes()


class TestEvolutionStep:
    def test_zero_slice_stays_zero(self, wave_canon, wave_report):
        grid = wave_grid()
        s = evolve(_Stepper(wave_canon, grid, wave_report),
                   empty_slice(grid))
        assert s.shape[1] == grid.nx
        assert not np.any(s)

    def test_plane_wave_keeps_q_zero(self, wave_canon, wave_report):
        grid = wave_grid()
        s0 = empty_slice(grid)
        s0[3] = 0.37  # w constant on the slice
        s = evolve(_Stepper(wave_canon, grid, wave_report), s0)
        np.testing.assert_allclose(s[:3], 0.0, atol=1e-15)

    def test_single_mode_hand_computation(self, wave_canon, wave_report):
        # q2-mode eps*sin(y): only the q3 equation picks up a source
        # (1/sqrt2) d_y q2; the expected update is one explicit step with a
        # centered transverse difference, computed independently here
        grid = wave_grid(nx=8, cy=16, cz=4)
        eps = 0.01
        s0 = empty_slice(grid)
        y = np.arange(16) * (2.0 * math.pi / 16)
        s0[0] = eps * np.sin(y)[None, :, None]
        s = evolve(_Stepper(wave_canon, grid, wave_report), s0)
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

    def test_the_slack_is_read_from_the_report(self, wave_canon,
                                               monkeypatch):
        # the system of the test above: its round-off speed passes on the
        # slack that the report's sign classes give, with no matrix
        # classified again on the way
        Nx = wave_canon.Nx.copy()
        Nx[2, 2] = 5e-12
        canon = dataclasses.replace(wave_canon, Nx=Nx)
        report = cm.check_criteria(cm.compact_form(canon))

        def classify(*args, **kwargs):
            raise AssertionError("the march classified a matrix")

        slack, slacks = charsolve._sign_rule_slack, []
        monkeypatch.setattr(cm.matkit, "classify_definiteness", classify)
        monkeypatch.setattr(charsolve, "_sign_rule_slack", lambda P, rep: (
            slacks.append(slack(P, rep)) or slacks[-1]))
        data = cm.DataSpec(q0=((cm.ProfileTerm(kind="sine"),), (), ()),
                           w0=((),))
        trace = cm.march(canon, wave_grid(nx=8, cy=4, cz=4), data,
                         report=report)
        assert trace.n_slices == 9
        assert slacks and min(slacks) > 0.0

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

    def test_each_profile_is_evaluated_once(self, wave_canon, wave_report,
                                            manufactured_data, monkeypatch):
        # the data are evaluated on the node line before the loop, which
        # then only steps: nq + m evaluations, whatever nx is
        calls = []

        def counted(terms, s, tmeshes):
            calls.append(np.shape(s))
            return evaluate(terms, s, tmeshes)

        evaluate = charsolve.evaluate_profile
        monkeypatch.setattr(charsolve, "evaluate_profile", counted)
        for nx in (8, 32):
            calls.clear()
            cm.march(wave_canon, wave_grid(nx=nx, cy=4, cz=4),
                     manufactured_data, report=wave_report)
            assert calls == [(nx + 1, 1, 1)] * 4

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

    def test_round_off_axis_needs_no_cells(self, wave_canon, wave_report,
                                           manufactured_data):
        # N^z and L^z at 1e-18 of their size are round-off on their
        # family's scale, which the stepper drops: z is not differenced,
        # so its 2 cells march, bit for bit as with those blocks at 0
        def with_z(scale):
            return dataclasses.replace(
                wave_canon,
                Ni={**wave_canon.Ni, "z": scale * wave_canon.Ni["z"]},
                Li={**wave_canon.Li, "z": scale * wave_canon.Li["z"]})

        assert np.any(wave_canon.Ni["z"]) and np.any(wave_canon.Li["z"])
        grid = wave_grid(nx=8, cy=8, cz=2)
        tiny, zero = (cm.march(with_z(scale), grid, manufactured_data,
                               report=wave_report) for scale in (1e-18, 0.0))
        assert tiny._store.tobytes() == zero._store.tobytes()
        assert tiny.diagnostics == zero.diagnostics

    # 5e-324 / 8 underflows: dx would be 0
    @pytest.mark.parametrize("X", [math.nan, math.inf, 0.0, -1.0, 5e-324])
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
        # ((1.0, 0.0),) with its trailing comma left out
        ({"kind": "sine", "trans": (1.0, 0.0)},
         r"trans\[0\] must be a finite \(wavenumber, phase\) pair, "
         r"got 1.0$"),
        # a bare number for the whole tuple of pairs
        ({"kind": "sine", "trans": 1.0},
         r"trans must be a tuple of \(wavenumber, phase\) pairs, got 1.0$"),
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

    @staticmethod
    def _march_nodal(canon, grid, nodal, report):
        with np.errstate(over="ignore", invalid="ignore"):
            return charsolve._march_nodal(
                canon, grid, nodal, report,
                charsolve._trace_store(canon.n_unknowns, grid))

    @pytest.mark.parametrize("j, where", [(0, "q0 data"),
                                          (1, "evolution step")])
    def test_q_block_is_named_before_the_w0_column(self, j, where,
                                                   wave_canon, wave_report):
        # slice j holds inf or NaN in its q rows and its w0 column: the
        # slice check names the q block, which the march made first.  On
        # slice 1 the q rows overflow in the source of the evolution step
        # (a 1e300 coefficient on q2 = 1e10)
        grid = wave_grid(nx=8, cy=4, cz=4, X=1.0)
        nodal = np.zeros((4, grid.nx + 1) + grid.cells)
        canon = wave_canon
        if j:
            N0 = wave_canon.N0.copy()
            N0[0, 1] = 1e300
            canon = dataclasses.replace(wave_canon, N0=N0)
            nodal[1] = 1e10
        else:
            nodal[0, 3] = np.nan
        nodal[3, j] = np.nan
        with pytest.raises(MarchAbortError, match=(
                f"^non-finite value in {where} at u = {j * grid.dx:.6g}$")):
            self._march_nodal(canon, grid, nodal, wave_report)

    def test_w0_column_is_named_at_its_u(self, wave_canon, wave_report):
        # a NaN in w0 at u = 5 dx, under finite q rows
        grid = wave_grid(nx=8, cy=4, cz=4, X=1.0)
        nodal = np.random.default_rng(0).standard_normal(
            (4, grid.nx + 1) + grid.cells)
        nodal[3, 5, 2, 1] = np.nan
        with pytest.raises(MarchAbortError, match=(
                "^non-finite value in w0 data at u = 0.625$")):
            self._march_nodal(wave_canon, grid, nodal, wave_report)

    @pytest.mark.parametrize("system", ["undamped", "damped", "w_coupled"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-300, 1.0, 1e150]),
           zero=st.sampled_from([None, "q", "w0"]))
    def test_diagnostics_are_the_larger_block_max(self, system, seed, scale,
                                                  zero, wave_canon,
                                                  wave_report,
                                                  damped_wave_pipeline):
        # one max and one min over the whole slice give what the q and w
        # blocks give apart, exactly; either block may hold the max
        canon = wave_canon if system == "undamped" else \
            _coupled_system(system, wave_canon, damped_wave_pipeline)
        grid = wave_grid(nx=8, cy=8, cz=4, X=1.0)
        nq = canon.nq
        nodal = scale * np.random.default_rng(seed).standard_normal(
            (canon.n_unknowns, grid.nx + 1) + grid.cells)
        if zero == "q":
            nodal[:nq] = 0.0
        elif zero == "w0":
            nodal[nq:] = 0.0
        trace = self._march_nodal(canon, grid, nodal, wave_report)
        assert trace.diagnostics == tuple(
            max(float(np.abs(s.values[:nq]).max()),
                float(np.abs(s.values[nq:]).max())) for s in trace.slices)


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


def _nodal(grid, data):
    """The data at the nodes s = k dx, one scalar evaluation per node: q0
    on u = 0 at x = s and w0 on x = 0 at u = s, (unknowns, nx + 1, *cells)."""
    tmeshes = grid.transverse_meshes()
    return np.array([[charsolve.evaluate_profile(p, k * grid.dx, tmeshes)
                      for k in range(grid.nx + 1)]
                     for p in data.q0 + data.w0])


def _oracle_march(canon, grid, nodal):
    """Slice values of the zig-zag march of nodal data, as `_nodal` lays
    them out, one Heun step per x point."""
    nq = canon.nq
    vals = np.zeros_like(nodal)
    vals[:nq] = nodal[:nq]
    out = []
    for j in range(grid.nx + 1):
        vals = _oracle_hypersurface(canon, vals, nodal[nq:, j], grid)
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
        self._assert_matches(canon, wave_report,
                             wave_grid(nx=16, cy=8, cz=4, X=1.0))

    @pytest.mark.parametrize("system", ["damped", "damped_w_coupled"])
    def test_long_grid_matches_to_round_off(self, system, wave_canon,
                                            wave_report,
                                            damped_wave_pipeline):
        # nx = 128 takes the scan of the hypersurface pass up to G^64
        canon = _coupled_system(system, wave_canon, damped_wave_pipeline)
        self._assert_matches(canon, wave_report,
                             wave_grid(nx=128, cy=8, cz=4, X=1.0))

    def test_two_null_fields_match_to_round_off(self):
        # m = 2 with pointwise null coupling: the scan's matrix powers,
        # up to G^64; A^x = diag(1, 1, -1) puts two of three fields on
        # u = t - x, and a random D couples them
        D = 0.5 * np.random.default_rng(3).standard_normal((3, 3))
        a = cm.analyze(
            cm.FirstOrderSystem(n_coords=2, n_unknowns=3,
                                coord_names=("t", "x"),
                                A={"t": np.eye(3),
                                   "x": np.diag([1.0, 1.0, -1.0])}, D=D),
            cm.Chart(J=[[1, -1], [0, 1]], offsets=[0, 0]))
        assert (a.canon.nq, a.canon.m) == (1, 2)
        assert a.report.verdict is Verdict.WELL_POSED
        grid = cm.GridSpec(X_total=1.0, nx=128)
        data = cm.DataSpec(
            q0=((cm.ProfileTerm(kind="sine", amp=0.8, k=2.0, phase=0.3),),),
            w0=((cm.ProfileTerm(kind="sine", amp=1.2, k=1.0, phase=0.1),),
                (cm.ProfileTerm(kind="gauss", center=0.4, width=0.3),)))
        self._assert_matches(a.canon, a.report, grid, data)

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

    @pytest.mark.parametrize("system", ["undamped", "damped", "w_coupled"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_rough_nodal_data_match_to_round_off(self, system, seed,
                                                 wave_canon, wave_report,
                                                 damped_wave_pipeline):
        # independent normal values at every data node and cell: data no
        # profile describes, marched by the loop that march hands its
        # evaluated profiles to
        canon = wave_canon if system == "undamped" else \
            _coupled_system(system, wave_canon, damped_wave_pipeline)
        grid = wave_grid(nx=16, cy=8, cz=4, X=1.0)
        nodal = np.random.default_rng(seed).standard_normal(
            (canon.n_unknowns, grid.nx + 1) + grid.cells)
        self._assert_matches(canon, wave_report, grid, nodal=nodal)

    def test_maxwell_has_no_null_coupling(self):
        # m = 2 and four q; the w blocks of L^y and L^z hold reduction
        # round-off (about 1.6e-16) where the exact entries are 0, which
        # the stepper takes as zeros: its pass is a cumulative sum
        a = cm.analyze(*cm.load_system(MAXWELL.read_text()))
        assert (a.canon.nq, a.canon.m) == (4, 2)
        assert a.report.verdict is Verdict.WELL_POSED
        assert np.any(a.canon.Li["y"][:, 4:])
        grid = wave_grid(nx=16, cy=8, cz=4, X=1.0)
        stepper = _Stepper(a.canon, grid, a.report)
        assert stepper.coupling.is_zero and not stepper.powers
        sine = self.DATA.q0[0]
        gauss = self.DATA.q0[1]
        data = cm.DataSpec(q0=(sine, gauss, (), gauss),
                           w0=(self.DATA.w0[0], sine))
        self._assert_matches(a.canon, a.report, grid, data)

    def test_maxwell_source_has_no_round_off(self):
        # Maxwell's Nu has off-diagonal round-off of about 1e-32, which
        # the dx Nu^-1 product spreads into entries of 1e-34 to 1e-50
        # where the exact ones are 0: the source is cleaned after it
        a = cm.analyze(*cm.load_system(MAXWELL.read_text()))
        stepper = _Stepper(a.canon, wave_grid(nx=16, cy=8, cz=4, X=1.0),
                           a.report)
        source = stepper.source
        blocks = [M for M, _ in source.terms]
        blocks += [] if source.M0 is None else [source.M0]
        assert len(source.terms) == 2
        s = max(float(np.abs(M).max()) for M in blocks)
        cut = a.canon.n_unknowns * np.finfo(float).eps * s
        for M in blocks:
            assert not np.any((M != 0.0) & (np.abs(M) <= cut))

    @pytest.mark.parametrize("factor, spectral", [(0.5, False), (2.0, True)])
    def test_zero_rule_decides_the_scan(self, factor, spectral, monkeypatch,
                                        wave_canon, wave_report):
        # an entry of L^y's w block counts as zero up to n eps s, with s
        # the largest |entry| of L0 and the L^i: below it the pass scans
        # the physical slice, above it every transverse Fourier mode
        Li = wave_canon.Li
        s = max(float(np.abs(L).max()) for L in [wave_canon.L0, *Li.values()])
        Ly = Li["y"].copy()
        Ly[0, 3] = factor * wave_canon.n_unknowns * np.finfo(float).eps * s
        canon = dataclasses.replace(wave_canon, Li={**Li, "y": Ly})
        rfftn, calls = np.fft.rfftn, []
        monkeypatch.setattr(np.fft, "rfftn",
                            lambda *a, **k: calls.append(1) or rfftn(*a, **k))
        self._assert_matches(canon, wave_report,
                             wave_grid(nx=16, cy=8, cz=4, X=1.0))
        assert bool(calls) is spectral

    def _assert_matches(self, canon, report, grid, data=DATA, nodal=None):
        if nodal is None:
            trace = cm.march(canon, grid, data, report=report, force=True)
            nodal = _nodal(grid, data)
        else:
            trace = charsolve._march_nodal(
                canon, grid, nodal, report,
                charsolve._trace_store(canon.n_unknowns, grid))
        expected = _oracle_march(canon, grid, nodal)
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
        op = _FieldOperator(M0, Mt, grid)
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
        op = _FieldOperator(M0, Mt, grid)
        plane = np.random.default_rng(0).standard_normal((3, 9, 7))
        assert op(plane, np.empty(op.work)).tobytes() == \
            _dense_operator(M0, Mt, grid, plane).tobytes()

    def test_empty_blocks(self):
        # nq = 0 (no q rows, or a forcing with no columns) and a grid with
        # no transverse axes
        grid = cm.GridSpec(X_total=1.0, nx=4)
        for shape in ((0, 2), (2, 0), (0, 0)):
            op = _FieldOperator(np.zeros(shape), [], grid)
            out = op(np.ones((shape[1], 5)), np.empty(op.work))
            assert out.shape == (shape[0], 5) and not np.any(out)


def _dense_upwind(P, q, src):
    """q[:, :-1] - P (q[:, 1:] - q[:, :-1]) - src[:, :-1], with the whole
    P in one product."""
    head = q[:, :-1] - _dense_apply(P, q[:, 1:] - q[:, :-1])
    head -= src[:, :-1]
    return head


@st.composite
def _upwind_case(draw):
    nq = draw(st.integers(0, 5))
    cells = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    P = draw(arrays(float, (nq, nq), elements=_entries))
    # whole zero rows and columns on top of the zero entries
    P *= draw(arrays(bool, (nq, 1))) & draw(arrays(bool, (1, nq)))
    width = draw(st.integers(2, 6))
    return P, cells, width, draw(st.integers(0, 2 ** 32 - 1))


class TestUpwindStep:
    """The x step, on the span of P's nonzero rows where P uses one
    column, gives the dense step's bits."""

    @given(_upwind_case())
    @example((np.diag([-0.5, 0.0, 0.0]), (8, 4), 6, 0))   # wave3d's P
    @example((np.array([[0.0, 0.0], [0.0, 0.7]]), (), 3, 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_step_bit_for_bit(self, case):
        P, cells, width, seed = case
        grid = cm.GridSpec(X_total=1.0, nx=5, transverse=tuple(
            cm.TransverseAxis(cells=c) for c in cells))
        step = charsolve._UpwindStep(P, grid)
        rng = np.random.default_rng(seed)
        nq = len(P)
        vals = rng.standard_normal((nq + 1, width) + cells)
        src = rng.standard_normal((nq, width) + cells)
        # the work buffer and the new slice hold old values: nothing may
        # read them, and the w row is left as it is
        new = np.full((nq + 1, width - 1) + cells, np.nan)
        step(vals[:nq], src, new[:nq], np.full(step.work, np.nan))
        assert new[:nq].tobytes() == \
            _dense_upwind(P, vals[:nq], src).tobytes()
        assert np.isnan(new[nq:]).all()

    def test_work_is_the_columns_p_uses(self, wave_canon, wave_report):
        # wave3d's P = diag(-1/2, 0, 0) takes the x difference of q1 alone
        grid = wave_grid(nx=8, cy=8, cz=4)
        stepper = _Stepper(wave_canon, grid, wave_report)
        assert stepper.upwind.work == 9 * 8 * 4


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

    @pytest.mark.parametrize("code, error", [
        (errno.ENOMEM, MemoryError), (errno.EACCES, PermissionError)])
    def test_refused_mapping(self, code, error, wave_canon, wave_report,
                             manufactured_data, monkeypatch):
        # a mapping refused for want of memory names the grid and the
        # bytes its trace needs; any other refusal passes through as is
        def refuse(*args, **kwargs):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(charsolve, "_POOL", [])
        monkeypatch.setattr(charsolve.mmap, "mmap", refuse)
        with pytest.raises(error) as info:
            self._march(wave_canon, wave_report, manufactured_data)
        if code == errno.ENOMEM:
            assert str(info.value) == (
                f"the trace of nx = 16, cells (8, 4) needs "
                f"{8 * 4 * 32 * 17 * 18 // 2} bytes: {os.strerror(code)}")

    @pytest.mark.skipif(not hasattr(mmap, "MAP_POPULATE"),
                        reason="the platform has no MAP_POPULATE")
    def test_new_store_is_mapped_in_when_made(self, monkeypatch):
        # the march writes a new store without a page fault: its pages
        # come in with the mmap call, at one steady cost, and not one by
        # one (or as huge pages, by compaction) during the first march
        resource = pytest.importorskip("resource")
        monkeypatch.setattr(charsolve, "_POOL", [])
        # the trace of 2 unknowns on 16 x 16 cells at nx = 127, 32.25 MiB:
        # 8256 pages, 16 huge ones and a part
        store = charsolve._trace_store(2, cm.GridSpec(
            X_total=1.0, nx=127, transverse=(cm.TransverseAxis(cells=16),
                                             cm.TransverseAxis(cells=16))))

        def faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        before = faults()
        store[:] = 1.0
        assert faults() - before < 8


def _wave(nt):
    """The wave equation in 1 + 1 + nt dimensions, as wave3d, which it is
    at nt = 2: nt transverse axes and the chart u = t - x."""
    n = 2 + nt
    names = ("t", "x", "y", "z")[:n]
    A = {"t": np.eye(n)}
    for i, name in enumerate(names[1:], start=1):
        A[name] = np.zeros((n, n))
        A[name][0, i] = A[name][i, 0] = -1.0
    J = np.eye(n)
    J[0, 1] = -1.0
    return cm.analyze(cm.FirstOrderSystem(n_coords=n, n_unknowns=n,
                                          coord_names=names, A=A,
                                          D=np.zeros((n, n))),
                      cm.Chart(J=J, offsets=np.zeros(n)))


_WAVES = {nt: _wave(nt) for nt in range(3)}


def _sine(rng, nt):
    return (cm.ProfileTerm(kind="sine", amp=rng.uniform(-1, 1), k=1.0,
                           phase=rng.uniform(0, 3), trans=tuple(
                               (float(rng.integers(0, 3)), 0.0)
                               for _ in range(nt))),)


@st.composite
def _marched_trace(draw):
    nt = draw(st.integers(0, 2))
    a = _WAVES[nt]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = cm.GridSpec(X_total=1.0, nx=draw(st.integers(2, 9)),
                       transverse=tuple(
                           cm.TransverseAxis(cells=draw(st.integers(4, 6)))
                           for _ in range(nt)))
    data = cm.DataSpec(q0=tuple(_sine(rng, nt) for _ in range(a.canon.nq)),
                       w0=tuple(_sine(rng, nt) for _ in range(a.canon.m)))
    return cm.march(a.canon, grid, data, report=a.report)


@st.composite
def _hand_built_trace(draw):
    """Slices of any x extents, as separate arrays, as consecutive views of
    one flat array, as march's are, or as views of one with a gap in front
    of each."""
    n = draw(st.integers(0, 3))
    cells = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    nx = draw(st.integers(2, 7))
    widths = draw(st.lists(st.integers(1, nx + 1), max_size=nx + 1))
    layout = draw(st.sampled_from(["arrays", "packed", "gapped"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shapes = [(n, w) + cells for w in widths]
    gap = layout == "gapped"
    flat = rng.standard_normal(sum(map(math.prod, shapes)) + gap * len(shapes))
    values, at = [], 0
    for shape in shapes:
        if layout == "arrays":
            values.append(np.asfortranarray(rng.standard_normal(shape)))
        else:
            at += gap
            values.append(flat[at:at + math.prod(shape)].reshape(shape))
            at += math.prod(shape)
    grid = cm.GridSpec(X_total=1.0, nx=nx, transverse=tuple(
        cm.TransverseAxis(cells=c) for c in cells))
    slices = [charsolve.SliceState(u_level=j * grid.dx, values=v)
              for j, v in enumerate(values)]
    return cm.SolutionTrace(grid=grid, slices=slices), values


class TestTraceGathers:
    """A level's nodes and the x = 0 column, each one gather from the
    trace's store, are the per-slice views, bit for bit."""

    @staticmethod
    def _assert_gathers_are_the_views(trace, values):
        # level K is covered when every slice j <= K holds x index K - j
        levels = next(K for K in range(len(values) + 1)
                      if K == len(values)
                      or any(v.shape[1] <= K - j
                             for j, v in enumerate(values[:K + 1])))
        assert trace._levels == levels
        for K in range(levels):
            got = trace._level_nodes(K)
            want = np.stack([values[j][:, K - j] for j in range(K + 1)],
                            axis=1)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        got = trace._x0_column()
        want = np.stack([v[:, 0] for v in values[:levels]], axis=1) \
            if levels else got
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(_marched_trace())
    @settings(max_examples=60, deadline=None)
    def test_marched_trace(self, trace):
        assert trace._levels == trace.n_slices == trace.grid.nx + 1
        # the march's store is the trace's: nothing was copied
        assert trace._store.base is trace.slices[0].values.base
        assert not trace._store.flags.writeable
        self._assert_gathers_are_the_views(
            trace, [s.values for s in trace.slices])

    @given(_hand_built_trace())
    @settings(max_examples=150, deadline=None)
    def test_hand_built_trace(self, case):
        trace, values = case
        # every layout is copied, packed views too, into a read-only store
        for s, v in zip(trace.slices, values):
            assert np.array_equal(s.values, v)
            assert not np.shares_memory(s.values, v)
            assert not s.values.flags.writeable
        assert not trace._store.flags.writeable
        self._assert_gathers_are_the_views(trace, [v.copy() for v in values])
        # so no later write to the arrays passed in reaches the trace
        for v in values:
            v[...] = np.nan
        assert not any(np.isnan(s.values).any() for s in trace.slices)
