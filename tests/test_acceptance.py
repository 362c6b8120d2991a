"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
complete; each line also restates the pinned tolerance or budget.
"""
import contextlib
import dataclasses
import math
import time

import numpy as np
import pytest

import charmarch as cm
import charmarch.cli as cli
from charmarch import builtin, matkit
from charmarch.canonical import TransversalityError
from charmarch.energymon import EstimateHorizonError
from charmarch.wellposed import Verdict

import conftest
from conftest import manufactured_exact, sin_minus_y_terms

R2 = 1.0 / math.sqrt(2.0)

S_GOLD = np.array([[R2, -R2, 0, 0], [R2, R2, 0, 0],
                   [0, 0, 1, 0], [0, 0, 0, 1]])
BU_GOLD = np.array([[1.0, 1, 0, 0], [1, 1, 0, 0],
                    [0, 0, 1, 0], [0, 0, 0, 1]])
BX_GOLD = np.array([[0.0, -1, 0, 0], [-1, 0, 0, 0],
                    [0, 0, 0, 0], [0, 0, 0, 0]])
CY_GOLD = -R2 * np.array([[0.0, 1, 0, 0], [1, 0, 0, 1],
                          [0, 0, 0, 0], [0, 1, 0, 0]])
CZ_GOLD = -R2 * np.array([[0.0, 0, 1, 0], [0, 0, 0, 0],
                          [1, 0, 0, 1], [0, 0, 1, 0]])


def _verdict_line(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, desc


def grid2(nx, cy, cz, X=2.0):
    return cm.GridSpec(X_total=X, nx=nx,
                       transverse=(cm.TransverseAxis(cells=cy),
                                   cm.TransverseAxis(cells=cz)))


PLANE_WAVE = cm.DataSpec(
    q0=((), (), ()),
    w0=((cm.ProfileTerm(kind="sine", amp=math.sqrt(2.0), k=1.0),),))


def test_acceptance_1_golden_canonicalization():
    t0 = time.perf_counter()
    a = cm.analyze(*cm.load_system(builtin.example_text("wave3d")))
    elapsed = time.perf_counter() - t0
    ok = (np.abs(a.B.B["u"] - BU_GOLD).max() <= 1e-12
          and np.abs(a.B.B["x"] - BX_GOLD).max() <= 1e-12
          and np.abs(a.structure.S - S_GOLD).max() <= 1e-12
          and np.abs(a.canon.Nu - np.diag([2.0, 1, 1])).max() <= 1e-12
          and np.abs(a.canon.Nx - np.diag([-1.0, 0, 0])).max() <= 1e-12
          and np.abs(a.compact.C["y"] - CY_GOLD).max() <= 1e-12
          and np.abs(a.compact.C["z"] - CZ_GOLD).max() <= 1e-12
          and elapsed < 1.0)
    _verdict_line(1, ok, "golden canonical matrices to 1e-12, "
                  f"runtime {elapsed:.3f}s < 1s")


def test_acceptance_2_verdicts(tmp_path):
    t0 = time.perf_counter()
    code_ok, _ = 0, None
    import io
    out = io.StringIO()
    args = cli.build_parser().parse_args(["check", "--example", "wave3d"])
    code_ok = cli._COMMANDS["check"](args, out)
    well = "verdict: WELL_POSED" in out.getvalue()

    a = cm.analyze(*cm.load_system(builtin.example_text("wave3d")))
    rep = a.report
    r_zero = not np.any(a.compact.R) and rep.bound_factor(5.0) == 1.0

    rep_rev = cm.analyze(
        *cm.load_system(conftest.reversed_x_chart_text())).report
    rev_bad = (rep_rev.verdict is Verdict.NOT_WELL_POSED
               and rep_rev.class_Nx.tag is matkit.Definiteness.POSITIVE_SEMI)
    elapsed = time.perf_counter() - t0
    ok = (code_ok == cli.EXIT_OK and well and r_zero
          and rep.verdict is Verdict.WELL_POSED and rev_bad and elapsed < 1.0)
    _verdict_line(2, ok, "wave3d WELL_POSED with R=0 and factor 1; "
                  f"reversed x chart NOT_WELL_POSED, runtime {elapsed:.3f}s < 1s")


def test_acceptance_3_transversality(wave_analysis):
    M = cm.transversality_check(wave_analysis.structure, wave_analysis.B)
    det_ok = abs(abs(np.linalg.det(M)) - 1.0) <= 1e-12

    sys2, chart2 = cm.load_system(conftest.psi_equals_y_chart_text())
    B2 = cm.side_matrices(sys2, chart2)
    cs2 = cm.null_structure(B2, sys2.D)
    try:
        cm.transversality_check(cs2, B2)
        rejected = False
    except TransversalityError:
        rejected = True
    _verdict_line(3, det_ok and rejected,
                  "|det M| = 1 +- 1e-12 for the shipped chart; "
                  "transverse chart psi = y rejected")


def test_acceptance_4_exact_plane_wave(wave_canon, wave_report):
    t0 = time.perf_counter()
    grid = grid2(128, 16, 16)
    tr = cm.march(wave_canon, grid, PLANE_WAVE, report=wave_report)
    max_q = max(float(np.abs(s.values[:3]).max()) for s in tr.slices)
    max_w = max(float(np.abs(s.values[3]
                             - math.sqrt(2.0) * math.sin(s.u_level)).max())
                for s in tr.slices)
    elapsed = time.perf_counter() - t0
    ok = max_q <= 1e-12 and max_w <= 1e-12 and elapsed < 10.0
    _verdict_line(4, ok, f"plane wave exact: max|q|={max_q:.2e} <= 1e-12, "
                  f"max|w-w0|={max_w:.2e} <= 1e-12, runtime {elapsed:.1f}s < 10s")


def test_acceptance_5_self_convergence(wave_canon, wave_report,
                                       manufactured_data):
    t0 = time.perf_counter()
    errs = []
    sizes = (64, 128, 256)
    for nx in sizes:
        cy = max(8, nx // 4)
        grid = grid2(nx, cy, 4)
        tr = cm.march(wave_canon, grid, manufactured_data, report=wave_report)
        err = max(float(np.abs(s.values
                               - manufactured_exact(s, grid, cy)).max())
                  for s in tr.slices)
        errs.append(err)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    elapsed = time.perf_counter() - t0
    ok = all(p >= 0.8 for p in orders) and elapsed < 60.0
    _verdict_line(5, ok, "manufactured-solution convergence orders "
                  f"{', '.join('%.2f' % p for p in orders)} >= 0.8, "
                  f"runtime {elapsed:.1f}s < 60s")


def _estimate_ladder(canon, cf, rep, grid, data):
    tr = cm.march(canon, grid, data, report=rep)
    reports = []
    for T in cm.estimate_ladder(grid):
        with contextlib.suppress(EstimateHorizonError):
            reports.append(cm.verify_estimate(tr, cf, rep, T))
    return reports


def test_acceptance_6_estimate_r_zero(wave_canon, wave_compact, wave_report):
    t0 = time.perf_counter()
    data = cm.DataSpec(
        q0=((cm.ProfileTerm(kind="sine", amp=0.8, k=2.0,
                            trans=((1.0, 0.0), (0.0, 0.0))),), (), ()),
        w0=((cm.ProfileTerm(kind="sine", amp=1.2, k=1.0),),))
    worst = {}
    all_hold = True
    for nx in (36, 72):
        reports = _estimate_ladder(wave_canon, wave_compact, wave_report,
                                   grid2(nx, 8, 4), data)
        all_hold = all_hold and len(reports) == 8 \
            and all(r.holds for r in reports)
        worst[nx] = max(0.0, -min(r.margin for r in reports))
    scale = 1e-12
    shrinks = worst[72] <= worst[36] / 1.5 or worst[36] <= scale
    elapsed = time.perf_counter() - t0
    ok = all_hold and shrinks and elapsed < 60.0
    _verdict_line(6, ok, "R=0 estimate holds on the 8-value T ladder; worst "
                  f"negative margin {worst[36]:.2e} -> {worst[72]:.2e} "
                  f"(>= 1.5x shrink), runtime {elapsed:.1f}s < 60s")


def test_acceptance_7_estimate_exponential(damped_wave_pipeline):
    t0 = time.perf_counter()
    canon, cf, rep = damped_wave_pipeline
    r, c, T_max, factor = cm.growth_parameters(cf)
    grid = grid2(50, 4, 4, X=0.5)
    tr = cm.march(canon, grid, PLANE_WAVE, report=rep)
    T = 0.5 * T_max
    er = cm.verify_estimate(tr, cf, rep, T)
    bound_ok = er.holds and abs(er.bound - math.exp((r / c) * T)
                                * (er.norm_q0_sq + er.norm_w0_sq)) \
        <= 1e-12 * er.bound
    try:
        cm.verify_estimate(tr, cf, rep, T_max)
        refused = False
    except EstimateHorizonError as exc:
        refused = "c/r" in str(exc)
    elapsed = time.perf_counter() - t0
    ok = bound_ok and refused and elapsed < 60.0
    _verdict_line(7, ok, "R=-2I estimate holds at T=0.5*T_max with the "
                  f"e^((r/c)T) factor; T >= T_max refused, "
                  f"runtime {elapsed:.1f}s < 60s")


def test_acceptance_8_balance_linear(wave_canon, wave_compact, wave_report):
    res = []
    for nx in (16, 32, 64):
        tr = cm.march(wave_canon, grid2(nx, 4, 4), PLANE_WAVE,
                      report=wave_report)
        res.append(cm.balance_residual(tr, wave_compact, 1.0))
    ok = res[0] > res[1] > res[2] > 0.0 \
        and res[0] / res[1] >= 1.5 and res[1] / res[2] >= 1.5
    _verdict_line(8, ok, "balance residual shrinks ~linearly over three "
                  "refinements: " + ", ".join("%.2e" % r for r in res))


def test_acceptance_9_property_suite(wave_canon, wave_report, wave_system):
    sys_, _ = wave_system
    grid = grid2(10, 8, 4)

    d1 = cm.DataSpec(q0=(sin_minus_y_terms(0.7), (), ()),
                     w0=((cm.ProfileTerm(kind="sine", k=2.0),),))
    d2 = cm.DataSpec(
        q0=((), (cm.ProfileTerm(kind="gauss", center=0.5, width=0.4),), ()),
        w0=((),))
    scale = lambda d, a: cm.DataSpec(
        q0=tuple(tuple(dataclasses.replace(t, amp=a * t.amp) for t in p)
                 for p in d.q0),
        w0=tuple(tuple(dataclasses.replace(t, amp=a * t.amp) for t in p)
                 for p in d.w0))
    combined = cm.DataSpec(
        q0=tuple(scale(d1, 0.5).q0[i] + scale(d2, -2.0).q0[i]
                 for i in range(3)),
        w0=tuple(scale(d1, 0.5).w0[i] + scale(d2, -2.0).w0[i]
                 for i in range(1)))
    t1 = cm.march(wave_canon, grid, d1, report=wave_report)
    t2 = cm.march(wave_canon, grid, d2, report=wave_report)
    tc = cm.march(wave_canon, grid, combined, report=wave_report)
    linear = all(
        np.abs(sc.values - 0.5 * s1.values + 2.0 * s2.values).max() <= 1e-12
        for s1, s2, sc in zip(t1.slices, t2.slices, tc.slices))

    tz = cm.march(wave_canon, grid,
                  cm.DataSpec(q0=((), (), ()), w0=((),)), report=wave_report)
    zero = not any(np.any(s.values) for s in tz.slices)

    t1b = cm.march(wave_canon, grid, d1, report=wave_report)
    deterministic = all(np.array_equal(a.values, b.values)
                        for a, b in zip(t1.slices, t1b.slices))

    rng = np.random.default_rng(0)
    properties = True
    for _ in range(100):
        A = rng.integers(-3, 4, size=(4, 4)).astype(float)
        Bu = A + A.T
        rank, right, left = matkit.rank_and_nullspaces(Bu)
        properties = properties and rank + len(right) == 4
        nrm = max(np.abs(Bu).max(), 1.0)
        for z in right:
            properties = properties and np.abs(Bu @ z).max() <= 1e-9 * nrm
        for zt in left:
            properties = properties and np.abs(zt @ Bu).max() <= 1e-9 * nrm
        if right:
            S = matkit.orthonormal_complete(right, 4)
            properties = properties \
                and np.abs(S @ S.T - np.eye(4)).max() <= 1e-10

    ok = linear and zero and deterministic and properties
    _verdict_line(9, ok, "linearity, zero data -> zero trace, bit-identical "
                  "reruns, S-orthogonality, null residuals and the rank "
                  "identity on 100 random 4x4 systems")
