import dataclasses
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charmarch as cm
from charmarch import cli
from charmarch.canonical import CompactSystem
from charmarch.matkit import Definiteness
from charmarch.wellposed import NormUndefinedError, Verdict

import conftest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def make_compact(Nu, Nx, m, trans=None, Dc=None):
    Nu = np.atleast_2d(np.asarray(Nu, float))
    Nx = np.atleast_2d(np.asarray(Nx, float))
    nq = Nu.shape[0]
    n = nq + m
    Cu = np.zeros((n, n))
    Cu[:nq, :nq] = Nu
    Cx = np.zeros((n, n))
    Cx[:nq, :nq] = Nx
    Cx[nq:, nq:] = np.eye(m)
    C = {"u": Cu, "x": Cx}
    names = tuple((trans or {}).keys())
    for k, M in (trans or {}).items():
        C[k] = np.asarray(M, float)
    Dc = np.zeros((n, n)) if Dc is None else np.asarray(Dc, float)
    return CompactSystem(m=m, n=n, transverse_names=names, C=C, Dc=Dc)


class TestCheckCriteria:
    def test_wave_well_posed(self, wave_report):
        rep = wave_report
        assert rep.verdict is Verdict.WELL_POSED
        assert all(rep.symmetric_Ca.values())
        assert rep.class_Nu.tag is Definiteness.POSITIVE_DEFINITE
        assert rep.class_Nx.tag is Definiteness.NEGATIVE_SEMI
        assert rep.class_NuPlusNx.tag is Definiteness.POSITIVE_DEFINITE
        assert rep.class_R.tag is Definiteness.ZERO
        assert rep.r == 0.0
        assert abs(rep.c - 1.0) < 1e-12
        assert math.isinf(rep.T_max)
        assert rep.time_function_ok

    def test_reversed_x_chart_not_well_posed(self):
        rep = cm.analyze(
            *cm.load_system(conftest.reversed_x_chart_text())).report
        assert rep.verdict is Verdict.NOT_WELL_POSED
        assert rep.class_Nx.tag is Definiteness.POSITIVE_SEMI

    def test_asymmetric_transverse_matrix_fails(self, wave_compact):
        C = dict(wave_compact.C)
        bad = C["y"].copy()
        bad[0, 1] += 0.25
        C["y"] = bad
        cf = dataclasses.replace(wave_compact, C=C)
        rep = cm.check_criteria(cf)
        assert rep.verdict is Verdict.NOT_WELL_POSED
        assert not rep.symmetric_Ca["y"]

    def test_marginal_nx_is_inconclusive(self):
        # above the classification threshold (1e-10 * ||Nx||) but inside the
        # absolute marginal band
        cf = make_compact(np.eye(2), np.diag([9e-11, -0.5]), m=1)
        rep = cm.check_criteria(cf)
        assert rep.verdict is Verdict.INCONCLUSIVE

    def test_clearly_positive_nx_not_well_posed(self):
        cf = make_compact(np.eye(2), np.diag([0.5, -0.5]), m=1)
        assert cm.check_criteria(cf).verdict is Verdict.NOT_WELL_POSED

    def test_verdict_invariant_under_block_permutations(self, wave_compact):
        rng = np.random.default_rng(7)
        nq, n = wave_compact.nq, wave_compact.n
        for _ in range(10):
            P = np.zeros((n, n))
            pq = rng.permutation(nq)
            pw = rng.permutation(np.arange(nq, n))
            P[np.arange(nq), pq] = 1.0
            P[np.arange(nq, n), pw] = 1.0
            C = {k: P @ M @ P.T for k, M in wave_compact.C.items()}
            cf = dataclasses.replace(
                wave_compact, C=C, Dc=P @ wave_compact.Dc @ P.T)
            assert cm.check_criteria(cf).verdict is Verdict.WELL_POSED


def wave_1d(a):
    """The 1+1-D wave with A^t = a I and A^x = -a [[0, 1], [1, 0]] in the
    chart u = t - x, as a definition text."""
    return (f"ncoords 2\nnunknowns 2\ncoordnames t x\n"
            f"matrix A t\n{a!r} 0\n0 {a!r}\n"
            f"matrix A x\n0 {-a!r}\n{-a!r} 0\n"
            f"chart\n1 -1\n0 1\n0 0\n")


class TestFloatRange:
    """The symmetric parts are formed without overflow, and a matrix the
    criteria build that leaves the float range is refused by name."""

    @pytest.mark.parametrize("a", [1.0, 6e307])
    def test_scaled_wave_is_well_posed(self, a, tmp_path, capsys):
        rep = cm.analyze(*cm.load_system(wave_1d(a))).report
        assert rep.verdict is Verdict.WELL_POSED
        assert [c.tag for c in (rep.class_Nu, rep.class_Nx,
                                rep.class_NuPlusNx, rep.class_R)] == [
            Definiteness.POSITIVE_DEFINITE, Definiteness.NEGATIVE_DEFINITE,
            Definiteness.POSITIVE_DEFINITE, Definiteness.ZERO]
        path = tmp_path / "wave1d.txt"
        path.write_text(wave_1d(a))
        assert cli.main(["check", "--input", str(path)]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert out.startswith("verdict: WELL_POSED\n") and err == ""

    def test_overflowing_sum_is_named(self):
        cf = make_compact([[1.5e308]], [[1.5e308]], m=1)
        with pytest.raises(ValueError,
                           match=r"^Nu \+ Nx has non-finite entries$"):
            cm.check_criteria(cf)

    def test_overflowing_r_is_named(self):
        cf = make_compact(np.eye(1), [[0.0]], m=1, Dc=1e308 * np.eye(2))
        with pytest.raises(ValueError, match="^R has non-finite entries$"):
            cm.check_criteria(cf)


def _corpus(seed, count):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gensys
    finally:
        sys.path.remove(str(PERFBENCH))
    return gensys.generate(seed, count)


@pytest.mark.parametrize("seed", [1, 7])
def test_check_path_matches_oracle_on_the_corpus(seed):
    # the first 200 systems of the check-batch corpus: each sign class is
    # the tag and eigenvalue bits of numpy's eigvalsh of 0.5 (M + M^T)
    # under the documented threshold, and r and c follow from them
    tols = cm.Tolerances()
    for text in _corpus(seed, 200):
        cf = cm.analyze(*cm.load_system(text)).compact
        rep = cm.check_criteria(cf, tols)
        Nu, Nx, R = cf.Nu, cf.Nx, cf.R
        for cls, M in [(rep.class_Nu, Nu), (rep.class_Nx, Nx),
                       (rep.class_NuPlusNx, Nu + Nx), (rep.class_R, R)]:
            conftest.assert_matches_oracle(cls, M, tols)
        assert rep.r == (float(np.abs(R).max()) if R.size else 0.0)
        w = conftest.oracle_class(Nu + Nx, tols)[1].tolist()
        assert rep.c == min(w + ([1.0] if cf.m else []))


class TestAnalyze:
    def test_stages_by_hand_match_analyze(self, wave_system, wave_analysis):
        # D chosen so the compact R is diag(1, 1, 1, -2e-6): non-negative at
        # eig tolerance 1e-3, indefinite at the default
        sys_, chart = wave_system
        canon = wave_analysis.canon
        Dc = np.diag([0.5, 0.5, 0.5, -1e-6])
        sys_ = dataclasses.replace(
            sys_, D=np.linalg.solve(canon.row_transform, Dc @ canon.to_hat))
        tols = cm.Tolerances(rank=1e-8, sym=1e-8, eig=1e-3)
        B = cm.side_matrices(sys_, chart)
        assert cm.verify_characteristic(B, tols) == 1
        cs = cm.null_structure(B, sys_.D, tols)
        cm.transversality_check(cs, B, tols)
        cf = cm.compact_form(cm.split_and_reduce(cs, B, sys_.D, tols))
        by_hand = cm.check_criteria(cf, tols)
        a = cm.analyze(sys_, chart, tols)
        assert a.report == by_hand
        assert a.report.tols is tols
        assert by_hand.growth_exponent == 0.0
        assert cm.analyze(sys_, chart).report.growth_exponent > 0.0
        r, c, T_max, _ = cm.growth_parameters(cf, tols)
        assert (r, c, T_max) == (by_hand.r, by_hand.c, by_hand.T_max)


class TestGrowthParameters:
    def test_wave_r_zero_factor_one(self, wave_compact):
        r, c, T_max, factor = cm.growth_parameters(wave_compact)
        assert r == 0.0
        assert abs(c - 1.0) < 1e-12
        assert math.isinf(T_max)
        assert factor(10.0) == 1.0

    def test_exponential_branch_arithmetic(self):
        cf = make_compact(np.eye(1), [[-0.0]], m=1,
                          Dc=-0.25 * np.eye(2))  # R = -0.5 I, c = 1
        r, c, T_max, factor = cm.growth_parameters(cf)
        assert abs(r - 0.5) < 1e-15
        assert abs(c - 1.0) < 1e-15
        assert abs(T_max - 2.0) < 1e-12
        assert abs(factor(1.0) - math.exp(0.5)) < 1e-12

    def test_factor_overflow_is_inf(self, damped_wave_pipeline):
        # growth exponent r/c = 2 scaled to 1e9: e^{1e9} is no float
        _, cf, rep = damped_wave_pipeline
        huge = dataclasses.replace(cf, Dc=5e8 * cf.Dc)
        *_, factor = cm.growth_parameters(huge)
        assert factor(1.0) == math.inf
        assert dataclasses.replace(rep, r=1e9 * rep.c) \
            .bound_factor(1.0) == math.inf

    def test_derived_from_r_c_and_class_R(self, damped_wave_pipeline,
                                          wave_report):
        # (growth exponent, T_max) of each branch; they are no fields, so
        # no report can hold values that disagree with r, c and class_R
        _, _, rep = damped_wave_pipeline
        for report, want in [
                (dataclasses.replace(rep, r=3.0, c=1.5), (2.0, 0.5)),
                (dataclasses.replace(rep, r=0.0), (0.0, math.inf)),
                (dataclasses.replace(rep, c=0.0), (math.inf, 0.0)),
                (dataclasses.replace(rep, c=-1.0), (math.inf, 0.0)),
                (dataclasses.replace(wave_report, r=5.0), (0.0, math.inf))]:
            assert (report.growth_exponent, report.T_max) == want
        names = {f.name for f in dataclasses.fields(rep)}
        assert not names & {"growth_exponent", "T_max"}
        with pytest.raises(TypeError):
            dataclasses.replace(rep, T_max=1.0)

    def test_requires_positive_definite_norm(self):
        cf = make_compact(np.eye(1), [[-1.0]], m=1)
        with pytest.raises(NormUndefinedError):
            cm.growth_parameters(cf)

    def test_small_norm_is_the_reports(self):
        # Nu + Nx = 1e-12: positive definite on its own scale, as the
        # criteria judge it, so c = 1e-12 and no NormUndefinedError
        cf = make_compact([[2e-12]], [[-1e-12]], m=1, Dc=-0.25 * np.eye(2))
        rep = cm.check_criteria(cf)
        assert rep.verdict is Verdict.WELL_POSED and rep.c == 1e-12
        r, c, T_max, factor = cm.growth_parameters(cf)
        assert (r, c, T_max) == (rep.r, rep.c, rep.T_max) == (0.5, 1e-12, 2e-12)
        assert factor(1e-12) == rep.bound_factor(1e-12)

    @pytest.mark.parametrize("nq, m", [(1, 1), (2, 1), (1, 3), (0, 2)])
    def test_c_is_the_least_eigenvalue_of_cu_plus_cx(self, nq, m):
        # C^u + C^x = blockdiag(Nu + Nx, I), so its least eigenvalue is
        # min(eig(Nu + Nx), 1): above and below 1 here
        for scale in (0.25, 4.0):
            Nu = scale * np.diag(np.arange(2.0, nq + 2.0))
            cf = make_compact(Nu.reshape(nq, nq), np.zeros((nq, nq)), m)
            W = cf.C["u"] + cf.C["x"]
            want = np.linalg.eigvalsh(0.5 * (W + W.T))[0]
            assert abs(cm.check_criteria(cf).c - want) <= 1e-15 * abs(want)

    def test_no_q_unknowns_has_c_one(self):
        # nq = 0: C^u + C^x = I_m is positive definite although the empty
        # Nu + Nx is classified ZERO, so the norm exists and c = 1
        cf = make_compact(np.zeros((0, 0)), np.zeros((0, 0)), m=2)
        r, c, T_max, factor = cm.growth_parameters(cf)
        assert (r, c, T_max) == (0.0, 1.0, math.inf) and factor(5.0) == 1.0

    def test_nonnegative_r_keeps_factor_one(self):
        cf = make_compact(np.eye(1), [[0.0]], m=1, Dc=0.5 * np.eye(2))
        r, c, T_max, factor = cm.growth_parameters(cf)
        assert math.isinf(T_max) and factor(3.0) == 1.0

    def test_c_matches_rayleigh_sampling_oracle(self, wave_compact):
        _, c, _, _ = cm.growth_parameters(wave_compact)
        W = wave_compact.C["u"] + wave_compact.C["x"]
        rng = np.random.default_rng(0)
        vs = rng.normal(size=(1000, wave_compact.n))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        sampled = np.einsum("ka,ab,kb->k", vs, W, vs).min()
        assert sampled >= c - 1e-10
        assert abs(sampled - 1.0) < 1e-10  # C^u + C^x = I for the wave

    @given(st.integers(0, 10**6), st.sampled_from([1e-10, 1e-6, 1e-3]))
    @settings(max_examples=60, deadline=None)
    def test_same_values_as_report(self, seed, tol):
        # one derivation of r, c, T_max and the factor, at every tolerance
        rng = np.random.default_rng(seed)
        nq, m = (int(k) for k in rng.integers(1, 4, size=2))
        A, X, D = (rng.normal(size=(k, k)) for k in (nq, nq, nq + m))
        d = np.append(-rng.choice([0.0, 1e-6]), rng.uniform(0, 1, nq + m - 1))
        cf = make_compact(A @ A.T + 0.1 * np.eye(nq),
                          -rng.uniform(0.0, 0.5) * X @ X.T / nq, m,
                          Dc=(np.diag(d), D, 0.0 * D)[seed % 3])
        try:
            r, c, T_max, factor = cm.growth_parameters(
                cf, cm.Tolerances(eig=tol))
        except NormUndefinedError:
            return
        rep = cm.check_criteria(cf, cm.Tolerances(eig=tol))
        assert (r, c, T_max) == (rep.r, rep.c, rep.T_max)
        h = min(T_max, 2.0)
        assert all(factor(T) == rep.bound_factor(T) for T in (0.0, 0.3 * h, h))
