import ast
import dataclasses
import inspect
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charmarch as cm
from charmarch import canonical, matkit
from charmarch.canonical import TransversalityError
from charmarch.sysmodel import Chart

import conftest

R2 = 1.0 / math.sqrt(2.0)

S_GOLD = np.array([[R2, -R2, 0, 0], [R2, R2, 0, 0],
                    [0, 0, 1, 0], [0, 0, 0, 1]])
NU_GOLD = np.diag([2.0, 1.0, 1.0])
NX_GOLD = np.diag([-1.0, 0.0, 0.0])
# order (q1, q2, q3, w); golden values independently derived by hand
CY_GOLD = -R2 * np.array([[0.0, 1, 0, 0], [1, 0, 0, 1],
                           [0, 0, 0, 0], [0, 1, 0, 0]])
CZ_GOLD = -R2 * np.array([[0.0, 0, 1, 0], [0, 0, 0, 0],
                           [1, 0, 0, 1], [0, 0, 1, 0]])


class TestNullStructure:
    def test_wave_null_vectors(self, wave_analysis):
        cs = wave_analysis.structure
        assert cs.m == 1
        z = np.array([R2, -R2, 0.0, 0.0])
        np.testing.assert_allclose(cs.right_null[0], z, atol=1e-14)
        np.testing.assert_allclose(cs.left_null[0], z, atol=1e-14)
        np.testing.assert_allclose(cs.S, S_GOLD, atol=1e-14)

    def test_first_columns_of_rotated_bu_vanish(self, wave_analysis):
        cs = wave_analysis.structure
        nrm = np.linalg.norm(cs.Bprime["u"], 2)
        assert np.abs(cs.Bprime["u"][:, :cs.m]).max() <= 1e-12 * nrm

    def test_symmetric_bu_left_equals_right_span(self, wave_analysis):
        cs = wave_analysis.structure
        for zt in cs.left_null:
            proj = sum((zt @ z) * z for z in cs.right_null)
            np.testing.assert_allclose(proj, zt, atol=1e-12)

    def test_already_aligned_two_by_two(self):
        B = cm.SideMatrices(names=("u", "x"),
                            B={"u": np.array([[0.0, 0], [0, 1]]),
                               "x": np.array([[1.0, 0], [0, 0]])})
        cs = cm.null_structure(B, np.zeros((2, 2)))
        assert cs.m == 1
        np.testing.assert_allclose(cs.right_null[0], [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(cs.S, np.eye(2), atol=1e-14)


class TestTransversality:
    def test_wave_normalized_value(self, wave_analysis):
        M = cm.transversality_check(wave_analysis.structure, wave_analysis.B)
        # with unit-normalized null vectors the entry is 1 (the unnormalized
        # convention gives 2)
        np.testing.assert_allclose(M, [[1.0]], atol=1e-12)

    def test_psi_equals_y_rejected(self, wave_system):
        sys_, _ = wave_system
        _, chart = cm.load_system(conftest.psi_equals_y_chart_text())
        B = cm.side_matrices(sys_, chart)
        cs = cm.null_structure(B, sys_.D)
        with pytest.raises(TransversalityError):
            cm.transversality_check(cs, B)


SCALES = [10.0 ** k for k in range(-12, 13)]


def _outcome(system, chart):
    """The class of the error analyze raises, or None when the reduction
    returns; then blockdiag(I_nq, M) row_transform, the row transform
    without its M^-1, must have full rank by matkit's rule."""
    try:
        canon = cm.analyze(system, chart).canon
    except ValueError as exc:
        return type(exc)
    weighted = canon.row_transform.copy()
    weighted[canon.nq:] = canon.M @ weighted[canon.nq:]
    rank = matkit._pivoted_qr(weighted, cm.Tolerances().rank)[2]
    assert rank == canon.n_unknowns
    return None


class TestScaleFree:
    """Scaling every A^a and D by s > 0 changes no characteristic
    structure, so no decision of the reduction may change with s."""

    def test_wave_reduces_at_every_scale(self, wave_system):
        sys_, chart = wave_system
        assert [_outcome(conftest.scaled(sys_, s), chart)
                for s in SCALES] == [None] * len(SCALES)

    def test_transversality_independent_of_scale(self, wave_system):
        sys_, _ = wave_system
        _, chart = cm.load_system(conftest.psi_equals_y_chart_text())
        for s in SCALES:
            B = cm.side_matrices(conftest.scaled(sys_, s), chart)
            cs = cm.null_structure(B, s * sys_.D)
            with pytest.raises(TransversalityError):
                cm.transversality_check(cs, B)
            assert _outcome(conftest.scaled(sys_, s),
                            chart) is TransversalityError

    @given(st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_drawn_systems_same_outcome_at_every_scale(self, m, seed):
        sys_, chart = conftest.drawn_system(np.random.default_rng(seed), m)
        want = _outcome(sys_, chart)
        for s in SCALES:
            assert _outcome(conftest.scaled(sys_, s), chart) is want, s


class TestSplitAndReduce:
    def test_wave_principal_blocks(self, wave_canon):
        np.testing.assert_allclose(wave_canon.Nu, NU_GOLD, atol=1e-12)
        np.testing.assert_allclose(wave_canon.Nx, NX_GOLD, atol=1e-12)

    def test_wave_hypersurface_row(self, wave_canon):
        # d_x w - (1/sqrt2) d_y q2 - (1/sqrt2) d_z q3 = 0, no lower-order term
        np.testing.assert_allclose(wave_canon.Li["y"],
                                   [[0.0, -R2, 0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(wave_canon.Li["z"],
                                   [[0.0, 0.0, -R2, 0.0]], atol=1e-12)
        np.testing.assert_allclose(wave_canon.L0, np.zeros((1, 4)), atol=1e-15)

    def test_variable_order(self, wave_canon):
        assert wave_canon.variable_names == ("q1", "q2", "q3", "w1")

    def test_row_transform_invertible(self, wave_canon):
        assert abs(np.linalg.det(wave_canon.row_transform)) > 1e-10
        assert abs(np.linalg.det(wave_canon.to_hat)) > 1e-10

    def test_decoupled_advection_unchanged(self):
        # d_u q = 0 and d_x w = 0 is already canonical
        B = cm.SideMatrices(names=("u", "x"),
                            B={"u": np.diag([1.0, 0.0]),
                               "x": np.diag([0.0, 1.0])})
        cs = cm.null_structure(B, np.zeros((2, 2)))
        canon = cm.split_and_reduce(cs, B, np.zeros((2, 2)))
        np.testing.assert_allclose(canon.Nu, [[1.0]], atol=1e-14)
        np.testing.assert_allclose(canon.Nx, [[0.0]], atol=1e-14)

    def test_lower_order_blocks_with_identity_d(self, wave_system):
        # independent straight-line recomputation from the known rotation:
        # with L^x = 0 and vanishing null-row coupling, the final rows are
        # (S rows 2..4, ztilde) and the final variables are (q, w) = perm(S v)
        sys_, chart = wave_system
        canon = cm.analyze(dataclasses.replace(sys_, D=np.eye(4)), chart).canon
        ztilde = S_GOLD[0]
        row_op = np.vstack([S_GOLD[1:], ztilde[None, :]])
        perm = np.zeros((4, 4))
        perm[0:3, 1:4] = np.eye(3)
        perm[3, 0] = 1.0
        var_map = perm @ S_GOLD
        expected = row_op @ np.eye(4) @ np.linalg.inv(var_map)
        np.testing.assert_allclose(np.vstack([canon.N0, canon.L0]),
                                   expected, atol=1e-12)


class TestSelectEvolutionRows:
    def test_default_rows_when_invertible(self):
        Bpu = np.array([[0.0, 0.0], [0.0, 3.0]])
        rows, Nu = canonical._select_evolution_rows(Bpu, 1, 1e-10)
        assert rows == [1] and np.array_equal(Nu, [[3.0]])

    def test_fallback_takes_the_pivoted_row(self):
        # B^u = [[0, 1], [0, 0]]: null vector e_1, left null vector e_2,
        # so the default row 2 has a zero u-principal block
        Bpu = np.array([[0.0, 1.0], [0.0, 0.0]])
        rows, Nu = canonical._select_evolution_rows(Bpu, 1, 1e-10)
        assert rows == [0] and np.array_equal(Nu, [[1.0]])

    def test_default_block_tiny_next_to_the_others_falls_back(self):
        # the default block [[1e-14]] is regular on its own scale but not
        # on the scale of the q column, so the well-conditioned row 0 is
        # taken; kept, it made the row transform singular
        Bpu = np.array([[0.0, 1.0], [0.0, 1e-14]])
        rows, Nu = canonical._select_evolution_rows(Bpu, 1, 1e-10)
        assert rows == [0] and np.array_equal(Nu, [[1.0]])

    @given(st.integers(2, 12), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_fallback_matches_pivoted_qr(self, n, m, seed):
        # the q columns of the last n - m rows have rank n - m - 1, so the
        # default choice fails and column-pivoted QR on the transposed block
        # picks the rows
        m = min(m, n - 1)
        nq = n - m
        rng = np.random.default_rng(seed)
        cols = rng.normal(size=(n, nq))
        cols[m:] = (rng.normal(size=(nq, nq - 1))
                    @ rng.normal(size=(nq - 1, nq)))
        Bpu = np.hstack([np.zeros((n, m)), cols])
        _, _, piv = scipy.linalg.qr(cols.T, pivoting=True)
        want = sorted(int(p) for p in piv[:nq])
        rows, Nu = canonical._select_evolution_rows(Bpu, m, 1e-10)
        assert rows == want
        assert np.array_equal(Nu, cols[want])

    def test_rank_deficient_block_refused(self):
        # the q columns have rank 1 < nq = 2: no choice of rows works
        Bpu = np.array([[0.0, 1.0, 1.0], [0.0, 2.0, 2.0], [0.0, 0.0, 0.0]])
        with pytest.raises(canonical.ReductionError):
            canonical._select_evolution_rows(Bpu, 1, 1e-10)

    def test_no_lapack_of_its_own(self):
        # every rank on the reduction path is decided in matkit
        tree = ast.parse(inspect.getsource(canonical))
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names]
        imported += [node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module]
        assert not any("scipy" in name or "lapack" in name
                       for name in imported)


class TestCompactForm:
    def test_wave_golden_matrices(self, wave_compact):
        cf = wave_compact
        np.testing.assert_allclose(cf.C["u"],
                                   np.diag([2.0, 1, 1, 0]), atol=1e-12)
        np.testing.assert_allclose(cf.C["x"],
                                   np.diag([-1.0, 0, 0, 1]), atol=1e-12)
        np.testing.assert_allclose(cf.C["y"], CY_GOLD, atol=1e-12)
        np.testing.assert_allclose(cf.C["z"], CZ_GOLD, atol=1e-12)
        np.testing.assert_allclose(cf.R, np.zeros((4, 4)), atol=1e-15)

    def test_symmetric_transverse_matrices(self, wave_compact):
        for name in wave_compact.transverse_names:
            C = wave_compact.C[name]
            np.testing.assert_allclose(C, C.T, atol=1e-12)

    def test_derived_values_are_not_fields(self, wave_canon, wave_compact):
        assert "R" not in {f.name for f in dataclasses.fields(wave_compact)}
        assert "variable_names" not in {
            f.name for f in dataclasses.fields(wave_canon)}
        np.testing.assert_array_equal(wave_compact.R, 2.0 * wave_compact.Dc)
        nq_only = dataclasses.replace(wave_canon, m=0)
        assert nq_only.variable_names == ("q1", "q2", "q3", "q4")

    def test_r_scaling(self, wave_canon):
        d = np.diag([1.0, 2.0, 3.0, 4.0])
        canon = dataclasses.replace(wave_canon, N0=d[:3], L0=d[3:])
        cf = cm.compact_form(canon)
        np.testing.assert_allclose(cf.R, 2.0 * d, atol=1e-15)

    def test_reduction_is_equivalence(self, wave_system):
        # the compact system must be an invertible row/variable transform of
        # the original one
        sys_, chart = wave_system
        sys_ = dataclasses.replace(sys_, D=np.eye(4))
        a = cm.analyze(sys_, chart)
        canon, cf = a.canon, a.compact
        Vinv = np.linalg.inv(canon.to_hat)
        for name in a.B.names:
            np.testing.assert_allclose(
                cf.C[name], canon.row_transform @ a.B.B[name] @ Vinv,
                atol=1e-12)
        np.testing.assert_allclose(
            cf.Dc, canon.row_transform @ sys_.D @ Vinv, atol=1e-12)

    @given(st.integers(0, 10**6))
    @example(seed=8441)   # cond(to_hat) 4.4e8
    @settings(max_examples=40, deadline=None)
    def test_equivalence_on_random_characteristic_systems(self, seed):
        # random symmetric systems with a singular u side matrix; the
        # identity C^a to_hat = row_transform B^a is checked multiplied
        # out, as inverting an ill-conditioned to_hat would amplify the
        # round-off of the reduction
        rng = np.random.default_rng(seed)
        n = 4
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigs = np.concatenate([[0.0], rng.uniform(0.5, 2.0, size=n - 1)])
        Bu = Q @ np.diag(eigs) @ Q.T
        A = rng.normal(size=(n, n))
        Bx = A + A.T
        By = rng.normal(size=(n, n))
        D = rng.normal(size=(n, n))
        B = cm.SideMatrices(names=("u", "x", "y"),
                            B={"u": Bu, "x": Bx, "y": By})
        cs = cm.null_structure(B, D)
        try:
            canon = cm.split_and_reduce(cs, B, D)
        except (TransversalityError, cm.canonical.ReductionError):
            return
        cf = cm.compact_form(canon)
        scale = max(np.linalg.norm(M, 2) for M in B.B.values())
        for name in B.names:
            np.testing.assert_allclose(
                cf.C[name] @ canon.to_hat, canon.row_transform @ B.B[name],
                atol=1e-9 * scale)
        np.testing.assert_allclose(
            cf.Dc @ canon.to_hat, canon.row_transform @ D, atol=1e-9 * scale)
        # structural zeros of the hypersurface block: the d_x coefficient on
        # the normal variables is exactly the stacked identity pattern
        np.testing.assert_allclose(cf.C["x"][canon.nq:, :canon.nq],
                                   np.zeros((canon.m, canon.nq)), atol=1e-15)
        np.testing.assert_allclose(cf.C["x"][canon.nq:, canon.nq:],
                                   np.eye(canon.m), atol=1e-15)
