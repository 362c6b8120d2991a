import math
import os
import pathlib
import subprocess
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from charmarch import matkit, sysmodel
from charmarch.matkit import (Definiteness, MatrixShapeError,
                              NotOrthonormalError, NotSymmetricError,
                              Tolerances, classify_definiteness,
                              orthonormal_complete, rank_and_nullspaces)

WAVE_BU = np.array([[1.0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def elimination_rank(M):
    """Independent rank oracle: exact Gaussian elimination over Q."""
    rows = [[Fraction(x).limit_denominator(10**9) for x in row] for row in M]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    piv_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(piv_row, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[piv_row], rows[pivot] = rows[pivot], rows[piv_row]
        prow = rows[piv_row]
        for r in range(piv_row + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / prow[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        piv_row += 1
        rank += 1
    return rank


class TestRankAndNullspaces:
    def test_wave_bu(self):
        rank, right, left = rank_and_nullspaces(WAVE_BU)
        assert rank == 3
        assert len(right) == len(left) == 1
        expected = np.array([1.0, -1.0, 0.0, 0.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(right[0], expected, atol=1e-14)
        np.testing.assert_allclose(left[0], expected, atol=1e-14)

    def test_identity(self):
        rank, right, left = rank_and_nullspaces(np.eye(4))
        assert rank == 4 and right == [] and left == []

    def test_zero(self):
        rank, right, _ = rank_and_nullspaces(np.zeros((2, 2)))
        assert rank == 0
        basis = np.array(right)
        np.testing.assert_allclose(basis @ basis.T, np.eye(2), atol=1e-14)

    def test_non_square_rejected(self):
        with pytest.raises(MatrixShapeError):
            rank_and_nullspaces(np.zeros((2, 3)))

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            rank_and_nullspaces(np.eye(2), matkit.Tolerances(rank=0.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, value):
        M = np.eye(2)
        M[0, 1] = value
        with pytest.raises(ValueError, match="^matrix has non-finite"):
            matkit.as_square(M)

    @given(st.integers(0, 4), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_rank_matches_elimination_oracle(self, target_rank, seed):
        rng = np.random.default_rng(seed)
        U = rng.integers(-3, 4, size=(4, target_rank))
        V = rng.integers(-3, 4, size=(target_rank, 4))
        M = (U @ V).astype(float)
        oracle = elimination_rank(M)
        rank, right, left = rank_and_nullspaces(M)
        assert rank == oracle
        assert rank + len(right) == 4
        nrm = max(np.abs(M).max(), 1.0)
        for z in right:
            assert np.abs(M @ z).max() <= 1e-9 * nrm
        for zt in left:
            assert np.abs(zt @ M).max() <= 1e-9 * nrm
        if right:
            basis = np.array(right)
            np.testing.assert_allclose(basis @ basis.T,
                                       np.eye(len(right)), atol=1e-12)


    def test_near_singular_rows_give_one_null_vector_each_side(self):
        # factored apart, M and M^T gave 1 right and 0 left null vectors:
        # R_22 of M is 1.06e-10 < 1e-10 * sqrt(2), that of M^T 1.5e-10 > 1e-10
        M = np.array([[1.0, 0.0], [1.0, 1.5e-10]])
        rank, right, left = rank_and_nullspaces(M)
        assert rank == 1 and len(right) == len(left) == 1
        assert abs(np.linalg.norm(left[0]) - 1.0) < 1e-15
        assert np.abs(left[0] @ M).max() <= 1e-10 * np.linalg.norm(M)

    @given(st.integers(1, 16), st.integers(0, 16), st.integers(0, 10**6),
           st.booleans(), st.sampled_from([0.0, 1e-11, 1e-10, 1e-9]))
    @settings(max_examples=150, deadline=None)
    def test_right_and_left_nullity_agree(self, n, rank, seed, ints, eps):
        # rank-deficient draws, perturbed to about the rank threshold
        M = draw(n, min(rank, n), seed, ints)
        M = M + eps * max(np.abs(M).max(), 1.0) \
            * np.random.default_rng(seed + 1).normal(size=(n, n))
        for tol in (1e-10, 1e-3):
            k, right, left = rank_and_nullspaces(M, Tolerances(rank=tol))
            assert len(right) == len(left) == n - k
            if left:
                L = np.array(left)
                np.testing.assert_allclose(L @ L.T, np.eye(len(left)),
                                           atol=1e-13)

    def test_one_pivoted_qr_per_matrix(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 6))
        with mock.patch.object(matkit.lapack, "dgeqp3",
                               wraps=matkit.lapack.dgeqp3) as dgeqp3:
            rank, right, left = rank_and_nullspaces(M)
        assert dgeqp3.call_count == 1
        assert rank == 3 and len(right) == len(left) == 3


def _fresh(code: str) -> str:
    """Stdout of code run in a fresh interpreter that imports this
    charmarch, stripped."""
    env = dict(os.environ, PYTHONPATH=str(
        pathlib.Path(matkit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestCompiledModules:
    def test_import_leaves_scipy_linalg_out(self):
        assert _fresh("import sys, charmarch\n"
                      "print('scipy.linalg' in sys.modules)") == "False"

    @pytest.mark.parametrize("first", ["charmarch", "scipy.linalg"])
    def test_routines_are_scipys_own(self, first):
        # shared objects, not a second copy of the modules, whichever of
        # the two is imported first
        out = _fresh(
            f"import {first}\n"
            "import sys, scipy.linalg\n"
            "from charmarch import matkit\n"
            "print(all(getattr(matkit.lapack, n)"
            " is getattr(scipy.linalg.lapack, n) for n in"
            " ('dgeqp3', 'dtrtrs', 'dgeqrf', 'dorgqr', 'dsyevd')),"
            " all(getattr(matkit.blas, n) is getattr(scipy.linalg.blas, n)"
            " for n in ('idamax', 'dnrm2')),"
            " sys.modules.get('scipy.linalg._flapack') is matkit.lapack)")
        routines, kept = out.rsplit(" ", 1)
        assert routines == "True True"
        if first == "scipy.linalg":
            # a module scipy has imported already is reused, and stays
            # in sys.modules
            assert kept == "True"

    @pytest.mark.parametrize("name, routine",
                             [("_flapack", "dgeqp3"), ("_fblas", "dnrm2")])
    def test_submodule_import_binds_to_its_package(self, name, routine):
        # the plain import statement, after charmarch, must make the module
        # an attribute of scipy.linalg, holding the routines matkit calls
        out = _fresh(
            "import charmarch\n"
            f"import scipy.linalg.{name}\n"
            "from charmarch import matkit\n"
            f"print(scipy.linalg.{name}.{routine} is "
            f"getattr(matkit.{name[2:]}, {routine!r}))")
        assert out == "True"

    def test_bad_status_names_the_routine(self):
        # an upper triangle with a zero on its diagonal: row 2 is singular
        T = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^dtrtrs failed with info=2$"):
            matkit._lapack("dtrtrs", T, np.ones(2))

    def test_missing_module_names_the_path(self):
        with pytest.raises(ImportError, match=r"searched \S+linalg.\w*_nosuch"):
            matkit._load_compiled("_nosuch")
        assert "scipy.linalg._nosuch" not in sys.modules

    @pytest.mark.parametrize("category", [DeprecationWarning, FutureWarning])
    def test_deprecation_on_the_lapack_path_fails(self, category,
                                                  monkeypatch):
        # pyproject.toml makes these warnings errors when they are
        # attributed to a charmarch frame: a numpy or scipy that deprecates
        # a call matkit makes fails the tests, not a later release
        class Deprecating:
            def __getattr__(self, name):
                return getattr(lapack, name)

            def dsyevd(self, *args, **kwargs):
                warnings.warn("dsyevd is deprecated", category, stacklevel=2)
                return lapack.dsyevd(*args, **kwargs)

        monkeypatch.setattr(matkit, "lapack", Deprecating())
        with pytest.raises(category, match="dsyevd is deprecated"):
            classify_definiteness(np.eye(2))


class TestTolerances:
    @pytest.mark.parametrize("field, value", [
        ("rank", math.nan), ("sym", 0.0), ("eig", -1.0), ("eig", math.inf),
        ("ctol", -1.0), ("ctol", math.nan),
    ])
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"tolerance {field} must be"):
            matkit.Tolerances(**{field: value})

    def test_zero_ctol_accepted(self):
        assert matkit.Tolerances(ctol=0.0).ctol == 0.0


class TestOrthonormalComplete:
    def test_wave_rotation(self):
        z = np.array([1.0, -1.0, 0.0, 0.0]) / math.sqrt(2.0)
        S = orthonormal_complete([z], 4)
        s = 1.0 / math.sqrt(2.0)
        expected = np.array([[s, -s, 0, 0], [s, s, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 1]])
        np.testing.assert_allclose(S, expected, atol=1e-14)

    def test_empty_input_gives_identity(self):
        np.testing.assert_allclose(orthonormal_complete([], 3), np.eye(3))

    def test_basis_prefix(self):
        S = orthonormal_complete([np.array([1.0, 0.0])], 2)
        np.testing.assert_allclose(S, np.eye(2))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormalError):
            orthonormal_complete([np.array([1.0, 1.0])], 2)

    @pytest.mark.parametrize("vs, dim, cause", [
        (np.eye(3), 2, "more vectors than the target dimension"),
        ([np.array([1.0, 0.0, 0.0])], 2, "vector length does not match dim"),
    ])
    def test_rejects_wrong_shapes(self, vs, dim, cause):
        with pytest.raises(MatrixShapeError, match=f"^{cause}$"):
            orthonormal_complete(vs, dim)

    @given(st.integers(0, 10**6), st.integers(2, 6), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_orthogonality_property(self, seed, dim, nvec):
        nvec = min(nvec, dim)
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        vs = [Q[:, j] for j in range(nvec)]
        S = orthonormal_complete(vs, dim)
        np.testing.assert_allclose(S @ S.T, np.eye(dim), atol=1e-12)
        np.testing.assert_allclose(S.T @ S, np.eye(dim), atol=1e-12)
        for j, v in enumerate(vs):
            np.testing.assert_allclose(S[j], v, atol=1e-14)


class TestClassifyDefiniteness:
    @pytest.mark.parametrize("diag,tag", [
        ((2, 1, 1), Definiteness.POSITIVE_DEFINITE),
        ((-1, 0, 0), Definiteness.NEGATIVE_SEMI),
        ((1, -1), Definiteness.INDEFINITE),
        ((1, 0), Definiteness.POSITIVE_SEMI),
        ((-2, -1), Definiteness.NEGATIVE_DEFINITE),
        ((0, 0), Definiteness.ZERO),
    ])
    def test_diagonal_cases(self, diag, tag):
        assert classify_definiteness(np.diag(np.array(diag, float))).tag is tag

    def test_eigenvalues_ascending(self):
        cls = classify_definiteness(np.diag([3.0, -1.0, 2.0]))
        assert list(cls.eigenvalues) == sorted(cls.eigenvalues)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            classify_definiteness(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_huge_eig_tolerance_counts_every_eigenvalue_as_zero(self):
        # tols.eig * rho overflows to an inf threshold, without numpy's
        # overflow warning (an error under the test policy)
        cls = classify_definiteness(np.diag([2.0, -3.0]),
                                    Tolerances(eig=1e308))
        assert cls.tag is Definiteness.ZERO

    @given(st.integers(0, 10**6), st.permutations(list(range(4))))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_symmetric_permutation(self, seed, perm):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(4, 4))
        M = A + A.T
        P = np.eye(4)[list(perm)]
        a = classify_definiteness(M)
        b = classify_definiteness(P @ M @ P.T)
        assert a.tag is b.tag
        np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-10)


def old_is_symmetric(M, tols):
    """The symmetry test as wellposed.check_criteria wrote it before
    matkit.is_symmetric."""
    scale = max(float(np.linalg.norm(M, 2)), np.finfo(float).tiny)
    return bool(np.linalg.norm(M - M.T, 2) <= tols.sym * scale)


SYM_TOLS = st.sampled_from([1e-14, 1e-10, 1e-6, 1e-2]).map(
    lambda sym: matkit.Tolerances(sym=sym))


class TestFastPathsBitExact:
    """is_symmetric, the bare LAPACK calls and the vectorised sign fix give
    bit for bit what the calls they replace gave."""

    @given(st.integers(1, 16), st.integers(0, 10**6), SYM_TOLS,
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_is_symmetric_on_random_and_symmetric(self, n, seed, tols, sym):
        M = np.random.default_rng(seed).normal(size=(n, n))
        if sym:
            M = M + M.T
        assert matkit.is_symmetric(M, tols) is old_is_symmetric(M, tols)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_is_symmetric_on_zero(self, n):
        M = np.zeros((n, n))
        assert matkit.is_symmetric(M) is old_is_symmetric(M, Tolerances())
        assert matkit.is_symmetric(M)

    @given(st.integers(2, 16), st.integers(0, 10**6), SYM_TOLS,
           st.floats(0.9, 1.1))
    @settings(max_examples=200, deadline=None)
    def test_is_symmetric_near_threshold(self, n, seed, tols, factor):
        # M + eps*A with ||(eps*A) - (eps*A)^T||_2 = factor * sym * ||M||_2
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(n, n))
        M = B + B.T
        K = rng.normal(size=(n, n))
        K = K - K.T
        A = K / (2.0 * np.linalg.norm(K, 2))
        P = M + factor * tols.sym * np.linalg.norm(M, 2) * A
        assert matkit.is_symmetric(P, tols) is old_is_symmetric(P, tols)

    def test_threshold_reached_from_both_sides(self):
        rng = np.random.default_rng(3)
        B = rng.normal(size=(5, 5))
        M = B + B.T
        A = np.triu(np.ones((5, 5)), 1)
        A = (A - A.T) / np.linalg.norm(2.0 * (A - A.T), 2)
        tols = Tolerances(sym=1e-6)
        eps = tols.sym * np.linalg.norm(M, 2)
        assert matkit.is_symmetric(M + 0.9 * eps * A, tols)
        assert not matkit.is_symmetric(M + 1.1 * eps * A, tols)

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 16),
           st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_dgeqp3_is_the_pivoted_qr(self, rows, cols, rank, seed):
        # square for _nullspace, wide for the row selection of canonical
        rng = np.random.default_rng(seed)
        rank = min(rank, rows, cols)
        M = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        r, p = scipy.linalg.qr(M, mode="r", pivoting=True)
        qr, jpvt, _, _, info = lapack.dgeqp3(M)
        assert info == 0
        assert np.array_equal(np.triu(qr), r)
        assert np.array_equal(jpvt - 1, p)

    @given(st.integers(1, 16), st.integers(0, 16), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_dgesdd_is_svdvals(self, n, rank, seed):
        rng = np.random.default_rng(seed)
        rank = min(rank, n)
        M = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n))
        _, sv, _, info = lapack.dgesdd(M, compute_uv=0)
        assert info == 0
        assert np.array_equal(sv, scipy.linalg.svdvals(M))

    @given(st.integers(1, 16), st.integers(0, 16), st.integers(0, 10**6),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_nullspace_matches_wrapper_version(self, n, rank, seed, ints):
        rng = np.random.default_rng(seed)
        rank = min(rank, n)
        if ints:   # exact zeros and ties in the basis
            M = (rng.integers(-2, 3, size=(n, rank))
                 @ rng.integers(-2, 3, size=(rank, n))).astype(float)
        else:
            M = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n))
        got = matkit._null_bases(M, 1e-10)[1]
        assert np.array_equal(got, wrapper_nullspace(M, 1e-10))
        assert rank_and_nullspaces(M)[0] == n - len(got)

    @given(st.integers(1, 16), st.integers(0, 16), st.integers(0, 10**6),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_left_basis_is_scipys_pivoted_q(self, n, rank, seed, ints):
        # the trailing n - rank columns of Q in M P = Q R, sign-fixed
        M = draw(n, min(rank, n), seed, ints)
        k, _, left = matkit._null_bases(M, 1e-10)
        if 0 < k < n:
            Q = scipy.linalg.qr(M, pivoting=True)[0]
            want = np.array([fix_sign_row(v, 1e-10) for v in Q[:, k:].T])
            assert np.array_equal(left, want)

    @given(st.integers(1, 16), st.integers(0, 16), st.integers(0, 10**6),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_transposed_dtrtrs_is_solve_triangular(self, n, rank, seed, ints):
        # R11 X = -R12 of _nullspace at the numerical rank; a full-rank M
        # is cut at n - 1, so its leading block is solved too
        M = draw(n, rank, seed, ints)
        k = matkit._pivoted_qr(M, 1e-10)[2]
        if k == n:
            k = n - 1
        if k == 0:   # a zero M, or n = 1
            return
        qr = lapack.dgeqp3(M)[0]
        r = np.triu(qr)
        want = scipy.linalg.solve_triangular(r[:k, :k], -r[:k, k:])
        got, info = lapack.dtrtrs(qr[:k, :k].T, -qr[:k, k:], lower=1,
                                  trans=1)
        assert info == 0
        assert np.array_equal(got, want)

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 10**6),
           st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_dgeqrf_dorgqr_is_numpy_qr(self, rows, cols, seed, ints, basis):
        # random tall matrices, and the [X; I] bases that _nullspace
        # orthonormalises, rows permuted
        rng = np.random.default_rng(seed)
        cols = min(cols, rows)
        shape = (rows - cols, cols) if basis else (rows, cols)
        A = (rng.integers(-2, 3, size=shape).astype(float) if ints
             else rng.normal(size=shape))
        if basis:
            A = np.vstack([A, np.eye(cols)])[rng.permutation(rows)]
        qf, tau, _, info = lapack.dgeqrf(A)
        assert info == 0
        Q, _, info = lapack.dorgqr(qf, tau)
        assert info == 0
        assert np.array_equal(Q, np.linalg.qr(A)[0])

    @given(st.integers(0, 16), st.integers(0, 16), st.integers(0, 10**6),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_dsyevd_is_eigvalsh(self, n, rank, seed, ints):
        M = draw(n, min(rank, n), seed, ints)
        S = 0.5 * (M + M.T)
        got = matkit._eigvalsh(S)
        assert got.shape == (n,)
        assert np.array_equal(got, np.linalg.eigvalsh(S))

    @given(st.integers(1, 16), st.integers(0, 16), st.integers(0, 10**6),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_rank_helper_is_rank_and_nullspaces(self, n, rank, seed, ints):
        M = draw(n, min(rank, n), seed, ints)
        for tol in (1e-10, 1e-3):
            assert matkit._pivoted_qr(M, tol)[2] == \
                rank_and_nullspaces(M, Tolerances(rank=tol))[0]
        # Chart reads the rank alone, at the default tolerance
        if rank_and_nullspaces(M)[0] < n:
            with pytest.raises(sysmodel.SingularChartError):
                sysmodel.Chart(J=M, offsets=np.zeros(n))
        else:
            sysmodel.Chart(J=M, offsets=np.zeros(n))

    @given(st.integers(1, 16), st.integers(0, 16), st.integers(0, 10**6),
           st.booleans(), st.sampled_from([-900, 0, 500, 1000]))
    @settings(max_examples=150, deadline=None)
    def test_rank_scale_is_exact_and_cannot_overflow(self, n, rank, seed,
                                                     ints, e):
        # in range, the scaled norms give the rank of the unscaled
        # threshold; M * 2**e has the rank of M, also where the squares of
        # its entries overflow (e = 500, 1000) or underflow (e = -900)
        M = draw(n, min(rank, n), seed, ints)
        qr = lapack.dgeqp3(M)[0]
        for tol in (1e-10, 1e-3):
            scale = np.linalg.norm(M, axis=0).max()
            old = int(np.sum(np.abs(np.diag(qr)) > tol * scale)) \
                if scale else 0
            assert matkit._pivoted_qr(M, tol)[2] == old
            with np.errstate(all="raise"):
                assert matkit._pivoted_qr(M * 2.0 ** e, tol)[2] == old

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 10**6),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_nullspace_rows_keep_the_qr_layout(self, n, rank, seed, ints):
        # the layout hazard: a basis orthonormalised through dorgqr must be
        # the transpose of a C-ordered Q (np.linalg.qr's layout), so that a
        # null row is a strided view.  Q.T of dorgqr's F-ordered Q gives
        # C-contiguous rows with the same values, but the BLAS dot products
        # of canonical.transversality_check then sum in another order: r
        # moved in 71 of the 1500 systems of the seed-1 check-batch corpus,
        # and 873 of its analyze outputs changed
        M = draw(n, min(rank, n - 1), seed, ints)
        basis = matkit._null_bases(M, 1e-10)[1]
        if 0 < n - len(basis) < n:
            assert basis.flags.f_contiguous
            k = len(basis)
            assert all(v.strides == (8 * k,) for v in basis)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=12, max_size=12),
           st.sampled_from(["%.17g", "%r", "%.6g"]))
    @settings(max_examples=200, deadline=None)
    def test_parsed_values_are_float(self, values, fmt):
        lines = [(10 + k, " ".join(fmt % x for x in values[3 * k:3 * k + 3]))
                 for k in range(4)]
        M, _ = sysmodel._read_matrix(lines, 0, 4, 3, "matrix D")
        want = np.array([[float(t) for t in text.split()]
                         for _, text in lines])
        assert np.array_equal(M.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("token", [
        "1_000.25", "\u0661\u0662", "+.5", "-0", "1e-320", "4.9e-324",
        "2.2250738585072014e-308", "1.7976931348623157e308", "0.1", "1E5"])
    def test_parsed_tokens_are_float(self, token):
        M, _ = sysmodel._read_matrix([(1, f"{token} 1")], 0, 1, 2, "chart")
        assert M[0, 0].view(np.uint64) == np.float64(float(token)).view(
            np.uint64)

    @given(st.integers(0, 3), st.integers(0, 2),
           st.sampled_from(["0x10", "1d3", "1,5", "one", "--1", "1e", "_1"]))
    @settings(max_examples=50, deadline=None)
    def test_invalid_token_reports_its_line(self, row, col, token):
        rows = [["1", "2", "3"] for _ in range(4)]
        rows[row][col] = token
        lines = [(10 + 2 * k, " ".join(r)) for k, r in enumerate(rows)]
        with pytest.raises(sysmodel.ParseError,
                           match="matrix D: invalid number") as exc:
            sysmodel._read_matrix(lines, 0, 4, 3, "matrix D")
        assert exc.value.line == 10 + 2 * row

    @given(st.integers(0, 6), st.integers(1, 6), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_sign_fix_is_row_by_row(self, rows, cols, seed):
        # entries from {0, -0, +-tol/2, +-tol, +-2 tol, +-1}: rows with no
        # entry above tol, and leads just at and above it
        tol = 1e-10
        rng = np.random.default_rng(seed)
        values = np.array([0.0, -0.0, tol / 2, tol, 2 * tol, 1.0])
        basis = (values[rng.integers(0, 6, size=(rows, cols))]
                 * rng.choice([-1.0, 1.0], size=(rows, cols)))
        got = matkit._fix_signs(basis, tol)
        want = np.array([fix_sign_row(v, tol) for v in basis]).reshape(
            rows, cols)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def draw(n, rank, seed, ints):
    """An n x n matrix of the given rank: a product of normal factors, or
    of small integer ones (exact zeros and ties)."""
    rng = np.random.default_rng(seed)
    if ints:
        return (rng.integers(-2, 3, size=(n, rank))
                @ rng.integers(-2, 3, size=(rank, n))).astype(float)
    return rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n))


def wrapper_nullspace(M, tol):
    """matkit._nullspace as it was written on scipy.linalg.qr, with the
    per-row sign fix."""
    n = M.shape[1]
    colnorms = np.linalg.norm(M, axis=0)
    scale = float(colnorms.max()) if n else 0.0
    if scale == 0.0:
        return np.eye(n)
    r, p = scipy.linalg.qr(M, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > tol * scale))
    if rank == n:
        return np.zeros((0, n))
    if rank == 0:
        basis = np.eye(n)
    else:
        X = scipy.linalg.solve_triangular(r[:rank, :rank], -r[:rank, rank:])
        B = np.vstack([X, np.eye(n - rank)])
        basis = np.zeros((n, n - rank))
        basis[p, :] = B
        basis, _ = np.linalg.qr(basis)
        basis = basis.T
    return np.array([fix_sign_row(v, tol) for v in basis])


def fix_sign_row(v, tol):
    """Flip sign so the first entry above tol is positive."""
    for entry in v:
        if abs(entry) > tol:
            return v if entry > 0 else -v
    return v


def mgs2_fill(rows, dim, threshold):
    """The completion as it was written: modified Gram-Schmidt, two passes
    row by row.  Returns the completed rows and the accepted indices."""
    out, accepted = list(rows), []
    for j in range(dim):
        if len(out) == dim:
            break
        cand = np.zeros(dim)
        cand[j] = 1.0
        for _ in range(2):
            for row in out:
                cand = cand - (row @ cand) * row
        nrm = np.linalg.norm(cand)
        if nrm > threshold:
            out.append(cand / nrm)
            accepted.append(j)
    return out, accepted


def sparse_orthonormal(rng, dim, nvec):
    """Orthonormal rows with exact zeros: +-(e_i +- e_j)/sqrt(2) on
    disjoint pairs, or +-e_i."""
    idx = rng.permutation(dim)
    rows, k = [], 0
    while len(rows) < nvec:
        v = np.zeros(dim)
        room = dim - k - (nvec - len(rows) - 1)   # for one e_i per rest
        if room >= 2 and rng.random() < 0.7:
            v[idx[k]] = rng.choice([-1.0, 1.0]) / math.sqrt(2.0)
            v[idx[k + 1]] = rng.choice([-1.0, 1.0]) / math.sqrt(2.0)
            k += 2
        else:
            v[idx[k]] = rng.choice([-1.0, 1.0])
            k += 1
        rows.append(v)
    return rows


class TestCompletionAgainstMGS2:
    """The CGS2 completion picks the candidates that the MGS2 one picked and
    agrees with it at round-off."""

    def check(self, vs, dim):
        k0 = len(vs)
        for threshold in (0.5, 1e-8):
            Q = np.zeros((dim, dim))
            Q[:k0] = np.reshape(vs, (k0, dim))
            accepted = matkit._fill(Q, k0, threshold)
            assert accepted == mgs2_fill(vs, dim, threshold)[1]
        S = orthonormal_complete(vs, dim)
        out, _ = mgs2_fill(vs, dim, 0.5)
        if len(out) < dim:
            out, _ = mgs2_fill(vs, dim, 1e-8)
        want = np.array(out).reshape(dim, dim)
        np.testing.assert_allclose(S, want, rtol=0, atol=1e-14)
        np.testing.assert_allclose(S @ S.T, np.eye(dim), rtol=0, atol=1e-14)
        plus_zero = (want == 0.0) & ~np.signbit(want)
        assert not np.signbit(S[plus_zero]).any()

    @given(st.integers(0, 10**6), st.integers(1, 16), st.integers(0, 4),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_mgs2(self, seed, dim, nvec, sparse):
        nvec = min(nvec, dim)
        rng = np.random.default_rng(seed)
        if sparse:
            vs = sparse_orthonormal(rng, dim, nvec)
        else:
            Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            vs = [Q[:, j] for j in range(nvec)]
        self.check(vs, dim)

    def test_tie_at_the_threshold(self):
        # the residual of e_0 against z is exactly 0.5: not above it, so
        # e_0 is skipped and e_1 taken
        z = np.array([math.sqrt(3.0) / 2.0, 0.5])
        assert mgs2_fill([z], 2, 0.5)[1] == [1]
        self.check([z], 2)

    def test_small_residual_in_the_second_pass(self):
        # the inputs span the complement of v, whose entries are all below
        # 0.5: no candidate passes 0.5, and at 1e-8 e_0 is taken with the
        # residual |v_0| = 1e-6, where one Gram-Schmidt pass loses
        # orthogonality
        v = np.array([1e-6, 0.5, 0.5, 0.5, 0.5])
        v /= np.linalg.norm(v)
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(np.column_stack([v, rng.normal(size=(5, 4))]))
        vs = [Q[:, j] for j in range(1, 5)]
        assert mgs2_fill(vs, 5, 0.5)[1] == []
        assert mgs2_fill(vs, 5, 1e-8)[1] == [0]
        self.check(vs, 5)

    def test_wave_rotation_zeros(self):
        z = np.array([1.0, -1.0, 0.0, 0.0]) / math.sqrt(2.0)
        self.check([z], 4)


def old_classify_tag(M, tols):
    """classify_definiteness's tag with the threshold tols.eig * ||M||_2."""
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    thr = tols.eig * np.linalg.norm(M, 2)
    n_pos, n_neg = int(np.sum(w > thr)), int(np.sum(w < -thr))
    if n_pos == 0 and n_neg == 0:
        return Definiteness.ZERO
    if n_neg == 0:
        return (Definiteness.POSITIVE_DEFINITE if n_pos == len(w)
                else Definiteness.POSITIVE_SEMI)
    if n_pos == 0:
        return (Definiteness.NEGATIVE_DEFINITE if n_neg == len(w)
                else Definiteness.NEGATIVE_SEMI)
    return Definiteness.INDEFINITE


class TestScreens:
    """The symmetry screen and the spectral threshold decide as the SVD
    definitions did."""

    @given(st.integers(1, 16), st.integers(0, 10**6),
           st.sampled_from([1e-10, 1e-6, 1e-3, 1e-1]),
           st.lists(st.sampled_from([-1.0, 1.0, 0.0]), min_size=1,
                    max_size=16),
           st.sampled_from([1 - 1e-6, 1 + 1e-6]))
    @settings(max_examples=200, deadline=None)
    def test_spectral_threshold_tag(self, n, seed, eig, signs, factor):
        # one eigenvalue of modulus L sets the threshold; the others sit
        # at +-eig * L * factor, just inside or outside it, or at 0
        rng = np.random.default_rng(seed)
        L = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        w = [L] + [s * eig * abs(L) * factor for s in (signs * n)[:n - 1]]
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        M = (Q * w) @ Q.T
        M = 0.5 * (M + M.T)
        tols = Tolerances(eig=eig)
        assert classify_definiteness(M, tols).tag is old_classify_tag(M, tols)

    @pytest.mark.parametrize("diag", [(), (0.0,), (1.0, -1e-11), (-3.0, 2.0)])
    def test_spectral_threshold_small_cases(self, diag):
        M = np.diag(np.array(diag, dtype=float))
        assert classify_definiteness(M).tag is old_classify_tag(M, Tolerances())

    @given(st.integers(2, 16), st.integers(0, 10**6), SYM_TOLS,
           st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-0.25, 1.25)),
           st.floats(1 - 1e-6, 1 + 1e-6),
           st.sampled_from([1.0, 1e-150, 1e150]),
           st.sampled_from(["random", "orthogonal", "rank1"]),
           st.sampled_from(["random", "rank2", "flat"]))
    @settings(max_examples=400, deadline=None)
    def test_screen_across_the_band(self, n, seed, tols, where, factor,
                                    scale, kind_m, kind_k):
        # ||K||_F = sym * ||M||_F * n^(where - 1/2): where = 0 is the edge
        # of "surely symmetric", where = 1 the edge of "surely not".  The
        # bounds on M are tight for an orthogonal M (||M||_2 =
        # ||M||_F / sqrt(n)) and a rank-1 M (||M||_2 = ||M||_F); those on
        # K for a rank-2 K (||K||_2 = ||K||_F / sqrt(2), the most a skew K
        # reaches) and a flat one, all singular values equal (n even)
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        if kind_m == "orthogonal":
            M = (Q * rng.choice([-1.0, 1.0], size=n)) @ Q.T
        elif kind_m == "rank1":
            M = np.outer(Q[0], Q[0])
        else:
            M = rng.normal(size=(n, n))
        M = 0.5 * (M + M.T)
        if kind_k == "rank2":
            A = np.outer(*rng.normal(size=(2, n)))
        elif kind_k == "flat":
            J = np.zeros((n, n))
            J[np.arange(1, n, 2), np.arange(0, n - 1, 2)] = 1.0
            A = Q @ J @ Q.T
        else:
            A = rng.normal(size=(n, n))
        A = A - A.T
        target = tols.sym * np.linalg.norm(M) * n ** (where - 0.5) * factor
        P = (M + target / np.linalg.norm(A - A.T) * A) * scale
        assert matkit.is_symmetric(P, tols) is old_is_symmetric(P, tols)

    def test_screen_skips_the_svds(self):
        # round-off asymmetry and plain asymmetry are settled by the
        # Frobenius bounds alone
        rng = np.random.default_rng(5)
        B = rng.normal(size=(6, 6))
        M = B + B.T
        M[0, 1] += 1e-15
        with mock.patch.object(np.linalg, "norm") as norm:
            assert matkit.is_symmetric(M)
            assert not matkit.is_symmetric(B)
        norm.assert_not_called()
