import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmarch import matkit
from charmarch.matkit import (Definiteness, MatrixShapeError,
                              NotOrthonormalError, NotSymmetricError,
                              classify_definiteness, orthonormal_complete,
                              rank_and_nullspaces)

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
            rank_and_nullspaces(np.eye(2), tol=0.0)

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
