"""Dense real linear-algebra kernel for small matrices (dim <= 16).

Provides rank/null-space computation by column-pivoted QR, deterministic
orthonormal completion, and symmetric definiteness classification.  All
functions are pure; matrices and vectors are plain numpy arrays.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class Tolerances:
    """The tolerances of one analysis, the only way to set one: rank
    decisions (null spaces, transversality, row selection), symmetry of the
    C^a, eigenvalue signs, and ctol, which scales the discrete slack
    ctol * dx of the estimate.  rank, sym and eig scale a matrix norm, but
    the transversality and row-transform determinant tests read rank, like
    wellposed.MARGINAL_BAND, as an absolute bound (ROADMAP item 5)."""
    rank: float = 1e-10
    sym: float = 1e-10
    eig: float = 1e-10
    ctol: float = 10.0

    def __post_init__(self):
        for name in ("rank", "sym", "eig", "ctol"):
            value = getattr(self, name)
            # ctol = 0 asks for an energy check with no slack
            low = value >= 0 if name == "ctol" else value > 0
            if not (math.isfinite(value) and low):
                raise ValueError(
                    f"tolerance {name} must be finite and "
                    f"{'>= 0' if name == 'ctol' else '> 0'}, got {value!r}")


class MatrixShapeError(ValueError):
    """Input matrix has the wrong shape (e.g. not square)."""


class NotOrthonormalError(ValueError):
    """Input vectors fail the orthonormality precondition."""


class NotSymmetricError(ValueError):
    """Matrix is asymmetric beyond tolerance."""


class Definiteness(enum.Enum):
    POSITIVE_DEFINITE = "POSITIVE_DEFINITE"
    POSITIVE_SEMI = "POSITIVE_SEMI"
    NEGATIVE_DEFINITE = "NEGATIVE_DEFINITE"
    NEGATIVE_SEMI = "NEGATIVE_SEMI"
    INDEFINITE = "INDEFINITE"
    ZERO = "ZERO"


@dataclass(frozen=True)
class DefinitenessClass:
    tag: Definiteness
    eigenvalues: tuple  # ascending

    def is_nonpositive(self) -> bool:
        return self.tag in (
            Definiteness.NEGATIVE_DEFINITE,
            Definiteness.NEGATIVE_SEMI,
            Definiteness.ZERO,
        )

    def is_nonnegative(self) -> bool:
        return self.tag in (
            Definiteness.POSITIVE_DEFINITE,
            Definiteness.POSITIVE_SEMI,
            Definiteness.ZERO,
        )


def as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise MatrixShapeError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M


def _fix_sign(v: np.ndarray, tol: float) -> np.ndarray:
    """Flip sign so the first entry above tol is positive (determinism)."""
    for entry in v:
        if abs(entry) > tol:
            return v if entry > 0 else -v
    return v


def _nullspace(M: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis (as rows) of {z : M z = 0} via column-pivoted QR.

    Rank threshold is tol times the largest column norm of M.
    """
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
    return np.array([_fix_sign(v, tol) for v in basis])


def rank_and_nullspaces(M, tols: Tolerances = Tolerances()):
    """Rank plus orthonormal right and left null bases of a square matrix.

    Returns (rank, right_null, left_null) where the null bases are lists of
    1-D arrays, the right basis orthonormal, and
    rank + len(right_null) == dim.
    """
    M = as_square(M)
    right = _nullspace(M, tols.rank)
    left = _nullspace(M.T, tols.rank)
    rank = M.shape[0] - right.shape[0]
    return rank, [v for v in right], [v for v in left]


def orthonormal_complete(vs, dim: int) -> np.ndarray:
    """Complete orthonormal vectors to a dim x dim orthogonal matrix.

    The first len(vs) rows are the inputs; the remaining rows are produced
    deterministically by Gram-Schmidt over the trivial basis in index order,
    skipping near-dependent candidates.
    """
    rows = [np.asarray(v, dtype=float) for v in vs]
    if len(rows) > dim:
        raise MatrixShapeError("more vectors than the target dimension")
    for i, vi in enumerate(rows):
        if vi.shape != (dim,):
            raise MatrixShapeError("vector length does not match dim")
        for j, vj in enumerate(rows[: i + 1]):
            want = 1.0 if i == j else 0.0
            if abs(float(vi @ vj) - want) > 1e-9:
                raise NotOrthonormalError("input vectors are not orthonormal")

    def try_fill(threshold: float):
        out = list(rows)
        for j in range(dim):
            if len(out) == dim:
                break
            cand = np.zeros(dim)
            cand[j] = 1.0
            # two Gram-Schmidt passes for stability near the threshold
            for _ in range(2):
                for row in out:
                    cand = cand - (row @ cand) * row
            nrm = np.linalg.norm(cand)
            if nrm > threshold:
                out.append(cand / nrm)
        return out

    out = try_fill(0.5)
    if len(out) < dim:
        out = try_fill(1e-8)
    if len(out) < dim:  # cannot happen for orthonormal input, guard anyway
        raise NotOrthonormalError("failed to complete an orthonormal basis")
    S = np.array(out)
    return S


def _norm2(M: np.ndarray) -> float:
    """||M||_2, the largest singular value, and 0 for an empty M: the
    LAPACK call of np.linalg.norm(M, 2) without its axis handling."""
    return float(np.linalg.svd(M, compute_uv=False)[0]) if M.size else 0.0


def is_symmetric(M: np.ndarray, tols: Tolerances = Tolerances()) -> bool:
    """||M - M^T||_2 <= tols.sym * ||M||_2 for a square M.  An exactly
    symmetric M passes without an SVD."""
    if np.array_equal(M, M.T):
        return True
    return bool(_norm2(M - M.T) <= tols.sym * max(_norm2(M),
                                                  np.finfo(float).tiny))


def classify_definiteness(M, tols: Tolerances = Tolerances()
                          ) -> DefinitenessClass:
    """Classify a symmetric matrix by the signs of its eigenvalues.

    Eigenvalues within tols.eig*||M|| of zero count as zero; a matrix whose
    eigenvalues are all negligible is tagged ZERO (distinct from the
    semi-definite tags).  Asymmetry beyond tols.sym*||M|| is refused.
    """
    M = as_square(M)
    if not is_symmetric(M, tols):
        raise NotSymmetricError("matrix is asymmetric beyond tolerance")
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    thr = tols.eig * _norm2(M)
    n_pos = int(np.sum(w > thr))
    n_neg = int(np.sum(w < -thr))
    n = len(w)
    if n_pos == 0 and n_neg == 0:
        tag = Definiteness.ZERO
    elif n_neg == 0:
        tag = Definiteness.POSITIVE_DEFINITE if n_pos == n else Definiteness.POSITIVE_SEMI
    elif n_pos == 0:
        tag = Definiteness.NEGATIVE_DEFINITE if n_neg == n else Definiteness.NEGATIVE_SEMI
    else:
        tag = Definiteness.INDEFINITE
    return DefinitenessClass(tag=tag, eigenvalues=tuple(float(x) for x in w))
