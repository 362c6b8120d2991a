"""Dense real linear-algebra kernel for small matrices (dim <= 16).

Provides rank/null-space computation by column-pivoted QR, deterministic
orthonormal completion by classical Gram-Schmidt with one
reorthogonalisation, a symmetry test that Frobenius bounds settle outside a
narrow band, and symmetric definiteness classification with a threshold
read from the spectrum.  All functions are pure; matrices and vectors are
plain numpy arrays.

LAPACK is called bare where that is bit-identical to the wrapper it
replaces: dgeqp3 (scipy.linalg.qr with pivoting, Q by dorgqr), dtrtrs
with the transposed lower solve (scipy.linalg.solve_triangular on a
triangle that is not F-contiguous), dgeqrf + dorgqr (np.linalg.qr) and
dsyevd with lower=1 (np.linalg.eigvalsh).  dorgqr returns Q in F order; a
right null basis is the transpose of Q converted to C order, as
np.linalg.qr's Q is, so its rows are strided views: the BLAS dot products
that later read them sum in another order on unit-stride rows.

The routines come from scipy's two compiled modules, scipy.linalg._flapack
and _fblas, loaded from their files (`_load_compiled`): the very objects
that scipy.linalg.lapack and .blas re-export, without the scipy.linalg
package init.  That init cost every process that imports charmarch about
0.3 s and 24 MB of RSS (2-vCPU KVM guest, Python 3.11, scipy 1.17:
`import charmarch` 0.39-0.59 s -> 0.14-0.20 s, RSS after it 57.7 ->
33.2 MB).
"""
from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np


def _load_compiled(name: str):
    """scipy.linalg.<name>, one of the two compiled modules whose routines
    scipy.linalg.lapack and .blas re-export, imported from its file
    without running scipy.linalg's package init; the module itself when
    it is imported already.  It is not left in sys.modules, so that a later
    import binds it to scipy.linalg, with the same routine objects."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy = importlib.util.find_spec("scipy")   # finds; does not import
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    base = os.path.join(scipy.submodule_search_locations[0], "linalg", name)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            spec = importlib.util.spec_from_file_location(full, base + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(full, None)
            return module
    raise ImportError(f"no compiled {full}: searched {base} with the "
                      f"suffixes {importlib.machinery.EXTENSION_SUFFIXES}",
                      name=full, path=base)


lapack = _load_compiled("_flapack")
blas = _load_compiled("_fblas")


def _lapack(name: str, *args, **kw) -> list:
    """lapack.<name>(*args, **kw) less its status, which must be 0."""
    *out, info = getattr(lapack, name)(*args, **kw)
    if info:
        raise np.linalg.LinAlgError(f"{name} failed with info={info}")
    return out


@dataclass(frozen=True)
class Tolerances:
    """The tolerances of one analysis, the only way to set one: rank
    decisions (null spaces, transversality, row selection), symmetry of the
    C^a, eigenvalue signs, and ctol, which scales the discrete slack
    ctol * dx of the estimate.  rank, sym and eig scale a matrix norm
    everywhere; only wellposed.MARGINAL_BAND is an absolute bound."""
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


def _require_finite(M, what: str):
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{what} has non-finite entries")


def as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise MatrixShapeError(f"expected a square matrix, got shape {M.shape}")
    _require_finite(M, "matrix")
    return M


def _fix_signs(basis: np.ndarray, tol: float) -> np.ndarray:
    """Flip each row so that its first entry above tol is positive
    (determinism); a row with no entry above tol is kept."""
    above = np.abs(basis) > tol
    lead = basis[np.arange(len(basis)), above.argmax(axis=1)]
    # argmax picks entry 0 of a row with none above tol, which is >= -tol
    return np.where((lead < -tol)[:, None], -basis, basis)


def _pivoted_qr(M: np.ndarray, tol: float, ref: np.ndarray | None = None):
    """Column-pivoted QR, M P = Q R, by one bare LAPACK dgeqp3 call, and
    the rank it reveals: the number of |R_kk| above tol times the largest
    column norm of ref, by default M itself.  A ref given is a matrix whose
    scale M is measured on: the whole M is a block of, or one bounding ||M||.
    Returns (qr, p, rank, tau) with R the upper triangle of qr, p the
    0-based column pivots and tau the scalars of the reflectors that dorgqr
    turns into Q; a zero ref has rank 0 and is not factorised (qr, p and
    tau are None).

    The norms and the comparison are taken on ref and R scaled by s, the
    power of two that brings max |ref| into [1/2, 1): the squares cannot
    overflow, and the scaling is exact, so in range the rank is the one
    of the unscaled comparison."""
    ref = M if ref is None else ref
    flat = ref.reshape(-1)
    top = abs(float(flat[blas.idamax(flat)])) if flat.size else 0.0
    if top == 0.0:
        return None, None, 0, None
    s = math.ldexp(1.0, -math.frexp(top)[1])
    Rs = ref * s
    # np.linalg.norm(Rs, axis=0).max(): sqrt is monotone and correctly
    # rounded, so it is taken once, on the largest sum of squares
    scale = math.sqrt(float((Rs * Rs).sum(axis=0).max()))
    qr, jpvt, tau, _ = _lapack("dgeqp3", M)
    rank = int(np.sum(np.abs(np.diag(qr)) * s > tol * scale))
    return qr, jpvt - 1, rank, tau


def _null_bases(M: np.ndarray, tol: float):
    """(rank, right, left) of a square M from one column-pivoted QR,
    M P = Q R (`_pivoted_qr`): orthonormal bases, as rows, of {z : M z = 0}
    and {z : z M = 0}, each with n - rank rows.  The right basis is solved
    from R and keeps np.linalg.qr's layout (see the module docstring); the
    left one is Q's last n - rank columns, orthogonal to range(M) but for
    the rows of R that the rank drops."""
    n = M.shape[0]
    qr, p, rank, tau = _pivoted_qr(M, tol)
    if rank == n:
        return n, np.zeros((0, n)), np.zeros((0, n))
    if rank == 0:
        return 0, np.eye(n), np.eye(n)
    # R11 X = -R12 as R11^T's transpose solve: what solve_triangular
    # calls for an R11 that is not F-contiguous; dtrtrs reads only the
    # upper triangle of qr
    X, = _lapack("dtrtrs", qr[:rank, :rank].T, -qr[:rank, rank:],
                 lower=1, trans=1)
    basis = np.zeros((n, n - rank))
    basis[p, :] = np.vstack([X, np.eye(n - rank)])
    # np.linalg.qr's Q: dgeqrf then dorgqr
    qf, tau_b, _ = _lapack("dgeqrf", basis)
    Q, _ = _lapack("dorgqr", qf, tau_b)
    right = np.ascontiguousarray(Q).T
    Q, _ = _lapack("dorgqr", qr, tau)
    return rank, _fix_signs(right, tol), _fix_signs(Q[:, rank:].T, tol)


def rank_and_nullspaces(M, tols: Tolerances = Tolerances()):
    """Rank plus orthonormal right and left null bases of a square matrix.

    Returns (rank, right_null, left_null) where the null bases are lists of
    1-D arrays, both orthonormal and both read from one factorisation, so
    rank + len(right_null) == rank + len(left_null) == dim.
    """
    rank, right, left = _null_bases(as_square(M), tols.rank)
    return rank, list(right), list(left)


def _fill(Q: np.ndarray, k0: int, threshold: float) -> list:
    """Fill rows k0.. of Q by Gram-Schmidt over the trivial basis.

    Candidates e_j are taken in index order, orthogonalised twice against
    the rows accepted so far (classical Gram-Schmidt, one product per
    pass) and accepted, normalised, when the residual norm exceeds
    threshold.  Returns the accepted indices j."""
    dim = Q.shape[1]
    accepted = []
    for j in range(dim):
        k = k0 + len(accepted)
        if k == dim:
            break
        # subtracting from e_j, not adding 1 to -(projection), keeps the
        # exact zeros of the residual +0
        cand = np.zeros(dim)
        cand[j] = 1.0
        cand -= Q[:k, j] @ Q[:k]
        cand -= (Q[:k] @ cand) @ Q[:k]   # the reorthogonalisation
        nrm = np.linalg.norm(cand)
        if nrm > threshold:
            Q[k] = cand / nrm
            accepted.append(j)
    return accepted


def orthonormal_complete(vs, dim: int) -> np.ndarray:
    """Complete orthonormal vectors to a dim x dim orthogonal matrix.

    The first len(vs) rows are the inputs; the remaining rows are produced
    deterministically by classical Gram-Schmidt with one
    reorthogonalisation over the trivial basis in index order (`_fill`),
    accepting a candidate whose residual norm exceeds 0.5, or, when that
    leaves rows missing, 1e-8.
    """
    rows = [np.asarray(v, dtype=float) for v in vs]
    if len(rows) > dim:
        raise MatrixShapeError("more vectors than the target dimension")
    if any(v.shape != (dim,) for v in rows):
        raise MatrixShapeError("vector length does not match dim")
    k0 = len(rows)
    Q = np.zeros((dim, dim))
    Q[:k0] = np.reshape(rows, (k0, dim))
    if np.abs(Q[:k0] @ Q[:k0].T - np.eye(k0)).max(initial=0.0) > 1e-9:
        raise NotOrthonormalError("input vectors are not orthonormal")
    for threshold in (0.5, 1e-8):
        if k0 + len(_fill(Q, k0, threshold)) == dim:
            return Q
    # cannot happen for orthonormal input, guard anyway
    raise NotOrthonormalError("failed to complete an orthonormal basis")


def _fro(M: np.ndarray) -> float:
    """||M||_F by BLAS dnrm2, which scales and so neither underflows nor
    overflows where the squares would."""
    return float(blas.dnrm2(M.ravel()))


# relative round-off allowed to the computed norms of the symmetry screen
_SCREEN_SLACK = 1e-12


def is_symmetric(M: np.ndarray, tols: Tolerances = Tolerances()) -> bool:
    """||M - M^T||_2 <= tols.sym * ||M||_2 for a square M.

    An exactly symmetric M passes without an SVD.  Otherwise, with
    K = M - M^T, the bounds ||A||_F / sqrt(n) <= ||A||_2 <= ||A||_F on K
    and on M decide, with a relative slack of 1e-12 for round-off; the two
    SVDs run only when the threshold falls inside those bounds."""
    if np.array_equal(M, M.T):
        return True
    K = M - M.T
    k, m = _fro(K), _fro(M)
    root_n = math.sqrt(M.shape[0])
    tiny = np.finfo(float).tiny
    lo, hi = 1.0 - _SCREEN_SLACK, 1.0 + _SCREEN_SLACK
    if k * hi <= tols.sym * max(m / root_n, tiny) * lo:
        return True
    if k / root_n * lo > tols.sym * max(m, tiny) * hi:
        return False
    return bool(np.linalg.norm(K, 2)
                <= tols.sym * max(np.linalg.norm(M, 2), tiny))


def _eigvalsh(S: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric S read from its lower triangle:
    the LAPACK call of np.linalg.eigvalsh (dsyevd, no vectors, lower), and
    an empty array for an empty S."""
    if not len(S):
        return np.zeros(0)
    return _lapack("dsyevd", S, compute_v=0, lower=1)[0]


def classify_definiteness(M, tols: Tolerances = Tolerances()
                          ) -> DefinitenessClass:
    """Classify a symmetric matrix by the signs of its eigenvalues.

    Eigenvalues within tols.eig * rho of zero count as zero, where rho is
    the spectral radius of the symmetric part 0.5 * (M + M^T), read from
    the eigenvalues themselves (it is ||M||_2 for a symmetric M); a matrix
    whose eigenvalues are all negligible is tagged ZERO (distinct from the
    semi-definite tags).  Asymmetry beyond tols.sym*||M|| is refused.
    """
    M = as_square(M)
    if not is_symmetric(M, tols):
        raise NotSymmetricError("matrix is asymmetric beyond tolerance")
    w = _eigvalsh(0.5 * (M + M.T))
    # on Python floats, so that a huge tols.eig makes thr inf without
    # numpy's overflow warning
    thr = tols.eig * float(max(-w[0], w[-1])) if len(w) else 0.0
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
