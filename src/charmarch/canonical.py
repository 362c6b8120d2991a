"""Reduction of a characteristic system to (almost) canonical form.

Pipeline: null structure of B^u -> rotation S -> transversality of the
x-surfaces -> split into evolution and hypersurface equations -> null-variable
redefinition -> compact conservation-law form.

Variable ordering convention: the rotated frame lists the null variables w
first (they are the projections on the null directions); the final canonical
bookkeeping orders variables as (q_1..q_{N-m}, w_1..w_m) so that the compact
principal matrices have the block pattern blockdiag(Nu, 0) / blockdiag(Nx, I).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matkit
from .matkit import Tolerances
from .sysmodel import NotCharacteristicError, SideMatrices


class TransversalityError(ValueError):
    """z~ B^x z is singular on the scale of B^x: d_x w is not solvable."""


class ReductionError(ValueError):
    """No evolution-row selection yields an invertible u-principal block."""


@dataclass(frozen=True, eq=False)
class CharacteristicStructure:
    """Null structure of B^u and the rotated system.

    Bprime/Dprime live in the rotated frame v' = S v with the m null
    variables first; the first m columns of Bprime['u'] vanish.
    """
    m: int
    n_unknowns: int
    right_null: list
    left_null: list
    S: np.ndarray
    Bprime: dict = field(repr=False)
    Dprime: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class CanonicalSystem:
    """Almost-canonical system.

    Evolution block:   Nu d_u q + Nx d_x q + Ni[i] d_i v + N0 v = 0
    Hypersurface:           d_x w + Li[i] d_i v + L0 v = 0
    with v = (q_1..q_{N-m}, w_1..w_m); Ni/N0/Li/L0 act on the full v.
    """
    m: int
    n_unknowns: int
    transverse_names: tuple
    Nu: np.ndarray
    Nx: np.ndarray
    Ni: dict = field(repr=False)
    N0: np.ndarray = field(repr=False)
    Li: dict = field(repr=False)
    L0: np.ndarray = field(repr=False)
    # transversality matrix M[nu, mu] = z~_nu . B^x . z_mu of the reduction
    M: np.ndarray = field(repr=False)
    # v_hat = to_hat @ v_original; row_transform maps the original N
    # equations to the final (evolution, hypersurface) rows.
    to_hat: np.ndarray = field(repr=False)
    row_transform: np.ndarray = field(repr=False)

    @property
    def nq(self) -> int:
        return self.n_unknowns - self.m

    @property
    def variable_names(self) -> tuple:
        """The names of v = (q_1..q_{N-m}, w_1..w_m)."""
        return tuple(f"q{k + 1}" for k in range(self.nq)) + \
            tuple(f"w{k + 1}" for k in range(self.m))


@dataclass(frozen=True, eq=False)
class CompactSystem:
    """Conservation-law form C^a d_a v + Dc v = 0 with R = 2 Dc."""
    m: int
    n: int
    transverse_names: tuple
    C: dict = field(repr=False)
    Dc: np.ndarray = field(repr=False)

    @property
    def nq(self) -> int:
        return self.n - self.m

    @property
    def R(self) -> np.ndarray:
        """R = 2 Dc, the matrix of the volume term of the energy identity."""
        return 2.0 * self.Dc

    @property
    def Nu(self) -> np.ndarray:
        return self.C["u"][: self.nq, : self.nq]

    @property
    def Nx(self) -> np.ndarray:
        return self.C["x"][: self.nq, : self.nq]


def null_structure(B: SideMatrices, D: np.ndarray,
                   tols: Tolerances = Tolerances()) -> CharacteristicStructure:
    """Null vectors of B^u, completing rotation S, and the rotated system.

    Raises NotCharacteristicError when B^u is regular (m = 0)."""
    Bu = B.B["u"]
    n = Bu.shape[0]
    _, right, left = matkit.rank_and_nullspaces(Bu, tols)
    m = len(right)
    if m == 0:
        raise NotCharacteristicError("surface u=const is not characteristic")
    S = matkit.orthonormal_complete(right, n)
    Bprime = {name: S @ M @ S.T for name, M in B.B.items()}
    Dprime = S @ D @ S.T
    return CharacteristicStructure(
        m=m, n_unknowns=n, right_null=right, left_null=left,
        S=S, Bprime=Bprime, Dprime=Dprime)


def transversality_check(cs: CharacteristicStructure, B: SideMatrices,
                         tols: Tolerances = Tolerances()) -> np.ndarray:
    """M[nu, mu] = z~_nu . B^x . z_mu; raises unless M has full rank on the
    scale of B^x, which bounds ||M|| and scales with it (`_pivoted_qr`)."""
    Bx = B.B["x"]
    M = np.array([[zt @ Bx @ z for z in cs.right_null] for zt in cs.left_null])
    if matkit._pivoted_qr(M, tols.rank, Bx)[2] < cs.m:
        raise TransversalityError(
            "surface x=const not transverse: hypersurface equations "
            "unsolvable for d_x w")
    return M


def _select_evolution_rows(Bpu: np.ndarray, m: int, tol: float):
    """Rows of the rotated system whose u-principal block is invertible,
    each rank read from matkit's column-pivoted QR.

    Default choice: rows m..N-1 (works whenever B^u is symmetric), whose
    rank is measured on the scale of the whole q-column block, so that a
    block tiny next to the other rows is not kept.  Fallback: the first N-m
    pivots of the QR of the q-column block transposed, which greedily picks
    well-conditioned rows; there are none when that block has rank below
    N-m.
    """
    n = Bpu.shape[0]
    nq = n - m
    if nq == 0:
        return [], np.zeros((0, 0))
    cols = Bpu[:, m:]
    rows = list(range(m, n))
    Nu = cols[rows]
    if matkit._pivoted_qr(Nu, tol, cols)[2] < nq:
        _, p, rank, _ = matkit._pivoted_qr(cols.T, tol)
        if rank < nq:
            raise ReductionError(
                "not reducible to canonical form with given chart")
        rows = sorted(int(k) for k in p[:nq])
        Nu = cols[rows]
    return rows, Nu


def split_and_reduce(cs: CharacteristicStructure, B: SideMatrices,
                     D: np.ndarray,
                     tols: Tolerances = Tolerances()) -> CanonicalSystem:
    """Build the almost-canonical system from the rotated one.

    Hypersurface rows come from the left-null contraction of the original
    system, scaled by M^-1; the redefinition w -> w + L^x q removes d_x q
    from them.  Evolution rows are selected rotated rows with the d_x w
    contribution eliminated through the hypersurface rows.
    """
    m, n = cs.m, cs.n_unknowns
    nq = n - m
    S = cs.S
    M = transversality_check(cs, B, tols)
    Minv = np.linalg.inv(M)
    Ztil = np.array(cs.left_null)

    # hypersurface rows in rotated variables (w first)
    Gx = Minv @ (Ztil @ B.B["x"] @ S.T)
    Gi = {name: Minv @ (Ztil @ B.B[name] @ S.T) for name in B.transverse_names}
    G0 = Minv @ (Ztil @ D @ S.T)
    Lx = Gx[:, m:]          # coefficient of d_x q after scaling

    # evolution rows from the rotated system
    rows, Nu = _select_evolution_rows(cs.Bprime["u"], m, tols.rank)
    Fw = cs.Bprime["x"][rows][:, :m]
    Fq = cs.Bprime["x"][rows][:, m:]
    Nx = Fq - Fw @ Lx
    Ei = {name: cs.Bprime[name][rows] - Fw @ Gi[name]
          for name in B.transverse_names}
    E0 = cs.Dprime[rows] - Fw @ G0

    # hat substitution w_hat = w + Lx q: v' = Tinv v_hat' with v_hat'=(w_hat,q)
    Tinv = np.eye(n)
    Tinv[:m, m:] = -Lx
    # column permutation from (w, q) to the final (q, w) ordering: its
    # ones P[m + k, k], k < nq, and P[k, nq + k], k < m, lie on two
    # diagonals of stride n + 1 in the flat array
    P = np.zeros((n, n))
    flat = P.reshape(-1)
    flat[m * n::n + 1] = 1.0
    flat[nq:m * n:n + 1] = 1.0
    col = Tinv @ P          # final coeff = rotated coeff @ col

    Ni = {name: Ei[name] @ col for name in B.transverse_names}
    N0 = E0 @ col
    Li = {name: Gi[name] @ col for name in B.transverse_names}
    L0 = G0 @ col

    # bookkeeping transforms
    That = np.eye(n)
    That[:m, m:] = Lx
    to_hat = P.T @ That @ S
    # row_transform = [[I, -Fw M^-1], [0, M^-1]] [S[rows]; z~] needs no
    # test: a S[rows] + b z~ = 0 gives a Nu = 0 as z~ B^u = 0, so a = 0 by
    # the rank of Nu, then b = 0 as z~ is orthonormal; and M is regular
    row_transform = np.vstack([S[rows] - Fw @ Minv @ Ztil, Minv @ Ztil])

    return CanonicalSystem(
        m=m, n_unknowns=n, transverse_names=B.transverse_names, Nu=Nu,
        Nx=Nx, Ni=Ni, N0=N0, Li=Li, L0=L0, M=M, to_hat=to_hat,
        row_transform=row_transform)


def compact_form(canon: CanonicalSystem) -> CompactSystem:
    """Stack the canonical blocks into C^a d_a v + Dc v = 0 with R = 2 Dc."""
    m, n, nq = canon.m, canon.n_unknowns, canon.nq
    Cu = np.zeros((n, n))
    Cu[:nq, :nq] = canon.Nu
    Cx = np.zeros((n, n))
    Cx[:nq, :nq] = canon.Nx
    Cx[nq:, nq:] = np.eye(m)
    C = {"u": Cu, "x": Cx}
    for name in canon.transverse_names:
        C[name] = np.vstack([canon.Ni[name], canon.Li[name]])
    Dc = np.vstack([canon.N0, canon.L0])
    return CompactSystem(m=m, n=n, transverse_names=canon.transverse_names,
                         C=C, Dc=Dc)
