"""Algebraic well-posedness criteria and growth parameters.

A compact system is well posed when all principal matrices C^a are symmetric,
the normal u-block Nu is positive definite, the normal x-block Nx is
non-positive, and Nu + Nx is positive definite (the surfaces u + x = T are
then spatial).  The growth parameters r = max |R_ij| and c = min eig(C^u+C^x)
give the bound factor e^{(r/c)T}, valid for T < c/r; the factor is 1 when R
is non-negative.  The report stores r, c and the sign class of R, and
computes the growth exponent r/c and the horizon T_max = c/r from them.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import canonical, matkit, sysmodel
from .canonical import CompactSystem
from .matkit import Definiteness, DefinitenessClass, Tolerances


class Verdict(enum.Enum):
    WELL_POSED = "WELL_POSED"
    NOT_WELL_POSED = "NOT_WELL_POSED"
    INCONCLUSIVE = "INCONCLUSIVE"


class NormUndefinedError(ValueError):
    """C^u + C^x is not positive definite; no norm exists on Sigma_T."""


# absolute eigenvalue band under which a failed Nx sign check is reported as
# INCONCLUSIVE instead of NOT_WELL_POSED
MARGINAL_BAND = 1e-10


@dataclass(frozen=True)
class WellPosednessReport:
    symmetric_Ca: dict
    class_Nu: DefinitenessClass
    class_Nx: DefinitenessClass
    class_NuPlusNx: DefinitenessClass
    class_R: DefinitenessClass
    verdict: Verdict
    r: float            # max |R_ij|
    c: float            # min eig(C^u + C^x) = min(eig(Nu + Nx), 1 if m)
    time_function_ok: bool
    tols: Tolerances    # the tolerances the criteria were checked at

    @property
    def growth_exponent(self) -> float:
        """r/c; 0 when R is non-negative or r = 0, inf when c <= 0."""
        if self.class_R.is_nonnegative() or self.r == 0.0:
            return 0.0
        return self.r / self.c if self.c > 0.0 else math.inf

    @property
    def T_max(self) -> float:
        """c/r; inf when R is non-negative or r = 0, 0 when c <= 0."""
        if self.class_R.is_nonnegative() or self.r == 0.0:
            return math.inf
        return self.c / self.r if self.c > 0.0 else 0.0

    def bound_factor(self, T: float) -> float:
        """e^{(r/c)T}; exactly 1 when R is non-negative (growth exponent 0),
        and math.inf where the exponential exceeds the largest float."""
        if self.growth_exponent == 0.0:
            return 1.0
        try:
            return math.exp(self.growth_exponent * T)
        except OverflowError:   # beyond the largest float: e^{(r/c)T} is inf
            return math.inf


def _classify(M: np.ndarray, tols: Tolerances) -> DefinitenessClass:
    return matkit.classify_definiteness(0.5 * (M + M.T), tols)


def check_criteria(cf: CompactSystem,
                   tols: Tolerances = Tolerances()) -> WellPosednessReport:
    """Evaluate the symmetry/definiteness criteria on a compact system."""
    symmetric = {name: matkit.is_symmetric(C, tols)
                 for name, C in cf.C.items()}

    cls_Nu = _classify(cf.Nu, tols)
    cls_Nx = _classify(cf.Nx, tols)
    cls_sum = _classify(cf.Nu + cf.Nx, tols)
    cls_R = _classify(cf.R, tols)

    nx_ok = cls_Nx.is_nonpositive()
    all_sym = all(symmetric.values())
    nu_pd = cls_Nu.tag is Definiteness.POSITIVE_DEFINITE
    sum_pd = cls_sum.tag is Definiteness.POSITIVE_DEFINITE

    if all_sym and nu_pd and nx_ok and sum_pd:
        verdict = Verdict.WELL_POSED
    elif (all_sym and nu_pd and sum_pd and not nx_ok
          and cf.nq > 0 and max(cls_Nx.eigenvalues) <= MARGINAL_BAND):
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = Verdict.NOT_WELL_POSED

    return WellPosednessReport(
        symmetric_Ca=symmetric, class_Nu=cls_Nu, class_Nx=cls_Nx,
        class_NuPlusNx=cls_sum, class_R=cls_R, verdict=verdict,
        r=float(np.abs(cf.R).max()) if cf.R.size else 0.0,
        c=min(cls_sum.eigenvalues + ((1.0,) if cf.m else ())),
        # with no q unknowns C^u + C^x = I_m, though the empty Nu + Nx
        # is classified ZERO
        time_function_ok=sum_pd or cf.nq == 0, tols=tols)


def growth_parameters(cf: CompactSystem, tols: Tolerances = Tolerances()):
    """(r, c, T_max, factor) entering the a priori bound: check_criteria's
    r, c, T_max and bound_factor.

    factor(T) = 1 identically when R is non-negative (so T_max = inf),
    otherwise e^{(r/c)T} with the bound guaranteed only for T < T_max = c/r.
    Raises NormUndefinedError unless C^u + C^x is positive definite, as
    the report's time_function_ok reads it.
    """
    rep = check_criteria(cf, tols)
    if not rep.time_function_ok:
        raise NormUndefinedError("no norm on Sigma_T: criterion ii violated")
    return rep.r, rep.c, rep.T_max, rep.bound_factor


@dataclass(frozen=True, eq=False)
class Analysis:
    """Every stage of the reduction of one system in one chart."""
    B: sysmodel.SideMatrices
    structure: canonical.CharacteristicStructure
    canon: canonical.CanonicalSystem
    compact: CompactSystem
    report: WellPosednessReport


def analyze(system: sysmodel.FirstOrderSystem, chart: sysmodel.Chart,
            tols: Tolerances = Tolerances()) -> Analysis:
    """Side matrices -> null structure -> split (with the transversality
    check) -> compact form -> criteria, each step run once.

    Raises NotCharacteristicError, TransversalityError or ReductionError
    when the chart does not admit the reduction.
    """
    B = sysmodel.side_matrices(system, chart)
    cs = canonical.null_structure(B, system.D, tols)
    canon = canonical.split_and_reduce(cs, B, system.D, tols)
    cf = canonical.compact_form(canon)
    return Analysis(B=B, structure=cs, canon=canon, compact=cf,
                    report=check_criteria(cf, tols))
