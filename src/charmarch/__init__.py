"""Canonical-form reduction, well-posedness checks, hierarchical marching and
energy-estimate verification for constant-coefficient first-order
characteristic problems."""

from .canonical import (CanonicalSystem, CharacteristicStructure,
                        CompactSystem, compact_form, null_structure,
                        split_and_reduce, transversality_check)
from .charsolve import (DataSpec, GridSpec, ProfileTerm, SliceState,
                        SolutionTrace, TransverseAxis, march)
from .energymon import EnergyReport, estimate_ladder, verify_estimate
from .matkit import (Definiteness, DefinitenessClass, Tolerances,
                     classify_definiteness, orthonormal_complete,
                     rank_and_nullspaces)
from .sysmodel import (Chart, FirstOrderSystem, SideMatrices, load_system,
                       serialize_system, side_matrices, verify_characteristic)
from .wellposed import (Analysis, Verdict, WellPosednessReport, analyze,
                        check_criteria, growth_parameters)

__version__ = "0.1.0"

__all__ = [
    "Analysis", "CanonicalSystem", "CharacteristicStructure", "CompactSystem",
    "Chart", "DataSpec", "Definiteness", "DefinitenessClass", "EnergyReport",
    "FirstOrderSystem", "GridSpec", "ProfileTerm", "SideMatrices",
    "SliceState", "SolutionTrace", "Tolerances", "TransverseAxis", "Verdict",
    "WellPosednessReport", "analyze", "check_criteria",
    "classify_definiteness", "compact_form", "estimate_ladder",
    "growth_parameters", "load_system", "march", "null_structure",
    "orthonormal_complete", "rank_and_nullspaces", "serialize_system",
    "side_matrices", "split_and_reduce", "transversality_check",
    "verify_characteristic", "verify_estimate",
]
