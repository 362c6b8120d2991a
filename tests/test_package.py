"""The public names of the package, pinned: a name added or dropped is a
change of the API and must show up here."""
import inspect

import charmarch as cm

PUBLIC = {
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
}


def test_public_names():
    assert len(cm.__all__) == len(PUBLIC) == 36
    assert set(cm.__all__) == PUBLIC
    assert all(hasattr(cm, name) for name in PUBLIC)


def test_verify_estimate_is_the_one_energy_check():
    for name in ("data_norms", "sigma_norm", "balance_residual"):
        assert not hasattr(cm, name)
        assert not hasattr(cm.energymon, name)


def test_tolerances_is_the_one_way_to_set_a_tolerance():
    functions = {name: inspect.signature(getattr(cm, name)).parameters
                 for name in cm.__all__
                 if inspect.isfunction(getattr(cm, name))}
    assert len(functions) == 17
    for name, params in functions.items():   # no float tolerance left
        assert all(p == "tols" for p in params if "tol" in p), name
    takes_tols = {name for name, params in functions.items()
                  if "tols" in params}
    assert takes_tols == {
        "analyze", "check_criteria", "classify_definiteness",
        "growth_parameters", "null_structure", "rank_and_nullspaces",
        "split_and_reduce", "transversality_check", "verify_characteristic"}
    assert all(functions[name]["tols"].default == cm.Tolerances()
               for name in takes_tols)
    assert not [name for name in dir(cm.matkit) if name.startswith("TOL")]
