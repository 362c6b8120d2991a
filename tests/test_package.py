"""The public names of the package, pinned: a name added or dropped is a
change of the API and must show up here."""
import dataclasses
import inspect

import charmarch as cm
from charmarch import builtin

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


def test_array_records_compare_by_identity():
    # value equality of a record that holds arrays would ask numpy for the
    # truth value of an array; these compare and hash by identity instead
    system, chart = cm.load_system(builtin.example_text("wave3d"))
    a = cm.analyze(system, chart)
    grid = cm.GridSpec(X_total=1.0, nx=4, transverse=(
        cm.TransverseAxis(cells=4), cm.TransverseAxis(cells=4)))
    trace = cm.march(a.canon, grid, cm.DataSpec(q0=((), (), ()), w0=((),)),
                     report=a.report)
    records = (system, chart, a, a.B, a.structure, a.canon, a.compact,
               trace, trace.slices[0])
    assert len({type(r) for r in records}) == len(records) == 9
    for record in records:
        twin = dataclasses.replace(record)
        assert record == record and record != twin
        assert record in [twin, record] and twin not in [record]
        assert len({record, twin, record}) == 2
    # the report holds no arrays and keeps value equality
    assert dataclasses.replace(a.report) == a.report
