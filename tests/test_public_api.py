"""The package's public names: an addition or removal is made on purpose."""

import gottesman

PUBLIC = [
    "ArityError",
    "Circuit",
    "EmptyEigenspaceError",
    "GateApp",
    "GateSpec",
    "GottesmanError",
    "IllFormedTypeError",
    "Measure",
    "MeasurementError",
    "OracleError",
    "OracleUnavailableError",
    "ParseError",
    "PauliAtom",
    "PauliString",
    "Phase",
    "QType",
    "StabType",
    "Tableau",
    "TopOperandError",
    "WireError",
    "annotate",
    "apply_gate",
    "canonicalize",
    "check",
    "commutes",
    "derive_gate",
    "factor_separable",
    "infer_tableau",
    "measure",
    "measure_with_cost",
    "member",
    "parse_qtype",
    "standard_gates",
    "string_mul",
    "tensor",
]


def test_public_names_are_pinned():
    assert sorted(gottesman.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(gottesman, name) is not None
