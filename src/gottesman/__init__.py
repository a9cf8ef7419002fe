"""Pauli-based type checking for Clifford circuits.

Assigns Pauli/stabilizer types to circuits in the Heisenberg picture,
decides which qubits are separable, types Z-basis measurement, and can
cross-check every judgment against a dense state-vector oracle at small qubit
counts.
"""

from .checker import Circuit, Measure, Tableau, annotate, check, infer_tableau
from .errors import (
    ArityError,
    EmptyEigenspaceError,
    GottesmanError,
    IllFormedTypeError,
    MeasurementError,
    OracleError,
    OracleUnavailableError,
    ParseError,
    TopOperandError,
    WireError,
)
from .gates import GateApp, GateSpec, apply_gate, base_gates, derive_gate, standard_gates
from .pauli import (
    MINUS_I,
    MINUS_ONE,
    ONE,
    PLUS_I,
    PauliAtom,
    PauliString,
    Phase,
    commutes,
    embed,
    string_mul,
    tensor,
)
from .stabilizer import (
    CanonicalTableau,
    canonicalize,
    measure,
    measure_with_cost,
    member,
    single_qubit_members,
)
from .typesys import (
    ArrowJudgment,
    QType,
    StabType,
    factor_separable,
    flatten,
    intersect,
    normalize,
    parse_qtype,
    type_equal,
)

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "ArrowJudgment",
    "CanonicalTableau",
    "Circuit",
    "EmptyEigenspaceError",
    "GateApp",
    "GateSpec",
    "GottesmanError",
    "IllFormedTypeError",
    "MINUS_I",
    "MINUS_ONE",
    "Measure",
    "MeasurementError",
    "ONE",
    "OracleError",
    "OracleUnavailableError",
    "PLUS_I",
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
    "base_gates",
    "canonicalize",
    "check",
    "commutes",
    "derive_gate",
    "embed",
    "factor_separable",
    "flatten",
    "infer_tableau",
    "intersect",
    "measure",
    "measure_with_cost",
    "member",
    "normalize",
    "parse_qtype",
    "single_qubit_members",
    "standard_gates",
    "string_mul",
    "tensor",
    "type_equal",
]
