"""Pauli-based type checking for Clifford circuits.

Assigns Pauli/stabilizer types to circuits in the Heisenberg picture,
decides which qubits are separable, types Z-basis measurement, and can
cross-check every judgment against an oracle that shares none of its code:
state vectors for small work, exact Pauli propagation above it.
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
from .gates import GateApp, GateSpec, apply_gate, derive_gate, standard_gates
from .pauli import PauliString, commutes, string_mul, tensor
from .stabilizer import member
from .typesys import QType, StabType, measure, parse_qtype

__version__ = "0.1.0"

__all__ = [
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
    "PauliString",
    "QType",
    "StabType",
    "Tableau",
    "TopOperandError",
    "WireError",
    "annotate",
    "apply_gate",
    "check",
    "commutes",
    "derive_gate",
    "infer_tableau",
    "measure",
    "member",
    "parse_qtype",
    "standard_gates",
    "string_mul",
    "tensor",
]
