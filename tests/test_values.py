"""Value semantics of the package's immutable classes: field equality,
hashing, refused assignment, pickling and deep copies."""

import copy
import pickle

import pytest

from gottesman import (
    Circuit,
    GateApp,
    Measure,
    StabType,
    Tableau,
    derive_gate,
    parse_qtype,
    standard_gates,
)
from gottesman.checker import _circuit
from gottesman.pauli import PauliString
from gottesman.typesys import _unchecked

GATES = standard_gates()
P = PauliString.parse


def _ghz() -> Circuit:
    return Circuit(3, (GateApp(GATES["H"], (1,)), GateApp(GATES["CNOT"], (1, 2)), Measure(3)))


# (name, a fresh instance, a field to assign, and an instance of another
# class holding the same field values, or their tuple when no class has
# that shape).
CASES = [
    ("Measure", lambda: Measure(2), "qubit", lambda v: (v.qubit,)),
    (
        "Tableau",
        lambda: Tableau(1, (P("Z"),), (P("X"),)),
        "x_images",
        lambda v: (v.n_qubits, v.x_images, v.z_images),
    ),
    (
        "Circuit",
        _ghz,
        "instructions",
        lambda v: _unchecked(v.n_qubits, v.instructions),
    ),
    (
        "StabType",
        lambda: StabType.of("XX", "ZZ"),
        "generators",
        lambda v: _circuit(v.arity, v.generators),
    ),
    (
        "QType",
        lambda: parse_qtype("Z x (XX & ZZ)"),
        "stab",
        lambda v: _circuit(v.arity, v.stab),
    ),
    (
        "GateApp",
        lambda: GateApp(GATES["CNOT"], (2, 1)),
        "wires",
        lambda v: _circuit(v.gate, v.wires),
    ),
    (
        "GateSpec",
        lambda: derive_gate("TOFFOLI", 3, GATES["TOFFOLI"].decomposition),
        "name",
        lambda v: (v.name, v.arity, v.x_images, v.z_images, v.decomposition),
    ),
]


@pytest.mark.parametrize("name, make, field, sibling", CASES, ids=[c[0] for c in CASES])
def test_value_semantics(name, make, field, sibling):
    value = make()
    assert type(value).__name__ == name
    same = make()
    assert value == same and hash(value) == hash(same) == hash(value)
    other = sibling(value)
    assert type(other) is not type(value)
    assert value != other and other != value
    for name in (field, "unrelated"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == getattr(same, field)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value) and str(twin) == str(value)
