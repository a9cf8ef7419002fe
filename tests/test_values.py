"""Value semantics of the package's immutable classes: field equality,
hashing, refused assignment, pickling and deep copies."""

import copy
import pickle
import random

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


def _chain(depth: int, first: str = "H") -> str:
    """A chain of ``depth`` defs, each calling the one before it."""
    defs = [f"def G{i} a := G{i - 1} a" for i in range(1, depth)]
    return "\n".join(["qubits 1", f"def G0 a := {first} a", *defs, f"G{depth - 1} 1"])


def test_deep_def_chain_compares_prints_and_pickles():
    # A derived gate's equality, repr and pickling walk its decomposition
    # with a stack: 1000 nested defs are past Python's recursion limit.
    from gottesman.cli import parse

    (a, _), (b, _) = parse(_chain(1000)), parse(_chain(1000))
    assert a.instructions[0].gate is not b.instructions[0].gate
    assert a == b and hash(a) == hash(b)
    assert a != parse(_chain(1000, first="S"))[0]
    text = repr(a)
    assert text == repr(b) and text.count("GateSpec(name='G") == 1000
    twin = pickle.loads(pickle.dumps(a))
    assert twin == b and repr(twin) == text


def test_circuit_pickles_each_gate_once_without_recursion():
    # A circuit is pickled as one leaves-first table of its distinct gates,
    # so calling every def of a 300-deep chain writes each def once.
    import sys

    from gottesman.cli import parse

    chain = _chain(300).rsplit("\n", 1)[0]
    last, _ = parse(f"{chain}\nG299 1")
    every, _ = parse(chain + "".join(f"\nG{i} 1" for i in range(300)) + "\nMEAS 1")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        data = pickle.dumps(every)
        twin = pickle.loads(data)
        assert twin == every
    finally:
        sys.setrecursionlimit(limit)
    assert [str(ins) for ins in twin.instructions] == [str(ins) for ins in every.instructions]
    assert len(data) <= 3 * len(pickle.dumps(last))
    # A shallow copy shares the instructions rather than rebuilding the gates.
    assert copy.copy(every).instructions is every.instructions


@pytest.mark.parametrize(
    "spec", [*GATES.values(), derive_gate("E", 1, ())], ids=[*GATES, "empty"]
)
def test_gate_repr_reads_as_the_field_repr(spec):
    # The stack-walking repr writes what the generic field repr writes, one
    # level at a time, so the text of a shallow gate is as it was.
    from gottesman.pauli import _Frozen

    assert repr(spec) == _Frozen.__repr__(spec)
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_shared_decompositions_compare_and_pickle_each_gate_once():
    # Each def calls the one before twice: 2**40 paths down, 41 gates.
    from gottesman.cli import parse

    lines = ["qubits 1", "def G0 a := H a"]
    lines += [f"def G{i} a := G{i - 1} a; G{i - 1} a" for i in range(1, 41)]
    source = "\n".join([*lines, "G40 1"])
    (a, _), (b, _) = parse(source), parse(source)
    assert a == b
    data = pickle.dumps(a)
    assert data.count(b"G0") == 1 and pickle.loads(data) == b


def _built(recipe, shared):
    """The gate of ``recipe``: a standard gate's name, or ``(name, parts)``
    for a one-wire def of ``parts`` in turn; each part built once and reused
    when ``shared`` is a dict, else built afresh at each use."""
    if isinstance(recipe, str):
        return GATES[recipe]
    if shared is not None and recipe in shared:
        return shared[recipe]
    name, parts = recipe
    gate = derive_gate(name, 1, [GateApp(_built(p, shared), (1,)) for p in parts])
    if shared is not None:
        shared[recipe] = gate
    return gate


def test_gate_equality_is_of_values_however_parts_are_shared():
    # Distinct recipes give distinct gates (their names or parts differ);
    # equal ones give equal gates, whether each part is one object reused
    # or a fresh copy at every use.
    rng = random.Random(5)
    pool = ["H", "S", "X", "T"]
    for _ in range(30):
        pool.append((rng.choice("DE"), tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))))
    shared = {}
    for _ in range(400):
        a, b = rng.choice(pool), rng.choice(pool)
        ga, gb = _built(a, shared), _built(b, None)
        assert (ga == gb) == (gb == ga) == (a == b)
        assert (repr(ga) == repr(gb)) == (a == b)
        if a == b:
            assert hash(ga) == hash(gb)
        assert pickle.loads(pickle.dumps(ga)) == ga
