"""The package's public surface: its names, where an addition or removal
is made on purpose, and the README's Library example, run as written."""

import pathlib
import re

import pytest

import gottesman

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

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


def test_public_names_are_pinned():
    assert sorted(gottesman.__all__) == PUBLIC
    assert len(gottesman.__all__) == 30
    for name in PUBLIC:
        assert getattr(gottesman, name) is not None


# Each expression of the Library example, and the result its comment shows.
LIBRARY_RESULTS = {
    'check(ghz, parse_qtype("Z x Z x Z"))': "XXX & ZIZ & IZZ",
    "infer_tableau(ghz).z_images": "(XXX, ZZI, IZZ)",
    'measure(StabType.of("XXX", "ZZI", "IZZ"), 1)': "ZII & IZI & IIZ",
    'QType(3, StabType.of("IXX", "ZII", "IZZ"))': "Z x (XX & ZZ)",
}


def test_readme_library_example():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    comments = dict(re.findall(r"^(\S.*?)\s+# (.*)$", block, re.M))
    for expr, shown in LIBRARY_RESULTS.items():
        assert comments[expr].split(" (entangled)")[0] == shown
        value = eval(expr, namespace)
        if isinstance(value, tuple):
            assert "(" + ", ".join(map(str, value)) + ")" == shown
        else:
            assert str(value) == shown


def P(text):
    return gottesman.PauliString.parse(text)


GateSpec, StabType = gottesman.GateSpec, gottesman.StabType
H = gottesman.standard_gates()["H"]

# Each public guard's exact message, for a call it refuses, and its exception.
GUARDS = {
    "gate arity must be at least 1": (
        "IllFormedTypeError",
        lambda: GateSpec("G", 0, (), ()),
    ),
    "G: need one X and one Z image per wire": (
        "IllFormedTypeError",
        lambda: GateSpec("G", 1, (P("X"),), ()),
    ),
    "G: image arity mismatch": (
        "IllFormedTypeError",
        lambda: GateSpec("G", 1, (P("XX"),), (P("ZZ"),)),
    ),
    # X1 -> XI and X2 -> ZX anticommute; each wire's own pair is sound.
    "G: generator images must commute pairwise": (
        "IllFormedTypeError",
        lambda: GateSpec("G", 2, (P("XI"), P("ZX")), (P("ZI"), P("IZ"))),
    ),
    "H: wires are 1-based, got (0,)": ("WireError", lambda: gottesman.GateApp(H, (0,))),
    "a circuit needs at least one qubit": ("ArityError", lambda: gottesman.Circuit(0)),
    "a type needs at least one qubit": ("ArityError", lambda: StabType(0)),
    "StabType.of needs at least one literal": ("ArityError", lambda: StabType.of()),
    "arity 1 does not match tableau arity 2": (
        "ArityError",
        lambda: gottesman.member(StabType.of("XX"), P("X")),
    ),
    "qubit 2 out of range for 1 qubits": (
        "WireError",
        lambda: gottesman.measure(StabType.of("Z"), 2),
    ),
}


@pytest.mark.parametrize("message", GUARDS)
def test_public_guards_raise_exact_messages(message):
    error, call = GUARDS[message]
    with pytest.raises(getattr(gottesman, error)) as info:
        call()
    assert type(info.value).__name__ == error
    assert str(info.value) == message
