"""The package's public surface: its names, where an addition or removal
is made on purpose, and the README's Library example, run as written."""

import pathlib
import re

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
