"""Circuit-file parsing and the command-line driver.

Circuit files (``.qc``) look like:

    qubits 3
    input Z x Z x Z
    -- build the three-qubit cat state
    H 1; CNOT 1 2
    CNOT 2 3
    MEAS 1

``--`` starts a comment, instructions separate on ``;`` or line breaks
(LF, CRLF or CR only: not U+2028, U+0085 or a form feed), and
``def NAME a b := H a; CNOT a b`` registers a derived gate over formal
wires. Wire indices are 1-based. Unicode type operators are accepted in
the input type and nowhere else: another non-ASCII character outside a
comment is a parse error. All output is ASCII.

Parsing checks each instruction, def step and input type once, where it
is written, and a fault is reported at its line and column as written
(a ``⊗`` counts, though it reads as nothing). What has been checked is
built without the constructors' checks: one GateApp per distinct
instruction text in a file, and the Circuit. Nothing is kept from one
``parse`` to the next, so a def is derived on every parse.

What a line costs: a membership test each for ``--`` and ``;``, a split
only where one is found, and, per instruction, one lookup of its text
among those already read. A new text costs one ``split``, one
gate-table lookup and its wire checks, unrolled for one and two wires,
and then the GateApp (or Measure) is built directly. Any other text goes
to the general checker, whose tail is the fault path: a fault's message
and column are worked out only when it is raised.

Exit statuses: 0 success, 1 type error or out of memory, 2 parse error, 3
oracle mismatch, 4 oracle unavailable (``verify`` past the dense oracle's
qubit cap, its sample batch cap, or a def whose dense unitary passes that
cap). Only ``verify`` imports the dense check, once its file has parsed to
a measurement-free circuit, and calls its one entry point,
``pyoracle.verify_claims``, which chooses between plain Python and numpy.
The argument parser is built once per process; each ``run`` parses into a
fresh namespace.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import lru_cache

from .checker import Circuit, Measure, _circuit, annotate, check, infer_tableau
from .errors import GottesmanError, OracleUnavailableError, ParseError
from .gates import GateSpec, _app, _units, derive_gate, standard_gates
from .pauli import from_bits
from .typesys import QType, _unchecked, parse_qtype

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_PARSE_ERROR = 2
EXIT_ORACLE_MISMATCH = 3
EXIT_ORACLE_UNAVAILABLE = 4

_WORD = re.compile(r"\S+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _words(text: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in _WORD.finditer(text)]


def _col(part: str, pos: int, i: int = 0) -> int:
    """The column of word ``i`` of ``part``, which starts after ``pos``
    characters of its line; computed only when raising."""
    return pos + _words(part)[i][1]


def _check_ascii(ln: int, code: str) -> None:
    """Unicode aliases belong to the input type; on any other line a
    non-ASCII character is a fault at its column."""
    if not code.isascii():
        col, ch = next((i, ch) for i, ch in enumerate(code, 1) if not ch.isascii())
        raise ParseError(f"unexpected character {ch!r}", line=ln, col=col)


def parse(source: str) -> tuple[Circuit, QType | None]:
    """Parse circuit-file text into a Circuit and its optional input type."""
    if "\r" in source:  # a line ends at \n, \r\n or \r, and at nothing else
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    lines = []
    for ln, code in enumerate(source.split("\n"), start=1):
        if "--" in code:
            code = code.split("--", 1)[0]
        if code and not code.isspace():
            lines.append((ln, code))
    if not lines:
        raise ParseError("missing 'qubits' header", line=1)
    n_qubits = _header(*lines[0])
    rest = lines[1:]
    input_type = None
    if rest and rest[0][1].split()[0] == "input":
        input_type = _input_line(*rest[0], n_qubits)
        rest = rest[1:]
    gates = dict(standard_gates())
    all_ascii = source.isascii()  # then no line has a character to refuse
    instructions: list = []
    # One instruction per distinct text: a text means the same thing
    # wherever it recurs in a file, as a def cannot replace a gate.
    known: dict = {}
    for ln, code in rest:
        if not all_ascii:
            _check_ascii(ln, code)
        if "def" in code and code.split(None, 1)[0] == "def":
            _def_line(gates, ln, code)
            continue
        for part in code.split(";") if ";" in code else (code,):
            ins = known.get(part)
            if ins is None:
                ins = known[part] = _instruction(gates, ln, code, part, n_qubits)
            if ins is not None:
                instructions.append(ins)
    return _circuit(n_qubits, tuple(instructions)), input_type


def _header(ln: int, code: str) -> int:
    _check_ascii(ln, code)
    words = _words(code)
    if words[0][0] != "qubits":
        raise ParseError("expected 'qubits N' header", line=ln, col=words[0][1])
    if len(words) != 2 or not words[1][0].isdecimal() or int(words[1][0]) < 1:
        raise ParseError("expected 'qubits N' with N >= 1", line=ln)
    return int(words[1][0])


def _input_line(ln: int, code: str, n_qubits: int) -> QType:
    text = code.strip()[len("input") :]
    offset = code.index("input") + len("input")
    try:
        q = parse_qtype(text)
    except ParseError as err:
        col = offset + err.col if err.col is not None else None
        raise ParseError(err.message, line=ln, col=col) from None
    if q.arity != n_qubits:
        raise ParseError(
            f"input type covers {q.arity} qubits, circuit has {n_qubits}",
            line=ln,
        )
    return q


def _def_line(gates: dict, ln: int, code: str) -> None:
    if ":=" not in code:
        raise ParseError("a 'def' needs ':=' before its body", line=ln)
    head, body = code.split(":=", 1)
    head_words = _words(head)
    if len(head_words) < 3:
        raise ParseError("expected 'def NAME wires... := body'", line=ln)
    name = head_words[1][0]
    if not _NAME.match(name):
        raise ParseError(f"bad gate name {name!r}", line=ln, col=head_words[1][1])
    if name == "MEAS":
        msg = "MEAS is reserved for measurement"
        raise ParseError(msg, line=ln, col=head_words[1][1])
    if name in gates:
        raise ParseError(f"gate {name!r} already defined", line=ln)
    formals = [w for w, _ in head_words[2:]]
    if len(set(formals)) != len(formals):
        raise ParseError("formal wires must be distinct", line=ln)
    wire_of = {f: i + 1 for i, f in enumerate(formals)}
    steps = []
    pos = len(head) + 2  # the columns before the body
    for part in body.split(";"):
        words = part.split()
        if words:
            wires = []
            for i, arg in enumerate(words[1:], start=1):
                if arg not in wire_of:
                    msg = f"unknown formal wire {arg!r} in def body"
                    raise ParseError(msg, line=ln, col=_col(part, pos, i))
                wires.append(wire_of[arg])
            steps.append(_gate(gates, ln, part, pos, words[0], wires))
        pos += len(part) + 1
    gates[name] = derive_gate(name, len(formals), steps)


def _instruction(gates: dict, ln: int, code: str, part: str, n_qubits: int):
    """The instruction ``part`` of line ``ln``, ``code``, or None if blank.

    One split, one gate-table lookup and the wire checks, unrolled for
    one and two wires as in ``gates._conjugate``; what passes is built
    without further checks. Anything else is left to ``_general``.
    """
    words = part.split()
    if not words:
        return None
    spec = gates.get(words[0])
    if len(words) == 2:
        if words[1].isdecimal():
            w = int(words[1])
            if 0 < w <= n_qubits:
                if spec is not None and spec.arity == 1:
                    return _app(spec, (w,))
                if words[0] == "MEAS":  # never a gate's name
                    return Measure(w)
    elif len(words) == 3:
        if spec is not None and spec.arity == 2:
            if words[1].isdecimal() and words[2].isdecimal():
                v, w = int(words[1]), int(words[2])
                if v != w and 0 < v <= n_qubits and 0 < w <= n_qubits:
                    return _app(spec, (v, w))
    return _general(gates, ln, code, part, n_qubits)


def _general(gates: dict, ln: int, code: str, part: str, n_qubits: int):
    """The instruction ``part`` of line ``ln``, ``code``, on any number of
    wires, or its first fault at its column: each wire (a number, then in
    range), then a ``MEAS``'s arity, then ``_gate``."""
    parts = code.split(";")
    # The first part with this text is the one read: an equal text before
    # it would have been read first.
    pos = sum(len(p) + 1 for p in parts[: parts.index(part)])
    words = part.split()
    wires = []
    for i, arg in enumerate(words[1:], start=1):
        if not arg.isdecimal():
            msg = f"expected a wire number, got {arg!r}"
        elif not 1 <= int(arg) <= n_qubits:
            msg = f"wire {int(arg)} out of range for {n_qubits} qubits"
        else:
            wires.append(int(arg))
            continue
        raise ParseError(msg, line=ln, col=_col(part, pos, i))
    if words[0] == "MEAS":
        if len(wires) != 1:
            raise ParseError("MEAS takes exactly one qubit", line=ln, col=_col(part, pos))
        return Measure(wires[0])
    return _gate(gates, ln, part, pos, words[0], wires)


def _gate(gates: dict, ln: int, part: str, pos: int, name: str, wires: list[int]):
    """The gate ``name`` on ``wires``, written as ``part`` after ``pos``
    characters of line ``ln`` (an instruction or one step of a def body),
    once its name, arity and distinct wires are checked."""
    spec = gates.get(name)
    if spec is None:
        fault = f"unknown gate {name!r}"
    elif len(wires) != spec.arity:
        fault = f"{name} needs {spec.arity} wires, got {len(wires)}"
    elif len(set(wires)) != len(wires):
        fault = f"{name}: wires must be distinct"
    else:
        return _app(spec, tuple(wires))
    raise ParseError(fault, line=ln, col=_col(part, pos))


def _unit_labels(n: int) -> list[str]:
    """X1..Xn, then Z1..Zn: the names ``tableau`` and ``verify`` print for
    the unit strings of ``gates._units(n)``."""
    return [f"{letter}{k}" for letter in "XZ" for k in range(1, n + 1)]


def _default_input(n: int) -> QType:
    """Z x ... x Z: Z_1..Z_n are already a reduced tableau."""
    rows = tuple(from_bits(n, 0, 1 << k) for k in range(n))
    return QType(n, _unchecked(n, rows, rows))


def _qtype_record(q: QType) -> dict:
    if q.top:
        return {"top": True, "text": str(q)}
    return {
        "top": False,
        "text": str(q),
        "factors": [
            {"qubit": k, "sign": 1 - p.k, "basis": str(p)[-1]}
            for k, p in q.factors
        ],
        "remainder": {
            "support": list(q.remainder_support),
            "generators": [str(g) for g in q.remainder.generators]
            if q.remainder is not None
            else [],
        },
    }


def _print_json(record: dict) -> None:
    import json  # only --json output needs it, so plain runs skip its import

    print(json.dumps(record, indent=2))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from None


def _cmd_check(args) -> int:
    circuit, input_type = parse(_read(args.file))
    if input_type is None:
        input_type = _default_input(circuit.n_qubits)
    if args.trace:
        # One transport: the last entry's group is the one ``check`` gives.
        states = annotate(circuit, input_type)
        output = QType(circuit.n_qubits, states[-1].stab)
        labels = ["init"] + [str(ins) for ins in circuit.instructions]
        trace = list(zip(labels, (str(s) for s in states)))
    else:
        output = check(circuit, input_type)
    if args.json:
        record = {
            "command": "check",
            "qubits": circuit.n_qubits,
            "input": str(input_type),
            "output": _qtype_record(output),
        }
        if args.trace:
            record["trace"] = [
                {"instruction": label, "type": text} for label, text in trace
            ]
        _print_json(record)
    else:
        if args.trace:
            width = max(len(label) for label, _ in trace) + 2
            for label, text in trace:
                print(f"{label:<{width}}{text}")
        print(f"{input_type} -> {output}")
    return EXIT_OK


def _cmd_tableau(args) -> int:
    circuit, _ = parse(_read(args.file))
    tab = infer_tableau(circuit)
    labels = _unit_labels(circuit.n_qubits)
    rows = [(label, str(img)) for label, img in zip(labels, tab.x_images + tab.z_images)]
    if args.json:
        _print_json(
            {
                "command": "tableau",
                "qubits": circuit.n_qubits,
                "rows": [{"generator": g, "image": i} for g, i in rows],
            }
        )
    else:
        for gen, img in rows:
            print(f"{gen} -> {img}")
    return EXIT_OK


def _cmd_gates(args) -> int:
    records = []
    for spec in standard_gates().values():
        images = spec.x_images + spec.z_images
        rows = [
            {"input": str(unit), "output": str(img)}
            for unit, img in zip(_units(spec.arity), images)
        ]
        records.append({"name": spec.name, "arity": spec.arity, "rows": rows})
    if args.json:
        _print_json({"command": "gates", "gates": records})
    else:
        for rec in records:
            for row in rec["rows"]:
                print(f"{rec['name']}: {row['input']} -> {row['output']}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    circuit, input_type = parse(_read(args.file))
    if circuit.has_measurement:
        raise GottesmanError("verify requires a measurement-free circuit")
    from . import pyoracle

    args.seed = pyoracle.DEFAULT_SEED if args.seed is None else args.seed
    args.samples = args.samples or pyoracle.DEFAULT_SAMPLES  # at least 1 when given
    n = circuit.n_qubits
    pyoracle.check_size(n)  # the qubit cap, before any type work
    flat_in, claimed, factors = None, (), ()
    if input_type is not None and not input_type.top:
        output = check(circuit, input_type)
        if not output.top:
            # The output generators, then each factor +-U on qubit k as +-U_k:
            # every one a string claimed to fix the evolved eigenstates.
            flat_in, factors = input_type.stab, output.factors
            lifted = [from_bits(n, p.x << (k - 1), p.z << (k - 1), p.k) for k, p in factors]
            claimed = [*output.stab.generators, *lifted]
    # Eigenstates are drawn only for an output that has them.
    pyoracle.check_size(n, args.samples if flat_in is not None else 0)
    tab = infer_tableau(circuit)
    labels, pairs = [], []
    for label, unit, img in zip(_unit_labels(n), _units(n), tab.x_images + tab.z_images):
        if not img.is_top:
            labels.append(label)
            pairs.append((unit, img))
    verdicts, residuals = pyoracle.verify_claims(
        circuit, pairs, flat_in, claimed, args.samples, args.seed
    )
    checks = len(pairs)
    failures = [  # a claim is written out only if it fails
        f"conjugation mismatch: {label} -> {img}"
        for label, (_, img), holds in zip(labels, pairs, verdicts)
        if not holds
    ]
    if flat_in is not None:
        checks += 1 + len(factors)
        split = len(claimed) - len(factors)
        residual = max(residuals[:split], default=0.0)
        if residual >= pyoracle.TOLERANCE:
            failures.append(f"eigenstate transport residual {residual:.3e}")
        failures += [
            f"separability not confirmed at qubit {k}"
            for (k, _), r in zip(factors, residuals[split:])
            if r >= pyoracle.TOLERANCE
        ]
    if args.json:
        _print_json(
            {
                "command": "verify",
                "qubits": n,
                "checks": checks,
                "seed": args.seed,
                "samples": args.samples,
                "failures": failures,
            }
        )
    else:
        for failure in failures:
            print(f"FAIL {failure}")
        status = "ok" if not failures else "MISMATCH"
        print(
            f"{status}: {checks - len(failures)}/{checks} oracle checks passed"
            f" (seed={args.seed}, samples={args.samples})"
        )
    return EXIT_OK if not failures else EXIT_ORACLE_MISMATCH


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gottesman",
        description="Pauli-based type checking for Clifford circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="infer and factor a circuit's output type")
    p_check.add_argument("file")
    p_check.add_argument("--trace", action="store_true", help="print per-line types")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_tab = sub.add_parser("tableau", help="print generator images")
    p_tab.add_argument("file")
    p_tab.add_argument("--json", action="store_true")
    p_tab.set_defaults(func=_cmd_tableau)

    p_verify = sub.add_parser("verify", help="cross-check against the dense oracle")
    p_verify.add_argument("file")
    p_verify.add_argument("--seed", type=nonnegative_int)
    p_verify.add_argument("--samples", type=positive_int)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_gates = sub.add_parser("gates", help="list the known gate tables")
    p_gates.add_argument("--json", action="store_true")
    p_gates.set_defaults(func=_cmd_gates)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Run one command; returns the exit status instead of exiting."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except OracleUnavailableError as err:
        print(f"oracle unavailable: {err}", file=sys.stderr)
        return EXIT_ORACLE_UNAVAILABLE
    except GottesmanError as err:
        print(f"type error: {err}", file=sys.stderr)
        return EXIT_TYPE_ERROR
    except MemoryError:
        print("out of memory", file=sys.stderr)
        return EXIT_TYPE_ERROR


def main() -> None:
    sys.exit(run())
