import collections
import json
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gottesman.checker import Measure
from gottesman.cli import (
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
    EXIT_ORACLE_UNAVAILABLE,
    EXIT_PARSE_ERROR,
    EXIT_TYPE_ERROR,
    parse,
    run,
)
from gottesman.errors import GottesmanError, ParseError
from gottesman.gates import GateApp, standard_gates
from gottesman.typesys import parse_qtype

from helpers import (
    all_z,
    format_source,
    fresh_run,
    random_clifford_circuit,
    random_stab_type,
    ref_parse,
    ref_parse_qtype,
)

CIRCUITS = pathlib.Path(__file__).resolve().parent.parent / "circuits"


def write(tmp_path, text, name="test.qc"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def above_budget(tmp_path):
    """A seeded 6-qubit, 40-gate Clifford file with an input type: 2^6 x 27
    columns (its pure input type is drawn once) x 117 passes (2^g for each
    gate on g wires, and one more), far above ``pyoracle.WORK_BUDGET``, so
    ``verify`` takes the exact kernel."""
    circuit = random_clifford_circuit(6, 40, random.Random(6))
    return write(tmp_path, format_source(circuit, all_z(6)), "above_budget.qc")


def wide_def(tmp_path, g):
    """A g-qubit file whose one instruction is a def on all g wires: a GHZ
    preparation, H q1 then a CNOT ladder."""
    formals = " ".join(f"q{i}" for i in range(1, g + 1))
    body = "; ".join(["H q1"] + [f"CNOT q{i} q{i + 1}" for i in range(1, g)])
    wires = " ".join(map(str, range(1, g + 1)))
    return write(tmp_path, f"qubits {g}\ndef W {formals} := {body}\nW {wires}\n")


def verify_file(size, tmp_path):
    """The file for ``size``, the name in ``pyoracle`` of the kernel that the
    entry point runs for it, then that of the other one."""
    if size == "small":
        return str(CIRCUITS / "ghz.qc"), "_verify", "_exact"
    return above_budget(tmp_path), "_exact", "_verify"


class TestParse:
    def test_ghz_file(self):
        circuit, input_type = parse(
            "qubits 3\ninput Z x Z x Z\nH 1; CNOT 1 2; CNOT 2 3\n"
        )
        assert circuit.n_qubits == 3
        assert len(circuit.instructions) == 3
        assert circuit.instructions[0].gate.name == "H"
        assert circuit.instructions[1].wires == (1, 2)
        assert input_type == parse_qtype("Z x Z x Z")

    def test_minimal_file(self):
        circuit, input_type = parse("qubits 1\nH 1\n")
        assert circuit.n_qubits == 1
        assert input_type is None

    def test_wire_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse("qubits 2\nCNOT 1 3\n")
        assert err.value.line == 2
        assert "wire 3 out of range" in err.value.message

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse("H 1\n")

    @pytest.mark.parametrize(
        "source, message, line",
        [
            ("", "missing 'qubits' header", 1),
            ("-- only a comment\n\n   \n", "missing 'qubits' header", 1),
            ("qubits 1\ndef G := H a\n", "expected 'def NAME wires... := body'", 2),
        ],
    )
    def test_header_and_def_head_faults_match_the_reference(self, source, message, line):
        assert _outcome(parse, source) == ("parse error", message, line, None)
        assert _outcome(parse, source) == _outcome(ref_parse, source)

    def test_unknown_gate_with_location(self):
        with pytest.raises(ParseError) as err:
            parse("qubits 1\n-- fine\nFROB 1\n")
        assert err.value.line == 3

    def test_comments_and_semicolons(self):
        circuit, _ = parse("qubits 2\nH 1 -- comment; CNOT 1 2\nCNOT 1 2;; H 2\n")
        names = [ins.gate.name for ins in circuit.instructions]
        assert names == ["H", "CNOT", "H"]

    def test_measure(self):
        circuit, _ = parse("qubits 2\nH 1\nMEAS 2\n")
        assert circuit.instructions[-1] == Measure(2)

    def test_def_gate(self):
        circuit, _ = parse("qubits 2\ndef BELL a b := H a; CNOT a b\nBELL 1 2\n")
        (app,) = circuit.instructions
        assert isinstance(app, GateApp)
        assert app.gate.name == "BELL"
        assert app.gate.z_images[0] == parse_literal("XX")

    def test_def_using_earlier_def(self):
        src = (
            "qubits 2\n"
            "def BELL a b := H a; CNOT a b\n"
            "def UNBELL a b := BELL b a\n"
            "UNBELL 1 2\n"
        )
        circuit, _ = parse(src)
        assert circuit.instructions[0].gate.name == "UNBELL"

    def test_def_errors(self):
        with pytest.raises(ParseError, match="already defined"):
            parse("qubits 1\ndef H a := S a; S a\n")
        with pytest.raises(ParseError, match=":="):
            parse("qubits 1\ndef FOO a\n")
        with pytest.raises(ParseError, match="formal"):
            parse("qubits 2\ndef FOO a b := H c\n")

    def test_repeated_wire(self):
        with pytest.raises(ParseError, match="distinct"):
            parse("qubits 2\nCNOT 1 1\n")

    def test_input_arity_checked(self):
        with pytest.raises(ParseError, match="covers 2 qubits"):
            parse("qubits 3\ninput Z x Z\nH 1\n")

    def test_non_ascii_decimal_digits_rejected(self):
        # Arabic-Indic digits are decimal digits that int() would read, but
        # only the input type may hold a non-ASCII character.
        for source, line, col in (
            ("qubits \u0663\nCNOT 1 3\n", 1, 8),
            ("qubits 3\nCNOT \u0661 3\n", 2, 6),
        ):
            with pytest.raises(ParseError, match="unexpected character") as err:
                parse(source)
            assert (err.value.line, err.value.col) == (line, col)

    def test_unicode_aliases_only_in_the_input_type(self):
        # Folding other lines read H 1⊗2 as H 12 and ⊤ 1 as T 1.
        _, input_type = parse("qubits 3\ninput Z⊗Z × ⊤ -- ⊗ in a comment\nH 1\n")
        assert input_type == parse_qtype("ZZ x T")
        cases = (("H 1⊗2", 4), ("H⊗ 1", 2), ("⊤ 1", 1), ("def F a := H a ∩", 16))
        for code, col in cases:
            with pytest.raises(ParseError) as err:
                parse(f"qubits 12\n{code}\n")
            assert err.value.message == f"unexpected character {code[col - 1]!r}"
            assert (err.value.line, err.value.col) == (2, col)

    def test_unicode_aliases_accepted(self):
        circuit, input_type = parse("qubits 2\ninput Z × Z\nCNOT 1 2\n")
        assert input_type == parse_qtype("Z x Z")

    def test_only_lf_crlf_and_cr_break_lines(self):
        # U+2028 and U+0085 are line breaks to str.splitlines, not to a .qc file.
        for sep in ("\u2028", "\u0085"):
            circuit, _ = parse(f"qubits 1\n-- a comment{sep}H 1\n")
            assert circuit.instructions == ()
            with pytest.raises(ParseError) as err:
                parse(f"qubits 1\nH 1{sep}H 1\n")
            assert err.value.message == f"unexpected character {sep!r}"
            assert (err.value.line, err.value.col) == (2, 4)
        lf = "qubits 2\ninput Z x Z\nH 1 -- note\n\nCNOT 1 2\n"
        for eol in ("\r\n", "\r"):
            source = lf.replace("\n", eol)
            assert parse(source) == parse(lf)
            assert _outcome(ref_parse, source) == _outcome(parse, lf)
        with pytest.raises(ParseError) as err:
            parse("qubits 1\r\nH 1\rFROB 1\r\n")
        assert (err.value.line, err.value.col) == (3, 1)

    def test_def_followed_by_a_tab(self):
        for head in ("def\tG a", "\tdef\tG\ta\t"):
            source = f"qubits 2\n{head} := H a\nG 1\n"
            circuit, _ = parse(source)
            assert circuit.instructions[0].gate.name == "G"
            assert _outcome(ref_parse, source) == _outcome(parse, source)

    def test_every_documented_gate_parses(self):
        src = (
            "qubits 3\n"
            "H 1; S 1; Sdg 2; T 3; Tdg 3\n"
            "X 1; Y 2; Z 3\n"
            "CNOT 1 2; CZ 2 3; SWAP 1 3; NOTC 1 2\n"
            "TOFFOLI 1 2 3\n"
            "MEAS 2\n"
        )
        circuit, _ = parse(src)
        names = [
            ins.gate.name if isinstance(ins, GateApp) else "MEAS"
            for ins in circuit.instructions
        ]
        assert names == [
            "H", "S", "Sdg", "T", "Tdg",
            "X", "Y", "Z",
            "CNOT", "CZ", "SWAP", "NOTC",
            "TOFFOLI", "MEAS",
        ]


def parse_literal(text):
    from gottesman.pauli import PauliString

    return PauliString.parse(text)


class TestFormatRoundTrip:
    @pytest.mark.parametrize("name", sorted(p.name for p in CIRCUITS.glob("*.qc")))
    def test_corpus_roundtrip(self, name):
        source = (CIRCUITS / name).read_text()
        ast = parse(source)
        regenerated = format_source(*ast)
        assert parse(regenerated) == ast

    def test_def_reemitted(self):
        src = "qubits 2\ndef BELL a b := H a; CNOT a b\nBELL 1 2\n"
        out = format_source(*parse(src))
        assert "def BELL a b := H a; CNOT a b" in out

    @pytest.mark.parametrize("arity", [17, 30])
    def test_def_past_sixteen_formals_roundtrips(self, arity):
        formals = [f"q{i}" for i in range(1, arity + 1)]
        body = "; ".join(f"CNOT {a} {b}" for a, b in zip(formals, formals[1:]))
        wires = " ".join(map(str, range(arity, 0, -1)))
        src = f"qubits {arity}\ndef WIDE {' '.join(formals)} := H q1; {body}\nWIDE {wires}\n"
        ast = parse(src)
        out = format_source(*ast)
        emitted = out.splitlines()[1].split(":=")[0].split()[2:]
        assert len(set(emitted)) == arity
        assert parse(out) == ast


class TestRunCheck:
    def test_superdense_judgment(self, capsys):
        assert run(["check", str(CIRCUITS / "superdense.qc")]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out == "Z x Z x Z x Z -> Z x Z x Z x Z"

    def test_trace_lines(self, capsys):
        assert run(["check", str(CIRCUITS / "superdense_z3.qc"), "--trace"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        types = [ln.split()[-1] for ln in lines[:-1]]
        assert types == ["IIZI", "IIXI", "IIXX", "ZIXX", "ZIXX", "ZIXI", "ZIZI"]

    def test_default_input_is_all_z(self, capsys, tmp_path):
        path = write(tmp_path, "qubits 2\nCNOT 1 2\n")
        assert run(["check", path]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "Z x Z -> Z x Z"

    def test_measurement_file(self, capsys):
        assert run(["check", str(CIRCUITS / "ghz_measure.qc")]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "Z x Z x Z -> Z x Z x Z"

    @pytest.mark.parametrize(
        "text, want",
        [
            ("qubits 2\ninput ZZ & ZZ\nMEAS 1\n", "ZZ & ZZ -> Z x Z"),
            (
                "qubits 3\ninput ZZI & ZZI & IIZ\nMEAS 1\nH 1\nCNOT 1 2\n",
                "ZZI & ZZI & IIZ -> (XX & ZZ) x Z",
            ),
        ],
        ids=["two-qubits", "gates-after-meas"],
    )
    def test_purity_is_the_rank_not_the_written_generators(self, capsys, tmp_path, text, want):
        # As many generators as qubits, one of them repeated: the state is
        # mixed, so the determined MEAS 1 adjoins Z_1.
        assert run(["check", write(tmp_path, text)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == want

    def test_top_output(self, capsys, tmp_path):
        path = write(tmp_path, "qubits 1\ninput X\nT 1\n")
        assert run(["check", path]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "X -> T"

    def test_json_schema(self, capsys):
        assert run(["check", str(CIRCUITS / "ghz_split.qc"), "--json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["command"] == "check"
        assert record["qubits"] == 3
        assert record["input"] == "Z x Z x Z"
        assert record["output"]["text"] == "Z x (XX & ZZ)"
        assert record["output"]["factors"] == [
            {"qubit": 1, "sign": 1, "basis": "Z"}
        ]
        assert record["output"]["remainder"] == {
            "support": [2, 3],
            "generators": ["XX", "ZZ"],
        }

    def test_json_trace(self, capsys):
        assert (
            run(["check", str(CIRCUITS / "ghz.qc"), "--json", "--trace"]) == EXIT_OK
        )
        record = json.loads(capsys.readouterr().out)
        assert [e["instruction"] for e in record["trace"]] == [
            "init",
            "H 1",
            "CNOT 1 2",
            "CNOT 2 3",
        ]

    def test_trace_transports_once(self, capsys, monkeypatch):
        # With --trace the output is read off the last entry, not typed again.
        from gottesman import checker

        calls = []

        def counting(*args, states=checker._states):
            calls.append(args)
            return states(*args)

        monkeypatch.setattr(checker, "_states", counting)
        path = str(CIRCUITS / "ghz_measure.qc")
        assert run(["check", path]) == EXIT_OK
        plain = capsys.readouterr().out
        calls.clear()
        assert run(["check", path, "--trace"]) == EXIT_OK
        assert len(calls) == 1
        assert capsys.readouterr().out.splitlines()[-1] == plain.strip()

    def test_parse_error_exit(self, capsys, tmp_path):
        path = write(tmp_path, "qubits 2\nCNOT 1 3\n")
        assert run(["check", path]) == EXIT_PARSE_ERROR
        assert "wire 3 out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, message",
        [
            # MEAS always measures, so a gate of that name could never run.
            (
                "qubits 1\ndef MEAS a := H a\nMEAS 1\n",
                "MEAS is reserved for measurement at line 2, col 5",
            ),
            # def bodies take the instruction lines' checks and columns.
            (
                "qubits 2\ndef F a b := CNOT a a\n",
                "CNOT: wires must be distinct at line 2, col 14",
            ),
            (
                "qubits 1\ndef F a := H a; FROB a\n",
                "unknown gate 'FROB' at line 2, col 17",
            ),
        ],
    )
    def test_def_faults_are_parse_errors(self, capsys, tmp_path, source, message):
        path = write(tmp_path, source)
        assert run(["check", path]) == EXIT_PARSE_ERROR
        assert capsys.readouterr().err == f"parse error: {message}\n"

    @pytest.mark.parametrize(
        "source, message",
        [
            # A superscript digit passes str.isdigit() but not int(); like
            # any non-ASCII character outside the input type, it is refused.
            ("qubits \u00b2\nH 1\n", "unexpected character '\u00b2' at line 1, col 8"),
            ("qubits 2\nH \u00b2\n", "unexpected character '\u00b2' at line 2, col 3"),
        ],
    )
    def test_superscript_digits_are_parse_errors(
        self, capsys, tmp_path, source, message
    ):
        path = write(tmp_path, source)
        assert run(["check", path]) == EXIT_PARSE_ERROR
        assert capsys.readouterr().err == f"parse error: {message}\n"

    @pytest.mark.parametrize(
        "source, message",
        [
            # A tensor sign folds to nothing, but it takes a column as written.
            ("qubits 1\ninput Z ⊗ Q\n", "unexpected character 'Q' at line 2, col 11"),
            # Only the input type is folded.
            ("qubits 2\nH 1 ⊗ ; H 9\n", "unexpected character '⊗' at line 2, col 5"),
        ],
    )
    def test_columns_count_tensor_signs(self, capsys, tmp_path, source, message):
        path = write(tmp_path, source)
        assert run(["check", path]) == EXIT_PARSE_ERROR
        assert capsys.readouterr().err == f"parse error: {message}\n"

    @pytest.mark.parametrize(
        "source, message",
        [
            # Past the end of the type text, comment and spaces excluded.
            ("qubits 2\ninput Z x  -- c\n",
             "unexpected end of type expression at line 2, col 10"),
            ("qubits 2\ninput\n",
             "unexpected end of type expression at line 2, col 6"),
            # At the unit that does not fit the intersection.
            ("qubits 2\ninput Z & ZZ\n",
             "mismatched arities in intersection at line 2, col 11"),
            # A literal seen before, at its own column.
            ("qubits 3\ninput Z x (ZZ & Z)\n",
             "mismatched arities in intersection at line 2, col 17"),
            ("qubits 2\ninput Z ∩ X⊗X\n",
             "mismatched arities in intersection at line 2, col 11"),
            ("qubits 1\ninput Z & T\n",
             "Top cannot appear inside an intersection at line 2, col 11"),
            ("qubits 2\ninput (Z x T) & ZZ\n",
             "Top cannot appear inside an intersection at line 2, col 7"),
        ],
    )
    def test_type_faults_have_columns(self, capsys, tmp_path, source, message):
        path = write(tmp_path, source)
        assert run(["check", path]) == EXIT_PARSE_ERROR
        assert capsys.readouterr().err == f"parse error: {message}\n"

    def test_type_error_exit(self, capsys, tmp_path):
        path = write(tmp_path, "qubits 1\ninput X & Z\nH 1\n")
        assert run(["check", path]) == EXIT_TYPE_ERROR
        assert "anticommute" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, message",
        [
            ("input X & -X", "group contains -1 * identity (product of generators 1, 2)"),
            (
                "input iX",
                "group contains -identity: element built from generators 1"
                " has phase i and squares to -I",
            ),
            (
                "input -iI",
                "group contains -identity: element built from generators 1"
                " has phase -i and squares to -I",
            ),
            # Inside a type, a literal is named by its place among the
            # generators as written.
            (
                "input XX & iZZ",
                "group contains -identity: element built from generators 2"
                " has phase i and squares to -I",
            ),
            ("input XX & -II", "group contains -1 * identity (product of generators 2)"),
            (
                "input Z x iZ",
                "group contains -identity: element built from generators 2"
                " has phase i and squares to -I",
            ),
        ],
    )
    def test_phased_identity_messages(self, capsys, tmp_path, source, message):
        # The width of the type: that of the first literal of each factor.
        factors = source.removeprefix("input ").split(" x ")
        n = sum(len(f.split()[0].lstrip("+-i")) for f in factors)
        path = write(tmp_path, f"qubits {n}\n{source}\nH 1\n")
        assert run(["check", path]) == EXIT_TYPE_ERROR
        assert capsys.readouterr().err == f"type error: {message}\n"

    def test_minus_identity_names_the_first_row_to_vanish(self, capsys, tmp_path):
        path = write(tmp_path, "qubits 2\ninput ZI & ZI & -ZI & IX\nH 1\n")
        assert run(["check", path]) == EXIT_TYPE_ERROR
        assert capsys.readouterr().err == (
            "type error: group contains -1 * identity (product of generators 1, 3)\n"
        )

    def test_json_sign_of_a_negative_factor(self, capsys, tmp_path):
        path = write(tmp_path, "qubits 1\ninput -Z\nH 1; H 1\n")
        assert run(["check", path, "--json"]) == EXIT_OK
        output = json.loads(capsys.readouterr().out)["output"]
        assert output["text"] == "-Z"
        assert output["factors"] == [{"qubit": 1, "sign": -1, "basis": "Z"}]

    def test_json_top_output(self, capsys, tmp_path):
        path = write(tmp_path, "qubits 1\ninput T\nH 1\n")
        assert run(["check", path, "--json"]) == EXIT_OK
        output = json.loads(capsys.readouterr().out)["output"]
        assert output == {"top": True, "text": "T"}

    def test_out_of_memory_is_reported(self, capsys, monkeypatch):
        from gottesman import cli

        def exhausted(circuit, input_type):
            raise MemoryError

        monkeypatch.setattr(cli, "check", exhausted)
        assert run(["check", str(CIRCUITS / "ghz.qc")]) == EXIT_TYPE_ERROR
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "out of memory\n")

    def test_measure_after_top_is_type_error(self, capsys, tmp_path):
        path = write(tmp_path, "qubits 1\ninput X\nT 1\nMEAS 1\n")
        assert run(["check", path]) == EXIT_TYPE_ERROR

    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "absent.qc"
        assert run(["check", str(path)]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: cannot read {path}: No such file or directory\n"

    def test_input_nested_past_the_recursion_limit(self, capsys, tmp_path):
        """The type parser keeps a stack of open parentheses, not frames."""
        depth = 100_000
        text = "(" * depth + "X" + ")" * depth
        assert run(["check", write(tmp_path, f"qubits 1\ninput {text}\n")]) == EXIT_OK
        assert capsys.readouterr().out == f"{text} -> X\n"

    def test_non_utf8_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.qc"
        path.write_bytes("qubits 1\n-- caf\u00e9\nH 1\n".encode("latin-1"))
        for command in ("check", "tableau", "verify"):
            assert run([command, str(path)]) == EXIT_PARSE_ERROR
            assert "not UTF-8" in capsys.readouterr().err


class TestRunTableau:
    def test_ghz(self, capsys):
        assert run(["tableau", str(CIRCUITS / "ghz.qc")]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert "Z1 -> XXX" in lines
        assert "Z2 -> ZZI" in lines
        assert "Z3 -> IZZ" in lines

    def test_toffoli_json(self, capsys):
        assert run(["tableau", str(CIRCUITS / "toffoli.qc"), "--json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        rows = {r["generator"]: r["image"] for r in record["rows"]}
        assert rows["X1"] == "TTT"
        assert rows["X3"] == "IIX"
        assert rows["Z1"] == "ZII"

    def test_measurement_rejected(self, capsys):
        assert run(["tableau", str(CIRCUITS / "ghz_measure.qc")]) == EXIT_TYPE_ERROR


class TestRunGates:
    def test_table_rows(self, capsys):
        assert run(["gates"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        for expected in (
            "Z: X -> -X",
            "Z: Z -> Z",
            "X: X -> X",
            "X: Z -> -Z",
            "Y: X -> -X",
            "Y: Z -> -Z",
            "CZ: IX -> ZX",
            "SWAP: XI -> IX",
            "TOFFOLI: XII -> TTT",
            "TOFFOLI: IIX -> IIX",
        ):
            assert expected in lines

    def test_json(self, capsys):
        assert run(["gates", "--json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        by_name = {g["name"]: g for g in record["gates"]}
        assert by_name["CNOT"]["rows"] == [
            {"input": "XI", "output": "XX"},
            {"input": "IX", "output": "IX"},
            {"input": "ZI", "output": "ZI"},
            {"input": "IZ", "output": "ZZ"},
        ]


class TestRunVerify:
    def test_ghz_passes(self, capsys):
        assert run(["verify", str(CIRCUITS / "ghz.qc"), "--seed", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ok" in out and "seed=7" in out

    def test_superdense_passes(self, capsys):
        assert run(["verify", str(CIRCUITS / "superdense.qc")]) == EXIT_OK

    def test_toffoli_skips_top_rows(self, capsys):
        assert run(["verify", str(CIRCUITS / "toffoli.qc")]) == EXIT_OK

    def test_json(self, capsys):
        assert (
            run(["verify", str(CIRCUITS / "ghz.qc"), "--json", "--samples", "4"])
            == EXIT_OK
        )
        record = json.loads(capsys.readouterr().out)
        assert record["failures"] == []
        assert record["checks"] >= 6

    def test_measurement_rejected(self, capsys):
        assert run(["verify", str(CIRCUITS / "ghz_measure.qc")]) == EXIT_TYPE_ERROR

    def test_split_type_separability_checked(self, capsys):
        assert run(["verify", str(CIRCUITS / "ghz_split.qc"), "--json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        # 6 conjugations + transport + one factored qubit
        assert record["checks"] == 8

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_counts_below_one_rejected(self, capsys, count):
        with pytest.raises(SystemExit) as exit_info:
            run(["verify", str(CIRCUITS / "ghz.qc"), "--samples", count])
        assert exit_info.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["verify", str(CIRCUITS / "ghz.qc"), "--seed", "-1"])
        assert exit_info.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err

    def test_mismatch_exit_code(self, capsys, monkeypatch, tmp_path):
        def all_wrong(circuit, pairs, input_type, transported, samples, seed):
            return [False] * len(pairs), [0.0] * len(transported)

        def unselected(*args, **kwargs):
            raise AssertionError("verify ran the kernel it did not select")

        from gottesman import pyoracle

        for size, image in (("small", "ZII"), ("above budget", "ZIZZIZ")):
            path, selected, other = verify_file(size, tmp_path)
            monkeypatch.setattr(pyoracle, selected, all_wrong)
            monkeypatch.setattr(pyoracle, other, unselected)
            assert run(["verify", path]) == EXIT_ORACLE_MISMATCH
            out = capsys.readouterr().out
            assert "MISMATCH" in out
            assert f"FAIL conjugation mismatch: X1 -> {image}\n" in out

    def test_false_separability_claim_fails(self, capsys, monkeypatch):
        """The right group with a wrong factor: transport holds, and the
        transported eigenstates refute only the claimed factor."""
        from types import SimpleNamespace

        from gottesman import cli
        from gottesman.pauli import PauliString

        def wrong_factor(circuit, input_type):
            true = check(circuit, input_type)
            factors = true.factors + ((3, PauliString.parse("Z")),)
            return SimpleNamespace(top=False, stab=true.stab, factors=factors)

        check = cli.check
        monkeypatch.setattr(cli, "check", wrong_factor)
        ghz_split = str(CIRCUITS / "ghz_split.qc")
        assert run(["verify", ghz_split, "--json"]) == EXIT_ORACLE_MISMATCH
        record = json.loads(capsys.readouterr().out)
        assert record["checks"] == 9  # 6 conjugations, transport, two factors
        assert record["failures"] == ["separability not confirmed at qubit 3"]

    @pytest.mark.parametrize("claim", ["-Z", "X"])
    @pytest.mark.parametrize("size", ["small", "above budget"])
    def test_wrong_factor_is_refuted(self, capsys, monkeypatch, tmp_path, size, claim):
        """+Z holds at qubit k. The right group with -Z claimed there (the
        wrong sign) or X (the wrong basis) is refuted at k alone, on either
        kernel, though qubit k is unentangled either way."""
        from types import SimpleNamespace

        from gottesman import cli, pyoracle
        from gottesman.checker import Circuit
        from gottesman.pauli import PauliString

        def unselected(*args, **kwargs):
            raise AssertionError("verify ran the kernel it did not select")

        if size == "small":  # Z x (XX & ZZ)
            path, k, other = str(CIRCUITS / "ghz_split.qc"), 1, "_exact"
        else:  # the above-budget circuit, and a seventh qubit it leaves alone
            circuit = random_clifford_circuit(6, 40, random.Random(6))
            source = format_source(Circuit(7, circuit.instructions), all_z(7))
            path, k, other = write(tmp_path, source), 7, "_verify"
        z, wrong = PauliString.parse("Z"), PauliString.parse(claim)
        check = cli.check

        def wrong_factor(circuit, input_type):
            true = check(circuit, input_type)
            assert (k, z) in true.factors
            factors = tuple((j, wrong if j == k else u) for j, u in true.factors)
            return SimpleNamespace(top=False, stab=true.stab, factors=factors)

        monkeypatch.setattr(cli, "check", wrong_factor)
        monkeypatch.setattr(pyoracle, other, unselected)
        assert run(["verify", path, "--json"]) == EXIT_ORACLE_MISMATCH
        record = json.loads(capsys.readouterr().out)
        assert record["failures"] == [f"separability not confirmed at qubit {k}"]

    @pytest.mark.parametrize("size", ["small", "above budget"])
    def test_wrong_output_type_is_refuted(self, capsys, monkeypatch, tmp_path, size):
        """Z x ... x Z claimed for the output: the transported eigenstates
        refute it, and refute the claimed +Z at each qubit k where +Z_k is
        not in the true output group (by ``stabilizer.member``), on either
        kernel: every entangled qubit, and every factored one whose true
        factor is not +Z."""
        from gottesman import cli, pyoracle
        from gottesman.pauli import from_bits
        from gottesman.stabilizer import member

        def unselected(*args, **kwargs):
            raise AssertionError("verify ran the kernel it did not select")

        path, _, other = verify_file(size, tmp_path)
        circuit, input_type = parse(pathlib.Path(path).read_text())
        n, true = circuit.n_qubits, cli.check(circuit, input_type)
        z = [from_bits(n, 0, 1 << k - 1) for k in range(1, n + 1)]
        unfixed = [k for k in range(1, n + 1) if member(true.stab, z[k - 1]) != 0]
        monkeypatch.setattr(pyoracle, other, unselected)
        monkeypatch.setattr(cli, "check", lambda *_: parse_qtype(" x ".join("Z" * n)))
        assert run(["verify", path, "--json"]) == EXIT_ORACLE_MISMATCH
        record = json.loads(capsys.readouterr().out)
        assert record["checks"] == 2 * n + 1 + n  # conjugations, transport, factors
        residual, *refuted = record["failures"]
        assert residual.startswith("eigenstate transport residual ")
        assert refuted == [f"separability not confirmed at qubit {k}" for k in unfixed]
        if size == "small":
            assert (record["checks"], unfixed) == (10, [1, 2, 3])
        else:  # factors Y1, -Z3, -Z5 and -X6, none of them +Z
            assert (record["checks"], unfixed) == (19, [1, 2, 3, 4, 5, 6])

    def test_past_fourteen_qubits_verifies(self, capsys, tmp_path):
        """15 qubits, past the state vectors' old cap of 14: the work is above
        the budget, so the claims are decided by propagation."""
        src = "qubits 15\ninput Z x XX & ZZ x IIIIIIIIIIII\nH 1; CNOT 2 15\n"
        path = write(tmp_path, src)
        assert run(["verify", path, "--json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        # 30 conjugations, transport, and the factor X at qubit 1
        assert (record["checks"], record["failures"]) == (32, [])

    def test_samples_past_the_old_batch_cap_verify(self, capsys, monkeypatch, tmp_path):
        """10^15 samples were once refused as past a 128 MiB batch. Both
        files' input types are pure, so state vectors would draw one
        eigenstate: ghz.qc's work is within the budget and draws it, and the
        above-budget file's claims are decided by propagation, which draws
        none."""
        from gottesman import pyoracle

        drawn, sample = [], pyoracle._sample_states

        def spy(n, gens, count, rng):
            drawn.append(count)
            return sample(n, gens, count, rng)

        monkeypatch.setattr(pyoracle, "_sample_states", spy)
        for size, checks, draws in (("small", 7, [1]), ("above budget", 17, [])):
            drawn.clear()
            path = verify_file(size, tmp_path)[0]
            assert run(["verify", path, "--samples", "1" + "0" * 15, "--json"]) == EXIT_OK
            record = json.loads(capsys.readouterr().out)
            assert (record["samples"], record["checks"]) == (10**15, checks)
            assert record["failures"] == [] and drawn == draws

    @pytest.mark.parametrize("input_line", ["", "input T\n"])
    def test_samples_not_drawn_are_not_counted(self, capsys, tmp_path, input_line):
        """Without an input type, or with Top, no eigenstate is drawn, so
        ``--samples`` does not count in the work: state vectors check it."""
        path = write(tmp_path, f"qubits 1\n{input_line}H 1\n")
        assert run(["verify", path, "--samples", "1" + "0" * 12, "--json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert (record["samples"], record["checks"]) == (10**12, 2)

    def test_samples_not_counted_when_the_output_is_top(self, capsys, tmp_path):
        """A typed input whose output is Top draws no eigenstate either."""
        path = write(tmp_path, "qubits 1\ninput X\nT 1\n")
        assert run(["verify", path, "--samples", "1" + "0" * 12, "--json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert (record["samples"], record["checks"]) == (10**12, 1)  # Z1 -> Z

    def test_samples_drawn_are_counted(self, capsys, monkeypatch, tmp_path):
        """Eigenstates are drawn here, so the work counts them: one of the pure
        Z, on state vectors, and the 10^12 asked of the mixed Z x I, which
        sends the claims to propagation. Both verify."""
        from gottesman import pyoracle

        ran = []

        def recorded(name):
            kernel = getattr(pyoracle, name)

            def run_kernel(*args):
                ran.append(name)
                return kernel(*args)

            return run_kernel

        for name in ("_verify", "_exact"):
            monkeypatch.setattr(pyoracle, name, recorded(name))
        for text, checks in (("qubits 1\ninput Z\nH 1\n", 4), ("qubits 2\ninput Z x I\nH 1\n", 6)):
            assert run(["verify", write(tmp_path, text), "--samples", "1" + "0" * 12]) == EXIT_OK
            assert capsys.readouterr().out == (
                f"ok: {checks}/{checks} oracle checks passed (seed=7, samples=1000000000000)\n"
            )
        assert ran == ["_verify", "_exact"]

    def test_cached_parser_keeps_no_state_between_runs(self, capsys):
        from gottesman import cli

        ghz = str(CIRCUITS / "ghz.qc")
        args = ["verify", ghz, "--seed", "3", "--samples", "2", "--json"]
        assert run(args) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert (record["seed"], record["samples"]) == (3, 2)
        with pytest.raises(SystemExit) as exit_info:
            run(["verify", ghz, "--samples", "0"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        assert run(["verify", ghz, "--json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert (record["seed"], record["samples"]) == (7, 16)
        assert cli._build_parser() is cli._build_parser()

    def test_deep_def_chain_verifies(self, capsys, monkeypatch, tmp_path):
        """Each kernel builds a derived gate's form from its parts, leaves
        first, without recursing through 1000 nested decompositions, and
        looks gates up without comparing them: the second run's gates equal
        the first's."""
        from gottesman import pyoracle

        depth = 1000
        defs = [f"def G{i} a := G{i - 1} a" for i in range(1, depth)]
        source = "\n".join(["qubits 1", "def G0 a := H a", *defs, f"G{depth - 1} 1"])
        path = write(tmp_path, source + "\n")
        for budget in (2**62, -1):  # the state-vector kernel, then the exact one
            monkeypatch.setattr(pyoracle, "WORK_BUDGET", budget)
            for _ in range(2):
                assert run(["verify", path, "--json"]) == EXIT_OK
                record = json.loads(capsys.readouterr().out)
                assert record["checks"] == 2 and record["failures"] == []
        chain, h = parse(source)[0].instructions[0].gate, standard_gates()["H"]
        assert pyoracle._conjugation(chain) == pyoracle._conjugation(h)
        got, want = pyoracle._sparse_unitary(chain), pyoracle._sparse_unitary(h)
        assert [[c for c, _ in row] for row in got] == [[c for c, _ in row] for row in want]
        assert max(abs(e - f) for r, t in zip(got, want) for (_, e), (_, f) in zip(r, t)) < 1e-12

    def test_repeated_verify_keeps_no_gate_of_past_runs(self, capsys, tmp_path):
        """Both kernels keep a def's forms on its spec, so they go with its
        parse: repeated in-process runs leave no gate behind."""
        import gc

        from gottesman.gates import GateSpec

        def live_gates():
            gc.collect()
            return sum(type(o) is GateSpec for o in gc.get_objects())

        # A def on 3 wires is within the state vectors' budget; one on 7 is not.
        (tmp_path / "wide").mkdir()
        paths = [wide_def(tmp_path, 3), wide_def(tmp_path / "wide", 7)]
        counts = []
        for _ in range(3):
            for path in paths * 4:
                assert run(["verify", path, "--json"]) == EXIT_OK
                assert json.loads(capsys.readouterr().out)["failures"] == []
            counts.append(live_gates())
        assert counts[0] == counts[1] == counts[2]

    def test_def_on_twelve_wires_verifies(self, capsys, monkeypatch, tmp_path):
        """A def on 12 wires has a 4096x4096 unitary, once refused as past a
        128 MiB cap. Its work is above the budget, so its 24 unit images are
        pushed through its decomposition and no unitary is built."""
        from gottesman import pyoracle

        def refuse(*args, **kwargs):
            raise AssertionError("no state vector or dense unitary is built")

        for name in ("_verify", "_sparse_unitary"):
            monkeypatch.setattr(pyoracle, name, refuse)
        assert run(["verify", wide_def(tmp_path, 12), "--json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert (record["checks"], record["failures"]) == (24, [])

    def test_def_within_the_unitary_cap_verifies(self, capsys, tmp_path):
        assert run(["verify", wide_def(tmp_path, 11), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["checks"] == 22

    def test_at_the_qubit_cap_verifies(self, capsys, tmp_path):
        path = write(tmp_path, "qubits 14\nH 1; CNOT 1 14; CNOT 14 5\n")
        assert run(["verify", path, "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["checks"] == 28

    def test_kitchen_sink_clifford_circuit(self, capsys, tmp_path):
        src = (
            "qubits 3\n"
            "input Z x Z x Z\n"
            "H 1; S 1; Sdg 2; X 1; Y 2; Z 3\n"
            "CNOT 1 2; CZ 2 3; SWAP 1 3; NOTC 1 2\n"
        )
        path = write(tmp_path, src)
        assert run(["verify", path, "--samples", "4"]) == EXIT_OK


def test_no_command_imports_numpy_or_dataclasses(tmp_path):
    """No command loads numpy, on either kernel of ``verify``, and none loads
    ``dataclasses`` or, through it, ``inspect``, whose imports would cost
    more start-up time than the package."""
    code = (
        "import contextlib, io, json, sys\n"
        "from gottesman import cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "    codes = [cli.run([command, sys.argv[1]]) for command in sys.argv[2:]]\n"
        "loaded = [m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')]\n"
        "print(json.dumps([codes, err.getvalue(), *loaded]))\n"
    )
    ghz = str(CIRCUITS / "ghz.qc")
    checked = fresh_run(code, ghz, "check", "tableau")
    assert checked == [[EXIT_OK, EXIT_OK], "", False, False, False]
    assert fresh_run(code, ghz, "verify") == [[EXIT_OK], "", False, False, False]
    verified = fresh_run(code, above_budget(tmp_path), "verify")
    assert verified == [[EXIT_OK], "", False, False, False]
    measured = fresh_run(code, str(CIRCUITS / "ghz_measure.qc"), "verify")
    message = "type error: verify requires a measurement-free circuit\n"
    assert measured == [[EXIT_TYPE_ERROR], message, False, False, False]
    malformed = write(tmp_path, "qubits 2\nFROB 1\n")
    codes, err, *loaded = fresh_run(code, malformed, "verify")
    assert codes == [EXIT_PARSE_ERROR] and err.startswith("parse error:")
    assert loaded == [False, False, False]


def test_verify_never_imports_numpy(tmp_path):
    """Every measurement-free worked example verifies on state vectors; a
    6-qubit, 40-gate file and H 1; CNOT 1 2 on 15 qubits verify by
    propagation. All pass, and numpy is never imported."""
    code = (
        "import contextlib, io, json, sys\n"
        "from gottesman import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    codes = [cli.run(['verify', f, '--json']) for f in sys.argv[1:]]\n"
        "print(json.dumps([codes, out.getvalue(), 'numpy' in sys.modules]))\n"
    )
    files = [
        str(path)
        for path in sorted(CIRCUITS.glob("*.qc"))
        if "MEAS" not in path.read_text()
    ]
    assert len(files) == 8
    codes, out, numpy_loaded = fresh_run(code, *files)
    assert codes == [EXIT_OK] * len(files) and not numpy_loaded
    assert out.count('"failures": []') == len(files)
    codes, out, numpy_loaded = fresh_run(code, above_budget(tmp_path))
    assert codes == [EXIT_OK] and not numpy_loaded
    assert json.loads(out)["failures"] == []
    wide = write(tmp_path, "qubits 15\nH 1; CNOT 1 2\n", "wide.qc")
    codes, out, numpy_loaded = fresh_run(code, wide)
    assert codes == [EXIT_OK] and not numpy_loaded
    assert json.loads(out)["checks"] == 30 and json.loads(out)["failures"] == []


# --- the parser against its checking reference ---------------------------------

_ONE_WIRE = ("H", "S", "Sdg", "X", "Y", "Z", "T", "Tdg")
_TWO_WIRE = ("CNOT", "NOTC", "CZ", "SWAP")
# What a single-token mutation puts in: names, keywords, wires in and out
# of range, digits int() refuses, formals, type tokens, unicode aliases, and
# two characters str.splitlines breaks at but a .qc line does not.
_VOCAB = (
    "H", "CNOT", "TOFFOLI", "G", "MEAS", "FROB", "def", "input", "qubits",
    ":=", ";", "--", "0", "1", "2", "3", "9", "12", "01", "²", "a", "b", "c",
    "Q", "é", "⊗", "×", "∩", "−", "⊤", "&", "x",
    "(", ")", "->", "iX", "-I", "II", "XX", "ZZ", "TT", "-iZ", "YZ",
    "X⊗X", "1⊗2", "H⊗", "\u2028", "\u0085",
)


def _random_component(rng, m, top=True):
    """A well-formed type over m qubits, in the input syntax; Top only if ``top``."""
    roll = rng.random()
    if m == 1 and roll < 0.5:
        return rng.choice(("Z", "-Z", "X", "-X", "Y", "+Y", "I"))
    if top and roll < 0.08:
        return "T" * m
    if m >= 2 and roll < 0.2:
        return f"({_random_type(rng, m, top)})"
    if m >= 2 and roll < 0.3:
        # A parenthesized product inside an intersection.
        rest = _random_component(rng, m - 1, top=False)
        return f"(Z x {rest}) & Z{'I' * (m - 1)}"
    gens = random_stab_type(m, rng, depth=6).generators
    text = " & ".join(map(str, gens))
    return f"({text})" if len(gens) > 1 and rng.random() < 0.3 else text


def _random_type(rng, n, top=True):
    parts = []
    while n:
        m = rng.randint(1, min(n, 3))
        parts.append(_random_component(rng, m, top))
        n -= m
    return " x ".join(parts)


def _unicode(rng, text):
    """Swap in unicode aliases and put in tensor signs, which fold to
    nothing: often between two letters of a literal, and rarely between any
    two characters (inside ``-i`` or ``->``, next to an operator, a
    parenthesis or a space)."""
    out = []
    for i, ch in enumerate(text):
        alias = {"&": "∩", "x": "×", "-": "−", "T": "⊤"}.get(ch)
        out.append(alias if alias and rng.random() < 0.3 else ch)
        after = text[i + 1 : i + 2]
        if after:
            inside = ch in "IXYZT" and after in "IXYZT"
            if rng.random() < (0.15 if inside else 0.03):
                out.append("⊗")
    return "".join(out)


def _random_file(rng):
    """A valid ``.qc`` text: an input type, a def (now and then with a tab
    after ``def``), Clifford and T gates, MEAS, comments, blank lines and
    several instructions to a line, some with a leading-zero wire, a tab
    between words or spaces around them."""
    n = rng.randint(1, 5)
    lines = [f"qubits {n}"]
    if rng.random() < 0.8:
        lines.append(f"input {_unicode(rng, _random_type(rng, n))}")
    two = _TWO_WIRE
    if n >= 2 and rng.random() < 0.6:
        steps = ("H a", "S b", "CNOT a b", "CZ b a", "SWAP a b")
        body = [rng.choice(steps) for _ in range(rng.randint(1, 3))]
        # Read from the body, not drawn, so the seeded fuzz streams stay put.
        gap = "\t" if len(body) == 2 else " "
        lines.append(f"def{gap}G a b := {'; '.join(body)}")
        two += ("G",)

    def instruction():
        roll = rng.random()
        if roll < 0.1:
            words = ["MEAS", rng.randint(1, n)]
        elif n >= 3 and roll < 0.15:
            words = ["TOFFOLI", *rng.sample(range(1, n + 1), 3)]
        elif n >= 2 and roll < 0.6:
            words = [rng.choice(two), *rng.sample(range(1, n + 1), 2)]
        else:
            words = [rng.choice(_ONE_WIRE), rng.randint(1, n)]
        text = words[0]
        for w in words[1:]:
            # Now and then a tab between words, or a leading zero (``H 01``).
            text += rng.choice((" ", " ", " ", "\t")) + "0" * (rng.random() < 0.1) + str(w)
        pad = rng.choice(("", "", " ", "  "))  # spaces around the part
        return pad + text + pad

    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(("", "   ", "-- café ⊗ note")))
            continue
        chunks = [instruction() for _ in range(rng.randint(1, 3))]
        line = rng.choice((";", "; ", " ;  ", ";;")).join(chunks)
        if roll < 0.25:
            line += " -- " + rng.choice(("comment", "H 9", "⊗"))
        lines.append(rng.choice(("", " ", "\t")) + line)
    return "\n".join(lines) + "\n"


# A two-wire instruction, its wires in decimal on one line, for the rewrite
# that gives it its first wire twice.
_TWO_WIRE_PART = re.compile(r"\b((?:CNOT|NOTC|CZ|SWAP|G)[ \t]+(\d+)[ \t]+)\d+")


def _mutate(rng, text):
    """One token of ``text`` replaced, deleted, or preceded or glued by a
    token from ``_VOCAB``; in the input type for about a third of files.
    Now and then a targeted rewrite instead, for faults a random token
    seldom writes: a def's formals get a repeat (``def G a b a``), its name
    a leading digit (``def 9G``), or a two-wire instruction its first wire
    twice (``CNOT 2 2``)."""
    lines = text.split("\n")
    defs = [i for i, line in enumerate(lines) if line.startswith("def")]
    roll = rng.random()
    if defs and roll < 0.1:
        old, new = ("G a b :=", "G a b a :=") if roll < 0.05 else ("G a b", "9G a b")
        lines[defs[0]] = lines[defs[0]].replace(old, new, 1)
        return "\n".join(lines)
    if roll > 0.95 and _TWO_WIRE_PART.search(text):
        return _TWO_WIRE_PART.sub(r"\1\2", text, count=1)
    if len(lines) > 2 and lines[1].startswith("input") and rng.random() < 0.35:
        lines[1] = "input " + _mutate_token(rng, lines[1][len("input ") :])
        return "\n".join(lines)
    return _mutate_token(rng, text)


def _mutate_token(rng, text):
    pieces = re.split(r"(\s+)", text)
    words = [i for i, piece in enumerate(pieces) if piece and not piece.isspace()]
    i = rng.choice(words)
    token = rng.choice(_VOCAB)
    op = rng.randrange(4)
    if op == 0:
        pieces[i] = token
    elif op == 1:
        pieces[i] = ""
    elif op == 2:
        pieces[i] = f"{token} {pieces[i]}"
    else:
        pieces[i] += token
    return "".join(pieces)


def _outcome(parser, text):
    try:
        circuit, input_type = parser(text)
    except ParseError as err:
        return ("parse error", err.message, err.line, err.col)
    except GottesmanError as err:
        return (type(err).__name__, str(err))
    rows = None
    if input_type is not None and not input_type.top:
        rows = input_type.stab.tableau
    return ("parsed", circuit, rows, str(input_type), input_type)


class TestParseMatchesReference:
    """``parse`` checks each instruction and type once and builds what it
    checked without checks; the reference builds everything with them."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_valid_files_parse_alike(self, rng):
        text = _random_file(rng)
        want = _outcome(ref_parse, text)
        assert want[0] == "parsed", want
        assert _outcome(parse, text) == want

    @settings(max_examples=600, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_mutated_files_fail_alike(self, rng):
        text = _mutate(rng, _random_file(rng))
        assert _outcome(parse, text) == _outcome(ref_parse, text)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_types_parse_alike(self, rng):
        # Aliases and tensor signs go in after the mutation, so they reach
        # the tokens it adds, such as ``-iZ`` and ``->``.
        text = _random_type(rng, rng.randint(1, 6))
        if rng.random() < 0.7:
            text = _mutate_token(rng, text)
        text = _unicode(rng, text)

        def both(parser):
            return _outcome(lambda t: (None, parser(t)), text)

        assert both(parse_qtype) == both(ref_parse_qtype)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_printed_types_parse_back(self, rng):
        q = parse_qtype(_unicode(rng, _random_type(rng, rng.randint(1, 6))))
        assert parse_qtype(str(q)) == q
        assert str(parse_qtype(str(q))) == str(q)

    @settings(max_examples=1500, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_general_checker_reads_parts_as_the_fast_path_does(self, rng):
        # ``_instruction`` reads one- and two-wire parts on an unrolled path
        # and leaves every other part to ``_general``, which must read any
        # one-, two- or three-wire part alone to the same instruction or fault.
        from gottesman import cli
        from gottesman.gates import derive_gate

        n = rng.randint(1, 4)
        gates = dict(standard_gates())
        gates["G"] = derive_gate("G", 3, gates["TOFFOLI"].decomposition)
        name = rng.choice([*gates, "MEAS", "MEAS", "FROB"])
        args = [
            rng.choice((str(rng.randint(1, n)), str(rng.randint(1, n)), "0", str(n + 1), "01", "a"))
            for _ in range(rng.randint(1, 3))
        ]
        part = rng.choice(("", " ", "\t")) + " ".join([name, *args]) + rng.choice(("", " "))
        code = rng.choice(("", "H 1;", " S 1 ;")) + part

        def read(reader):
            try:
                return reader(gates, 4, code, part, n)
            except ParseError as err:
                return err.message, err.line, err.col

        assert read(cli._general) == read(cli._instruction)

    def test_mutations_reach_every_kind_of_fault(self):
        # The mutations must reach the parse errors of instruction lines,
        # def lines and types, and the type errors of ill-formed input.
        rng = random.Random(2297)
        seen = collections.Counter()
        for _ in range(3000):
            text = _mutate(rng, _random_file(rng))
            got = _outcome(parse, text)
            assert got == _outcome(ref_parse, text)
            seen[got[1].split("'")[0] if got[0] == "parse error" else got[0]] += 1
        for fault in (
            "parsed",
            "IllFormedTypeError",
            "unknown gate ",
            "expected a wire number, got ",
            "unexpected character ",
            "expected a Pauli literal, got ",
            "mismatched arities in intersection",
            "Top cannot appear inside an intersection",
            "unknown formal wire ",
            "MEAS takes exactly one qubit",
            "unexpected end of type expression",
            "a ",  # a 'def' needs ':=' before its body
            "bad gate name ",
            "formal wires must be distinct",
        ):
            assert fault in seen, (fault, sorted(seen))
        # Gate faults name their gate: "H needs 1 wires, got 2", "CNOT: wires must be distinct".
        for fault in (" wires, got ", ": wires must be distinct"):
            assert any(fault in s for s in seen), (fault, sorted(seen))
        # The targeted rewrites reach their faults on purpose, not by chance.
        assert seen["bad gate name "] > 20, seen["bad gate name "]
        distinct = sum(n for s, n in seen.items() if s.endswith(": wires must be distinct"))
        assert distinct > 20, distinct
        for prefix in ("wire ", "input type covers "):
            assert sum(s.startswith(prefix) for s in seen) > 1, prefix
