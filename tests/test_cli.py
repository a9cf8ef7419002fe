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
from gottesman.gates import GateApp
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
    """A seeded 6-qubit, 40-gate Clifford file with an input type: 2^6 x 42
    columns x 41 passes, far above ``pyoracle.WORK_BUDGET``, so ``verify``
    takes the numpy oracle."""
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
    """The file for ``size`` and the module whose ``_verify`` kernel the
    entry point runs for it, then the other one."""
    from gottesman import oracle, pyoracle

    if size == "small":
        return str(CIRCUITS / "ghz.qc"), pyoracle, oracle
    return above_budget(tmp_path), oracle, pyoracle


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
        def all_wrong(circuit, pairs, input_type, transported, samples, seed, qubits):
            return [False] * len(pairs), 0.0, [True] * len(qubits)

        def unselected(*args, **kwargs):
            raise AssertionError("verify ran the kernel it did not select")

        for size, image in (("small", "ZII"), ("above budget", "ZIZZIZ")):
            path, selected, other = verify_file(size, tmp_path)
            monkeypatch.setattr(selected, "_verify", all_wrong)
            monkeypatch.setattr(other, "_verify", unselected)
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

    @pytest.mark.parametrize("size", ["small", "above budget"])
    def test_wrong_output_type_is_refuted(self, capsys, monkeypatch, tmp_path, size):
        """Z x ... x Z claimed for the output: the transported eigenstates
        refute it, and refute the claimed factor at each qubit that the true
        output does not factor, on either kernel."""
        from gottesman import cli

        def unselected(*args, **kwargs):
            raise AssertionError("verify ran the kernel it did not select")

        path, _, other = verify_file(size, tmp_path)
        circuit, input_type = parse(pathlib.Path(path).read_text())
        n, true = circuit.n_qubits, cli.check(circuit, input_type)
        entangled = sorted(set(range(1, n + 1)) - {k for k, _ in true.factors})
        monkeypatch.setattr(other, "_verify", unselected)
        monkeypatch.setattr(cli, "check", lambda *_: parse_qtype(" x ".join("Z" * n)))
        assert run(["verify", path, "--json"]) == EXIT_ORACLE_MISMATCH
        record = json.loads(capsys.readouterr().out)
        assert record["checks"] == 2 * n + 1 + n  # conjugations, transport, factors
        residual, *refuted = record["failures"]
        assert residual.startswith("eigenstate transport residual ")
        assert refuted == [f"separability not confirmed at qubit {k}" for k in entangled]
        if size == "small":
            assert (record["checks"], entangled) == (10, [1, 2, 3])

    def test_over_the_qubit_cap_is_oracle_unavailable(
        self, capsys, tmp_path, monkeypatch
    ):
        from gottesman import cli

        src = "qubits 15\ninput Z x XX & ZZ x IIIIIIIIIIII\nH 1; CNOT 2 15\n"
        path = write(tmp_path, src)
        assert run(["check", path]) == EXIT_OK
        capsys.readouterr()

        def no_tableau(circuit):
            raise AssertionError("the size must be checked before any tableau work")

        monkeypatch.setattr(cli, "infer_tableau", no_tableau)
        assert run(["verify", path, "--json"]) == EXIT_ORACLE_UNAVAILABLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "oracle unavailable: 15 qubits exceeds the dense cap of 14\n"
        )

    def test_over_the_batch_cap_is_oracle_unavailable(self, capsys, monkeypatch, tmp_path):
        from gottesman import cli, oracle, pyoracle

        def refuse(*args, **kwargs):
            raise AssertionError("the batch must be checked before any work")

        for module in (oracle, pyoracle):
            for name in ("_verify", "_sample_states"):
                monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(oracle, "sample_eigenstates", refuse)
        monkeypatch.setattr(cli, "infer_tableau", refuse)
        for size, n in (("small", 3), ("above budget", 6)):
            path = verify_file(size, tmp_path)[0]
            assert run(["verify", path, "--samples", "1" + "0" * 15]) == (
                EXIT_ORACLE_UNAVAILABLE
            )
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"oracle unavailable: 1000000000000000 samples on {n} qubits"
                " exceed the batch cap of 128 MiB\n"
            )

    @pytest.mark.parametrize("input_line", ["", "input T\n"])
    def test_samples_not_drawn_are_not_counted(self, capsys, tmp_path, input_line):
        """Without an input type, or with Top, no eigenstate is drawn, so
        ``--samples`` cannot pass the batch cap."""
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

    def test_samples_drawn_are_counted(self, capsys, tmp_path):
        path = write(tmp_path, "qubits 1\ninput Z\nH 1\n")
        assert run(["verify", path, "--samples", "1" + "0" * 12]) == (
            EXIT_ORACLE_UNAVAILABLE
        )
        assert capsys.readouterr().err == (
            "oracle unavailable: 1000000000000 samples on 1 qubits"
            " exceed the batch cap of 128 MiB\n"
        )

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

    def test_def_past_the_unitary_cap_is_oracle_unavailable(
        self, capsys, monkeypatch, tmp_path
    ):
        """A def on 12 wires has a 4096x4096 unitary, 256 MiB of complex
        entries: refused before either kernel builds it."""
        from gottesman import oracle, pyoracle

        def refuse(*args, **kwargs):
            raise AssertionError("the gate must be checked before any work")

        for module in (oracle, pyoracle):
            monkeypatch.setattr(module, "_verify", refuse)
        monkeypatch.setattr(oracle, "gate_unitary", refuse)
        assert run(["verify", wide_def(tmp_path, 12)]) == EXIT_ORACLE_UNAVAILABLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "oracle unavailable: gate W on 12 wires: its 4096x4096 unitary"
            " exceeds the batch cap of 128 MiB\n"
        )

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


def test_only_verify_imports_numpy(tmp_path):
    """check and tableau never load the oracle or numpy; verify does, once
    its file has parsed to a measurement-free circuit whose work is above
    the plain-Python budget. No command loads ``dataclasses`` or, through it,
    ``inspect``, whose imports would cost more start-up time than the package."""
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
    # numpy itself imports inspect, so only dataclasses is pinned after verify.
    codes, err, numpy_loaded, dataclasses_loaded, _ = fresh_run(
        code, above_budget(tmp_path), "verify"
    )
    assert [codes, err, numpy_loaded, dataclasses_loaded] == [[EXIT_OK], "", True, False]
    measured = fresh_run(code, str(CIRCUITS / "ghz_measure.qc"), "verify")
    message = "type error: verify requires a measurement-free circuit\n"
    assert measured == [[EXIT_TYPE_ERROR], message, False, False, False]
    malformed = write(tmp_path, "qubits 2\nFROB 1\n")
    codes, err, *loaded = fresh_run(code, malformed, "verify")
    assert codes == [EXIT_PARSE_ERROR] and err.startswith("parse error:")
    assert loaded == [False, False, False]


def test_verify_takes_numpy_only_above_the_budget(tmp_path):
    """Every measurement-free worked example verifies in plain Python, and a
    6-qubit, 40-gate file on the numpy oracle; both pass."""
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
    assert codes == [EXIT_OK] and numpy_loaded
    assert json.loads(out)["failures"] == []


# --- the parser against its checking reference ---------------------------------

_ONE_WIRE = ("H", "S", "Sdg", "X", "Y", "Z", "T", "Tdg")
_TWO_WIRE = ("CNOT", "NOTC", "CZ", "SWAP")
# What a single-token mutation puts in: names, keywords, wires in and out
# of range, digits int() refuses, formals, type tokens and unicode aliases.
_VOCAB = (
    "H", "CNOT", "TOFFOLI", "G", "MEAS", "FROB", "def", "input", "qubits",
    ":=", ";", "--", "0", "1", "2", "3", "9", "12", "²", "a", "b", "c",
    "Q", "é", "⊗", "×", "∩", "−", "⊤", "&", "x",
    "(", ")", "->", "iX", "-I", "II", "XX", "ZZ", "TT", "-iZ", "YZ",
    "X⊗X", "1⊗2", "H⊗",
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
    """Swap in unicode aliases and split literals with a tensor sign."""
    out = []
    for i, ch in enumerate(text):
        alias = {"&": "∩", "x": "×", "-": "−", "T": "⊤"}.get(ch)
        out.append(alias if alias and rng.random() < 0.3 else ch)
        if ch in "IXYZT" and text[i + 1 : i + 2] in ("I", "X", "Y", "Z", "T"):
            if rng.random() < 0.15:
                out.append("⊗")
    return "".join(out)


def _random_file(rng):
    """A valid ``.qc`` text: an input type, a def, Clifford and T gates,
    MEAS, comments, blank lines and several instructions to a line."""
    n = rng.randint(1, 5)
    lines = [f"qubits {n}"]
    if rng.random() < 0.8:
        lines.append(f"input {_unicode(rng, _random_type(rng, n))}")
    two = _TWO_WIRE
    if n >= 2 and rng.random() < 0.6:
        steps = ("H a", "S b", "CNOT a b", "CZ b a", "SWAP a b")
        body = [rng.choice(steps) for _ in range(rng.randint(1, 3))]
        lines.append(f"def G a b := {'; '.join(body)}")
        two += ("G",)

    def instruction():
        roll = rng.random()
        if roll < 0.1:
            return f"MEAS {rng.randint(1, n)}"
        if n >= 3 and roll < 0.15:
            return "TOFFOLI " + " ".join(map(str, rng.sample(range(1, n + 1), 3)))
        if n >= 2 and roll < 0.6:
            a, b = rng.sample(range(1, n + 1), 2)
            return f"{rng.choice(two)} {a} {b}"
        return f"{rng.choice(_ONE_WIRE)} {rng.randint(1, n)}"

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


def _mutate(rng, text):
    """One token of ``text`` replaced, deleted, or preceded or glued by a
    token from ``_VOCAB``; in the input type for about a third of files."""
    lines = text.split("\n")
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
        text = _unicode(rng, _random_type(rng, rng.randint(1, 6)))
        if rng.random() < 0.7:
            text = _mutate_token(rng, text)

        def both(parser):
            return _outcome(lambda t: (None, parser(t)), text)

        assert both(parse_qtype) == both(ref_parse_qtype)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_printed_types_parse_back(self, rng):
        q = parse_qtype(_unicode(rng, _random_type(rng, rng.randint(1, 6))))
        assert parse_qtype(str(q)) == q
        assert str(parse_qtype(str(q))) == str(q)

    def test_mutations_reach_every_kind_of_fault(self):
        # The mutations must reach the parse errors of instruction lines,
        # def lines and types, and the type errors of ill-formed input.
        rng = random.Random(2297)
        seen = set()
        for _ in range(3000):
            text = _mutate(rng, _random_file(rng))
            got = _outcome(parse, text)
            assert got == _outcome(ref_parse, text)
            seen.add(got[1].split("'")[0] if got[0] == "parse error" else got[0])
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
        ):
            assert fault in seen, (fault, sorted(seen))
        for prefix in ("wire ", "input type covers "):
            assert sum(s.startswith(prefix) for s in seen) > 1, prefix
