"""CLI runs on every ``circuits/*.qc``, compared byte for byte with records.

``tests/golden/<circuit>.json`` holds, for each command below, the exit
status, stdout and stderr of one run. ``tests/golden/commands/gates.json``
holds the same for the ``gates`` listing, which reads no circuit, so
that the standard gate table cannot drift. A change that means to alter
the output records it again, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from gottesman.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
# Outside the per-circuit ``*.json`` glob above.
GATES_RECORD = GOLDEN / "commands" / "gates.json"
GATES_COMMANDS = (("gates",), ("gates", "--json"))
CIRCUITS = sorted((ROOT / "circuits").glob("*.qc"))
COMMANDS = (
    ("check",),
    ("check", "--json", "--trace"),
    ("tableau", "--json"),
    ("verify", "--json"),
)


def _run(command, path=None):
    argv = [command[0], *([str(path)] if path is not None else []), *command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    return {"exit": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _record(path):
    return {" ".join(command): _run(command, path) for command in COMMANDS}


def test_every_circuit_has_a_record():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == [p.stem for p in CIRCUITS]


@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.name)
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_matches_record(path, command):
    want = json.loads((GOLDEN / f"{path.stem}.json").read_text(encoding="utf-8"))
    assert _run(command, path) == want[" ".join(command)]


@pytest.mark.parametrize("command", GATES_COMMANDS, ids=" ".join)
def test_gates_matches_record(command):
    want = json.loads(GATES_RECORD.read_text(encoding="utf-8"))
    assert _run(command) == want[" ".join(command)]


if __name__ == "__main__":
    for path in CIRCUITS:
        text = json.dumps(_record(path), indent=2) + "\n"
        (GOLDEN / f"{path.stem}.json").write_text(text, encoding="utf-8")
    record = {" ".join(command): _run(command) for command in GATES_COMMANDS}
    GATES_RECORD.parent.mkdir(exist_ok=True)
    GATES_RECORD.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
