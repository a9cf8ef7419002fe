"""CLI runs on every ``circuits/*.qc``, compared byte for byte with records.

``tests/golden/<circuit>.json`` holds, for each command below, the exit
status, stdout and stderr of one run. A change that means to alter the
output records it again, from the repository root, with

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
CIRCUITS = sorted((ROOT / "circuits").glob("*.qc"))
COMMANDS = (
    ("check",),
    ("check", "--json", "--trace"),
    ("tableau", "--json"),
    ("verify", "--json"),
)


def _run(command, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run([command[0], str(path), *command[1:]])
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


if __name__ == "__main__":
    for path in CIRCUITS:
        text = json.dumps(_record(path), indent=2) + "\n"
        (GOLDEN / f"{path.stem}.json").write_text(text, encoding="utf-8")
