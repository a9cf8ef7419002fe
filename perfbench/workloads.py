"""Seeded requests for the four workloads, and their known answers.

Nothing here imports the package under test: requests are ``.qc`` text
(or a committed circuit file and a command), and every verdict is judged
against :mod:`reference` or, for ``cli``, against the hand-written
``expected_cli.json``, which is itself cross-checked against the
reference before a run starts.

Request ``i`` depends only on the workload, the seed and ``i``.
Requests come in blocks that hold each configuration of a workload
equally often, in a seeded order, so that a run's percentiles do not
depend on how the configurations happened to be drawn.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

GATES_1Q = ("H", "S", "Sdg", "X", "Y", "Z")
GATES_2Q = ("CNOT", "CZ", "SWAP", "NOTC")
DEF_STEPS = (("H", "a"), ("H", "b"), ("S", "a"), ("S", "b"), ("CNOT", "a b"),
             ("CNOT", "b a"), ("CZ", "a b"))
CLI_COMMANDS = ("check", "tableau", "verify")

OK, KNOWN, WRONG = "ok", "known", "wrong"


@dataclass
class Request:
    index: int
    n: int
    mode: str                     # check | tableau | verify
    source: str = ""              # .qc text (cli: the circuit's file name)
    gates: list = field(default_factory=list)   # reference instructions
    input_rows: list | None = None
    instructions: int = 0         # top-level instructions in the file
    apply_calls: int = 0          # gate applications a verdict must make


@dataclass
class Judgement:
    status: str                   # OK, KNOWN or WRONG
    detail: str = ""


def _block_order(name: str, seed: int, block: int, configs):
    order = list(configs)
    random.Random(f"{name}:{seed}:block:{block}").shuffle(order)
    return order


def random_source(rng: random.Random, n: int, n_gates: int, input_text: str,
                  with_def: bool, meas_every: int = 0):
    """A random Clifford ``.qc`` file and its expanded reference gates.

    Returns ``(text, gates, instructions, derive_calls)``; derive_calls
    is the number of gate applications that deriving the ``def`` costs
    (two images per formal wire, one application per body step).
    """
    lines = [f"qubits {n}", f"input {input_text}"]
    two_qubit = GATES_2Q
    body = []
    if with_def:
        body = [rng.choice(DEF_STEPS) for _ in range(3)]
        lines.append("def G a b := " + "; ".join(f"{g} {w}" for g, w in body))
        two_qubit = GATES_2Q + ("G",)
    gates = []
    instructions = 0
    for i in range(n_gates):
        if rng.random() < 0.5:
            name = rng.choice(two_qubit)
            a, b = rng.sample(range(1, n + 1), 2)
            lines.append(f"{name} {a} {b}")
            if name == "G":
                wire = {"a": a, "b": b}
                gates += [(g, tuple(wire[w] for w in ws.split())) for g, ws in body]
            else:
                gates.append((name, (a, b)))
        else:
            name = rng.choice(GATES_1Q)
            a = rng.randrange(1, n + 1)
            lines.append(f"{name} {a}")
            gates.append((name, (a,)))
        instructions += 1
        if meas_every and (i + 1) % meas_every == 0:
            k = rng.randrange(1, n + 1)
            lines.append(f"MEAS {k}")
            gates.append(("MEAS", (k,)))
            instructions += 1
    return "\n".join(lines) + "\n", gates, instructions, 2 * 2 * len(body)


def z_rows(n: int):
    return [ref.single("Z", k) for k in range(1, n + 1)]


def z_input(n: int) -> str:
    return " x ".join(["Z"] * n)


def _same_group(n: int, text: str, rows) -> str:
    """Empty when the printed type generates exactly the group of rows."""
    try:
        n_out, out_rows, factors, top = ref.parse_type(text)
    except ValueError as err:
        return f"unparseable output {text!r}: {err}"
    if top:
        return "output is Top"
    if n_out != n:
        return f"output covers {n_out} qubits, expected {n}"
    want = ref.Group(n, rows)
    try:
        got = ref.Group(n, out_rows)
    except ref.Inconsistent as err:
        return f"output is not a stabilizer group: {err}"
    if got.rank != want.rank:
        return f"rank {got.rank}, expected {want.rank}"
    if got.canonical() != want.canonical():
        return "generators differ from the reference group in bits or signs"
    for k, row in factors:
        if want.member(row) is not True:
            return f"factor at qubit {k} is not in the reference group"
    return ""


def _judge_tableau(req: Request, text: str) -> Judgement:
    want = ref.tableau(req.n, req.gates)
    labels = [f"X{k}" for k in range(1, req.n + 1)] + [f"Z{k}" for k in range(1, req.n + 1)]
    lines = text.splitlines()
    if len(lines) != len(labels):
        return Judgement(WRONG, f"{len(lines)} tableau rows, expected {len(labels)}")
    for label, line, row in zip(labels, lines, want):
        head, _, image = line.partition(" -> ")
        try:
            ok = head == label and ref.parse_row(image) == (req.n, row)
        except ValueError:
            ok = False
        if not ok:
            return Judgement(WRONG, f"{line!r}, expected {label} -> {ref.row_text(row, req.n)}")
    return Judgement(OK)


class Workload:
    """Request ``i`` of a workload is ``request(i)``; ``i = -1`` is the
    warm-up. ``block`` is the number of requests that hold each
    configuration equally often."""

    name = ""
    block = 1

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir


class Transport(Workload):
    """``cli.parse`` then ``check`` (or ``infer_tableau``) on 200 gates."""

    name = "transport"
    # n = 32 twice: with equal weights the median would fall exactly
    # between two configurations' clusters and jump between them.
    sizes = (16, 32, 32, 64)
    modes = ("tableau", "check", "check", "intersect")
    block = len(sizes) * len(modes)
    n_gates = 200

    def request(self, i: int) -> Request:
        if i < 0:
            n, mode = self.sizes[0], "check"
        else:
            configs = itertools.product(self.sizes, self.modes)
            n, mode = _block_order(self.name, self.seed, i // self.block, configs)[i % self.block]
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        rows = z_rows(n)
        input_text = z_input(n)
        if mode == "intersect":
            # Rank n/4: signed Z_1..Z_{n/4} scrambled by a random Clifford.
            rows = [ref.single("Z", k, rng.randrange(2)) for k in range(1, n // 4 + 1)]
            scramble = _random_gates(rng, n, 2 * n)
            rows = ref.propagate(n, rows, scramble)
            input_text = " & ".join(ref.row_text(r, n) for r in rows)
        text, gates, instructions, derive = random_source(
            rng, n, self.n_gates, input_text, with_def=True
        )
        tracked = 2 * n if mode == "tableau" else len(rows)
        return Request(
            i, n, "tableau" if mode == "tableau" else "check", text, gates, rows,
            instructions, tracked * self.n_gates + derive,
        )

    def judge(self, req: Request, out) -> Judgement:
        if req.mode == "tableau":
            return _judge_tableau(req, out)
        final, _ = ref.run_state(req.n, req.input_rows, req.gates)
        problem = _same_group(req.n, out, final)
        return Judgement(WRONG, problem) if problem else Judgement(OK)


def _random_gates(rng: random.Random, n: int, count: int):
    gates = []
    for _ in range(count):
        if rng.random() < 0.5:
            gates.append((rng.choice(GATES_2Q), tuple(rng.sample(range(1, n + 1), 2))))
        else:
            gates.append((rng.choice(GATES_1Q), (rng.randrange(1, n + 1),)))
    return gates


class Measure(Workload):
    """``check`` on n=24 with ``MEAS k`` after every 10th of 200 gates."""

    name = "measure"
    n = 24
    n_gates = 200
    meas_every = 10

    def request(self, i: int) -> Request:
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        text, gates, instructions, derive = random_source(
            rng, self.n, self.n_gates, z_input(self.n), with_def=True,
            meas_every=self.meas_every,
        )
        return Request(i, self.n, "check", text, gates, z_rows(self.n),
                       instructions, self.n * self.n_gates + derive)

    def judge(self, req: Request, out) -> Judgement:
        final, _ = ref.run_state(req.n, req.input_rows, req.gates)
        problem = _same_group(req.n, out, final)
        if not problem:
            return Judgement(OK)
        # ROADMAP section 3: the checker adjoins +Z_k even when the state
        # fixes the outcome at -1. Replaying the reference with that rule
        # tells this known defect apart from any other disagreement.
        forced, outcomes = ref.run_state(req.n, req.input_rows, req.gates, force_plus=True)
        if _same_group(req.n, out, forced):
            return Judgement(WRONG, problem)
        j, k = next((j, k) for j, (k, outcome) in enumerate(outcomes) if outcome == -1)
        line = [ln for ln, text in enumerate(req.source.splitlines(), start=1)
                if text.startswith("MEAS")][j]
        return Judgement(
            KNOWN,
            f"line {line} `MEAS {k}`: the state fixes the outcome at -1,"
            f" the checker reports +Z_{k} (ROADMAP section 3)",
        )


class Oracle(Workload):
    """In-process ``cli.run(["verify", FILE, "--json"])`` on 40 gates."""

    name = "oracle"
    sizes = (6, 7, 8)
    block = len(sizes)
    n_gates = 40

    def request(self, i: int) -> Request:
        n = self.sizes[0] if i < 0 else _block_order(
            self.name, self.seed, i // self.block, self.sizes)[i % self.block]
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        text, gates, instructions, _ = random_source(
            rng, n, self.n_gates, z_input(n), with_def=False
        )
        path = self.workdir / f"oracle_{i}.qc"
        path.write_text(text)
        # verify transports the 2n tableau generators and the n input ones.
        return Request(i, n, "verify", str(path), gates, z_rows(n),
                       instructions, 3 * n * self.n_gates)

    def judge(self, req: Request, out) -> Judgement:
        status, stdout = out
        if status != 0:
            return Judgement(WRONG, f"exit status {status}")
        record = json.loads(stdout)
        final, _ = ref.run_state(req.n, req.input_rows, req.gates)
        checks = 2 * req.n + 1 + len(ref.Group(req.n, final).separable())
        if record["failures"] or record["checks"] != checks:
            return Judgement(
                WRONG, f"checks {record['checks']} failures {record['failures']},"
                f" expected {checks} checks and none failing")
        return Judgement(OK)


class Cli(Workload):
    """A fresh ``python -m gottesman CMD FILE --json`` per request."""

    name = "cli"

    def __init__(self, seed: int, root: Path, workdir: Path):
        super().__init__(seed, root, workdir)
        here = Path(__file__).resolve().parent
        self.expected = json.loads((here / "expected_cli.json").read_text())
        self.configs = [(c, cmd) for c in sorted(self.expected) for cmd in CLI_COMMANDS]
        self.block = len(self.configs)

    def request(self, i: int) -> Request:
        if i < 0:
            circuit, mode = "ghz.qc", "check"
        else:
            circuit, mode = _block_order(self.name, self.seed, i // self.block,
                                         self.configs)[i % self.block]
        path = self.root / "circuits" / circuit
        n, _, gates, instructions = ref.parse_qc(path.read_text())
        return Request(i, n, mode, circuit, gates, None, instructions)

    def judge(self, req: Request, out) -> Judgement:
        status, stdout = out
        want = self.expected[req.source][req.mode]
        if status != want["exit"]:
            return Judgement(WRONG, f"exit status {status}, expected {want['exit']}")
        if status != 0:
            return Judgement(OK)
        record = json.loads(stdout)
        if req.mode == "check":
            got = record["output"]["text"]
            ok = got == want["output"]
        elif req.mode == "tableau":
            got = [f"{r['generator']} -> {r['image']}" for r in record["rows"]]
            ok = got == want["rows"]
        else:
            got = (record["checks"], record["failures"])
            ok = got == (want["checks"], [])
        return Judgement(OK) if ok else Judgement(WRONG, f"got {got!r}, expected {want!r}")

    def cross_check(self) -> tuple[int, int]:
        """Compare the expected file with the reference where it applies.

        Returns ``(compared, not_applicable)``; raises ValueError on the
        first disagreement.
        """
        compared = skipped = 0
        for circuit, answers in sorted(self.expected.items()):
            n, input_text, gates, _ = ref.parse_qc((self.root / "circuits" / circuit).read_text())
            measured = any(g[0] == "MEAS" for g in gates)
            rows = z_rows(n) if input_text is None else ref.parse_type(input_text)[1]
            try:
                final, _ = ref.run_state(n, rows, gates)
            except ref.NotClifford:
                skipped += len(answers)
                continue
            problem = _same_group(n, answers["check"]["output"], final)
            if problem:
                raise ValueError(f"{circuit} check: {problem}")
            if measured:
                # tableau and verify reject measured circuits with exit 1.
                if answers["tableau"]["exit"] != 1 or answers["verify"]["exit"] != 1:
                    raise ValueError(f"{circuit}: measured circuits must exit 1")
                compared += 3
                continue
            req = Request(-1, n, "tableau", circuit, gates)
            verdict = _judge_tableau(req, "\n".join(answers["tableau"]["rows"]))
            if verdict.status != OK:
                raise ValueError(f"{circuit} tableau: {verdict.detail}")
            checks = 2 * n + 1 + len(ref.Group(n, final).separable())
            if answers["verify"]["checks"] != checks:
                raise ValueError(f"{circuit} verify: expected {checks} checks")
            compared += 3
        return compared, skipped


WORKLOADS = {w.name: w for w in (Transport, Measure, Oracle, Cli)}
