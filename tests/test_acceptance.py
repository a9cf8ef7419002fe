"""Acceptance suite: every criterion checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import contextlib
import gc
import io
import pathlib
import random
import statistics
import time

import numpy as np

from gottesman import cli, gates, pyoracle
from gottesman.checker import Circuit, annotate, check, infer_tableau
from gottesman.gates import GateApp, apply_gate, standard_gates
from gottesman.pauli import PauliString
from gottesman.typesys import QType, StabType, measure, parse_qtype

from helpers import (
    embed,
    letters,
    measure_row_ops,
    random_clifford_circuit,
    random_stab_type,
    ref_pure_at,
    transport_residual,
    verify_conjugation,
    verify_separability,
)

CIRCUITS = pathlib.Path(__file__).resolve().parent.parent / "circuits"
GATES = standard_gates()


def P(text):
    return PauliString.parse(text)


def report(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.run(argv)
    return status, buf.getvalue()


def test_criterion_1_derived_gate_tables():
    failures = []
    start = time.perf_counter()
    status, out = run_cli(["gates"])
    elapsed = time.perf_counter() - start
    lines = set(out.strip().splitlines())
    expected = [
        "Z: X -> -X",
        "Z: Z -> Z",
        "X: X -> X",
        "X: Z -> -Z",
        "Y: X -> -X",
        "Y: Z -> -Z",
        "CZ: XI -> XZ",
        "CZ: IX -> ZX",
        "CZ: ZI -> ZI",
        "CZ: IZ -> IZ",
        "SWAP: XI -> IX",
        "SWAP: IX -> XI",
        "SWAP: ZI -> IZ",
        "SWAP: IZ -> ZI",
    ]
    if status != 0:
        failures.append(f"gates exited {status}")
    for row in expected:
        if row not in lines:
            failures.append(f"missing row {row!r}")
    swapped = apply_gate(GateApp(GATES["SWAP"], (1, 2)), P("XY"))
    if swapped != P("YX"):
        failures.append(f"SWAP on XY gave {swapped}")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s (limit 1s)")
    report(1, "derived gate tables", failures)


def test_criterion_2_superdense():
    failures = []
    start = time.perf_counter()
    status, out = run_cli(["check", str(CIRCUITS / "superdense.qc")])
    if status != 0 or out.strip() != "Z x Z x Z x Z -> Z x Z x Z x Z":
        failures.append(f"judgment was {out.strip()!r} (exit {status})")
    trace = annotate(
        cli.parse((CIRCUITS / "superdense.qc").read_text())[0],
        parse_qtype("IIZI"),
    )
    got = [str(q) for q in trace]
    want = ["IIZI", "IIXI", "IIXX", "ZIXX", "ZIXX", "ZIXI", "ZIZI"]
    if got != want:
        failures.append(f"Z3 trace was {got}")
    status, out = run_cli(["check", str(CIRCUITS / "superdense_z3.qc"), "--trace"])
    cli_types = [ln.split()[-1] for ln in out.strip().splitlines()[:-1]]
    if cli_types != want:
        failures.append(f"--trace printed {cli_types}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s (limit 1s)")
    report(2, "superdense coding", failures)


def test_criterion_3_ghz_suite():
    failures = []
    ghz, inp = cli.parse((CIRCUITS / "ghz.qc").read_text())
    tab = infer_tableau(ghz)
    if tab.z_images != (P("XXX"), P("ZZI"), P("IZZ")):
        failures.append(f"tableau Z rows were {[str(g) for g in tab.z_images]}")

    split, _ = cli.parse((CIRCUITS / "ghz_split.qc").read_text())
    out = check(split, inp)
    if str(out) != "Z x (XX & ZZ)":
        failures.append(f"split printed {out}")
    if out.stab != StabType.of("ZII", "IXX", "IZZ"):
        failures.append("split type not equal to Z x (XX & ZZ)")

    untangled, _ = cli.parse((CIRCUITS / "ghz_untangle.qc").read_text())
    out = check(untangled, inp)
    if str(out) != "Z x Z x X":
        failures.append(f"untangle printed {out}")
    report(3, "GHZ creation and disentangling", failures)


def test_criterion_4_toffoli():
    failures = []
    tof = GATES["TOFFOLI"]
    top = PauliString.top(3)
    table = {
        ("X", 1): top,
        ("X", 2): top,
        ("X", 3): P("IIX"),
        ("Z", 1): P("ZII"),
        ("Z", 2): P("IZI"),
        ("Z", 3): top,
    }
    for (kind, w), want in table.items():
        got = (tof.x_images if kind == "X" else tof.z_images)[w - 1]
        if got != want:
            failures.append(f"{kind}{w} -> {got}, wanted {want}")
    out = check(Circuit(3, (GateApp(tof, (1, 2, 3)),)), parse_qtype("Z x Z x X"))
    if str(out) != "Z x Z x X":
        failures.append(f"separable judgment printed {out}")
    report(4, "Toffoli typing", failures)


def test_criterion_5_measurement():
    failures = []
    ghz_codomain = StabType.of("XXX", "ZZI", "IZZ")
    measured = measure(ghz_codomain, 1)
    if measured != parse_qtype("Z x Z x Z").stab:
        failures.append(f"measured cat state gave {measured}")
    rewired, inp = cli.parse((CIRCUITS / "ghz_rewire.qc").read_text())
    out = check(rewired, inp)
    if str(out) != "(XX & ZZ) x Z":
        failures.append(f"rewired cat state printed {out}")
    if out.stab != StabType.of("XXI", "ZZI", "ZZZ"):
        failures.append("rewired type does not match the stabilizer rewrite")
    report(5, "measurement and stabilizer rewriting", failures)


def test_criterion_6_oracle_equivalence_1000_circuits():
    failures = []
    rng = random.Random(20250808)
    start = time.perf_counter()
    checked = 0
    for trial in range(1000):
        n = rng.randrange(1, 6)
        c = random_clifford_circuit(n, rng.randrange(1, 31), rng)
        tab = infer_tableau(c)
        for k in range(1, n + 1):
            for atom, img in (
                ("X", tab.x_images[k - 1]),
                ("Z", tab.z_images[k - 1]),
            ):
                checked += 1
                if not verify_conjugation(c, embed(atom, 0, k, n), img):
                    failures.append(f"trial {trial}: {atom}{k} image wrong")
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"took {elapsed:.1f}s (limit 120s)")
    print(f"  [criterion 6] {checked} conjugations over 1000 circuits in {elapsed:.1f}s")
    report(6, "oracle equivalence on random circuits", failures)


def test_criterion_7_eigenstate_transport_and_separability():
    failures = []
    rng = random.Random(424242)

    # Eigenstate transport: 200 random (circuit, eigenstate) pairs.
    worst = 0.0
    for trial in range(200):
        n = rng.randrange(2, 6)
        circuit = random_clifford_circuit(n, rng.randrange(1, 20), rng)
        input_type = random_stab_type(n, rng)
        out = check(circuit, QType(n, input_type))
        residual = transport_residual(
            circuit, input_type, out.stab.generators, samples=1, seed=trial
        )
        worst = max(worst, residual)
        if residual >= 1e-9:
            failures.append(f"trial {trial}: transport residual {residual:.2e}")
    print(f"  [criterion 7] worst transport residual {worst:.2e}")

    # Separability: each peeled factor must fix every sampled eigenstate,
    # and some entangled non-peeled qubit must show an impure sample. Draws
    # are capped, so a fault that never yields an entangled case fails
    # instead of hanging.
    cases = draws = 0
    while cases < 25 and draws < 1000:
        draws += 1
        n = rng.randrange(2, 6)
        s = random_stab_type(n, rng)
        q = QType(s.arity, s)
        peeled = {k for k, _ in q.factors}
        for k, u in q.factors:
            if not verify_separability(s, k, u, samples=16, seed=cases):
                failures.append(f"case {cases}: peeled factor {u} at qubit {k} refuted")
        acted = {
            k
            for g in s.tableau
            for k in range(1, n + 1)
            if letters(g)[k - 1] != "I"
        }
        entangled_candidates = [k for k in acted if k not in peeled]
        if not entangled_candidates:
            continue
        cases += 1
        states = np.array(pyoracle._sample_states(n, s.tableau, 16, random.Random(1000 + cases)))
        witnessed = any(
            not ref_pure_at(states, k, n, tolerance=1e-3) for k in entangled_candidates
        )
        if not witnessed:
            failures.append(f"case {cases}: no entanglement witness found")
    if cases < 25:
        failures.append(f"only {cases} of 25 entangled cases in {draws} draws")
    report(7, "eigenstate transport and separability", failures)


def test_criterion_8_complexity(monkeypatch):
    failures = []

    # Tableau inference should scale linearly with gate count at fixed n.
    rng = random.Random(7)
    n = 6
    base = random_clifford_circuit(n, 1000, rng)
    big = Circuit(n, base.instructions * 10)

    # Deterministic: the work, counted in gate applications, is exactly 10x.
    # Every gate transport goes through ``gates._transport``, which calls
    # ``apply_gate`` once per string per gate through the module global.
    calls = []

    def counting_apply_gate(app, p):
        calls.append(None)
        return apply_gate(app, p)

    with monkeypatch.context() as patch:
        patch.setattr(gates, "apply_gate", counting_apply_gate)
        counts = []
        for circuit in (base, big):
            calls.clear()
            infer_tableau(circuit)
            counts.append(len(calls))
    print(f"  [criterion 8] gate applications {counts[0]} -> {counts[1]}")
    if counts[1] != 10 * counts[0] or counts[0] != 2 * n * len(base.instructions):
        failures.append(f"gate applications {counts} are not 2n x gates, 10x apart")

    # Wall clock, after a warm-up and with the collector paused. The
    # host's speed drifts, so each big run is compared with the base
    # circuit run ten times in a row just before and just after it
    # (intervals of equal length), and the median of those ratios counts.
    def timed(circuit, times):
        start = time.perf_counter()
        for _ in range(times):
            infer_tableau(circuit)
        return (time.perf_counter() - start) / times

    timed(base, 1)
    timed(big, 1)
    gc.collect()
    gc.disable()
    try:
        ratios = []
        before = timed(base, 10)
        for _ in range(7):
            t_big = timed(big, 1)
            after = timed(base, 10)
            ratios.append(2 * t_big / (before + after))
            before = after
    finally:
        gc.enable()
    ratio = statistics.median(ratios)
    print(f"  [criterion 8] 10x gates -> {ratio:.2f}x time")
    if not 10 / 1.15 <= ratio <= 10 * 1.15:
        failures.append(f"time ratio {ratio:.2f} outside 10 +- 15%")

    # Measurement must stay within c * n^2 row operations, fixed c = 4.
    # Deep scrambling circuits make the generators dense, so elimination
    # does real work instead of finding ready-made pivots.
    bound_c = 4
    for size in (4, 8, 16, 32):
        worst = 0
        for _ in range(10):
            s = random_stab_type(size, rng, rank=size, depth=6 * size)
            _, ops = measure_row_ops(s, rng.randrange(1, size + 1))
            worst = max(worst, ops)
        print(f"  [criterion 8] n={size}: worst {worst} row ops (bound {bound_c * size * size})")
        if worst > bound_c * size * size:
            failures.append(f"n={size}: {worst} row ops > {bound_c}*n^2")
    report(8, "complexity bounds", failures)
