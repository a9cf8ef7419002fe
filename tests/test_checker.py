import random
import sys
import time

import pytest

from gottesman import checker, stabilizer
from gottesman.checker import Circuit, Measure, annotate, check, infer_tableau
from gottesman.errors import ArityError, MeasurementError, TopOperandError, WireError
from gottesman.gates import GateApp, standard_gates
from gottesman.pauli import PauliString, string_mul
from gottesman.typesys import QType, StabType, _unchecked, parse_qtype

from helpers import all_z, random_clifford_circuit

GATES = standard_gates()


def P(text):
    return PauliString.parse(text)


def circ(n, *steps):
    apps = []
    for step in steps:
        name, *wires = step.split()
        if name == "MEAS":
            apps.append(Measure(int(wires[0])))
        else:
            apps.append(GateApp(GATES[name], tuple(int(w) for w in wires)))
    return Circuit(n, tuple(apps))


def seq(*circuits):
    """The circuits one after another, on the first one's register."""
    return Circuit(circuits[0].n_qubits, sum((c.instructions for c in circuits), ()))


GHZ = circ(3, "H 1", "CNOT 1 2", "CNOT 2 3")
SUPERDENSE = circ(4, "H 3", "CNOT 3 4", "CZ 1 3", "CNOT 2 3", "CNOT 3 4", "H 3")


class TestCircuit:
    def test_wire_bounds(self):
        with pytest.raises(WireError):
            circ(2, "CNOT 1 3")
        with pytest.raises(WireError):
            circ(2, "MEAS 3")

    def test_sequencing(self):
        c = seq(GHZ, circ(3, "CNOT 2 1"))
        assert len(c.instructions) == 4
        with pytest.raises(WireError):
            seq(circ(2, "H 1"), GHZ)


class TestInferTableau:
    def test_empty_circuit_is_identity(self):
        tab = infer_tableau(Circuit(2))
        assert tab.x_images == (P("XI"), P("IX"))
        assert tab.z_images == (P("ZI"), P("IZ"))

    def test_ghz(self):
        tab = infer_tableau(GHZ)
        assert tab.z_images == (P("XXX"), P("ZZI"), P("IZZ"))

    def test_toffoli(self):
        tab = infer_tableau(circ(3, "TOFFOLI 1 2 3"))
        top = PauliString.top(3)
        assert tab.z_images == (P("ZII"), P("IZI"), top)
        assert tab.x_images == (top, top, P("IIX"))

    def test_rejects_measurement(self):
        with pytest.raises(MeasurementError):
            infer_tableau(circ(2, "H 1", "MEAS 1"))


class TestCheck:
    def test_superdense(self):
        out = check(SUPERDENSE, parse_qtype("Z x Z x Z x Z"))
        assert str(out) == "Z x Z x Z x Z"

    def test_ghz_split(self):
        out = check(seq(GHZ, circ(3, "CNOT 2 1")), parse_qtype("Z x Z x Z"))
        assert str(out) == "Z x (XX & ZZ)"
        assert out.stab == StabType.of("ZII", "IXX", "IZZ")

    def test_ghz_untangle(self):
        out = check(seq(GHZ, circ(3, "CNOT 2 1", "CNOT 3 2")), parse_qtype("Z x Z x Z"))
        assert str(out) == "Z x Z x X"

    def test_ghz_rewire(self):
        out = check(seq(GHZ, circ(3, "CNOT 1 3")), parse_qtype("Z x Z x Z"))
        assert str(out) == "(XX & ZZ) x Z"

    def test_toffoli_separable_judgment(self):
        out = check(circ(3, "TOFFOLI 1 2 3"), parse_qtype("Z x Z x X"))
        assert str(out) == "Z x Z x X"

    def test_measurement_collapses_cat_state(self):
        out = check(seq(GHZ, circ(3, "MEAS 1")), parse_qtype("Z x Z x Z"))
        assert str(out) == "Z x Z x Z"

    def test_determined_outcome_on_mixed_state_adjoins_z(self):
        # No generator has an x-bit at qubit 1, but the state is mixed and
        # Z_1 is not in the group of ZZ, so +Z_1 joins the generators.
        out = check(circ(2, "MEAS 1"), parse_qtype("ZZ"))
        assert str(out) == "Z x Z"
        assert str(out.stab) == "ZI & IZ"

    def test_t_gate_tops_out(self):
        out = check(circ(1, "T 1"), parse_qtype("X"))
        assert out == QType.top_type(1)
        assert str(out) == "T"

    def test_t_gate_keeps_z(self):
        out = check(circ(1, "T 1"), parse_qtype("Z"))
        assert str(out) == "Z"

    def test_measure_after_top_is_an_error(self):
        with pytest.raises(TopOperandError):
            check(circ(1, "T 1", "MEAS 1"), parse_qtype("X"))

    def test_top_input_passes_through(self):
        out = check(circ(2, "H 1"), QType.top_type(2))
        assert out == QType.top_type(2)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            check(GHZ, parse_qtype("Z x Z"))

    def test_empty_circuit_returns_factored_input(self):
        out = check(Circuit(2), parse_qtype("ZI & IZ"))
        assert str(out) == "Z x Z"

    def test_sequencing_associativity(self):
        rng = random.Random(55)
        for _ in range(15):
            c1 = random_clifford_circuit(3, 5, rng)
            c2 = random_clifford_circuit(3, 5, rng)
            c3 = random_clifford_circuit(3, 5, rng)
            inp = parse_qtype("Z x Z x Z")
            assert check(seq(seq(c1, c2), c3), inp) == check(seq(c1, seq(c2, c3)), inp)


class TestAnnotate:
    def test_empty_circuit_single_entry(self):
        got = annotate(Circuit(2), parse_qtype("Z x Z"))
        assert len(got) == 1
        assert str(got[0]) == "ZI & IZ"

    def test_superdense_trace_of_z3(self):
        got = annotate(SUPERDENSE, parse_qtype("IIZI"))
        assert [str(q) for q in got] == [
            "IIZI",
            "IIXI",
            "IIXX",
            "ZIXX",
            "ZIXX",
            "ZIXI",
            "ZIZI",
        ]

    def test_ghz_trace_of_z1(self):
        got = annotate(GHZ, parse_qtype("ZII"))
        assert [str(q) for q in got] == ["ZII", "XII", "XXI", "XXX"]

    def test_trace_through_measurement(self):
        got = annotate(seq(GHZ, circ(3, "MEAS 1")), parse_qtype("Z x Z x Z"))
        assert str(got[-1]) == "ZII & IZI & IIZ"

    # Recorded before check took the O(n) measurement update: a trace
    # entry after MEAS is still the canonical generating set, also when
    # gates and a second MEAS follow. The mixed inputs cover a determined
    # outcome outside the group (ZZI & IZZ, MEAS 2) and inside it
    # (ZII & IIX, MEAS 1).
    @pytest.mark.parametrize(
        "source, trace",
        [
            (
                "Z x Z x Z",
                ["ZII & IZI & IIZ", "XII & IZI & IIZ", "XXI & ZZI & IIZ",
                 "XXX & ZZI & IZZ", "ZII & IZI & IIZ", "ZII & IXI & IIZ",
                 "ZII & IXX & IZZ", "ZII & IXY & IZZ", "ZII & IZI & IIZ",
                 "XII & IZI & IIZ", "XII & IZI & IIZ"],
            ),
            (
                "ZZI & IZZ",
                ["ZZI & IZZ", "XZI & IZZ", "-YYI & ZZZ", "-YYX & ZIZ",
                 "ZII & IIZ", "ZII & IIZ", "ZII & IZZ", "ZII & IZZ",
                 "ZII & IZI & IIZ", "XII & IZI & IIZ", "XII & IZI & IIZ"],
            ),
            (
                "ZII & IIX",
                ["ZII & IIX", "XII & IIX", "XXI & IIX", "XXX & IIX",
                 "IIX & ZII", "IIX & ZII", "IIX & ZII", "IIY & ZII",
                 "IIY & ZII & IZI", "IIY & XII & IZI", "XII & IZI & IIZ"],
            ),
        ],
    )
    def test_trace_through_gates_after_measurement(self, source, trace):
        steps = ("MEAS 1", "H 2", "CNOT 2 3", "S 3", "MEAS 2", "H 1", "MEAS 3")
        circuit = seq(GHZ, circ(3, *steps))
        got = annotate(circuit, parse_qtype(source))
        assert [str(q) for q in got] == trace
        assert str(check(circuit, parse_qtype(source))) == "X x Z x Z"

    def test_top_trace(self):
        got = annotate(circ(1, "T 1", "H 1"), parse_qtype("X"))
        assert [str(q) for q in got] == ["X", "T", "T"]


def test_tableau_matches_oracle_on_random_circuits():
    from helpers import embed, verify_conjugation

    rng = random.Random(99)
    for _ in range(25):
        n = rng.randrange(1, 5)
        c = random_clifford_circuit(n, rng.randrange(1, 15), rng)
        tab = infer_tableau(c)
        for k in range(1, n + 1):
            assert verify_conjugation(
                c, embed("X", 0, k, n), tab.x_images[k - 1]
            )
            assert verify_conjugation(
                c, embed("Z", 0, k, n), tab.z_images[k - 1]
            )


def test_transport_preserves_eigenstates():
    from helpers import transport_residual

    rng = random.Random(101)
    for trial in range(15):
        n = rng.randrange(2, 5)
        c = random_clifford_circuit(n, 10, rng)
        from helpers import random_stab_type

        s = random_stab_type(n, rng)
        out = check(c, QType(n, s))
        residual = transport_residual(
            c, s, out.stab.generators, samples=4, seed=trial
        )
        assert residual < 1e-9


def test_output_eigenspace_is_exact_image_of_input():
    # For full-rank inputs (pure stabilizer states) the factored output
    # type must describe exactly the evolved state: its eigenspace
    # projector equals U P U+ entrywise.
    import numpy as np

    from helpers import random_stab_type, ref_projector, ref_unitary

    rng = random.Random(2718)
    for _ in range(20):
        n = rng.randrange(2, 5)
        circuit = random_clifford_circuit(n, rng.randrange(1, 15), rng)
        input_type = random_stab_type(n, rng, rank=n)
        out = check(circuit, QType(n, input_type))
        u = ref_unitary(circuit)
        p_in = ref_projector(input_type)
        p_out = ref_projector(out.stab)
        assert np.max(np.abs(p_out - u @ p_in @ u.conj().T)) < 1e-9


def test_measurement_rewrite_sound_against_dense_projection():
    # The output type holds s Z_k for one sign s. Projecting a sampled
    # input eigenstate with (I + s Z_k)/2 must leave a nonzero state (so a
    # determined outcome has the sign the state fixes), and that state must
    # lie in the +1 eigenspace of every output generator.
    import numpy as np

    from gottesman.stabilizer import member
    from gottesman.typesys import measure
    from helpers import embed, random_stab_type, ref_sample_eigenstates, string_matrix

    rng = random.Random(9807)
    outcomes = {"random": 0, "+1": 0, "-1": 0}
    for trial in range(60):
        n = rng.randrange(1, 5)
        s = random_stab_type(n, rng)
        k = rng.randrange(1, n + 1)
        z_k = embed("Z", 0, k, n)
        before = member(s, z_k)
        measured = measure(s, k)
        sign = member(measured, z_k)
        assert sign in (0, 2)
        key = "random" if before is None else ("+1", "i", "-1", "-i")[before]
        outcomes[key] += 1
        proj = (np.eye(2**n) + (1 - sign) * string_matrix(z_k)) / 2
        for state in ref_sample_eigenstates(s, 3, trial):
            collapsed = proj @ state
            norm = np.linalg.norm(collapsed)
            assert norm > 1e-3
            collapsed /= norm
            for g in measured.generators:
                assert np.linalg.norm(string_matrix(g) @ collapsed - collapsed) < 1e-9
    assert min(outcomes.values()) > 5, outcomes


def test_infer_tableau_cost_linear_in_gates():
    rng = random.Random(7)
    n = 6
    small = random_clifford_circuit(n, 400, rng)
    big = Circuit(n, small.instructions * 10)

    def best_time(circuit):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            infer_tableau(circuit)
            best = min(best, time.perf_counter() - start)
        return best

    t_small = best_time(small)
    t_big = best_time(big)
    assert t_big / t_small < 20  # far from quadratic (which would give ~100)


def _count_calls(monkeypatch, func):
    """Route ``func`` through a counter in every gottesman module binding it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "gottesman" or name.startswith("gottesman."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_check_factors_by_reading_tableau_rows(monkeypatch):
    # The ROADMAP-table workload (n=512, 2000 gates, from all-Z), whose
    # output has hundreds of factors beside an entangled remainder, then
    # again with a random and two determined measurements appended.
    n = 512
    circuit = random_clifford_circuit(n, 2000, random.Random(512))
    input_type = all_z(n)
    counts = {
        f.__name__: _count_calls(monkeypatch, f)
        for f in (stabilizer.member, stabilizer._echelon, string_mul)
    }
    factoring = []

    def counted_factoring(q):
        # The factored view is read off the tableau on first use: here.
        before = {name: len(calls) for name, calls in counts.items()}
        q.factors
        factoring.append({name: len(calls) - before[name] for name, calls in counts.items()})
        return q

    out = counted_factoring(check(circuit, input_type))
    assert len(out.factors) >= 100 and out.remainder.generators
    entangled = out.remainder_support[0]
    z_factor = next(k for k, p in out.factors if p == P("Z"))
    measured = Circuit(
        n,
        circuit.instructions + (Measure(entangled), Measure(entangled), Measure(z_factor)),
    )
    out = counted_factoring(check(measured, input_type))
    assert len(counts["member"]) == 0
    assert factoring == [dict.fromkeys(counts, 0)] * 2
    assert (entangled, P("Z")) in out.factors


def _random_source(n, rng, meas_every=8):
    """A ``.qc`` text over n qubits: a Clifford def gate, random Clifford
    steps with MEAS after every ``meas_every``-th, and a tail that may use
    T or TOFFOLI, so a Top state is never measured."""
    one, two = ("H", "S", "Sdg", "X", "Y", "Z"), ("CNOT", "CZ", "SWAP", "NOTC")
    lines = [f"qubits {n}"]
    if n >= 2:
        lines.append("def G a b := H a; CNOT a b; S b; CZ b a")
        two += ("G",)

    def wires(count):
        return " ".join(map(str, rng.sample(range(1, n + 1), count)))

    def step():
        if n >= 2 and rng.random() < 0.5:
            return f"{rng.choice(two)} {wires(2)}"
        return f"{rng.choice(one)} {wires(1)}"

    for i in range(1, rng.randrange(10, 60)):
        lines.append(step())
        if i % meas_every == 0:
            lines.append(f"MEAS {wires(1)}")
    for _ in range(rng.randrange(0, 4)):
        if n >= 3 and rng.random() < 0.3:
            lines.append(f"TOFFOLI {wires(3)}")
        else:
            lines.append(f"{rng.choice(('T', 'Tdg'))} {wires(1)}")
        lines.append(step())
    return "\n".join(lines) + "\n"


def test_types_built_without_checks_are_well_formed(monkeypatch):
    # measure, the factored view, check and the CLI's default input build
    # their results unchecked beside a canonical tableau, as does the
    # canonical presentation of a type, and annotate builds its entries
    # unchecked; each one must pass full validation and carry the
    # canonical tableau of its generators.
    from gottesman import checker, typesys
    from gottesman.cli import _default_input, parse
    from helpers import random_stab_type

    built = []

    # Record every build that is given its tableau.
    def recording(arity, generators, tableau=None, build=typesys._unchecked):
        s = build(arity, generators, tableau)
        if tableau is not None:
            built.append(s)
        return s

    monkeypatch.setattr(typesys, "_unchecked", recording)
    monkeypatch.setattr(checker, "_unchecked", recording)
    rng = random.Random(1234)
    measured = 0
    for _ in range(30):
        n = rng.randrange(1, 25)
        circuit, _ = parse(_random_source(n, rng))
        measured += sum(isinstance(ins, Measure) for ins in circuit.instructions)
        default = _default_input(n)  # the all-Z input, built without checks
        built.append(default.stab)
        for input_type in (default, QType(n, random_stab_type(n, rng))):
            out = check(circuit, input_type)
            if not out.top:
                built.append(out.stab)
            for state in annotate(circuit, input_type):
                if not state.top:
                    s = state.stab
                    built.append(s)  # its tableau is row-reduced on first use
                    typesys._unchecked(n, s.tableau, s.tableau)  # the canonical presentation
                    typesys.measure(s, rng.randrange(1, n + 1))
                    QType(s.arity, s).factors
    assert measured > 100 and len(built) > 5000
    for s in built:
        full = StabType(s.arity, s.generators)
        assert s.tableau == full.tableau
        if s.generators:
            assert s.tableau == stabilizer._echelon(s.arity, s.generators)


def test_check_matches_per_measurement_canonical_reference():
    # check applies each MEAS as the O(n) generator update; the reference
    # row-reduces after every one. Outputs must be equal on pure, mixed and
    # redundant inputs, over registers past one 64-bit word, and so must
    # traces where validating every trace entry stays cheap (n <= 24).
    from gottesman.cli import parse
    from helpers import random_stab_type, ref_annotate, ref_check, ref_states

    rng = random.Random(9807006)
    kinds = {"random": 0, "pure": 0, "mixed": 0}
    for _ in range(40):
        n = rng.randrange(1, 71)
        circuit, _ = parse(_random_source(n, rng, meas_every=4))
        pure = random_stab_type(n, rng, rank=n)
        mixed = random_stab_type(n, rng, rank=rng.randrange(0, n))
        inputs = [all_z(n), QType(n, pure), QType(n, mixed)]
        for s in (pure, mixed):
            if s.generators:
                a, b = rng.choice(s.generators), rng.choice(s.generators)
                extra = (string_mul(a, b), a)
                inputs.append(QType(n, StabType(n, s.generators + extra)))
        for input_type in inputs:
            states = list(ref_states(circuit, input_type))
            for ins, state in zip(circuit.instructions, states):
                if isinstance(ins, Measure):
                    bit = 1 << (ins.qubit - 1)
                    rank = len(_unchecked(n, tuple(state)).tableau)
                    if any(g.x & bit for g in state):
                        kinds["random"] += 1
                    else:
                        kinds["pure" if rank == n else "mixed"] += 1
            out, want = check(circuit, input_type), ref_check(circuit, input_type)
            assert out == want and str(out) == str(want)
            if n <= 24:
                got = [str(q) for q in annotate(circuit, input_type)]
                assert got == ref_annotate(circuit, input_type)
    assert kinds["random"] >= 100 and kinds["pure"] >= 300 and kinds["mixed"] >= 100, kinds


def test_measured_check_row_reduces_once(monkeypatch):
    # The ROADMAP-table workload (n=512, 2000 gates, from all-Z) with a MEAS
    # after every 10th gate: the final row reduction is the only one, and
    # no MEAS makes more than n - 1 string products.
    n = 512
    rng = random.Random(512)
    gates = random_clifford_circuit(n, 2000, rng).instructions
    instructions = []
    for i, app in enumerate(gates, start=1):
        instructions.append(app)
        if i % 10 == 0:
            instructions.append(Measure(rng.randrange(1, n + 1)))
    circuit = Circuit(n, tuple(instructions))
    input_type = all_z(n)
    echelons = _count_calls(monkeypatch, stabilizer._echelon)
    muls = _count_calls(monkeypatch, string_mul)
    real_states = checker._states
    steps = []  # what check passes to _states as its instructions
    products = []  # (string products, outcome random) per MEAS

    def counting_states(circuit, input_type, rows, measure):
        steps.extend(circuit.instructions)
        states = real_states(circuit, input_type, rows, measure)
        state = next(states)
        yield state
        for step in circuit.instructions:
            before, prev = len(muls), state
            state = next(states)
            if isinstance(step, Measure):
                bit = 1 << (step.qubit - 1)
                products.append((len(muls) - before, any(g.x & bit for g in prev)))
            yield state

    monkeypatch.setattr(checker, "_states", counting_states)
    check(circuit, input_type)
    # The steps: each run of ten gates, one tuple, transported at once, then its MEAS.
    assert [type(step) for step in steps] == [tuple, Measure] * 200
    assert [app for step in steps[::2] for app in step] == list(gates)
    assert len(echelons) == 1
    assert len(products) == 200
    assert max(count for count, _ in products) <= n - 1
    # Random outcomes, each of which a row reduction per MEAS would reach.
    assert sum(random_outcome for _, random_outcome in products) >= 20


def test_measurement_that_makes_the_state_pure_ends_row_reduction(monkeypatch):
    # ZZ is mixed, so the first MEAS 1 (determined, Z_1 outside the group)
    # row-reduces the rows once and adjoins Z_1 without reducing again. Its
    # result has two independent rows, so the state is pure from then on,
    # every later determined MEAS is free, and the final reduction is the
    # only other one.
    echelons = _count_calls(monkeypatch, stabilizer._echelon)
    circuit = circ(2, "MEAS 1", "MEAS 2", "MEAS 1", "MEAS 2", "MEAS 1")
    out = check(circuit, parse_qtype("ZZ"))
    assert str(out) == "Z x Z"
    assert len(echelons) == 2


def test_trace_row_reduces_once_per_measurement(monkeypatch):
    # annotate measures independent rows by stabilizer._measured and
    # row-reduces the result once, so on a pure state every MEAS, random
    # outcomes included, costs one reduction. The rows are independent from
    # the start when the input has as many written generators as tableau
    # rows, and after the first MEAS otherwise: with a redundant generator,
    # that MEAS goes through typesys.measure, which reduces twice.
    from helpers import random_stab_type, ref_annotate, ref_states

    steps = []
    for k in (1, 2, 3, 4, 1, 3):
        steps += [f"H {k}", f"CNOT {k} {k % 4 + 1}", f"MEAS {k}"]
    circuit = circ(4, *steps)
    scrambled = QType(4, random_stab_type(4, random.Random(4), rank=4))
    redundant = QType(4, StabType.of("XXII", "ZZII", "-YYII", "IIZI", "IIIZ"))
    for input_type, extra in ((all_z(4), 0), (scrambled, 0), (redundant, 1)):
        states = list(ref_states(circuit, input_type))
        random_outcomes = [
            any(g.x >> ins.qubit - 1 & 1 for g in state)
            for ins, state in zip(circuit.instructions, states)
            if isinstance(ins, Measure)
        ]
        with monkeypatch.context() as patch:
            echelons = _count_calls(patch, stabilizer._echelon)
            entries = [str(q) for q in annotate(circuit, input_type)]
        assert entries == ref_annotate(circuit, input_type)
        assert len(echelons) == len(random_outcomes) + extra
        assert sum(random_outcomes) >= 4 and random_outcomes[0], random_outcomes


def test_annotate_builds_entries_without_commutation_checks(monkeypatch):
    # Every trace entry is transported from the validated input, so none is
    # validated again; the entries still print as before.
    from gottesman import pauli
    from gottesman.cli import parse

    n = 64
    gates_only = random_clifford_circuit(n, 200, random.Random(n))
    measured, _ = parse(_random_source(n, random.Random(64), meas_every=4))
    input_type = all_z(n)
    circuits = (gates_only, measured)
    want = [[str(q) for q in annotate(circuit, input_type)] for circuit in circuits]
    commutes = _count_calls(monkeypatch, pauli.commutes)
    got = [[str(q) for q in annotate(circuit, input_type)] for circuit in circuits]
    assert len(commutes) == 0
    assert got == want and len(got[0]) == 201


def test_transport_matches_per_string_references():
    # gates._transport is the one loop of gates over strings. The loops it
    # replaced, kept in helpers, must give the same tableaux, derived gates
    # and threaded states, on circuits with a def gate and a T/Tdg/TOFFOLI
    # tail over registers of 1 to 70 qubits, and on the standard table.
    from gottesman.cli import parse
    from gottesman.gates import derive_gate
    from gottesman.typesys import measure
    from helpers import random_stab_type, ref_derive_gate, ref_infer_tableau, ref_states

    def canonical(arity, rows, k):
        return measure(_unchecked(arity, tuple(rows)), k).generators

    for spec in GATES.values():
        steps = spec.decomposition or (GateApp(spec, tuple(range(1, spec.arity + 1))),)
        ref = ref_derive_gate(spec.name, spec.arity, steps)
        assert (ref.x_images, ref.z_images) == (spec.x_images, spec.z_images), spec.name
        if spec.decomposition:
            assert ref == spec == derive_gate(spec.name, spec.arity, steps), spec.name

    rng = random.Random(4711)
    sizes, defs, tops = [], 0, 0
    for _ in range(40):
        n = rng.randrange(1, 71)
        sizes.append(n)
        unitary, _ = parse(_random_source(n, rng, meas_every=10**6))
        tab = infer_tableau(unitary)
        assert (tab.x_images, tab.z_images) == ref_infer_tableau(unitary)
        tops += any(g.is_top for g in tab.x_images + tab.z_images)
        for spec in {app.gate for app in unitary.instructions if app.gate.name == "G"}:
            defs += 1
            assert spec == ref_derive_gate("G", 2, spec.decomposition)
        measured, _ = parse(_random_source(n, rng, meas_every=4))
        for input_type in (
            all_z(n),
            QType(n, random_stab_type(n, rng, rank=rng.randrange(0, n + 1))),
        ):
            rows = input_type.stab.generators
            got = checker._states(measured, input_type, rows, canonical)
            got = [None if state is None else list(state) for state in got]
            assert got == list(ref_states(measured, input_type))
    assert max(sizes) > 64 and min(sizes) <= 2 and defs >= 30 and tops >= 10


def test_check_of_a_parsed_file_applies_each_gate_once_per_string(monkeypatch):
    # The count CI's traced runs require: parsing derives the def (its 2 x 2
    # unit strings through each body step), and check carries each of the n
    # generators through each gate, once, whether or not the parser reused
    # one GateApp for a recurring instruction. A second parse of the same
    # text reuses nothing from the first. check takes the gates in runs,
    # and a run ends at each non-Clifford gate: where a T makes the
    # register Top, transport stops, as it would one gate at a time.
    from gottesman import gates
    from gottesman.cli import parse
    from helpers import ref_check

    rng = random.Random(4401)
    n, lines = 8, ["qubits 8", "def G a b := H a; CNOT a b; S b; CZ b a"]

    def random_gates(count, meas_every=None):
        for i in range(count):
            a, b = rng.sample(range(1, 4), 2)  # few wires, so texts recur
            lines.append(rng.choice((f"G {a} {b}", f"CNOT {a} {b}", f"H {a}", f"S {b}")))
            if meas_every and i % meas_every == meas_every - 1:
                lines.append(f"MEAS {a}")

    random_gates(120, meas_every=10)
    plain = "\n".join(lines) + "\n"
    # T fixes Z_8, so the first T 8 leaves the register typed; after H 8 it
    # makes a generator Top, and no later gate is applied.
    lines += ["T 8", "H 8", "T 8"]
    random_gates(30)
    topped = "\n".join(lines) + "\n"
    calls = []

    def counting(app, p, apply=gates.apply_gate):
        calls.append(app)
        return apply(app, p)

    monkeypatch.setattr(gates, "apply_gate", counting)
    input_type = parse_qtype(" x ".join(["Z"] * n))
    for text, applied, gate_count in ((plain, 120, 120), (topped, 123, 153)):
        for _ in range(2):
            calls.clear()
            circuit, _ = parse(text)
            output = check(circuit, input_type)
            apps = [ins for ins in circuit.instructions if isinstance(ins, GateApp)]
            assert len(apps) == gate_count and len({id(app) for app in apps}) < 40
            assert len(calls) == n * applied + 4 * 4
        assert str(output) == str(ref_check(circuit, input_type))
    assert output.top
