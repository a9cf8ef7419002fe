"""The oracle gives the dense-product reference's verdicts.

The oracle pushes batches of state vectors through a circuit, each gate a
gather of the batch's rows (times phases) when its unitary has one entry
per row and a block matmul otherwise; it applies Paulis as
permutation-and-sign, and checks a conjugation on seeded random vectors.
``helpers.ref_*`` multiplies dense matrices, and ``helpers.ref_evolve``
contracts each gate into its wires' axes. On seeded random circuits (a
``def`` gate, T/Tdg/TOFFOLI, ``NOTC``, reversed and non-adjacent wires)
the kernels must agree, both must accept the checker's claims, and both
must reject the same claims mutated: a flipped sign, a swapped atom, a
wrong phase.
"""

import random

import numpy as np

from gottesman import oracle
from gottesman.checker import Circuit, check, infer_tableau
from gottesman.gates import GateApp, derive_gate, standard_gates
from gottesman.pauli import PauliString
from gottesman.typesys import QType

from helpers import (
    ALL_ATOMS,
    embed,
    lift,
    mutations,
    oracle_unitary,
    pauli,
    random_circuit,
    random_stab_type,
    ref_evolve,
    ref_pure_at,
    ref_row_projected_states,
    ref_sample_eigenstates,
    ref_transport_residual,
    ref_transported_states,
    ref_unitary,
    ref_verify_conjugation,
    ref_verify_separability,
    transport_residual,
    verify_conjugation,
    verify_separability,
)

GATES = standard_gates()
SIZES = (1, 2, 3, 4, 5, 6)
ONE_QUBIT = tuple(PauliString.parse(sign + atom) for atom in "XYZ" for sign in ("", "-"))



def random_string(n, rng):
    atoms = tuple(rng.choice(ALL_ATOMS) for _ in range(n))
    return pauli(rng.randrange(4), atoms)


def test_unitary_matches_dense_product():
    rng = random.Random(1103)
    for trial in range(30):
        n = SIZES[trial % len(SIZES)]
        circuit = random_circuit(n, rng.randrange(1, 12), rng)
        got = oracle_unitary(circuit)
        assert np.max(np.abs(got - ref_unitary(circuit))) < 1e-9


# Non-monomial defs: a Bell pair's and a three-qubit cat state's encoders.
H_1, CNOT_12 = GateApp(GATES["H"], (1,)), GateApp(GATES["CNOT"], (1, 2))
BELL = derive_gate("BELL", 2, [H_1, CNOT_12])
CAT = derive_gate("CAT", 3, [H_1, CNOT_12, GateApp(GATES["CNOT"], (2, 3))])


def random_batch(n, rng):
    """Three complex Gaussian columns, seeded from ``rng``."""
    draw = np.random.default_rng(rng.randrange(2**32)).standard_normal((2, 2**n, 3))
    return draw[0] + 1j * draw[1]


def assert_evolve_matches(circuit, batch):
    """``oracle._evolve`` on ``batch`` against the tensordot contraction and
    the dense product, leaving the batch as it was."""
    n, before = circuit.n_qubits, batch.copy()
    got = oracle._evolve(circuit.instructions, n, batch)
    assert np.array_equal(batch, before)
    assert np.max(np.abs(got - ref_evolve(circuit.instructions, n, batch))) < 1e-9
    assert np.max(np.abs(got - ref_unitary(circuit, batch))) < 1e-9


def test_monomial_path_is_every_standard_gate_but_h():
    # A gate whose unitary has one entry per row is a gather of the rows; a
    # silent fall-back to the block matmul would only show up as lost speed.
    for name, spec in GATES.items():
        assert (oracle._monomial(spec) is None) == (name == "H"), name
    assert oracle._monomial(BELL) is None and oracle._monomial(CAT) is None
    # Phases are multiplied in only where one is not 1.
    unphased = {"X", "CNOT", "NOTC", "SWAP", "TOFFOLI"}
    for name, spec in GATES.items():
        if name != "H":
            assert (oracle._monomial(spec)[1] is None) == (name in unphased), name
    phases = oracle._monomial(GATES["S"])[1]
    assert np.max(np.abs(phases - [1, 1j])) < 1e-12


def test_every_gate_on_reversed_non_adjacent_wires_matches_references():
    rng = random.Random(1601)
    wires = {1: (4,), 2: (5, 2), 3: (5, 3, 1)}
    for spec in (*GATES.values(), BELL, CAT):
        circuit = Circuit(5, (GateApp(spec, wires[spec.arity]),))
        assert_evolve_matches(circuit, np.eye(32, dtype=complex))
        assert_evolve_matches(circuit, random_batch(5, rng))


def test_evolve_matches_references_up_to_ten_qubits():
    rng = random.Random(1607)
    pool = (*GATES.values(), BELL, CAT)
    seen = set()
    for trial in range(30):
        n = 1 + trial % 10
        specs = [rng.choice([g for g in pool if g.arity <= n]) for _ in range(12)]
        wires = [tuple(rng.sample(range(1, n + 1), g.arity)) for g in specs]
        apps = tuple(map(GateApp, specs, wires))
        circuit = Circuit(n, apps)
        if n <= 6:
            assert_evolve_matches(circuit, np.eye(2**n, dtype=complex))
        assert_evolve_matches(circuit, random_batch(n, rng))
        for app in apps:
            w = app.wires
            reversed_ = any(a > b for a, b in zip(w, w[1:]))
            gapped = any(abs(a - b) > 1 for a, b in zip(w, w[1:]))
            seen.add((app.gate.name, reversed_, gapped))
    for spec in pool:
        if spec.arity == 1:
            assert (spec.name, False, False) in seen
        else:
            assert (spec.name, True, True) in seen, spec.name


PHASED = ("S", "Sdg", "Z", "Y", "CZ", "T", "Tdg", "TOFFOLI")
UNPHASED = ("X", "CNOT", "NOTC", "SWAP")


def monomial_runs(n, rng):
    """Runs of 1-30 monomial gates, mostly phased, on reversed wires; each
    run but the last is broken by H or by ``BELL``/``CAT``."""
    pool = [GATES[name] for name in PHASED * 3 + UNPHASED]
    breaks = [g for g in (GATES["H"], BELL, CAT) if g.arity <= n]
    specs = []
    for run in range(rng.randrange(1, 5)):
        if run:
            specs.append(rng.choice(breaks))
        for _ in range(rng.randrange(1, 31)):
            specs.append(rng.choice([g for g in pool if g.arity <= n]))
    wires = [sorted(rng.sample(range(1, n + 1), g.arity), reverse=True) for g in specs]
    return tuple(GateApp(g, tuple(w)) for g, w in zip(specs, wires))


def test_fused_monomial_runs_match_references_up_to_ten_qubits():
    # _evolve keeps a run of monomial gates as one pending row permutation
    # and phase column, and touches the batch only where the run ends.
    rng = random.Random(1709)
    seen = set()
    for trial in range(40):
        n = 1 + trial % 10
        apps = monomial_runs(n, rng)
        if n <= 6:
            assert_evolve_matches(Circuit(n, apps), np.eye(2**n, dtype=complex))
        assert_evolve_matches(Circuit(n, apps), random_batch(n, rng))
        for app in apps:
            w = app.wires
            seen.add((app.gate.name, any(a - b > 1 for a, b in zip(w, w[1:]))))
    for name in ("CZ", "TOFFOLI", "CNOT", "NOTC", "SWAP", "BELL", "CAT"):
        assert (name, True) in seen, name


def test_runs_whose_phases_compose_to_one_match_references():
    def app(name, *wires):
        return GateApp(GATES[name], wires)

    cancel = (app("S", 4), app("Z", 2), app("Sdg", 4), app("Z", 2))
    cases = (
        cancel,  # the whole circuit is one run whose phases are all 1
        (app("H", 3),) + cancel + (app("CNOT", 4, 1),),
        cancel + (GateApp(CAT, (5, 3, 1)),) + (app("T", 1), app("Tdg", 1)),
        # Ends mid-run, after a break, on a permutation with phases.
        (GateApp(BELL, (4, 2)), app("Y", 5), app("TOFFOLI", 5, 3, 2), app("S", 5)),
    )
    rng = random.Random(1711)
    for apps in cases:
        circuit = Circuit(5, apps)
        assert_evolve_matches(circuit, np.eye(32, dtype=complex))
        assert_evolve_matches(circuit, random_batch(5, rng))


def test_reversed_wires_and_notc_match_dense_product():
    cases = (
        ("CNOT", (3, 1)),
        ("NOTC", (1, 3)),
        ("NOTC", (4, 2)),
        ("SWAP", (4, 1)),
        ("TOFFOLI", (4, 1, 3)),
    )
    for name, wires in cases:
        circuit = Circuit(4, (GateApp(GATES[name], wires),))
        got = oracle_unitary(circuit)
        assert np.max(np.abs(got - ref_unitary(circuit))) < 1e-9


def test_conjugation_verdicts_match_reference():
    rng = random.Random(1201)
    accepted = rejected = 0
    for trial in range(36):
        n = SIZES[trial % len(SIZES)]
        circuit = random_circuit(n, rng.randrange(1, 12), rng)
        tab = infer_tableau(circuit)
        for atom, images in (("X", tab.x_images), ("Z", tab.z_images)):
            for k, img in enumerate(images, start=1):
                if img.is_top:
                    continue
                source = embed(atom, 0, k, n)
                assert verify_conjugation(circuit, source, img)
                assert ref_verify_conjugation(circuit, source, img)
                accepted += 1
                for wrong in mutations(img, rng):
                    assert not verify_conjugation(circuit, source, wrong)
                    assert not ref_verify_conjugation(circuit, source, wrong)
                    rejected += 1
        # Arbitrary pairs: the two must simply agree.
        p, q = random_string(n, rng), random_string(n, rng)
        assert verify_conjugation(circuit, p, q) == ref_verify_conjugation(
            circuit, p, q
        )
    assert accepted > 100 and rejected == 3 * accepted


def test_batched_verify_matches_reference_up_to_eight_qubits():
    """One ``oracle._verify`` pass, as ``verify`` makes it, against the exact
    dense verdicts for every claim and the dense residual of every string
    claimed of the output, its generators and lifted factors."""
    rng = random.Random(1511)
    accepted = rejected = flawed = factors = 0
    for trial, n in enumerate((1, 2, 3, 4, 5, 6, 7, 8) * 2):
        circuit = random_circuit(n, rng.randrange(6, 16), rng)
        u = ref_unitary(circuit)
        tab = infer_tableau(circuit)
        pairs = []
        for atom, images in (("X", tab.x_images), ("Z", tab.z_images)):
            for k, img in enumerate(images, start=1):
                if not img.is_top:
                    source = embed(atom, 0, k, n)
                    pairs += [(source, q) for q in (img, *mutations(img, rng))]
        pairs.append((random_string(n, rng), random_string(n, rng)))
        input_type = random_stab_type(n, rng)
        out = check(circuit, QType(n, input_type))
        gens = () if out.top else out.stab.generators
        if gens and trial % 2:
            # A swapped atom gives a residual that depends on the samples
            # (a flipped sign gives 2 on any of them), so the value pins
            # down the eigenstate stream too.
            j = rng.randrange(len(gens))
            gens = gens[:j] + (mutations(gens[j], rng)[1],) + gens[j + 1 :]
        # The output's factors, each lifted to the register, follow the
        # generators as ``verify`` claims them.
        claimed = gens + tuple(lift(k, u, n) for k, u in (() if out.top else out.factors))
        verdicts, residuals = oracle._verify(
            circuit, pairs, input_type, claimed, samples=3, seed=trial
        )
        want = [ref_verify_conjugation(circuit, p, q, u) for p, q in pairs]
        assert verdicts == want
        # Every checker image holds and its three mutations fail.
        assert want[:-1] == [True, False, False, False] * (len(pairs) // 4)
        accepted += sum(want)
        rejected += len(want) - sum(want)
        for q, got in zip(claimed, residuals, strict=True):
            expected = ref_transport_residual(circuit, input_type, (q,), 3, trial)
            assert abs(got - expected) < 1e-9
        flawed += max(residuals, default=0.0) > 1e-3
        factors += len(claimed) - len(gens)
    assert accepted > 100 and rejected > 300 and flawed > 3 and factors > 5


def test_batched_samples_are_the_sequential_samples():
    rng = random.Random(1301)
    for trial in range(24):
        n = SIZES[trial % len(SIZES)]
        s = random_stab_type(n, rng)
        got = oracle._sample_states(n, s.tableau, 5, np.random.default_rng(trial)).T
        expected = ref_sample_eigenstates(s, 5, trial)
        assert np.max(np.abs(got - np.array(expected))) < 1e-12


def test_column_projector_equals_the_row_projector_bit_for_bit():
    """Projecting in column layout and halving once at the end gives the
    row-layout projector's states exactly, at every rank up to 8 qubits."""
    rng = random.Random(1601)
    for n in range(1, 9):
        for rank in range(n + 1):
            s = random_stab_type(n, rng, rank=rank)
            for seed in range(3):
                count = rng.choice((1, 5, 16))
                got = oracle._sample_states(n, s.tableau, count, np.random.default_rng(seed)).T
                assert np.array_equal(got, ref_row_projected_states(s, count, seed))


def test_transport_and_separability_verdicts_match_reference():
    rng = random.Random(1409)
    transported = separable = entangled = 0
    for trial in range(30):
        n = SIZES[trial % len(SIZES)]
        circuit = random_circuit(n, rng.randrange(1, 10), rng)
        input_type = random_stab_type(n, rng)
        out = check(circuit, QType(n, input_type))
        if out.top:
            continue
        flat_out = out.stab
        gens = flat_out.generators
        claimed = (circuit, input_type, gens)
        got = transport_residual(*claimed, samples=4, seed=trial)
        want = ref_transport_residual(*claimed, 4, trial)
        assert got < oracle.TOLERANCE and want < oracle.TOLERANCE
        transported += 1
        if gens:
            # A swapped atom may land in the same group, so only a flipped
            # sign and a wrong phase must fail; all three must agree.
            j = rng.randrange(len(gens))
            flipped, swapped, phased = mutations(gens[j], rng)
            for wrong in (flipped, swapped, phased):
                claimed = (circuit, input_type, gens[:j] + (wrong,) + gens[j + 1 :])
                got = transport_residual(*claimed, samples=4, seed=trial)
                want = ref_transport_residual(*claimed, 4, trial)
                assert (got < oracle.TOLERANCE) == (want < oracle.TOLERANCE)
                assert wrong is swapped or got > 1e-3
        # Each of the six one-qubit strings at each qubit, claimed as one more
        # string on the transported input eigenstates, has the dense
        # reference's residual. Only the output's own factor holds, and where
        # it does the qubit is pure in every transported state and in fresh
        # draws of the output type.
        factors = dict(out.factors)
        claims = [(k, u) for k in range(1, n + 1) for u in ONE_QUBIT]
        lifted = [lift(k, u, n) for k, u in claims]
        _, residuals = oracle._verify(circuit, (), input_type, lifted, samples=4, seed=trial)
        states = ref_transported_states(circuit, input_type, 4, trial)
        for q, got in zip(lifted, residuals):
            want = ref_transport_residual(circuit, input_type, (q,), 4, trial)
            assert abs(got - want) < 1e-9
        for k in range(1, n + 1):
            held = [u for (j, u), r in zip(claims, residuals) if j == k and r < oracle.TOLERANCE]
            assert held == ([factors[k]] if k in factors else [])
            if held:
                assert ref_pure_at(states, k, n)
                assert verify_separability(flat_out, k, held[0], samples=4, seed=trial)
                assert ref_verify_separability(flat_out, k, 4, trial)
            separable += bool(held)
            entangled += not held
    assert transported > 15 and separable > 10 and entangled > 5
