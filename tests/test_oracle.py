import itertools
import random

import numpy as np
import pytest

from gottesman import oracle, pyoracle
from gottesman.checker import Circuit
from gottesman.errors import (
    EmptyEigenspaceError,
    MeasurementError,
    OracleUnavailableError,
    TopOperandError,
)
from gottesman.gates import GateApp, standard_gates
from gottesman.pauli import PauliString
from gottesman.typesys import QType, StabType

from helpers import (
    ALL_ATOMS,
    letters,
    lift,
    oracle_unitary,
    pauli,
    ref_pure_at,
    ref_unitary,
    string_matrix,
    transport_residual,
    verify_conjugation,
    verify_separability,
)

GATES = standard_gates()


def P(text):
    return PauliString.parse(text)


def circ(n, *steps):
    apps = tuple(
        GateApp(GATES[s.split()[0]], tuple(int(w) for w in s.split()[1:]))
        for s in steps
    )
    return Circuit(n, apps)


def act_matrix(p):
    """M(p) as ``oracle._apply`` gives it: p applied to the identity's columns."""
    return oracle._apply([p], np.eye(2**p.arity, dtype=complex))[:, 0]


class TestMatrixOf:
    def test_identity(self):
        assert np.array_equal(act_matrix(P("I")), np.eye(2))

    def test_negated_x(self):
        assert np.array_equal(act_matrix(P("-X")), np.array([[0, -1], [-1, 0]]))

    def test_phased_tensor(self):
        x = np.array([[0, 1], [1, 0]])
        z = np.array([[1, 0], [0, -1]])
        assert np.allclose(act_matrix(P("iXZ")), 1j * np.kron(x, z))

    def test_top_rejected(self):
        with pytest.raises(TopOperandError):
            act_matrix(PauliString.top(2))

    def test_homomorphism_exhaustive_small(self):
        for n in (1, 2):
            universe = [
                pauli(k, atoms)
                for k in range(4)
                for atoms in itertools.product(ALL_ATOMS, repeat=n)
            ]
            mats = {p: act_matrix(p) for p in universe}
            for p in universe:
                assert np.max(np.abs(mats[p] - string_matrix(p))) < 1e-12
                for q in universe:
                    prod = act_matrix(p * q)
                    assert np.max(np.abs(prod - mats[p] @ mats[q])) < 1e-12

    def test_homomorphism_exhaustive_three_qubits(self):
        universe = [
            pauli(k, atoms)
            for k in range(4)
            for atoms in itertools.product(ALL_ATOMS, repeat=3)
        ]
        mats = np.stack([act_matrix(p) for p in universe])
        assert np.max(np.abs(mats - [string_matrix(p) for p in universe])) < 1e-12
        index = {str(p): i for i, p in enumerate(universe)}
        for i, p in enumerate(universe):
            products = mats[i] @ mats  # batch over all q
            expected = mats[[index[str(p * q)] for q in universe]]
            assert np.max(np.abs(products - expected)) < 1e-12


class TestUnitaryOf:
    def test_hadamard(self):
        circuit = circ(1, "H 1")
        u = oracle_unitary(circuit)
        assert np.allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert np.max(np.abs(u - ref_unitary(circuit))) < 1e-12

    def test_s_squared_is_z(self):
        circuit = circ(1, "S 1", "S 1")
        u = oracle_unitary(circuit)
        assert np.allclose(u, np.diag([1, -1]), atol=1e-12)
        assert np.max(np.abs(u - ref_unitary(circuit))) < 1e-12

    def test_t_eighth_power_closes(self):
        circuit = circ(1, *(["T 1"] * 8))
        u = oracle_unitary(circuit)
        assert np.max(np.abs(u - np.eye(2))) < 1e-9
        assert np.max(np.abs(u - ref_unitary(circuit))) < 1e-9

    def test_all_standard_gates_unitary(self):
        for spec in GATES.values():
            u = oracle.gate_unitary(spec)
            dim = 2**spec.arity
            assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-9

    def test_toffoli_decomposition_matches_direct(self):
        u = oracle.gate_unitary(GATES["TOFFOLI"])
        expected = np.eye(8)
        expected[[6, 7]] = expected[[7, 6]]
        assert np.max(np.abs(u - expected)) < 1e-9

    def test_gate_order_matters(self):
        hs_circuit, sh_circuit = circ(1, "H 1", "S 1"), circ(1, "S 1", "H 1")
        hs, sh = oracle_unitary(hs_circuit), oracle_unitary(sh_circuit)
        h, s = oracle.gate_unitary(GATES["H"]), oracle.gate_unitary(GATES["S"])
        assert np.allclose(hs, s @ h)
        assert np.allclose(sh, h @ s)
        assert np.max(np.abs(hs - ref_unitary(hs_circuit))) < 1e-12
        assert np.max(np.abs(sh - ref_unitary(sh_circuit))) < 1e-12

    def test_one_cap_past_ten_qubits(self):
        # No check builds a 4^n operator, so 11 qubits verifies; every entry
        # point stops at MAX_QUBITS, where a state vector stops fitting.
        circuit = circ(11, "H 1", "CNOT 1 11")
        z1, image = P("Z" + "I" * 10), P("X" + "I" * 9 + "X")
        assert verify_conjugation(circuit, z1, image)
        over = pyoracle.MAX_QUBITS + 1
        pyoracle.check_size(pyoracle.MAX_QUBITS)
        with pytest.raises(OracleUnavailableError):
            pyoracle.check_size(over)
        wide = "Z" + "I" * (over - 1)
        with pytest.raises(OracleUnavailableError):
            pyoracle.verify_claims(Circuit(over), [(P(wide), P(wide))])

    def test_sample_batch_cap(self):
        # Arithmetic only: the largest allowed batch is never built here.
        for n in (1, 3, pyoracle.MAX_QUBITS):
            columns = pyoracle.MAX_BATCH_BYTES // (16 * 2**n)
            most = columns - pyoracle.PROBES * (2 * n + 1)
            pyoracle.check_size(n, most)
            with pytest.raises(OracleUnavailableError, match="batch cap of 128 MiB"):
                pyoracle.check_size(n, most + 1)
        wide = StabType.of("ZZ")
        with pytest.raises(OracleUnavailableError):
            pyoracle.verify_claims(circ(2, "H 1"), (), wide, (), samples=10**15)

    def test_rejects_measurement(self):
        from gottesman.checker import Measure

        with pytest.raises(MeasurementError):
            pyoracle.verify_claims(Circuit(1, (Measure(1),)), [(P("Z"), P("Z"))])

    def test_embedding_nonadjacent_wires(self):
        # CNOT between wires 3 and 1 of a 3-qubit register: |c t| = |q3 q1|
        circuit = circ(3, "CNOT 3 1")
        u = oracle_unitary(circuit)
        for basis in range(8):
            q1, q2, q3 = (basis >> 2) & 1, (basis >> 1) & 1, basis & 1
            target = ((q1 ^ q3) << 2) | (q2 << 1) | q3
            vec = np.zeros(8)
            vec[basis] = 1
            assert np.allclose(u @ vec, np.eye(8)[:, target])
        assert np.max(np.abs(u - ref_unitary(circuit))) < 1e-12


class TestVerifyConjugation:
    def test_h_sends_x_to_z(self):
        assert verify_conjugation(circ(1, "H 1"), P("X"), P("Z"))

    def test_empty_circuit(self):
        assert verify_conjugation(Circuit(2), P("XY"), P("XY"))

    def test_z_gate_flips_x(self):
        assert verify_conjugation(circ(1, "S 1", "S 1"), P("X"), P("-X"))

    def test_phase_errors_detected(self):
        assert not verify_conjugation(circ(1, "S 1", "S 1"), P("X"), P("X"))


# The six one-qubit strings a separability factor may claim.
FACTORS = tuple(P(sign + atom) for atom in "XYZ" for sign in ("", "-"))


class TestSeparability:
    """A factor +-U claimed at qubit k is one more string, U_k, claimed to
    fix every sampled eigenstate."""

    def test_local_z_is_separable(self):
        assert verify_separability(StabType.of("ZI"), 1, P("Z"))

    def test_bell_pair_is_not(self):
        bell = StabType.of("XX", "ZZ")
        assert not any(verify_separability(bell, 1, u) for u in FACTORS)

    def test_split_cat_state(self):
        assert verify_separability(StabType.of("IXX", "ZII", "IZZ"), 1, P("Z"))

    @pytest.mark.parametrize("gens", [("XX", "ZZ"), ("ZI", "IZ")])
    def test_scaled_columns_keep_each_factor_verdict(self, monkeypatch, gens):
        # Columns scaled by 2 double every residual: the check is linear in
        # the state, so a factor that holds still reads 0 and one that fails
        # reads further from it, whatever the columns' norms.
        draw = oracle._sample_states
        monkeypatch.setattr(oracle, "_sample_states", lambda *args: 2 * draw(*args))
        s, seed = StabType.of(*gens), pyoracle.DEFAULT_SEED
        lifted = (P("ZI"), P("IZ"), P("XI"))
        _, got = oracle._verify(Circuit(2), (), s, lifted, pyoracle.DEFAULT_SAMPLES, seed)
        monkeypatch.setattr(oracle, "_sample_states", draw)
        _, unit = oracle._verify(Circuit(2), (), s, lifted, pyoracle.DEFAULT_SAMPLES, seed)
        assert got == [2 * r for r in unit]
        holds = [r < pyoracle.TOLERANCE for r in got]
        assert holds == ([False] * 3 if gens == ("XX", "ZZ") else [True, True, False])

    def test_empty_eigenspace_detected(self):
        # +Z and -Z on one qubit project every sample to zero.
        with pytest.raises(EmptyEigenspaceError):
            oracle._sample_states(
                2, [P("ZI"), P("-ZI")], 1, np.random.default_rng(0)
            )

    @pytest.mark.parametrize("kernel", [pyoracle._verify, oracle._verify], ids=["plain", "numpy"])
    def test_factors_of_known_states(self, kernel):
        # Of the six claims at each qubit, only the state's own factor holds:
        # +X at qubit 1 and +Z at qubit 2 of |+>|0>, none of a Bell pair's.
        for gens, want in (
            (("XI", "IZ"), {(1, "X"), (2, "Z")}),
            (("XX", "ZZ"), set()),
        ):
            claims = [(k, u) for k in (1, 2) for u in FACTORS]
            lifted = [lift(k, u, 2) for k, u in claims]
            _, residuals = kernel(Circuit(2), (), StabType.of(*gens), lifted, 4, 7)
            held = {(k, str(u)) for (k, u), r in zip(claims, residuals) if r < 1e-9}
            assert held == want, gens

    def test_completeness_spot_check(self):
        # For a non-peeled qubit that generators actually act on, no claimed
        # factor holds, and some eigenspace sample is visibly entangled. (A
        # qubit no generator touches is unconstrained, not entangled.)
        rng = random.Random(61)
        from helpers import random_stab_type

        cases = draws = 0
        while cases < 10 and draws < 1000:  # capped: a fault fails, not hangs
            draws += 1
            n = rng.randrange(2, 5)
            s = random_stab_type(n, rng)
            q = QType(s.arity, s)
            peeled = {k for k, _ in q.factors}
            acted = {
                k
                for g in s.tableau
                for k in range(1, n + 1)
                if letters(g)[k - 1] != "I"
            }
            candidates = [k for k in acted if k not in peeled]
            if not candidates:
                continue
            cases += 1
            for k in candidates:
                assert not any(verify_separability(s, k, u, 16, cases) for u in FACTORS)
            states = oracle._sample_states(n, s.tableau, 16, np.random.default_rng(cases)).T
            assert any(not ref_pure_at(states, k, n, tolerance=1e-3) for k in candidates)
        assert cases == 10, f"only {cases} of 10 cases in {draws} draws"


class TestTransport:
    def test_ghz_eigenstates_transported(self):
        ghz = circ(3, "H 1", "CNOT 1 2", "CNOT 2 3")
        got = transport_residual(
            ghz,
            flatten_type("Z x Z x Z"),
            StabType.of("XXX", "ZZI", "IZZ").generators,
        )
        assert got < 1e-9

    def test_detects_wrong_claim(self):
        ghz = circ(3, "H 1", "CNOT 1 2", "CNOT 2 3")
        got = transport_residual(
            ghz,
            flatten_type("Z x Z x Z"),
            StabType.of("ZII").generators,
        )
        assert got > 1e-3


def flatten_type(text):
    from gottesman.typesys import parse_qtype

    return parse_qtype(text).stab
