import itertools
import random

import numpy as np
import pytest

from gottesman import oracle
from gottesman.checker import Circuit
from gottesman.errors import (
    EmptyEigenspaceError,
    MeasurementError,
    OracleError,
    OracleUnavailableError,
    TopOperandError,
)
from gottesman.gates import GateApp, standard_gates
from gottesman.pauli import PauliAtom, PauliString, Phase
from gottesman.typesys import StabType, factor_separable, flatten

from helpers import ALL_ATOMS

GATES = standard_gates()


def P(text):
    return PauliString.parse(text)


def circ(n, *steps):
    apps = tuple(
        GateApp(GATES[s.split()[0]], tuple(int(w) for w in s.split()[1:]))
        for s in steps
    )
    return Circuit(n, apps)


class TestMatrixOf:
    def test_identity(self):
        assert np.array_equal(oracle.matrix_of(P("I")), np.eye(2))

    def test_negated_x(self):
        assert np.array_equal(
            oracle.matrix_of(P("-X")), np.array([[0, -1], [-1, 0]])
        )

    def test_phased_tensor(self):
        x = np.array([[0, 1], [1, 0]])
        z = np.array([[1, 0], [0, -1]])
        assert np.allclose(oracle.matrix_of(P("iXZ")), 1j * np.kron(x, z))

    def test_top_rejected(self):
        with pytest.raises(TopOperandError):
            oracle.matrix_of(PauliString.top(2))

    def test_size_cap(self):
        with pytest.raises(OracleError):
            oracle.matrix_of(PauliString.identity(11))

    def test_homomorphism_exhaustive_small(self):
        for n in (1, 2):
            universe = [
                PauliString(Phase(k), atoms)
                for k in range(4)
                for atoms in itertools.product(ALL_ATOMS, repeat=n)
            ]
            mats = {p: oracle.matrix_of(p) for p in universe}
            for p in universe:
                for q in universe:
                    prod = oracle.matrix_of(p * q)
                    assert np.max(np.abs(prod - mats[p] @ mats[q])) < 1e-12

    def test_homomorphism_exhaustive_three_qubits(self):
        universe = [
            PauliString(Phase(k), atoms)
            for k in range(4)
            for atoms in itertools.product(ALL_ATOMS, repeat=3)
        ]
        mats = np.stack([oracle.matrix_of(p) for p in universe])
        index = {str(p): i for i, p in enumerate(universe)}
        for i, p in enumerate(universe):
            products = mats[i] @ mats  # batch over all q
            expected = mats[[index[str(p * q)] for q in universe]]
            assert np.max(np.abs(products - expected)) < 1e-12


class TestUnitaryOf:
    def test_hadamard(self):
        u = oracle.unitary_of(circ(1, "H 1"))
        assert np.allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_s_squared_is_z(self):
        u = oracle.unitary_of(circ(1, "S 1", "S 1"))
        assert np.allclose(u, np.diag([1, -1]), atol=1e-12)

    def test_t_eighth_power_closes(self):
        u = oracle.unitary_of(circ(1, *(["T 1"] * 8)))
        assert np.max(np.abs(u - np.eye(2))) < 1e-9

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
        hs = oracle.unitary_of(circ(1, "H 1", "S 1"))
        sh = oracle.unitary_of(circ(1, "S 1", "H 1"))
        h, s = oracle.gate_unitary(GATES["H"]), oracle.gate_unitary(GATES["S"])
        assert np.allclose(hs, s @ h)
        assert np.allclose(sh, h @ s)

    def test_dense_cap_is_ten_qubits(self):
        # U has 4^n entries; the state-vector checks reach MAX_QUBITS.
        circuit = circ(11, "H 1", "CNOT 1 11")
        with pytest.raises(OracleUnavailableError):
            oracle.unitary_of(circuit)
        with pytest.raises(OracleUnavailableError):
            oracle.eigenspace_projector(StabType.of("Z" + "I" * 10))
        z1, image = P("Z" + "I" * 10), P("X" + "I" * 9 + "X")
        assert oracle.verify_conjugation(circuit, z1, image)

    def test_rejects_measurement(self):
        from gottesman.checker import Measure

        with pytest.raises(MeasurementError):
            oracle.unitary_of(Circuit(1, (Measure(1),)))

    def test_embedding_nonadjacent_wires(self):
        # CNOT between wires 3 and 1 of a 3-qubit register: |c t| = |q3 q1|
        u = oracle.unitary_of(circ(3, "CNOT 3 1"))
        for basis in range(8):
            q1, q2, q3 = (basis >> 2) & 1, (basis >> 1) & 1, basis & 1
            target = ((q1 ^ q3) << 2) | (q2 << 1) | q3
            vec = np.zeros(8)
            vec[basis] = 1
            assert np.allclose(u @ vec, np.eye(8)[:, target])


class TestVerifyConjugation:
    def test_h_sends_x_to_z(self):
        assert oracle.verify_conjugation(circ(1, "H 1"), P("X"), P("Z"))

    def test_empty_circuit(self):
        assert oracle.verify_conjugation(Circuit(2), P("XY"), P("XY"))

    def test_z_gate_flips_x(self):
        assert oracle.verify_conjugation(circ(1, "S 1", "S 1"), P("X"), P("-X"))

    def test_phase_errors_detected(self):
        assert not oracle.verify_conjugation(circ(1, "S 1", "S 1"), P("X"), P("X"))


class TestSeparability:
    def test_local_z_is_separable(self):
        assert oracle.verify_separability(StabType.of("ZI"), 1)

    def test_bell_pair_is_not(self):
        assert not oracle.verify_separability(StabType.of("XX", "ZZ"), 1)

    def test_split_cat_state(self):
        assert oracle.verify_separability(StabType.of("IXX", "ZII", "IZZ"), 1)

    def test_empty_eigenspace_detected(self):
        # +Z and -Z on one qubit project every sample to zero.
        with pytest.raises(EmptyEigenspaceError):
            oracle._sample_states(
                2, [P("ZI"), P("-ZI")], 1, np.random.default_rng(0)
            )

    def test_purity_of_known_states(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert abs(oracle.reduced_purity(bell, 1, 2) - 0.5) < 1e-12
        product = np.kron(np.array([1, 1]) / np.sqrt(2), np.array([1, 0]))
        assert abs(oracle.reduced_purity(product, 1, 2) - 1.0) < 1e-12
        assert abs(oracle.reduced_purity(product, 2, 2) - 1.0) < 1e-12

    def test_completeness_spot_check(self):
        # For a non-peeled qubit that generators actually act on, some
        # eigenspace sample must be visibly entangled. (A qubit no
        # generator touches is unconstrained, not entangled.)
        rng = random.Random(61)
        from gottesman.stabilizer import canonicalize
        from helpers import random_stab_type

        cases = 0
        while cases < 10:
            n = rng.randrange(2, 5)
            s = random_stab_type(n, rng)
            q = factor_separable(s)
            peeled = {k for k, _, _ in q.factors}
            acted = {
                k
                for g in canonicalize(s).rows
                for k in range(1, n + 1)
                if g.atoms[k - 1] is not PauliAtom.I
            }
            candidates = [k for k in acted if k not in peeled]
            if not candidates:
                continue
            cases += 1
            states = oracle.sample_eigenstates(s, count=16, seed=cases)
            found = False
            for k in candidates:
                purities = [oracle.reduced_purity(v, k, n) for v in states]
                if min(purities) < 1 - 1e-3:
                    found = True
                    break
            assert found


class TestTransport:
    def test_ghz_eigenstates_transported(self):
        ghz = circ(3, "H 1", "CNOT 1 2", "CNOT 2 3")
        got = oracle.transport_residual(
            ghz,
            flatten_type("Z x Z x Z"),
            StabType.of("XXX", "ZZI", "IZZ").generators,
        )
        assert got < 1e-9

    def test_detects_wrong_claim(self):
        ghz = circ(3, "H 1", "CNOT 1 2", "CNOT 2 3")
        got = oracle.transport_residual(
            ghz,
            flatten_type("Z x Z x Z"),
            StabType.of("ZII").generators,
        )
        assert got > 1e-3


def flatten_type(text):
    from gottesman.typesys import parse_qtype

    return flatten(parse_qtype(text))
