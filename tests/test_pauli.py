import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gottesman.errors import ArityError, TopOperandError, WireError
from gottesman.pauli import (
    MINUS_I,
    MINUS_ONE,
    ONE,
    PLUS_I,
    PauliAtom,
    PauliString,
    Phase,
    commutes,
    string_mul,
    tensor,
)
from gottesman.stabilizer import canonicalize

from helpers import (
    ALL_ATOMS,
    MAT,
    PHASE_VALUES,
    embed,
    string_matrix,
    string_pairs,
    string_triples,
    strings,
)

I, X, Y, Z, TOP = PauliAtom.I, PauliAtom.X, PauliAtom.Y, PauliAtom.Z, PauliAtom.TOP


def P(text):
    return PauliString.parse(text)


def atom_mul(a, b):
    """One-qubit product a*b through the packed string_mul, as (phase, atom)."""
    prod = string_mul(PauliString(ONE, (a,)), PauliString(ONE, (b,)))
    return prod.phase, prod.atoms[0]


class TestPhase:
    def test_multiplication_mod_4(self):
        for a in range(4):
            for b in range(4):
                assert (Phase(a) * Phase(b)).k == (a + b) % 4

    def test_negation_and_i(self):
        assert -ONE == MINUS_ONE
        assert PLUS_I * ONE == PLUS_I
        assert PLUS_I * PLUS_I == MINUS_ONE  # i(iA) = -A
        assert -PLUS_I == MINUS_I

    def test_complex_values(self):
        # PHASE_VALUES, which the matrix oracles use, is i**k.
        assert [PHASE_VALUES[Phase(k).k] for k in range(4)] == [1, 1j, -1, -1j]
        for a in range(4):
            for b in range(4):
                product = PHASE_VALUES[(Phase(a) * Phase(b)).k]
                assert product == PHASE_VALUES[a] * PHASE_VALUES[b] == 1j ** (a + b)

    def test_sign_only_for_real(self):
        assert ONE.sign == 1
        assert MINUS_ONE.sign == -1
        with pytest.raises(ValueError):
            PLUS_I.sign


class TestAtomMul:
    """The single-qubit product table, on one-qubit packed strings."""

    def test_identity_law(self):
        assert atom_mul(I, X) == (ONE, X)
        assert atom_mul(X, I) == (ONE, X)

    def test_xz_is_minus_i_y(self):
        assert atom_mul(X, Z) == (MINUS_I, Y)

    def test_zx_is_plus_i_y(self):
        assert atom_mul(Z, X) == (PLUS_I, Y)

    def test_top_annihilates(self):
        assert atom_mul(TOP, Z) == (ONE, TOP)
        assert atom_mul(X, TOP) == (ONE, TOP)
        assert atom_mul(TOP, TOP) == (ONE, TOP)

    def test_full_table_against_matrices(self):
        for a in ALL_ATOMS:
            for b in ALL_ATOMS:
                phase, c = atom_mul(a, b)
                expected = MAT[a] @ MAT[b]
                assert np.allclose(PHASE_VALUES[phase.k] * MAT[c], expected)

    def test_phased_atoms_form_group_of_order_16(self):
        elements = [(Phase(k), a) for k in range(4) for a in ALL_ATOMS]
        seen = set()
        for (p1, a1) in elements:
            inverses = 0
            for (p2, a2) in elements:
                q, c = atom_mul(a1, a2)
                prod = (p1 * p2 * q, c)
                assert prod in [(p, a) for p, a in elements]
                seen.add(((p1.k, a1), (p2.k, a2)))
                if prod == (ONE, I):
                    inverses += 1
            assert inverses == 1  # unique inverse
        assert len(seen) == 16 * 16


class TestPauliString:
    def test_parse_print_examples(self):
        assert str(P("XX")) == "XX"
        assert str(P("-iXZ")) == "-iXZ"
        assert str(P("+X")) == "X"
        assert str(P("iZ")) == "iZ"
        assert P("-iXZ") == PauliString(MINUS_I, (X, Z))

    @given(st.integers(1, 5).flatmap(strings))
    def test_parse_print_roundtrip(self, p):
        assert PauliString.parse(str(p)) == p

    def test_parse_rejects_garbage(self):
        for bad in ("", "i", "xz", "X Z", "--X", "X2"):
            with pytest.raises(ValueError):
                PauliString.parse(bad)

    def test_top_collapses_whole_string(self):
        p = PauliString(MINUS_ONE, (X, TOP, Z))
        assert p.is_top
        assert p.atoms == (TOP, TOP, TOP)
        assert p.phase == ONE
        assert str(p) == "TTT"

    def test_empty_string_rejected(self):
        with pytest.raises(ArityError):
            PauliString(ONE, ())

    def test_bits_of_top_raise(self):
        # Top keeps zero masks, and the symplectic layer refuses it.
        top = PauliString.top(2)
        assert (top.x, top.z, top.k) == (0, 0, 0)
        with pytest.raises(TopOperandError):
            canonicalize([top])


class TestStringMul:
    def test_xx_times_zz(self):
        assert string_mul(P("XX"), P("ZZ")) == P("-YY")

    def test_identity(self):
        p = P("iXYZ")
        assert string_mul(p, PauliString.identity(3)) == p
        assert string_mul(PauliString.identity(3), p) == p

    def test_xx_times_xi(self):
        assert string_mul(P("XX"), P("XI")) == P("IX")

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            string_mul(P("X"), P("XX"))

    def test_top_absorbs(self):
        assert string_mul(P("TT"), P("iXZ")) == PauliString.top(2)
        assert string_mul(P("XZ"), P("TT")) == PauliString.top(2)

    @given(string_triples)
    def test_associative(self, pqr):
        p, q, r = pqr
        assert string_mul(string_mul(p, q), r) == string_mul(p, string_mul(q, r))

    @given(string_pairs)
    def test_matrix_homomorphism(self, pq):
        p, q = pq
        got = string_matrix(string_mul(p, q))
        assert np.allclose(got, string_matrix(p) @ string_matrix(q), atol=1e-12)

    @given(string_pairs)
    def test_commute_or_anticommute(self, pq):
        p, q = pq
        pq_ = string_mul(p, q)
        qp_ = string_mul(q, p)
        if commutes(p, q):
            assert pq_ == qp_
        else:
            assert pq_ == -qp_


class TestTensor:
    def test_plain(self):
        assert tensor(P("X"), P("Z")) == P("XZ")

    def test_phase_extrusion_left(self):
        assert tensor(P("iX"), P("Z")) == P("iXZ")

    def test_phase_extrusion_both(self):
        assert tensor(P("-X"), P("iZ")) == P("-iXZ")

    def test_top_spreads(self):
        assert tensor(P("X"), P("T")) == PauliString.top(2)

    @given(string_pairs)
    def test_tensor_as_padded_product(self, pq):
        p, q = pq
        left = tensor(p, PauliString.identity(q.arity))
        right = tensor(PauliString.identity(p.arity), q)
        assert tensor(p, q) == string_mul(left, right)

    @given(string_pairs)
    def test_tensor_matches_kronecker(self, pq):
        p, q = pq
        got = string_matrix(tensor(p, q))
        assert np.allclose(got, np.kron(string_matrix(p), string_matrix(q)))


class TestCommutes:
    def test_examples(self):
        assert commutes(P("XX"), P("ZZ"))
        assert not commutes(P("X"), P("Z"))
        assert commutes(P("iYZX"), PauliString.identity(3))

    def test_top_rejected(self):
        with pytest.raises(TopOperandError):
            commutes(P("TT"), P("XX"))

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            commutes(P("X"), P("XX"))

    @given(string_pairs)
    def test_matches_matrix_commutator(self, pq):
        p, q = pq
        mp, mq = string_matrix(p), string_matrix(q)
        assert commutes(p, q) == np.allclose(mp @ mq, mq @ mp)


class TestEmbed:
    """``helpers.embed``, the references' single-qubit strings."""

    def test_examples(self):
        assert embed(Z, ONE, 1, 3) == P("ZII")
        assert embed(X, ONE, 3, 3) == P("IIX")
        assert embed(Y, MINUS_ONE, 2, 2) == P("-IY")

    def test_out_of_range(self):
        with pytest.raises(WireError):
            embed(Z, ONE, 0, 3)
        with pytest.raises(WireError):
            embed(Z, ONE, 4, 3)


def test_matrix_oracle_exhaustive_two_qubits():
    universe = [
        PauliString(Phase(k), (a, b))
        for k in range(4)
        for a in ALL_ATOMS
        for b in ALL_ATOMS
    ]
    for p in universe:
        for q in universe:
            got = string_matrix(string_mul(p, q))
            assert np.allclose(got, string_matrix(p) @ string_matrix(q), atol=1e-12)


def test_matrix_oracle_random_five_qubits():
    import random

    rng = random.Random(20240817)
    for _ in range(200):
        atoms_p = tuple(rng.choice(ALL_ATOMS) for _ in range(5))
        atoms_q = tuple(rng.choice(ALL_ATOMS) for _ in range(5))
        p = PauliString(Phase(rng.randrange(4)), atoms_p)
        q = PauliString(Phase(rng.randrange(4)), atoms_q)
        got = string_matrix(string_mul(p, q))
        assert np.allclose(got, string_matrix(p) @ string_matrix(q), atol=1e-12)
