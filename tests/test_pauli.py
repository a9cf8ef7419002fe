import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gottesman.errors import ArityError, TopOperandError, WireError
from gottesman.pauli import PauliString, commutes, from_bits, string_mul, tensor
from gottesman.stabilizer import member
from gottesman.typesys import StabType

from helpers import (
    ALL_ATOMS,
    MAT,
    PHASE_VALUES,
    PREFIXES,
    embed,
    letters,
    pauli,
    ref_text,
    string_matrix,
    string_pairs,
    string_triples,
    strings,
)


def P(text):
    return PauliString.parse(text)


def atom_mul(a, b):
    """One-qubit product a*b through the packed string_mul, as (exponent, letter)."""
    prod = string_mul(P(a), P(b))
    return prod.k, letters(prod)


class TestPhase:
    """Exponents of i, carried by phased strings."""

    def test_multiplication_mod_4(self):
        for a in range(4):
            for b in range(4):
                assert string_mul(pauli(a, "X"), pauli(b, "I")).k == (a + b) % 4

    def test_negation_and_i(self):
        assert -P("X") == P("-X")
        assert string_mul(P("iI"), P("X")) == P("iX")
        assert string_mul(P("iI"), P("iX")) == P("-X")  # i(iA) = -A
        assert -P("iX") == P("-iX")

    def test_complex_values(self):
        # PHASE_VALUES, which the matrix oracles use, is i**k.
        assert [PHASE_VALUES[P(prefix + "I").k] for prefix in PREFIXES] == [1, 1j, -1, -1j]
        for a in range(4):
            for b in range(4):
                product = PHASE_VALUES[string_mul(pauli(a, "I"), pauli(b, "I")).k]
                assert product == PHASE_VALUES[a] * PHASE_VALUES[b] == 1j ** (a + b)


class TestAtomMul:
    """The single-qubit product table, on one-qubit packed strings."""

    def test_identity_law(self):
        assert atom_mul("I", "X") == (0, "X")
        assert atom_mul("X", "I") == (0, "X")

    def test_xz_is_minus_i_y(self):
        assert atom_mul("X", "Z") == (3, "Y")

    def test_zx_is_plus_i_y(self):
        assert atom_mul("Z", "X") == (1, "Y")

    def test_top_annihilates(self):
        assert atom_mul("T", "Z") == (0, "T")
        assert atom_mul("X", "T") == (0, "T")
        assert atom_mul("T", "T") == (0, "T")

    def test_full_table_against_matrices(self):
        for a in ALL_ATOMS:
            for b in ALL_ATOMS:
                phase, c = atom_mul(a, b)
                expected = MAT[a] @ MAT[b]
                assert np.allclose(PHASE_VALUES[phase] * MAT[c], expected)

    def test_phased_atoms_form_group_of_order_16(self):
        elements = [(k, a) for k in range(4) for a in ALL_ATOMS]
        seen = set()
        for (p1, a1) in elements:
            inverses = 0
            for (p2, a2) in elements:
                q, c = atom_mul(a1, a2)
                prod = ((p1 + p2 + q) % 4, c)
                assert prod in elements
                seen.add(((p1, a1), (p2, a2)))
                if prod == (0, "I"):
                    inverses += 1
            assert inverses == 1  # unique inverse
        assert len(seen) == 16 * 16


class TestPauliString:
    def test_parse_print_examples(self):
        assert str(P("XX")) == "XX"
        assert str(P("-iXZ")) == "-iXZ"
        assert str(P("+X")) == "X"
        assert str(P("iZ")) == "iZ"
        assert P("-iXZ") == PauliString(2, 0b01, 0b10, 3)

    @given(st.integers(1, 5).flatmap(strings))
    def test_parse_print_roundtrip(self, p):
        assert PauliString.parse(str(p)) == p

    @pytest.mark.parametrize(
        "widths", [range(1, 201), range(4095, 4098)], ids=["narrow", "wide"]
    )
    def test_print_matches_mask_reference(self, widths):
        # Random masks in every phase, the all-I string, Top, and X on the
        # first qubit beside Z on the last, at each width.
        rng = random.Random(2025)
        for n in widths:
            cases = [PauliString.identity(n), PauliString.top(n), from_bits(n, 1, 1 << n - 1)]
            cases += [from_bits(n, rng.getrandbits(n), rng.getrandbits(n), k) for k in range(4)]
            for p in cases:
                text = str(p)
                assert text == ref_text(p)
                assert PauliString.parse(text) == p

    def test_parse_rejects_garbage(self):
        for bad in ("", "i", "xz", "X Z", "--X", "X2"):
            with pytest.raises(ValueError):
                PauliString.parse(bad)

    def test_top_collapses_whole_string(self):
        p = P("-XTZ")
        assert p.is_top
        assert letters(p) == "TTT"
        assert p.k == 0
        assert str(p) == "TTT"

    def test_negated_top_is_itself(self):
        top = PauliString.top(2)
        assert -top is top

    def test_equality_with_other_objects(self):
        p = P("XZ")
        assert p.__eq__("XZ") is NotImplemented
        assert p != "XZ" and p != (p.arity, p.x, p.z, p.k)

    def test_empty_string_rejected(self):
        with pytest.raises(ArityError):
            PauliString(0, 0, 0)

    @pytest.mark.parametrize("n", [0, -2])
    @pytest.mark.parametrize("build", [PauliString.identity, PauliString.top])
    def test_builders_reject_arity_below_one(self, build, n):
        with pytest.raises(ArityError):
            build(n)

    @pytest.mark.parametrize("x, z", [(-1, 0), (0, -2), (1 << 3, 0), (0, 1 << 4)])
    def test_masks_out_of_range_rejected(self, x, z):
        with pytest.raises(ValueError):
            PauliString(3, x, z)
        assert str(PauliString(3, 1 << 2, 1 << 2)) == "IIY"  # bit arity - 1 fits

    @given(st.integers(1, 5).flatmap(strings))
    def test_constructor_matches_from_bits_and_parse(self, p):
        got = PauliString(p.arity, p.x, p.z, p.k + 4)
        assert got == from_bits(p.arity, p.x, p.z, p.k) == PauliString.parse(str(p))
        assert got.k == p.k

    def test_bits_of_top_raise(self):
        # Top keeps zero masks, and the symplectic layer refuses it.
        top = PauliString.top(2)
        assert (top.x, top.z, top.k) == (0, 0, 0)
        with pytest.raises(TopOperandError):
            member(StabType.of("XX"), top)


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
        assert embed("Z", 0, 1, 3) == P("ZII")
        assert embed("X", 0, 3, 3) == P("IIX")
        assert embed("Y", 2, 2, 2) == P("-IY")

    def test_out_of_range(self):
        with pytest.raises(WireError):
            embed("Z", 0, 0, 3)
        with pytest.raises(WireError):
            embed("Z", 0, 4, 3)


def test_matrix_oracle_exhaustive_two_qubits():
    universe = [
        pauli(k, (a, b))
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
        p = pauli(rng.randrange(4), atoms_p)
        q = pauli(rng.randrange(4), atoms_q)
        got = string_matrix(string_mul(p, q))
        assert np.allclose(got, string_matrix(p) @ string_matrix(q), atol=1e-12)
