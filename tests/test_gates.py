import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gottesman.errors import IllFormedTypeError, WireError
from gottesman.gates import (
    GateApp,
    GateSpec,
    _transport,
    apply_gate,
    derive_gate,
    standard_gates,
)
from gottesman.pauli import PauliString, commutes, string_mul

from helpers import (
    ALL_ATOMS,
    letters,
    pauli,
    ref_apply_gate,
    ref_embed_unitary,
    ref_gate_unitary,
    string_matrix,
    strings,
)


def P(text):
    return PauliString.parse(text)


GATES = standard_gates()


def table_of(name):
    spec = GATES[name]
    rows = {}
    for w in range(spec.arity):
        rows[("X", w + 1)] = spec.x_images[w]
        rows[("Z", w + 1)] = spec.z_images[w]
    return rows


class TestBaseGates:
    def test_base_set(self):
        assert {"H", "S", "Sdg", "CNOT", "T", "Tdg"} <= set(GATES)

    def test_h(self):
        assert table_of("H") == {("X", 1): P("Z"), ("Z", 1): P("X")}

    def test_s(self):
        assert table_of("S") == {("X", 1): P("Y"), ("Z", 1): P("Z")}

    def test_cnot(self):
        assert table_of("CNOT") == {
            ("X", 1): P("XX"),
            ("X", 2): P("IX"),
            ("Z", 1): P("ZI"),
            ("Z", 2): P("ZZ"),
        }

    def test_t_tops_out_on_x(self):
        assert table_of("T") == {("X", 1): PauliString.top(1), ("Z", 1): P("Z")}

    def test_sdg_is_three_s(self):
        assert table_of("Sdg") == {("X", 1): P("-Y"), ("Z", 1): P("Z")}
        assert len(GATES["Sdg"].decomposition) == 3

    def test_tdg_is_seven_t(self):
        assert table_of("Tdg") == {("X", 1): PauliString.top(1), ("Z", 1): P("Z")}
        assert len(GATES["Tdg"].decomposition) == 7


class TestDerivedGates:
    def test_z(self):
        assert table_of("Z") == {("X", 1): P("-X"), ("Z", 1): P("Z")}

    def test_x(self):
        assert table_of("X") == {("X", 1): P("X"), ("Z", 1): P("-Z")}

    def test_y(self):
        assert table_of("Y") == {("X", 1): P("-X"), ("Z", 1): P("-Z")}

    def test_cz(self):
        assert table_of("CZ") == {
            ("X", 1): P("XZ"),
            ("X", 2): P("ZX"),
            ("Z", 1): P("ZI"),
            ("Z", 2): P("IZ"),
        }

    def test_swap(self):
        assert table_of("SWAP") == {
            ("X", 1): P("IX"),
            ("X", 2): P("XI"),
            ("Z", 1): P("IZ"),
            ("Z", 2): P("ZI"),
        }

    def test_notc(self):
        assert table_of("NOTC") == {
            ("X", 1): P("XI"),
            ("X", 2): P("XX"),
            ("Z", 1): P("ZZ"),
            ("Z", 2): P("IZ"),
        }

    def test_toffoli(self):
        top = PauliString.top(3)
        assert table_of("TOFFOLI") == {
            ("X", 1): top,
            ("X", 2): top,
            ("X", 3): P("IIX"),
            ("Z", 1): P("ZII"),
            ("Z", 2): P("IZI"),
            ("Z", 3): top,
        }


class TestGateSpecValidation:
    def test_rejects_commuting_xz_pair(self):
        with pytest.raises(IllFormedTypeError, match="anticommute"):
            GateSpec("BAD", 1, (P("X"),), (P("X"),))

    def test_rejects_anticommuting_cross_pair(self):
        # Each wire's own pair is sound; the images of X_1 and X_2 anticommute.
        with pytest.raises(IllFormedTypeError) as caught:
            GateSpec("BAD", 2, (P("XI"), P("ZX")), (P("ZI"), P("IZ")))
        assert str(caught.value) == "BAD: generator images must commute pairwise"

    def test_all_standard_cliffords_are_valid_tableaus(self):
        for spec in GATES.values():
            if spec.is_clifford:
                for w in range(spec.arity):
                    assert not commutes(spec.x_images[w], spec.z_images[w])

    def test_wires_must_be_distinct(self):
        with pytest.raises(WireError):
            GateApp(GATES["CNOT"], (2, 2))

    def test_wire_count_must_match(self):
        with pytest.raises(WireError):
            GateApp(GATES["H"], (1, 2))


class TestApplyGate:
    def test_h_in_larger_register(self):
        got = apply_gate(GateApp(GATES["H"], (3,)), P("IIXI"))
        assert got == P("IIZI")

    def test_cnot_on_zx(self):
        # Z on the control and X on the target are both fixed, so the string
        # is its own image and comes back itself.
        p = P("ZX")
        assert apply_gate(GateApp(GATES["CNOT"], (1, 2)), p) is p

    def test_fixed_strings_the_masks_miss_come_back_equal(self):
        # Y moves both X and Z, and SWAP moves all four generators, so these
        # fixed strings take the touched path and are rebuilt equal.
        for name, wires, text in (("Y", (2,), "-XYZ"), ("SWAP", (1, 3), "iXZX")):
            p = P(text)
            assert apply_gate(GateApp(GATES[name], wires), p) == p

    def test_swap_exchanges_bases(self):
        got = apply_gate(GateApp(GATES["SWAP"], (1, 2)), P("XY"))
        assert got == P("YX")

    def test_t_on_y_tops_out(self):
        got = apply_gate(GateApp(GATES["T"], (1,)), P("Y"))
        assert got == PauliString.top(1)

    def test_t_on_identity_is_identity(self):
        got = apply_gate(GateApp(GATES["T"], (1,)), P("IZI"))
        assert got == P("IZI")

    def test_top_input_stays_top(self):
        # Top strings keep x = z = 0, so the identity shortcut returns them.
        top = PauliString.top(2)
        got = apply_gate(GateApp(GATES["H"], (1,)), top)
        assert got == PauliString.top(2) and got is top

    def test_wire_out_of_range(self):
        with pytest.raises(WireError):
            apply_gate(GateApp(GATES["H"], (3,)), P("XX"))

    def test_wire_out_of_range_before_identity_shortcut(self):
        # I on the in-range wire 1, and wire 3 is past the register.
        with pytest.raises(WireError, match="wire 3 out of range for 2 qubits"):
            apply_gate(GateApp(GATES["CNOT"], (1, 3)), P("-IX"))

    def test_wire_out_of_range_before_top_shortcut(self):
        with pytest.raises(WireError, match="wire 3 out of range for 2 qubits"):
            apply_gate(GateApp(GATES["CNOT"], (1, 3)), PauliString.top(2))

    def test_phase_passes_through(self):
        app = GateApp(GATES["H"], (1,))
        assert apply_gate(app, P("-iX")) == P("-iZ")

    @given(st.sampled_from(["H", "S", "Sdg", "X", "Y", "Z"]), strings(3))
    def test_single_qubit_gate_leaves_other_wires(self, name, p):
        if p.is_top:
            return
        got = apply_gate(GateApp(GATES[name], (2,)), p)
        assert letters(got)[0] == letters(p)[0]
        assert letters(got)[2] == letters(p)[2]


class TestRuleProperties:
    clifford_apps = st.sampled_from(
        [GateApp(GATES[n], (1,)) for n in ("H", "S", "Sdg", "X", "Y", "Z")]
        + [GateApp(GATES[n], w) for n in ("CNOT", "CZ", "SWAP", "NOTC") for w in ((1, 2), (2, 1))]
    )

    @given(clifford_apps, strings(2), strings(2))
    def test_multiplicative(self, app, p, q):
        if p.is_top or q.is_top:
            return
        lhs = apply_gate(app, string_mul(p, q))
        rhs = string_mul(apply_gate(app, p), apply_gate(app, q))
        assert lhs == rhs

    @given(clifford_apps, strings(2), st.integers(0, 3))
    def test_phases_pass_exactly(self, app, p, k):
        if p.is_top:
            return
        scaled = pauli(k + p.k, letters(p))
        got = apply_gate(app, scaled)
        base = apply_gate(app, p)
        assert got == pauli(k + base.k, letters(base))

    def test_swap_reversal_coherence(self):
        # Applying a two-qubit gate at (2, 1) equals conjugating by SWAP
        # around the same gate at (1, 2).
        swap = GateApp(GATES["SWAP"], (1, 2))
        rng = random.Random(17)
        for name in ("CNOT", "CZ", "SWAP", "NOTC"):
            for _ in range(40):
                p = pauli(rng.randrange(4), (rng.choice(ALL_ATOMS), rng.choice(ALL_ATOMS)))
                direct = apply_gate(GateApp(GATES[name], (2, 1)), p)
                routed = apply_gate(
                    swap, apply_gate(GateApp(GATES[name], (1, 2)), apply_gate(swap, p))
                )
                assert direct == routed


class TestDeriveGate:
    def test_rederive_z_from_table(self):
        z = derive_gate("Z2", 1, [GateApp(GATES["S"], (1,))] * 2)
        assert z.x_images == (P("-X"),)
        assert z.z_images == (P("Z"),)

    def test_decomposition_recorded(self):
        assert GATES["SWAP"].decomposition is not None
        assert [a.gate.name for a in GATES["SWAP"].decomposition] == [
            "CNOT",
            "NOTC",
            "CNOT",
        ]

    def test_ill_formed_decomposition_propagates(self):
        with pytest.raises(WireError):
            derive_gate("BAD", 1, [GateApp(GATES["CNOT"], (1, 2))])

    def test_equal_specs_built_separately_hash_equal(self):
        from gottesman.cli import parse

        src = "qubits 3\ndef G a b := H a; CNOT a b; S b\nG 1 3\nG 3 2\n"
        (first, _), (second, _) = parse(src), parse(src)
        g1, g2 = first.instructions[0].gate, second.instructions[0].gate
        assert g1 is not g2
        assert g1 == g2 and hash(g1) == hash(g2)
        assert first == second and hash(first) == hash(second)
        assert {g1: "unitary"}[g2] == "unitary"

    def test_equality_still_compares_every_field(self):
        # S;S and S^6 have the same images but different decompositions.
        s = GateApp(GATES["S"], (1,))
        z2, z6 = derive_gate("Z", 1, [s] * 2), derive_gate("Z", 1, [s] * 6)
        assert z2.x_images == z6.x_images and z2.z_images == z6.z_images
        assert z2 != z6
        assert z2 == GATES["Z"] and hash(z2) == hash(GATES["Z"])


class TestTransport:
    """``_transport``'s contract, whatever its loop order: a new list of the
    final images, and the first out-of-range gate's WireError."""

    def test_empty_run_returns_a_new_list_equal_to_its_input(self):
        for strings in ([], [P("X")], [P("-XZ"), PauliString.top(2), P("iYY")]):
            for given_as in (list, tuple):
                given = given_as(strings)
                got = _transport((), given)
                assert got == strings and got is not given and type(got) is list

    def test_later_out_of_range_gate_raises_as_apply_gate_does(self):
        strings = [P("XI"), P("-IZ"), PauliString.top(2)]
        bad = GateApp(GATES["CNOT"], (1, 3))
        apps = [
            GateApp(GATES["H"], (1,)),
            GateApp(GATES["CNOT"], (1, 2)),
            bad,
            GateApp(GATES["S"], (4,)),
        ]
        with pytest.raises(WireError) as want:
            apply_gate(bad, strings[0])
        with pytest.raises(WireError) as got:
            _transport(apps, strings)
        assert str(got.value) == str(want.value) == "wire 3 out of range for 2 qubits"


@pytest.mark.parametrize("name", [n for n, s in GATES.items() if s.is_clifford])
def test_images_match_matrix_conjugation_exhaustively(name):
    spec = GATES[name]
    n = spec.arity
    u = ref_gate_unitary(spec)
    for atoms in itertools.product(ALL_ATOMS, repeat=n):
        for k in range(4):
            p = pauli(k, atoms)
            got = apply_gate(GateApp(spec, tuple(range(1, n + 1))), p)
            expected = u @ string_matrix(p) @ u.conj().T
            assert np.max(np.abs(string_matrix(got) - expected)) < 1e-9


# --- the skip rule, against dense matrices -------------------------------------
# apply_gate returns a string itself when its restriction uses only generators
# the gate fixes. Which generators those are is derived here from dense
# matrices alone, not from the package's tables.


def _is_pauli(m):
    """Whether the 2**g matrix ``m`` is a Pauli string up to phase: one trace
    tr(Q+ m) / 2**g of modulus 1 over the 4**g strings Q."""
    g = m.shape[0].bit_length() - 1
    for atoms in itertools.product(ALL_ATOMS, repeat=g):
        c = np.trace(string_matrix(pauli(0, atoms)).conj().T @ m) / 2**g
        if abs(abs(c) - 1) < 1e-9:
            return True
    return False


def ref_moved(spec):
    """Per wire of ``spec``, whether the gate moves X_w and whether it moves Z_w.

    Each unit is conjugated by the dense unitary of each step of the
    decomposition in turn (the gate itself for a base gate). A step that
    leaves no Pauli string makes the image Top, as the step-by-step tables
    do, and Top counts as moved; otherwise the unit is fixed iff the last
    matrix equals its own, phase included."""
    g = spec.arity
    steps = [
        ref_embed_unitary(ref_gate_unitary(app.gate), app.wires, g)
        for app in spec.decomposition or ()
    ] or [ref_gate_unitary(spec)]

    def moves(atom, w):
        unit = string_matrix(pauli(0, ["I"] * (w - 1) + [atom] + ["I"] * (g - w)))
        m = unit
        for u in steps:
            m = u @ m @ u.conj().T
            if not _is_pauli(m):
                return True
        return not np.allclose(m, unit, atol=1e-9)

    return [(moves("X", w), moves("Z", w)) for w in range(1, g + 1)]


def _check_skip_rule(spec):
    """On each order of the wires 2, 4, .. in a wider register: the masks hold
    the moved generators, a string comes back itself iff its restriction uses
    none of them, and then it equals ``ref_apply_gate``'s image."""
    moved = ref_moved(spec)
    n = 2 * spec.arity + 1
    for wires in itertools.permutations(range(2, n, 2)):
        app = GateApp(spec, wires)
        want_x = sum(mx << w - 1 for (mx, _), w in zip(moved, wires))
        want_z = sum(mz << w - 1 for (_, mz), w in zip(moved, wires))
        assert (app._xmask, app._zmask) == (want_x, want_z), (spec.name, wires)
        for atoms in itertools.product(ALL_ATOMS, repeat=spec.arity):
            text = ["Y"] * n
            for w, atom in zip(wires, atoms):
                text[w - 1] = atom
            p = pauli(3, text)
            got = apply_gate(app, p)
            uses_moved = any(
                atom in "XY" and mx or atom in "YZ" and mz
                for atom, (mx, mz) in zip(atoms, moved)
            )
            assert (got is p) != uses_moved, (spec.name, wires, str(p))
            if got is p:
                assert p == ref_apply_gate(app, p), (spec.name, wires, str(p))


@pytest.mark.parametrize("name", list(GATES))
def test_standard_gates_skip_exactly_the_strings_they_fix(name):
    _check_skip_rule(GATES[name])


_BASE_STEPS = ("H", "S", "CNOT", "T", "Tdg")


@st.composite
def base_defs(draw):
    """A def of 1-3 wires over H, S, CNOT, T and Tdg, so Top images occur."""
    arity = draw(st.integers(1, 3))
    names = [name for name in _BASE_STEPS if GATES[name].arity <= arity]
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        gate = GATES[draw(st.sampled_from(names))]
        wires = draw(st.permutations(range(1, arity + 1)))[: gate.arity]
        steps.append(GateApp(gate, tuple(wires)))
    return derive_gate("G", arity, steps)


# S twice sends X to -X: a sign change counts as moved. T then Tdg is the
# identity, yet its table is Top on X: Top counts as moved.
@example(derive_gate("G", 1, [GateApp(GATES["S"], (1,))] * 2))
@example(derive_gate("G", 1, [GateApp(GATES["T"], (1,)), GateApp(GATES["Tdg"], (1,))]))
@settings(max_examples=60, deadline=None)
@given(base_defs())
def test_defs_skip_exactly_the_strings_they_fix(spec):
    _check_skip_rule(spec)
