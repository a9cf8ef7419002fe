"""The packed bitmask algebra agrees with the atom-by-atom reference.

Random circuits mix every standard gate (T, Tdg and TOFFOLI included, so
Top appears) with one derived ``def`` gate, and registers go past 64
qubits so the masks outgrow a machine word, and past 2**12 qubits so a
gate can sit on a mask of over a hundred 30-bit digits.
"""

import random
from collections import Counter

from gottesman.gates import GateApp, apply_gate, derive_gate, standard_gates
from gottesman.pauli import PauliString, commutes, string_mul
from gottesman.stabilizer import _pivot
from gottesman.typesys import StabType

from helpers import (
    ALL_ATOMS,
    letters,
    pauli,
    random_stab_type,
    ref_apply_gate,
    ref_commutes,
    measure_row_ops,
    ref_echelon,
    ref_measure,
    ref_string_mul,
)

GATES = standard_gates()
SIZES = (1, 2, 3, 5, 8, 64, 70, 4099)


def random_string(n, rng, top_share=0.0):
    if rng.random() < top_share:
        return PauliString.top(n)
    atoms = tuple(rng.choice(ALL_ATOMS) for _ in range(n))
    return pauli(rng.randrange(4), atoms)


def random_apps(gates, n, count, rng):
    apps = []
    for _ in range(count):
        spec = rng.choice([g for g in gates if g.arity <= n])
        apps.append(GateApp(spec, tuple(rng.sample(range(1, n + 1), spec.arity))))
    return apps


def random_circuit_with_def(n, count, rng):
    """Random applications of every standard gate and one def gate.

    Non-Clifford gates are drawn rarely, so most strings stay trackable
    for a while before Top absorbs them.
    """
    arity = min(n, rng.choice((2, 3)))
    body = random_apps(list(GATES.values()), arity, 4, rng)
    cliffords = [g for g in GATES.values() if g.is_clifford]
    others = [g for g in GATES.values() if not g.is_clifford]
    gates = cliffords * 8 + others + [derive_gate("G", arity, body)] * 8
    return random_apps(gates, n, count, rng)


def test_apply_gate_matches_reference_on_random_circuits():
    rng = random.Random(2021)
    tracked = tops = 0
    for trial in range(60):
        n = SIZES[trial % len(SIZES)]
        for p in [random_string(n, rng, top_share=0.1) for _ in range(3)]:
            for app in random_circuit_with_def(n, 40, rng):
                want = ref_apply_gate(app, p)
                assert apply_gate(app, p) == want, (str(app), str(p))
                tracked += not want.is_top
                p = want
            tops += p.is_top
    assert tracked > 2000 and tops > 10


def test_apply_gate_on_strings_idle_or_nearly_idle_on_the_gate():
    """Strings drawn as I on every wire of the gate, with each phase i^k,
    pass through unchanged; the same strings made non-I on one wire of the
    gate (any wire, so not only the first) still go through the table, and
    a Z there matters as much as an X. Registers reach 4099 qubits, so some
    gates sit above bit 63, and some thousands of bits up."""
    rng = random.Random(406196)
    idle = non_clifford_idle = high = 0
    moved = Counter()
    for trial in range(70):
        n = SIZES[trial % len(SIZES)]
        for app in random_circuit_with_def(n, 30, rng):
            atoms = [rng.choice(ALL_ATOMS) for _ in range(n)]
            for w in app.wires:
                atoms[w - 1] = "I"
            for k in range(4):
                p = pauli(k, atoms)
                got = apply_gate(app, p)
                assert got == ref_apply_gate(app, p) == p, (str(app), str(p))
            idle += 4
            non_clifford_idle += 4 * (not app.gate.is_clifford)
            high += 4 * (max(app.wires) > 64)
            for pos, w in enumerate(app.wires):
                near = list(atoms)
                near[w - 1] = rng.choice(ALL_ATOMS[1:])
                p = pauli(rng.randrange(4), near)
                want = ref_apply_gate(app, p)
                assert apply_gate(app, p) == want, (str(app), str(p))
                if want != p:
                    moved["later wire" if pos else "first wire"] += 1
                    moved["z only" if near[w - 1] == "Z" else "x part"] += 1
                    moved["top"] += want.is_top
    assert idle > 6000 and non_clifford_idle > 400 and high > 100
    assert min(moved.values()) > 100, moved


def test_string_mul_and_commutes_match_reference():
    rng = random.Random(2103)
    for trial in range(700):
        n = SIZES[trial % len(SIZES)]
        p = random_string(n, rng, top_share=0.05)
        q = random_string(n, rng, top_share=0.05)
        assert string_mul(p, q) == ref_string_mul(p, q)
        if not (p.is_top or q.is_top):
            assert commutes(p, q) == ref_commutes(p, q)


def test_canonicalize_matches_reference():
    rng = random.Random(406)
    for trial in range(60):
        n = rng.randrange(1, 9)
        s = random_stab_type(n, rng)
        # Redundant generators make elimination cancel whole rows.
        extra = string_mul(s.generators[0], s.generators[-1])
        gens = list(s.generators) + [extra]
        rows, pivots = ref_echelon(n, gens)
        tab = StabType(n, tuple(gens)).tableau
        assert tab == tuple(rows)
        assert tuple(map(_pivot, tab)) == tuple(pivots)


def test_canonicalize_matches_reference_on_wide_sparse_registers():
    # Four small random groups on scattered qubits of a wide register, so
    # pivot columns lie far apart and out of qubit order, with products of
    # generators from different groups mixed in as dependent rows.
    rng = random.Random(16)
    for _ in range(6):
        n = rng.randrange(1000, 1300)
        qubits = rng.sample(range(n), 24)
        gens = []
        for _ in range(4):
            m = rng.randrange(2, 7)
            where, qubits = qubits[:m], qubits[m:]
            for g in random_stab_type(m, rng, depth=4 * m).generators:
                atoms = ["I"] * n
                for q, atom in zip(where, letters(g)):
                    atoms[q] = atom
                gens.append(pauli(g.k, atoms))
        for _ in range(4):
            a, b = rng.sample(gens, 2)
            gens.insert(rng.randrange(len(gens) + 1), string_mul(a, b))
        rows, pivots = ref_echelon(n, gens)
        tab = StabType(n, tuple(gens)).tableau
        assert len(tab) == len(gens) - 4
        assert tab == tuple(rows)
        assert tuple(map(_pivot, tab)) == tuple(pivots)


def test_measure_matches_reference_with_row_ops():
    rng = random.Random(9807)
    for trial in range(60):
        n = rng.randrange(1, 13)
        s = random_stab_type(n, rng, depth=4 * n)
        k = rng.randrange(1, n + 1)
        rows, ref_ops = ref_measure(n, s.generators, k)
        got, ops = measure_row_ops(s, k)
        assert got.generators == tuple(rows)
        assert ops == ref_ops
