"""Shared test utilities: independent matrix oracles, brute-force group
enumeration, an atom-by-atom reference for the packed Pauli algebra,
random circuits, and hypothesis strategies."""

import itertools
import random

import numpy as np
from hypothesis import strategies as st

from gottesman.checker import Circuit
from gottesman.errors import ArityError, TopOperandError, WireError
from gottesman.gates import GateApp, apply_gate, standard_gates
from gottesman.pauli import ONE, PauliAtom, PauliString, Phase, embed, string_mul
from gottesman.typesys import StabType

# Independent single-qubit matrices; deliberately not imported from the
# package so matrix-level assertions do not share code with what they test.
MAT = {
    PauliAtom.I: np.eye(2, dtype=complex),
    PauliAtom.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliAtom.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    PauliAtom.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def string_matrix(p: PauliString) -> np.ndarray:
    m = np.array([[p.phase.to_complex()]])
    for atom in p.atoms:
        m = np.kron(m, MAT[atom])
    return m


def brute_force_group(gens) -> dict[tuple, int]:
    """Every element of the generated group as bits -> phase exponent."""
    gens = list(gens)
    if not gens:
        return {}
    n = gens[0].arity
    elements = {}
    for picks in itertools.product([0, 1], repeat=len(gens)):
        acc = PauliString.identity(n)
        for take, g in zip(picks, gens):
            if take:
                acc = string_mul(acc, g)
        elements[(acc.x_bits, acc.z_bits)] = acc.phase.k
    return elements


ALL_ATOMS = (PauliAtom.I, PauliAtom.X, PauliAtom.Y, PauliAtom.Z)


# --- atom-by-atom reference ---------------------------------------------------
# The package packs a string into x/z bitmasks. These are the per-atom
# algorithms it replaced, working only through ``.phase``, ``.atoms`` and
# the ``PauliString(phase, atoms)`` constructor, so packed results can be
# checked against an implementation that shares none of the bit tricks.

_REF_BITS = {
    PauliAtom.I: (0, 0),
    PauliAtom.X: (1, 0),
    PauliAtom.Y: (1, 1),
    PauliAtom.Z: (0, 1),
}
_REF_ATOM = {bits: atom for atom, bits in _REF_BITS.items()}


def ref_atom_mul(a, b):
    """Single-qubit product a*b as (phase, atom); Top absorbs everything."""
    if a is PauliAtom.TOP or b is PauliAtom.TOP:
        return ONE, PauliAtom.TOP
    x1, z1 = _REF_BITS[a]
    x2, z2 = _REF_BITS[b]
    x3, z3 = x1 ^ x2, z1 ^ z2
    # Writing each atom as i^(xz) X^x Z^z, the product reorders Z^z1 past
    # X^x2 at a cost of (-1)^(z1 x2) and re-normalizes the result.
    k = x1 * z1 + x2 * z2 + 2 * z1 * x2 - x3 * z3
    return Phase(k), _REF_ATOM[(x3, z3)]


def ref_string_mul(p, q):
    if p.arity != q.arity:
        raise ArityError("arity mismatch")
    if p.is_top or q.is_top:
        return PauliString.top(p.arity)
    k = p.phase.k + q.phase.k
    atoms = []
    for a, b in zip(p.atoms, q.atoms):
        ph, c = ref_atom_mul(a, b)
        k += ph.k
        atoms.append(c)
    return PauliString(Phase(k), tuple(atoms))


def ref_commutes(p, q):
    if p.is_top or q.is_top:
        raise TopOperandError("commutation is undefined for Top strings")
    flips = 0
    for a, b in zip(p.atoms, q.atoms):
        x1, z1 = _REF_BITS[a]
        x2, z2 = _REF_BITS[b]
        flips ^= (x1 & z2) ^ (z1 & x2)
    return flips == 0


def ref_apply_gate(app, p):
    """Conjugation through the gate's X/Z generator images, factor by factor."""
    n = p.arity
    if any(w > n for w in app.wires):
        raise WireError("wire out of range")
    if p.is_top:
        return p
    gate = app.gate
    bits = [_REF_BITS[p.atoms[w - 1]] for w in app.wires]
    # Each Y splits into i * X * Z.
    k = p.phase.k + sum(x & z for x, z in bits)
    image = PauliString.identity(gate.arity)
    for w0, (x, _) in enumerate(bits):
        if x:
            image = ref_string_mul(image, gate.x_images[w0])
    for w0, (_, z) in enumerate(bits):
        if z:
            image = ref_string_mul(image, gate.z_images[w0])
    if image.is_top:
        return PauliString.top(n)
    atoms = list(p.atoms)
    for w, atom in zip(app.wires, image.atoms):
        atoms[w - 1] = atom
    return PauliString(Phase(k + image.phase.k), tuple(atoms))


def _ref_bit(p, col):
    n = p.arity
    x, z = _REF_BITS[p.atoms[col % n]]
    return x if col < n else z


def ref_echelon(arity, gens):
    """Full row reduction in column order x_1..x_n, z_1..z_n.

    Returns (independent rows, pivot columns, row-operation count); the
    dependent rows are dropped without checking their phases.
    """
    work = list(gens)
    ops = 0
    pivots = []
    r = 0
    for col in range(2 * arity):
        piv = next((j for j in range(r, len(work)) if _ref_bit(work[j], col)), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for j in range(len(work)):
            if j != r and _ref_bit(work[j], col):
                work[j] = ref_string_mul(work[r], work[j])
                ops += 1
        pivots.append(col)
        r += 1
    return work[:r], pivots, ops


def ref_measure(arity, gens, k):
    """Z_k measurement by the fold-drop-adjoin rule, with its row-op count."""
    rows = list(gens)
    ops = 0
    for basis in (0, 1):  # carriers of an x-bit at k first, else of a z-bit
        carriers = [i for i, g in enumerate(rows) if _REF_BITS[g.atoms[k - 1]][basis]]
        if carriers:
            for i in carriers[1:]:
                rows[i] = ref_string_mul(rows[carriers[0]], rows[i])
                ops += 1
            del rows[carriers[0]]
            break
    rows.append(embed(PauliAtom.Z, ONE, k, arity))
    reduced, _, echelon_ops = ref_echelon(arity, rows)
    return reduced, ops + echelon_ops

CLIFFORD_1Q = ("H", "S", "Sdg", "X", "Y", "Z")
CLIFFORD_2Q = ("CNOT", "CZ", "SWAP", "NOTC")


def random_clifford_circuit(n, n_gates, rng: random.Random) -> Circuit:
    gates = standard_gates()
    apps = []
    for _ in range(n_gates):
        if n >= 2 and rng.random() < 0.5:
            name = rng.choice(CLIFFORD_2Q)
            a, b = rng.sample(range(1, n + 1), 2)
            apps.append(GateApp(gates[name], (a, b)))
        else:
            name = rng.choice(CLIFFORD_1Q)
            apps.append(GateApp(gates[name], (rng.randrange(1, n + 1),)))
    return Circuit(n, tuple(apps))


def random_stab_type(n, rng: random.Random, rank=None, depth=20) -> StabType:
    """A well-formed StabType: Z generators pushed through a random circuit."""
    if rank is None:
        rank = rng.randrange(1, n + 1)
    qubits = rng.sample(range(1, n + 1), rank)
    circuit = random_clifford_circuit(n, depth, rng)
    gens = []
    for k in qubits:
        cur = embed(PauliAtom.Z, ONE, k, n)
        for app in circuit.instructions:
            cur = apply_gate(app, cur)
        gens.append(cur)
    return StabType(n, tuple(gens))


# hypothesis strategies

atoms = st.sampled_from(ALL_ATOMS)
phases = st.builds(Phase, st.integers(0, 3))


def strings(n: int):
    return st.builds(PauliString, phases, st.tuples(*([atoms] * n)))


string_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(strings(n), strings(n))
)
string_triples = st.integers(1, 4).flatmap(
    lambda n: st.tuples(strings(n), strings(n), strings(n))
)
