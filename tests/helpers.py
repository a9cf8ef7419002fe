"""Shared test utilities: independent matrix oracles, brute-force group
enumeration, an atom-by-atom reference for the packed Pauli algebra, a
member-based reference for separability, a measurement reference and a
row-operation counter for ``measure``, a per-measurement canonical
reference for ``check``, per-string references for gate transport, a
dense-product reference for the oracle and its one-claim checks,
checking references for the ``.qc`` and type parsers, a canonical
``.qc`` printer, random circuits, hypothesis strategies, and a runner for
code in a fresh interpreter."""

import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import numpy as np
from hypothesis import strategies as st

from gottesman import oracle, pyoracle, stabilizer
from gottesman.checker import Circuit, Measure
from gottesman.errors import ArityError, ParseError, TopOperandError, WireError
from gottesman.gates import GateApp, GateSpec, apply_gate, derive_gate, standard_gates
from gottesman.pauli import PauliString, from_bits, string_mul
from gottesman.stabilizer import member
from gottesman.typesys import QType, StabType, _unchecked, measure

# Independent single-qubit matrices; deliberately not imported from the
# package so matrix-level assertions do not share code with what they test.
MAT = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# i**k, indexed by a phase's exponent k, and the literal prefix of each.
PHASE_VALUES = (1, 1j, -1, -1j)
PREFIXES = ("", "i", "-", "-i")


def letters(p: PauliString) -> str:
    """The per-qubit letters of ``p``, qubit 1 first, read from its text."""
    return str(p).lstrip("-i")  # letters hold no '-' or 'i'


def ref_text(p: PauliString) -> str:
    """How ``p`` prints, read qubit by qubit from its masks: the phase
    prefix, then the letter of each qubit's (x, z) bits, qubit 1 first."""
    if p.is_top:
        return "T" * p.arity
    atoms = (_REF_ATOM[p.x >> j & 1, p.z >> j & 1] for j in range(p.arity))
    return PREFIXES[p.k] + "".join(atoms)


def pauli(k, atoms) -> PauliString:
    """i**k times the letters ``atoms``, built by parsing their literal."""
    return PauliString.parse(PREFIXES[k % 4] + "".join(atoms))


def string_matrix(p: PauliString) -> np.ndarray:
    m = np.array([[PHASE_VALUES[p.k]]])
    for atom in letters(p):
        m = np.kron(m, MAT[atom])
    return m


def brute_force_group(gens) -> dict[tuple, int]:
    """Every element of the generated group as (x, z) masks -> phase exponent."""
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
        elements[(acc.x, acc.z)] = acc.k
    return elements


ALL_ATOMS = "IXYZ"


def embed(atom, phase, k, n):
    """i**phase times the letter ``atom`` at qubit k (1-based) of n and I
    elsewhere, built letter by letter: the references' single-qubit strings."""
    if not 1 <= k <= n:
        raise WireError(f"qubit {k} out of range for {n} qubits")
    atoms = ["I"] * n
    atoms[k - 1] = atom
    return pauli(phase, atoms)


# --- atom-by-atom reference ---------------------------------------------------
# The package packs a string into x/z bitmasks. These are the per-atom
# algorithms it replaced, working only through the printed letters, the
# exponent ``.k`` and ``PauliString.parse`` (see ``letters`` and ``pauli``),
# so packed results can be checked against an implementation that shares
# none of the bit tricks.

_REF_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_REF_ATOM = {bits: atom for atom, bits in _REF_BITS.items()}


def ref_atom_mul(a, b):
    """Single-qubit product a*b as (exponent of i, letter); Top absorbs
    everything."""
    if a == "T" or b == "T":
        return 0, "T"
    x1, z1 = _REF_BITS[a]
    x2, z2 = _REF_BITS[b]
    x3, z3 = x1 ^ x2, z1 ^ z2
    # Writing each atom as i^(xz) X^x Z^z, the product reorders Z^z1 past
    # X^x2 at a cost of (-1)^(z1 x2) and re-normalizes the result.
    k = x1 * z1 + x2 * z2 + 2 * z1 * x2 - x3 * z3
    return k % 4, _REF_ATOM[(x3, z3)]


def ref_string_mul(p, q):
    if p.arity != q.arity:
        raise ArityError("arity mismatch")
    if p.is_top or q.is_top:
        return PauliString.top(p.arity)
    k = p.k + q.k
    atoms = []
    for a, b in zip(letters(p), letters(q)):
        ph, c = ref_atom_mul(a, b)
        k += ph
        atoms.append(c)
    return pauli(k, atoms)


def ref_commutes(p, q):
    if p.is_top or q.is_top:
        raise TopOperandError("commutation is undefined for Top strings")
    flips = 0
    for a, b in zip(letters(p), letters(q)):
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
    atoms = list(letters(p))
    bits = [_REF_BITS[atoms[w - 1]] for w in app.wires]
    # Each Y splits into i * X * Z.
    k = p.k + sum(x & z for x, z in bits)
    image = PauliString.identity(gate.arity)
    for w0, (x, _) in enumerate(bits):
        if x:
            image = ref_string_mul(image, gate.x_images[w0])
    for w0, (_, z) in enumerate(bits):
        if z:
            image = ref_string_mul(image, gate.z_images[w0])
    if image.is_top:
        return PauliString.top(n)
    for w, atom in zip(app.wires, letters(image)):
        atoms[w - 1] = atom
    return pauli(k + image.k, atoms)


def _ref_bit(text, col):
    """Column ``col`` (x_1..x_n, then z_1..z_n) of the row with letters ``text``."""
    n = len(text)
    x, z = _REF_BITS[text[col % n]]
    return x if col < n else z


def ref_echelon(arity, gens):
    """Full row reduction in column order x_1..x_n, z_1..z_n.

    Returns (independent rows, pivot columns); the dependent rows are
    dropped without checking their phases. A row's letters are read again
    only when the row changes, so wide sparse registers stay cheap.
    """
    work = list(gens)
    text = [letters(g) for g in work]
    pivots = []
    r = 0
    for col in range(2 * arity):
        piv = next((j for j in range(r, len(work)) if _ref_bit(text[j], col)), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        text[r], text[piv] = text[piv], text[r]
        for j in range(len(work)):
            if j != r and _ref_bit(text[j], col):
                work[j] = ref_string_mul(work[r], work[j])
                text[j] = letters(work[j])
        pivots.append(col)
        r += 1
    return work[:r], pivots


def ref_pivot_lookup_ops(arity, gens):
    """The row operations of a reduction keyed on pivots. Each row in turn
    is multiplied by the row kept at its leading column until it has a new
    pivot or vanishes: one product per collision. Then each kept row clears
    the other pivot columns it holds: one product per held pivot."""
    kept = {}  # pivot column -> (row, its letters)
    ops = 0
    for g in gens:
        while True:
            text = letters(g)
            col = next((c for c in range(2 * arity) if _ref_bit(text, c)), None)
            if col is None or col not in kept:
                break
            g = ref_string_mul(kept[col][0], g)
            ops += 1
        if col is not None:
            kept[col] = g, text
    for col, (_, text) in kept.items():
        ops += sum(_ref_bit(text, c) for c in kept if c != col)
    return ops


def ref_measure(arity, gens, k):
    """Z_k measurement with its row-op count, on the reduced rows of
    ``gens``: those of a validated type, which already holds its reduced
    rows, so that reduction counts no row operations. Rows with X or Y at
    k (random outcome): fold the rest into the first, drop it, adjoin +Z_k.
    Otherwise the outcome is determined when +-Z_k is in the group, which
    is then kept as it is; when it is not, +Z_k is adjoined. The final
    reduction's rows come from ``ref_echelon`` and its count from
    ``ref_pivot_lookup_ops``."""
    rows, pivots = ref_echelon(arity, gens)
    ops = 0
    z_k = embed("Z", 0, k, arity)
    carriers = [i for i, g in enumerate(rows) if _REF_BITS[letters(g)[k - 1]][0]]
    if carriers:
        for i in carriers[1:]:
            rows[i] = ref_string_mul(rows[carriers[0]], rows[i])
            ops += 1
        del rows[carriers[0]]
    elif any(_REF_BITS[letters(g)[k - 1]][1] for g in rows):
        residual = z_k
        for row, col in zip(rows, pivots):
            if _ref_bit(letters(residual), col):
                residual = ref_string_mul(row, residual)
        if all(atom == "I" for atom in letters(residual)):
            return rows, ops
    rows.append(z_k)
    reduced, _ = ref_echelon(arity, rows)
    return reduced, ops + ref_pivot_lookup_ops(arity, rows)


def measure_row_ops(s, k):
    """``measure(s, k)`` and its row operations, counted from outside: the
    ``string_mul`` calls that ``stabilizer`` makes meanwhile."""
    calls = 0

    def counted(p, q):
        nonlocal calls
        calls += 1
        return string_mul(p, q)

    stabilizer.string_mul = counted
    try:
        return measure(s, k), calls
    finally:
        stabilizer.string_mul = string_mul


# --- member-based separability reference ------------------------------------
# The package reads single-qubit members off the rows of the reduced
# tableau. These are the searches it replaced: every +-U_k tried through
# ``member``, witnesses folded into the rows and the rest row-reduced again.


def ref_single_qubit_members(s):
    """All (k, U) with U a one-qubit string and U_k in the group of ``s``,
    one member call for each of X, Y and Z on each qubit."""
    found = []
    for k in range(1, s.arity + 1):
        for atom in "XYZ":
            q = member(s, embed(atom, 0, k, s.arity))
            if q is not None:
                assert q % 2 == 0, "group elements square to I, so phases are real"
                found.append((k, pauli(q, atom)))
    return tuple(found)


def _ref_restrict(g, support):
    x = z = 0
    for j, pos in enumerate(support):
        x |= (g.x >> (pos - 1) & 1) << j
        z |= (g.z >> (pos - 1) & 1) << j
    return from_bits(len(support), x, z, g.k)


def ref_factor_separable(s):
    """The factored view of ``s``: (factors, remainder, remainder support)
    with every witnessed qubit peeled."""
    singles = ref_single_qubit_members(s)
    witnesses = {k: embed(letters(u), u.k, k, s.arity) for k, u in singles}
    work = list(s.tableau)
    for k, witness in witnesses.items():
        bit = 1 << (k - 1)
        work = [string_mul(witness, g) if (g.x | g.z) & bit else g for g in work]
    support = tuple(o for o in range(1, s.arity + 1) if o not in witnesses)
    if not support:
        return singles, None, ()
    rest = [_ref_restrict(g, support) for g in work if g.x | g.z]
    tab = StabType(len(support), tuple(rest)).tableau
    return singles, _unchecked(len(support), tab, tab), support


# --- per-measurement canonical reference for check ---------------------------
# ``check`` applies a measurement as the O(n) row update of
# ``stabilizer._measured``. This is the state threading it replaced: every
# MEAS goes through ``measure`` and comes back row-reduced. ``annotate``
# measures through ``stabilizer._measured`` too; it calls ``measure`` only
# at the first MEAS, and only when the written generators are dependent.


def ref_states(circuit, input_type):
    """The generators (or None once Top) before and after each instruction."""
    if input_type.arity != circuit.n_qubits:
        raise ArityError("input arity does not match the circuit")
    cur = None if input_type.top else list(input_type.stab.generators)
    yield cur
    for ins in circuit.instructions:
        if isinstance(ins, Measure):
            if cur is None:
                raise TopOperandError("cannot measure a Top-typed register")
            measured = measure(_unchecked(circuit.n_qubits, tuple(cur)), ins.qubit)
            cur = list(measured.generators)
        elif cur is not None:
            cur = [apply_gate(ins, g) for g in cur]
            if not ins.gate.is_clifford and any(g.is_top for g in cur):
                cur = None
        yield cur


def ref_check(circuit, input_type):
    cur = None
    for cur in ref_states(circuit, input_type):
        pass
    if cur is None:
        return QType.top_type(circuit.n_qubits)
    n = circuit.n_qubits
    tab = _unchecked(n, tuple(cur)).tableau
    return QType(n, _unchecked(n, tab, tab))


def ref_annotate(circuit, input_type):
    """The trace strings, each state unfactored."""
    n = circuit.n_qubits
    return [
        str(QType.top_type(n) if s is None else StabType(n, tuple(s)))
        for s in ref_states(circuit, input_type)
    ]


# --- per-string references for gate transport ---------------------------------
# The package carries every generator list through ``gates._transport``, one
# gate at a time. These are the loops it replaced: each X_k/Z_k built with
# ``embed`` and threaded through the whole gate sequence on its own (the gate
# step of ``ref_states`` is the third such loop).


def ref_infer_tableau(circuit):
    """The images of X_1..X_n and of Z_1..Z_n, one string at a time."""
    n = circuit.n_qubits

    def thread(atom, k):
        cur = embed(atom, 0, k, n)
        for ins in circuit.instructions:
            cur = apply_gate(ins, cur)
        return cur

    return (
        tuple(thread("X", k) for k in range(1, n + 1)),
        tuple(thread("Z", k) for k in range(1, n + 1)),
    )


def ref_derive_gate(name, arity, steps):
    """A GateSpec from a decomposition, one generator image at a time."""
    steps = tuple(steps)

    def image_of(atom, w):
        cur = embed(atom, 0, w, arity)
        for step in steps:
            cur = apply_gate(step, cur)
        return cur

    x_images = tuple(image_of("X", w) for w in range(1, arity + 1))
    z_images = tuple(image_of("Z", w) for w in range(1, arity + 1))
    return GateSpec(name, arity, x_images, z_images, decomposition=steps)


# --- dense-product reference for the oracle -----------------------------------
# The oracle acts with Paulis, and with every gate whose unitary has one entry
# per row, as permutation-and-sign gathers of a batch's rows. These are the
# dense routines it replaced: unitaries embedded bit by bit and multiplied,
# U M(p) U+ formed from Kronecker products, and one sample at a time through a
# dense projector. ``ref_evolve`` is the tensor contraction that came between,
# and ``ref_row_projected_states`` the projector's row-layout loop.

REF_TOLERANCE = 1e-9

_REF_BASE_UNITARIES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
    # Control is wire 1, the most significant bit of the block.
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}


def ref_embed_unitary(u, wires, n):
    """Lift a 2^g unitary acting on ``wires`` (1-based) to 2^n, qubit 1 the
    most significant bit, one basis column at a time."""
    g = len(wires)
    shifts = [n - w for w in wires]
    full = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        local_col = 0
        for s in shifts:
            local_col = (local_col << 1) | ((col >> s) & 1)
        base = col
        for s in shifts:
            base &= ~(1 << s)
        for local_row in range(2**g):
            amp = u[local_row, local_col]
            if amp == 0:
                continue
            row = base
            for pos, s in enumerate(shifts):
                if (local_row >> (g - 1 - pos)) & 1:
                    row |= 1 << s
            full[row, col] += amp
    return full


def ref_gate_unitary(spec):
    """Base matrices composed along the decomposition of a derived gate."""
    if spec.name in _REF_BASE_UNITARIES:
        return _REF_BASE_UNITARIES[spec.name]
    u = np.eye(2**spec.arity, dtype=complex)
    for app in spec.decomposition:
        u = ref_embed_unitary(ref_gate_unitary(app.gate), app.wires, spec.arity) @ u
    return u


def ref_unitary(circuit, vecs=None):
    """U as the product of the embedded gates; with ``vecs``, U @ vecs
    multiplied factor by factor, so a wide register needs no 4^n product."""
    n = circuit.n_qubits
    u = np.eye(2**n, dtype=complex) if vecs is None else vecs
    for app in circuit.instructions:
        u = ref_embed_unitary(ref_gate_unitary(app.gate), app.wires, n) @ u
    return u


def ref_evolve(apps, n, vecs):
    """The columns of ``vecs`` (2^n x m) pushed through ``apps``, each gate's
    reference matrix contracted into its wires' axes by ``np.tensordot``."""
    m = vecs.shape[1]
    t = vecs.reshape((2,) * n + (m,))
    for app in apps:
        g, axes = app.gate.arity, [w - 1 for w in app.wires]
        gate = ref_gate_unitary(app.gate).reshape((2,) * 2 * g)
        t = np.tensordot(gate, t, axes=(range(g, 2 * g), axes))
        t = np.moveaxis(t, range(g), axes)
    return t.reshape(2**n, m)


def oracle_unitary(circuit):
    """The oracle's unitary for ``circuit``: the identity's columns pushed
    through ``oracle._evolve``, for comparison with ``ref_unitary``."""
    n = circuit.n_qubits
    return oracle._evolve(circuit.instructions, n, np.eye(2**n, dtype=complex))


# One claim at a time through the numpy kernel ``oracle._verify``, which
# checks them all in one pass for ``verify``.


def verify_conjugation(circuit, p, q):
    """True iff U M(p) U+ equals M(q)."""
    return oracle._verify(
        circuit, [(p, q)], None, (), pyoracle.DEFAULT_SAMPLES, pyoracle.DEFAULT_SEED
    )[0][0]


def transport_residual(
    circuit,
    input_type,
    transported,
    samples=pyoracle.DEFAULT_SAMPLES,
    seed=pyoracle.DEFAULT_SEED,
):
    """How far ``input_type``'s sampled eigenstates, pushed through the
    circuit, sit from the +1 eigenspace of each transported generator: the
    worst of the strings' residuals."""
    residuals = oracle._verify(circuit, (), input_type, transported, samples, seed)[1]
    return max(residuals, default=0.0)


def lift(k, factor, n):
    """The one-qubit string ``factor`` claimed at qubit k of n, lifted to
    the register letter by letter."""
    return embed(letters(factor), factor.k, k, n)


def verify_separability(
    s, k, factor, samples=pyoracle.DEFAULT_SAMPLES, seed=pyoracle.DEFAULT_SEED
):
    """True iff the one-qubit string ``factor``, claimed at qubit k and
    lifted to the register, fixes every sampled joint eigenstate of ``s``:
    the check ``verify`` makes of a separability claim."""
    lifted = lift(k, factor, s.arity)
    residual = oracle._verify(Circuit(s.arity), (), s, (lifted,), samples, seed)[1][0]
    return residual < pyoracle.TOLERANCE


def ref_verify_conjugation(circuit, p, q, u=None):
    """U M(p) U+ == M(q) by dense products; ``u``, if given, is ref_unitary's."""
    u = ref_unitary(circuit) if u is None else u
    conjugated = u @ string_matrix(p) @ u.conj().T
    return bool(np.max(np.abs(conjugated - string_matrix(q))) < REF_TOLERANCE)


def ref_projector(s):
    dim = 2**s.arity
    proj = np.eye(dim, dtype=complex)
    for g in s.tableau:
        proj = proj @ (np.eye(dim, dtype=complex) + string_matrix(g)) / 2
    return proj


def ref_sample_eigenstates(s, count, seed):
    """One sample at a time: a complex Gaussian (real part drawn first)
    through the dense projector, normalised."""
    rng = np.random.default_rng(seed)
    proj = ref_projector(s)
    dim = proj.shape[0]
    states = []
    for _ in range(count):
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec = proj @ raw
        states.append(vec / np.linalg.norm(vec))
    return states


def ref_row_projected_states(s, count, seed):
    """The projector as the oracle ran it in row layout, one sample per row,
    halving after each generator, with the same stream and redraw rule:
    what ``oracle._sample_states``, transposed, must equal bit for bit."""
    rng = np.random.default_rng(seed)
    perm, sign = oracle._paulis(s.tableau, s.arity)
    states = np.empty((count, 2**s.arity), dtype=complex)
    todo = np.arange(count)
    for _ in range(8):
        raw = rng.standard_normal((todo.size, 2, 2**s.arity))
        vecs = raw[:, 0] + 1j * raw[:, 1]
        for p, g in zip(perm, sign):
            vecs += g * vecs[:, p]
            vecs /= 2
        norms = np.linalg.norm(vecs, axis=1)
        ok = norms > 1e-12
        states[todo[ok]] = vecs[ok] / norms[ok, None]
        todo = todo[~ok]
        if not todo.size:
            return states
    raise AssertionError("projection annihilates every sample")


def ref_transported_states(circuit, input_type, samples, seed):
    """The input type's sampled eigenstates, each through the dense unitary."""
    u = ref_unitary(circuit)
    return [u @ state for state in ref_sample_eigenstates(input_type, samples, seed)]


def ref_transport_residual(circuit, input_type, transported, samples, seed):
    worst = 0.0
    for evolved in ref_transported_states(circuit, input_type, samples, seed):
        for q in transported:
            if not q.is_top:
                residual = np.linalg.norm(string_matrix(q) @ evolved - evolved)
                worst = max(worst, float(residual))
    return worst


def ref_pure_at(states, k, n, tolerance=REF_TOLERANCE):
    """True iff no state's reduced single-qubit state at qubit k has purity
    tr(rho^2) below 1 - ``tolerance``."""
    for state in states:
        local = np.moveaxis(state.reshape((2,) * n), k - 1, 0).reshape(2, -1)
        rho = local @ local.conj().T
        if np.real(np.trace(rho @ rho)) < 1 - tolerance:
            return False
    return True


def ref_verify_separability(s, k, samples, seed):
    return ref_pure_at(ref_sample_eigenstates(s, samples, seed), k, s.arity)


def ref_decode(p):
    """``(x, z, power)`` with M(p) = i^power Z^z X^x, qubit 1 the top bit of
    each mask, read from the letters and ``.k`` as Y = -iZX: what
    ``pyoracle._decode`` must give, sharing none of its bit reads."""
    atoms = letters(p)
    x = int("".join("1" if a in "XY" else "0" for a in atoms), 2)
    z = int("".join("1" if a in "YZ" else "0" for a in atoms), 2)
    return x, z, (p.k + 3 * atoms.count("Y")) % 4

# --- parser references ------------------------------------------------------
# The ``.qc`` and type parsers as they were before parsing built what it
# had checked without checking it again: every instruction goes through
# GateApp's and Circuit's checks, and every literal, intersection and
# product is row-reduced as a StabType of its own. Their changes since: an
# error column counts the characters of the text as written, so a ``⊗``
# (which folds to nothing) before it is counted; only the input type is
# folded, and a non-ASCII character on another line is a fault at its
# column; a type fault without a place of its own (the end of the text, an
# intersection's mismatched or Top unit) is reported at a column; a
# parsed type prints its tokens, rejoined; and a line breaks at LF, CRLF or
# CR only, and a def line is one whose first word is ``def``.

_REF_WORD = re.compile(r"\S+")
_REF_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_REF_TOKEN = re.compile(r"(->|&|x|\(|\)|[+-]?i?[IXYZT]+)")


def _ref_words(text):
    return [(m.group(0), m.start() + 1) for m in _REF_WORD.finditer(text)]


def _ref_split_chunks(code):
    chunks = []
    start = 0
    for part in code.split(";"):
        if part.strip():
            col = start + (len(part) - len(part.lstrip())) + 1
            chunks.append((part.strip(), col))
        start += len(part) + 1
    return chunks


def _ref_fold(text):
    """The type text with its unicode aliases replaced by their ASCII forms
    and every ``⊗`` removed."""
    for alias, ascii_form in (("⊤", "T"), ("∩", "&"), ("×", "x"), ("−", "-"), ("⊗", "")):
        text = text.replace(alias, ascii_form)
    return text


def _ref_unfolded_col(raw, col):
    """The column of ``raw`` whose folded prefix first reaches ``col`` characters."""
    for i in range(1, len(raw) + 1):
        if len(_ref_fold(raw[:i])) >= col:
            return i
    return len(raw) + col - len(_ref_fold(raw))


def _ref_ascii(ln, code):
    for col, ch in enumerate(code, start=1):
        if ord(ch) > 127:
            raise ParseError(f"unexpected character {ch!r}", line=ln, col=col)


class _RefFileParser:
    def __init__(self, source):
        self.lines = []
        for ln, raw in enumerate(re.split(r"\r\n|\r|\n", source), start=1):
            code = raw.split("--", 1)[0]
            if code.strip():
                self.lines.append((ln, code))
        self.gates = dict(standard_gates())

    def parse(self):
        if not self.lines:
            raise ParseError("missing 'qubits' header", line=1)
        _ref_ascii(*self.lines[0])
        n_qubits = self._header(*self.lines[0])
        rest = self.lines[1:]
        input_type = None
        if rest and rest[0][1].split()[0] == "input":
            input_type = self._input_line(*rest[0], n_qubits)
            rest = rest[1:]
        instructions = []
        for ln, code in rest:
            _ref_ascii(ln, code)
            if code.split()[0] == "def":
                self._def_line(ln, code)
                continue
            for chunk_text, chunk_col in _ref_split_chunks(code):
                instructions.append(
                    self._instruction(ln, chunk_text, chunk_col, n_qubits)
                )
        return Circuit(n_qubits, tuple(instructions)), input_type

    def _header(self, ln, code):
        words = _ref_words(code)
        if words[0][0] != "qubits":
            raise ParseError("expected 'qubits N' header", line=ln, col=words[0][1])
        if len(words) != 2 or not words[1][0].isdecimal() or int(words[1][0]) < 1:
            raise ParseError("expected 'qubits N' with N >= 1", line=ln)
        return int(words[1][0])

    def _input_line(self, ln, code, n_qubits):
        text = code.strip()[len("input") :]
        offset = code.index("input") + len("input")
        try:
            q = ref_parse_qtype(text)
        except ParseError as err:
            col = offset + err.col if err.col is not None else None
            raise ParseError(err.message, line=ln, col=col) from None
        if q.arity != n_qubits:
            raise ParseError(
                f"input type covers {q.arity} qubits, circuit has {n_qubits}",
                line=ln,
            )
        return q

    def _def_line(self, ln, code):
        if ":=" not in code:
            raise ParseError("a 'def' needs ':=' before its body", line=ln)
        head, body = code.split(":=", 1)
        head_words = _ref_words(head)
        if len(head_words) < 3:
            raise ParseError("expected 'def NAME wires... := body'", line=ln)
        name = head_words[1][0]
        if not _REF_NAME.match(name):
            raise ParseError(f"bad gate name {name!r}", line=ln, col=head_words[1][1])
        if name == "MEAS":
            msg = "MEAS is reserved for measurement"
            raise ParseError(msg, line=ln, col=head_words[1][1])
        if name in self.gates:
            raise ParseError(f"gate {name!r} already defined", line=ln)
        formals = [w for w, _ in head_words[2:]]
        if len(set(formals)) != len(formals):
            raise ParseError("formal wires must be distinct", line=ln)
        wire_of = {f: i + 1 for i, f in enumerate(formals)}
        body_start = code.index(":=") + 2
        steps = []
        for chunk_text, chunk_col in _ref_split_chunks(body):
            col = body_start + chunk_col
            words = _ref_words(chunk_text)
            wires = []
            for arg, acol in words[1:]:
                if arg not in wire_of:
                    raise ParseError(
                        f"unknown formal wire {arg!r} in def body",
                        line=ln,
                        col=col + acol - 1,
                    )
                wires.append(wire_of[arg])
            steps.append(self._gate_app(ln, col, words[0][0], wires))
        self.gates[name] = derive_gate(name, len(formals), steps)

    def _instruction(self, ln, text, col, n_qubits):
        words = _ref_words(text)
        name = words[0][0]
        wires = []
        for arg, acol in words[1:]:
            if not arg.isdecimal():
                raise ParseError(
                    f"expected a wire number, got {arg!r}", line=ln, col=col + acol - 1
                )
            w = int(arg)
            if not 1 <= w <= n_qubits:
                raise ParseError(
                    f"wire {w} out of range for {n_qubits} qubits",
                    line=ln,
                    col=col + acol - 1,
                )
            wires.append(w)
        if name == "MEAS":
            if len(wires) != 1:
                raise ParseError("MEAS takes exactly one qubit", line=ln, col=col)
            return Measure(wires[0])
        return self._gate_app(ln, col, name, wires)

    def _gate_app(self, ln, col, name, wires):
        spec = self.gates.get(name)
        if spec is None:
            raise ParseError(f"unknown gate {name!r}", line=ln, col=col)
        if len(wires) != spec.arity:
            raise ParseError(
                f"{name} needs {spec.arity} wires, got {len(wires)}", line=ln, col=col
            )
        if len(set(wires)) != len(wires):
            raise ParseError(f"{name}: wires must be distinct", line=ln, col=col)
        return GateApp(spec, tuple(wires))


def ref_parse(source):
    """``cli.parse`` by the reference: every object built with its checks."""
    return _RefFileParser(source).parse()


def _ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _REF_TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", col=pos + 1)
        tokens.append((m.group(0), pos + 1))
        pos = m.end()
    return tokens


class _RefTypeParser:
    """Each parse step returns ``(QType, column)``."""

    def __init__(self, text):
        folded = _ref_fold(text)
        self.tokens = _ref_tokenize(folded)
        self.end = len(folded) + 1
        self.pos = 0
        self.written = 0  # the literals read so far

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def next(self):
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of type expression", col=self.end)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want):
        tok, col = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, got {tok!r}", col=col)

    def parse(self):
        q, _ = self.product()
        if self.pos < len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise ParseError(f"unexpected {tok!r}", col=col)
        if q.top:
            return q
        # The text as written: its tokens, each literal as PauliString
        # prints it, one space apart except inside parentheses.
        words = [
            str(PauliString.parse(tok)) if tok[-1] in "IXYZT" else tok
            for tok, _ in self.tokens
        ]
        text = " ".join(words).replace("( ", "(").replace(" )", ")")
        return QType(q.arity, q.stab, text)

    def product(self):
        components = [self.component()]
        while self.peek() == "x":
            self.next()
            components.append(self.component())
        return _ref_merge([q for q, _ in components]), components[0][1]

    def component(self):
        units = [self.unit()]
        while self.peek() == "&":
            self.next()
            units.append(self.unit())
        if len(units) == 1:
            return units[0]
        return _ref_intersect_units(units), units[0][1]

    def unit(self):
        tok, col = self.next()
        if tok == "(":
            q, _ = self.product()
            self.expect(")")
            return q, col
        self.written += 1
        try:
            lit = PauliString.parse(tok)
        except ValueError:
            raise ParseError(f"expected a Pauli literal, got {tok!r}", col=col) from None
        if lit.is_top:
            return QType.top_type(lit.arity), col
        # Checked as generator ``written`` of the type as written: the
        # identity rows before it only give it that number.
        StabType(lit.arity, (PauliString.identity(lit.arity),) * (self.written - 1) + (lit,))
        identity = not (lit.x | lit.z | lit.k)
        return QType(lit.arity, StabType(lit.arity, () if identity else (lit,))), col


def _ref_intersect_units(units):
    gens = []
    arity = units[0][0].arity
    for u, col in units:
        if u.top:
            raise ParseError("Top cannot appear inside an intersection", col=col)
        if u.arity != arity:
            raise ParseError("mismatched arities in intersection", col=col)
        gens.extend(u.stab.generators)
    return QType(arity, StabType(arity, tuple(gens)))


def _ref_merge(components):
    total = sum(c.arity for c in components)
    if any(c.top for c in components):
        return QType.top_type(total)
    gens = []
    offset = 0
    for comp in components:
        positions = range(offset + 1, offset + comp.arity + 1)
        gens.extend(_ref_place(g, positions, total) for g in comp.stab.generators)
        offset += comp.arity
    return QType(total, StabType(total, tuple(gens)))


def _ref_place(g, positions, m):
    """``g`` with its qubit j moved to qubit ``positions[j - 1]`` of m."""
    atoms = ["I"] * m
    for atom, pos in zip(letters(g), positions):
        atoms[pos - 1] = atom
    return pauli(g.k, atoms)


def ref_parse_qtype(text):
    """``parse_qtype`` by the reference: every literal, intersection and
    product validated as a StabType of its own, a literal numbered by its
    place in the text."""
    try:
        return _RefTypeParser(text).parse()
    except ParseError as err:
        if err.col is None:
            raise
        raise ParseError(err.message, col=_ref_unfolded_col(text, err.col)) from None


def _formal(w: int) -> str:
    """The formal name of a def's wire ``w``: ``a``..``p``, then ``w17``, ``w18``..."""
    return "abcdefghijklmnop"[w - 1] if w <= 16 else f"w{w}"


def format_source(circuit: Circuit, input_type: QType | None = None) -> str:
    """Canonical source text; reparsing yields an identical AST."""
    lines = [f"qubits {circuit.n_qubits}"]
    if input_type is not None:
        lines.append(f"input {input_type}")
    std = standard_gates()
    emitted: dict[str, GateSpec] = {}

    def emit_defs(spec: GateSpec) -> None:
        if spec.name in std or spec.name in emitted:
            return
        for app in spec.decomposition or ():
            emit_defs(app.gate)
        formals = [_formal(w) for w in range(1, spec.arity + 1)]
        body = "; ".join(
            " ".join([app.gate.name, *map(_formal, app.wires)])
            for app in spec.decomposition or ()
        )
        lines.append(f"def {spec.name} {' '.join(formals)} := {body}")
        emitted[spec.name] = spec

    for ins in circuit.instructions:
        if isinstance(ins, GateApp):
            emit_defs(ins.gate)
    for ins in circuit.instructions:
        lines.append(str(ins))
    return "\n".join(lines) + "\n"


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


def random_circuit(n, count, rng):
    """Random gates with a ``def`` gate, rare non-Clifford gates, and, on
    three or more qubits, a reversed non-adjacent ``CNOT n 1``."""
    gates, arity = standard_gates(), min(n, 2)
    body = []
    for _ in range(3):
        spec = rng.choice([g for g in gates.values() if g.arity <= arity])
        body.append(GateApp(spec, tuple(rng.sample(range(1, arity + 1), spec.arity))))
    cliffords = [g for g in gates.values() if g.is_clifford]
    others = [g for g in gates.values() if not g.is_clifford]
    pool = cliffords * 6 + others + [derive_gate("G", arity, body)] * 4
    apps = []
    for _ in range(count):
        spec = rng.choice([g for g in pool if g.arity <= n])
        apps.append(GateApp(spec, tuple(rng.sample(range(1, n + 1), spec.arity))))
    if n >= 3:
        apps.insert(rng.randrange(len(apps) + 1), GateApp(gates["CNOT"], (n, 1)))
    return Circuit(n, tuple(apps))


def mutations(q, rng):
    """A flipped sign, one atom swapped for another, and a phase off by i."""
    atoms = list(letters(q))
    j = rng.randrange(len(atoms))
    atoms[j] = rng.choice([a for a in ALL_ATOMS if a != atoms[j]])
    return -q, pauli(q.k, atoms), pauli(q.k + 1, letters(q))


def all_z(n):
    """The all-Z input type Z x ... x Z over n qubits."""
    zs = tuple(embed("Z", 0, k, n) for k in range(1, n + 1))
    return QType(n, StabType(n, zs))


def random_stab_type(n, rng: random.Random, rank=None, depth=20) -> StabType:
    """A well-formed StabType: Z generators pushed through a random circuit."""
    if rank is None:
        rank = rng.randrange(1, n + 1)
    qubits = rng.sample(range(1, n + 1), rank)
    circuit = random_clifford_circuit(n, depth, rng)
    gens = []
    for k in qubits:
        cur = embed("Z", 0, k, n)
        for app in circuit.instructions:
            cur = apply_gate(app, cur)
        gens.append(cur)
    return StabType(n, tuple(gens))


# hypothesis strategies

atoms = st.sampled_from(ALL_ATOMS)
phases = st.integers(0, 3)


def strings(n: int):
    return st.builds(pauli, phases, st.tuples(*([atoms] * n)))


string_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(strings(n), strings(n))
)
string_triples = st.integers(1, 4).flatmap(
    lambda n: st.tuples(strings(n), strings(n), strings(n))
)


def fresh_run(code, *argv):
    """What ``code`` prints as JSON, run in a fresh interpreter on ./src."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out)
