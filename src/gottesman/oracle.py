"""Brute-force dense verification.

Builds the 2^n unitary of a circuit gate by gate on its own tensor axes,
and checks the symbolic layer's claims against it: conjugation images,
eigenstate transport, and separability via reduced-state purity. A Pauli
string acts on amplitudes as an index permutation times a sign (as in
Stim, Gidney arXiv:2103.02202), read from ``.atoms`` and ``.phase`` only,
so no two 2^n x 2^n operators are ever multiplied and no code is shared
with the bit kernels under test. Exactness lives in the symbolic modules;
a 1e-9 tolerance is fine at the hard cap of 10 qubits.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .checker import Circuit
from .errors import (
    ArityError,
    EmptyEigenspaceError,
    MeasurementError,
    OracleError,
    OracleUnavailableError,
    TopOperandError,
)
from .gates import GateSpec
from .pauli import PauliAtom, PauliString
from .stabilizer import canonicalize
from .typesys import StabType

TOLERANCE = 1e-9
MAX_QUBITS = 10
DEFAULT_SEED = 7
DEFAULT_SAMPLES = 16

_POWERS_OF_I = np.array([1, 1j, -1, -1j])

_BASE_UNITARIES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
    # Control is wire 1, the most significant bit of the block.
    "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
}
_TOFFOLI = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]


def _check_size(n: int) -> None:
    if n > MAX_QUBITS:
        raise OracleUnavailableError(
            f"{n} qubits exceeds the dense cap of {MAX_QUBITS}"
        )


def _pauli_action(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """``(perm, sign)`` with ``M(p) @ v == sign * v[perm]``, qubit 1 the top bit:
    X and Y flip their bit, and on row a Z gives (-1)^bit, Y gives -i(-1)^bit."""
    if p.is_top:
        raise TopOperandError("Top strings have no matrix")
    n = p.arity
    _check_size(n)
    index = np.arange(2**n)
    perm = index.copy()
    k = np.full(2**n, p.phase.k)
    for j, atom in enumerate(p.atoms):
        bit = 1 << (n - 1 - j)
        if atom in (PauliAtom.X, PauliAtom.Y):
            perm ^= bit
        if atom in (PauliAtom.Z, PauliAtom.Y):
            k += np.where(index & bit, 2, 0) + 3 * (atom is PauliAtom.Y)
    return perm, _POWERS_OF_I[k % 4]


def matrix_of(p: PauliString) -> np.ndarray:
    """Phase times the Kronecker product of the standard Pauli matrices."""
    perm, sign = _pauli_action(p)
    return sign[:, None] * np.eye(perm.size, dtype=complex)[perm]


def _compose(apps, n: int) -> np.ndarray:
    """The 2^n unitary of ``apps``, each gate contracted into its wires' row axes."""
    dim = 2**n
    u = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for app in apps:
        g, axes = app.gate.arity, [w - 1 for w in app.wires]
        gate = gate_unitary(app.gate).reshape((2,) * 2 * g)
        u = np.tensordot(gate, u, axes=(range(g, 2 * g), axes))
        u = np.moveaxis(u, range(g), axes)
    return u.reshape(dim, dim)


@lru_cache(maxsize=None)
def gate_unitary(spec: GateSpec) -> np.ndarray:
    """The gate's dense unitary, rebuilt from its decomposition if derived.
    A Toffoli decomposition that misses the direct 8x8 matrix is an error."""
    if spec.name in _BASE_UNITARIES:
        u = _BASE_UNITARIES[spec.name].copy()
    elif spec.decomposition is not None:
        u = _compose(spec.decomposition, spec.arity)
    else:
        raise OracleError(f"no unitary known for gate {spec.name}")
    if spec.name == "TOFFOLI":
        if np.max(np.abs(u - _TOFFOLI)) >= TOLERANCE:
            raise OracleError("TOFFOLI decomposition disagrees with its matrix")
    u.setflags(write=False)
    return u


# The latest circuit (matched by identity; hashing one costs more than a
# hit saves) and its unitary, which verify asks for once per image.
_latest: tuple = (None, None)


def unitary_of(circuit: Circuit) -> np.ndarray:
    """The circuit's unitary, built one gate at a time on its own axes."""
    global _latest
    _check_size(circuit.n_qubits)
    if circuit.has_measurement:
        raise MeasurementError("no unitary for a circuit with measurements")
    latest, u = _latest
    if latest is not circuit:
        u = _compose(circuit.instructions, circuit.n_qubits)
        u.setflags(write=False)
        _latest = (circuit, u)
    return u


def verify_conjugation(circuit: Circuit, p: PauliString, q: PauliString) -> bool:
    """True iff U M(p) U+ equals M(q) within tolerance, compared as
    U M(p) == M(q) U: two permuted and signed copies of U, no product."""
    if p.arity != circuit.n_qubits or q.arity != circuit.n_qubits:
        raise ArityError("operands must match the circuit's register size")
    u = unitary_of(circuit)
    p_perm, p_sign = _pauli_action(p)
    q_perm, q_sign = _pauli_action(q)
    diff = np.take(u, p_perm, axis=1)
    diff *= p_sign[p_perm]
    diff -= q_sign[:, None] * np.take(u, q_perm, axis=0)
    return bool(np.max(np.abs(diff)) < TOLERANCE)


def _project(actions, vecs: np.ndarray) -> np.ndarray:
    """Apply ``v <- (v + g v) / 2`` for each generator action to every row."""
    for perm, sign in actions:
        vecs = (vecs + sign * vecs[..., perm]) / 2
    return vecs


def eigenspace_projector(s: StabType) -> np.ndarray:
    """Projector P onto the joint +1 eigenspace of the generated group."""
    _check_size(s.arity)
    actions = [_pauli_action(g) for g in canonicalize(s).generators()]
    return _project(actions, np.eye(2**s.arity, dtype=complex)).T  # rows P e_i


def _sample_states(
    n: int, gens: Sequence[PauliString], count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` unit rows in the joint +1 eigenspace of ``gens``, drawn at once
    from the stream of one ``standard_normal(2**n)`` pair (real, imaginary)
    per sample. An annihilated sample is redrawn, up to seven times."""
    _check_size(n)
    actions = [_pauli_action(g) for g in gens]
    dim = 2**n
    states = np.empty((count, dim), dtype=complex)
    todo = np.arange(count)
    for _ in range(8):
        raw = rng.standard_normal((todo.size, 2, dim))
        vecs = _project(actions, raw[:, 0] + 1j * raw[:, 1])
        norms = np.linalg.norm(vecs, axis=1)
        kept = norms > 1e-12
        states[todo[kept]] = vecs[kept] / norms[kept, None]
        todo = todo[~kept]
        if not todo.size:
            return states
    raise EmptyEigenspaceError("projection annihilates every sample")


def sample_eigenstates(
    s: StabType, count: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> np.ndarray:
    """Pseudorandom unit vectors, one per row, in the joint +1 eigenspace of ``s``."""
    rng = np.random.default_rng(seed)
    return _sample_states(s.arity, canonicalize(s).generators(), count, rng)


def reduced_purity(state: np.ndarray, k: int, n: int) -> float | np.ndarray:
    """tr(rho^2) of the reduced single-qubit state at qubit k (1-based),
    one value per row if ``state`` holds one vector per row."""
    lead = state.shape[:-1]
    tensor = state.reshape(lead + (2,) * n)
    local = np.moveaxis(tensor, len(lead) + k - 1, len(lead)).reshape(lead + (2, -1))
    rho = local @ np.swapaxes(local.conj(), -1, -2)
    return np.real(np.einsum("...ij,...ji->...", rho, rho))


def verify_separability(
    s: StabType,
    k: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    *,
    states: np.ndarray | None = None,
) -> bool:
    """True iff every sampled joint eigenstate is pure at qubit k. ``states``,
    if given, is ``sample_eigenstates(s, samples, seed)`` drawn by the caller."""
    if states is None:
        states = sample_eigenstates(s, samples, seed)
    return bool(np.all(reduced_purity(states, k, s.arity) >= 1 - TOLERANCE))


def transport_residual(
    circuit: Circuit,
    input_type: StabType,
    transported: Sequence[PauliString],
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> float:
    """Worst-case eigenstate-transport defect: how far sampled joint +1
    eigenstates of the input type, pushed through the circuit, sit from the
    +1 eigenspace of each transported generator. The type system claims 0."""
    u = unitary_of(circuit)
    evolved = sample_eigenstates(input_type, samples, seed) @ u.T
    actions = [_pauli_action(q) for q in transported if not q.is_top]
    residuals = [
        np.linalg.norm(sign * evolved[:, perm] - evolved, axis=1).max(initial=0.0)
        for perm, sign in actions
    ]
    return float(max(residuals, default=0.0))
