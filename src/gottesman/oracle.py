"""Brute-force dense verification.

Pushes batches of state vectors through a circuit, each gate contracted
into its wires' axes, and checks the symbolic layer's claims: U P U+ == Q
as U P phi == Q U phi on seeded Gaussian phi (a wrong Q passes only on a
measure-zero set), eigenstate transport, and separability via purity.
Paulis act as index permutation times sign (Stim, arXiv:2103.02202), read
from ``.atoms`` and ``.phase`` only, sharing no code with the bit kernels.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .checker import Circuit, Measure
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
from .typesys import StabType

TOLERANCE = 1e-9
MAX_QUBITS = 14  # state vectors: O(2^n) per gate and vector
DEFAULT_SEED = 7
DEFAULT_SAMPLES = 16
PROBES = 2
MAX_BATCH_BYTES = 2**27  # one complex batch of state columns

_POWERS_OF_I = np.array([1, 1j, -1, -1j])
_PARITY_SIGN = np.ones(1)  # entry i is (-1)^popcount(i), for i < 2^MAX_QUBITS
for _ in range(MAX_QUBITS):
    _PARITY_SIGN = np.concatenate((_PARITY_SIGN, -_PARITY_SIGN))

_BASE_UNITARIES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
    # Control is wire 1, the most significant bit of the block.
    "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
}
_TOFFOLI = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]


def check_size(n: int, samples: int = 0) -> None:
    """Refuse a register past ``MAX_QUBITS``, or ``samples`` eigenstates whose
    batch (probes for 2n conjugations beside them) exceeds ``MAX_BATCH_BYTES``."""
    if n > MAX_QUBITS:
        raise OracleUnavailableError(f"{n} qubits exceeds the dense cap of {MAX_QUBITS}")
    if 16 * 2**n * (PROBES * (2 * n + 1) + samples) > MAX_BATCH_BYTES:
        cap = f"the batch cap of {MAX_BATCH_BYTES >> 20} MiB"
        raise OracleUnavailableError(f"{samples} samples on {n} qubits exceed {cap}")


def _act(p: PauliString, vecs: np.ndarray) -> np.ndarray:
    """M(p) on every column of ``vecs``, qubit 1 the top bit: X and Y flip
    their bit, and on row a Z gives (-1)^bit, Y gives -i(-1)^bit."""
    if p.is_top:
        raise TopOperandError("Top strings have no matrix")
    flips, signs, k = 0, 0, p.phase.k
    for atom in p.atoms:
        flips = flips << 1 | (atom in (PauliAtom.X, PauliAtom.Y))
        signs = signs << 1 | (atom in (PauliAtom.Z, PauliAtom.Y))
        k += 3 * (atom is PauliAtom.Y)
    index = np.arange(2**p.arity)
    sign = _POWERS_OF_I[k % 4] * _PARITY_SIGN[index & signs]
    return sign[:, None] * vecs[index ^ flips]


def _evolve(apps, n: int, vecs: np.ndarray) -> np.ndarray:
    """The columns of ``vecs`` (2^n x m) pushed through ``apps``, each gate
    contracted into its wires' axes; from the identity this is the unitary."""
    m = vecs.shape[1]
    t = vecs.reshape((2,) * n + (m,))
    for app in apps:
        if isinstance(app, Measure):
            raise MeasurementError("no unitary for a circuit with measurements")
        g, axes = app.gate.arity, [w - 1 for w in app.wires]
        gate = gate_unitary(app.gate).reshape((2,) * 2 * g)
        t = np.tensordot(gate, t, axes=(range(g, 2 * g), axes))
        t = np.moveaxis(t, range(g), axes)
    return t.reshape(2**n, m)


@lru_cache(maxsize=None)
def gate_unitary(spec: GateSpec) -> np.ndarray:
    """The gate's dense unitary, rebuilt from its decomposition if derived.
    A Toffoli decomposition that misses the direct 8x8 matrix is an error."""
    if spec.name in _BASE_UNITARIES:
        u = _BASE_UNITARIES[spec.name].copy()
    elif spec.decomposition is not None:
        eye = np.eye(2**spec.arity, dtype=complex)
        u = _evolve(spec.decomposition, spec.arity, eye)
    else:
        raise OracleError(f"no unitary known for gate {spec.name}")
    if spec.name == "TOFFOLI" and np.max(np.abs(u - _TOFFOLI)) >= TOLERANCE:
        raise OracleError("TOFFOLI decomposition disagrees with its matrix")
    u.setflags(write=False)
    return u


def verify_claims(
    circuit: Circuit,
    pairs: Sequence[tuple[PauliString, PauliString]],
    input_type: StabType | None = None,
    transported: Sequence[PauliString] = (),
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> tuple[list[bool], float]:
    """Verdicts U M(p) phi == M(q) U phi for each pair, and the transport residual,
    from one pass over ``PROBES`` Gaussian phi, each M(p) phi and eigenstates."""
    n = circuit.n_qubits
    check_size(n, samples if input_type is not None else 0)
    if any(s.arity != n for pair in pairs for s in pair):
        raise ArityError("operands must match the circuit's register size")
    raw = np.random.default_rng(seed).standard_normal((2, 2**n, PROBES))
    cols = [raw[0] + 1j * raw[1]]
    cols += [_act(p, cols[0]) for p, _ in pairs]
    if input_type is not None:
        cols.append(sample_eigenstates(input_type, samples, seed).T)
    out = _evolve(circuit.instructions, n, np.concatenate(cols, axis=1))
    splits = PROBES * np.arange(1, len(pairs) + 2)
    u_phi, *u_p_phi, evolved = np.split(out, splits, axis=1)
    verdicts = [
        bool(np.max(np.abs(lhs - _act(q, u_phi))) < TOLERANCE)
        for lhs, (_, q) in zip(u_p_phi, pairs)
    ]
    residuals = [
        np.linalg.norm(_act(q, evolved) - evolved, axis=0).max(initial=0.0)
        for q in transported
        if not q.is_top
    ]
    return verdicts, float(max(residuals, default=0.0))


def verify_conjugation(circuit: Circuit, p: PauliString, q: PauliString) -> bool:
    """True iff U M(p) U+ equals M(q): the one-pair case of ``verify_claims``."""
    return verify_claims(circuit, [(p, q)])[0][0]


def _sample_states(n: int, gens, count: int, rng) -> np.ndarray:
    """``count`` unit rows in the joint +1 eigenspace of ``gens``, one complex
    Gaussian per sample (real part first), redrawn up to seven times if lost."""
    check_size(n, count)
    states = np.empty((2**n, count), dtype=complex)
    todo = np.arange(count)
    for _ in range(8):
        raw = rng.standard_normal((todo.size, 2, 2**n))
        vecs = (raw[:, 0] + 1j * raw[:, 1]).T
        for g in gens:  # the projector prod (I + g) / 2
            vecs = (vecs + _act(g, vecs)) / 2
        norms = np.linalg.norm(vecs, axis=0)
        kept = norms > 1e-12
        states[:, todo[kept]] = vecs[:, kept] / norms[kept]
        todo = todo[~kept]
        if not todo.size:
            return states.T
    raise EmptyEigenspaceError("projection annihilates every sample")


def sample_eigenstates(
    s: StabType, count: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> np.ndarray:
    """Pseudorandom unit vectors, one per row, in the joint +1 eigenspace of ``s``."""
    rng = np.random.default_rng(seed)
    return _sample_states(s.arity, s.tableau.rows, count, rng)


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
    return verify_claims(circuit, (), input_type, transported, samples, seed)[1]
