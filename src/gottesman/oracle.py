"""Brute-force dense verification on numpy: the kernel for large work.

:func:`gottesman.pyoracle.verify_claims` is the one entry point to the dense
check: it checks every operand and, when their work is above
``pyoracle.WORK_BUDGET``, runs :func:`_verify` here, the numpy twin of its
plain-Python kernel. The caps, constants and gate table both share live in
``pyoracle``; this module's one public function, :func:`gate_unitary`, builds
a derived gate's unitary through ``pyoracle._unitary`` and :func:`_evolve`.

Pushes batches of state vectors, the columns of one 2^n x m array, through
a circuit and checks the symbolic layer's claims: U P U+ == Q as
U P phi == Q U phi on seeded Gaussian phi (a wrong Q passes only on a
measure-zero set), and each string claimed of the output, a generator or
a separability factor, as M(q) U v == U v on the input type's eigenstates
v. Those are drawn once, as columns of that batch, from a stream of their
own seeded with ``seed``, as in the plain kernel.

A gate's form is read from its dense unitary alone. If each row of it
holds one nonzero entry (every standard gate but H), it acts on amplitudes
as a Pauli does, as an index permutation times phases (Stim,
arXiv:2103.02202). A run of such gates is composed on one pending row
permutation and one pending phase column, 2^n entries each, so the whole
run costs one gather of the batch's rows and at most one multiply; a
diagonal gate (S, Sdg, Z, CZ, T) leaves the permutation alone. Any other
gate, of any arity, gathers the rows through the pending run into 2^g
blocks by their bits on its wires, multiplies the blocks by its unitary in
one matmul (on floats if the unitary is real, as H's), and leaves their
ungrouping pending. A Pauli is read through ``pyoracle._decode``, sharing
no code with the bit kernels, and a list of strings acts in one gather:
per block of eigenstate columns, one gather checks every claimed string.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import EmptyEigenspaceError
from .gates import GateSpec
from .pauli import PauliString
from .pyoracle import (  # the caps, constants and gate table both kernels share
    MAX_QUBITS,
    PROBES,
    TOLERANCE,
    _POWERS_OF_I,
    _decode,
    _leaves_first,
    _unitary,
)

_DRAW_BLOCK = 2**18  # amplitudes drawn and projected at a time

_POWERS_OF_I = np.array(_POWERS_OF_I)
_PARITY_SIGN = np.ones(1)  # entry i is (-1)^popcount(i), for i < 2^MAX_QUBITS
for _ in range(MAX_QUBITS):
    _PARITY_SIGN = np.concatenate((_PARITY_SIGN, -_PARITY_SIGN))


def _paulis(strings: Sequence[PauliString], n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(perm, sign)``, one row per string, with M(p) v = sign * v[perm] on
    the 2^n basis index, qubit 1 its top bit: X and Y flip their bit, and on
    a row Z gives (-1)^bit, Y gives -i(-1)^bit. Each string is read once."""
    codes = np.array([_decode(p) for p in strings], dtype=np.intp).reshape(-1, 3)
    index = _basis(n)[0]
    perm = index ^ codes[:, :1]
    parity = _PARITY_SIGN[index & codes[:, 1:2]]
    return perm, _POWERS_OF_I[codes[:, 2]][:, None] * parity


def _apply(strings: Sequence[PauliString], vecs: np.ndarray) -> np.ndarray:
    """M(p) on every column of ``vecs`` (2^n x c) for each string p, in one
    gather: a 2^n x len(strings) x c array."""
    perm, sign = _paulis(strings, len(vecs).bit_length() - 1)
    out = vecs.take(perm.T, axis=0)
    out *= sign.T[:, :, None]
    return out


@lru_cache(maxsize=MAX_QUBITS + 1)
def _basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2^n row indices, and each qubit's bit of them (row q-1 for qubit
    q, qubit 1 the top bit): under 2 MB at MAX_QUBITS."""
    index = np.arange(2**n)
    bits = index >> np.arange(n - 1, -1, -1)[:, None] & 1
    index.setflags(write=False)
    bits.setflags(write=False)
    return index, bits


def _local_rows(wires: tuple[int, ...], n: int) -> np.ndarray:
    """Each basis row's row of a gate on ``wires``: its bits on the wires,
    the gate's first wire the most significant."""
    bits = _basis(n)[1]
    local = bits[wires[0] - 1]
    for w in wires[1:]:
        local = local << 1 | bits[w - 1]
    return local


@lru_cache(maxsize=1024)
def _spread(wires: tuple[int, ...], n: int) -> np.ndarray:
    """For each row of a gate on ``wires``, the basis-index bits it sets."""
    rows, g = np.arange(2 ** len(wires)), len(wires)
    table = sum((rows >> (g - 1 - pos) & 1) << (n - w) for pos, w in enumerate(wires))
    table.setflags(write=False)
    return table


@_leaves_first
def _monomial(spec: GateSpec) -> tuple[np.ndarray, np.ndarray | None] | None:
    """``(moved, phases)`` if each row r of the gate's unitary has exactly one
    entry above TOLERANCE, at column r ^ moved[r] with value phases[r]: the
    gate is a permutation times phases. ``moved`` is None if every entry is 0
    (the gate is diagonal), ``phases`` if each is within TOLERANCE of 1.
    Else None."""
    u = gate_unitary(spec)
    rows, cols = np.nonzero(np.abs(u) > TOLERANCE)
    if len(rows) != len(u):  # no row of a unitary is zero
        return None
    moved, phases = rows ^ cols, u[rows, cols]
    for table in (moved, phases):
        table.setflags(write=False)
    unphased = np.all(np.abs(phases - 1) < TOLERANCE)
    return moved if moved.any() else None, None if unphased else phases


def _take(vecs, src, phase, out=None) -> np.ndarray:
    """Row i of the result, written to ``out`` if given, is
    ``phase[i] * vecs[src[i]]``: one gather of the batch, and one multiply
    unless ``phase`` is None. ``src`` is always in range, so the gather
    needs no bounds check and writes ``out`` without a buffer."""
    out = vecs.take(src, axis=0, out=out, mode="clip")
    if phase is not None:
        out *= phase[:, None]
    return out


def _evolve(apps, n: int, vecs: np.ndarray) -> np.ndarray:
    """The columns of ``vecs`` (2^n x m) pushed through ``apps``; from the
    identity this is the unitary. The batch so far is kept as
    ``phase * vecs[src]``, row by row: a monomial gate composes its row step
    (none if it is diagonal) and phases into ``src`` and ``phase`` (2^n
    entries each) and leaves the batch alone. Any other gate gathers the
    pending rows into 2^g blocks by their bits on its wires, in one take, for
    one matmul, and its ungrouping becomes the next pending ``src``. The
    batch is gathered once more at the end."""
    index, m = _basis(n)[0], vecs.shape[1]
    src, phase, blocks = index, None, None
    for app in apps:
        local = _local_rows(app.wires, n)
        form = _monomial(app.gate)
        if form is not None:
            moved, phases = form
            if moved is not None:  # a diagonal gate leaves the pending rows alone
                step = index ^ _spread(app.wires, n)[moved][local]
                src = src[step]
                if phase is not None:
                    phase = phase[step]
            if phases is not None:
                phase = phases[local] if phase is None else phase * phases[local]
            continue
        # Block r lists, in order, the rows whose bits on the wires are r.
        u, real = gate_unitary(app.gate), _real(app.gate)
        order = (_spread(app.wires, n)[:, None] | index[local == 0]).ravel()
        # From the second such gate on, the batch and the blocks are buffers
        # of ours that nothing else reads: each is overwritten in turn.
        out = None if blocks is None else vecs.reshape(len(u), -1)
        blocks = _take(vecs, src[order], None if phase is None else phase[order], blocks)
        vecs = None  # the caller's batch is freed before the product is made
        if real is None:
            vecs = np.matmul(u, blocks.reshape(len(u), -1), out=out)
        else:  # on the real and the imaginary part of each amplitude alike
            out = None if out is None else out.view(float)
            vecs = np.matmul(real, blocks.view(float).reshape(len(u), -1), out=out).view(complex)
        vecs = vecs.reshape(-1, m)
        src, phase = np.empty_like(order), None
        src[order] = index
    return _take(vecs, src, phase, blocks)


@_leaves_first
def gate_unitary(spec: GateSpec) -> np.ndarray:
    """The gate's dense unitary from ``pyoracle._unitary``, a derived gate's
    evolved here, not copied once built; kept on the spec by
    ``pyoracle._leaves_first``."""
    eye = np.eye(2**spec.arity, dtype=complex)
    u = np.asarray(_unitary(spec, _evolve, eye), dtype=complex)
    u.setflags(write=False)
    return u


@_leaves_first
def _real(spec: GateSpec) -> np.ndarray | None:
    """The gate's unitary as floats if no entry has an imaginary part, else None."""
    u = gate_unitary(spec)
    return None if u.imag.any() else np.ascontiguousarray(u.real)


def _verify(circuit, pairs, input_type, transported, samples, seed):
    """``pyoracle.verify_claims``' result, on numpy, on arguments it has
    checked: one pass over ``PROBES`` Gaussian phi, each M(p) phi and
    ``input_type``'s eigenstates."""
    n = circuit.n_qubits
    raw = np.random.default_rng(seed).standard_normal((2, 2**n, PROBES))
    phi = raw[0] + 1j * raw[1]
    cols = [phi, _apply([p for p, _ in pairs], phi).reshape(2**n, -1)]
    if input_type is not None:  # the eigenstates from a stream of their own
        cols.append(_sample_states(n, input_type.tableau, samples, np.random.default_rng(seed)))
    # Popped, so the pieces are freed now and the batch once it is gathered.
    cols = [np.concatenate(cols, axis=1)]
    out = _evolve(circuit.instructions, n, cols.pop())
    split = PROBES * (len(pairs) + 1)
    u_p_phi = out[:, PROBES:split].reshape(2**n, len(pairs), PROBES)
    defect = _apply([q for _, q in pairs], out[:, :PROBES])
    defect -= u_p_phi
    # Axis 0 first: numpy reduces over (0, 2) at once many times slower.
    verdicts = (np.abs(defect).max(axis=0).max(axis=1) < TOLERANCE).tolist()
    del defect  # freed first: at n = 14 the gathers below are as large
    # The eigenstate columns in blocks, each gather within _DRAW_BLOCK: one
    # makes M(q) v - v for every string q that is not Top.
    evolved, residuals = out[:, split:], np.zeros(len(transported))
    live = [j for j, q in enumerate(transported) if not q.is_top]
    perm, sign = _paulis([transported[j] for j in live], n)
    worst = np.zeros(len(live))
    block = max(1, (_DRAW_BLOCK >> n) // max(len(live), 1))
    for start in range(0, evolved.shape[1], block):
        vecs = evolved[:, start : start + block]
        diff = vecs.take(perm.T, axis=0)  # 2^n x t x c
        diff *= sign.T[:, :, None]
        diff -= vecs[:, None]
        np.maximum(worst, np.linalg.norm(diff, axis=0).max(axis=1), out=worst)
    residuals[live] = worst
    return verdicts, residuals.tolist()


def _sample_states(n: int, gens, count: int, rng) -> np.ndarray:
    """``count`` unit columns in the joint +1 eigenspace of ``gens``, one complex
    Gaussian per sample (real part first), redrawn up to seven times if lost.
    Columns are drawn and projected in blocks of ``_DRAW_BLOCK`` amplitudes,
    so the float draw and the projector's temporaries stay small."""
    perm, sign = _paulis(gens, n)
    states = np.empty((2**n, count), dtype=complex)
    block = max(1, _DRAW_BLOCK >> n)
    buf = np.empty(2**n * min(block, count), dtype=complex)
    todo = np.arange(count)
    for _ in range(8):
        kept = np.empty(todo.size, dtype=bool)
        for start in range(0, todo.size, block):
            cols = todo[start : start + block]
            raw = rng.standard_normal((cols.size, 2, 2**n))
            vecs = (raw[:, 0] + 1j * raw[:, 1]).T.copy()
            step = buf[: vecs.size].reshape(vecs.shape)
            for p, s in zip(perm, sign):  # the projector prod (I + g), halved below
                vecs.take(p, axis=0, out=step, mode="clip")
                step *= s[:, None]
                vecs += step
            vecs *= 0.5 ** len(perm)  # exact, so equal to halving at each g
            # Summed along rows, as a row layout sums them, for equal bits.
            norms = np.linalg.norm(vecs.T.copy(), axis=1)
            ok = kept[start : start + block] = norms > 1e-12
            states[:, cols[ok]] = vecs[:, ok] / norms[ok]
        todo = todo[~kept]
        if not todo.size:
            return states
    raise EmptyEigenspaceError("projection annihilates every sample")

