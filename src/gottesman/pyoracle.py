"""The entry point to the dense check, and its kernel in plain Python.

:func:`verify_claims` checks the symbolic layer's claims on state vectors
and is the one way in for ``verify`` and for library callers alike: the
numpy kernel has no public entry. It checks every operand before any
kernel or draw: the qubit and batch caps, that every string and the input
type span the register, that strings to transport come with an input
type, that the circuit has no measurement and that no gate's dense unitary
passes the batch cap, then runs one of two kernels with one contract,
chosen by the work W: 2^n amplitudes times the state columns times their
passes. A pure input type (rows of GF(2) rank n) is one state up to phase,
so one eigenstate of it is drawn, not ``samples``; W counts the columns
drawn. Up to ``WORK_BUDGET`` it runs :func:`_verify` here, without numpy:
on the 2-4-qubit files of the paper's worked examples, importing numpy
costs several times the whole check. Above it, it imports
:func:`gottesman.oracle._verify`. The caps and constants below serve both,
and so does the gate table: :func:`_unitary` gives each kernel a
primitive's matrix, or a derived gate's built by that kernel's
``_evolve``, and checks TOFFOLI against its reference, so both refuse a
faulty gate alike.

Every claim is linear in the state: a conjugation U M(p) U+ = M(q), read
on probes, and a string q claimed to fix the evolved eigenstates,
M(q) U v = U v. An output generator and a separability factor +-U on
qubit k, lifted to the register as +-U_k, are both such strings.

A batch is a list of 2^n rows, one per basis index (qubit 1 its top bit),
each holding one amplitude per state column. A gate sends output row i to a
sum of input rows times entries of its unitary, kept sparse: a row that a
permutation gate only moves is shared, never copied or written. Both
kernels read a Pauli string through :func:`_decode`, from its masks
reversed and ``.k``, sharing no code with the bit kernels. Each kernel
draws the probes phi and, from a generator of its own, the input
eigenstates, both seeded with ``seed``: ``random.Random`` here,
``numpy.random.default_rng`` in the numpy kernel.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import lru_cache, wraps
from operator import add, mul, sub
from typing import Sequence

from .checker import Circuit
from .errors import (
    ArityError,
    EmptyEigenspaceError,
    MeasurementError,
    OracleError,
    OracleUnavailableError,
    TopOperandError,
)
from .gates import GateSpec, _build_order, standard_gates
from .pauli import PauliString
from .typesys import StabType

TOLERANCE = 1e-9
MAX_QUBITS = 14  # state vectors: O(2^n) per gate and vector
DEFAULT_SEED = 7
DEFAULT_SAMPLES = 16
PROBES = 2
MAX_BATCH_BYTES = 2**27  # one complex batch of state columns, or one gate's unitary
_CAP = f"the batch cap of {MAX_BATCH_BYTES >> 20} MiB"
# The most work run in plain Python. Measured on a 2-CPU Xeon: the costliest
# file at it takes about 33 ms, a fifth of a fresh numpy import (160 ms).
WORK_BUDGET = 2**14

_POWERS_OF_I = (1, 1j, -1, -1j)

_R = 1 / math.sqrt(2)
_BASE_UNITARIES = {
    "H": ((_R, _R), (_R, -_R)),
    "S": ((1, 0), (0, 1j)),
    "T": ((1, 0), (0, complex(_R, _R))),
    # Control is wire 1, the most significant bit of the block.
    "CNOT": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
}
_TOFFOLI_ROWS = (0, 1, 2, 3, 4, 5, 7, 6)  # row r holds its 1 in this column


def check_size(n: int, samples: int = 0) -> None:
    """Refuse a register past ``MAX_QUBITS``, or ``samples`` eigenstates whose
    batch (probes for 2n conjugations beside them) exceeds ``MAX_BATCH_BYTES``."""
    if n > MAX_QUBITS:
        raise OracleUnavailableError(f"{n} qubits exceeds the dense cap of {MAX_QUBITS}")
    if 16 * 2**n * (PROBES * (2 * n + 1) + samples) > MAX_BATCH_BYTES:
        raise OracleUnavailableError(f"{samples} samples on {n} qubits exceed {_CAP}")


def _decode(p: PauliString) -> tuple[int, int, int]:
    """``(x, z, power)`` with M(p) = i^power Z^z X^x, qubit 1 the top bit of
    each mask: the string's masks (qubit 1 their low bit) reversed, and its
    ``.k`` plus 3 for each Y, as Y = -iZX."""
    if p.is_top:
        raise TopOperandError("Top strings have no matrix")
    width = f"0{p.arity}b"
    x, z = int(format(p.x, width)[::-1], 2), int(format(p.z, width)[::-1], 2)
    return x, z, (p.k + 3 * (p.x & p.z).bit_count()) % 4


def _pauli(p: PauliString) -> tuple[list[int], list[complex]]:
    """``(perm, signs)`` with (M(p) v)[i] = signs[i] * v[perm[i]]: X and Y flip
    their bit of the index, and Z gives (-1)^bit, Y -i(-1)^bit."""
    x, z, power = _decode(p)
    phase = _POWERS_OF_I[power]
    index = range(2**p.arity)
    signs = [-phase if (i & z).bit_count() & 1 else phase for i in index]
    return [i ^ x for i in index], signs


def _act(pauli: tuple[list[int], list[complex]], v: Sequence[complex]) -> list:
    """M(p) v, for ``pauli`` as :func:`_pauli` gives it."""
    perm, signs = pauli
    return list(map(mul, signs, map(v.__getitem__, perm)))


def _unitary(spec: GateSpec, evolve, eye):
    """The gate's unitary as rows, for both kernels: a primitive's from the
    table above, a derived gate's as ``evolve(decomposition, arity, eye)`` in
    the caller's arithmetic. A TOFFOLI that misses the 8x8 matrix is an error."""
    if spec.name in _BASE_UNITARIES:
        u = _BASE_UNITARIES[spec.name]
    elif spec.decomposition is not None:
        u = evolve(spec.decomposition, spec.arity, eye)
    else:
        raise OracleError(f"no unitary known for gate {spec.name}")
    if spec.name == "TOFFOLI" and (
        len(u) != 8
        or any(
            abs(e - (c == _TOFFOLI_ROWS[r])) >= TOLERANCE
            for r, row in enumerate(u)
            for c, e in enumerate(row)
        )
    ):
        raise OracleError("TOFFOLI decomposition disagrees with its matrix")
    return u


def _leaves_first(build):
    """``build``, its value kept on the spec (keyed by ``build`` in its
    ``_dense`` slot) for as long as the spec lives: a standard gate's once
    per process, a def's until its parse is freed. A derived gate is built
    from the values of its decomposition's gates, so they are built first,
    in ``gates._build_order``: a deep chain of defs takes no recursion."""

    @wraps(build)
    def built(spec: GateSpec):
        try:
            return spec._dense[build]
        except KeyError:
            for gate in _build_order(spec):
                if build not in gate._dense:
                    gate._dense[build] = build(gate)
            return spec._dense[build]

    return built


@_leaves_first
def _sparse_unitary(spec: GateSpec) -> tuple[tuple[tuple[int, complex], ...], ...]:
    """The gate's :func:`_unitary` as each row's ``(column, entry)`` pairs above
    TOLERANCE, an entry within TOLERANCE of 1 made exactly 1."""
    size = 2**spec.arity
    eye = [[complex(i == j) for j in range(size)] for i in range(size)]
    return tuple(
        tuple(
            (c, 1 if abs(e - 1) < TOLERANCE else e)
            for c, e in enumerate(row)
            if abs(e) > TOLERANCE
        )
        for row in _unitary(spec, _evolve, eye)
    )


@lru_cache(maxsize=256)
def _program(u: tuple, wires: tuple[int, ...], n: int) -> tuple:
    """For each basis row i, the ``(row, entry)`` terms whose sum is row i of
    the batch after a gate on ``wires`` of sparse unitary ``u``: row r of
    ``u``, r being i's bits on the wires (the first wire most significant),
    read against the rows that differ from i on those bits only."""
    g = len(wires)
    spread = [
        sum((c >> (g - 1 - pos) & 1) << (n - w) for pos, w in enumerate(wires))
        for c in range(2**g)
    ]
    local = {bits: r for r, bits in enumerate(spread)}
    mask = spread[-1]
    return tuple(
        tuple((i & ~mask | spread[c], e) for c, e in u[local[i & mask]])
        for i in range(2**n)
    )


def _evolve(apps, n: int, rows: list) -> list:
    """The batch ``rows`` (2^n rows of columns) pushed through ``apps``."""
    for app in apps:
        out = []
        for (s, e), *rest in _program(_sparse_unitary(app.gate), app.wires, n):
            acc = rows[s] if e == 1 else [e * a for a in rows[s]]
            for s, e in rest:
                acc = [t + e * a for t, a in zip(acc, rows[s])]
            out.append(acc)
        rows = out
    return rows


def _gaussian(rng: random.Random, size: int) -> list[complex]:
    """``size`` complex Gaussians, real and imaginary parts independent
    N(0, 1), by Box-Muller: radius sqrt(-2 ln(1 - U)) at a uniform angle."""
    draw = rng.random
    return [
        cmath.rect(math.sqrt(-2 * math.log(1 - draw())), math.tau * draw())
        for _ in range(size)
    ]


def _sample_states(n: int, gens: Sequence[PauliString], count: int, rng) -> list[list]:
    """``count`` unit vectors in the joint +1 eigenspace of ``gens``: a complex
    Gaussian u projected by P = prod (I + g)/2, up to eight draws each. P is
    an orthogonal projector, so |Pu|^2 = <u, Pu> scales Pu to unit length."""
    paulis = [_pauli(g) for g in gens]
    half = 0.5 ** len(paulis)
    states = []
    for _ in range(count):
        for _ in range(8):
            u = v = _gaussian(rng, 2**n)
            for g in paulis:  # prod (I + g) u, halved in ``half``
                v = list(map(add, v, _act(g, v)))
            weight = half * sum(map(mul, map(complex.conjugate, u), v)).real
            if weight > 1e-24:
                scale = half / math.sqrt(weight)
                states.append([scale * a for a in v])
                break
        else:
            raise EmptyEigenspaceError("projection annihilates every sample")
    return states


def _rank(strings: Sequence[PauliString]) -> int:
    """The GF(2) rank of the strings' x|z bits, read through :func:`_decode`:
    each is reduced by the kept rows with its top bit, and kept if nonzero."""
    kept = {}  # top bit -> a kept row with it
    for p in strings:
        x, z, _ = _decode(p)
        row = x << p.arity | z
        while row and row.bit_length() in kept:
            row ^= kept[row.bit_length()]
        if row:
            kept[row.bit_length()] = row
    return len(kept)


def verify_claims(
    circuit: Circuit,
    pairs: Sequence[tuple[PauliString, PauliString]],
    input_type: StabType | None = None,
    transported: Sequence[PauliString] = (),
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> tuple[list[bool], list[float]]:
    """Verdicts U M(p) phi == M(q) U phi for each pair, and for each string q
    of ``transported`` (the output type's generators and lifted factors)
    the worst residual |M(q) U v - U v| over ``samples`` eigenstates v of
    ``input_type``, 0 for a Top q, from one pass over ``PROBES`` Gaussian
    phi, each M(p) phi and the v. A pure input type (its rows' bits of
    GF(2) rank n, by :func:`_rank`) has one eigenstate up to phase, and no
    residual depends on the phase, so one is drawn, the first of the
    kernel's seeded stream; a mixed type keeps all ``samples``. The caps
    count ``samples`` as asked. Each of the 2^n x columns amplitudes (the
    columns drawn) takes a pass per instruction (2^g for a def on g wires,
    whose unitary may be dense) and one for the checks on the output; work
    within ``WORK_BUDGET`` runs here, the rest on numpy."""
    n, drawn = circuit.n_qubits, samples if input_type is not None else 0
    check_size(n, drawn)
    if input_type is None and transported:
        raise OracleError("transported strings need an input type")
    operands = [s for pair in pairs for s in pair] + list(transported)
    if input_type is not None:
        operands.append(input_type)
    if any(s.arity != n for s in operands):
        raise ArityError("operands must match the circuit's register size")
    if circuit.has_measurement:
        raise MeasurementError("no unitary for a circuit with measurements")
    for app in circuit.instructions:
        g = app.gate.arity  # a def's unitary is built dense: 4^g entries
        if 16 * 4**g > MAX_BATCH_BYTES:
            raise OracleUnavailableError(
                f"gate {app.gate.name} on {g} wires: its {2**g}x{2**g} unitary exceeds {_CAP}"
            )
    if drawn and _rank(input_type.tableau) == n:
        drawn = 1  # a pure type's eigenspace is one state: every draw is it times a phase
    builtin = standard_gates()
    passes = 1 + sum(
        1 if builtin.get(app.gate.name) is app.gate else 2**app.gate.arity
        for app in circuit.instructions
    )
    if 2**n * (PROBES * (len(pairs) + 1) + drawn) * passes <= WORK_BUDGET:
        kernel = _verify
    else:
        from .oracle import _verify as kernel
    return kernel(circuit, pairs, input_type, transported, drawn, seed)


def _verify(circuit, pairs, input_type, transported, samples, seed):
    """:func:`verify_claims`' result, in plain Python, on arguments it has
    checked."""
    n = circuit.n_qubits
    rng = random.Random(seed)
    phi = [_gaussian(rng, 2**n) for _ in range(PROBES)]
    cols = phi + [_act(_pauli(p), f) for p, _ in pairs for f in phi]
    if input_type is not None:
        cols += _sample_states(n, input_type.tableau, samples, random.Random(seed))
    out = list(zip(*_evolve(circuit.instructions, n, list(zip(*cols)))))
    verdicts = []
    for j, (_, q) in enumerate(pairs):
        m_q, u_p_phi = _pauli(q), out[PROBES * (j + 1) : PROBES * (j + 2)]
        defects = (map(sub, _act(m_q, u), want) for u, want in zip(out[:PROBES], u_p_phi))
        verdicts.append(max(max(map(abs, d)) for d in defects) < TOLERANCE)
    evolved = out[PROBES * (len(pairs) + 1) :]
    residuals = []
    for q in transported:
        worst = 0.0
        if not q.is_top:
            m_q = _pauli(q)
            for v in evolved:
                worst = max(worst, math.hypot(*map(abs, map(sub, _act(m_q, v), v))))
        residuals.append(worst)
    return verdicts, residuals
