"""The dense check: its one entry point and its two kernels, in plain Python.

Every claim is a Heisenberg-picture fact about one Pauli string: a
conjugation U M(p) U+ = M(q), or a string q claimed to fix the evolved
eigenstates of the input type, M(q) U v = U v, as an output generator and
a separability factor +-U on qubit k (lifted to the register as +-U_k)
are. :func:`verify_claims`, the one way in for ``verify`` and for library
callers alike, checks every operand before any kernel runs, then chooses
by the work W that state vectors would take. Up to ``WORK_BUDGET`` it runs
:func:`_verify` on state vectors; above it, :func:`_exact`, which decides
each claim exactly by propagating single Pauli strings (Gottesman,
arXiv:quant-ph/9807006) at O(n) work per gate and string (Aaronson and
Gottesman, arXiv:quant-ph/0406196). Neither imports numpy.

State vectors. A batch is a list of 2^n rows, one per basis index (qubit 1
its top bit), each holding one amplitude per state column. A gate sends
output row i to a sum of input rows times entries of its unitary, kept
sparse: a row that a permutation gate only moves is shared, never copied.
Conjugations are read on seeded Gaussian probes, and strings claimed of
the output on eigenstates of the input type, drawn from a generator of
their own with the same seed.

Propagation. A string is ``(x, z, power)``, M = i^power Z^z X^x with qubit
1 the top bit, multiplied by its own rule, :func:`_mul`. A primitive's
images of its wires' units X_w and Z_w are read from its matrix by trace
decomposition, a derived gate's by pushing each unit through its
decomposition, and a restriction's image is their product. An image of
more than one Pauli term (T on X) makes a claim unavailable, not false:
T T = S recombines what T alone splits.

Both kernels read a string through :func:`_decode`, from its masks
reversed and ``.k``, sharing no code with ``gates``, ``pauli`` or
``stabilizer``, and refuse a TOFFOLI that misses its reference matrix.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import lru_cache, reduce, wraps
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
DEFAULT_SEED = 7
DEFAULT_SAMPLES = 16
PROBES = 2
# The most work run on state vectors. Measured on a 2-CPU Xeon: the costliest
# file at it takes about 33 ms.
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


def _leaves_first(build):
    """``build``, its value kept on the spec (keyed by ``build`` in its
    ``_dense`` slot) for as long as the spec lives: a standard gate's once
    per process, a def's until its parse is freed, so a freed def's value is
    never handed to a new gate. A derived gate is built from the values of
    its decomposition's gates, so they are built first, in
    ``gates._build_order``: a deep chain of defs takes no recursion."""

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
    """The gate's unitary as each row's ``(column, entry)`` pairs above
    TOLERANCE, an entry within TOLERANCE of 1 made exactly 1: a primitive's
    from the table above, a derived gate's by evolving the identity through
    its decomposition. A TOFFOLI that misses the 8x8 matrix is an error."""
    size = 2**spec.arity
    if spec.name in _BASE_UNITARIES:
        u = _BASE_UNITARIES[spec.name]
    elif spec.decomposition is not None:
        eye = [[complex(i == j) for j in range(size)] for i in range(size)]
        u = _evolve(spec.decomposition, spec.arity, eye)
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
    return tuple(
        tuple(
            (c, 1 if abs(e - 1) < TOLERANCE else e)
            for c, e in enumerate(row)
            if abs(e) > TOLERANCE
        )
        for row in u
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


def verify_claims(
    circuit: Circuit,
    pairs: Sequence[tuple[PauliString, PauliString]],
    input_type: StabType | None = None,
    transported: Sequence[PauliString] = (),
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> tuple[list[bool], list[float]]:
    """Verdicts U M(p) U+ == M(q) for each pair, and for each string q of
    ``transported`` (the output type's generators and lifted factors) a
    residual |M(q) U v - U v| over eigenstates v of ``input_type``, below
    TOLERANCE iff the claim holds on them, 0 for a Top q: the worst over
    ``samples`` drawn ones on state vectors, the supremum over all by
    propagation. W is 2^n x columns amplitudes (``PROBES`` probes, each M(p)
    on them, and the eigenstates drawn: one of a pure type, whose rows have
    GF(2) rank n, else ``samples``), each taking a pass per instruction (2^g
    for a def on g wires, whose unitary may be dense) and one for the checks
    on the output. Propagation raises OracleUnavailableError where an image
    is not one Pauli term."""
    n, drawn = circuit.n_qubits, samples if input_type is not None else 0
    if input_type is None and transported:
        raise OracleError("transported strings need an input type")
    operands = [s for pair in pairs for s in pair] + list(transported)
    if input_type is not None:
        operands.append(input_type)
    if any(s.arity != n for s in operands):
        raise ArityError("operands must match the circuit's register size")
    if circuit.has_measurement:
        raise MeasurementError("no unitary for a circuit with measurements")
    if drawn and len(_echelon(map(_decode, input_type.tableau), n)) == n:
        drawn = 1  # a pure type's eigenspace is one state: every draw is it times a phase
    builtin = standard_gates()
    passes = 1 + sum(
        1 if builtin.get(app.gate.name) is app.gate else 2**app.gate.arity
        for app in circuit.instructions
    )
    if 2**n * (PROBES * (len(pairs) + 1) + drawn) * passes <= WORK_BUDGET:
        kernel = _verify
    else:
        kernel = _exact
    return kernel(circuit, pairs, input_type, transported, drawn, seed)


def _verify(circuit, pairs, input_type, transported, samples, seed):
    """:func:`verify_claims`' result on state vectors, on arguments it has
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


# --- exact single-term propagation -------------------------------------------


def _mul(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """M(a) M(b) as ``(x, z, power)``: moving Z^z2 left past X^x1 costs
    (-1)^|x1 & z2|, so the product is i^(p1 + p2 + 2|x1 & z2|) Z^(z1^z2) X^(x1^x2)."""
    x1, z1, p1 = a
    x2, z2, p2 = b
    return x1 ^ x2, z1 ^ z2, (p1 + p2 + 2 * (x1 & z2).bit_count()) % 4


def _one_term(u, s: tuple[int, int, int]) -> tuple[int, int, int] | None:
    """U M(s) U+ for the g-wire unitary ``u`` (rows), if it is one Pauli term:
    of its coefficients (1/2^g) Tr(M(x, z, 0)+ U M(s) U+) over all x and z,
    exactly one has modulus 1 within TOLERANCE, and i^power is its phase.
    Else None."""
    size, (x, z, power) = len(u), s
    # M(s) sends basis column k to i^power (-1)^|k & z| times row k ^ x.
    signs = [_POWERS_OF_I[power] * (-1) ** (k & z).bit_count() for k in range(size)]
    a = [
        [sum(row[k] * signs[k] * col[k ^ x].conjugate() for k in range(size)) for col in u]
        for row in u
    ]
    terms = []
    for tx in range(size):
        for tz in range(size):
            c = sum((-1) ** (i & tz).bit_count() * a[i][i ^ tx] for i in range(size)) / size
            if abs(abs(c) - 1) < TOLERANCE:
                terms.append((tx, tz, round(cmath.phase(c) / (math.pi / 2)) % 4))
    return terms[0] if len(terms) == 1 else None


@_leaves_first
def _conjugation(spec: GateSpec) -> tuple[tuple, tuple, dict]:
    """The gate's action on strings over its g wires (wire 1 the top bit):
    the images of X and of Z at each local bit b, each ``(x, z, power)`` or
    None if it is not one Pauli term, and a table of restrictions' images,
    filled by :func:`_restricted` on use. A primitive's images come from
    its matrix by :func:`_one_term`, a derived gate's by pushing each unit
    through its decomposition: 2g images, however wide the gate."""
    g = spec.arity
    units = [(1 << b, 0, 0) for b in range(g)] + [(0, 1 << b, 0) for b in range(g)]
    if spec.name in _BASE_UNITARIES:
        images = [_one_term(_BASE_UNITARIES[spec.name], unit) for unit in units]
    else:
        if spec.decomposition is None or spec.name == "TOFFOLI":
            _sparse_unitary(spec)  # refuses a gate with no unitary, or a faulty TOFFOLI
        steps = _steps(spec.decomposition, g)
        images = []
        for unit in units:
            try:
                images.append(_push(steps, unit))
            except OracleUnavailableError:
                images.append(None)
    return tuple(images[:g]), tuple(images[g:]), {}


def _restricted(spec: GateSpec, lx: int, lz: int) -> tuple[int, int, int] | None:
    """The image of Z^lz X^lx on the gate's wires: the product of the images
    of its Zs, then of its Xs, or None if one of them is not one term."""
    xs, zs, table = _conjugation(spec)
    key = lx << spec.arity | lz
    if key not in table:
        units = [u for bits, us in ((lz, zs), (lx, xs)) for b, u in enumerate(us) if bits >> b & 1]
        table[key] = None if None in units else reduce(_mul, units, (0, 0, 0))
    return table[key]


def _steps(apps, n: int) -> list:
    """Per instruction of ``apps`` on n qubits: the app, the bit of each of
    its wires (wire w at bit n - w), their mask, and a table of each
    restriction's flips, shared by repeats of one app and filled by
    :func:`_push` on use."""
    flips, steps = {}, []
    for app in apps:
        _conjugation(app.gate)  # every gate's table built, leaves first, before any push
        bits = [1 << n - w for w in app.wires]
        steps.append((app, bits, sum(bits), flips.setdefault(id(app), {})))
    return steps


def _push(steps, s: tuple[int, int, int]) -> tuple[int, int, int]:
    """U M(s) U+ through ``steps``, one gate at a time. A string that is I on
    a gate's wires passes; any other looks its restriction up, read first
    wire first, and XORs in the bits the image flips. A restriction whose
    image is not one Pauli term raises OracleUnavailableError naming the
    gate."""
    x, z, power = s
    for app, bits, mask, flips in steps:
        if not (x | z) & mask:
            continue
        key = x & mask, z & mask
        if key not in flips:
            lx = lz = 0
            for bit in bits:
                lx = lx << 1 | bool(x & bit)
                lz = lz << 1 | bool(z & bit)
            image = _restricted(app.gate, lx, lz)
            if image is not None:  # local bit b is bits[-1 - b]
                ix, iz, k = image
                dx = sum(bit for b, bit in enumerate(reversed(bits)) if (ix ^ lx) >> b & 1)
                dz = sum(bit for b, bit in enumerate(reversed(bits)) if (iz ^ lz) >> b & 1)
                image = dx, dz, k
            flips[key] = image
        if flips[key] is None:
            raise OracleUnavailableError(
                f"{app} takes a claimed string to more than one Pauli term"
            )
        dx, dz, k = flips[key]
        x, z, power = x ^ dx, z ^ dz, power + k
    return x, z, power % 4


def _reduced(s: tuple[int, int, int], kept: dict, n: int) -> tuple[int, int, int]:
    """``s`` times kept rows while its top x|z bit is one of theirs."""
    while True:
        row = kept.get((s[0] << n | s[1]).bit_length())
        if row is None:
            return s
        s = _mul(s, row)


def _echelon(rows, n: int) -> dict:
    """Products of ``rows`` (strings on n qubits, as ``(x, z, power)``), one
    per top x|z bit, that generate their group: as many as the rows' GF(2)
    rank. Rows that generate a multiple of -I have no joint eigenstate."""
    kept = {}
    for row in rows:
        left = _reduced(row, kept, n)
        if left[0] or left[1]:
            kept[(left[0] << n | left[1]).bit_length()] = left
        elif left[2]:
            raise EmptyEigenspaceError("the rows generate a multiple of -I")
    return kept


def _exact(circuit, pairs, input_type, transported, samples, seed):
    """:func:`verify_claims`' result by exact propagation, on arguments it has
    checked; ``samples`` and ``seed`` are not read. The pushed rows generate
    the evolved group S; each claimed q is reduced by them. If q = lambda g
    for some g in S, M(q) acts on the eigenspace as lambda, so the residual
    is |lambda - 1|: 0, sqrt(2) or 2. If q anticommutes with a row, M(q) U v
    is orthogonal to U v: sqrt(2). Any other q acts as a logical Pauli times
    lambda, with eigenvalues +-lambda: 2 if lambda is real, else sqrt(2)."""
    n = circuit.n_qubits
    steps = _steps(circuit.instructions, n)
    verdicts = [_push(steps, _decode(p)) == _decode(q) for p, q in pairs]
    # Rows are pushed only for a string to check on them: a Top q reads 0.
    live = any(not q.is_top for q in transported)
    rows = [_push(steps, _decode(g)) for g in input_type.tableau] if live else []
    kept, residuals = _echelon(rows, n), []
    for q in transported:
        if q.is_top:
            residuals.append(0.0)
            continue
        x, z, power = _reduced(_decode(q), kept, n)
        lam = _POWERS_OF_I[(power + (x & z).bit_count()) % 4]
        if not (x or z):
            residuals.append(abs(lam - 1))
        elif any(((x & rz).bit_count() + (z & rx).bit_count()) & 1 for rx, rz, _ in rows):
            residuals.append(math.sqrt(2))
        else:
            residuals.append(max(abs(lam - 1), abs(lam + 1)))
    return verdicts, residuals
