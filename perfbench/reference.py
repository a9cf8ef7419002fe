"""Independent stabilizer reference for the benchmark's known answers.

This module imports nothing from the package under test. It follows the
tableau rules of Aaronson & Gottesman (arXiv:quant-ph/0406196) and the
measurement rule of Gottesman (arXiv:quant-ph/9807006):

* A Hermitian Pauli string on n qubits is a row ``(x, z, neg)``: two
  Python ints whose bit q-1 is the x or z bit of qubit q (x=z=1 means Y),
  and a sign bit.
* A set of rows propagates through Clifford gates column-major, as in
  CHP and Stim: per qubit, one bitmask over the rows for x, one for z,
  and one sign mask, so every gate costs a few big-int operations.
* Groups are compared through a signed reduced row-echelon form, which
  is unique for a given signed group.
"""

from __future__ import annotations

import re

# Gate rules on columns (xa, za, xb, zb) and the sign mask r over m rows;
# ``full`` is the all-ones mask of the m rows.


def _h(c, r, full, a):
    xa, za = c[a]
    c[a] = (za, xa)
    return r ^ (xa & za)


def _s(c, r, full, a):
    xa, za = c[a]
    c[a] = (xa, za ^ xa)
    return r ^ (xa & za)


def _sdg(c, r, full, a):
    xa, za = c[a]
    c[a] = (xa, za ^ xa)
    return r ^ (xa & (za ^ full))


def _x(c, r, full, a):
    return r ^ c[a][1]


def _y(c, r, full, a):
    xa, za = c[a]
    return r ^ xa ^ za


def _z(c, r, full, a):
    return r ^ c[a][0]


def _cnot(c, r, full, a, b):
    (xa, za), (xb, zb) = c[a], c[b]
    r ^= xa & zb & (xb ^ za ^ full)
    c[a] = (xa, za ^ zb)
    c[b] = (xb ^ xa, zb)
    return r


def _notc(c, r, full, a, b):
    return _cnot(c, r, full, b, a)


def _cz(c, r, full, a, b):
    (xa, za), (xb, zb) = c[a], c[b]
    r ^= xa & xb & (za ^ zb)
    c[a] = (xa, za ^ xb)
    c[b] = (xb, zb ^ xa)
    return r


def _swap(c, r, full, a, b):
    c[a], c[b] = c[b], c[a]
    return r


PRIMITIVES = {
    "H": (1, _h),
    "S": (1, _s),
    "Sdg": (1, _sdg),
    "X": (1, _x),
    "Y": (1, _y),
    "Z": (1, _z),
    "CNOT": (2, _cnot),
    "NOTC": (2, _notc),
    "CZ": (2, _cz),
    "SWAP": (2, _swap),
}


class NotClifford(ValueError):
    """The circuit uses a gate the reference has no Clifford rule for."""


class Inconsistent(ValueError):
    """A generating set does not describe a valid stabilizer group."""


# --- rows ---------------------------------------------------------------------


def row_mul(a, b):
    """Product of two commuting Hermitian rows, with its exact sign."""
    x1, z1, s1 = a
    x2, z2, s2 = b
    y1, xo1, zo1 = x1 & z1, x1 & ~z1, z1 & ~x1
    y2, xo2, zo2 = x2 & z2, x2 & ~z2, z2 & ~x2
    # Per qubit, P1 P2 = i^g P3 with g = +1 for YZ, XY, ZX and -1 for
    # YX, XZ, ZY (the g function of Aaronson & Gottesman).
    plus = (y1 & zo2) | (xo1 & y2) | (zo1 & xo2)
    minus = (y1 & xo2) | (xo1 & zo2) | (zo1 & y2)
    k = (2 * s1 + 2 * s2 + plus.bit_count() - minus.bit_count()) % 4
    if k % 2:
        raise Inconsistent("product of anticommuting rows")
    return (x1 ^ x2, z1 ^ z2, k // 2)


def commute(a, b) -> bool:
    return ((a[0] & b[1]) ^ (a[1] & b[0])).bit_count() % 2 == 0


def row_text(row, n: int) -> str:
    x, z, neg = row
    letters = "".join(
        "IXZY"[((x >> q) & 1) | (((z >> q) & 1) << 1)] for q in range(n)
    )
    return ("-" if neg else "") + letters


def parse_row(text: str):
    """A Hermitian literal such as ``-XIZ`` as ``(n, row)``."""
    m = re.fullmatch(r"([+-]?)([IXYZ]+)", text.strip())
    if m is None:
        raise ValueError(f"not a Hermitian Pauli literal: {text!r}")
    x = z = 0
    for q, ch in enumerate(m.group(2)):
        if ch in "XY":
            x |= 1 << q
        if ch in "ZY":
            z |= 1 << q
    return len(m.group(2)), (x, z, int(m.group(1) == "-"))


def single(letter: str, k: int, neg: int = 0):
    """``letter`` on qubit k (1-based), identity elsewhere."""
    bit = 1 << (k - 1)
    return (bit if letter in "XY" else 0, bit if letter in "ZY" else 0, neg)


# --- propagation --------------------------------------------------------------


def propagate(n: int, rows, gates):
    """Conjugate every row by the gate sequence ``[(name, wires), ...]``.

    Names are the primitives above; wires are 1-based.
    """
    m = len(rows)
    if m == 0:
        return []
    full = (1 << m) - 1
    cols = []
    for q in range(n):
        xq = zq = 0
        for i, (x, z, _) in enumerate(rows):
            xq |= ((x >> q) & 1) << i
            zq |= ((z >> q) & 1) << i
        cols.append((xq, zq))
    r = 0
    for i, row in enumerate(rows):
        r |= row[2] << i
    for name, wires in gates:
        try:
            _, rule = PRIMITIVES[name]
        except KeyError:
            raise NotClifford(name) from None
        r = rule(cols, r, full, *(w - 1 for w in wires))
    out = []
    for i in range(m):
        x = z = 0
        for q, (xq, zq) in enumerate(cols):
            x |= ((xq >> i) & 1) << q
            z |= ((zq >> i) & 1) << q
        out.append((x, z, (r >> i) & 1))
    return out


def tableau(n: int, gates):
    """Images of X_1..X_n followed by Z_1..Z_n."""
    rows = [single("X", k) for k in range(1, n + 1)]
    rows += [single("Z", k) for k in range(1, n + 1)]
    return propagate(n, rows, gates)


# --- groups -------------------------------------------------------------------


class Group:
    """A signed stabilizer group in reduced row-echelon form."""

    def __init__(self, n: int, rows=()):
        self.n = n
        self.basis: dict[int, tuple[int, int, int]] = {}
        for row in rows:
            self.add(row)

    def _vec(self, row) -> int:
        return row[0] | (row[1] << self.n)

    def _reduce(self, row):
        for p, b in self.basis.items():
            if (self._vec(row) >> p) & 1:
                row = row_mul(row, b)
        return row

    def add(self, row) -> None:
        row = self._reduce(row)
        v = self._vec(row)
        if v == 0:
            if row[2]:
                raise Inconsistent("the generated group contains -I")
            return
        p = v.bit_length() - 1
        for q, b in list(self.basis.items()):
            if (self._vec(b) >> p) & 1:
                self.basis[q] = row_mul(b, row)
        self.basis[p] = row

    def member(self, row):
        """True if +row is in the group, False if -row is, None if neither."""
        if not all(commute(row, b) for b in self.basis.values()):
            return None
        row = self._reduce(row)
        if self._vec(row):
            return None
        return not row[2]

    def canonical(self) -> tuple:
        return tuple(sorted((p, self.basis[p]) for p in self.basis))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def separable(self) -> list[int]:
        """Qubits k with some +-U_k (U in X, Y, Z) in the group."""
        return [
            k
            for k in range(1, self.n + 1)
            if any(self.member(single(u, k)) is not None for u in "XYZ")
        ]


def measure_z(n: int, rows, k: int, force_plus: bool = False):
    """Z-basis measurement of qubit k on the +1-outcome branch.

    Returns ``(rows, outcome)`` with outcome +1 or -1 when it is fixed by
    the state, or 0 when it is random (the +1 branch is then kept). With
    ``force_plus`` a fixed -1 outcome is overwritten with +Z_k by
    conjugating with X_k, which models a checker that ignores the sign
    of a determined outcome (valid for full-rank states).
    """
    bit = 1 << (k - 1)
    rows = list(rows)
    anti = [i for i, row in enumerate(rows) if row[0] & bit]
    if anti:
        p = anti[0]
        for i in anti[1:]:
            rows[i] = row_mul(rows[i], rows[p])
        rows[p] = single("Z", k)
        return rows, 0
    found = Group(n, rows).member(single("Z", k))
    if found is None:
        return rows + [single("Z", k)], 0
    if found:
        return rows, 1
    if force_plus:
        rows = [(x, z, s ^ ((z >> (k - 1)) & 1)) for x, z, s in rows]
    return rows, -1


def run_state(n: int, rows, instructions, force_plus: bool = False):
    """Transport ``rows`` through gates and ``("MEAS", (k,))`` entries.

    Returns ``(rows, outcomes)`` where outcomes lists ``(k, outcome)``
    for each measurement in order.
    """
    outcomes = []
    pending = []
    for name, wires in instructions:
        if name != "MEAS":
            pending.append((name, wires))
            continue
        rows = propagate(n, rows, pending)
        pending = []
        rows, outcome = measure_z(n, rows, wires[0], force_plus)
        outcomes.append((wires[0], outcome))
    return propagate(n, rows, pending), outcomes


# --- the type syntax --------------------------------------------------------


def parse_type(text: str):
    """Parse a printed type such as ``Z x (XX & ZZ) x -Y`` or ``TTT``.

    Returns ``(n, rows, factors, top)``: rows are the generators padded
    to the whole register, and factors lists ``(k, row)`` for every
    single-qubit component that stands alone.
    """
    n = 0
    rows, factors = [], []
    top = False
    for comp in text.split(" x "):
        comp = comp.strip()
        if comp.startswith("(") and comp.endswith(")"):
            comp = comp[1:-1]
        width = None
        comp_rows = []
        for lit in comp.split("&"):
            lit = lit.strip()
            if lit and set(lit) == {"T"}:
                w, row, top = len(lit), None, True
            else:
                w, row = parse_row(lit)
            if width not in (None, w):
                raise ValueError(f"mixed widths in {comp!r}")
            width = w
            if row is not None:
                comp_rows.append((row[0] << n, row[1] << n, row[2]))
        if width == 1 and len(comp_rows) == 1 and (comp_rows[0][0] | comp_rows[0][1]):
            factors.append((n + 1, comp_rows[0]))
        rows += comp_rows
        n += width
    return n, rows, factors, top


# --- circuit files ----------------------------------------------------------

def parse_qc(source: str):
    """Parse ``.qc`` text into ``(n, input_text, gates, count)``.

    Derived gates from ``def`` lines are expanded into their bodies, so
    the gates name primitives (or a non-Clifford gate, which
    :func:`propagate` rejects); ``count`` is the number of instructions
    as written. ``input_text`` is None without an input line.
    """
    defs: dict[str, tuple[int, list]] = {}
    n = None
    input_text = None
    instructions = []
    count = 0
    for raw in source.splitlines():
        code = raw.split("--", 1)[0].strip()
        if not code:
            continue
        words = code.split()
        if n is None:
            if words[0] != "qubits":
                raise ValueError("missing qubits header")
            n = int(words[1])
            continue
        if words[0] == "input":
            input_text = code[len("input"):].strip()
            continue
        if words[0] == "def":
            head, body = code.split(":=", 1)
            _, name, *formals = head.split()
            steps = []
            for chunk in body.split(";"):
                gname, *args = chunk.split()
                steps.extend(_expand(defs, gname, [formals.index(a) + 1 for a in args]))
            defs[name] = (len(formals), steps)
            continue
        for chunk in code.split(";"):
            if chunk.strip():
                gname, *args = chunk.split()
                wires = [int(a) for a in args]
                count += 1
                if gname == "MEAS":
                    instructions.append(("MEAS", tuple(wires)))
                else:
                    instructions.extend(_expand(defs, gname, wires))
    return n, input_text, instructions, count


def _expand(defs, name, wires):
    if name not in defs:
        return [(name, tuple(wires))]
    _, steps = defs[name]
    return [(g, tuple(wires[w - 1] for w in ws)) for g, ws in steps]
