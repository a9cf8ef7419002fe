"""Binary-symplectic row algebra: canonical forms, membership, measurement.

A Top-free Pauli string of arity n is a row of 2n bits [x | z] plus an
exponent-of-i phase, which is exactly how ``PauliString`` stores it.
Multiplying strings is GF(2) addition of rows with an exact integer phase
correction, so group questions reduce to linear algebra: canonical forms
are row-reduced echelon forms under the column order x_1..x_n, z_1..z_n
(``_pivot``), group equality is row-by-row comparison of canonical forms,
and membership is pivot reduction.

Every Pauli string is read through its ``x``/``z`` masks and exponent
``k``, and every function here works on rows, with no knowledge of types.
The measurement rule ``_measured`` maps independent rows to independent
rows, so a state's rank is its row count. ``member`` reads a group's
canonical tableau, ``s.tableau``: the tuple of its reduced rows sorted by
pivot, each row's pivot read by ``_pivot``, which a ``StabType`` keeps
from construction, so it is never row-reduced again. No function
mutates its inputs or counts its own work: a row operation is one
``string_mul`` call, counted by wrapping that name.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import ArityError, IllFormedTypeError, TopOperandError
from .pauli import PauliString, from_bits, string_mul


_PHASE_TEXT = ("+1", "i", "-1", "-i")  # i**k in the messages of _echelon


def _pivot(g: PauliString) -> int:
    """The leading column of ``g`` (x_1..x_n, then z_1..z_n): its pivot,
    when ``g`` is a row of a reduced tableau."""
    return (g.x & -g.x).bit_length() - 1 if g.x else g.arity + (g.z & -g.z).bit_length() - 1


def _echelon(
    arity: int, rows: Sequence[PauliString], first: int = 1
) -> tuple[PauliString, ...]:
    """Full row reduction into the canonical tableau: its rows by pivot.

    Pivot order is ``_pivot``'s: x-bit columns 1..n, then z-bit columns.
    Each input row in turn is reduced at its leading column against the
    row kept there until it has a new pivot or vanishes; then each kept
    row, last pivot first, clears the other pivot bits it holds. Dependent
    and identity rows drop out. Raises IllFormedTypeError, before any
    reduction, naming the first input row of phase +-i (it squares to -I),
    and otherwise when a product of input rows is -I, naming the first
    input row to vanish with a phase and the kept rows it met. Products of
    commuting real-phase rows stay real, so no reduced row has phase +-i.
    Messages number the input rows from ``first``.
    """
    kept, origins = {}, {}  # pivot column -> row; its input rows, bit i for row i + 1

    def which(origin: int) -> str:
        bits = range(origin.bit_length())
        return ", ".join(str(i + first) for i in bits if origin >> i & 1)

    for i, row in enumerate(rows, start=first):
        if row.k % 2 == 1:
            raise IllFormedTypeError(
                f"group contains -identity: element built from generators"
                f" {i} has phase {_PHASE_TEXT[row.k]} and squares to -I"
            )
    for i, row in enumerate(rows):
        origin = 1 << i
        while row.x or row.z:
            col = _pivot(row)
            if col not in kept:
                kept[col], origins[col] = row, origin
                break
            row, origin = string_mul(kept[col], row), origin ^ origins[col]
        else:
            if row.k != 0:
                raise IllFormedTypeError(
                    f"group contains {_PHASE_TEXT[row.k]} * identity"
                    f" (product of generators {which(origin)})"
                )
    pivots = sum(1 << col for col in kept)
    for col in sorted(kept, reverse=True):
        row = kept[col]
        held = (row.x | row.z << arity) & pivots & ~(1 << col)
        while held:
            row = string_mul(kept[(held & -held).bit_length() - 1], row)
            held &= held - 1
        kept[col] = row
    return tuple(kept[col] for col in sorted(kept))


def member(s, p: PauliString) -> Optional[int]:
    """Membership with phase in the group of the StabType ``s``.

    If p's bit pattern lies in the row space, returns the exponent q
    (0..3) such that i**q * p is the exact group element; otherwise None.
    """
    if p.is_top:
        raise TopOperandError("Top strings are not group elements")
    if p.arity != s.arity:
        raise ArityError(f"arity {p.arity} does not match tableau arity {s.arity}")
    residual = from_bits(p.arity, p.x, p.z)
    acc = PauliString.identity(s.arity)
    for row in s.tableau:
        if (residual.x | residual.z << s.arity) >> _pivot(row) & 1:
            acc = string_mul(acc, row)
            residual = string_mul(row, residual)
    if residual.x or residual.z:
        return None
    return (acc.k - p.k) % 4


def _single_qubit_members(rows) -> tuple[tuple[int, PauliString], ...]:
    """All (k, U) with U a one-qubit string and U_k in the group, by k.

    Each is a lone row of the reduced tableau: a member on qubit k is the
    sum of the rows pivoting in x_k or z_k, and two such rows would be
    X_k*w and Z_k*w, which anticommute. Rows have phases +-1 only.
    """
    found = []
    for row in rows:
        if (row.x | row.z).bit_count() == 1:
            k = (row.x | row.z).bit_length()
            found.append((k, from_bits(1, row.x >> (k - 1), row.z >> (k - 1), row.k)))
    return tuple(sorted(found, key=lambda f: f[0]))


def _random_outcome(rows: Sequence[PauliString], k: int) -> Optional[list]:
    """Random Z_k outcome: the carriers, with an x-bit (X or Y) at k, anticommute
    with Z_k. Multiply the first into the others, drop it and adjoin +Z_k (the
    +1 branch; outcome signs are not modeled). Returns the new rows, made with
    O(n) string products; None if no row carries an x-bit at k."""
    bit = 1 << (k - 1)
    carriers = [i for i, r in enumerate(rows) if r.x & bit]
    if not carriers:
        return None
    rows = list(rows)
    pivot = rows.pop(carriers[0])
    for i in carriers[1:]:
        rows[i - 1] = string_mul(pivot, rows[i - 1])
    rows.append(from_bits(pivot.arity, 0, bit))
    return rows


def _measured(arity: int, rows: Sequence[PauliString], k: int) -> Sequence[PauliString]:
    """The +1 branch of a Z_k measurement, from independent rows to
    independent rows: the one measurement rule.

    A random outcome folds the carriers (``_random_outcome``), keeping the
    rank. Otherwise the outcome is determined when +-Z_k is in the group,
    and the state is left as it is, sign included. On a pure state, which
    has ``arity`` independent rows, it always is, so the rows come back as
    given. Otherwise the canonical rows come back if +-Z_k is a lone row of
    them (see ``_single_qubit_members``), and else those rows with +Z_k
    adjoined, independent but not reduced again: the caller reduces them.
    """
    folded = _random_outcome(rows, k)
    if folded is not None:
        return folded
    if len(rows) == arity:
        return rows
    bit = 1 << (k - 1)
    tab = _echelon(arity, rows)
    if any(r.z == bit and not r.x for r in tab):
        return tab
    return (*tab, from_bits(arity, 0, bit))
