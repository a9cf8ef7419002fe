"""Exact Pauli-group algebra with phase tracking and a Top annihilator.

A PauliString on n qubits is packed into two n-bit Python ints ``x`` and
``z`` (bit j-1 for qubit j), an exponent ``k`` of i kept modulo 4, and a
Top flag. Position j holds X^x Z^z rescaled so that Y = i*X*Z exactly:
(x, z) = (0, 0) is I, (1, 0) X, (1, 1) Y, (0, 1) Z. This is the bitmask
layout of CHP (Aaronson & Gottesman, quant-ph/0406196) and Stim (Gidney,
arXiv:2103.02202): a product is an XOR of the masks with its phase read
off popcounts, and commutation is the parity of one popcount. Phases
never pass through floating point.

A T anywhere in a literal collapses the whole string to all-Top with
phase +1: a non-Pauli conjugate is not locally a Pauli, so per-qubit
claims or a phase would overstate what is known. Top strings keep
x = z = k = 0.

The masks and ``k`` are the one encoding; letters appear only in
:meth:`PauliString.parse` and in printing, which read the masks as
numerals in time linear in n. Parsing translates the letters to the
binary digits of each mask. Printing formats each mask in binary and
reads those digits as hex, so x + 2z adds digit by digit without
carries; the sum's hex digits 0-3, last qubit first, are reversed and
translated to IXZY. Power-of-two bases are exempt from Python's
``int_max_str_digits``, so this holds at any width. Strings are
immutable by convention (no operation mutates one) and safe to share
between threads.

``_Frozen`` is the slotted, immutable base of the package's value classes,
in place of frozen dataclasses: importing ``dataclasses`` costs more
start-up time than the whole package.
"""

from __future__ import annotations

import re

from .errors import ArityError, TopOperandError


class _Frozen:
    """An immutable value: ``_fields`` names its constructor's arguments in
    order, each kept in a slot. Equality (same class only), the hash and
    the ``Cls(field=value, ...)`` repr read them, and pickling and copying
    call the constructor on them. Assignment and deletion raise
    AttributeError: constructors set the fields with :meth:`_set_fields`,
    and other slots and unchecked builders use ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set_fields(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# A literal's phase prefix and its exponent of i; i**k prints as _PREFIXES[k].
_PREFIX_TO_K = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}
_PREFIXES = ("", "i", "-", "-i")
# The digit maps that turn a letter string (qubit 1 first) into the binary
# numeral of its x or z mask, and a hex digit x + 2z back into its letter.
_LETTERS = str.maketrans("0123", "IXZY")
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")

_LITERAL = re.compile(r"([+-]?i?)([IXYZT]+)\Z")


class PauliString:
    """A phased tensor of Paulis, e.g. -i(X@Z); arity is fixed at creation.

    ``PauliString(arity, x, z, k)`` is i**k times the atoms packed in the
    masks, checked; :func:`from_bits` builds the same without checks and
    :meth:`parse` reads a literal.
    """

    __slots__ = ("arity", "x", "z", "k", "is_top")

    def __init__(self, arity: int, x: int, z: int, k: int = 0) -> None:
        if arity < 1:
            raise ArityError("a Pauli string needs at least one qubit")
        if (x | z) >> arity:  # nonzero for a negative mask too
            raise ValueError(f"masks x={x}, z={z} do not fit in {arity} qubits")
        self.arity, self.x, self.z, self.k, self.is_top = arity, x, z, k & 3, False

    def _letters(self) -> str:
        if self.is_top:
            return "T" * self.arity
        # Binary numerals read as hex add digit by digit: x + 2z, no carries.
        digits = int(format(self.x, "b"), 16) + 2 * int(format(self.z, "b"), 16)
        return format(digits, f"0{self.arity}x")[::-1].translate(_LETTERS)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def top(cls, n: int) -> "PauliString":
        p = cls(n, 0, 0)
        p.is_top = True
        return p

    @classmethod
    def parse(cls, text: str) -> "PauliString":
        """Parse a literal like ``XX``, ``-iXZ`` or ``TT``.

        The optional prefix is one of ``+ - i -i``; atoms are one character
        per qubit from ``IXYZT``.
        """
        m = _LITERAL.match(text.strip())
        if m is None:
            raise ValueError(f"not a Pauli literal: {text!r}")
        prefix, letters = m.groups()
        n = len(letters)
        if "T" in letters:
            return cls.top(n)
        reverse = letters[::-1]  # the last qubit is the most significant digit
        x = int(reverse.translate(_X_DIGITS), 2)
        z = int(reverse.translate(_Z_DIGITS), 2)
        return from_bits(n, x, z, _PREFIX_TO_K[prefix])

    def _key(self) -> tuple:
        return (self.arity, self.x, self.z, self.k, self.is_top)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __mul__(self, other: "PauliString") -> "PauliString":
        return string_mul(self, other)

    def __neg__(self) -> "PauliString":
        if self.is_top:
            return self
        return from_bits(self.arity, self.x, self.z, self.k + 2)

    def __str__(self) -> str:
        return _PREFIXES[self.k] + self._letters()

    def __repr__(self) -> str:
        return f"PauliString.parse({str(self)!r})"


def from_bits(arity: int, x: int, z: int, k: int = 0) -> PauliString:
    """The Top-free string i**k times the atoms packed in ``x`` and ``z``.

    Not validated: ``x`` and ``z`` must be non-negative and fit in
    ``arity`` bits.
    """
    p = object.__new__(PauliString)
    p.arity = arity
    p.x = x
    p.z = z
    p.k = k & 3
    p.is_top = False
    return p


def string_mul(p: PauliString, q: PauliString) -> PauliString:
    """Pointwise product p*q with exact phase accumulation."""
    if p.arity != q.arity:
        raise ArityError(f"cannot multiply arity {p.arity} by arity {q.arity}")
    if p.is_top or q.is_top:
        return PauliString.top(p.arity)
    x1, z1, x2, z2 = p.x, p.z, q.x, q.z
    x, z = x1 ^ x2, z1 ^ z2
    # Per qubit, i^(xz) X^x Z^z times i^(x'z') X^x' Z^z' reorders Z^z past
    # X^x' at a cost of (-1)^(z x') and renormalises the Y count.
    k = (
        p.k
        + q.k
        + (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        + 2 * (z1 & x2).bit_count()
        - (x & z).bit_count()
    )
    return from_bits(p.arity, x, z, k)


def tensor(p: PauliString, q: PauliString) -> PauliString:
    """Concatenate two strings, multiplying their phases."""
    n = p.arity + q.arity
    if p.is_top or q.is_top:
        return PauliString.top(n)
    return from_bits(n, p.x | q.x << p.arity, p.z | q.z << p.arity, p.k + q.k)


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff p*q == q*p.

    Decided by the parity of positions whose atoms anticommute. Undefined
    for TOP operands, which have no commutation relations.
    """
    if p.is_top or q.is_top:
        raise TopOperandError("commutation is undefined for Top strings")
    if p.arity != q.arity:
        raise ArityError(f"cannot compare arity {p.arity} with arity {q.arity}")
    return not ((p.x & q.z) ^ (p.z & q.x)).bit_count() & 1
