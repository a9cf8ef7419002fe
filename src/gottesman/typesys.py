"""Intersection and separability types over commuting Pauli strings.

A StabType is a finite generating set of commuting, Top-free Pauli strings
of one arity whose generated group avoids -I; its meaning is the joint
eigenspace structure of that group. A QType is the state type of a
register: one StabType over all its qubits, or the whole-register Top.
A group is its canonical tableau, the tuple of its reduced rows
(``s.tableau``). Separability is a fact about that one group, so
``QType(n, s)`` is its factored view: the single-qubit factors and the
remainder on the other qubits, read off the rows on first use and cached.
A parsed QType prints as written; every other one prints its factored
view. Both are immutable and all operations are pure functions.

The textual syntax (shared with the circuit files) uses ``&`` for
intersection, ``x`` for the separability product, ``->`` for arrows, and
Pauli literals such as ``-iXZ``; see :func:`parse_qtype`.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import NamedTuple, Optional

from . import stabilizer
from .errors import ArityError, IllFormedTypeError, ParseError
from .pauli import PauliString, _Frozen, commutes, from_bits
from .stabilizer import _reduced


class StabType(_Frozen):
    """An intersection type: commuting Pauli generators of equal arity.

    Construction validates well-formedness and raises IllFormedTypeError
    otherwise; generators are kept as given, and ``tableau`` keeps their
    canonical form, the tuple of reduced rows sorted by pivot (the
    canonical presentation), which the -I check computes. Equality and
    hashing are of the generated group, so ``XX & ZZ`` equals ``-YY & ZZ``.
    An empty generating set is the fully unconstrained type over ``arity``
    qubits.
    """

    _fields = ("arity", "generators")
    # ``tableau`` is not in the repr; the dict caches it.
    __slots__ = _fields + ("__dict__",)

    def __init__(self, arity: int, generators: tuple[PauliString, ...] = ()) -> None:
        gens = tuple(generators)
        self._set_fields(arity, gens)
        if self.arity < 1:
            raise ArityError("a type needs at least one qubit")
        for i, g in enumerate(gens, start=1):
            if g.is_top:
                raise IllFormedTypeError(
                    f"generator {i} is Top, which has no eigenspace to intersect"
                )
            if g.arity != self.arity:
                raise ArityError(
                    f"generator {i} has arity {g.arity}, expected {self.arity}"
                )
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if not commutes(gens[i], gens[j]):
                    raise IllFormedTypeError(
                        f"generators {i + 1} and {j + 1} anticommute:"
                        f" {gens[i]} vs {gens[j]}"
                    )
        # Rejects -I (and +-iI) in the generated group.
        object.__setattr__(self, "tableau", stabilizer._echelon(self.arity, gens))

    @cached_property
    def tableau(self) -> tuple[PauliString, ...]:
        # Set by ``__init__``; ``_unchecked`` may defer it to the first use.
        return stabilizer._echelon(self.arity, self.generators)

    def _key(self) -> tuple:
        # Compared and hashed as a group, not by its generators.
        return self.arity, self.tableau

    @classmethod
    def of(cls, *literals: str) -> "StabType":
        """Build from Pauli literals, e.g. ``StabType.of("XX", "ZZ")``."""
        gens = tuple(PauliString.parse(t) for t in literals)
        if not gens:
            raise ArityError("StabType.of needs at least one literal")
        return cls(gens[0].arity, gens)

    def __str__(self) -> str:
        if not self.generators:
            return "I" * self.arity
        return " & ".join(str(g) for g in self.generators)


def _unchecked(arity: int, generators: tuple[PauliString, ...], tableau=None) -> StabType:
    """The StabType on ``generators``, built without checks; its canonical
    tableau is ``tableau`` when given, else row-reduced on first use.

    Not validated: ``generators`` must be well formed, as the generators
    that ``check`` and ``annotate`` carry from a validated type are, and
    ``tableau``, when given, their canonical rows, as the results of
    measure, factoring and check are.
    """
    s = object.__new__(StabType)
    object.__setattr__(s, "arity", arity)
    object.__setattr__(s, "generators", generators)
    if tableau is not None:
        object.__setattr__(s, "tableau", tableau)
    return s


class QType(_Frozen):
    """A state type: one StabType ``stab`` over all ``arity`` qubits, or the
    whole-register Top when ``stab`` is None.

    Which qubits separate is a fact about that group, not a second way to
    store it: ``factors``, ``remainder`` and ``remainder_support`` are a
    view read off the canonical tableau on first use, and cached, so
    ``QType(n, s)`` is the factored view of ``s``. ``factors`` holds
    (qubit, one-qubit +-X/Y/Z string) pairs by qubit; ``remainder`` is the
    group on the other qubits, ``remainder_support``, or None when every
    qubit is a factor. Equality is equality of groups. A type prints
    ``str(shown)`` when ``shown`` is given (a parsed type's text, or the
    StabType whose generators an ``annotate`` entry shows), and its
    factored view otherwise.
    """

    _fields = ("arity", "stab")
    # ``shown`` is neither compared nor in the repr; the dict caches the view.
    __slots__ = _fields + ("shown", "__dict__")

    def __init__(self, arity: int, stab: Optional[StabType], shown: object = None) -> None:
        self._set_fields(arity, stab)
        object.__setattr__(self, "shown", shown)
        if self.arity < 1:
            raise ArityError("a type needs at least one qubit")
        if self.stab is not None and self.stab.arity != self.arity:
            raise ArityError(f"{self.arity}-qubit type of a {self.stab.arity}-qubit group")

    @classmethod
    def top_type(cls, n: int) -> "QType":
        return cls(n, None)

    @property
    def top(self) -> bool:
        return self.stab is None

    def __reduce__(self) -> tuple:
        return QType, (self.arity, self.stab, self.shown)

    @cached_property
    def _view(self) -> tuple:
        """The factored view, read off the tableau in one pass.

        A qubit k separates exactly when some +-U_k lies in the generated
        group; that member is a lone row of the reduced tableau. Every other
        row is I at k: it is zero in the witness's pivot column and commutes
        with the witness. So the remainder is those rows on the unpeeled
        qubits, already reduced. Their masks are moved onto the support by
        a bit gather planned once per view: log2(n) masked shifts, no text.
        """
        if self.stab is None:
            return (), None, ()
        n, rows = self.arity, self.stab.tableau
        factors = stabilizer._single_qubit_members(rows)
        peeled = sum(1 << (k - 1) for k, _ in factors)
        support = tuple(o for o in range(1, n + 1) if not peeled >> (o - 1) & 1)
        if not support:
            return factors, None, support
        m, full = len(support), (1 << n) - 1
        # Hacker's Delight 7-4 "compress", planned once: at step j a kept bit
        # moves right by 2**j when bit j of the count of peeled qubits below
        # it is set. Each step's movers are a prefix parity; idle steps drop.
        keep, below, plan, shift = full ^ peeled, peeled << 1 & full, [], 1
        while shift < n:
            parity, s = below, 1
            while s < n:
                parity, s = parity ^ parity << s, s << 1
            parity &= full
            moving = parity & keep
            keep, below = keep ^ moving | moving >> shift, below & ~parity
            if moving:
                plan.append((moving, shift))
            shift <<= 1

        def restrict(mask: int) -> int:
            for moving, s in plan:
                t = mask & moving
                mask = mask ^ t | t >> s
            return mask

        rest = _reduced(
            from_bits(m, restrict(g.x), restrict(g.z), g.k)
            for g in rows
            if not (g.x | g.z) & peeled
        )
        return factors, _unchecked(m, rest, rest), support

    @property
    def factors(self) -> tuple[tuple[int, PauliString], ...]:
        return self._view[0]

    @property
    def remainder(self) -> Optional[StabType]:
        return self._view[1]

    @property
    def remainder_support(self) -> tuple[int, ...]:
        return self._view[2]

    def __str__(self) -> str:
        if self.stab is None:
            return "T" * self.arity
        if self.shown is not None:
            return str(self.shown)
        factors, rest, support = self._view
        if support and support[-1] - support[0] + 1 != len(support):
            # A remainder with a gap cannot be placed by position alone;
            # the intersection of the tableau rows is unambiguous: the lone
            # factor rows by qubit, then the others, in order.
            rows = self.stab.tableau
            lone = [g for g in rows if (g.x | g.z).bit_count() == 1]
            others = [g for g in rows if (g.x | g.z).bit_count() > 1]
            lone.sort(key=lambda g: g.x | g.z)
            return " & ".join(map(str, lone + others))
        parts = [(k, str(p)) for k, p in factors]
        if support:
            text = " & ".join(map(str, rest.generators)) or "I" * len(support)
            if len(rest.generators) > 1 and factors:
                text = f"({text})"
            parts.append((support[0], text))
        return " x ".join(text for _, text in sorted(parts))


# --- textual syntax ---------------------------------------------------------

_UNICODE_FOLD = {"⊤": "T", "∩": "&", "×": "x", "−": "-", "⊗": ""}

# A token, or in the second group the character where none starts.
_TOKEN = re.compile(r"(->|&|x|\(|\)|[+-]?i?[IXYZT]+)|(\S)")


def fold_unicode(text: str) -> str:
    """Map the accepted unicode aliases onto the ASCII surface syntax."""
    for src, dst in _UNICODE_FOLD.items():
        text = text.replace(src, dst)
    return text


def _unfolded_col(text: str, col: int) -> int:
    """The column of ``text`` that holds column ``col`` of ``fold_unicode(text)``:
    an alias keeps its place, except that ``⊗`` folds to nothing."""
    for i, ch in enumerate(text, start=1):
        col -= len(_UNICODE_FOLD.get(ch, ch))
        if col <= 0:
            return i
    return len(text) + col


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastindex == 2:
            raise ParseError(f"unexpected character {m.group(2)!r}", col=m.start() + 1)
        tokens.append((m.group(1), m.start() + 1))
    return tokens


class _Part(NamedTuple):
    """A parsed unit, component or product: its group (None for Top), its
    text rebuilt from its tokens, and the column where it starts."""

    arity: int
    stab: Optional[StabType]
    text: str
    col: int


class _TypeParser:
    """Checks each literal and each intersection once, where it is written;
    literals and products are built without a row reduction (see ``_merge``)."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.end = len(text) + 1  # the column just past the text
        self.pos = 0
        self.literals: dict[str, _Part] = {}  # each checked once per text
        self.written = 0  # the literals read so far, each one generator

    def peek(self) -> Optional[str]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def next(self) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of type expression", col=self.end)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want: str) -> None:
        tok, col = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, got {tok!r}", col=col)

    def parse(self) -> QType:
        part = self.product()
        if self.pos < len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise ParseError(f"unexpected {tok!r}", col=col)
        return QType(part.arity, part.stab, None if part.stab is None else part.text)

    def product(self) -> _Part:
        components = [self.component()]
        while self.peek() == "x":
            self.next()
            components.append(self.component())
        return _merge(components) if len(components) > 1 else components[0]

    def component(self) -> _Part:
        units = [self.unit()]
        while self.peek() == "&":
            self.next()
            units.append(self.unit())
        return _intersect_units(units) if len(units) > 1 else units[0]

    def unit(self) -> _Part:
        tok, col = self.next()
        if tok == "(":
            part = self.product()
            self.expect(")")
            return _Part(part.arity, part.stab, f"({part.text})", col)
        self.written += 1
        part = self.literals.get(tok)
        if part is None:
            part = self.literals[tok] = _literal(tok, col, self.written)
        return _Part(part.arity, part.stab, part.text, col)


def _literal(tok: str, col: int, index: int) -> _Part:
    """The literal ``tok``, generator ``index`` of the type as written."""
    try:
        lit = PauliString.parse(tok)
    except ValueError:
        raise ParseError(f"expected a Pauli literal, got {tok!r}", col=col) from None
    n = lit.arity
    if lit.is_top:
        return _Part(n, None, str(lit), col)
    if lit.k & 1 or lit.k and not lit.x | lit.z:
        stabilizer._echelon(n, (lit,), first=index)  # raises: -I is in its group
    # One real-phased row is its own reduced tableau.
    tab = (lit,) if lit.x | lit.z else ()
    return _Part(n, _unchecked(n, tab, tab), str(lit), col)


def _intersect_units(units: list[_Part]) -> _Part:
    arity = units[0].arity
    for u in units:
        if u.stab is None:
            raise ParseError("Top cannot appear inside an intersection", col=u.col)
        if u.arity != arity:
            raise ParseError("mismatched arities in intersection", col=u.col)
    # The one row reduction of a parsed intersection.
    stab = StabType(arity, tuple(g for u in units for g in u.stab.generators))
    return _Part(arity, stab, " & ".join(u.text for u in units), units[0].col)


def _merge(components: list[_Part]) -> _Part:
    """The product of parsed components, on consecutive qubits.

    Groups on disjoint qubits need no check, and the union of their
    reduced tableaux, shifted into place and sorted by pivot, is already
    the reduced tableau of the product: no row reduction.
    """
    total = sum(c.arity for c in components)
    text = " x ".join(c.text for c in components)
    col = components[0].col
    if any(c.stab is None for c in components):
        return _Part(total, None, text, col)

    def shifted(strings, offset: int) -> list[PauliString]:
        return [from_bits(total, g.x << offset, g.z << offset, g.k) for g in strings]

    gens, rows, offset = [], [], 0
    for c in components:
        placed = shifted(c.stab.tableau, offset)
        rows += placed
        same = c.stab.generators is c.stab.tableau  # as for each literal
        gens += placed if same else shifted(c.stab.generators, offset)
        offset += c.arity
    return _Part(total, _unchecked(total, tuple(gens), _reduced(rows)), text, col)


def parse_qtype(text: str) -> QType:
    """Parse the type syntax, e.g. ``Z x (XX & ZZ)`` or ``-Y x Z``.

    The type prints as written, rebuilt from its tokens: unicode aliases
    folded, each literal as ``PauliString`` prints it, one space around
    ``x`` and ``&`` and none inside parentheses. A Top type prints as Top.
    """
    folded = text if text.isascii() else fold_unicode(text)
    try:
        return _TypeParser(folded).parse()
    except ParseError as err:
        if err.col is None or folded is text:
            raise
        raise ParseError(err.message, col=_unfolded_col(text, err.col)) from None
