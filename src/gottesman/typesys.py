"""Intersection and separability types over commuting Pauli strings.

A StabType is a finite generating set of commuting, Top-free Pauli strings
of one arity whose generated group avoids -I; its meaning is the joint
eigenspace structure of that group. A QType is the state type of a
register: one StabType over all its qubits, or the whole-register Top.
A group is its canonical tableau, the tuple of its reduced rows
(``s.tableau``). Separability is a fact about that one group, so
``QType(n, s)`` is its factored view: the single-qubit factors and the
remainder on the other qubits, read off the rows on first use and cached.
``measure`` is the group-level face of the one measurement rule,
``stabilizer._measured``: it gives the measured group on canonical rows.
A parsed QType prints as written; every other one prints its factored
view. Both are immutable and all operations are pure functions.

The textual syntax (shared with the circuit files) uses ``&`` for
intersection, ``x`` for the separability product, ``->`` for arrows, and
Pauli literals such as ``-iXZ``; see :func:`parse_qtype`, which reads the
tokens in one pass with a stack of open parentheses, so any depth parses.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Optional

from . import stabilizer
from .errors import ArityError, IllFormedTypeError, ParseError, WireError
from .pauli import PauliString, _Frozen, commutes, from_bits


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

    Not validated: ``generators`` must be well formed, as the rows that
    ``check`` and ``annotate`` carry from a validated type are, and
    ``tableau``, when given, their canonical rows, as the results of
    measure, factoring and check are.
    """
    s = object.__new__(StabType)
    object.__setattr__(s, "arity", arity)
    object.__setattr__(s, "generators", generators)
    if tableau is not None:
        object.__setattr__(s, "tableau", tableau)
    return s


def measure(source: StabType, k: int) -> StabType:
    """Z-basis measurement of qubit k: ``stabilizer._measured`` on the
    tableau of ``source``, built on the result's canonical rows, which are
    that tableau when the state is left as it is, without checks."""
    arity, tab = source.arity, source.tableau
    if not 1 <= k <= arity:
        raise WireError(f"qubit {k} out of range for {arity} qubits")
    rows = stabilizer._measured(arity, tab, k)
    if rows != tab:
        tab = stabilizer._echelon(arity, rows)
    return _unchecked(arity, tab, tab)


class QType(_Frozen):
    """A state type: one StabType ``stab`` over all ``arity`` qubits, or the
    whole-register Top when ``stab`` is None.

    Which qubits separate is a fact about that group, not a second way to
    store it: ``factors``, ``remainder`` and ``remainder_support`` are a
    view read off the canonical tableau on first use, and cached (the
    remainder only when it is read), so ``QType(n, s)`` is the factored
    view of ``s``. ``factors`` holds
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
        """The factors, the remainder's support, the tableau's lone rows and
        its other rows, read off the tableau in one pass.

        A qubit k separates exactly when some +-U_k lies in the generated
        group; that member is a lone row of the reduced tableau. Every other
        row is I at k: it is zero in the witness's pivot column and commutes
        with the witness. So a row is lone exactly when it meets a peeled
        qubit, and the other rows, on the unpeeled qubits, give the remainder.
        """
        if self.stab is None:
            return (), (), [], []
        n, rows = self.arity, self.stab.tableau
        factors = stabilizer._single_qubit_members(rows)
        peeled = sum(1 << (k - 1) for k, _ in factors)
        support = tuple(o for o in range(1, n + 1) if not peeled >> (o - 1) & 1)
        lone, others = [], []
        for g in rows:
            (lone if (g.x | g.z) & peeled else others).append(g)
        return factors, support, lone, others

    @property
    def factors(self) -> tuple[tuple[int, PauliString], ...]:
        return self._view[0]

    @property
    def remainder_support(self) -> tuple[int, ...]:
        return self._view[1]

    @cached_property
    def remainder(self) -> Optional[StabType]:
        """The view's other rows on the support, built on first use: already
        reduced, as they keep their pivot order. Their masks are moved onto
        the support by a bit gather planned once: log2(n) masked shifts."""
        n, (_, support, _, others) = self.arity, self._view
        if not support:
            return None
        m, full, keep = len(support), (1 << n) - 1, sum(1 << (o - 1) for o in support)
        # Hacker's Delight 7-4 "compress", planned once: at step j a kept bit
        # moves right by 2**j when bit j of the count of peeled qubits below
        # it is set. Each step's movers are a prefix parity; idle steps drop.
        below, plan, shift = (full ^ keep) << 1 & full, [], 1
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

        rest = tuple(from_bits(m, restrict(g.x), restrict(g.z), g.k) for g in others)
        return _unchecked(m, rest, rest)

    def __str__(self) -> str:
        if self.stab is None:
            return "T" * self.arity
        if self.shown is not None:
            return str(self.shown)
        factors, support, lone, others = self._view
        if support and support[-1] - support[0] + 1 != len(support):
            # A remainder with a gap cannot be placed by position alone;
            # the intersection of the tableau rows is unambiguous: the lone
            # factor rows by qubit, then the others, in order.
            lone = sorted(lone, key=lambda g: g.x | g.z)
            return " & ".join(map(str, lone + others))
        parts = [(k, str(p)) for k, p in factors]
        if support:
            rest = self.remainder
            text = " & ".join(map(str, rest.generators)) or "I" * len(support)
            if len(rest.generators) > 1 and factors:
                text = f"({text})"
            parts.append((support[0], text))
        return " x ".join(text for _, text in sorted(parts))


# --- textual syntax ---------------------------------------------------------

# A token, or in the second group the character where none starts. The
# aliases ``∩ × − ⊤`` match where they are written; a ``⊗`` may sit inside
# a literal, its sign prefix or ``->``, and is skipped anywhere else. The
# aliases past Latin-1 stand in alternations, not in character classes: a
# class holding one compiles to a 64K-entry bitmap, at every import. (An
# alternation of single characters is merged back into a class, so each
# branch here is longer or, like ``[-−]``, merges into at most two runs.)
_TOKEN = re.compile(
    r"((?:-|−)⊗*>|[&x×()]|∩|(?:[+-]⊗*|−⊗*)?(?:i⊗*)?(?:[IXYZT]+|⊤)(?:[IXYZT]+|⊤|⊗)*)"
    r"|([^\s⊗])"
)
_ASCII = str.maketrans({"⊤": "T", "∩": "&", "×": "x", "−": "-", "⊗": None})


def _tokenize(text: str) -> list[tuple[str, int]]:
    """The tokens of ``text`` in ASCII, each with the column where it starts."""
    tokens = []
    for m in _TOKEN.finditer(text):
        tok = m.group(1)
        if tok is None:
            ch = m.group(2).translate(_ASCII)
            raise ParseError(f"unexpected character {ch!r}", col=m.start() + 1)
        if not tok.isascii():
            tok = tok.translate(_ASCII)
        tokens.append((tok, m.start() + 1))
    return tokens


def _literal(tok: str, col: int, index: int) -> tuple[int, Optional[StabType]]:
    """The arity and group (None for Top) of the literal ``tok``, checked
    as generator ``index`` of the type as written."""
    try:
        lit = PauliString.parse(tok)
    except ValueError:
        raise ParseError(f"expected a Pauli literal, got {tok!r}", col=col) from None
    n = lit.arity
    if lit.is_top:
        return n, None
    if lit.k & 1 or lit.k and not lit.x | lit.z:
        stabilizer._echelon(n, (lit,), first=index)  # raises: -I is in its group
    # One real-phased row is its own reduced tableau.
    tab = (lit,) if lit.x | lit.z else ()
    return n, _unchecked(n, tab, tab)


def _intersect(units: list) -> tuple[int, Optional[StabType]]:
    """A component's arity and group, from its units ``(arity, group,
    column)``: a lone unit's, or the one row reduction of their intersection."""
    if len(units) == 1:
        return units[0][:2]
    arity = units[0][0]
    for n, stab, col in units:
        if stab is None:
            raise ParseError("Top cannot appear inside an intersection", col=col)
        if n != arity:
            raise ParseError("mismatched arities in intersection", col=col)
    return arity, StabType(arity, tuple(g for _, s, _ in units for g in s.generators))


def _merge(components: list) -> tuple[int, Optional[StabType]]:
    """The arity and group of the product of parsed components, each
    ``(arity, group)``, on consecutive qubits.

    Groups on disjoint qubits need no check, and the union of their
    reduced tableaux, shifted into place, is already the reduced tableau of
    the product, with no row reduction: in pivot order, their rows with an
    x-bit pivot, then the others, each group after the one before it.
    """
    if len(components) == 1:
        return components[0]
    total = sum(n for n, _ in components)
    if any(stab is None for _, stab in components):
        return total, None

    def shifted(strings, offset: int) -> list[PauliString]:
        return [from_bits(total, g.x << offset, g.z << offset, g.k) for g in strings]

    gens, x_rows, z_rows, offset = [], [], [], 0
    for n, stab in components:
        placed = shifted(stab.tableau, offset)
        x_rows += [g for g in placed if g.x]
        z_rows += [g for g in placed if not g.x]
        same = stab.generators is stab.tableau  # as for each literal
        gens += placed if same else shifted(stab.generators, offset)
        offset += n
    return total, _unchecked(total, tuple(gens), tuple(x_rows + z_rows))


def parse_qtype(text: str) -> QType:
    """Parse the type syntax, e.g. ``Z x (XX & ZZ)`` or ``-Y x Z``.

    The aliases ``∩ × − ⊤`` read as ``& x - T`` and ``⊗`` as nothing; an
    error's column counts the characters as written. The type prints as
    written, rebuilt from its tokens: each literal as ``PauliString`` prints
    it, one space around ``x`` and ``&`` and none inside parentheses. A Top
    type prints as Top.

    One pass over the tokens, with a stack of the open parentheses, so any
    depth parses. Each literal is checked once per text and each
    intersection once, when it ends; faults come in text order, after the
    tokenizer's. Literals and products take no row reduction (see ``_merge``).
    """
    tokens = _tokenize(text)
    literals: dict[str, tuple] = {}  # token -> (arity, group), checked once
    opened = []  # per open parenthesis: its column, the enclosing components and units
    components, units, want_unit, written = [], [], True, 0
    for tok, col in (*tokens, ("", len(text) + 1)):  # the end, just past the text
        if want_unit:
            if tok == "(":
                opened.append((col, components, units))
                components, units = [], []
                continue
            if not tok:
                raise ParseError("unexpected end of type expression", col=col)
            written += 1  # each literal written is one generator
            part = literals.get(tok)
            if part is None:
                part = literals[tok] = _literal(tok, col, written)
            units.append((*part, col))
            want_unit = False
        elif tok == "&":
            want_unit = True
        else:
            components.append(_intersect(units))
            units = []
            if tok == "x":
                want_unit = True
            elif tok == ")" and opened:
                part = _merge(components)
                col, components, units = opened.pop()
                units.append((*part, col))
            elif opened:
                what = f"expected ')', got {tok!r}" if tok else "unexpected end of type expression"
                raise ParseError(what, col=col)
            elif tok:
                raise ParseError(f"unexpected {tok!r}", col=col)
    arity, stab = _merge(components)
    if stab is None:
        return QType(arity, None)
    # As written: each literal as printed, one space apart, none inside parentheses.
    printed = {tok: str(part[1]) for tok, part in literals.items()}
    text = " ".join(printed.get(tok, tok) for tok, _ in tokens)
    return QType(arity, stab, text.replace("( ", "(").replace(" )", ")"))
