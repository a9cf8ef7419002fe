"""Intersection and separability types over commuting Pauli strings.

A StabType is a finite generating set of commuting, Top-free Pauli strings
of one arity whose generated group avoids -I; its meaning is the joint
eigenspace structure of that group. A QType is a StabType with any
provably separable qubits peeled off into single-qubit factors. Both are
immutable and all operations are pure functions.

The textual syntax (shared with the circuit files) uses ``&`` for
intersection, ``x`` for the separability product, ``->`` for arrows, and
Pauli literals such as ``-iXZ``; see :func:`parse_qtype`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Sequence

from . import stabilizer
from .errors import ArityError, IllFormedTypeError, ParseError, TopOperandError
from .pauli import (
    _ATOM_OF_LETTER,
    _LETTERS,
    PauliAtom,
    PauliString,
    Phase,
    commutes,
    embed,
    from_bits,
)


@dataclass(frozen=True)
class StabType:
    """An intersection type: commuting Pauli generators of equal arity.

    Construction validates well-formedness and raises IllFormedTypeError
    otherwise; generators are kept as given (use :func:`normalize` for
    the canonical presentation), and ``tableau`` keeps their canonical
    form, which the -I check computes. An empty generating set is the
    fully unconstrained type over ``arity`` qubits.
    """

    arity: int
    generators: tuple[PauliString, ...] = ()
    tableau: stabilizer.CanonicalTableau = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
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
        object.__setattr__(self, "tableau", stabilizer._echelon(self.arity, gens)[0])

    def __getattr__(self, name: str):
        # Only ``tableau`` can be missing: ``_unchecked`` defers its row
        # reduction to the first use.
        if name != "tableau":
            raise AttributeError(name)
        tab = stabilizer._echelon(self.arity, self.generators)[0]
        object.__setattr__(self, "tableau", tab)
        return tab

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


def _unchecked(arity: int, generators: tuple[PauliString, ...]) -> StabType:
    """The StabType on ``generators``, built without checks; its canonical
    tableau is row-reduced on first use.

    Not validated: ``generators`` must be well formed, as the generators
    transported from a validated type in ``annotate`` are.
    """
    s = object.__new__(StabType)
    object.__setattr__(s, "arity", arity)
    object.__setattr__(s, "generators", generators)
    return s


def _from_tableau(tab: stabilizer.CanonicalTableau, generators=None) -> StabType:
    """The StabType with generators ``generators`` (default ``tab.rows``)
    and canonical tableau ``tab``, built without checks.

    Not validated: ``tab`` must be the canonical tableau of a well-formed
    type, as the results of normalize, measure, factoring and check are,
    and of ``generators`` when given, as of a parsed product's remainder.
    """
    s = _unchecked(tab.arity, tab.rows if generators is None else generators)
    object.__setattr__(s, "tableau", tab)
    return s


def normalize(s: StabType) -> StabType:
    """Canonical presentation: echelon-form generators, duplicates and
    identities removed, deterministic order."""
    return _from_tableau(s.tableau)


def intersect(s1: StabType, s2: StabType) -> StabType:
    """The intersection type: union of generators, normalized."""
    if s1.arity != s2.arity:
        raise ArityError(f"cannot intersect arity {s1.arity} with {s2.arity}")
    return normalize(StabType(s1.arity, s1.generators + s2.generators))


def type_equal(s1: StabType, s2: StabType) -> bool:
    """True iff both sets generate the same phased group."""
    if s1.arity != s2.arity:
        raise ArityError(f"cannot compare arity {s1.arity} with {s2.arity}")
    return s1.tableau.rows == s2.tableau.rows


@dataclass(frozen=True)
class QType:
    """A StabType with separable qubits factored into single-qubit bases.

    ``factors`` holds (qubit, phase, atom) triples with phase +-1 and atom
    in {X, Y, Z}; ``remainder`` covers exactly the qubits in
    ``remainder_support``. Factors and support together partition
    1..arity. ``top`` marks the whole-register Top type, which carries no
    other structure.
    """

    arity: int
    factors: tuple[tuple[int, Phase, PauliAtom], ...] = ()
    remainder: Optional[StabType] = None
    remainder_support: tuple[int, ...] = ()
    top: bool = False

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ArityError("a type needs at least one qubit")
        factors = tuple(sorted(self.factors, key=lambda f: f[0]))
        object.__setattr__(self, "factors", factors)
        support = tuple(self.remainder_support)
        object.__setattr__(self, "remainder_support", support)
        if self.top:
            if factors or support or self.remainder is not None:
                raise IllFormedTypeError("the Top type carries no structure")
            return
        seen: set[int] = set()
        for k in [k for k, _, _ in factors] + list(support):
            if not 1 <= k <= self.arity or k in seen:
                raise IllFormedTypeError(
                    f"qubit {k} repeated or out of range for {self.arity} qubits"
                )
            seen.add(k)
        for _, phase, atom in factors:
            if atom not in (PauliAtom.X, PauliAtom.Y, PauliAtom.Z):
                raise IllFormedTypeError(f"factor basis must be X, Y or Z, got {atom}")
            if not phase.is_real:
                raise IllFormedTypeError(f"factor phase must be +-1, got {phase}")
        if seen != set(range(1, self.arity + 1)):
            raise IllFormedTypeError("factors and remainder must cover every qubit")
        if support:
            if self.remainder is None or self.remainder.arity != len(support):
                raise ArityError("remainder arity must match its support")
        elif self.remainder is not None:
            raise ArityError("a remainder needs a support")

    @classmethod
    def top_type(cls, n: int) -> "QType":
        return cls(n, top=True)

    @classmethod
    def from_stab(cls, s: StabType) -> "QType":
        """Wrap a StabType unfactored (everything in the remainder)."""
        return cls(s.arity, (), s, tuple(range(1, s.arity + 1)))

    def __str__(self) -> str:
        if self.top:
            return "T" * self.arity
        support = self.remainder_support
        if support and support[-1] - support[0] + 1 != len(support):
            # A remainder with a gap cannot be placed by position alone;
            # the padded intersection form is unambiguous.
            return " & ".join(map(str, _flat_generators(self))) or "I" * self.arity
        parts: list[tuple[int, str]] = []
        for k, phase, atom in self.factors:
            parts.append((k, phase.prefix + atom.letter))
        if support:
            gens = self.remainder.generators
            if not gens:
                text = "I" * len(support)
            else:
                text = " & ".join(str(g) for g in gens)
                if len(gens) > 1 and self.factors:
                    text = f"({text})"
            parts.append((support[0], text))
        parts.sort()
        if not parts:
            return "I" * self.arity
        return " x ".join(text for _, text in parts)


def flatten(q: QType) -> StabType:
    """Re-embed factors and remainder into a single StabType."""
    if q.top:
        raise TopOperandError("the Top type has no generating set")
    return StabType(q.arity, _flat_generators(q))


def _flat_generators(q: QType) -> tuple[PauliString, ...]:
    """The generators ``flatten`` validates, unchecked: disjoint ±1 factors
    beside a validated remainder are well formed by construction."""
    gens = [embed(atom, phase, k, q.arity) for k, phase, atom in q.factors]
    if q.remainder is not None:
        support = q.remainder_support
        gens.extend(_pad(g, support, q.arity) for g in q.remainder.generators)
    return tuple(gens)


def _pad(g: PauliString, support: Sequence[int], n: int) -> PauliString:
    x = z = 0
    for j, pos in enumerate(support):
        x |= (g.x >> j & 1) << (pos - 1)
        z |= (g.z >> j & 1) << (pos - 1)
    return from_bits(n, x, z, g.k)


def _pivot(g: PauliString, m: int) -> int:
    """The leading column of ``g`` over m qubits (x_1..x_m, then z_1..z_m):
    its pivot, when ``g`` is a row of a reduced tableau."""
    return (g.x & -g.x).bit_length() - 1 if g.x else m + (g.z & -g.z).bit_length() - 1


def factor_separable(s: StabType) -> QType:
    """Peel every qubit witnessed separable by a single-qubit member.

    A qubit k separates exactly when some +-U_k lies in the generated
    group; that member is a lone row of the reduced tableau. Every other
    row is I at k: it is zero in the witness's pivot column and commutes
    with the witness. So the remainder is those rows on the unpeeled
    qubits, already reduced, and flattening the result generates the
    same group as ``s``.
    """
    n, tab = s.arity, s.tableau
    factors = stabilizer.single_qubit_members(tab)
    peeled = sum(1 << (k - 1) for k, _, _ in factors)
    support = tuple(o for o in range(1, n + 1) if not peeled >> (o - 1) & 1)
    if not support:
        return QType(n, factors, None, ())
    m = len(support)
    # A mask's binary numeral has qubit n first: keep the support's digits.
    keep = itemgetter(*(n - o for o in reversed(support)))

    def restrict(mask: int) -> int:
        return int("".join(keep(format(mask, f"0{n}b"))), 2)

    rest = tuple(
        from_bits(m, restrict(g.x), restrict(g.z), g.k)
        for g in tab.rows
        if not (g.x | g.z) & peeled
    )
    pivots = tuple(_pivot(g, m) for g in rest)
    remainder = _from_tableau(stabilizer.CanonicalTableau(m, rest, pivots))
    return QType(n, factors, remainder, support)


@dataclass(frozen=True)
class ArrowJudgment:
    """A circuit judgment ``input -> output`` over one register size."""

    input: QType
    output: QType

    def __post_init__(self) -> None:
        if self.input.arity != self.output.arity:
            raise ArityError("arrow input and output must have equal arity")

    def __str__(self) -> str:
        return f"{self.input} -> {self.output}"


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


class _TypeParser:
    """Checks each literal and each intersection once, where it is written;
    literals and products are built without a row reduction (see ``_merge``)."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[str]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def next(self) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of type expression")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want: str) -> None:
        tok, col = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, got {tok!r}", col=col)

    def parse(self) -> QType:
        q = self.product()
        if self.pos < len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise ParseError(f"unexpected {tok!r}", col=col)
        return q

    def product(self) -> QType:
        components = [self.component()]
        while self.peek() == "x":
            self.next()
            components.append(self.component())
        return _merge(components)

    def component(self) -> QType:
        units = [self.unit()]
        while self.peek() == "&":
            self.next()
            units.append(self.unit())
        if len(units) == 1:
            return units[0]
        return _intersect_units(units)

    def unit(self) -> QType:
        tok, col = self.next()
        if tok == "(":
            q = self.product()
            self.expect(")")
            return q
        try:
            lit = PauliString.parse(tok)
        except ValueError:
            raise ParseError(f"expected a Pauli literal, got {tok!r}", col=col) from None
        return _literal_qtype(lit)


def _qtype(arity: int, factors=(), remainder=None, support=()) -> QType:
    """``QType(arity, factors, remainder, support)`` built without checks.

    Not validated: ``factors`` must be sorted by qubit and, with the
    ascending ``support``, partition 1..arity, as the type parser builds them.
    """
    q = object.__new__(QType)
    object.__setattr__(q, "arity", arity)
    object.__setattr__(q, "factors", factors)
    object.__setattr__(q, "remainder", remainder)
    object.__setattr__(q, "remainder_support", support)
    object.__setattr__(q, "top", False)
    return q


def _literal_qtype(lit: PauliString) -> QType:
    if lit.is_top:
        return QType.top_type(lit.arity)
    if lit.k & 1 or lit.k and not lit.x | lit.z:
        StabType(lit.arity, (lit,))  # raises: -I is in the literal's group
    n, gens = lit.arity, ((lit,) if lit.x | lit.z else ())
    if n == 1 and gens:
        atom = _ATOM_OF_LETTER[_LETTERS[lit.x | lit.z << 1]]
        return _qtype(1, ((1, lit.phase, atom),))
    # One real-phased row is its own reduced tableau.
    tab = stabilizer.CanonicalTableau(n, gens, tuple(_pivot(g, n) for g in gens))
    return _qtype(n, (), _from_tableau(tab), tuple(range(1, n + 1)))


def _intersect_units(units: list[QType]) -> QType:
    gens: list[PauliString] = []
    arity = units[0].arity
    for u in units:
        if u.top:
            raise ParseError("Top cannot appear inside an intersection")
        if u.arity != arity:
            raise ParseError("mismatched arities in intersection")
        gens.extend(_flat_generators(u))
    # The one row reduction of a parsed intersection.
    remainder = StabType(arity, tuple(gens))
    return _qtype(arity, (), remainder, tuple(range(1, arity + 1)))


def _merge(components: list[QType]) -> QType:
    """The product of parsed components, on consecutive qubits.

    Groups on disjoint qubits need no check, and the union of their
    reduced tableaux, shifted onto the merged support and sorted by pivot,
    is already the reduced tableau of the product: no row reduction.
    """
    if len(components) == 1:
        return components[0]
    total = sum(c.arity for c in components)
    if any(c.top for c in components):
        return QType.top_type(total)
    factors: list[tuple[int, Phase, PauliAtom]] = []
    support: list[int] = []
    placed: list[tuple[StabType, int]] = []  # each remainder, and its shift
    offset = 0
    for comp in components:
        factors.extend((k + offset, phase, atom) for k, phase, atom in comp.factors)
        if comp.remainder is not None:
            placed.append((comp.remainder, len(support)))
            support.extend(p + offset for p in comp.remainder_support)
        offset += comp.arity
    if not support:
        return QType(total, tuple(factors), None, ())
    m = len(support)

    def shifted(g: PauliString, shift: int) -> PauliString:
        return from_bits(m, g.x << shift, g.z << shift, g.k)

    gens = tuple(shifted(g, shift) for rem, shift in placed for g in rem.generators)
    rows = sorted(
        (shifted(g, shift) for rem, shift in placed for g in rem.tableau.rows),
        key=lambda g: _pivot(g, m),
    )
    tab = stabilizer.CanonicalTableau(m, tuple(rows), tuple(_pivot(g, m) for g in rows))
    return QType(total, tuple(factors), _from_tableau(tab, gens), tuple(support))


def parse_qtype(text: str) -> QType:
    """Parse the type syntax, e.g. ``Z x (XX & ZZ)`` or ``-Y x Z``."""
    folded = text if text.isascii() else fold_unicode(text)
    try:
        return _TypeParser(folded).parse()
    except ParseError as err:
        if err.col is None or folded is text:
            raise
        raise ParseError(err.message, col=_unfolded_col(text, err.col)) from None
