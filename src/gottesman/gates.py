"""Heisenberg semantics of gates: conjugation images of X_w and Z_w.

A GateSpec records, per wire, where the gate sends the X and Z generators
under conjugation. That fixes its action on every Pauli string: restrict
the string to the gate's wires, decompose the restriction into X/Z
generator factors in a fixed normal order (all X factors before all Z
factors, ascending wire, with the reordering phase computed exactly), map
each factor through its image, and splice the product back over the wires.

Each GateSpec records which of its generators X_w and Z_w it moves (an
image other than the unit itself, phase included, or Top) and keeps a
table, ``_images``, of the bits each of its 4**arity restrictions flips
and the phase it gains, each filled on first use. A string whose
restriction uses no moved generator (I on every wire of the gate, most
calls, or fixed, such as Z on a CNOT's control and X on its target) is
its own image, as conjugation is a group automorphism: ``apply_gate``
costs a range check and two mask tests and returns it itself. On any
other (touched), ``_conjugate`` reads the bits on the wires, looks up
one entry and XORs its flips in. So a gate costs work only where it
moves something (Gottesman-Knill).

Non-Clifford gates carry all-Top images for the generators they cannot
track; any use of such an image collapses the result to the all-Top
string. The standard gate table is built once at first use; only its
``_images`` fill afterwards, unseen by callers, so ``apply_gate`` is pure.

``_transport`` is the one loop of gates over strings: ``derive_gate``,
``checker.infer_tableau`` (both on the unit strings of ``_units``) and
``checker.check`` (a run of gates between measurements at a time) carry
their generators through it, one ``apply_gate`` call per string per gate,
the unit that the benchmark's traced runs count. It is string-major (each
string through the whole run, then the next) and returns a new list.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import IllFormedTypeError, WireError
from .pauli import PauliString, _Frozen, commutes, from_bits, string_mul


class GateSpec(_Frozen):
    """A gate's arity plus the image of each X_w and Z_w generator.

    Clifford gates (no Top images) must preserve the commutation
    relations of the generators, which is checked at construction.
    Derived gates remember their decomposition so the dense-matrix layer
    can rebuild their unitaries. A chain of defs nests decompositions a
    thousand deep, so equality, repr and pickling walk them with a stack.
    """

    _fields = ("name", "arity", "x_images", "z_images", "decomposition")
    # Not compared or shown: the cache of local_image; the fields' hash, once,
    # as a derived gate's would recurse through its images and decomposition;
    # whether no image is Top, which ``check`` reads for every gate; per
    # wire, whether the gate moves X_w and Z_w, which ``_set_app`` spreads;
    # and the dense oracle's forms of the gate, kept as long as it lives.
    __slots__ = _fields + ("_images", "_hash", "is_clifford", "_moved", "_dense")

    def __init__(
        self,
        name: str,
        arity: int,
        x_images: tuple[PauliString, ...],
        z_images: tuple[PauliString, ...],
        decomposition: Optional[tuple["GateApp", ...]] = None,
    ) -> None:
        fields = (name, arity, x_images, z_images, decomposition)
        self._set_fields(*fields)
        object.__setattr__(self, "_images", {})
        object.__setattr__(self, "_dense", {})
        if self.arity < 1:
            raise IllFormedTypeError("gate arity must be at least 1")
        if len(self.x_images) != self.arity or len(self.z_images) != self.arity:
            raise IllFormedTypeError(f"{self.name}: need one X and one Z image per wire")
        images = list(self.x_images) + list(self.z_images)
        for img in images:
            if img.arity != self.arity:
                raise IllFormedTypeError(f"{self.name}: image arity mismatch")
        # Commutation preservation, skipping pairs with a Top side.
        for i in range(self.arity):
            xi, zi = self.x_images[i], self.z_images[i]
            if not xi.is_top and not zi.is_top and commutes(xi, zi):
                raise IllFormedTypeError(
                    f"{self.name}: images of X_{i + 1} and Z_{i + 1} must anticommute"
                )
        for i, a in enumerate(images):
            for j in range(i + 1, len(images)):
                b = images[j]
                if a.is_top or b.is_top:
                    continue
                if j == i + self.arity:
                    continue  # the X_w/Z_w pair on one wire, checked above
                if not commutes(a, b):
                    raise IllFormedTypeError(
                        f"{self.name}: generator images must commute pairwise"
                    )
        object.__setattr__(self, "_hash", hash(fields))
        object.__setattr__(self, "is_clifford", not any(img.is_top for img in images))
        moved = [img != unit for img, unit in zip(images, _units(self.arity))]
        moved_pairs = zip(moved[: self.arity], moved[self.arity :])
        object.__setattr__(self, "_moved", tuple(moved_pairs))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and _table(self)[0] == _table(other)[0]

    def __repr__(self) -> str:
        out, pieces = [], [self]  # text, and gates to write out, last first
        while pieces:
            item = pieces.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            out.append(
                f"{type(item).__qualname__}(name={item.name!r}, arity={item.arity!r},"
                f" x_images={item.x_images!r}, z_images={item.z_images!r}, decomposition="
            )
            steps = item.decomposition
            if steps is None:
                out.append("None)")
                continue
            written = ["("]
            for i, app in enumerate(steps):
                written += [", " * (i > 0) + "GateApp(gate=", app.gate, f", wires={app.wires!r})"]
            written.append(",))" if len(steps) == 1 else "))")
            pieces += reversed(written)
        return "".join(out)

    def __reduce__(self) -> tuple:
        return _from_table, (_table(self)[0],)

    def local_image(self, index: int) -> Optional[tuple[int, int, int]]:
        """The x and z bits that the image of the restriction with x bits
        ``index & (2**arity - 1)`` and z bits ``index >> arity`` (bit i for the
        gate's wire i + 1) flips, and its exponent k of i, as (dx, dz, k); None
        if Top. Computed and kept as ``_images[index]``, which ``_conjugate``
        reads first."""
        xs, zs = index & ((1 << self.arity) - 1), index >> self.arity
        image = PauliString.identity(self.arity)
        for bits, images in ((xs, self.x_images), (zs, self.z_images)):
            for w in range(self.arity):
                if bits >> w & 1:
                    image = string_mul(image, images[w])
        # Splitting each Y of the restriction into X*Z costs a factor of i;
        # the normal order costs nothing more, as distinct wires commute.
        k = image.k + (xs & zs).bit_count()
        self._images[index] = None if image.is_top else (image.x ^ xs, image.z ^ zs, k)
        return self._images[index]


class GateApp(_Frozen):
    """A gate bound to distinct wires of some register (1-based)."""

    _fields = ("gate", "wires")
    # Not compared or shown: the bit offsets (wire - 1); the x and z bits, on
    # the wires, of the generators the gate moves; and the largest wire.
    __slots__ = _fields + ("_shifts", "_xmask", "_zmask", "_last")

    def __init__(self, gate: GateSpec, wires: tuple[int, ...]) -> None:
        wires = tuple(wires)
        if len(wires) != gate.arity:
            raise WireError(f"{gate.name} needs {gate.arity} wires, got {len(wires)}")
        if len(set(wires)) != len(wires):
            raise WireError(f"{gate.name}: wires must be distinct, got {wires}")
        if any(w < 1 for w in wires):
            raise WireError(f"{gate.name}: wires are 1-based, got {wires}")
        _set_app(self, gate, wires)

    def __str__(self) -> str:
        return " ".join([self.gate.name, *map(str, self.wires)])


def _build_order(*specs: GateSpec) -> list[GateSpec]:
    """``specs`` and every gate in their decompositions, at any depth, once
    each and after the gates it is built from: walked with a stack, the last
    of ``specs`` first."""
    order, placed, stack = [], set(), list(specs)
    while stack:
        s = stack[-1]
        todo = [app.gate for app in s.decomposition or () if id(app.gate) not in placed]
        if todo:
            stack += todo
            continue
        stack.pop()
        if id(s) not in placed:
            placed.add(id(s))
            order.append(s)
    return order


def _table(*specs: GateSpec) -> tuple[list[tuple], dict[int, int]]:
    """``specs`` as one flat table, leaves first: a row per distinct gate
    value in them and their decompositions, at any depth, each row its
    fields with each step as ``(row of its gate, wires)``; and the row of
    each of those gates, by ``id``. Equal gates give equal tables, however
    their parts are shared, so equality compares these; a lone gate's row
    is the last."""
    rows, row_of, index = [], {}, {}  # row -> its number; id(gate) -> its row's number
    for g in _build_order(*specs):
        steps = g.decomposition and tuple((index[id(a.gate)], a.wires) for a in g.decomposition)
        row = (g.name, g.arity, g.x_images, g.z_images, steps)
        index[id(g)] = row_of.setdefault(row, len(rows))
        if index[id(g)] == len(rows):
            rows.append(row)
    return rows, index


def _built_table(table: list) -> list[GateSpec]:
    """The gates of a ``_table``'s rows, each built in turn: unpickling. A
    row of a standard gate gives a gate equal to it, not that gate itself."""
    built = []
    for name, arity, x_images, z_images, steps in table:
        if steps is not None:
            steps = tuple(GateApp(built[i], wires) for i, wires in steps)
        built.append(GateSpec(name, arity, x_images, z_images, steps))
    return built


def _from_table(table: list) -> GateSpec:
    """The last gate of a lone gate's ``_table``: unpickling a ``GateSpec``."""
    return _built_table(table)[-1]


def _app(gate: GateSpec, wires: tuple[int, ...]) -> GateApp:
    """``GateApp(gate, wires)`` built without checks, as a parser builds what
    it has checked.

    Not validated: ``wires`` must be a tuple of ``gate.arity`` distinct
    wires, each at least 1.
    """
    app = object.__new__(GateApp)
    _set_app(app, gate, wires)
    return app


# The slots' own setters, which pass by the AttributeError of _Frozen.__setattr__.
_set_gate, _set_wires, _set_shifts, _set_xmask, _set_zmask, _set_last = [
    GateApp.__dict__[name].__set__
    for name in ("gate", "wires", "_shifts", "_xmask", "_zmask", "_last")
]


def _set_app(app: GateApp, gate: GateSpec, wires: tuple[int, ...]) -> None:
    # The masks of one- and two-wire gates, unrolled as in ``_conjugate``.
    if len(wires) == 1:
        ((w,), ((moves_x, moves_z),)) = wires, gate._moved
        s = w - 1
        shifts, xmask, zmask, last = (s,), moves_x << s, moves_z << s, w
    elif len(wires) == 2:
        (v, w), ((vx, vz), (wx, wz)) = wires, gate._moved
        s, t = v - 1, w - 1
        shifts, xmask, zmask = (s, t), vx << s | wx << t, vz << s | wz << t
        last = v if v > w else w
    else:
        shifts, xmask, zmask = tuple(w - 1 for w in wires), 0, 0
        for s, (moves_x, moves_z) in zip(shifts, gate._moved):
            xmask |= moves_x << s
            zmask |= moves_z << s
        last = max(wires)
    _set_gate(app, gate)
    _set_wires(app, wires)
    _set_shifts(app, shifts)
    _set_xmask(app, xmask)
    _set_zmask(app, zmask)
    _set_last(app, last)


def apply_gate(app: GateApp, p: PauliString) -> PauliString:
    """Conjugate the string ``p`` by the gate at ``app.wires``.

    Positions off the gate's wires pass through untouched, and a ``p``
    whose restriction uses no generator the gate moves (I on every wire,
    or fixed, such as Z on a CNOT's control and X on its target) is
    returned itself. That covers an all-Top ``p`` too, as Top strings
    keep x = z = 0: it is returned itself. If the restriction needs an
    image the gate cannot provide (a Top image), the result is the all-Top
    string. An out-of-range wire raises WireError before the shortcut.
    """
    # Most calls move nothing, so this frame holds only what the shortcut needs.
    if app._last > p.arity:
        w = next(w for w in app.wires if w > p.arity)
        raise WireError(f"wire {w} out of range for {p.arity} qubits")
    if p.x & app._xmask or p.z & app._zmask:
        return _conjugate(app, p)
    return p


def _conjugate(app: GateApp, p: PauliString) -> PauliString:
    """``apply_gate`` on a string whose restriction uses a generator the gate moves."""
    px, pz, shifts = p.x, p.z, app._shifts
    # The index reads and flips of one- and two-wire gates, unrolled.
    if len(shifts) == 1:
        (s,) = shifts
        index = px >> s & 1 | (pz >> s & 1) << 1
    elif len(shifts) == 2:
        s, t = shifts
        index = (
            px >> s & 1 | (px >> t & 1) << 1 | (pz >> s & 1) << 2 | (pz >> t & 1) << 3
        )
    else:
        index = 0
        for i, s in enumerate(shifts):
            index |= (px >> s & 1) << i | (pz >> s & 1) << (len(shifts) + i)
    try:
        image = app.gate._images[index]
    except KeyError:
        image = app.gate.local_image(index)
    if image is None:
        return PauliString.top(p.arity)
    dx, dz, k = image
    if len(shifts) == 1:
        dx, dz = dx << s, dz << s
    elif len(shifts) == 2:
        dx = (dx & 1) << s | (dx >> 1) << t
        dz = (dz & 1) << s | (dz >> 1) << t
    else:
        dx, dz = (
            sum((d >> i & 1) << s for i, s in enumerate(shifts)) for d in (dx, dz)
        )
    return from_bits(p.arity, px ^ dx, pz ^ dz, p.k + k)


def _transport(apps: Sequence[GateApp], strings: Sequence[PauliString]) -> list[PauliString]:
    """Conjugate each string through ``apps``, with one ``apply_gate`` call per
    string per gate: the only loop of gates over strings. String-major: each
    string goes through every gate in order, and only its final image joins
    the result, which is always a new list. The first gate with a wire out
    of range raises its WireError on the first string."""
    out = []
    for p in strings:
        for app in apps:
            p = apply_gate(app, p)
        out.append(p)
    return out


def _units(n: int) -> list[PauliString]:
    """X_1..X_n, then Z_1..Z_n, over n qubits."""
    xs = [from_bits(n, 1 << k, 0) for k in range(n)]
    return xs + [from_bits(n, 0, 1 << k) for k in range(n)]


def _unit_images(n: int, apps: Sequence[GateApp]) -> tuple[tuple[PauliString, ...], ...]:
    """The images of X_1..X_n and of Z_1..Z_n under ``apps``, as two tuples."""
    images = _transport(apps, _units(n))
    return tuple(images[:n]), tuple(images[n:])


def derive_gate(name: str, arity: int, steps: Sequence[GateApp]) -> GateSpec:
    """Build a GateSpec from a decomposition over wires 1..arity."""
    steps = tuple(steps)
    return GateSpec(name, arity, *_unit_images(arity, steps), decomposition=steps)


def _lit(text: str) -> PauliString:
    return PauliString.parse(text)


@lru_cache(maxsize=1)
def standard_gates() -> Mapping[str, GateSpec]:
    """The built-in gate table, in listing order; built once, read-only.

    H, S, CNOT and T are primitive; everything else is derived from its
    decomposition, so the derived tables are computed, not transcribed.
    """
    h = GateSpec("H", 1, (_lit("Z"),), (_lit("X"),))
    s = GateSpec("S", 1, (_lit("Y"),), (_lit("Z"),))
    cnot = GateSpec(
        "CNOT", 2, (_lit("XX"), _lit("IX")), (_lit("ZI"), _lit("ZZ"))
    )
    t = GateSpec("T", 1, (PauliString.top(1),), (_lit("Z"),))

    def app1(gate: GateSpec) -> GateApp:
        return GateApp(gate, (1,))

    sdg = derive_gate("Sdg", 1, [app1(s)] * 3)
    tdg = derive_gate("Tdg", 1, [app1(t)] * 7)
    z = derive_gate("Z", 1, [app1(s), app1(s)])
    x = derive_gate("X", 1, [app1(h), app1(z), app1(h)])
    y = derive_gate("Y", 1, [app1(s), app1(z), app1(x), app1(s)])
    cz = derive_gate(
        "CZ", 2, [GateApp(h, (2,)), GateApp(cnot, (1, 2)), GateApp(h, (2,))]
    )
    notc = derive_gate("NOTC", 2, [GateApp(cnot, (2, 1))])
    swap = derive_gate(
        "SWAP",
        2,
        [GateApp(cnot, (1, 2)), GateApp(notc, (1, 2)), GateApp(cnot, (1, 2))],
    )
    a, b, c = 1, 2, 3
    toffoli = derive_gate(
        "TOFFOLI",
        3,
        [
            GateApp(h, (c,)),
            GateApp(cnot, (b, c)),
            GateApp(tdg, (c,)),
            GateApp(cnot, (a, c)),
            GateApp(t, (c,)),
            GateApp(cnot, (b, c)),
            GateApp(tdg, (c,)),
            GateApp(cnot, (a, c)),
            GateApp(t, (b,)),
            GateApp(t, (c,)),
            GateApp(h, (c,)),
            GateApp(cnot, (a, b)),
            GateApp(t, (a,)),
            GateApp(tdg, (b,)),
            GateApp(cnot, (a, b)),
        ],
    )
    table = [h, s, sdg, t, tdg, x, y, z, cnot, notc, cz, swap, toffoli]
    return MappingProxyType({g.name: g for g in table})
