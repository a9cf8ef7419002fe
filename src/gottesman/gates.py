"""Heisenberg semantics of gates: conjugation images of X_w and Z_w.

A GateSpec records, per wire, where the gate sends the X and Z generators
under conjugation. That fixes its action on every Pauli string: restrict
the string to the gate's wires, decompose the restriction into X/Z
generator factors in a fixed normal order (all X factors before all Z
factors, ascending wire, with the reordering phase computed exactly), map
each factor through its image, and splice the product back over the wires.

Each GateSpec keeps a table, ``_images``, of the images of its
4**arity restrictions, each filled on first use. ``apply_gate`` on a
string that is I on every wire of the gate (idle, most calls) costs a
range check and two mask tests and returns the string itself; on any
other (touched), ``_conjugate`` reads the bits on the wires, looks up
one entry and writes its bits back. So a gate costs work only where it
acts (Gottesman-Knill).

Non-Clifford gates carry all-Top images for the generators they cannot
track; any use of such an image collapses the result to the all-Top
string. The standard gate table is built once at first use; only its
``_images`` fill afterwards, unseen by callers, so ``apply_gate`` is pure.

``_transport`` is the one loop of gates over strings: ``derive_gate``,
``checker.infer_tableau`` (both on the unit strings of ``_units``) and
``checker.check`` carry their generators through it, one ``apply_gate``
call per string per gate, the unit that the benchmark's traced runs count.
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
    can rebuild their unitaries.
    """

    _fields = ("name", "arity", "x_images", "z_images", "decomposition")
    # Not compared or shown: the cache of local_image; the fields' hash, once,
    # as a derived gate's would recurse through its images and decomposition;
    # and whether no image is Top, which ``check`` reads for every gate.
    __slots__ = _fields + ("_images", "_hash", "is_clifford")

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

    def __hash__(self) -> int:
        return self._hash

    def local_image(self, index: int) -> Optional[tuple[int, int, int]]:
        """Image (x, z, k) of the restriction with x bits ``index & (2**arity - 1)``
        and z bits ``index >> arity`` (bit i for the gate's wire i + 1); None if Top.
        Computed and kept as ``_images[index]``, which ``_conjugate`` reads first."""
        xs, zs = index & ((1 << self.arity) - 1), index >> self.arity
        image = PauliString.identity(self.arity)
        for bits, images in ((xs, self.x_images), (zs, self.z_images)):
            for w in range(self.arity):
                if bits >> w & 1:
                    image = string_mul(image, images[w])
        # Splitting each Y of the restriction into X*Z costs a factor of i;
        # the normal order costs nothing more, as distinct wires commute.
        k = image.k + (xs & zs).bit_count()
        self._images[index] = None if image.is_top else (image.x, image.z, k)
        return self._images[index]


class GateApp(_Frozen):
    """A gate bound to distinct wires of some register (1-based)."""

    _fields = ("gate", "wires")
    # Not compared or shown: the bit offsets (wire - 1) and their union.
    __slots__ = _fields + ("_shifts", "_mask")

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
_set_gate, _set_wires, _set_shifts, _set_mask = [
    GateApp.__dict__[name].__set__ for name in ("gate", "wires", "_shifts", "_mask")
]


def _set_app(app: GateApp, gate: GateSpec, wires: tuple[int, ...]) -> None:
    shifts, mask = [], 0
    for w in wires:
        shifts.append(w - 1)
        mask |= 1 << w - 1
    _set_gate(app, gate)
    _set_wires(app, wires)
    _set_shifts(app, tuple(shifts))
    _set_mask(app, mask)


def apply_gate(app: GateApp, p: PauliString) -> PauliString:
    """Conjugate the string ``p`` by the gate at ``app.wires``.

    Positions off the gate's wires pass through untouched, and a ``p``
    that is I on all of them is returned itself. That covers an all-Top
    ``p`` too, as Top strings keep x = z = 0: it is returned itself. If
    the restriction needs an image the gate cannot provide (a Top image),
    the result is the all-Top string. An out-of-range wire raises
    WireError before the shortcut.
    """
    # Most calls are idle, so this frame holds only what the shortcut needs.
    mask = app._mask
    if mask >> p.arity:
        w = next(w for w in app.wires if w > p.arity)
        raise WireError(f"wire {w} out of range for {p.arity} qubits")
    if p.x & mask or p.z & mask:
        return _conjugate(app, p)
    return p


def _conjugate(app: GateApp, p: PauliString) -> PauliString:
    """``apply_gate`` on a string that is not I on every wire of the gate."""
    px, pz, shifts = p.x, p.z, app._shifts
    # The index reads and write-backs of one- and two-wire gates, unrolled.
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
    ix, iz, k = image
    mask = app._mask
    x, z = px ^ (px & mask), pz ^ (pz & mask)
    if len(shifts) == 1:
        x |= ix << s
        z |= iz << s
    elif len(shifts) == 2:
        x |= (ix & 1) << s | (ix >> 1) << t
        z |= (iz & 1) << s | (iz >> 1) << t
    else:
        for i, s in enumerate(shifts):
            x |= (ix >> i & 1) << s
            z |= (iz >> i & 1) << s
    return from_bits(p.arity, x, z, p.k + k)


def _transport(apps: Sequence[GateApp], strings: Sequence[PauliString]) -> list[PauliString]:
    """Conjugate each string through ``apps``, one gate at a time, with one
    ``apply_gate`` call per string per gate: the only loop of gates over strings.
    The result is a new list, copied only when ``apps`` is empty."""
    for app in apps:
        strings = [apply_gate(app, p) for p in strings]
    return strings if apps else list(strings)


def _units(n: int) -> list[tuple[str, PauliString]]:
    """X_1..X_n, then Z_1..Z_n, over n qubits, each with its label."""
    xs = [(f"X{k}", from_bits(n, 1 << (k - 1), 0)) for k in range(1, n + 1)]
    return xs + [(f"Z{k}", from_bits(n, 0, 1 << (k - 1))) for k in range(1, n + 1)]


def _unit_images(n: int, apps: Sequence[GateApp]) -> tuple[tuple[PauliString, ...], ...]:
    """The images of X_1..X_n and of Z_1..Z_n under ``apps``, as two tuples."""
    images = _transport(apps, [unit for _, unit in _units(n)])
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
