"""Whole-circuit type inference.

Two views of the same transport, ``gates._transport``: ``infer_tableau``
gives a circuit's conjugation action on every X_k/Z_k generator (the gate
view), while ``check`` threads the generators of a state type through the
instruction sequence, applies each measurement as Gottesman's O(n)
generator update, and returns the final group as a ``QType``, whose
factored view gives separability (the state view). Both are pure;
transport is defined on generators and extends multiplicatively, so the
arrow rules for products, phases and sequencing hold by construction.
"""

from __future__ import annotations

from typing import Union

from . import stabilizer
from .errors import ArityError, MeasurementError, TopOperandError, WireError
from .gates import GateApp, _transport, _unit_images
from .pauli import PauliString, _Frozen
from .typesys import QType, _unchecked


class Measure(_Frozen):
    """Z-basis measurement of one qubit (1-based)."""

    __slots__ = _fields = ("qubit",)

    def __init__(self, qubit: int) -> None:
        self._set_fields(qubit)

    def __str__(self) -> str:
        return f"MEAS {self.qubit}"


Instruction = Union[GateApp, Measure]


class Circuit(_Frozen):
    """A register size plus an ordered list of instructions."""

    __slots__ = _fields = ("n_qubits", "instructions")

    def __init__(self, n_qubits: int, instructions: tuple[Instruction, ...] = ()) -> None:
        self._set_fields(n_qubits, tuple(instructions))
        if self.n_qubits < 1:
            raise ArityError("a circuit needs at least one qubit")
        for pos, ins in enumerate(self.instructions, start=1):
            if isinstance(ins, Measure):
                if not 1 <= ins.qubit <= self.n_qubits:
                    raise WireError(
                        f"instruction {pos}: qubit {ins.qubit} out of range"
                        f" for {self.n_qubits} qubits"
                    )
            else:
                for w in ins.wires:
                    if w > self.n_qubits:
                        raise WireError(
                            f"instruction {pos}: wire {w} out of range"
                            f" for {self.n_qubits} qubits"
                        )

    @property
    def has_measurement(self) -> bool:
        return any(isinstance(ins, Measure) for ins in self.instructions)


def _circuit(n_qubits: int, instructions: tuple[Instruction, ...]) -> Circuit:
    """``Circuit(n_qubits, instructions)`` built without checks, as the
    ``.qc`` parser builds what it has checked.

    Not validated: ``n_qubits`` must be at least 1 and every wire and
    measured qubit at most ``n_qubits``.
    """
    c = object.__new__(Circuit)
    object.__setattr__(c, "n_qubits", n_qubits)
    object.__setattr__(c, "instructions", instructions)
    return c


class Tableau(_Frozen):
    """Images of every X_k and Z_k generator under a circuit."""

    __slots__ = _fields = ("n_qubits", "x_images", "z_images")

    def __init__(
        self,
        n_qubits: int,
        x_images: tuple[PauliString, ...],
        z_images: tuple[PauliString, ...],
    ) -> None:
        self._set_fields(n_qubits, x_images, z_images)


def infer_tableau(circuit: Circuit) -> Tableau:
    """Conjugation images of all 2n generators; measurement-free only."""
    if circuit.has_measurement:
        raise MeasurementError("tableau inference needs a measurement-free circuit")
    n = circuit.n_qubits
    return Tableau(n, *_unit_images(n, circuit.instructions))


def _states(circuit: Circuit, input_type: QType, measure):
    """Yield the generators (or None once Top) before and after each
    instruction. ``measure(source, k)`` is the measurement rule: it maps a
    StabType built with ``_unchecked`` to a StabType of the new generators."""
    if input_type.arity != circuit.n_qubits:
        raise ArityError(
            f"input arity {input_type.arity} does not match"
            f" {circuit.n_qubits}-qubit circuit"
        )
    cur = None if input_type.top else list(input_type.stab.generators)
    yield cur
    for ins in circuit.instructions:
        if isinstance(ins, Measure):
            if cur is None:
                raise TopOperandError("cannot measure a Top-typed register")
            # An input, its Clifford transport or a measure result: trusted.
            source = _unchecked(circuit.n_qubits, tuple(cur))
            cur = list(measure(source, ins.qubit).generators)
        elif cur is not None:
            cur = _transport((ins,), cur)
            # Only a gate with Top images can make a string Top.
            if not ins.gate.is_clifford and any(g.is_top for g in cur):
                cur = None
        yield cur


def check(circuit: Circuit, input_type: QType) -> QType:
    """Transport a state type through the circuit, factored for output."""
    n = circuit.n_qubits
    pure = not input_type.top and len(input_type.stab.tableau) == n

    def measure(source, k: int):
        """O(n) string products: a random outcome folds the carriers, keeping
        the rank. On a pure state (rank n) a determined one keeps the generators,
        as +-Z_k is in the group; a mixed state takes ``stabilizer.measure``,
        whose rows are independent and so give the new rank."""
        nonlocal pure
        folded = stabilizer._random_outcome(source.generators, k)
        if folded is not None:
            return _unchecked(n, tuple(folded))
        if not pure:
            source = stabilizer.measure(source, k)
            pure = len(source.generators) == n
        return source

    cur = None
    for cur in _states(circuit, input_type, measure):
        pass
    if cur is None:
        return QType.top_type(n)
    # Transport and measurement keep the input type well formed.
    tab = stabilizer._echelon(n, cur)
    return QType(n, _unchecked(n, tab, tab))


def annotate(circuit: Circuit, input_type: QType) -> list[QType]:
    """The intermediate type before the first and after every instruction.

    Entries print unfactored (the transported generators as they stand,
    formatted only when printed), which is the per-line shape a hand
    derivation produces; ``check`` prints the final state factored.
    A MEAS entry is canonical: it comes from ``stabilizer.measure``.
    Entries are transported from the validated input: built without checks,
    and row-reduced only if their tableau is asked for.
    """
    n = circuit.n_qubits
    out = []
    for state in _states(circuit, input_type, stabilizer.measure):
        if state is None:
            out.append(QType.top_type(n))
        else:
            stab = _unchecked(n, tuple(state))
            out.append(QType(n, stab, stab))
    return out
