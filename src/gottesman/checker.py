"""Whole-circuit type inference.

Two views of the same transport, ``gates._transport``: ``infer_tableau``
gives a circuit's conjugation action on every X_k/Z_k generator (the gate
view), while ``check`` threads the rows of a state type through the
instruction sequence, measures by the one rule, ``stabilizer._measured``,
and returns the final group as a ``QType``, whose factored view gives
separability (the state view). ``check`` hands ``_transport`` each run
of Clifford gates between measurements at once (a run also ends after a
non-Clifford gate, where the rows may turn Top). The run is the
transposition unit: ``_transport`` carries each row through the whole
run before the next, and a column-major body would transpose it in and
out once. ``annotate`` steps through one instruction at a time and
canonicalises each measured state. None has side effects; transport is
defined on generators and extends multiplicatively, so the arrow rules
for products, phases and sequencing hold by construction.
"""

from __future__ import annotations

from typing import Union

from . import stabilizer
from .errors import ArityError, MeasurementError, TopOperandError, WireError
from .gates import GateApp, _built_table, _table, _transport, _unit_images
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

    def __reduce__(self) -> tuple:
        # One leaves-first table of every distinct gate, each gate step as
        # ``(row of its gate, wires)``: a gate shared by many defs and steps
        # is written once, and a deep chain of defs takes no recursion.
        gates = {id(ins.gate): ins.gate for ins in self.instructions if ins.__class__ is GateApp}
        table, index = _table(*gates.values())
        steps = tuple(
            (index[id(ins.gate)], ins.wires) if ins.__class__ is GateApp else ins
            for ins in self.instructions
        )
        return _circuit_from_table, (self.n_qubits, table, steps)

    def __copy__(self) -> Circuit:
        # A shallow copy shares the instructions, as the fields' copy did.
        return _circuit(self.n_qubits, self.instructions)


def _circuit_from_table(n_qubits: int, table: list, steps: tuple) -> Circuit:
    """The circuit that ``Circuit.__reduce__`` wrote: unpickling."""
    built = _built_table(table)
    return Circuit(
        n_qubits,
        tuple(GateApp(built[ins[0]], ins[1]) if ins.__class__ is tuple else ins for ins in steps),
    )


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


def _states(circuit: Circuit, input_type: QType, rows, measure):
    """Yield ``rows``, those of ``input_type`` to carry (None for Top), then
    the rows after each step of ``circuit.instructions``: a MEAS, which
    ``measure(arity, rows, k)``, as ``stabilizer._measured``, measures; a
    gate; or a run of gates, a tuple, which ``_transport`` carries the rows
    through at once."""
    if input_type.arity != circuit.n_qubits:
        raise ArityError(
            f"input arity {input_type.arity} does not match"
            f" {circuit.n_qubits}-qubit circuit"
        )
    yield rows
    for step in circuit.instructions:
        if step.__class__ is Measure:
            if rows is None:
                raise TopOperandError("cannot measure a Top-typed register")
            rows = measure(circuit.n_qubits, rows, step.qubit)
        elif rows is not None:
            if step.__class__ is GateApp:
                step = (step,)
            rows = _transport(step, rows)
            # Only a gate with Top images can make a string Top, and one ends a run.
            if not step[-1].gate.is_clifford and any(g.is_top for g in rows):
                rows = None
        yield rows


def _runs(instructions) -> list:
    """The steps ``check`` takes: each MEAS, and the maximal runs of gates
    between them, each cut after a non-Clifford gate, where the rows may
    turn Top. A run is a tuple of gates."""
    steps, run = [], []
    for ins in instructions:
        if ins.__class__ is Measure:
            if run:
                steps.append(tuple(run))
                run = []
            steps.append(ins)
        else:
            run.append(ins)
            if not ins.gate.is_clifford:
                steps.append(tuple(run))
                run = []
    if run:
        steps.append(tuple(run))
    return steps


def check(circuit: Circuit, input_type: QType) -> QType:
    """Transport a state type through the circuit, factored for output.
    It carries the input's canonical rows, which ``stabilizer._measured``
    keeps independent, so a state's rank is its row count. Each run of
    Clifford gates between measurements goes through ``_transport`` at once."""
    n = circuit.n_qubits
    rows = None if input_type.top else input_type.stab.tableau
    steps = _circuit(n, tuple(_runs(circuit.instructions)))
    for rows in _states(steps, input_type, rows, stabilizer._measured):
        pass
    if rows is None:
        return QType.top_type(n)
    # Transport and measurement keep the input type well formed.
    tab = stabilizer._echelon(n, rows)
    return QType(n, _unchecked(n, tab, tab))


def annotate(circuit: Circuit, input_type: QType) -> list[QType]:
    """The intermediate type before the first and after every instruction.

    Entries print unfactored (the transported generators as they stand,
    formatted only when printed), which is the per-line shape a hand
    derivation produces; ``check`` prints the final state factored.
    A MEAS entry is canonical: the measured rows, row-reduced once.
    Entries are transported from the validated input: built without checks,
    and row-reduced only if their tableau is asked for.
    """
    n = circuit.n_qubits
    rows = None if input_type.top else input_type.stab.generators
    # ``stabilizer._measured`` needs independent rows. A measured state's
    # are, and so are the written generators unless they outnumber the
    # tableau's rows: then the first MEAS, which finds as many rows as were
    # written, row-reduces them once. (A later state with as many rows is
    # independent, and reducing it changes nothing.)
    written = 0 if rows is None or len(rows) == len(input_type.stab.tableau) else len(rows)

    def canonical(arity: int, rows, k: int):
        if len(rows) == written:
            rows = stabilizer._echelon(arity, rows)
        return stabilizer._echelon(arity, stabilizer._measured(arity, rows, k))

    out = []
    for state in _states(circuit, input_type, rows, canonical):
        if state is None:
            out.append(QType.top_type(n))
        else:
            stab = _unchecked(n, tuple(state))
            out.append(QType(n, stab, stab))
    return out
