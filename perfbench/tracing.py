"""Spans and counters recorded from outside the package under test.

The tracer wraps public functions of the package's modules for the
length of a traced pass and restores them afterwards. Every module of
the package that holds a reference to a wrapped function (``from .gates
import apply_gate`` binds a second name) gets the same wrapper, so a
call is recorded once whichever name it goes through.

A span records calls, inclusive time and self time (inclusive time less
the time of the spans it encloses). A counter records calls only; it is
used where a span would cost more than the function it measures.
Spans are aggregated per name in memory while the pass runs.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, span name); the package's public functions.
SPANS = (
    ("cli", "run", "cli.run"),
    ("cli", "parse", "cli.parse"),
    ("typesys", "parse_qtype", "typesys.parse_qtype"),
    ("checker", "check", "checker.check"),
    ("checker", "infer_tableau", "checker.infer_tableau"),
    ("gates", "apply_gate", "gates.apply_gate"),
    ("typesys", "normalize", "typesys.normalize"),
    ("typesys", "factor_separable", "typesys.factor_separable"),
    ("stabilizer", "canonicalize", "stabilizer.canonicalize"),
    ("stabilizer", "member", "stabilizer.member"),
    ("stabilizer", "measure_with_cost", "stabilizer.measure"),
    ("oracle", "unitary_of", "oracle.unitary_of"),
    ("oracle", "verify_conjugation", "oracle.verify_conjugation"),
    ("oracle", "transport_residual", "oracle.transport_residual"),
    ("oracle", "verify_separability", "oracle.verify_separability"),
)
COUNTERS = (
    ("pauli", "string_mul", "pauli.string_mul"),
    ("pauli", "commutes", "pauli.commutes"),
    ("gates", "derive_gate", "gates.derive_gate"),
)
# Constructors are wrapped on the class, so isinstance checks still hold.
CONSTRUCTORS = (("typesys", "StabType", "typesys.StabType"),)

PACKAGE = "gottesman"


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.row_ops = 0
        self.top_level = 0.0      # time covered by spans with no parent
        self._open: list[float] = []   # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        calls[name] = 0
        inclusive[name] = self_time[name] = 0.0
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                calls[name] += 1
                inclusive[name] += elapsed
                self_time[name] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed
                else:
                    self.top_level += elapsed

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _with_row_ops(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.row_ops += result[1]
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def _replace_everywhere(self, fn, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function; a missing one is left unrecorded."""
        modules = {m: sys.modules.get(f"{PACKAGE}.{m}") for m in
                   {spec[0] for spec in SPANS + COUNTERS + CONSTRUCTORS}}
        for mod, attr, name in SPANS:
            fn = getattr(modules[mod], attr, None)
            if fn is None:
                continue
            wrapper = self._span(name, fn)
            if name == "stabilizer.measure":
                wrapper = self._with_row_ops(wrapper)
            self._replace_everywhere(fn, wrapper)
        for mod, attr, name in COUNTERS:
            fn = getattr(modules[mod], attr, None)
            if fn is not None:
                self._replace_everywhere(fn, self._counter(name, fn))
        for mod, attr, name in CONSTRUCTORS:
            cls = getattr(modules[mod], attr, None)
            init = getattr(cls, "__dict__", {}).get("__init__")
            if init is not None:
                self._undo.append((cls, "__init__", init))
                cls.__init__ = self._span(name, init)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
