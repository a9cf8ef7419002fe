"""Exception hierarchy shared across the package."""


class GottesmanError(Exception):
    """Base class for all errors raised by this package."""


class ArityError(GottesmanError):
    """Operands have incompatible qubit counts."""


class TopOperandError(GottesmanError):
    """An operation was asked about a Top value it is undefined on."""


class WireError(GottesmanError):
    """A qubit or wire index is out of range or repeated."""


class IllFormedTypeError(GottesmanError):
    """A generating set fails the well-formedness conditions."""


class MeasurementError(GottesmanError):
    """A measurement appeared where only unitary instructions are allowed."""


class ParseError(GottesmanError):
    """Source text could not be parsed; carries a location when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(str(self))

    def __str__(self) -> str:
        where = ""
        if self.line is not None:
            where = f" at line {self.line}"
            if self.col is not None:
                where += f", col {self.col}"
        return f"{self.message}{where}"


class OracleError(GottesmanError):
    """The dense-matrix layer cannot run or found an inconsistency."""


class OracleUnavailableError(OracleError):
    """A claim's image under some gate is not one Pauli term, so exact
    propagation cannot decide it; this is not a refutation."""


class EmptyEigenspaceError(OracleError):
    """Eigenspace sampling found no joint +1 eigenstate."""
