"""Exception types shared across the package.

Design rule: exceptions signal refusals (budget, bad input, unmet
precondition).  Checks whose *failure would falsify a proved statement*
return report objects instead, so test suites can surface them as hard
failures with full context.
"""


class Lie2Error(Exception):
    """Base class for all package-specific errors."""


class AmbientMismatchError(Lie2Error):
    """Two objects live in vector spaces of different ambient dimension."""


class BudgetExceededError(Lie2Error):
    """An exhaustive enumeration was refused because it exceeds its budget."""


class FieldTooSmallError(Lie2Error):
    """A computation needs field elements that do not exist at this degree."""


class PreconditionError(Lie2Error):
    """A documented precondition of an operation does not hold."""


class SplitFailureError(Lie2Error):
    """The 2-nilpotent part of a Cartan subalgebra is not a complement.

    Signals a hypothesis violation: the subspace handed in was not the
    Cartan subalgebra of a restricted algebra, or the torus was not maximal.
    """


class NonToralBasisError(Lie2Error):
    """A root decomposition was attempted against a non-toral basis."""


class ContradictionError(Lie2Error):
    """A verified input violated a containment that is proved to hold.

    Raising this means either the input was corrupted after verification
    or there is a defect in the theory transcription; test suites treat
    it as a hard failure, and the command line exits 3.
    """


class FixtureError(Lie2Error):
    """Unknown fixture name or invalid fixture parameters."""


class FileFormatError(Lie2Error):
    """Malformed algebra file.  Carries the 1-based line number and a code.

    The line number is None when the file could not be read at all.
    """

    def __init__(self, lineno, code, message):
        where = "" if lineno is None else f"line {lineno}: "
        super().__init__(f"{where}{code}: {message}")
        self.lineno = lineno
        self.code = code
