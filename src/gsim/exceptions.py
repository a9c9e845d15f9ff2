"""Exception types shared across the package."""


class GsimError(Exception):
    """Base class for package errors."""


class DimensionMismatch(GsimError, ValueError):
    """Operands act on different mode counts or incompatible shapes."""


class IllConditioned(GsimError, ArithmeticError):
    """A matrix solve exceeded the condition-number cutoff; result withheld."""


class ReferenceDegenerate(GsimError, ValueError):
    """A state's overlap with the phase reference is below the usable floor."""


class LeakageError(GsimError, ValueError):
    """Truncated Fock construction lost more amplitude than the tolerance."""


class InvariantViolation(GsimError, ValueError):
    """An internal self-consistency check failed; a numerical fault, not bad input."""
