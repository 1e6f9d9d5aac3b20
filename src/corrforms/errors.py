"""Exception types shared across the package.

Everything deriving from CorrformsError is a *mathematical* failure
(violated precondition, unsupported regime).  Malformed input documents
raise InputFormatError instead, so the CLI can map the two families to
different exit codes.
"""


class CorrformsError(Exception):
    """Base class for mathematical precondition and domain failures."""


class FieldMismatch(CorrformsError):
    """Operands live over different coefficient fields (or moduli)."""


class NotPLocalUnit(CorrformsError):
    """Rational is not a p-local unit: p divides its numerator or denominator."""


class WildInput(CorrformsError):
    """Characteristic-p squarefree decomposition rejected a p-th-power input."""


class InseparableMap(CorrformsError):
    """The map's derivative vanishes identically."""


class WildRamification(CorrformsError):
    """A ramification index is divisible by the characteristic."""

    def __init__(self, place, message=None):
        self.place = place
        super().__init__(message or f"wild ramification at {place}")


class NormalizationRequired(CorrformsError):
    """Operation needs polynomial maps; conjugate by a Mobius transform first."""


class UnsupportedEqualDegrees(CorrformsError):
    """Operation requires deg(sigma1) > deg(sigma2)."""


class NotSemiInvariant(CorrformsError):
    """The supplied form is not semi-invariant for the correspondence."""


class HypothesisNotMet(CorrformsError):
    """A degree hypothesis of the requested check fails."""


class UnsupportedCharacteristic(CorrformsError):
    """Operation is only defined in characteristic zero."""


class InputFormatError(ValueError):
    """Malformed input document, CLI value or sweep() work bound (exit code 2 territory)."""
