"""Typed exceptions shared across the package.

All failure paths raise one of these; nothing here should ever surface
as a bare NaN or a silent wrong answer.
"""


class SubdiffError(Exception):
    """Base class for all package errors."""


class DomainError(SubdiffError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Gamma function evaluated at a non-positive integer."""


class EvaluationError(SubdiffError, RuntimeError):
    """A series/asymptotic evaluation could not certify its tolerance."""


class QuadratureError(SubdiffError, RuntimeError):
    """A quadrature failed or the integrand is not integrable."""


class SingularGramianError(SubdiffError, RuntimeError):
    """No control reaches G within ``verify_distance``: the Gramian is rank-deficient at this n."""


class InfeasibleError(SubdiffError, RuntimeError):
    """The terminal constraint is inconsistent with the discrete dynamics."""


class NonStrategicError(InfeasibleError):
    """The annihilator touches a dead mode while the free final state leaves the target.

    ``dead_modes`` lists the 1-based mode indices with (numerically)
    vanishing influence that carry a component of the polar basis.
    """

    def __init__(self, dead_modes, message=None):
        self.dead_modes = list(dead_modes)
        super().__init__(message or f"actuator is not strategic; dead modes {self.dead_modes}")


class ConfigError(SubdiffError, ValueError):
    """A configuration field failed validation.

    ``field`` names the offending entry.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
