"""Exception types shared across the package."""


class DelPezzoError(Exception):
    """Base class for all package errors."""


class InvalidPointError(DelPezzoError):
    """Raised for degenerate input such as the all-zero vector."""


class NotInDomainError(DelPezzoError):
    """Input violates a precondition (not on the surface, not positive, not primitive)."""


class SizeCapError(DelPezzoError):
    """A bound exceeds the documented cap for the requested operation."""


class DataIntegrityError(DelPezzoError):
    """A hard-coded data table failed one of its consistency identities."""


class TorsorValidationError(DelPezzoError):
    """A 7-tuple failed the torsor membership conditions.

    ``failures`` lists the violated condition groups by name:
    ``"equation"``, ``"squarefree"``, ``"coprimality"``, ``"positivity"``,
    or ``"integrality"`` alone for a coordinate that is not an integer.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("torsor conditions violated: " + ", ".join(self.failures))
