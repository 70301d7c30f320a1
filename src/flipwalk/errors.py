"""Exception types shared across the package."""


class FlipwalkError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(FlipwalkError, ValueError):
    """A parameter is outside its documented domain."""


class EnumerationTooLargeError(FlipwalkError):
    """A size (an enumeration's, unless `quantity` names another) exceeds its cap."""

    def __init__(self, requested, cap, quantity="enumeration size"):
        super().__init__(f"{quantity} {requested} exceeds cap {cap}")
        self.requested = requested
        self.cap = cap


class LemmaViolationError(FlipwalkError):
    """An exact lemma-level check failed; carries the witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class StructureMismatchError(FlipwalkError):
    """A structural isomorphism claimed by the theory failed to verify."""


class NumericFailureError(FlipwalkError):
    """An iterative numeric routine failed to converge."""

