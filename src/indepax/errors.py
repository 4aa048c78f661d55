"""Exception types shared across the toolkit."""


class IndepaxError(Exception):
    """Base class for all toolkit errors."""


class ParseError(IndepaxError):
    """Malformed textual input (s-expression or JSON schema)."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class MalformedSentenceError(IndepaxError):
    """Arity mismatch, unknown relation, or unbound variable in a sentence."""


class SignatureMismatchError(IndepaxError):
    """Structures or sentences over incompatible signatures."""


class EnumerationOverflowError(IndepaxError):
    """Model enumeration exceeded the configured resource cap."""


class MaterializationRefusedError(IndepaxError):
    """Type formula requested for a structure above the size cap, or one
    whose literals would exceed the atom cap."""


class PreconditionError(IndepaxError):
    """An operation precondition failed (inconsistent theory, empty
    intersection, length mismatch, oversized input)."""


class PartitionInvalidError(IndepaxError):
    """Sentence partition check failed; carries the violation report."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"not a partition: {report}")


class NotApplicableError(IndepaxError):
    """A transform's applicability hypothesis failed; carries a certificate."""

    def __init__(self, message: str, certificate=None):
        self.certificate = certificate
        super().__init__(message)


class DuplicateTypeError(IndepaxError):
    """Separating-tree input contained duplicate types."""


class SeparationFailureError(IndepaxError):
    """No separating formula pair exists over the bounded space."""


class VerificationInternalError(IndepaxError):
    """A construction failed its own verification; indicates a bug."""
