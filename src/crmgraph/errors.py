"""Exception types shared across the package."""


class CrmGraphError(Exception):
    """Base class for all package errors."""


class OutOfRegionError(CrmGraphError, ValueError):
    """(sigma, tau) outside the admissible GGP parameter region."""


class NonPositiveAlphaError(CrmGraphError, ValueError):
    pass


class DomainError(CrmGraphError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class NotInvertibleError(CrmGraphError, ValueError):
    """Requested tail-intensity level exceeds the total mass (finite activity)."""


class InconsistentStateError(CrmGraphError, ValueError):
    pass


class TooFewChainsError(CrmGraphError, ValueError):
    pass


class TooFewSamplesError(CrmGraphError, ValueError):
    pass


class ParseError(CrmGraphError, ValueError):
    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class EmptyGraphError(CrmGraphError, ValueError):
    pass


class SchemaError(CrmGraphError, ValueError):
    pass
