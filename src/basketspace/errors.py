"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` used by the command-line layer:
2 for invalid input or parameters, 3 for unknown entities, 4 for data
inconsistencies, 1 for internal errors.
"""


class BasketspaceError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidParameterError(BasketspaceError):
    """A parameter or input value violates a documented precondition."""

    exit_code = 2


def at_least(what: str, value, low) -> None:
    """Refuse ``value`` below ``low`` with an :class:`InvalidParameterError`
    that names it as ``what``."""
    if value < low:
        raise InvalidParameterError(f"{what} must be >= {low}, got {value}")


class MalformedInputError(BasketspaceError):
    """An input file or stream does not follow its documented format."""

    exit_code = 2


class EmptyGraphError(BasketspaceError):
    """The co-occurrence graph has no edges, so nothing can be embedded."""

    exit_code = 2


class UnknownProductError(BasketspaceError):
    """A queried product code is not among the known codes."""

    exit_code = 3

    def __init__(self, code, suggestions=()):
        self.code = code
        self.suggestions = list(suggestions)
        msg = f"unknown product code {code!r}"
        if self.suggestions:
            msg += "; nearest known codes: " + ", ".join(self.suggestions)
        super().__init__(msg)


class DataInconsistencyError(BasketspaceError):
    """Two inputs that must agree (e.g. baskets and ground truth) do not."""

    exit_code = 4


class InternalConsistencyError(BasketspaceError):
    """An internal invariant was violated; indicates a bug."""

    exit_code = 1


class ConfigurationMismatchWarning(UserWarning):
    """An embedding space is used for a relation it was not configured for."""
