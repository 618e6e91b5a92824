"""Exception types shared across the package, mapped to CLI exit codes."""


class CoreselError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ConfigError(CoreselError):
    """Invalid configuration value or inconsistent hyperparameters (exit 2)."""

    exit_code = 2


class DomainError(CoreselError, ValueError):
    """An operation was called with arguments outside its contract (exit 2)."""

    exit_code = 2


class OrderingError(DomainError):
    """A score was recorded at a non-increasing step."""


class DataError(CoreselError):
    """Malformed or non-finite input data (exit 3)."""

    exit_code = 3


class FormatError(DataError):
    """A file does not match its on-disk format."""


class ResourceError(CoreselError):
    """A computation needs more memory than it could get (exit 4)."""

    exit_code = 4
