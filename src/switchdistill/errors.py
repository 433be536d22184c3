"""Exception types shared across the package."""


class ShapeError(ValueError):
    """An array does not have the shape an operation requires."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class NumericError(ValueError):
    """A computation produced or received non-finite values."""


class FormatError(ValueError):
    """A data file does not conform to its binary or textual format."""


class ConfigError(ValueError):
    """A run configuration is missing, malformed, or inconsistent."""
