"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, NumericError -> 3,
anything else derived from SetContrastError -> 1.
"""


class SetContrastError(Exception):
    """Base class for all package errors."""


class ShapeError(SetContrastError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(SetContrastError, ValueError):
    """An input violates a documented precondition (not a shape issue)."""


class EvaluationError(SetContrastError, ArithmeticError):
    """A computation produced NaN/Inf or was fed non-finite data."""


class DegenerateInputError(SetContrastError, ValueError):
    """Input is degenerate for the requested operation (e.g. zero row
    where a direction is needed)."""


class SizeGuardError(SetContrastError, ValueError):
    """A brute-force oracle was asked to enumerate beyond its size guard."""


class ConfigError(SetContrastError, ValueError):
    """Invalid experiment configuration or run specification."""


class NumericError(SetContrastError, ArithmeticError):
    """Training aborted on a non-finite loss or gradient, or a degenerate
    embedding."""
