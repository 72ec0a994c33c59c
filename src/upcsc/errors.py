"""Exception types shared across the package.

The CLI maps ConfigError to exit code 2 (usage/config problems) and every
other failure to exit code 1, so config validation must raise ConfigError
rather than a bare ValueError.
"""


class ShapeError(ValueError):
    """Operands have incompatible or unexpected shapes."""


class DegenerateInputError(ValueError):
    """Input is valid in shape but numerically degenerate (e.g. zero-norm row)."""


class ConfigError(ValueError):
    """A configuration value violates an invariant."""


class DataError(ValueError):
    """A dataset or split is empty or otherwise unusable."""


class UndefinedStatisticError(ValueError):
    """The requested statistic is undefined on this input (empty denominator)."""


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss term or gradient."""
