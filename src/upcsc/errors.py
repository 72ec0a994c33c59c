"""Exception types shared across the package, and the integer check that
the config classes share.

The CLI maps ConfigError to exit code 2 (usage/config problems) and every
other failure to exit code 1, so config validation must raise ConfigError
rather than a bare ValueError.
"""

import operator
import typing


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


def check_int_fields(config) -> None:
    """Pass every int field of a frozen config dataclass, tuple elements
    included, through operator.index: numpy integers become ints, and a
    float or any other non-integer raises ConfigError naming the field."""
    for name, kind in typing.get_type_hints(type(config)).items():
        if kind not in (int, tuple[int, ...]):
            continue
        value = getattr(config, name)
        try:
            value = operator.index(value) if kind is int else tuple(map(operator.index, value))
        except TypeError as exc:
            raise ConfigError(f"{name} must be {'an integer' if kind is int else 'integers'}, "
                              f"got {value!r}") from exc
        object.__setattr__(config, name, value)
