"""Exception types shared across the package, and the field reader that
the config classes share.

The CLI maps ConfigError to exit code 2 (usage/config problems) and every
other failure to exit code 1, so config validation must raise ConfigError
rather than a bare ValueError.
"""

import math
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


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss term or gradient."""


def _read_int(value) -> int:
    return int(value) if isinstance(value, str) else operator.index(value)


def _read_float(value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def _read_ints(value) -> tuple[int, ...]:
    parts = [p for p in value.split(",") if p.strip()] if isinstance(value, str) else value
    return tuple(map(_read_int, parts))


# field annotation -> (reader, what the value must be); numpy integers are
# integers, and a tuple is comma-separated in a string
_READERS = {int: (_read_int, "an integer"), float: (_read_float, "a finite number"),
            tuple[int, ...]: (_read_ints, "comma-separated integers")}


def check_fields(config) -> None:
    """Read each int, float and tuple[int, ...] field of a frozen config
    dataclass by its annotation, from a config-file string or a Python value;
    a value that does not fit raises ConfigError naming the field."""
    for name, kind in typing.get_type_hints(type(config)).items():
        if kind not in _READERS:
            continue
        read, expected = _READERS[kind]
        value = getattr(config, name)
        try:
            object.__setattr__(config, name, read(value))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name!r} must be {expected}, got {value!r}") from exc
