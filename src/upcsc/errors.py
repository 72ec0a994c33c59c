"""Exception types shared across the package, and the field constructor and
field reader that the config classes share.

The CLI maps ConfigError to exit code 2 (usage/config problems) and every
other failure to exit code 1, so config validation must raise ConfigError
rather than a bare ValueError.
"""

import dataclasses
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
    """A data file, dataset or split is malformed, empty or otherwise unusable."""


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss term or gradient."""


def _read_int(value) -> int:
    return int(value) if isinstance(value, str) else operator.index(value)


def _read_float(value) -> float:
    # + 0.0 turns -0.0 into 0.0: numpy's samplers refuse -0.0 as a scale
    value = float(value) + 0.0
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


def bounded(default, *, least=None, above=None, below=None):
    """A config field whose value, or each of its items, must be >= least,
    > above and < below, where given; check_fields applies the bounds."""
    bounds = ((">=", operator.ge, least), (">", operator.gt, above), ("<", operator.lt, below))
    return dataclasses.field(default=default, metadata={
        "bounds": tuple((sign, holds, b) for sign, holds, b in bounds if b is not None)})


def check_fields(config) -> None:
    """Read each int, float and tuple[int, ...] field of a frozen config
    dataclass by its annotation, from a config-file string or a Python value,
    and hold it to the field's bounds; a value that does not fit raises
    ConfigError naming the field."""
    hints = typing.get_type_hints(type(config))
    for field in dataclasses.fields(config):
        if hints[field.name] not in _READERS:
            continue
        read, expected = _READERS[hints[field.name]]
        bounds = field.metadata.get("bounds", ())
        value = getattr(config, field.name)
        try:
            got = read(value)
            items = got if isinstance(got, tuple) else (got,)
            if not all(holds(item, bound) for item in items for _, holds, bound in bounds):
                raise ValueError(value)
        except (TypeError, ValueError, OverflowError) as exc:
            rule = " and ".join(f"{sign} {bound:g}" for sign, _, bound in bounds)
            raise ConfigError(f"{field.name!r} must be {expected} {rule}".rstrip()
                              + f", got {value!r}") from exc
        object.__setattr__(config, field.name, got)
