"""Exception hierarchy for the C-Brain reproduction library.

Every error raised by this package derives from :class:`ReproError`, so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate configuration problems from modelling problems.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Collection, Optional


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ShapeError(ReproError):
    """A tensor/layer shape is inconsistent or impossible.

    Raised during shape inference (e.g. a kernel larger than its padded
    input) and by tiling transforms that receive incompatible geometry.
    """


class ConfigError(ReproError):
    """An accelerator or model configuration is invalid.

    Examples: non-positive PE width, a buffer of zero bytes, an unknown
    scheme name passed to a factory.
    """


class ScheduleError(ReproError):
    """A parallelization scheme cannot legally schedule the given layer.

    Example: kernel-partitioning requested for a layer whose stride is not
    smaller than its kernel (the transform would be degenerate).
    """


class CapacityError(ReproError):
    """A working set cannot be made to fit on-chip even after tiling."""


class CompileError(ReproError):
    """The macro-instruction compiler received an inconsistent plan."""


class SimulationError(ReproError):
    """The instruction-stream machine encountered an illegal program."""


# ---------------------------------------------------------------------------
# Input rules.  Every record and entry point checks its scalar inputs with
# one checker per rule (a count, a real, a named choice), so a rule (bools
# are not numbers, NaN is never in range, a count is an integer) is written
# once.  Each raises the caller's error class with "<field> must be <rule>,
# got <value>" ("unknown <field> <value>; choose from <choices>" for a
# choice, the wording the CLI and its tests have always used).

#: the types :func:`check_real` accepts without an ABC lookup
_REALS = (int, float)


def check_count(
    value: object,
    field: str,
    minimum: Optional[int] = 0,
    error: type = ConfigError,
) -> int:
    """Return ``value`` as a Python ``int`` if it is an integer (a NumPy
    integer too, never a bool) of at least ``minimum`` (``None``: any).

    Otherwise raise ``error`` naming ``field``.  Callers store the returned
    int, so a NumPy integer never reaches a record's JSON.
    """
    count = value
    if type(value) is not int:
        integral = isinstance(value, Integral) and not isinstance(value, bool)
        count = int(value) if integral else None
    if count is None or minimum is not None and count < minimum:
        rule = (
            "an int" if minimum is None
            else "a positive int" if minimum == 1
            else f"an int >= {minimum}"
        )
        raise error(f"{field} must be {rule}, got {value!r}")
    return count


def check_counts(
    record: object,
    *fields: str,
    minimum: Optional[int] = 0,
    error: type = ConfigError,
    owner: str = "",
) -> None:
    """:func:`check_count` each named field of ``record`` (a frozen
    dataclass too), storing the checked int back; ``owner`` prefixes the
    field name in the message."""
    for name in fields:
        value = getattr(record, name)
        if type(value) is not int or minimum is not None and value < minimum:
            object.__setattr__(
                record, name, check_count(value, owner + name, minimum, error)
            )


def _real_rule(gt, ge, lt, le, finite: bool) -> str:
    """The rule :func:`check_real` names: ``positive and finite``,
    ``finite and >= 1``, ``in (0, 1]``, ``a finite number`` and so on."""
    low = f"({gt}" if gt is not None else None if ge is None else f"[{ge}"
    high = f"{lt})" if lt is not None else None if le is None else f"{le}]"
    if low and high:
        return f"in {low}, {high}"
    if not high and gt == 0:
        return "positive and finite" if finite else "positive"
    for op, bound in ((">", gt), (">=", ge), ("<", lt), ("<=", le)):
        if bound is not None:
            return f"finite and {op} {bound}" if finite else f"{op} {bound}"
    return "a finite number" if finite else "a number"


def check_real(
    value: object,
    field: str,
    *,
    gt: Optional[float] = None,
    ge: Optional[float] = None,
    lt: Optional[float] = None,
    le: Optional[float] = None,
    finite: bool = True,
    error: type = ConfigError,
) -> float:
    """Return ``value`` unchanged if it is a real number (never a bool or
    NaN) within the given bounds, and finite unless ``finite=False``.

    ``gt``/``ge`` and ``lt``/``le`` are the open and closed lower and upper
    bounds.  Otherwise raise ``error`` naming ``field``.
    """
    if (
        (type(value) in _REALS or isinstance(value, Real) and type(value) is not bool)
        and value == value
        and not (finite and abs(value) == math.inf)
        and (gt is None or value > gt)
        and (ge is None or value >= ge)
        and (lt is None or value < lt)
        and (le is None or value <= le)
    ):
        return value
    rule = _real_rule(gt, ge, lt, le, finite)
    raise error(f"{field} must be {rule}, got {value!r}")


def check_choice(
    value: object, field: str, choices: Collection, error: type = ConfigError
) -> object:
    """Return ``value`` if it is one of ``choices``; otherwise raise
    ``error``: ``unknown <field> <value>; choose from <choices>``."""
    if value not in choices:
        raise error(f"unknown {field} {value!r}; choose from {choices}")
    return value
