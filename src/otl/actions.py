"""Market moves and trading actions."""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable

from .errors import ValidationError


class Move(enum.Enum):
    """Direction of a single price tick."""

    UP = "up"
    DOWN = "down"

    def __repr__(self) -> str:
        return f"Move.{self.name}"


# bound once for per-path code: reading an enum member (`Move.UP`) costs ~95 ns
# on Python 3.11, reading a module name ~6 ns
UP, DOWN = Move.UP, Move.DOWN


@dataclass(frozen=True)
class Action:
    """A position held for one step: `stake` units long if positive, short
    if negative, flat if 0. Holding it through a tick earns ``stake * tick``.
    `direction`, `size` and ``str`` are its printed form (`shortx3`)."""

    stake: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "stake", check_int(self.stake, "action stake"))
        check_finite(self.stake, "action stake")

    @property
    def direction(self) -> str:
        return "long" if self.stake > 0 else "short" if self.stake < 0 else "neutral"

    @property
    def size(self) -> int:
        return abs(self.stake) or 1

    def __str__(self) -> str:
        if self.size == 1:
            return self.direction
        return f"{self.direction}x{self.size}"


def shown(value: object) -> object:
    """value for an error message: a str is quoted, and an int beyond float64
    is named, as str() may refuse it."""
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            return "an int beyond float64"
    return value


def check_in(value: object, inside: Callable[[object], bool], rule: str) -> None:
    """Raise `ValidationError(f"{rule}, got {shown(value)}")` unless
    inside(value) holds. A value that is not a number (TypeError), an int
    beyond float64 (OverflowError), a Decimal NaN (InvalidOperation, or
    ValueError if signalling) or an array (ValueError) fails the same way."""
    try:
        if inside(value):
            return
    except (ArithmeticError, TypeError, ValueError):
        pass
    raise ValidationError(f"{rule}, got {shown(value)}")


def check_int(value: object, name: str, least: int | None = None) -> int:
    """`value` as an int (a numpy integer is one); raise unless it is an
    integer of at least `least`, if given, naming it `name` in the message."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValidationError(f"{name} must be >= {least}, got {shown(value)}")
    return value


def check_finite(value: float, name: str) -> None:
    """Raise unless value is a finite float64 (an int beyond its range, or
    a value that is not a number, is not); `name` names the value in the
    message."""
    check_in(value, math.isfinite, f"{name} must be finite")


def check_ticks(ticks: tuple[float, float], owner: str) -> tuple[float, float]:
    """The pair (u, d) as floats; raise unless it is a pair of finite ticks
    with u > 0 > d. `owner` names the ticks in the message, e.g.
    "MarketModel" or "DecisionProblem ticks"."""
    try:
        u, d = ticks
    except (TypeError, ValueError):
        raise ValidationError(f"{owner} must be a (u, d) pair, got {ticks!r}") from None
    check_finite(u, f"{owner} u")
    check_finite(d, f"{owner} d")
    if not u > 0 > d:
        raise ValidationError(f"{owner} must satisfy u > 0 > d, got ({u}, {d})")
    return float(u), float(d)


LONG = Action(1)
NEUTRAL = Action(0)
SHORT = Action(-1)
