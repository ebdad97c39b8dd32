"""Market moves and trading actions."""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

from .errors import ValidationError


class Move(enum.Enum):
    """Direction of a single price tick."""

    UP = "up"
    DOWN = "down"

    def __repr__(self) -> str:
        return f"Move.{self.name}"


class Direction(enum.Enum):
    """Side of the position taken for one step."""

    LONG = "long"
    NEUTRAL = "neutral"
    SHORT = "short"

    @property
    def sign(self) -> int:
        if self is Direction.LONG:
            return 1
        if self is Direction.SHORT:
            return -1
        return 0


@dataclass(frozen=True)
class Action:
    """A position direction with an integer stake multiplier.

    Neutral is always size 1: size carries no meaning while flat, so it is
    normalized away to keep Action values canonical (and hashable as keys).
    ``stake`` is the signed multiplier ``direction.sign * size``: holding the
    action through a tick earns ``stake * tick``. It is derived, not a field,
    so it takes no part in equality, hashing or repr.
    """

    direction: Direction
    size: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", check_int(self.size, "action size"))
        if self.size < 1:
            raise ValidationError(f"action size must be >= 1, got {shown(self.size)}")
        if self.direction is Direction.NEUTRAL and self.size != 1:
            object.__setattr__(self, "size", 1)
        object.__setattr__(self, "stake", self.direction.sign * self.size)

    def __str__(self) -> str:
        if self.size == 1:
            return self.direction.value
        return f"{self.direction.value}x{self.size}"


def shown(value: object) -> object:
    """value for an error message; an int beyond float64 is named, as str() may refuse it."""
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            return "an int beyond float64"
    return value


def check_int(value: object, name: str) -> int:
    """`value` as an int (a numpy integer is one); raise unless it is an
    integer, naming it `name` in the message."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def check_finite(value: float, name: str) -> None:
    """Raise unless value is a finite float64 (an int beyond its range, or
    a value that is not a number, is not); `name` names the value in the
    message."""
    try:
        if math.isfinite(value):
            return
    except (OverflowError, TypeError):
        pass
    raise ValidationError(f"{name} must be finite, got {shown(value)}")


def check_ticks(u: float, d: float, owner: str) -> None:
    """Raise unless (u, d) are finite ticks with u > 0 > d; `owner` names
    the ticks in the message, e.g. "MarketModel" or "DecisionProblem ticks"."""
    check_finite(u, f"{owner} u")
    check_finite(d, f"{owner} d")
    if not u > 0 > d:
        raise ValidationError(f"{owner} must satisfy u > 0 > d, got ({u}, {d})")


LONG = Action(Direction.LONG)
NEUTRAL = Action(Direction.NEUTRAL)
SHORT = Action(Direction.SHORT)
