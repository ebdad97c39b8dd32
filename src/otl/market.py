"""Exogenous binomial market: path sampling, exhaustive enumeration, and
risk-neutral valuation of a dividend stream by backward induction.

Ticks are absolute money amounts per step (e.g. +-$10 on a fixed $1000
stake); a down move adds d to the level, so with d = -10 a $1000 stake
becomes $990.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .actions import Move, check_ticks
from .errors import ResourceLimitError, ValidationError


# largest horizon enumerate_paths (2^20 paths) and price_process accept
MAX_ENUM_HORIZON = 20


def _check_horizon(horizon: int) -> None:
    if horizon < 0:
        raise ValidationError(f"horizon must be >= 0, got {horizon}")
    if horizon > MAX_ENUM_HORIZON:
        raise ResourceLimitError(f"horizon {horizon} exceeds bound {MAX_ENUM_HORIZON}")


@dataclass(frozen=True)
class MarketModel:
    """Binomial dynamics under the true up-probability p_up.

    The stake is fixed per trade, independent of accumulated wealth.
    """

    u: float
    d: float
    p_up: float
    initial_wealth: float = 1000.0

    def __post_init__(self) -> None:
        check_ticks(self.u, self.d, "MarketModel")
        if not math.isfinite(self.initial_wealth):
            raise ValidationError(
                f"MarketModel initial_wealth must be finite, got {self.initial_wealth}"
            )
        if not 0.0 <= self.p_up <= 1.0:
            raise ValidationError(f"p_up must be in [0,1], got {self.p_up}")

    @property
    def ticks(self) -> tuple[float, float]:
        return (self.u, self.d)


@dataclass(frozen=True)
class DividendSpec:
    """Reward stream for the valuation recursion.

    per_step_dividend(t, action, level) is paid on arriving at `level` at
    time t; terminal_payoff(level) is paid once at the horizon.
    """

    per_step_dividend: Callable[[int, object, float], float]
    terminal_payoff: Callable[[float], float]
    initial_level: float = 100.0


# SplitMix64: a well-mixed 64-bit permutation, used so that path i's seed is a
# pure function of (master_seed, i) and any subset of paths can be regenerated
# independently of scheduling.
_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_path_seed(master_seed: int, path_index: int) -> int:
    """64-bit seed for path `path_index` of a run keyed by `master_seed`."""
    return _splitmix64(_splitmix64(master_seed & _MASK) ^ (path_index & _MASK))


def sample_moves(p_up: float, horizon: int, path_seed: int) -> tuple[Move, ...]:
    """`horizon` iid moves, Up with probability p_up, fixed by path_seed."""
    rng = random.Random(path_seed)
    return tuple(Move.UP if rng.random() < p_up else Move.DOWN for _ in range(horizon))


def enumerate_paths(
    model: MarketModel, horizon: int
) -> Iterator[tuple[tuple[Move, ...], float]]:
    """All 2^T move paths with their true-probability weights, as
    (moves, probability) pairs in itertools.product order, Up first.

    Each probability is the left-to-right product of its moves' weights,
    taken one move at a time across all paths at once.
    """
    _check_horizon(horizon)
    p = model.p_up
    probs = np.ones(1)
    for _ in range(horizon):
        probs = (probs[:, None] * [p, 1.0 - p]).ravel()
    return zip(itertools.product((Move.UP, Move.DOWN), repeat=horizon), probs.tolist())


def price_process(
    model: MarketModel,
    div: DividendSpec,
    horizon: int,
    actions: Sequence[object] = (None,),
) -> float:
    """Initial value of the dividend stream by backward induction.

    Levels move by the model's ticks. The max over actions only bites when
    the dividend depends on the action; with action-independent dividends
    the recursion degenerates to a plain expectation.
    """
    _check_horizon(horizon)
    if not actions:
        raise ValidationError("actions must be non-empty")
    p = model.p_up

    # Level after k up moves out of t total is determined by (t, k).
    def level(t: int, k: int) -> float:
        return div.initial_level + k * model.u + (t - k) * model.d

    vals = [div.terminal_payoff(level(horizon, k)) for k in range(horizon + 1)]
    for t in range(horizon - 1, -1, -1):
        nxt = []
        for k in range(t + 1):
            lvl_up = level(t + 1, k + 1)
            lvl_dn = level(t + 1, k)
            best = None
            for a in actions:
                ev = p * (div.per_step_dividend(t + 1, a, lvl_up) + vals[k + 1]) + (
                    1.0 - p
                ) * (div.per_step_dividend(t + 1, a, lvl_dn) + vals[k])
                if best is None or ev > best:
                    best = ev
            nxt.append(best)
        vals = nxt
    return vals[0]


def expected_dividend_by_enumeration(
    model: MarketModel, div: DividendSpec, horizon: int, action: object = None
) -> float:
    """Oracle for price_process with action-independent dividends: sum the
    dividend stream over every enumerated path, probability-weighted."""
    total = 0.0
    for moves, probability in enumerate_paths(model, horizon):
        level = div.initial_level
        acc = 0.0
        for t, m in enumerate(moves, start=1):
            level += model.u if m is Move.UP else model.d
            acc += div.per_step_dividend(t, action, level)
        acc += div.terminal_payoff(level)
        total += probability * acc
    return total
