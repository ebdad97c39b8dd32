"""Exogenous binomial market: path sampling, exhaustive enumeration, and
risk-neutral valuation of a dividend stream by backward induction.

Ticks are absolute money amounts per step (e.g. +-$10 on a fixed $1000
stake); a down move adds d to the level, so with d = -10 a $1000 stake
becomes $990.
"""

from __future__ import annotations

import _random
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .actions import DOWN, UP, Move, check_finite, check_in, check_int, check_ticks, shown
from .errors import ResourceLimitError


# largest horizon enumerate_paths (2^20 paths) and price_process accept
MAX_ENUM_HORIZON = 20


def check_horizon(horizon: int) -> int:
    """`horizon` as an int, if it is one in [0, MAX_ENUM_HORIZON]."""
    horizon = check_int(horizon, "horizon", 0)
    if horizon > MAX_ENUM_HORIZON:
        raise ResourceLimitError(f"horizon {shown(horizon)} exceeds bound {MAX_ENUM_HORIZON}")
    return horizon


@dataclass(frozen=True)
class MarketModel:
    """Binomial dynamics under the true up-probability p_up.

    The stake is fixed per trade, independent of accumulated wealth. Every
    field is kept as a float.
    """

    u: float
    d: float
    p_up: float
    initial_wealth: float = 1000.0

    def __post_init__(self) -> None:
        u, d = check_ticks((self.u, self.d), "MarketModel")
        check_finite(self.initial_wealth, "MarketModel initial_wealth")
        check_in(self.p_up, lambda p: 0.0 <= p <= 1.0, "p_up must be in [0,1]")
        values = (u, d, self.p_up, self.initial_wealth)
        for name, value in zip(("u", "d", "p_up", "initial_wealth"), values):
            object.__setattr__(self, name, float(value))

    @property
    def ticks(self) -> tuple[float, float]:
        return (self.u, self.d)


@dataclass(frozen=True)
class DividendSpec:
    """Reward stream for the valuation recursion.

    per_step_dividend(t, level) is paid on arriving at `level` at time t;
    terminal_payoff(level) is paid once at the horizon.
    """

    per_step_dividend: Callable[[int, float], float]
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


# a run derives every path's seed from one master seed, so its mix is kept
_mix_master = functools.lru_cache(maxsize=1)(_splitmix64)


def derive_path_seed(master_seed: int, path_index: int) -> int:
    """64-bit seed for path `path_index` of a run keyed by `master_seed`:
    splitmix64(splitmix64(master_seed mod 2^64) ^ (path_index mod 2^64))."""
    return _splitmix64(_mix_master(master_seed & _MASK) ^ (path_index & _MASK))


def sample_moves(p_up: float, horizon: int, path_seed: int) -> list[Move]:
    """`horizon` iid moves, Up with probability p_up, fixed by path_seed: the
    first `horizon` draws of `random.Random(path_seed).random() < p_up`."""
    if type(path_seed) is not int:
        # the generator would seed any other object by its hash, which for a str
        # changes from one process to the next
        path_seed = check_int(path_seed, "path_seed")
    # the C base class of random.Random: for an int it seeds the same MT19937
    # (init_by_array over the seed's 32-bit words) without the Python __init__
    draw = _random.Random(path_seed).random
    return [UP if draw() < p_up else DOWN for _ in range(horizon)]


def enumerate_paths(
    model: MarketModel, horizon: int
) -> Iterator[tuple[tuple[Move, ...], float]]:
    """All 2^T move paths with their true-probability weights, as
    (moves, probability) pairs in itertools.product order, Up first.

    Each probability is the left-to-right product of its moves' weights,
    taken one move at a time across all paths at once.
    """
    horizon = check_horizon(horizon)
    p = model.p_up
    probs = np.ones(1)
    for _ in range(horizon):
        probs = (probs[:, None] * [p, 1.0 - p]).ravel()
    return zip(itertools.product((Move.UP, Move.DOWN), repeat=horizon), probs.tolist())


def price_process(model: MarketModel, div: DividendSpec, horizon: int) -> float:
    """Initial value of the dividend stream by backward induction: each
    node is the expectation, under the model's p_up, of the next step's
    dividend plus its value. Levels move by the model's ticks.
    """
    horizon = check_horizon(horizon)
    p = model.p_up

    # Level after k up moves out of t total is determined by (t, k).
    def level(t: int, k: int) -> float:
        return div.initial_level + k * model.u + (t - k) * model.d

    vals = [div.terminal_payoff(level(horizon, k)) for k in range(horizon + 1)]
    for t in range(horizon - 1, -1, -1):
        vals = [
            p * (div.per_step_dividend(t + 1, level(t + 1, k + 1)) + vals[k + 1])
            + (1.0 - p) * (div.per_step_dividend(t + 1, level(t + 1, k)) + vals[k])
            for k in range(t + 1)
        ]
    return vals[0]


def expected_dividend_by_enumeration(
    model: MarketModel, div: DividendSpec, horizon: int
) -> list[float]:
    """Oracle for price_process at every T <= horizon: one depth-first walk
    steps each prefix's probability and dividends once (2^(horizon+1) - 2
    steps); depth-T nodes, in itertools.product order, Up first, add to
    totals[T], each weighted by the left-to-right product of its moves' weights."""
    horizon = check_horizon(horizon)
    moves = ((model.d, 1.0 - model.p_up), (model.u, model.p_up))  # (tick, weight)
    totals = [0.0] * (horizon + 1)
    # Down is pushed first, so Up pops first
    stack = [(0, div.initial_level, 1.0, 0.0)]
    while stack:
        t, level, prob, acc = stack.pop()
        totals[t] += prob * (acc + div.terminal_payoff(level))
        if t == horizon:
            continue
        for tick, weight in moves:
            child = level + tick
            stack.append((t + 1, child, prob * weight, acc + div.per_step_dividend(t + 1, child)))
    return totals
