"""Deterministic Monte Carlo engine.

Path i of a run is driven by a seed derived from (master_seed, i), so results
are a pure function of the configuration and independent of execution order.
Policies are compared on common random numbers: every policy sees the same
move sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .actions import Action, Move
from .beliefs import Belief
from .errors import ResourceLimitError, ValidationError
from .market import MarketModel, derive_path_seed, sample_moves
from .mdp import DecisionProblem
from .policies import Policy

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile
# bound on n_paths x horizon: every step of every path is kept as a
# StepRecord, ~143 B each (tracemalloc, cutloss, 20,000 paths x T=20), so
# ~0.7 GB per policy at the bound; compare keeps one set per policy
MAX_PATH_STEPS = 5_000_000


@dataclass(frozen=True)
class SimConfig:
    """n_paths seeded paths of problem.horizon steps, each trader starting
    from problem.initial_belief."""

    problem: DecisionProblem
    n_paths: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValidationError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.problem.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.problem.horizon}")
        if self.n_paths * self.problem.horizon > MAX_PATH_STEPS:
            raise ResourceLimitError(
                f"n_paths x horizon = {self.n_paths} x {self.problem.horizon} exceeds"
                f" bound {MAX_PATH_STEPS} retained step records"
            )


@dataclass(slots=True)
class StepRecord:
    t: int
    move: Move
    action: Action
    reward: float
    wealth_after: float


@dataclass
class WealthPath:
    path_id: int
    initial_wealth: float
    steps: list[StepRecord]

    @property
    def terminal_wealth(self) -> float:
        return self.steps[-1].wealth_after if self.steps else self.initial_wealth

    def max_drawdown(self) -> float:
        peak = self.initial_wealth
        worst = 0.0
        for rec in self.steps:
            w = rec.wealth_after
            if w > peak:
                peak = w
            elif peak - w > worst:
                worst = peak - w
        return worst

    def ruined(self) -> bool:
        return any(rec.wealth_after <= 0 for rec in self.steps)


@dataclass
class Stats:
    mean_terminal: float
    std_terminal: float
    q05: float
    q25: float
    q50: float
    q75: float
    q95: float
    mean_max_drawdown: float
    ruin_fraction: float

    def quantiles(self) -> tuple[float, float, float, float, float]:
        return (self.q05, self.q25, self.q50, self.q75, self.q95)


@dataclass
class SimResult:
    policy_name: str
    paths: list[WealthPath]
    stats: Stats
    terminals: np.ndarray = field(repr=False)


@dataclass
class PairwiseDiff:
    """CI on the paired per-path terminal-wealth difference a - b."""

    policy_a: str
    policy_b: str
    mean_diff: float
    ci_low: float
    ci_high: float


@dataclass
class ComparisonTable:
    pairwise: list[PairwiseDiff]
    results: list[SimResult] = field(repr=False)


def _check_finite(record: Stats | PairwiseDiff, owner: str, model: MarketModel) -> None:
    """Reject a record with a non-finite float field, so that no inf or NaN
    reaches an output: wealth, its spread or a difference overflowed."""
    bad = [k for k, v in vars(record).items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise ValidationError(
            f"{owner}: {', '.join(bad)} not finite; ticks {model.ticks} and initial"
            f" wealth {model.initial_wealth} overflow float64"
        )


def summarize(paths: Sequence[WealthPath]) -> Stats:
    if not paths:
        raise ValidationError("cannot summarize an empty path list")
    terminals = np.array([p.terminal_wealth for p in paths])
    q05, q25, q50, q75, q95 = np.percentile(terminals, [5, 25, 50, 75, 95])
    return Stats(
        mean_terminal=float(terminals.mean()),
        std_terminal=float(terminals.std()),
        q05=float(q05),
        q25=float(q25),
        q50=float(q50),
        q75=float(q75),
        q95=float(q95),
        mean_max_drawdown=float(np.mean([p.max_drawdown() for p in paths])),
        ruin_fraction=float(np.mean([p.ruined() for p in paths])),
    )


def replay(
    policy: Policy,
    model: MarketModel,
    initial_belief: Belief,
    moves: Sequence[Move],
    path_id: int = 0,
) -> WealthPath:
    """Drive the policy through a fixed move sequence.

    This is the whole per-path engine; sampling only chooses `moves`, so
    exact expectations can be taken by replaying every enumerated path.
    """
    belief = initial_belief
    wealth = model.initial_wealth
    losing_streak = 0
    last_move: Move | None = None
    steps: list[StepRecord] = []
    append = steps.append
    decide = policy.decide
    u, d = model.u, model.d
    up = Move.UP
    for t, move in enumerate(moves):
        action = decide(t, belief, last_move, losing_streak)
        reward = action.stake * (u if move is up else d)
        wealth += reward
        # a flat step earns 0 * tick, +-0.0 and never < 0, so it resets the streak
        losing_streak = losing_streak + 1 if reward < 0 else 0
        # beliefs see every move, even while flat: the tape is public
        belief = belief.update(move)
        last_move = move
        append(StepRecord(t, move, action, reward, wealth))
    return WealthPath(path_id=path_id, initial_wealth=model.initial_wealth, steps=steps)


def run(policy: Policy, model: MarketModel, cfg: SimConfig) -> SimResult:
    """Run one policy over cfg.n_paths independent seeded paths."""
    problem, seed = cfg.problem, cfg.master_seed
    paths = []
    for i in range(cfg.n_paths):
        moves = sample_moves(model.p_up, problem.horizon, derive_path_seed(seed, i))
        paths.append(replay(policy, model, problem.initial_belief, moves, i))
    terminals = np.array([p.terminal_wealth for p in paths])
    # overflow is caught by _check_finite and reported as an error
    with np.errstate(over="ignore", invalid="ignore"):
        stats = summarize(paths)
    _check_finite(stats, f"policy {policy.name}", model)
    return SimResult(
        policy_name=policy.name,
        paths=paths,
        stats=stats,
        terminals=terminals,
    )


def compare(policies: Sequence[Policy], model: MarketModel, cfg: SimConfig) -> ComparisonTable:
    """Evaluate every policy on the same seeded paths (common random numbers)
    and report pairwise mean-difference 99% confidence intervals."""
    if not policies:
        raise ValidationError("need at least one policy to compare")
    results = [run(p, model, cfg) for p in policies]
    pairwise: list[PairwiseDiff] = []
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            with np.errstate(over="ignore", invalid="ignore"):
                diffs = results[i].terminals - results[j].terminals
                mean = float(diffs.mean())
                se = float(diffs.std(ddof=1) / np.sqrt(len(diffs))) if len(diffs) > 1 else 0.0
            diff = PairwiseDiff(
                policy_a=results[i].policy_name,
                policy_b=results[j].policy_name,
                mean_diff=mean,
                ci_low=mean - Z_99 * se,
                ci_high=mean + Z_99 * se,
            )
            _check_finite(diff, f"policies {diff.policy_a} - {diff.policy_b}", model)
            pairwise.append(diff)
    return ComparisonTable(pairwise=pairwise, results=results)
