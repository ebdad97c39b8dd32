"""Deterministic Monte Carlo engine.

Path i of a run is driven by a seed derived from (master_seed, i), so results
are a pure function of the configuration and independent of execution order.
Policies are compared on common random numbers: every policy sees the same
move sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .actions import Action, Move, NEUTRAL
from .beliefs import Belief
from .errors import ValidationError
from .market import MarketModel, derive_path_seed, sample_moves
from .mdp import DecisionProblem
from .policies import DecisionContext, Policy

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


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
    position = NEUTRAL
    losing_streak = 0
    last_move: Move | None = None
    steps: list[StepRecord] = []
    append = steps.append
    decide = policy.decide
    u, d = model.u, model.d
    up = Move.UP
    for t, move in enumerate(moves):
        action = decide(DecisionContext(t, belief, last_move, losing_streak, position))
        reward = action.stake * (u if move is up else d)
        wealth += reward
        if action.stake == 0:
            losing_streak = 0
        elif reward < 0:
            losing_streak += 1
        else:
            losing_streak = 0
        # beliefs see every move, even while flat: the tape is public
        belief = belief.update(move)
        position = action
        last_move = move
        append(StepRecord(t, move, action, reward, wealth))
    return WealthPath(path_id=path_id, initial_wealth=model.initial_wealth, steps=steps)


def _run_one_path(
    policy: Policy, model: MarketModel, cfg: SimConfig, path_id: int
) -> WealthPath:
    problem = cfg.problem
    moves = sample_moves(model.p_up, problem.horizon, derive_path_seed(cfg.master_seed, path_id))
    return replay(policy, model, problem.initial_belief, moves, path_id)


def run(policy: Policy, model: MarketModel, cfg: SimConfig) -> SimResult:
    """Run one policy over cfg.n_paths independent seeded paths."""
    paths = [_run_one_path(policy, model, cfg, i) for i in range(cfg.n_paths)]
    terminals = np.array([p.terminal_wealth for p in paths])
    return SimResult(
        policy_name=policy.name,
        paths=paths,
        stats=summarize(paths),
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
            diffs = results[i].terminals - results[j].terminals
            mean = float(diffs.mean())
            se = float(diffs.std(ddof=1) / np.sqrt(len(diffs))) if len(diffs) > 1 else 0.0
            pairwise.append(
                PairwiseDiff(
                    policy_a=results[i].policy_name,
                    policy_b=results[j].policy_name,
                    mean_diff=mean,
                    ci_low=mean - Z_99 * se,
                    ci_high=mean + Z_99 * se,
                )
            )
    return ComparisonTable(pairwise=pairwise, results=results)
