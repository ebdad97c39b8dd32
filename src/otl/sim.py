"""Deterministic Monte Carlo engine.

Path i of a run is driven by a seed derived from (master_seed, i), so results
are a pure function of the configuration and independent of execution order. A
run keeps no path: it hands path i to its consumer, if any, as it is replayed.
Policies are compared on common random numbers: every policy sees the same
move sequences.

Every policy is a finite automaton over the move tape (`Policy`): a path
starts in state 0, plays `decide(state)` and steps through the policy's `up`
or `down` list after each move. Bellman's state is its stage state (as the
belief lattice numbers it), so no `Belief` is built while simulating.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .actions import UP, Action, Move, check_int, shown
from .errors import ResourceLimitError, ValidationError
from .market import MarketModel, derive_path_seed, sample_moves
from .mdp import DecisionProblem
from .policies import Policy

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile
# bound on n_paths x horizon: a run holds one path's steps, 17 B per path (terminal
# wealth, drawdown and ruin arrays; ~85 MB at T=1), the path-CSV writer's capped
# wealth cells (cli.WEALTH_CELLS_CAP) and its unwritten rows, under ~0.2 MB (a chunk
# of cli.OUTPUT_CHUNK characters, joined and then encoded); its CSV takes ~34 B per
# step, ~0.17 GB at the bound
MAX_PATH_STEPS = 5_000_000
OnPath = Callable[[int, "WealthPath"], None]  # on_path(i, path), as path i is replayed


@dataclass(frozen=True)
class SimConfig:
    """n_paths seeded paths of problem.horizon steps, each trader starting
    from problem.initial_belief."""

    problem: DecisionProblem
    n_paths: int
    master_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_paths", check_int(self.n_paths, "n_paths", 1))
        object.__setattr__(self, "master_seed", check_int(self.master_seed, "master_seed"))
        check_int(self.problem.horizon, "horizon", 1)
        if self.n_paths * self.problem.horizon > MAX_PATH_STEPS:
            raise ResourceLimitError(
                f"n_paths x horizon = {shown(self.n_paths)} x {shown(self.problem.horizon)}"
                f" exceeds bound {MAX_PATH_STEPS} path steps"
            )


@dataclass
class WealthPath:
    """A replayed path's moves, the action played and wealth after each step, and its
    terminal wealth, max drawdown (from a peak that starts at the initial wealth) and ruin."""

    moves: Sequence[Move]
    actions: list[Action]
    wealths: list[float]
    terminal_wealth: float
    max_drawdown: float
    ruined: bool


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
    paths: list[WealthPath]  # always empty, as a run keeps no path; perfbench/child.py reads it
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


def summarize(terminals: np.ndarray, drawdowns: np.ndarray, ruined: np.ndarray) -> Stats:
    """Stats of paths given as arrays of terminal wealth, max drawdown and ruin."""
    if not len(terminals):
        raise ValidationError("cannot summarize an empty path list")
    return Stats(
        float(terminals.mean()),
        float(terminals.std()),
        *map(float, np.percentile(terminals, [5, 25, 50, 75, 95])),  # q05 .. q95
        float(np.mean(drawdowns)),
        float(np.mean(ruined)),
    )


def replay(policy: Policy, model: MarketModel, moves: Sequence[Move]) -> WealthPath:
    """Drive the policy's automaton through a fixed move sequence from its state 0. This
    is the whole per-path engine; sampling only chooses `moves`, so exact expectations
    can be taken by replaying every enumerated path."""
    problem = policy.problem
    if problem is not None and len(moves) > problem.horizon:
        raise ValidationError(
            f"policy {policy.name} was solved for horizon {problem.horizon}, got {len(moves)} moves"
        )
    state, worst, ruined = 0, 0.0, False
    wealth = peak = model.initial_wealth
    actions: list[Action] = []
    wealths: list[float] = []
    decide, up, down = policy.decide, policy.up, policy.down
    u, d, up_move = model.u, model.d, UP
    for move in moves:
        action = decide(state)
        if move is up_move:
            wealth += action.stake * u
            state = up[state]
        else:
            wealth += action.stake * d
            state = down[state]
        if wealth > peak:
            peak = wealth
        elif peak - wealth > worst:
            worst = peak - wealth
        if wealth <= 0:
            ruined = True
        actions.append(action)
        wealths.append(wealth)
    return WealthPath(moves, actions, wealths, wealth, worst, ruined)


def run(
    policy: Policy, model: MarketModel, cfg: SimConfig, on_path: Optional[OnPath] = None
) -> SimResult:
    """Run one policy over cfg.n_paths seeded paths of a market with the problem's ticks.
    A policy that reads the belief must have been built for cfg.problem, since its lattice
    states mean nothing for another. Each path i is passed to on_path(i, path), if given,
    as it is replayed and then dropped, so a run holds O(n_paths) floats and one path."""
    problem, seed, n = cfg.problem, cfg.master_seed, cfg.n_paths
    if model.ticks != problem.ticks:
        raise ValidationError(f"market ticks {model.ticks} != problem ticks {problem.ticks}")
    if policy.problem is not None and policy.problem != problem:
        differ = [
            f"{f.name} {getattr(policy.problem, f.name)!r} != {getattr(problem, f.name)!r}"
            for f in fields(problem)
            if getattr(policy.problem, f.name) != getattr(problem, f.name)
        ]
        raise ValidationError(
            f"policy {policy.name} was built for another problem: {'; '.join(differ)}"
        )
    terminals, drawdowns, ruined = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for i in range(n):
        moves = sample_moves(model.p_up, problem.horizon, derive_path_seed(seed, i))
        path = replay(policy, model, moves)
        terminals[i], drawdowns[i] = path.terminal_wealth, path.max_drawdown
        ruined[i] = path.ruined
        if on_path is not None:
            on_path(i, path)
    # overflow is caught by _check_finite and reported as an error
    with np.errstate(over="ignore", invalid="ignore"):
        stats = summarize(terminals, drawdowns, ruined)
    _check_finite(stats, f"policy {policy.name}", model)
    return SimResult(policy_name=policy.name, paths=[], stats=stats, terminals=terminals)


def compare(
    policies: Sequence[Policy], model: MarketModel, cfg: SimConfig, on_path: Optional[OnPath] = None
) -> ComparisonTable:
    """Evaluate every policy on the same seeded paths (common random numbers)
    and report pairwise mean-difference 99% confidence intervals; on_path,
    if given, gets every path of each policy's `run` in turn."""
    if not policies:
        raise ValidationError("need at least one policy to compare")
    results = [run(p, model, cfg, on_path) for p in policies]
    pairwise: list[PairwiseDiff] = []
    for a, b in itertools.combinations(results, 2):
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = a.terminals - b.terminals
            mean = float(diffs.mean())
            se = float(diffs.std(ddof=1) / np.sqrt(len(diffs))) if len(diffs) > 1 else 0.0
        diff = PairwiseDiff(a.policy_name, b.policy_name, mean, mean - Z_99 * se, mean + Z_99 * se)
        _check_finite(diff, f"policies {diff.policy_a} - {diff.policy_b}", model)
        pairwise.append(diff)
    return ComparisonTable(pairwise=pairwise, results=results)
