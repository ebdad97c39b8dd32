"""Mechanical checkers for every identity and inequality the framework rests
on, each against an independent oracle: backward induction vs exhaustive path
enumeration, the strict Long > Neutral > Short chain for a confident bull,
the post-loss flip that rules out averaging down, and the dividend valuation.

All checkers are exact and seed-free; failures land in the report, they are
never raised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .actions import LONG, NEUTRAL, SHORT, Action, Move
from .beliefs import Belief, BetaBernoulli, Mirror, Static, expected_step_reward
from .errors import ValidationError
from .market import (
    DividendSpec,
    MarketModel,
    expected_dividend_by_enumeration,
    price_process,
)
from .mdp import DEFAULT_ACTIONS, DecisionProblem, solve_q

# inequality margin: strict assertions demand clearance beyond float noise
STRICT_MARGIN = 1e-9
ORACLE_TOL = 1e-9


@dataclass
class CaseResult:
    description: str
    passed: bool
    informational: bool = False
    measured: dict = field(default_factory=dict)


@dataclass
class Report:
    suite: str
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.cases if not c.informational)

    def add(self, description: str, passed: bool, informational: bool = False, **measured) -> None:
        self.cases.append(CaseResult(description, passed, informational, measured))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [dict(vars(c)) for c in self.cases],
            "overall": self.overall,
        }

    def render(self) -> str:
        lines = [f"suite: {self.suite}"]
        for c in self.cases:
            tag = "info" if c.informational else ("PASS" if c.passed else "FAIL")
            extra = f"  {c.measured}" if c.measured else ""
            lines.append(f"  [{tag}] {c.description}{extra}")
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines)


def _myopic_best(
    belief: Belief,
    ticks: tuple[float, float],
    action_set: Sequence[Action],
) -> Action:
    # Moves are exogenous, so the continuation value is shared by every
    # action and the optimal choice reduces to the one-step expectation,
    # the stake times that of one long unit (computed once: this runs for
    # every step of every enumerated path); max keeps the first maximum,
    # the solver's tie-break.
    unit = expected_step_reward(belief, LONG, ticks)
    return max(action_set, key=lambda a: a.stake * unit)


def enumeration_q(
    belief: Belief,
    action: Action,
    horizon: int,
    ticks: tuple[float, float],
    action_set: Sequence[Action] = DEFAULT_ACTIONS,
    discount: float = 1.0,
) -> float:
    """Oracle Q-value by brute enumeration of all 2^T move paths.

    Each path carries its own belief trajectory and probability weight; the
    first step plays `action`, later steps play the myopic argmax. No table,
    no backward pass, so this shares nothing with the solver.
    """
    u, d = ticks
    total = 0.0
    for path in itertools.product((Move.UP, Move.DOWN), repeat=horizon):
        b = belief
        prob = 1.0
        payoff = 0.0
        for t, move in enumerate(path):
            a = action if t == 0 else _myopic_best(b, ticks, action_set)
            q_up = b.predictive()
            prob *= q_up if move is Move.UP else (1.0 - q_up)
            tick = u if move is Move.UP else d
            payoff += (discount**t) * a.stake * tick
            b = b.update(move)
        total += prob * payoff
    return total


def _belief_grid() -> list[tuple[str, Belief]]:
    return [
        ("Static(0.6)", Static(0.6)),
        ("Mirror(0.6)", Mirror(0.6, Move.UP)),
        ("Beta(3,2)", BetaBernoulli(3, 2)),
    ]


def check_bellman(max_horizon: int = 8, ticks: tuple[float, float] = (10.0, -10.0)) -> Report:
    """Solver output vs full-tree enumeration for every belief kind."""
    report = Report(suite="bellman")
    for name, belief in _belief_grid():
        for T in range(max_horizon + 1):
            problem = DecisionProblem(horizon=T, ticks=ticks, initial_belief=belief)
            table = solve_q(problem)
            max_dev = 0.0
            if T == 0:
                max_dev = abs(table.value(0, belief))
            else:
                for a in problem.action_set:
                    oracle = enumeration_q(belief, a, T, ticks, problem.action_set)
                    max_dev = max(max_dev, abs(table.q(0, belief, a) - oracle))
            report.add(
                f"{name} T={T}: solver matches 2^T enumeration",
                max_dev <= ORACLE_TOL,
                max_abs_deviation=max_dev,
            )
    return report


def check_example21(
    q_grid: Sequence[float] = (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95),
    horizons: Sequence[int] = (1, 2, 3, 4, 5),
    ticks: tuple[float, float] = (10.0, -10.0),
) -> Report:
    """Strict Q(Long) > Q(Neutral) > Q(Short) for a confident bull."""
    report = Report(suite="example21")
    for q in q_grid:
        if not 0.5 < q < 1.0:
            raise ValidationError(f"q grid values must lie in (0.5, 1), got {q}")
        for T in horizons:
            problem = DecisionProblem(horizon=T, ticks=ticks, initial_belief=Static(q))
            table = solve_q(problem)
            b = problem.initial_belief
            qL = table.q(0, b, LONG)
            qN = table.q(0, b, NEUTRAL)
            qS = table.q(0, b, SHORT)
            ok = (qL - qN > STRICT_MARGIN) and (qN - qS > STRICT_MARGIN)
            report.add(
                f"q={q} T={T}: Q(long) > Q(neutral) > Q(short)",
                ok,
                q_long=qL,
                q_neutral=qN,
                q_short=qS,
            )
    return report


def check_no_averaging(
    q_grid: Sequence[float] = (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95),
    tick_scales: Sequence[float] = (1.0, 10.0, 100.0),
    horizons: Sequence[int] = (1, 2, 3, 4, 5),
) -> Report:
    """After a losing Long step, the snapped-to-the-tape belief must prefer
    Neutral to Long at the next stage; the gap is (u-d)(q-1/2) per unit tick
    scale. A counting prior need not flip; that contrast is reported as an
    informational case, never asserted."""
    report = Report(suite="averaging")
    for q in q_grid:
        if not 0.5 < q < 1.0:
            raise ValidationError(f"q grid values must lie in (0.5, 1), got {q}")
        for scale in tick_scales:
            ticks = (10.0 * scale, -10.0 * scale)
            for T in horizons:
                # stage 0: bullish belief; verify Long is the argmax premise
                problem = DecisionProblem(
                    horizon=T + 1, ticks=ticks, initial_belief=Mirror(q, Move.UP)
                )
                table = solve_q(problem)
                premise_ok = table.optimal_action(0, problem.initial_belief) == LONG
                # a down move arrives; the belief flips to favor Down
                flipped = problem.initial_belief.update(Move.DOWN)
                qL = table.q(1, flipped, LONG)
                qN = table.q(1, flipped, NEUTRAL)
                gap = qN - qL
                expected_gap = (ticks[0] - ticks[1]) * (q - 0.5)
                ok = (
                    premise_ok
                    and gap > STRICT_MARGIN
                    and abs(gap - expected_gap) <= ORACLE_TOL * max(1.0, scale)
                )
                report.add(
                    f"q={q} scale={scale} T={T}: post-loss Q(neutral) > Q(long)",
                    ok,
                    gap=gap,
                    expected_gap=expected_gap,
                )
    # Bayesian contrast: Beta(6,4) still favors Up after one Down
    prior = BetaBernoulli(6, 4)
    posterior = prior.update(Move.DOWN)
    problem = DecisionProblem(horizon=2, ticks=(10.0, -10.0), initial_belief=prior)
    table = solve_q(problem)
    still_long = table.optimal_action(1, posterior) == LONG
    report.add(
        "Beta(6,4) after a loss keeps predictive 6/11 > 0.5; Long remains argmax"
        " (counting priors do not flip on one move)",
        still_long,
        informational=True,
        posterior_predictive=posterior.predictive(),
    )
    return report


def check_price(max_horizon: int = 12) -> Report:
    """Backward-induction valuation vs path enumeration, plus the exact
    martingale and zero-payoff cases."""
    report = Report(suite="price")
    identity = DividendSpec(
        per_step_dividend=lambda t, a, level: 0.0,
        terminal_payoff=lambda level: level,
        initial_level=100.0,
    )
    for T in (0, 1, 3, 5, max_horizon):
        fair = MarketModel(u=1.0, d=-1.0, p_up=0.5)
        price = price_process(fair, identity, T)
        report.add(
            f"p=0.5 identity payoff T={T}: price equals initial level exactly",
            price == identity.initial_level,
            price=price,
        )
    biased = MarketModel(u=1.0, d=-1.0, p_up=0.6)
    price = price_process(biased, identity, 1)
    report.add(
        "p=0.6 T=1 identity payoff: price 100.2",
        abs(price - 100.2) <= 1e-12,
        price=price,
    )
    coupon = DividendSpec(
        per_step_dividend=lambda t, a, level: 0.01 * level,
        terminal_payoff=lambda level: level,
        initial_level=100.0,
    )
    for T in range(max_horizon + 1):
        model = MarketModel(u=2.0, d=-1.0, p_up=0.55)
        induced = price_process(model, coupon, T)
        enumerated = expected_dividend_by_enumeration(model, coupon, T)
        report.add(
            f"coupon stream T={T}: induction matches enumeration",
            abs(induced - enumerated) <= ORACLE_TOL,
            induced=induced,
            enumerated=enumerated,
        )
    zero = DividendSpec(
        per_step_dividend=lambda t, a, level: 0.0,
        terminal_payoff=lambda level: 0.0,
    )
    price = price_process(MarketModel(u=1.0, d=-1.0, p_up=0.3), zero, 6)
    report.add("zero dividends and payoff: price 0", price == 0.0, price=price)
    return report


SUITES = {
    "bellman": check_bellman,
    "example21": check_example21,
    "averaging": check_no_averaging,
    "price": check_price,
}


def run_all() -> list[Report]:
    return [fn() for fn in SUITES.values()]
