"""Mechanical checkers for every identity and inequality the framework rests
on, each against an independent oracle: backward induction vs exhaustive path
enumeration, the strict Long > Neutral > Short chain for a confident bull,
the post-loss flip that rules out averaging down, and the dividend valuation.

Each suite is a fixed program that takes no arguments: its case grid is the
module constants below, so `otl verify` always runs the same cases. All
checkers are exact and seed-free; failures land in the report, they are
never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .actions import DOWN, LONG, NEUTRAL, SHORT, UP, Action, Move, check_ticks
from .beliefs import Belief, BetaBernoulli, Mirror, Static
from .errors import ValidationError
from .market import (
    DividendSpec,
    MarketModel,
    check_horizon,
    expected_dividend_by_enumeration,
    price_process,
)
from .mdp import DEFAULT_ACTIONS, DecisionProblem, solve_q

# inequality margin: strict assertions demand clearance beyond float noise
STRICT_MARGIN = 1e-9
ORACLE_TOL = 1e-9

# the fixed case grids: every suite is one program over these, no options
TICKS = (10.0, -10.0)
Q_GRID = (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
HORIZONS = (1, 2, 3, 4, 5)
TICK_SCALES = (1.0, 10.0, 100.0)
BELIEF_GRID = (
    ("Static(0.6)", Static(0.6)),
    ("Mirror(0.6)", Mirror(0.6, Move.UP)),
    ("Beta(3,2)", BetaBernoulli(3, 2)),
)
BELLMAN_MAX_HORIZON = 8
PRICE_MAX_HORIZON = 12


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


def enumeration_q(
    belief: Belief,
    horizon: int,
    ticks: tuple[float, float],
    action_set: Sequence[Action] = DEFAULT_ACTIONS,
) -> list[list[float]]:
    """Oracle Q-values by brute enumeration of all 2^T move paths, at every
    T <= horizon: one depth-first walk steps each prefix's belief,
    probability and payoffs once (2^(horizon+1) - 2 steps); depth-T nodes,
    in itertools.product order, Up first, add to qs[T][i], the Q-value of
    action_set[i] at T. Column i plays action_set[i] first, then the myopic
    argmax. No table, no backward pass: this shares nothing with the solver.
    `ticks` is (u, d), finite with u > 0 > d; `horizon` in [0, MAX_ENUM_HORIZON];
    `action_set` non-empty."""
    u, d = check_ticks(ticks, "enumeration_q ticks")
    horizon = check_horizon(horizon)
    n = len(action_set)
    if not n:
        raise ValidationError("action_set must be non-empty")
    qs = [[0.0] * n for _ in range(horizon + 1)]
    first = [a.stake for a in action_set]
    # Down is pushed first, so Up pops first
    stack = [(belief, 0, 1.0, [0.0] * n)]
    while stack:
        b, t, prob, payoffs = stack.pop()
        qs[t] = [q + prob * p for q, p in zip(qs[t], payoffs)]
        if t == horizon:
            continue
        q_up = b.predictive()
        stakes = first
        if t:
            # Moves are exogenous, so the continuation value is shared
            # by every action and the optimal choice reduces to the
            # one-step expectation, the stake times that of one long
            # unit; max keeps the first maximum, the solver's tie-break.
            unit = q_up * u + (1.0 - q_up) * d
            stakes = [max(action_set, key=lambda a: a.stake * unit).stake] * n
        up = [p + s * u for p, s in zip(payoffs, stakes)]
        down = [p + s * d for p, s in zip(payoffs, stakes)]
        stack.append((b.update(DOWN), t + 1, prob * (1.0 - q_up), down))
        stack.append((b.update(UP), t + 1, prob * q_up, up))
    return qs


def check_bellman() -> Report:
    """Solver output vs full-tree enumeration for every belief kind."""
    report = Report(suite="bellman")
    for name, belief in BELIEF_GRID:
        oracle = enumeration_q(belief, BELLMAN_MAX_HORIZON, TICKS)
        for T in range(BELLMAN_MAX_HORIZON + 1):
            problem = DecisionProblem(horizon=T, ticks=TICKS, initial_belief=belief)
            table = solve_q(problem)
            max_dev = 0.0
            if T == 0:
                max_dev = abs(table.value(0, belief))
            else:
                for a, q in zip(problem.action_set, oracle[T]):
                    max_dev = max(max_dev, abs(table.q(0, belief, a) - q))
            report.add(
                f"{name} T={T}: solver matches 2^T enumeration",
                max_dev <= ORACLE_TOL,
                max_abs_deviation=max_dev,
            )
    return report


def check_example21() -> Report:
    """Strict Q(Long) > Q(Neutral) > Q(Short) for a confident bull."""
    report = Report(suite="example21")
    for q in Q_GRID:
        for T in HORIZONS:
            problem = DecisionProblem(horizon=T, ticks=TICKS, initial_belief=Static(q))
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


def check_no_averaging() -> Report:
    """After a losing Long step, the snapped-to-the-tape belief must prefer
    Neutral to Long at the next stage; the gap is (u-d)(q-1/2) per unit tick
    scale. A counting prior need not flip; that contrast is reported as an
    informational case, never asserted."""
    report = Report(suite="averaging")
    for q in Q_GRID:
        for scale in TICK_SCALES:
            ticks = (TICKS[0] * scale, TICKS[1] * scale)
            for T in HORIZONS:
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
    problem = DecisionProblem(horizon=2, ticks=TICKS, initial_belief=prior)
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


def check_price() -> Report:
    """Backward-induction valuation vs path enumeration, plus the exact
    martingale and zero-payoff cases."""
    report = Report(suite="price")
    identity = DividendSpec(
        per_step_dividend=lambda t, level: 0.0,
        terminal_payoff=lambda level: level,
    )
    for T in (0, 1, 3, 5, PRICE_MAX_HORIZON):
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
        per_step_dividend=lambda t, level: 0.01 * level,
        terminal_payoff=lambda level: level,
    )
    model = MarketModel(u=2.0, d=-1.0, p_up=0.55)
    totals = expected_dividend_by_enumeration(model, coupon, PRICE_MAX_HORIZON)
    for T, enumerated in enumerate(totals):
        induced = price_process(model, coupon, T)
        report.add(
            f"coupon stream T={T}: induction matches enumeration",
            abs(induced - enumerated) <= ORACLE_TOL,
            induced=induced,
            enumerated=enumerated,
        )
    zero = DividendSpec(
        per_step_dividend=lambda t, level: 0.0,
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
