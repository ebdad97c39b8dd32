"""An exact-arithmetic Bellman oracle with a stated error bound: the
recursion in `fractions.Fraction` over `Belief` objects, memoised on
(belief, t), against `solve_q`'s float Q_1(s_0, a) for every action.

It shares the recursion's structure with the solver, but not its lattice,
its arrays or its float order; the enumeration oracle in `otl.verify`,
which shares neither, stays."""

import itertools
import math
from fractions import Fraction

import pytest

from otl import LONG, NEUTRAL, SHORT, Action, BetaBernoulli, DecisionProblem, Mirror, Move, Static
from otl import solve_q
from otl.mdp import DEFAULT_ACTIONS
from closure import solve_over_closure
from test_beliefs import BetaSubclass

# solve_q's Q_1(s_0, a) lies within ULPS_PER_STEP * T ulps of max(|Q|, 1),
# the largest |Q| of the row at s_0, of the exact value: twice the worst,
# 2.0 ulp per step, measured over the 600 problems of the beliefs, ticks and
# action sets below at every T = 1..20 (Static(0.6), T=1, ticks ±10)
ULPS_PER_STEP = 4

BELIEFS = (
    Static(0.6),
    Mirror(0.6, Move.UP),
    BetaBernoulli(3.0, 2.0),
    BetaBernoulli(0.5, 2.5),
    BetaSubclass(3, 2),  # a subclass, int counts stored as floats: solved over the closure
)
TICKS = ((10.0, -10.0), (1.5, -0.5), (0.1, -0.3))
ACTION_SETS = (DEFAULT_ACTIONS, (NEUTRAL, LONG, SHORT, Action(2), Action(-3)))
# a Beta lattice at T >= 16 has a layer of more than mdp.SCALAR_MAX_ROWS
# rows, so it is solved by the numpy pass, and every shorter one by the
# scalar pass
HORIZONS = (1, 3, 7, 16, 20)


def exact_predictive(belief):
    """The belief's up-probability as a Fraction: a Beta's is the exact
    ratio of its float counts, any other kind's its float predictive."""
    if isinstance(belief, BetaBernoulli):
        alpha, beta = Fraction(belief.alpha), Fraction(belief.beta)
        return alpha / (alpha + beta)
    return Fraction(belief.predictive())


def exact_q(problem):
    """Q_1(s_0, a) for each action of the problem, in exact arithmetic."""
    u, d = map(Fraction, problem.ticks)
    actions, T = problem.action_set, problem.horizon
    rows = {}

    def row(b, t):
        if (b, t) not in rows:
            q = exact_predictive(b)
            v_up, v_dn = value(b.update(Move.UP), t + 1), value(b.update(Move.DOWN), t + 1)
            rows[b, t] = [
                q * (a.stake * u + v_up) + (1 - q) * (a.stake * d + v_dn) for a in actions
            ]
        return rows[b, t]

    def value(b, t):
        return Fraction(0) if t == T else max(row(b, t))

    return row(problem.initial_belief, 0)


def ulps_per_step(problem):
    """The largest error of solve_q's Q_1(s_0, a) over the actions, in ulps
    of max(|Q|, 1) per step of the horizon."""
    table, exact = solve_q(problem), exact_q(problem)
    b0 = problem.initial_belief
    errors = [abs(Fraction(table.q(0, b0, a)) - q) for a, q in zip(problem.action_set, exact)]
    ulp = math.ulp(max(*map(abs, map(float, exact)), 1.0))
    return float(max(errors)) / ulp / problem.horizon


def assert_within_bound(problem):
    assert ulps_per_step(problem) <= ULPS_PER_STEP, problem


def name(problem):
    return (
        f"{problem.initial_belief}-T{problem.horizon}-{problem.ticks}"
        f"-{len(problem.action_set)}actions"
    )


GRID = [
    DecisionProblem(horizon=T, ticks=ticks, initial_belief=b0, action_set=actions)
    for b0, T, ticks, actions in itertools.product(BELIEFS, HORIZONS, TICKS, ACTION_SETS)
    # the T >= 16 rows on a Beta only: a Static or Mirror solve is scalar at any T
    if T < 16 or isinstance(b0, BetaBernoulli)
]


@pytest.mark.parametrize("problem", GRID, ids=name)
def test_solver_is_within_the_bound_of_the_exact_recursion(problem, monkeypatch):
    solve_over_closure(monkeypatch, problem.initial_belief)
    assert_within_bound(problem)


def test_exact_recursion_is_exact():
    # Static(0.5) at ticks (1.5, -0.5): one long unit earns 0.5 a step, so
    # V after the first step is 0.5 (T - 1) and a stake k earns 0.5 k first
    problem = DecisionProblem(horizon=5, ticks=(1.5, -0.5), initial_belief=Static(0.5))
    assert exact_q(problem) == [2, Fraction(5, 2), Fraction(3, 2)]
