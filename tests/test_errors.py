import pytest

from otl import (
    LONG,
    Action,
    BetaBernoulli,
    DecisionProblem,
    Direction,
    DividendSpec,
    MarketModel,
    Mirror,
    ResourceLimitError,
    Static,
    UnreachableStateError,
    ValidationError,
    enumerate_paths,
    price_process,
    solve_q,
)
from otl.sim import SimConfig

# an int with more digits than Python converts to a string (4,300)
H = 10**5000
TICKS = (10.0, -10.0)
MODEL = MarketModel(u=1.0, d=-1.0, p_up=0.5)
DIVIDENDS = DividendSpec(
    per_step_dividend=lambda t, a, level: 0.0, terminal_payoff=lambda level: level
)


def problem(horizon=5, belief=Static(0.6), **kwargs):
    return DecisionProblem(horizon=horizon, ticks=TICKS, initial_belief=belief, **kwargs)


# case id -> (a call that rejects H or -H, the error a small bad value raises)
CASES = {
    "Static": (lambda: Static(H), ValidationError),
    "Mirror": (lambda: Mirror(H), ValidationError),
    "MarketModel-p_up": (lambda: MarketModel(u=1.0, d=-1.0, p_up=H), ValidationError),
    "DecisionProblem-horizon": (lambda: problem(horizon=-H), ValidationError),
    "DecisionProblem-discount": (lambda: problem(per_step_discount=H), ValidationError),
    "Action-size": (lambda: Action(Direction.LONG, -H), ValidationError),
    "SimConfig-n_paths-low": (lambda: SimConfig(problem(), -H, 0), ValidationError),
    "SimConfig-n_paths-high": (lambda: SimConfig(problem(), H, 0), ResourceLimitError),
    "SimConfig-horizon": (lambda: SimConfig(problem(horizon=H), 1, 0), ResourceLimitError),
    "solve_q-static": (lambda: solve_q(problem(horizon=H)), ResourceLimitError),
    "solve_q-beta": (
        lambda: solve_q(problem(horizon=H, belief=BetaBernoulli(3.0, 2.0))),
        ResourceLimitError,
    ),
    "enumerate_paths": (lambda: enumerate_paths(MODEL, H), ResourceLimitError),
    "price_process": (lambda: price_process(MODEL, DIVIDENDS, H), ResourceLimitError),
    "QTable-q": (lambda: solve_q(problem()).q(H, Static(0.6), LONG), UnreachableStateError),
    "QTable-value": (lambda: solve_q(problem()).value(-H, Static(0.6)), UnreachableStateError),
}


@pytest.mark.parametrize("call,error", list(CASES.values()), ids=list(CASES))
def test_int_beyond_float64_is_named_in_the_message(call, error):
    # str() of such an int raises ValueError, which would replace the error
    with pytest.raises(error, match="an int beyond float64"):
        call()


def test_small_rejected_values_are_printed():
    with pytest.raises(ValidationError, match=r"got 2$"):
        Static(2)
    with pytest.raises(ResourceLimitError, match="horizon 21 exceeds"):
        enumerate_paths(MODEL, 21)
