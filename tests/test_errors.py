import numpy as np
import pytest

from otl import (
    LONG,
    Action,
    BetaBernoulli,
    DecisionProblem,
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
    per_step_dividend=lambda t, level: 0.0, terminal_payoff=lambda level: level
)


def problem(horizon=5, belief=Static(0.6), ticks=TICKS, **kwargs):
    return DecisionProblem(horizon=horizon, ticks=ticks, initial_belief=belief, **kwargs)


# case id -> (a call that rejects H or -H, the error a small bad value raises)
CASES = {
    "Static": (lambda: Static(H), ValidationError),
    "Mirror": (lambda: Mirror(H), ValidationError),
    "MarketModel-p_up": (lambda: MarketModel(u=1.0, d=-1.0, p_up=H), ValidationError),
    "DecisionProblem-horizon": (lambda: problem(horizon=-H), ValidationError),
    "Action-long": (lambda: Action(H), ValidationError),
    "Action-short": (lambda: Action(-H), ValidationError),
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


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Static("a"), "Static q_up must be in (0,1), got 'a'"),
        (lambda: Mirror(None), "Mirror confidence must be in [0.5,1), got None"),
        (lambda: BetaBernoulli(1.0, "a"), "BetaBernoulli beta must be finite, got 'a'"),
        (lambda: MarketModel(u=1.0, d=-1.0, p_up=[0.5]), "p_up must be in [0,1], got [0.5]"),
    ],
    ids=["Static", "Mirror", "BetaBernoulli", "MarketModel-p_up"],
)
def test_non_numbers_are_validation_errors_naming_the_field(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call,field",
    [
        (lambda: Action(2.5), "action stake"),
        (lambda: problem(horizon=2.5), "horizon"),
        (lambda: SimConfig(problem(), 2.5, 0), "n_paths"),
        (lambda: SimConfig(problem(), 1, 2.5), "master_seed"),
        (lambda: enumerate_paths(MODEL, 2.5), "horizon"),
        (lambda: price_process(MODEL, DIVIDENDS, 2.5), "horizon"),
    ],
    ids=[
        "Action-stake",
        "DecisionProblem-horizon",
        "SimConfig-n_paths",
        "SimConfig-master_seed",
        "enumerate_paths",
        "price_process",
    ],
)
def test_integer_fields_reject_non_integers(call, field):
    with pytest.raises(ValidationError, match=f"^{field} must be an integer, got 2.5$"):
        call()


def test_integer_fields_accept_numpy_ints():
    assert Action(np.int64(2)) == Action(2)
    assert problem(horizon=np.int32(3)).horizon == 3
    assert SimConfig(problem(), np.int64(4), np.uint8(7)).n_paths == 4


@pytest.mark.parametrize("ticks", [[10.0, -10.0], np.array(TICKS)])
def test_problem_ticks_are_kept_as_a_tuple(ticks):
    prob = problem(ticks=ticks)
    assert prob.ticks == TICKS and type(prob.ticks) is tuple
    assert hash(prob) == hash(problem())


@pytest.mark.parametrize("ticks", [(10.0, -10.0, 3.0), (10.0,), 10.0, None, ("u", "d")])
def test_problem_ticks_must_be_a_pair_of_numbers(ticks):
    with pytest.raises(ValidationError, match="DecisionProblem ticks"):
        problem(ticks=ticks)
