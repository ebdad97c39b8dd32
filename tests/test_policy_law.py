"""Exact policy evaluation under the true measure: the law of (automaton
state, wealth, ruined) pushed forward one move at a time under the market's
p_up, a seed-free oracle for the simulator's mean terminal wealth and ruin
fraction."""

import math
from collections import defaultdict

import pytest

from otl import (
    BetaBernoulli,
    DecisionProblem,
    MarketModel,
    Mirror,
    Static,
    compare,
    make_policy,
    solve_q,
)
from otl.sim import SimConfig

from test_mdp import occupancy_value

TICKS = (10.0, -10.0)
MODEL = MarketModel(u=10.0, d=-10.0, p_up=0.45, initial_wealth=1000.0)
CRITERION_6 = DecisionProblem(horizon=20, ticks=TICKS, initial_belief=Static(0.6))
COMPARE_CRN = DecisionProblem(horizon=40, ticks=TICKS, initial_belief=BetaBernoulli(3.0, 2.0))

# (problem, policy) -> (exact mean terminal wealth, exact ruin, support size
# of the law at T), each to the digits stated
EXACT = {
    ("criterion-6", "cutloss"): (990.45, 0.0, 58),
    ("criterion-6", "avgdown"): (911.153948, 0.1029570, 491),
    ("compare-crn", "bellman"): (1003.3678828, 0.0, 467),
    ("compare-crn", "cutloss"): (981.45, 0.0, 118),
    ("compare-crn", "avgdown"): (806.282238, 0.2237716, 3166),
}
PROBLEMS = {"criterion-6": CRITERION_6, "compare-crn": COMPARE_CRN}

# a Monte Carlo mean or ruin fraction may lie this many standard errors from
# the exact value; a false alarm has odds of about 6e-5 per check
Z_BOUND = 4.0
# (problem, paths, seed) of the Monte Carlo runs, fixed before they were run
MC_RUNS = [("criterion-6", 4_000, 99), ("compare-crn", 1_000, 1)]


def policy_law(policy, model, horizon):
    """{(state, wealth, ruined): probability} after `horizon` moves from
    state 0, under model.p_up. Wealth steps as `sim.replay` steps it, so a
    key's wealth is the float a simulated path ends on, and keys merge only
    on equal floats."""
    p, u, d = model.p_up, model.u, model.d
    law = {(0, model.initial_wealth, False): 1.0}
    for _ in range(horizon):
        nxt = defaultdict(float)
        for (state, wealth, ruined), prob in law.items():
            stake = policy.act[state].stake
            for tick, child, weight in ((u, policy.up[state], p), (d, policy.down[state], 1.0 - p)):
                after = wealth + stake * tick
                nxt[child, after, ruined or after <= 0] += prob * weight
        law = nxt
    return law


def exact_stats(policy, model, horizon):
    """(mean, std, ruin, support size) of the terminal law."""
    law = policy_law(policy, model, horizon)
    mean = math.fsum(prob * wealth for (_, wealth, _), prob in law.items())
    var = math.fsum(prob * (wealth - mean) ** 2 for (_, wealth, _), prob in law.items())
    ruin = math.fsum(prob for (_, _, ruined), prob in law.items() if ruined)
    return mean, math.sqrt(var), ruin, len(law)


def wealth_law(policy, model, horizon):
    """[(terminal wealth, probability)] in increasing wealth, one per wealth."""
    law = defaultdict(float)
    for (_, wealth, _), prob in policy_law(policy, model, horizon).items():
        law[wealth] += prob
    return sorted(law.items())


def exact_quantile(law, p):
    """The least terminal wealth w with P(W <= w) >= p: the first for
    p <= 0, the last for p >= 1."""
    cdf = 0.0
    for wealth, prob in law:
        cdf += prob
        if cdf >= p:
            return wealth
    return wealth


def assert_exact(config, kind):
    """The exact law of policy `kind` on `config` has the stated mean, ruin
    and support, each to half a unit of its last stated digit."""
    want_mean, want_ruin, want_states = EXACT[config, kind]
    prob = PROBLEMS[config]
    mean, _, ruin, states = exact_stats(make_policy(kind, prob), MODEL, prob.horizon)
    assert mean == pytest.approx(want_mean, abs=5e-8 if kind == "bellman" else 5e-7)
    assert ruin == pytest.approx(want_ruin, abs=5e-8)
    assert states == want_states


@pytest.mark.parametrize("config, kind", EXACT)
def test_exact_law_has_the_stated_mean_and_ruin(config, kind):
    assert_exact(config, kind)


@pytest.mark.parametrize("config, n_paths, seed", MC_RUNS)
def test_monte_carlo_lies_within_the_bound_of_the_exact_law(config, n_paths, seed):
    prob = PROBLEMS[config]
    kinds = [kind for c, kind in EXACT if c == config]
    table = compare([make_policy(k, prob) for k in kinds], MODEL, SimConfig(prob, n_paths, seed))
    for kind, result in zip(kinds, table.results):
        mean, std, ruin, _ = exact_stats(make_policy(kind, prob), MODEL, prob.horizon)
        got = result.stats
        assert abs(got.mean_terminal - mean) <= Z_BOUND * std / math.sqrt(n_paths), kind
        # binomial standard error; an exact ruin of 0 must read 0
        ruin_se = math.sqrt(ruin * (1 - ruin) / n_paths)
        assert abs(got.ruin_fraction - ruin) <= Z_BOUND * ruin_se, kind


@pytest.mark.parametrize("config, n_paths, seed", MC_RUNS)
def test_monte_carlo_std_and_quantiles_lie_within_the_bound_of_the_exact_law(
    config, n_paths, seed
):
    prob = PROBLEMS[config]
    kinds = [kind for c, kind in EXACT if c == config]
    table = compare([make_policy(k, prob) for k in kinds], MODEL, SimConfig(prob, n_paths, seed))
    for kind, result in zip(kinds, table.results):
        law = wealth_law(make_policy(kind, prob), MODEL, prob.horizon)
        mean = math.fsum(p * w for w, p in law)
        sigma = math.sqrt(math.fsum(p * (w - mean) ** 2 for w, p in law))
        mu4 = math.fsum(p * (w - mean) ** 4 for w, p in law)
        # the sample std's standard error, by the delta method on the variance
        std_se = math.sqrt((mu4 - sigma**4) / n_paths) / (2 * sigma)
        got = result.stats
        assert abs(got.std_terminal - sigma) <= Z_BOUND * std_se, kind
        # the sample p-quantile lies between the exact quantiles at p plus or
        # minus Z_BOUND binomial standard errors of the empirical CDF at p
        for p, q in zip((0.05, 0.25, 0.5, 0.75, 0.95), got.quantiles()):
            half = Z_BOUND * math.sqrt(p * (1 - p) / n_paths)
            assert exact_quantile(law, p - half) <= q <= exact_quantile(law, p + half), (kind, p)


# value of learning under misspecification (README): a solved policy's
# subjective V(s_0) against its exact mean P&L when the true p_up is 0.45,
# ticks ±10, each to half a unit of its last stated digit
MISSPECIFIED = [
    (BetaBernoulli(1.0, 1.0), 1000, 4964.1044, 900.2713),
    (BetaBernoulli(1.0, 1.0), 300, 1470.1127, 214.0406),
    (Static(0.6), 1000, 2000.0, -1000.0),
    (Mirror(0.6), 1000, 2000.0, 98.9),
]


@pytest.mark.parametrize("b0, T, value, mean_pnl", MISSPECIFIED, ids=repr)
def test_value_of_learning_under_misspecification(b0, T, value, mean_pnl):
    table = solve_q(DecisionProblem(horizon=T, ticks=TICKS, initial_belief=b0))
    assert table.value(0, b0) == pytest.approx(value, abs=5e-5)
    assert occupancy_value(table, MODEL.p_up) == pytest.approx(mean_pnl, abs=5e-5)
    # with no edge in the market, no policy makes money on average
    assert occupancy_value(table, 0.5) == 0.0
