"""Finite-horizon subjective-belief trading toolkit: a backward-induction
Q-value solver over (time, belief) states, a seeded binomial market
simulator, a suite of trading policies, and mechanical verification of the
inequalities the framework rests on."""

from .actions import LONG, NEUTRAL, SHORT, Action, Move
from .beliefs import Belief, BetaBernoulli, Mirror, Static, belief_id
from .errors import (
    ConfigurationError,
    OtlError,
    ResourceLimitError,
    UnreachableStateError,
    ValidationError,
)
from .market import (
    DividendSpec,
    MarketModel,
    derive_path_seed,
    enumerate_paths,
    price_process,
)
from .mdp import DecisionProblem, QTable, solve_q
from .policies import Policy, bellman, make_policy
from .sim import ComparisonTable, SimConfig, SimResult, Stats, WealthPath, compare, run, summarize
from .verify import Report, check_bellman, check_example21, check_no_averaging, check_price

__version__ = "0.1.0"

__all__ = [
    "Action",
    "Belief",
    "BetaBernoulli",
    "ComparisonTable",
    "ConfigurationError",
    "DecisionProblem",
    "DividendSpec",
    "LONG",
    "MarketModel",
    "Mirror",
    "Move",
    "NEUTRAL",
    "OtlError",
    "Policy",
    "QTable",
    "Report",
    "ResourceLimitError",
    "SHORT",
    "SimConfig",
    "SimResult",
    "Static",
    "Stats",
    "UnreachableStateError",
    "ValidationError",
    "WealthPath",
    "belief_id",
    "bellman",
    "check_bellman",
    "check_example21",
    "check_no_averaging",
    "check_price",
    "compare",
    "derive_path_seed",
    "enumerate_paths",
    "make_policy",
    "price_process",
    "run",
    "solve_q",
    "summarize",
]
