"""Per-layer metrics derived from one traced invocation.

Span names are "<layer>.<function>" or "<layer>.<Class>.<method>", as
child.py records them. Each metric below names the end-to-end metric it
should move and the workload where it should move it (see README.md).
"""

from __future__ import annotations

from spantrace import Spans

# Actions the shipped policies return: bellman picks neutral/long/short,
# avgdown doubles its stake up to 2**6.
ACTIONS = ("neutral", "long", "short", "longx2", "longx4", "longx8", "longx16", "longx32", "longx64")
SUITES = ("bellman", "example21", "averaging", "price")


def _named(*names):
    return lambda n: n in names


def _method(layer, attr):
    return lambda n: n.startswith(layer + ".") and n.endswith("." + attr)


# metric -> (derivation, span-name predicate); "busy" is the union of the
# spans' intervals, "self" excludes child spans, "calls" counts spans.
SPAN_METRICS = {
    "config.load_s": ("busy", _named("config.load_config")),
    "beliefs.update_calls": ("calls", _method("beliefs", "update")),
    "beliefs.update_s": ("busy", _method("beliefs", "update")),
    "beliefs.predictive_calls": ("calls", _method("beliefs", "predictive")),
    "mdp.solve_calls": ("calls", _named("mdp.solve_q")),
    "mdp.solve_s": ("busy", _named("mdp.solve_q")),
    "mdp.reachable_beliefs_s": ("busy", _method("mdp", "reachable_beliefs")),
    "mdp.optimal_action_calls": ("calls", _method("mdp", "optimal_action")),
    "mdp.optimal_action_s": ("busy", _method("mdp", "optimal_action")),
    "mdp.q_calls": ("calls", _method("mdp", "q")),
    "market.paths_sampled": ("calls", _named("market.sample_moves")),
    "market.sample_s": ("busy", _named("market.sample_moves")),
    "market.seed_s": ("busy", _named("market.derive_path_seed")),
    "market.enumerate_s": (
        "busy",
        _named("market.enumerate_paths", "market.expected_dividend_by_enumeration"),
    ),
    "market.price_process_s": ("busy", _named("market.price_process")),
    "policies.decide_s": ("busy", _method("policies", "decide")),
    "policies.make_policy_s": ("busy", _named("policies.make_policy")),
    "sim.run_s": ("busy", _named("sim.run")),
    "sim.replay_self_s": ("self", _named("sim.replay")),
    "sim.summarize_s": ("busy", _named("sim.summarize")),
    "sim.compare_self_s": ("self", _named("sim.compare")),
    "cli.output_s": ("self", _named("cli.main")),
    **{f"verify.suite_s.{s}": ("busy", _named(f"verify.suite.{s}")) for s in SUITES},
    "verify.oracle_s": ("busy", _named("verify.enumeration_q")),
}

# Counts child.py takes from the results of the traced calls.
RESULT_COUNTS = (
    "mdp.stage_states",
    "mdp.q_entries",
    *(f"policies.decisions.{a}" for a in ACTIONS),
    "sim.retained_records",
    "sim.ruined_paths",
    "verify.cases",
    "verify.cases_failed",
)

# Measured outside the spans: by run.py, or by the peak-memory probes.
OTHER = {
    "mdp.peak_alloc_mb": "MB",
    "sim.peak_alloc_mb": "MB",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def unit(metric: str) -> str:
    if metric in OTHER:
        return OTHER[metric]
    if metric in SPAN_METRICS and SPAN_METRICS[metric][0] != "calls":
        return "s"
    return "count"


METRICS = (*SPAN_METRICS, *RESULT_COUNTS, *OTHER)


def span_metrics(spans: Spans) -> dict[str, float]:
    out = {}
    for metric, (how, predicate) in SPAN_METRICS.items():
        if how == "busy":
            out[metric] = spans.busy(predicate)
        elif how == "self":
            out[metric] = spans.self_time(predicate)
        else:
            out[metric] = spans.count(predicate)
    return out


def result_counts(counts: dict[str, int]) -> dict[str, int]:
    return {k: counts.get(k, 0) for k in RESULT_COUNTS}
