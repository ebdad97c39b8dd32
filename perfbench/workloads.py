"""The benchmark's four workloads.

Each workload is one ``otl`` CLI invocation. Its config text is generated
from the workload seed, so the program receives only the generated file.
The seed sets ``sim.seed``; the solver and the verifier read no seed, so
their outputs are the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Every workload trades ticks of +-10 under a true up-probability of 0.45.
MARKET = "market.u = 10\nmarket.d = -10\nmarket.p = 0.45\n"

STATS_COLUMNS = (
    "policy,mean_terminal,std_terminal,q05,q25,q50,q75,q95,"
    "mean_max_drawdown,ruin_fraction"
)


@dataclass(frozen=True)
class Output:
    """One output of an invocation and the size it must have.

    ``kind`` is ``csv`` (``rows`` data rows under ``header``), ``text``
    (``rows`` lines) or ``verify-json`` (``rows`` verifier cases).
    """

    kind: str
    rows: int
    header: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Config text without sim.seed, or None for a command that reads no config.
    config: str | None
    # CLI arguments; "{config}" and "{out:<name>}" are replaced by file paths.
    argv: tuple[str, ...]
    # Output name -> expected size. "stdout" is the captured standard output.
    outputs: dict[str, Output]
    # Work delivered by one invocation, in `unit`, for the throughput metric.
    work: int
    unit: str
    # The name the printed report gives this workload's throughput.
    throughput_name: str
    # True when the outputs depend on the workload seed.
    seeded: bool
    # Counts the traced run must reproduce exactly; "policies.decisions" is
    # the sum over actions, i.e. the path-step count.
    exact_counts: dict[str, int] = field(default_factory=dict)

    def config_text(self, seed: int) -> str | None:
        if self.config is None:
            return None
        return self.config + f"sim.seed = {seed}\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-beta",
            why=(
                "The belief lattice, the backward pass and the Q-table export do "
                "nearly all the work and the simulator does none, so a solver or "
                "export change shows here and is predicted flat on simulate-cutloss."
            ),
            config=MARKET
            + "problem.horizon = 300\nbelief.kind = beta\nbelief.alpha = 1\nbelief.beta = 1\n",
            argv=("solve", "--config", "{config}", "--out", "{out:qtable}"),
            outputs={
                "qtable": Output("csv", 135_450, "t,belief_id,action,q_value,is_optimal"),
                "stdout": Output("text", 180_600),
            },
            work=135_450,
            unit="rows",
            throughput_name="qrows_per_s",
            seeded=False,
            exact_counts={"mdp.stage_states": 45_451, "mdp.q_entries": 135_450},
        ),
        Workload(
            name="simulate-cutloss",
            why=(
                "The simulator bench and the write-heavy use of sim: sampling, "
                "per-step decisions, step records and the path-CSV writer "
                "dominate while the solver is idle."
            ),
            config=MARKET
            + "problem.horizon = 20\nbelief.kind = mirror\nbelief.confidence = 0.6\n"
            + "sim.paths = 100000\n",
            argv=(
                "simulate", "--config", "{config}", "--policy", "cutloss",
                "--out", "{out:paths}", "--stats-out", "{out:stats}",
            ),
            outputs={
                "paths": Output("csv", 2_000_000, "path_id,t,move,action,size,reward,wealth"),
                "stats": Output("csv", 1, STATS_COLUMNS),
                "stdout": Output("text", 6),
            },
            work=2_000_000,
            unit="steps",
            throughput_name="path_steps_per_s",
            seeded=True,
            exact_counts={"market.paths_sampled": 100_000, "policies.decisions": 2_000_000},
        ),
        Workload(
            name="compare-crn",
            why=(
                "The simulator with no per-path output: each bellman step reads the "
                "Q-table and builds a beta belief, and paths are kept only for stats, "
                "so streaming or batching sim shows here; CSV speed does not."
            ),
            config=MARKET
            + "problem.horizon = 40\nbelief.kind = beta\nbelief.alpha = 3\nbelief.beta = 2\n"
            + "sim.paths = 10000\n",
            argv=(
                "compare", "--config", "{config}",
                "--policies", "bellman,cutloss,avgdown", "--out", "{out:stats}",
            ),
            outputs={
                "stats": Output("csv", 3, STATS_COLUMNS),
                "stdout": Output("text", 21),
            },
            work=1_200_000,
            unit="steps",
            throughput_name="path_steps_per_s",
            seeded=True,
            exact_counts={"market.paths_sampled": 30_000, "policies.decisions": 1_200_000},
        ),
        Workload(
            name="verify-all",
            why=(
                "Many tiny solves (T <= 9), so per-call overhead counts rather than "
                "per-state throughput; the only workload that runs verify, the 2^T "
                "enumeration oracles and price_process."
            ),
            config=None,
            argv=("verify", "--suite", "all", "--json", "{out:report}"),
            outputs={
                "report": Output("verify-json", 228),
                "stdout": Output("text", 237),
            },
            work=228,
            unit="cases",
            throughput_name="verify_cases_per_s",
            seeded=False,
            exact_counts={"verify.cases": 228, "mdp.solve_calls": 208},
        ),
    )
}
