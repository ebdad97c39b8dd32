"""One invocation of the otl CLI in a fresh interpreter; run.py starts it.

usage: python3 perfbench/child.py MODE RESULT [ARGS...]

  setup RESULT [CONFIG]  import otl and, given a config, load it and build
                         the market, problem and sim config; RESULT gets the
                         CLOCK_MONOTONIC reading at that point, and then the
                         machine's speed (SpeedProbe).
  plain RESULT ARGS...   run otl.cli.main(ARGS) untraced, sampling the
                         machine's speed while it runs (SpeedProbe).
  trace RESULT ARGS...   the same, recording a span around each call to the
                         public functions of every layer and counts taken
                         from their results; the spans go to RESULT.spans.
  rss   RESULT ARGS...   the same, recording how far each solve_q and run
                         call raises the process's peak resident memory.

The otl source is taken from src/ next to this directory, never from an
installed copy. RESULT is JSON; standard output belongs to the command.
"""

import os
import signal
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


# The speed probe: a fixed piece of pure-Python work, ~0.4 ms on the
# reference machine, timed now and then to read how fast the machine runs.
# It mixes the interpreter paths otl itself spends its time in (tuple keys,
# dict updates, float arithmetic and formatting, list sort and join), so it
# slows as the program does when other tenants contend for the host; a loop
# of integer arithmetic alone slowed less than the program did. Its working
# set is a few KiB, so its time does not depend on the program's own use of
# the caches.
SPEED_LOOP_N = 120
# How often the probe runs during a command (~2% of its time).
SPEED_INTERVAL_S = 0.02
# How long a set-up probe samples the speed once its inputs are ready.
SETUP_SPEED_S = 0.1


def speed_loop():
    table = {}
    rows = []
    x = 0.5
    for i in range(SPEED_LOOP_N):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0.0) + x
        x = x * 0.999 + 0.001
        rows.append(f"{i},{x!r},{table[key]:.6f}")
    rows.sort()
    return len("".join(rows))


class SpeedProbe:
    """Time speed_loop every SPEED_INTERVAL_S seconds while a command runs,
    from a SIGALRM handler, i.e. in its own thread between its bytecodes.

    On a shared host the machine's speed drifts by 20-30% over minutes; the
    mean probe time over the command is the speed it ran at, measured on
    the same core at the same moments, and the time spent probing is
    subtracted from the command's."""

    def __init__(self):
        self.times = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        speed_loop()
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        speed_loop()  # let the interpreter specialise the loop first
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def report(self):
        """(seconds spent probing, mean probe time or None)."""
        total = sum(self.times)
        return total, (total / len(self.times) if self.times else None)


def _setup(config_path):
    import otl  # noqa: F401  (importing is part of set-up)

    if config_path is not None:
        from otl.config import load_config

        cfg = load_config(config_path)
        cfg.market()
        cfg.problem()
        cfg.sim_config()
    ready = time.monotonic()
    # Probe the speed as a command does, here over an idle loop: run back to
    # back, speed_loop stays in the caches and reads about twice as fast.
    with SpeedProbe() as probe:
        end = time.perf_counter() + SETUP_SPEED_S
        while time.perf_counter() < end:
            pass
    return {"ready": ready, "probe_s": probe.report()[1]}


def _peak_rss_kb():
    """Peak resident memory of this process since exec (VmHWM), in KiB.

    Not ru_maxrss: Linux carries the starting process's peak across exec,
    so that would never read below the benchmark's own peak."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _otl_modules():
    return [m for name, m in sys.modules.items() if name == "otl" or name.startswith("otl.")]


def _rebind(original, replacement):
    """Point every otl module name bound to `original` at `replacement`,
    since modules import functions by name (`from .mdp import solve_q`)."""
    for module in _otl_modules():
        for attr in [k for k, v in vars(module).items() if v is original]:
            setattr(module, attr, replacement)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _install_spans(rec):
    """Wrap the public functions of each layer; return a function that
    collects the counts taken from their results."""
    from otl import config, market, mdp, policies, sim, verify
    from otl.beliefs import Belief

    counts = {"mdp.stage_states": 0, "mdp.q_entries": 0}
    decisions = {}
    sim_results = []
    reports = []

    def count_solve(table):
        counts["mdp.stage_states"] += len(table.values)
        counts["mdp.q_entries"] += len(table.entries)

    def count_decision(action):
        decisions[action] = decisions.get(action, 0) + 1

    def function(module, attr, after=None):
        original = getattr(module, attr)
        layer = module.__name__.split(".")[-1]
        _rebind(original, rec.wrap(f"{layer}.{attr}", original, after))

    def method(cls, attr, layer, after=None):
        for c in [cls, *_subclasses(cls)]:
            if attr in vars(c):
                setattr(c, attr, rec.wrap(f"{layer}.{c.__name__}.{attr}", vars(c)[attr], after))

    function(config, "load_config")
    function(mdp, "solve_q", count_solve)
    for attr in ("reachable_beliefs", "optimal_action", "q"):
        method(mdp.QTable, attr, "mdp")
    method(Belief, "update", "beliefs")
    method(Belief, "predictive", "beliefs")
    for attr in (
        "sample_moves",
        "derive_path_seed",
        "enumerate_paths",
        "expected_dividend_by_enumeration",
        "price_process",
    ):
        function(market, attr)
    method(policies.Policy, "decide", "policies", count_decision)
    function(policies, "make_policy")
    function(sim, "run", sim_results.append)
    for attr in ("replay", "summarize", "compare"):
        function(sim, attr)
    for key, check in list(verify.SUITES.items()):
        traced = rec.wrap(f"verify.suite.{key}", check, reports.append)
        verify.SUITES[key] = traced
        _rebind(check, traced)
    function(verify, "enumeration_q")

    def collect():
        paths = [p for r in sim_results for p in r.paths]
        counts["sim.retained_records"] = sum(len(p.steps) for p in paths)
        counts["sim.ruined_paths"] = sum(p.ruined() for p in paths)
        for action, n in decisions.items():
            counts[f"policies.decisions.{action}"] = n
        cases = [c for rep in reports for c in rep.cases]
        counts["verify.cases"] = len(cases)
        counts["verify.cases_failed"] = sum(
            not c.passed and not c.informational for c in cases
        )
        return counts

    return collect


def _install_rss_probes(counts):
    """Add to counts[key] the rise in the process's peak RSS (KiB) during
    each solve_q and run call: the part of the peak those calls set."""
    from otl import mdp, sim

    def probe(key, fn):
        def probed(*args, **kwargs):
            before = _peak_rss_kb()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[key] += _peak_rss_kb() - before

        return probed

    _rebind(mdp.solve_q, probe("mdp.peak_rss_added_kb", mdp.solve_q))
    _rebind(sim.run, probe("sim.peak_rss_added_kb", sim.run))


def _invoke(mode, result_path, argv):
    from otl.cli import main

    def command():
        rc = main(argv)
        sys.stdout.flush()
        return rc

    out = {}
    if mode == "trace":
        from spantrace import SpanRecorder

        rec = SpanRecorder()
        collect = _install_spans(rec)
        command = rec.wrap("cli.main", command)
    elif mode == "rss":
        out["counts"] = {"mdp.peak_rss_added_kb": 0, "sim.peak_rss_added_kb": 0}
        _install_rss_probes(out["counts"])
    if mode == "plain":
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            rc = command()
            wall = time.perf_counter() - t0
        probing_s, out["probe_s"] = probe.report()
        out["command_s"] = wall - probing_s
    else:
        t0 = time.perf_counter()
        rc = command()
        out["command_s"] = time.perf_counter() - t0
    out["rc"] = rc
    if mode == "trace":
        out["counts"] = collect()
        rec.save(result_path + ".spans")
    out["peak_rss_kb"] = _peak_rss_kb()
    return out


def main():
    mode, result_path, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "setup":
        out = _setup(args[0] if args else None)
    else:
        out = _invoke(mode, result_path, args)
    import json

    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return out.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
