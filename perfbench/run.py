"""Benchmark of the otl command-line tool.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses the otl package under
src/ and writes only under .perfbench/. Each invocation of the CLI runs in a
fresh interpreter (perfbench/child.py), one at a time: a closed loop with a
single client. Every output of every invocation passes the gate in gate.py.

--trace 0 makes untraced invocations for S seconds and prints the
end-to-end metrics. Times are scaled to the reference machine speed by the
speed probe in child.py (see README.md).
--trace 1 alternates invocations with only peak-memory probes and traced
invocations for S seconds, and prints the per-layer metrics of layers.py.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import spantrace
from gate import Checked, check_output
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"
# A run must end within 180 s; children still running at this point are killed.
DEADLINE_S = 170.0
SETUP_PROBES = 10
# Mean time of child.speed_loop, as child.SpeedProbe times it, on the
# reference machine (2 cores, Python 3.11.7) at its usual speed. A time measured while the probe took p seconds
# is scaled by REFERENCE_PROBE_S / p: it reads as the time the same work
# would take on the reference machine at that speed.
REFERENCE_PROBE_S = 0.4e-3


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


@dataclass
class Invocation:
    mode: str
    command_s: float | None = None
    probe_s: float | None = None
    peak_rss_mb: float | None = None
    counts: dict = field(default_factory=dict)
    outputs: list[Checked] = field(default_factory=list)
    layer_metrics: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class Bench:
    """One run of one workload: its generated config, its work directory and
    the reference outputs that apply to its seed, if any."""

    def __init__(self, wl: Workload, seed: int, reference: dict | None):
        self.wl = wl
        self.reference = reference
        self.start = time.monotonic()
        self.dir = WORK / wl.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        text = wl.config_text(seed)
        self.config = None
        if text is not None:
            self.config = self.dir / "run.cfg"
            self.config.write_text(text)

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def _child(self, mode: str, args: list[str], stdout_path) -> int | None:
        """Run child.py to completion; None if it ran past the deadline."""
        cmd = [sys.executable, str(HERE / "child.py"), mode, *args]
        with open(stdout_path, "wb") as out:
            proc = subprocess.Popen(cmd, stdout=out, cwd=ROOT)
            try:
                return proc.wait(timeout=max(self.remaining(), 0.1))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return None

    def setup_probe(self) -> tuple[float, float]:
        """Seconds from starting an interpreter until its inputs are ready,
        as measured and scaled to the reference speed."""
        result = self.dir / "setup.json"
        args = [str(result)] + ([str(self.config)] if self.config else [])
        start = time.monotonic()
        if self._child("setup", args, os.devnull) != 0:
            raise BenchError("the set-up probe failed")
        data = json.loads(result.read_text())
        raw = data["ready"] - start
        return raw, raw * REFERENCE_PROBE_S / data["probe_s"]

    def invoke(self, mode: str) -> Invocation:
        wl = self.wl
        result = self.dir / f"{mode}.json"
        outs = {name: self.dir / f"{name}.out" for name in wl.outputs}
        for path in [result, *outs.values()]:
            path.unlink(missing_ok=True)

        def fill(arg: str) -> str:
            if arg == "{config}":
                return str(self.config)
            if arg.startswith("{out:"):
                return str(outs[arg[len("{out:") : -1]])
            return arg

        argv = [fill(a) for a in wl.argv]
        rc = self._child(mode, [str(result), *argv], outs["stdout"])
        inv = Invocation(mode)
        if rc is None:
            inv.problems.append("killed at the run deadline")
        elif rc != 0:
            inv.problems.append(f"exit status {rc}")
        try:
            data = json.loads(result.read_text())
        except (OSError, ValueError):
            data = {}
            inv.problems.append("the child left no result")
        inv.command_s = data.get("command_s")
        inv.probe_s = data.get("probe_s")
        if "peak_rss_kb" in data:
            inv.peak_rss_mb = data["peak_rss_kb"] / 1024
        inv.counts = data.get("counts", {})
        for name, spec in wl.outputs.items():
            ref = self.reference[name] if self.reference else None
            checked = check_output(name, spec, str(outs[name]), ref)
            inv.outputs.append(checked)
            inv.problems += [f"{name}: {p}" for p in checked.problems]
            outs[name].unlink(missing_ok=True)  # the path CSV is 67 MB
        if mode == "trace" and data:
            inv.layer_metrics = self._layer_metrics(inv, Path(str(result) + ".spans"))
        return inv

    def _layer_metrics(self, inv: Invocation, spans_path: Path) -> dict:
        metrics = layers.span_metrics(spantrace.load(str(spans_path)))
        metrics.update(layers.result_counts(inv.counts))
        metrics["cli.output_bytes"] = sum(c.nbytes for c in inv.outputs)
        for key, want in self.wl.exact_counts.items():
            if key == "policies.decisions":
                got = sum(metrics[f"policies.decisions.{a}"] for a in layers.ACTIONS)
            else:
                got = metrics[key]
            if got != want:
                inv.problems.append(f"count {key} = {got}, expected {want}")
        return metrics


def _rounds(bench: Bench, seconds: float, modes: tuple[str, ...]) -> list[Invocation]:
    """Invoke `modes` in turn, round after round, for `seconds`: another
    round starts only if one as long as the longest so far still fits."""
    done: list[Invocation] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        t = time.monotonic()
        done += [bench.invoke(m) for m in modes]
        longest = max(longest, time.monotonic() - t)
        used = time.monotonic() - start
        if used + longest > seconds or bench.remaining() < 2 * longest:
            return done


def _timed(invs: list[Invocation]) -> list[Invocation]:
    timed = [i for i in invs if i.command_s is not None and i.peak_rss_mb is not None]
    if not timed:
        raise BenchError("no invocation completed: " + "; ".join(invs[0].problems))
    return timed


def plain_run(bench: Bench, seconds: float) -> tuple[list[Invocation], dict]:
    """End-to-end metrics: medians over the run of times scaled to the
    reference speed. On the reference machine (2 shared cores) the speed
    drifts by 20-30% over minutes as other tenants come and go, so raw
    times of runs a few minutes apart differ by more than any change worth
    resolving; the human-readable lines print them too."""
    wl = bench.wl
    bench.setup_probe()  # untimed: the first import writes the bytecode cache
    # Half the probes before the invocations and half after.
    setups = [bench.setup_probe() for _ in range(SETUP_PROBES // 2)]
    invs = _rounds(bench, seconds, ("plain",))
    setups += [bench.setup_probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    timed = [i for i in _timed(invs) if i.probe_s is not None]
    if not timed:
        raise BenchError("no invocation lasted long enough to be probed")
    raw = statistics.median(i.command_s for i in timed)
    scaled = statistics.median(i.command_s * REFERENCE_PROBE_S / i.probe_s for i in timed)
    work_per_s = wl.work / scaled
    setup_s = statistics.median(s for _, s in setups)
    peak_rss_mb = statistics.median(i.peak_rss_mb for i in timed)
    failed = sum(bool(i.problems) for i in invs)
    speed = statistics.median(REFERENCE_PROBE_S / i.probe_s for i in timed)
    print(f"machine speed = {speed:.4f} of the reference (median over {len(timed)} invocations)")
    print(
        f"setup_s = {setup_s:.6f} s (median of {len(setups)} probes; "
        f"{statistics.median(r for r, _ in setups):.6f} s as measured)"
    )
    print(
        f"{wl.throughput_name} = {work_per_s:.3f} {wl.unit}/s "
        f"({wl.work} {wl.unit} per invocation; median of {len(timed)}; "
        f"{wl.work / raw:.3f} as measured)"
    )
    print(f"peak_rss_mb = {peak_rss_mb:.3f} MB")
    print(f"ops_failed_frac = {failed}/{len(invs)} = {failed / len(invs):.6f} ratio")
    metrics = {
        "work_per_s": (work_per_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return invs, metrics


def trace_run(bench: Bench, seconds: float) -> tuple[list[Invocation], dict]:
    invs = _rounds(bench, seconds, ("rss", "trace"))
    baseline = _timed([i for i in invs if i.mode == "rss"])
    traced = [i for i in _timed([i for i in invs if i.mode == "trace"]) if i.layer_metrics]
    if not traced:
        raise BenchError("no traced invocation completed")
    metrics = {
        m: statistics.median_low(i.layer_metrics[m] for i in traced)
        for m in traced[0].layer_metrics
    }
    for layer in ("mdp", "sim"):
        metrics[f"{layer}.peak_alloc_mb"] = statistics.median_low(
            i.counts[f"{layer}.peak_rss_added_kb"] / 1024 for i in baseline
        )
    metrics["trace.overhead_frac"] = (
        statistics.median(i.command_s for i in traced)
        / statistics.median(i.command_s for i in baseline)
        - 1
    )
    print(
        f"tracing overhead {metrics['trace.overhead_frac']:.4f} "
        f"({len(traced)} traced, {len(baseline)} untraced invocations)"
    )
    for m in layers.METRICS:
        print(f"{m} = {metrics[m]:.6g} {layers.unit(m)}")
    return invs, {m: (metrics[m], layers.unit(m)) for m in layers.METRICS}


def environment() -> dict:
    import numpy

    lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "otl").glob("*.py"))
    )
    sha = "unknown"  # a checkout without .git
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_otl_lines": lines,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "otl" / "cli.py").is_file():
        print(f"perfbench: no otl source under {ROOT / 'src' / 'otl'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())
    has_reference = not wl.seeded or args.seed == expected["seed"]
    bench = Bench(wl, args.seed, expected["outputs"][wl.name] if has_reference else None)
    print(f"workload {wl.name}, seed {args.seed}: {wl.why}")
    print("environment " + json.dumps(environment()))
    try:
        run = trace_run if args.trace else plain_run
        invs, metrics = run(bench, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    ref = "reference seed" if bench.reference else "no reference for this seed"
    for c in invs[0].outputs:
        print(f"output {c.name}: sha256 {c.sha256} rows {c.rows} bytes {c.nbytes} ({ref})")
    failed = [i for i in invs if i.problems]
    for i in failed:
        print(f"FAILED {i.mode} invocation: " + "; ".join(i.problems))
    doc = {
        "correct": not failed,
        "attempted": len(invs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
