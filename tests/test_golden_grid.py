"""A wide golden grid: one SHA-256 per CLI invocation, over its standard
output and every output file, for 27 configs generated below.

`test_golden.py` pins ten invocations at ticks +-10, p = 0.45 and one seed.
This grid crosses three tick pairs (symmetric, and two non-integer
asymmetric ones whose rewards and wealths print with long reprs), market.p
of 0, 0.45 and 1, and the three belief kinds, and cycles horizons 1-12,
1-40 paths, the seeds at the edges of 32 and 64 bits, and initial wealths
of -0.0 and near 0 (ruin, negative wealth). Each config runs `solve`,
`simulate` with each policy, and a `compare` of all four.

The digests in `golden_grid.json` are outputs, not derived values: a change
that moves any byte of any of them is an output change. Record them again
with ``PYTHONPATH=src python tests/test_golden_grid.py --record``.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from otl.cli import EXIT_OK, main

GOLDEN_PATH = Path(__file__).with_name("golden_grid.json")

TICKS = ((10.0, -10.0), (1.5, -0.5), (0.1, -0.3))
MARKET_PS = (0.0, 0.45, 1.0)
# belief.kind -> three settings of its keys
BELIEFS = {
    "static": ("belief.q0 = 0.55", "belief.q0 = 0.3", "belief.q0 = 0.7"),
    "mirror": ("belief.confidence = 0.6", "belief.confidence = 0.5", "belief.confidence = 0.9"),
    "beta": (
        "belief.alpha = 3\nbelief.beta = 2",
        "belief.alpha = 0.5\nbelief.beta = 2.5",
        "belief.alpha = 1\nbelief.beta = 1",
    ),
}
SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, -1)
WEALTHS = ("-0.0", "0.25", "1000", "7.5")
POLICIES = ("bellman", "cutloss", "avgdown", "buyhold")
N_CONFIGS = 27


def config_text(i: int) -> str:
    """Config i of the grid: ticks, market.p and belief kind cross, the rest cycle."""
    u, d = TICKS[i // 9]
    kind = tuple(BELIEFS)[i % 3]
    return "\n".join(
        [
            f"market.u = {u!r}",
            f"market.d = {d!r}",
            f"market.p = {MARKET_PS[i // 3 % 3]!r}",
            f"market.initial_wealth = {WEALTHS[i % 4]}",
            f"problem.horizon = {1 + 5 * i % 12}",
            f"belief.kind = {kind}",
            BELIEFS[kind][(i // 3 + i // 9) % 3],
            f"sim.paths = {1 + 7 * i % 40}",
            f"sim.seed = {SEEDS[i % 5]}",
            "",
        ]
    )


def invocations(i: int) -> dict[str, list[str]]:
    """name -> argv of config i's invocations; {config} and {out:<name>} are holes."""
    cases = {f"{i:02d}-solve": ["solve", "--config", "{config}", "--out", "{out:qtable}"]}
    for policy in POLICIES:
        cases[f"{i:02d}-simulate-{policy}"] = [
            "simulate", "--config", "{config}", "--policy", policy,
            "--out", "{out:paths}", "--stats-out", "{out:stats}",
        ]
    cases[f"{i:02d}-compare"] = [
        "compare", "--config", "{config}", "--policies", ",".join(POLICIES),
        "--out", "{out:stats}",
    ]
    return cases


def digest(i: int, argv: list[str], workdir: str) -> str:
    """SHA-256 over the invocation's standard output, then each output file in
    argv order, each part preceded by its length."""
    config = os.path.join(workdir, "grid.cfg")
    with open(config, "w") as fh:
        fh.write(config_text(i))
    outputs, args = [], []
    for arg in argv:
        if arg == "{config}":
            arg = config
        elif arg.startswith("{out:"):
            arg = os.path.join(workdir, arg[5:-1] + ".out")
            outputs.append(arg)
        args.append(arg)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(args) == EXIT_OK
    h = hashlib.sha256()
    for part in [stdout.getvalue().encode(), *(Path(p).read_bytes() for p in outputs)]:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    for path in outputs:
        os.remove(path)
    return h.hexdigest()


def config_digests(i: int, workdir: str) -> dict[str, str]:
    return {name: digest(i, argv, workdir) for name, argv in invocations(i).items()}


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_grid_covers_its_ranges(golden):
    texts = list(map(config_text, range(N_CONFIGS)))
    for key, values in [
        ("problem.horizon", range(1, 13)),
        ("sim.paths", (1, 40)),
        ("sim.seed", SEEDS),
        ("market.initial_wealth", WEALTHS),
    ]:
        for value in values:
            assert any(f"\n{key} = {value}\n" in t for t in texts), (key, value)
    assert len(golden) == 6 * N_CONFIGS


@pytest.mark.parametrize("i", range(N_CONFIGS))
def test_grid_config_matches_recorded_digests(i, golden, tmp_path):
    expected = {name: golden[name] for name in invocations(i)}
    assert config_digests(i, str(tmp_path)) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_grid.py --record")
    with tempfile.TemporaryDirectory() as workdir:
        grid = {k: v for i in range(N_CONFIGS) for k, v in config_digests(i, workdir).items()}
    GOLDEN_PATH.write_text(json.dumps(grid, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(grid)} digests in {GOLDEN_PATH}")
