"""Golden outputs: SHA-256 digests of every file and of standard output for
a fixed set of CLI invocations, recorded once and asserted on every run.

The other byte-identity tests compare two runs of the same code; these pin
the outputs themselves, so a refactor that changes a single byte of a
Q-table, path CSV, statistics CSV or verify report fails here.
"""

import hashlib

import pytest

from otl.cli import EXIT_OK, main

SOLVE_CONFIG = (
    "market.u = 10\nmarket.d = -10\nmarket.p = 0.45\n"
    "problem.horizon = 8\nbelief.kind = beta\nbelief.alpha = 3\nbelief.beta = 2\n"
)
STATIC_CONFIG = (
    "market.u = 10\nmarket.d = -10\nmarket.p = 0.45\n"
    "problem.horizon = 8\nbelief.kind = static\nbelief.q0 = 0.55\n"
)
# a non-default action order, and belief ids that hold a comma (quoted in the CSV)
MIRROR_CONFIG = (
    "market.u = 10\nmarket.d = -10\nmarket.p = 0.45\n"
    "problem.horizon = 8\nproblem.actions = long,neutral\n"
    "belief.kind = mirror\nbelief.confidence = 0.6\n"
)
SIM_CONFIG = (
    "market.u = 10\nmarket.d = -10\nmarket.p = 0.45\n"
    "problem.horizon = 10\nbelief.kind = beta\nbelief.alpha = 3\nbelief.beta = 2\n"
    "sim.paths = 200\nsim.seed = 2024\n"
)

# case -> (config text or None, argv with {config} and {out:<name>} holes)
CASES = {
    "solve": (SOLVE_CONFIG, ["solve", "--config", "{config}", "--out", "{out:qtable}"]),
    "solve-static": (STATIC_CONFIG, ["solve", "--config", "{config}", "--out", "{out:qtable}"]),
    "solve-mirror": (MIRROR_CONFIG, ["solve", "--config", "{config}", "--out", "{out:qtable}"]),
    **{
        f"simulate-{policy}": (
            SIM_CONFIG,
            [
                "simulate", "--config", "{config}", "--policy", policy,
                "--out", "{out:paths}", "--stats-out", "{out:stats}",
            ],
        )
        for policy in ("bellman", "cutloss", "avgdown", "buyhold")
    },
    "compare": (
        SIM_CONFIG,
        ["compare", "--config", "{config}", "--policies", "bellman,cutloss,avgdown",
         "--out", "{out:stats}"],
    ),
    "verify": (None, ["verify", "--suite", "all", "--json", "{out:report}"]),
}

# case -> {output name: sha256 hex digest}; "stdout" is the captured output
GOLDEN = {
    "compare": {
        "stats": "a52b019b6e1aa0038838d9b6953942c2ce5cef2e14c6531b133ad24b5f81c40d",
        "stdout": "864da94b4b68f7a333eb0dfaadf576b9956e0aed0db1ce10897bb11087ace247",
    },
    "simulate-avgdown": {
        "paths": "98baef19d436db416dc812e71a3486aabef2fb6e7cd91b6e0507be6c5955e521",
        "stats": "334ecb6ce7dd8e71bf9ce3c3ae73964c67ec5ae45a994bb970bcc73c6c5e2168",
        "stdout": "c87110d78f08ffb75207d7db57eb26c65fcd6f596e224d7e2c0c6ac059289e76",
    },
    "simulate-bellman": {
        "paths": "d116c3ec141cc46ae66068bc59c2cacc334ca7c08968a0aeea7b58a31721fbc3",
        "stats": "d8e53a8962f92178547a5742c9167d26965621ad06916a4b218a8a250c9941ee",
        "stdout": "850125439dbb0f9778db1b6986f08f8568ae1ca57f5708ca7ac30b7897c5c95b",
    },
    "simulate-buyhold": {
        "paths": "ec1934fad7bd3ea3d94b764163ac565789f661f8ec2068464e42201b869cbac1",
        "stats": "baa7634e8ce93093562db72f132f71a0344d8fa6bf3ca2dc03d37869553a7428",
        "stdout": "c35a9c905cbd3e7dc09d6016b9aa35a2e8a7f90034358126a85ab9ce05f08ea4",
    },
    "simulate-cutloss": {
        "paths": "7212d9b6d675ea42eed40bf3065c780548417061ab7c9af46adf6a2913cec670",
        "stats": "4e8ba677a8a3d3dc267d88edb272ee54384e7a217da23a3a6c9f5ef4d0969802",
        "stdout": "3eae3230e45dba8fa632bdb8ad7921745eeaad0c29606c07751de9f3f3ca9e9d",
    },
    "solve": {
        "qtable": "122242352700f3becc099530b7d614e53aa22202c01642d70c9901e302316485",
        "stdout": "021f5922c5e8bd9df5bbff3030846949898de1122b2516896c75bfbb187aefaf",
    },
    "solve-mirror": {
        "qtable": "9b0e4ca7eb5d0fd6982447543c334e59b125ec3a36d39684f4a13be7eb4f85b1",
        "stdout": "4cd8f7d5a823d8bdbad90224f49b91a28699e8b8d703d2eb9acf4ae7907479ee",
    },
    "solve-static": {
        "qtable": "cbe394c7f29036dd48781f4b3ff984fb55f2e51bed1c41e453c9e8230c5c5d8c",
        "stdout": "427386c894b127165974ebcb72c6b902a0343b8b23828be31b8189da10554f45",
    },
    "verify": {
        "report": "6298ce55b3ece103ed8081f3e6f4b6c18a5654a15aa5eb265a68508d613a18b5",
        "stdout": "3d36b18ee54f4a60e980a63cf4aa518f3c44fef820f89dbfd48878c952ad524d",
    },
}


def _run_case(name: str, tmp_path, capsys) -> dict[str, str]:
    config, argv = CASES[name]
    outputs = {}
    args = []
    for arg in argv:
        if arg == "{config}":
            path = tmp_path / "run.cfg"
            path.write_text(config)
            arg = str(path)
        elif arg.startswith("{out:"):
            out_name = arg[5:-1]
            outputs[out_name] = tmp_path / f"{out_name}.out"
            arg = str(outputs[out_name])
        args.append(arg)
    capsys.readouterr()
    assert main(args) == EXIT_OK
    digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for out_name, path in outputs.items():
        digests[out_name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(name, tmp_path, capsys):
    assert _run_case(name, tmp_path, capsys) == GOLDEN[name]
