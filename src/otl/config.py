"""Flat `key = value` run configuration.

The format is deliberately minimal: UTF-8 text (a leading byte-order mark
is skipped), one assignment per line, `#` starts a comment, unknown and
repeated keys are rejected with the offending line number. A dumped config
reparses to an identical RunConfig.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .actions import Action, Move
from .beliefs import Belief, BetaBernoulli, Mirror, Static
from .errors import ConfigurationError, ResourceLimitError, ValidationError
from .market import MarketModel
from .mdp import DEFAULT_ACTIONS, DecisionProblem
from .sim import SimConfig

_ACTION_NAMES = {str(a): a for a in DEFAULT_ACTIONS}
# belief.kind -> the initial belief built from a RunConfig
_BELIEFS = {
    "static": lambda cfg: Static(cfg.belief_q0),
    "mirror": lambda cfg: Mirror(cfg.belief_confidence, Move.UP),
    "beta": lambda cfg: BetaBernoulli(cfg.belief_alpha, cfg.belief_beta),
}
BELIEF_KINDS = tuple(_BELIEFS)


@dataclass
class RunConfig:
    market_u: float = 10.0
    market_d: float = -10.0
    market_p: float = 0.5
    market_initial_wealth: float = 1000.0
    problem_horizon: int = 5
    problem_actions: str = "neutral,long,short"
    belief_kind: str = "static"
    belief_q0: float = 0.6
    belief_confidence: float = 0.6
    belief_alpha: float = 1.0
    belief_beta: float = 1.0
    sim_paths: int = 1000
    sim_seed: int = 0

    def belief(self) -> Belief:
        if self.belief_kind not in _BELIEFS:
            raise ConfigurationError(
                f"belief.kind must be one of {BELIEF_KINDS}, got {self.belief_kind!r}"
            )
        return _BELIEFS[self.belief_kind](self)

    def actions(self) -> tuple[Action, ...]:
        out = []
        for name in self.problem_actions.split(","):
            name = name.strip().lower()
            if name not in _ACTION_NAMES:
                raise ConfigurationError(
                    f"unknown action {name!r}; expected long, neutral, or short"
                )
            out.append(_ACTION_NAMES[name])
        return tuple(out)

    def market(self) -> MarketModel:
        return MarketModel(
            u=self.market_u,
            d=self.market_d,
            p_up=self.market_p,
            initial_wealth=self.market_initial_wealth,
        )

    def problem(self) -> DecisionProblem:
        return DecisionProblem(
            horizon=self.problem_horizon,
            ticks=(self.market_u, self.market_d),
            initial_belief=self.belief(),
            action_set=self.actions(),
        )

    def sim_config(self) -> SimConfig:
        return SimConfig(self.problem(), self.sim_paths, self.sim_seed)


# config key -> (RunConfig attribute, parser): the key is the attribute with
# its first `_` read as `.`, the parser the type of its default
_KEYS = {
    f.name.replace("_", ".", 1): (f.name, type(f.default)) for f in fields(RunConfig)
}


def parse_config(text: str, simulate: bool = False) -> RunConfig:
    """Parse config text; errors carry the 1-based line number. A rejected value names the
    last-set key whose default would be accepted, and its line; if none would be, neither.
    With `simulate`, the simulation's settings (`sim_config`) are checked too; its path-step
    bound raises ResourceLimitError and is never blamed on a key."""
    cfg = RunConfig()
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigurationError(f"line {lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        attr, conv = _KEYS[key]
        try:
            setattr(cfg, attr, conv(value))
        except ValueError:
            raise ConfigurationError(
                f"line {lineno}: cannot parse {value!r} as {conv.__name__} for {key}"
            )
        if key == "sim.paths" and cfg.sim_paths < 1:
            raise ConfigurationError(f"line {lineno}: sim.paths must be >= 1, got {cfg.sim_paths}")
    try:
        _check(cfg, simulate)
    except (ConfigurationError, ValidationError) as exc:
        for key, lineno in reversed(seen.items()):
            attr = _KEYS[key][0]
            try:
                _check(replace(cfg, **{attr: getattr(RunConfig, attr)}), simulate)
            except (ConfigurationError, ValidationError, ResourceLimitError):
                continue
            raise ConfigurationError(f"line {lineno}: {key}: {exc}") from exc
        raise ConfigurationError(str(exc)) from exc
    return cfg


def _check(cfg: RunConfig, simulate: bool) -> None:
    cfg.market()
    if simulate:
        cfg.sim_config()
    else:
        cfg.problem()


def load_config(path: str, simulate: bool = False) -> RunConfig:
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8-sig")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; the byte is on its last line
        lineno = len((exc.object[: exc.start].decode() + "?").splitlines())
        bad = exc.object[exc.start]
        raise ConfigurationError(
            f"cannot read config {path}: line {lineno}: byte 0x{bad:02x} is not UTF-8"
        ) from None
    return parse_config(text, simulate)


def dump_config(cfg: RunConfig) -> str:
    """Emit a config that reparses to an identical RunConfig."""
    lines = [f"{key} = {getattr(cfg, attr)}" for key, (attr, _) in _KEYS.items()]
    return "\n".join(lines) + "\n"
