"""The forward closure of a belief over its own `update`: the generic belief
lattice that `otl.beliefs.lattice_of`'s closed forms are checked against,
and the lattice the tests solve a belief over that `lattice_of` rejects
(a subclass, or beta counts that reach 2**53), by putting `_closure` in
place of `otl.mdp.lattice_of`."""

from __future__ import annotations

import itertools

import numpy as np

from otl import BetaBernoulli, Mirror, Move, Static, mdp
from otl.beliefs import Belief, Lattice, _check_states


class _Layers(Lattice):
    """One `{belief: state}` dict per layer, and the up and down child
    states of every state of a layer t < T in two flat arrays."""

    def __init__(self, states: list[dict], up: np.ndarray, down: np.ndarray):
        self._states, self._up, self._down = states, up, down
        super().__init__(len(states) - 1, [*itertools.accumulate(map(len, states), initial=0)])

    def layer(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = slice(self.start[t], self.start[t + 1])
        return np.array([b.predictive() for b in self._states[t]]), self._up[rows], self._down[rows]

    def _state(self, t: int, belief: Belief) -> int | None:
        return self._states[t].get(belief)

    def _beliefs(self, t: int) -> list[Belief]:
        return list(self._states[t])


def _closure(b0: Belief, T: int) -> Lattice:
    """The forward closure of b0 over `Belief.update`, of at most
    `otl.beliefs.MAX_STAGE_STATES` states."""
    _check_states(T + 1, T)
    states: list[dict[Belief, int]] = [{b0: 0}]
    ups: list[int] = []
    dns: list[int] = []
    n_states = 1
    for _ in range(T):
        nxt: dict[Belief, int] = {}
        for b in states[-1]:
            ups.append(nxt.setdefault(b.update(Move.UP), n_states + len(nxt)))
            dns.append(nxt.setdefault(b.update(Move.DOWN), n_states + len(nxt)))
        states.append(nxt)
        n_states += len(nxt)
        _check_states(n_states, T)
    return _Layers(states, np.array(ups, dtype=np.intp), np.array(dns, dtype=np.intp))


def solve_over_closure(monkeypatch, b0: Belief) -> None:
    """Put `_closure` in place of `otl.mdp.lattice_of` if `lattice_of`
    rejects b0's type, so `solve_q` solves it over its own `update`."""
    if type(b0) not in (Static, Mirror, BetaBernoulli):
        monkeypatch.setattr(mdp, "lattice_of", _closure)
