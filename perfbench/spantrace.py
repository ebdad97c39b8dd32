"""Spans recorded around calls into the program, and the arithmetic on them.

A span is (name, start, end, parent): the parent is the span that was open
when this one began, or -1. The recorder keeps spans in flat arrays in
memory; `save` writes them once, at the end, and `load` reads them back.

Two derived times:

* busy time of a group of span names: the length of the union of their
  intervals, i.e. the summed duration of the group's outermost spans (those
  with no ancestor in the group), so nested calls are counted once;
* self time of a span: its duration minus the durations of its direct
  children, i.e. the part of its interval no child span covers.
"""

from __future__ import annotations

import json
import time
from array import array
from dataclasses import dataclass

import numpy as np


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._open = [-1]

    def wrap(self, name: str, fn, after=None):
        """Return `fn` wrapped to record one span per call.

        `after(result)` runs once the span has ended, to take counts from
        the result without timing them.
        """
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def save(self, path: str) -> None:
        """Write the spans: a JSON header line, then the four arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "n": len(self.ids)}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


@dataclass
class Spans:
    names: list[str]
    ids: np.ndarray
    parents: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    @property
    def durations(self) -> np.ndarray:
        return self.ends - self.starts

    def members(self, predicate) -> np.ndarray:
        """Mask of spans whose name satisfies `predicate`."""
        chosen = np.array([predicate(n) for n in self.names], dtype=bool)
        if not len(chosen):
            return np.zeros(len(self.ids), dtype=bool)
        return chosen[self.ids]

    def count(self, predicate) -> int:
        return int(self.members(predicate).sum())

    def busy(self, predicate) -> float:
        member = self.members(predicate)
        outermost = member & ~_has_ancestor_in(member, self.parents)
        return float(self.durations[outermost].sum())

    def self_time(self, predicate) -> float:
        member = self.members(predicate)
        return float(self_times(self.parents, self.durations)[member].sum())


def self_times(parents: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    has_parent = parents >= 0
    children = np.bincount(
        parents[has_parent], weights=durations[has_parent], minlength=len(durations)
    )
    return durations - children


def _has_ancestor_in(member: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Mask of spans with a proper ancestor in `member`.

    Each pass of the loop pushes membership one level further down the
    tree, so it ends after at most the depth of the tree.
    """
    has_parent = parents >= 0
    safe = np.where(has_parent, parents, 0)
    covered = member.copy()  # the span itself or an ancestor is a member
    while True:
        nxt = member | (has_parent & covered[safe])
        if np.array_equal(nxt, covered):
            return has_parent & covered[safe]
        covered = nxt


def load(path: str) -> Spans:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        ids = np.fromfile(fh, dtype=np.int32, count=n)
        parents = np.fromfile(fh, dtype=np.int32, count=n)
        starts = np.fromfile(fh, dtype=np.float64, count=n)
        ends = np.fromfile(fh, dtype=np.float64, count=n)
    return Spans(header["names"], ids, parents, starts, ends)
