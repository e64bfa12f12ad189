"""In-memory spans (name, start, end, parent) and per-name self times.

A layer's self time is the length of its spans minus the time their child
spans cover.  This module does not import pqstream, so the parent process
can read the span files that traced child processes write.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._name: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        nid = self._ids.setdefault(name, len(self._ids))
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> float:
        now = time.perf_counter()
        self._end[idx] = now
        self._stack.pop()
        return now - self._start[idx]

    def drop_last(self, idx: int) -> None:
        """Forget an open span that turned out to cover no work."""
        self._stack.pop()
        for column in (self._name, self._parent, self._start, self._end):
            del column[idx]

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def __len__(self) -> int:
        return len(self._start)

    def save(self, path) -> None:
        names = sorted(self._ids, key=self._ids.get)
        np.savez(
            path,
            names=np.array(names),
            name=np.array(self._name, dtype=np.int32),
            parent=np.array(self._parent, dtype=np.int64),
            start=np.array(self._start),
            end=np.array(self._end),
        )


def load_spans(path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def self_times(spans: dict) -> dict[str, dict]:
    """Per span name: count, total time, self time and each span's length."""
    dur = spans["end"] - spans["start"]
    covered = np.zeros_like(dur)
    parent = spans["parent"]
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    own = dur - covered
    out = {}
    for nid, name in enumerate(spans["names"].tolist()):
        mask = spans["name"] == nid
        out[name] = {
            "count": int(mask.sum()),
            "total_s": float(dur[mask].sum()),
            "self_s": float(own[mask].sum()),
            "durations": dur[mask],
        }
    return out
