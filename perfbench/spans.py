"""In-memory span recorder that wraps polystab's public callables from outside.

A span is (name, start, end, parent). Spans live in flat arrays while the run
is timed and are written to disk only when it ends. A span's self time is its
duration minus its direct children's durations (single-threaded, so children
never overlap).
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.work: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn, work=None):
        """fn recording one span per call; work(args) adds to the count self.work[name]."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        self.work.setdefault(name, 0)

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0)
            self._stack.append(sid)
            if work is not None:
                self.work[name] += work(args)
            self.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter_ns()
                self._stack.pop()

        return traced

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, total seconds and self seconds."""
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nids = np.frombuffer(self.name_id, dtype=np.uint16)
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        out = {}
        for nid, name in enumerate(self.names):
            mine = nids == nid
            out[name] = {
                "calls": int(np.sum(mine)),
                "s": float(np.sum(dur[mine])) * 1e-9,
                "self_s": float(np.sum(dur[mine] - child_ns[mine])) * 1e-9,
                "work": self.work[name],
            }
        return out

    def dump(self, path) -> None:
        record = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
