"""In-memory spans recorded around calls into capstream's public functions.

A span is (name, start_ns, end_ns, parent, request id). The layer is the part
of the name before the first dot (``dsp.push`` belongs to ``dsp``). Spans are
kept in memory while the workload runs and written out once at the end.
"""
from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Layers that get their own metrics; spans of any other prefix (the
# benchmark's own ``bench.*`` spans) only act as parents.
LAYERS = (
    "simulate",
    "dataset",
    "storage",
    "dsp",
    "detector",
    "classifier",
    "metrics",
    "protocol",
    "runtime",
)

_clock = time.perf_counter_ns


class Tracer:
    """Collects spans from any thread; parents follow each thread's open spans.

    Not reentrant: a span's slot is reserved under the lock and filled in by
    the thread that opened it when the span ends.
    """

    def __init__(self) -> None:
        self._names: dict[str, int] = {}
        self._spans: list[tuple[int, int, int, int, int]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._arrays = np.zeros((0, 5), dtype=np.int64)
        self._arrays_len = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        nid = self._names.get(name)
        if nid is None:
            with self._lock:
                nid = self._names.setdefault(name, len(self._names))
        return nid

    def record(self, name: str, start_ns: int, end_ns: int, rid: int = -1, parent: int | None = None) -> int:
        """Store a finished span; returns its id."""
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else -1
        span = (self._name_id(name), start_ns, end_ns, parent, rid)
        with self._lock:
            self._spans.append(span)
            return len(self._spans) - 1

    @contextmanager
    def span(self, name: str, rid: int = -1, parent: int | None = None):
        """Time the body as one span and yield its id; spans opened inside it
        on this thread become its children."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        nid = self._name_id(name)
        with self._lock:
            sid = len(self._spans)
            self._spans.append((nid, 0, 0, parent, rid))
        stack.append(sid)
        start = _clock()
        try:
            yield sid
        finally:
            end = _clock()
            stack.pop()
            self._spans[sid] = (nid, start, end, parent, rid)

    def timed(self, name: str, fn, *args, rid: int = -1, parent: int | None = None, **kwargs):
        """Call fn(*args, **kwargs) inside a span and return its result."""
        with self.span(name, rid=rid, parent=parent):
            return fn(*args, **kwargs)

    def __len__(self) -> int:
        return len(self._spans)

    def arrays(self) -> dict[str, np.ndarray]:
        with self._lock:
            n = len(self._spans)
            if self._arrays_len != n:
                self._arrays = np.asarray(self._spans, dtype=np.int64).reshape(-1, 5)
                self._arrays_len = n
        spans = self._arrays
        return {
            "name": spans[:, 0],
            "start_ns": spans[:, 1],
            "end_ns": spans[:, 2],
            "parent": spans[:, 3],
            "rid": spans[:, 4],
        }

    def names(self) -> list[str]:
        out = [""] * len(self._names)
        for name, nid in self._names.items():
            out[nid] = name
        return out

    def durations_s(self, name: str) -> np.ndarray:
        """Durations in seconds of every span called name."""
        nid = self._names.get(name)
        if nid is None:
            return np.zeros(0)
        a = self.arrays()
        sel = a["name"] == nid
        return (a["end_ns"][sel] - a["start_ns"][sel]) / 1e9

    def self_times_s(self) -> dict[str, float]:
        """Per-layer self time: span durations minus the union of their children."""
        a = self.arrays()
        names = self.names()
        start, end, parent = a["start_ns"], a["end_ns"], a["parent"]
        children: dict[int, list[int]] = {}
        for sid in np.flatnonzero(parent >= 0):
            children.setdefault(int(parent[sid]), []).append(int(sid))
        per_name = np.zeros(len(names))
        dur = end - start
        np.add.at(per_name, a["name"], dur)
        for pid, kids in children.items():
            per_name[a["name"][pid]] -= _union_ns(start[kids], end[kids], start[pid], end[pid])
        out = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(names):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += per_name[nid] / 1e9
        return out

    def write(self, path: Path) -> Path:
        """Write all spans as one compressed .npz (arrays plus the name table)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names()), **self.arrays())
        return path


def _union_ns(starts: np.ndarray, ends: np.ndarray, lo: int, hi: int) -> int:
    """Length of the union of [starts, ends) clipped to [lo, hi)."""
    order = np.argsort(starts, kind="stable")
    total = 0
    cur_s = cur_e = None
    for s, e in zip(np.clip(starts[order], lo, hi), np.clip(ends[order], lo, hi)):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return int(total)
