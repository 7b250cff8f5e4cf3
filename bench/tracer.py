"""Span recording for the benchmark's traced runs.

The traced run wraps, from outside the package, the names each freechoice
module imports from the layer below it (plus a few public functions called
inside their own module, such as ``designs.run_subject``), so every span
sits at a layer boundary. Spans are kept in memory, one buffer per thread,
and written to one ``.npz`` file when the process ends. :func:`load`
turns such a file into per-name call counts, inclusive time and self time
(span time minus the time of its child spans).

Untraced children never import this module, so they run without wrappers.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from array import array
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

# (module whose global is replaced, global name, span name, kind)
# kind: "call" plain span; "backend" appends .float/.rational from the
# ``exact`` argument; "mix" is a backend span that also counts computed
# solver work; "iter" spans every step of a returned iterator.
WRAPS = [
    ("freechoice.cli", "iter_experiment", "designs.iter_experiment", "iter"),
    ("freechoice.cli", "expected_spread_table", "exact.expected_spread_table", "backend"),
    ("freechoice.cli", "summarize", "stats.summarize", "call"),
    ("freechoice.cli", "compare", "stats.compare", "call"),
    ("freechoice.cli", "bootstrap_se", "stats.bootstrap_se", "call"),
    ("freechoice.cli", "power_report", "stats.power_report", "call"),
    ("freechoice.cli", "run_checks", "verify.run_checks", "call"),
    ("freechoice.stats", "iter_experiment", "designs.iter_experiment", "iter"),
    ("freechoice.stats", "summarize", "stats.summarize", "call"),
    ("freechoice.stats", "compare", "stats.compare", "call"),
    ("freechoice.stats", "bootstrap_se", "stats.bootstrap_se", "call"),
    ("freechoice.stats", "power_estimate", "stats.power_estimate", "call"),
    ("freechoice.designs", "run_subject", "designs.run_subject", "call"),
    ("freechoice.designs", "sample_noisy_ranking", "noise.sample_noisy_ranking", "call"),
    ("freechoice.designs", "sample_choice", "noise.sample_choice", "call"),
    ("freechoice.designs", "spread", "core.spread", "call"),
    ("freechoice.designs", "all_position_pairs", "core.all_position_pairs", "call"),
    ("freechoice.exact", "mix_apply", "noise.mix_apply", "mix"),
    ("freechoice.exact", "build_M", "noise.build_M", "backend"),
    ("freechoice.verify", "expected_spread_table", "exact.expected_spread_table", "backend"),
    ("freechoice.verify", "expected_spread_positions", "exact.expected_spread_positions", "backend"),
    ("freechoice.verify", "expected_spread_two_param", "exact.expected_spread_two_param", "call"),
    ("freechoice.verify", "expected_spread_conditional", "exact.expected_spread_conditional", "call"),
    ("freechoice.verify", "expected_spread_oracle", "exact.expected_spread_oracle", "call"),
    ("freechoice.verify", "brute_force_expected_spread", "exact.brute_force_expected_spread", "call"),
    ("freechoice.verify", "swap_process_distribution", "exact.swap_process_distribution", "call"),
    ("freechoice.verify", "build_M", "noise.build_M", "backend"),
    ("freechoice.verify", "build_Q", "noise.build_Q", "backend"),
    ("freechoice", "expected_spread_table", "exact.expected_spread_table", "backend"),
    ("freechoice", "expected_spread_two_param", "exact.expected_spread_two_param", "call"),
    ("freechoice", "expected_spread_conditional", "exact.expected_spread_conditional", "call"),
]


class _Buffer:
    """Completed spans and counters of one thread."""

    def __init__(self):
        self.stack: List[int] = []
        self.ids = array("q")
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Dict[str, float] = {}

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self._next_id = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: List[_Buffer] = []
        self._name_ids: Dict[str, int] = {}
        self.missing: List[str] = []

    def name_id(self, name: str) -> int:
        return self._name_ids.setdefault(name, len(self._name_ids))

    def buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buffer = buf
            return buf

    def _enter(self):
        buf = self.buffer()
        sid = next(self._next_id)
        parent = buf.stack[-1] if buf.stack else -1
        buf.stack.append(sid)
        return buf, sid, parent

    @staticmethod
    def _leave(buf: _Buffer, sid: int, name: int, parent: int, start: float) -> None:
        end = perf_counter()
        buf.stack.pop()
        buf.ids.append(sid)
        buf.names.append(name)
        buf.parents.append(parent)
        buf.starts.append(start)
        buf.ends.append(end)

    def wrap(self, fn: Callable, name: str, kind: str = "call") -> Callable:
        """Return ``fn`` wrapped so that every call records one span."""
        if kind == "iter":
            return self._wrap_iter(fn, name)
        if kind == "call":
            labels = (self.name_id(name),) * 2
        else:
            labels = (self.name_id(name + ".float"), self.name_id(name + ".rational"))

        def traced(*args, **kwargs):
            exact = bool(kwargs.get("exact", args[3] if kind == "mix" and len(args) > 3 else False))
            label = labels[exact]
            buf, sid, parent = self._enter()
            if kind == "mix":
                _count_solves(buf, args, exact)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(buf, sid, label, parent, start)

        traced.__wrapped__ = fn
        return traced

    def _wrap_iter(self, fn: Callable, name: str) -> Callable:
        first_name = self.name_id(name + ".first")
        step_name = self.name_id(name)
        recorder = self

        class TracedIterator:
            def __init__(self, inner):
                self._inner = inner
                self._first = True

            def __iter__(self):
                return self

            def __next__(self):
                label = first_name if self._first else step_name
                self._first = False
                buf, sid, parent = recorder._enter()
                start = perf_counter()
                try:
                    return next(self._inner)
                finally:
                    recorder._leave(buf, sid, label, parent, start)

        def traced(*args, **kwargs):
            return TracedIterator(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every name in :data:`WRAPS` with a traced wrapper."""
        for module_name, attr, span, kind in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, span, kind))
        if self.missing:
            print("tracer: names not found: " + ", ".join(self.missing), file=sys.stderr)

    def write(self, path: str) -> None:
        with self._lock:
            buffers = list(self._buffers)
        counters: Dict[str, float] = {}
        for buf in buffers:
            for key, value in buf.counters.items():
                counters[key] = counters.get(key, 0) + value

        def joined(field: str, dtype) -> np.ndarray:
            parts = [np.frombuffer(getattr(buf, field), dtype=dtype) for buf in buffers]
            return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

        names = sorted(self._name_ids, key=self._name_ids.get)
        meta = json.dumps({"names": names, "counters": counters})
        np.savez(
            path,
            ids=joined("ids", np.int64),
            names=joined("names", np.int32),
            parents=joined("parents", np.int64),
            starts=joined("starts", np.float64),
            ends=joined("ends", np.float64),
            meta=np.array(meta),
        )


def _count_solves(buf: _Buffer, args, exact: bool) -> None:
    """Computed (not measured) work of one mix solve, by dense-LU formulas.

    m = n(n - 1) states; a float solve factors once, at (2/3) m^3 flops and
    8 m^2 bytes for the matrix, and pays 2 m^2 flops per right-hand side.
    """
    if len(args) < 3:
        return
    n, vectors = int(args[0]), args[2]
    shape = np.shape(vectors)
    rhs = 1 if len(shape) < 2 else int(np.prod(shape[1:]))
    m = n * (n - 1)
    if exact:
        buf.count(f"rational.solves.n{n}", rhs)
    else:
        buf.count("float.lu_flops", (2.0 / 3.0) * m**3 + 2.0 * m * m * rhs)
        buf.count("float.lu_bytes", 8.0 * m * m)


def load(path: str) -> Dict[str, object]:
    """Per-name calls, inclusive and self seconds, and first-step durations."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        ids, names, parents = data["ids"], data["names"], data["parents"]
        durations = data["ends"] - data["starts"]
    spans: Dict[str, Dict[str, object]] = {}
    if ids.size:
        position = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
        position[ids] = np.arange(ids.size)
        has_parent = parents >= 0
        child_time = np.zeros(ids.size)
        np.add.at(child_time, position[parents[has_parent]], durations[has_parent])
        self_time = durations - child_time
        for k, name in enumerate(meta["names"]):
            mask = names == k
            if not mask.any():
                continue
            spans[name] = {
                "calls": int(mask.sum()),
                "total_s": float(durations[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "durations": durations[mask].tolist() if name.endswith(".first") else [],
            }
    return {"spans": spans, "counters": meta["counters"], "span_count": int(ids.size)}

