"""Timing wrappers around the package's public functions.

`install` rebinds every public function of the traced modules, in every
module that holds a reference to it, to a wrapper that records the call in a
`Tracer`. Nothing inside the package changes; `uninstall` puts the originals
back.

Per function the tracer keeps, for every call: the count, busy time (the
call's wall time), self time (busy time minus the busy time of wrapped calls
made inside it) and the number of calls that raised. Spans (name, start,
end, parent span, op id) are kept only while `recording` is true, so a
workload with very many ops can record a sample of them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

MODULES = ("cli", "keys", "roots", "modular", "cipher", "events", "prng")


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # name -> [calls, busy_ns, self_ns, failed]
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1, op id)
        self.stack: list[list[int]] = []  # open calls: [span index or -1, child busy ns]
        self.recording = True
        self.op_id = None
        self.op_modes: dict = {}  # op id -> key mode, for ops with spans

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if self.recording:
                index = len(spans)
                spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - frame[1]
                if parent is not None:
                    parent[1] += busy
                if index >= 0:
                    spans[index] = (name, start, end, parent[0] if parent else -1, self.op_id)

        return traced

    def begin_op(self, op_id, kind: str, mode: str, record: bool = True) -> int:
        """Open the root span of one benchmark op; returns its index or -1."""
        self.op_id, self.recording = op_id, record
        index = -1
        if record:
            self.op_modes[op_id] = mode
            index = len(self.spans)
            self.spans.append((f"op.{kind}", time.perf_counter_ns(), 0, -1, op_id))
        self.stack.append([index, 0])
        return index

    def end_op(self, index: int) -> None:
        self.stack.pop()
        if index >= 0:
            name, start, _, parent, op_id = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter_ns(), parent, op_id)

    @contextlib.contextmanager
    def op(self, op_id, kind: str, mode: str):
        """Span one benchmark op that runs inside the with block."""
        root = self.begin_op(op_id, kind, mode)
        try:
            yield
        finally:
            self.end_op(root)

    def export(self) -> dict:
        return {"stats": self.stats, "spans": self.spans}

    def merge(self, data: dict, root: int, op_id) -> None:
        """Add a child process's exported tracer under the op span `root`."""
        for name, values in data["stats"].items():
            mine = self.stats.setdefault(name, [0, 0, 0, 0])
            for i, value in enumerate(values):
                mine[i] += value
        if root < 0:
            return
        offset = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else root, op_id))


def install(tracer: Tracer) -> list:
    """Wrap every public function of the traced modules; returns what
    `uninstall` needs to restore them."""
    import cubetag

    modules = [importlib.import_module(f"cubetag.{name}") for name in MODULES]
    wrappers = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
    patched = []
    for module in modules + [cubetag]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                patched.append((module, attr, obj))
    return patched


def uninstall(patched: list) -> None:
    for module, attr, original in patched:
        setattr(module, attr, original)
