"""Layer-boundary tracing for the benchmark's traced run.

The layers are the modules of the ``autqm`` package.  ``install`` finds
every function that one ``autqm`` module imports from another by scanning
module globals, and replaces each such global with a wrapper that adds
the call and its inclusive time to the caller -> callee edge.  Calls the
benchmark itself makes go through ``api``, which also records one span
per call under the job's root span.  ``restore`` puts every original
back, so an untraced run after a traced one measures the plain program.

Time spent in a closure is charged to the innermost wrapped call that is
running, since closures are not module globals.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

PACKAGE = "autqm"
BENCH = "bench"


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.entry = None  # "layer.function" of the benchmark call running now
        # (entry, caller layer, callee layer, function) -> [calls, seconds]
        self.edges = defaultdict(lambda: [0, 0.0])
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.spans: list[tuple] = []
        self._frames: list[list[float]] = []
        self._depth = defaultdict(int)
        self._saved: list[tuple] = []
        self._job = None

    def install(self) -> int:
        """Wrap every cross-module function import inside the package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        prefix = PACKAGE + "."
        for module_name, module in sorted(sys.modules.items()):
            if not module_name.startswith(prefix) or module is None:
                continue
            for name, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__.startswith(prefix)
                    and value.__module__ != module_name
                ):
                    wrapper = self._boundary(
                        value, layer_of(module_name), layer_of(value.__module__), name
                    )
                    self._saved.append((module, name, value))
                    setattr(module, name, wrapper)
        return len(self._saved)

    def restore(self) -> None:
        for module, name, value in self._saved:
            setattr(module, name, value)
        self._saved.clear()

    def api(self, lib: SimpleNamespace, helper_layers: dict) -> SimpleNamespace:
        """The benchmark's view of the library with every call traced.

        A helper's layer is computed from its arguments, since it calls
        a method of a library object rather than a module function.
        """
        wrapped = {}
        for name, fn in vars(lib).items():
            if name in helper_layers:
                wrapped[name] = self._entry(fn, helper_layers[name], name)
            elif inspect.isfunction(fn):
                layer = layer_of(fn.__module__)
                wrapped[name] = self._entry(fn, lambda *a, _l=layer, **k: _l, name)
            else:
                wrapped[name] = fn
        return SimpleNamespace(**wrapped)

    @contextmanager
    def job(self, index: int, kind: str):
        """The root span of one job; tracing is on only inside it."""
        frame = [0.0]
        self._frames = [frame]
        self._job = index
        self.enabled = True
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.enabled = False
            self.self_time[BENCH] += end - start - frame[0]
            self.busy[BENCH] += end - start
            self.spans.append(("job", index, kind, start, end))

    def _timed(self, fn, args, kwargs, caller, callee, name):
        frame = [0.0]
        frames = self._frames
        frames.append(frame)
        self._depth[callee] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            frames.pop()
            frames[-1][0] += elapsed
            self._depth[callee] -= 1
            if not self._depth[callee]:
                self.busy[callee] += elapsed
            self.self_time[callee] += elapsed - frame[0]
            edge = self.edges[(self.entry, caller, callee, name)]
            edge[0] += 1
            edge[1] += elapsed

    def _boundary(self, fn, caller, callee, name):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self._timed(fn, args, kwargs, caller, callee, name)

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _entry(self, fn, layer, name):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            callee = layer(*args, **kwargs)
            previous = self.entry
            self.entry = f"{callee}.{name}"
            start = perf_counter()
            try:
                return self._timed(fn, args, kwargs, BENCH, callee, name)
            finally:
                self.spans.append(("call", self._job, self.entry, start, perf_counter()))
                self.entry = previous

        return wrapper

    def calls(self, callee, name=None, caller=None, entry=None) -> tuple[int, float]:
        """Total calls and inclusive seconds over matching edges."""
        names = {name} if isinstance(name, str) else name
        total_calls, total_seconds = 0, 0.0
        for (e, c, l, n), (k, s) in self.edges.items():
            if (
                l == callee
                and (names is None or n in names)
                and (caller is None or c == caller)
                and (entry is None or e == entry)
            ):
                total_calls += k
                total_seconds += s
        return total_calls, total_seconds

    def span_records(self):
        """Spans as dicts: one root span per job, one per benchmark call."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        return [
            {
                "id": f"job-{job}" if kind == "job" else f"call-{i}",
                "parent": None if kind == "job" else f"job-{job}",
                "name": f"job:{name}" if kind == "job" else name,
                "start_ms": round(1000 * (start - t0), 4),
                "end_ms": round(1000 * (end - t0), 4),
            }
            for i, (kind, job, name, start, end) in enumerate(self.spans)
        ]
