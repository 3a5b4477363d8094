"""Span recorder that wraps ringspin's functions from outside the package.

`Tracer.install()` replaces every traced function at every place a ringspin
module binds it (its defining module, the package namespace and each module
that imported it by name), so a call through any of those names opens a
span.  A span is (op, name, start, end, parent): `op` numbers the op the
call belongs to and `parent` indexes the enclosing traced call, or is -1.
Spans and counters stay in memory until the run writes them out.

Traced functions are those in a layer module's `__all__`, plus any other
function of a layer that another ringspin module imports by name (such as
`spectral.pair_mode_weights`).  Private helpers stay unwrapped, so their time
counts toward the self time of the traced function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("chain", "spectral", "metrics", "fitting", "oracle", "cli")


def _ringspin_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "ringspin" or name.startswith("ringspin."))]


def traced_functions() -> dict[str, object]:
    """'layer.function' -> function object, for every traced function."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"ringspin.{layer}")
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[f"{layer}.{attr}"] = obj
    for mod in _ringspin_modules():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ != mod.__name__
                    and obj.__module__.startswith("ringspin.")):
                layer = obj.__module__.split(".", 1)[1]
                if layer in LAYERS:
                    found.setdefault(f"{layer}.{obj.__name__}", obj)
    return found


def _fit_counts(counts: Counter, fit) -> None:
    """Counters read from the FitParams that fit_decay returns."""
    counts["fitting.fits"] += 1
    counts["fitting.iterations"] += fit.iterations
    counts["fitting.converged"] += int(fit.converged)


class Tracer:
    """`op_id()` names the op a new span belongs to."""

    def __init__(self, op_id):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.op_id = op_id
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = _fit_counts if name == "fitting.fit_decay" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op_id()
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((op, name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (op, name, start, end, parent)
            if hook is not None:
                hook(self.counts, result)
            return result

        return traced

    def install(self) -> None:
        originals = traced_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for mod in _ringspin_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Total self time and call count per traced name: each span's
        duration minus the durations of its direct children."""
        child_time = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        own = defaultdict(float)
        calls = Counter()
        for index, (_, name, start, end, _) in enumerate(self.spans):
            own[name] += (end - start) - child_time[index]
            calls[name] += 1
        return dict(own), calls
