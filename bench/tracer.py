"""Per-layer spans recorded from outside the package.

The package binds names with `from .x import y`, so wrapping a function in its
defining module alone would miss most calls.  `Tracer.install` wraps every
public function of the layer modules and rebinds the wrapper under every name
that holds the original, in every module of the package (the package's own
namespace included), and inside module-level tuples and dicts such as the
suite's list of checks.  `Tracer.uninstall` puts every original back.

Spans are aggregated in memory as they close, per (parent, function) edge:
call count, total time and self time, where self time is the span's duration
minus the time its child spans cover.  A layer is the module a function is
defined in.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("series", "criteria", "theorems", "thresholds", "disk", "suite",
          "serialize", "cli")

# per-term scalar helpers called inside their own layer's loops: a span each
# would cost more than the work it measures, and their time already falls in
# the calling span of the same layer
UNWRAPPED = frozenset({"criteria.weight_S", "criteria.weight_C",
                       "criteria.dixit_pal_bound", "serialize.fmt_float"})


class Tracer:
    def __init__(self, package, on_return=None):
        """on_return maps "layer.function" to a callback(result, args, kwargs)
        run after each successful call, for counts taken from results."""
        self.package = package
        self.on_return = dict(on_return or {})
        self.edges: dict = {}   # (parent key, key) -> [calls, total_ns, self_ns]
        self._stack = [[None, 0]]
        self._patches: list = []

    # ---- recording ----

    def _wrap(self, fn, key: str):
        stack, edges, clock = self._stack, self.edges, time.perf_counter_ns
        hook = self.on_return.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [key, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                edge = edges.get((parent[0], key))
                if edge is None:
                    edge = edges[(parent[0], key)] = [0, 0, 0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
            if hook is not None:
                hook(result, args, kwargs)
            return result

        return wrapper

    def reset(self) -> None:
        self.edges.clear()

    # ---- installing ----

    def _modules(self) -> list:
        prefix = self.package.__name__ + "."
        return [self.package] + [mod for name, mod in sorted(sys.modules.items())
                                 if name.startswith(prefix) and mod is not None]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in self._modules():
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in vars(mod).items():
                key = f"{layer}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and key not in UNWRAPPED):
                    wrappers[obj] = self._wrap(obj, key)

        def swap(obj):
            return wrappers.get(obj, obj) if inspect.isfunction(obj) else obj

        for mod in self._modules():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj):
                    new = swap(obj)
                elif type(obj) is tuple:
                    new = tuple(swap(v) for v in obj)
                elif type(obj) is dict:
                    new = {k: swap(v) for k, v in obj.items()}
                else:
                    continue
                if new != obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, new)

    def uninstall(self) -> None:
        while self._patches:
            mod, name, original = self._patches.pop()
            setattr(mod, name, original)

    # ---- reading ----

    def layer_totals(self) -> dict:
        """layer -> {"calls": n, "self_ns": t} over every wrapped function."""
        out = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
        for (_, key), (calls, _, self_ns) in self.edges.items():
            slot = out[key.partition(".")[0]]
            slot["calls"] += calls
            slot["self_ns"] += self_ns
        return out

    def calls(self, key: str, parent_prefix: str | None = None) -> int:
        """Calls of one function, optionally only from parents whose key starts
        with parent_prefix."""
        return sum(e[0] for (parent, k), e in self.edges.items()
                   if k == key and (parent_prefix is None
                                    or (parent or "").startswith(parent_prefix)))

    def total_ns(self, key: str) -> int:
        return sum(e[1] for (_, k), e in self.edges.items() if k == key)
