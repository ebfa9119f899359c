"""Per-layer tracing from outside the package.

`Tracer` replaces every binding of the public functions of the package
modules (module attributes, and functions stored in module-level dicts
such as the CLI's weight-column table) with a wrapper that records a
span around each call, and puts the originals back on exit. `approx`
imports `bound_set` and `exact_ber` by name, so rebinding only the
defining module would miss its calls.

Spans are aggregated in memory as they close rather than kept one by
one: per function the call count, total and self time (duration minus
the part covered by child spans), and per (caller, callee) edge the call
count. A quadrature run makes about 190 calls per Marcum evaluation, so
individual spans would not fit a run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass

MODULES = ("specfun", "bounds", "approx", "montecarlo", "cli")

# Private functions the per-layer metrics name explicitly.
EXTRA = {"cli": ("_emit",)}

# Functions whose argument (an SnrPoint) identifies the work: a repeated
# argument within one operation is a call whose result was already known.
KEYED = ("bounds.bound_set", "bounds.exact_ber")


@dataclass
class FnStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    nonpositive: int = 0


class Tracer:
    """Context manager that traces the public functions of `package`."""

    def __init__(self, package):
        self.package = package
        self.stats: dict[str, FnStats] = {}
        self.edges: Counter = Counter()
        self._stack: list[list] = []
        self._keys: dict[str, set] = {name: set() for name in KEYED}
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, FnStats())
        stack = self._stack
        edges = self.edges
        keys = self._keys.get(name)
        count_nonpositive = name == "bounds.exact_ber"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    edges[(parent[0], name)] += 1
            if keys is not None and args:
                keys.add(args[0])
            if count_nonpositive and not result > 0.0:
                stats.nonpositive += 1
            return result

        return traced

    def end_op(self) -> dict[str, int]:
        """Close one operation; returns, per keyed function, the number of
        distinct arguments it was called with during the operation."""
        useful = {}
        for name, seen in self._keys.items():
            useful[name] = len(seen)
            seen.clear()
        return useful

    def __enter__(self) -> "Tracer":
        prefix = self.package.__name__ + "."
        replacements = {}
        for short in MODULES:
            module = sys.modules[prefix + short]
            names = [n for n in vars(module) if not n.startswith("_")] + list(EXTRA.get(short, ()))
            for attr in names:
                obj = getattr(module, attr)
                if callable(obj) and not inspect.isclass(obj) and getattr(obj, "__module__", None) == module.__name__:
                    replacements[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        holders = [self.package] + [m for n, m in sys.modules.items() if n.startswith(prefix)]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._restore.append((setattr, holder, attr, value))
                    setattr(holder, attr, replacements[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replacements and replacements[id(item)][0] is item:
                            self._restore.append((dict.__setitem__, value, key, item))
                            value[key] = replacements[id(item)][1]
        return self

    def __exit__(self, *exc) -> None:
        for setter, holder, key, original in reversed(self._restore):
            setter(holder, key, original)
        self._restore.clear()

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def self_s(self, name: str) -> float:
        return self.stats[name].self_s if name in self.stats else 0.0
