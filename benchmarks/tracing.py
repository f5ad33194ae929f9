"""Spans and counters recorded around levyham's public functions.

The benchmark's child process installs a ``Tracer`` after importing the
package and removes it before exiting. Installing replaces every binding
of a wrapped function in every loaded ``levyham`` module (module globals,
``from`` imports and module-level dispatch dicts), so calls made inside a
module go through the wrapper too. Removing restores the original objects.

Span times come from ``time.monotonic``, which on Linux reads the
system-wide CLOCK_MONOTONIC, so the parent process can compare them with
its own spawn and exit timestamps.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

CLOCK = time.monotonic

# Layers in the order the metrics list them; each is one levyham module.
LAYERS = ("cli", "config", "measures", "simulate", "ergodicity", "constants", "model",
          "generator")

# Public functions left unwrapped, so their time is self time of their caller.
# The steppers and jump rules run once per Euler window or per jump, where a
# span costs about as much as the body. The per-replica path functions are the
# stepping kernel itself; their time is reported as the self time of the
# ensemble that calls them, the unit a replica-batched kernel would replace.
UNWRAPPED = frozenset({
    "simulate.step_single", "simulate.step_pair", "simulate.classify_jump",
    "simulate.simulate_single", "simulate.simulate_pair",
    "measures.truncate", "measures.overlap_density", "measures.overlap_ratio",
})

_MARK = "__bench_span__"


def _loaded_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "levyham" or name.startswith("levyham."))]


class Patcher:
    """Replaces every binding of a function in the loaded levyham modules."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement):
        for module in _loaded_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((vars(module), attr, original))
                    setattr(module, attr, replacement)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, original))
                            value[key] = replacement

    def restore(self):
        while self._undo:
            table, key, original = self._undo.pop()
            table[key] = original


def public_functions(module):
    """``(name, function)`` for the functions a module defines without a leading underscore."""
    return [(name, obj) for name, obj in sorted(vars(module).items())
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def wrapped_count() -> int:
    """Number of tracing wrappers still bound anywhere in the loaded levyham modules."""
    n = 0
    for module in _loaded_modules():
        for value in vars(module).values():
            if callable(value) and hasattr(value, _MARK):
                n += 1
            elif isinstance(value, dict):
                n += sum(1 for item in value.values() if callable(item) and hasattr(item, _MARK))
    return n


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, nested]``: ``parent`` is the index
    of the enclosing span (-1 for a root) and ``nested`` is true when a span
    of the same name encloses it (a recursive call), so busy time counts the
    outermost call only. ``counters`` holds counts taken at the same
    boundaries, from each call's arguments and result.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patcher = Patcher()

    def count(self, key: str, amount: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _open(self, name):
        idx = len(self.spans)
        depth = self._depth.get(name, 0)
        self.spans.append([name, CLOCK(), 0.0, self._stack[-1] if self._stack else -1,
                           depth > 0])
        self._stack.append(idx)
        self._depth[name] = depth + 1
        return idx

    def _close(self, idx):
        span = self.spans[idx]
        span[2] = CLOCK()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def enclosing(self) -> set[str]:
        """Names of the spans open at this moment."""
        return {self.spans[i][0] for i in self._stack}

    def record(self, name, start, end):
        """Add a finished root span measured outside the wrappers."""
        self.spans.append([name, start, end, -1, False])

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            outer = not tracer.spans[idx][4]
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if outer:
                    tracer.count(f"{name}.raised")
                raise
            finally:
                tracer._close(idx)
            if outer and counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        setattr(traced, _MARK, name)
        return traced

    def install(self, counters=None):
        """Wrap the public functions of every layer module; returns the number wrapped."""
        counters = counters or {}
        n = 0
        for layer in LAYERS:
            module = sys.modules.get(f"levyham.{layer}")
            if module is None:
                continue
            for fname, fn in public_functions(module):
                name = f"{layer}.{fname}"
                if name in UNWRAPPED:
                    continue
                self._patcher.replace(fn, self.wrap(name, fn, counters.get(name)))
                n += 1
        return n

    def uninstall(self):
        self._patcher.restore()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def check_nesting(spans, tol: float = 1e-6) -> list[str]:
    """Problems found: a child outside its parent, or a negative self time."""
    problems = []
    for i, s in enumerate(spans):
        if s[2] < s[1]:
            problems.append(f"span {i} {s[0]} ends before it starts")
        if s[3] >= 0:
            p = spans[s[3]]
            if s[1] < p[1] - tol or s[2] > p[2] + tol:
                problems.append(f"span {i} {s[0]} lies outside its parent {p[0]}")
    for i, t in enumerate(self_times(spans)):
        if t < -tol:
            problems.append(f"span {i} {spans[i][0]} has negative self time {t:.3g}")
    return problems
