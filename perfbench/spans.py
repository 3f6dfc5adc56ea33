"""Spans and counters around qpfiber's public functions, from outside.

`Tracer.install` rebinds each traced function, in its defining module and
in every ``qpfiber`` module that imported it by name, to a wrapper that
records a span (calls, total time, self time) and optional counters.
`Tracer.restore` puts every original object back.  A traced name that no
longer exists is skipped and listed in `Tracer.missing`, so the metrics
that depend on it are reported absent instead of breaking the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Target:
    """One traced callable: `module.attr`, or `module.Class.attr` for methods."""

    key: str                 # span / counter name, e.g. "graphcalc.validate"
    module: str              # e.g. "qpfiber.graphcalc"
    attr: str                # "validate" or "CombedGraph.arc_count"
    span: bool = True        # False: count calls only, no timing
    count: Callable | None = None  # (args, result) -> amount added to Span.extra
    aliases: tuple = ()      # other class attributes bound to the same function


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    self: float = 0.0
    extra: int = 0
    nested: dict = field(default_factory=dict)  # enclosing span key -> calls made inside it


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: dict[str, Span] = {t.key: Span() for t in targets}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [key, child time]
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                module = None
            owner_name, _, name = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(name) if owner is not None else None
            if raw is None:
                self.missing.append(target.key)
                continue
            if owner_name:
                static = isinstance(raw, staticmethod)
                wrapper = self._wrap(target, raw.__func__ if static else raw)
                bound = staticmethod(wrapper) if static else wrapper
                for attr in (name,) + target.aliases:
                    if vars(owner).get(attr) is raw:
                        self._rebind(owner, attr, bound)
            else:
                wrapper = self._wrap(target, raw)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "qpfiber" and not mod_name.startswith("qpfiber."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is raw:
                            self._rebind(mod, attr, wrapper)

    def _rebind(self, namespace, attr: str, value) -> None:
        self._rebound.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, value)

    def restore(self) -> None:
        while self._rebound:
            namespace, attr, original = self._rebound.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- recording --------------------------------------------------------

    def _wrap(self, target: Target, func):
        span = self.spans[target.key]
        stack = self._stack
        count = target.count

        if not target.span:
            def counting(*args, **kwargs):
                span.calls += 1
                return func(*args, **kwargs)
            return counting

        def traced(*args, **kwargs):
            span.calls += 1
            for frame in stack:
                span.nested[frame[0]] = span.nested.get(frame[0], 0) + 1
            frame = [target.key, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                span.total += elapsed
                span.self += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                span.extra += count(args, result)
            return result

        return traced

    def self_time(self) -> float:
        """Wall time covered by at least one span (the sum of all self times)."""
        return sum(span.self for span in self.spans.values())
