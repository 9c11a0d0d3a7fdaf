"""Outside-in timing spans around the public functions of a package.

``Tracer.install`` replaces every public function of every loaded module
of the package with a timing wrapper, in every module that binds it by
name: ``from .model import forward_series`` in ``training`` makes
``training.forward_series`` a binding of its own, and it is that name the
calling code looks up at call time. The package source is not touched.

Spans are aggregated in memory as they close, per (phase, function) and
per (phase, caller, callee): a span's self time is its duration minus the
time its child spans cover, wrapper bookkeeping included. Hooks read a
call's arguments and result after its span has closed, to count the work
it did (steps, imputed cells, clipped updates); their own time is charged
to no span.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _count_steps(tracer, args, kwargs, result):
    # result is a ForwardCache: top is (T, H), one LayerCache per layer
    tracer.count("steps", result.top.shape[0] * len(result.layers))


def _count_noise(tracer, args, kwargs, result):
    eps = result.eps
    tracer.count("noise_n", eps.size)
    tracer.count("noise_sum", float(eps.sum()))
    tracer.count("noise_sumsq", float(np.dot(eps.ravel(), eps.ravel())))


def _count_imputed(tracer, args, kwargs, result):
    tracer.count("cells_imputed", int(result.missing.sum()))


def _count_clipped(tracer, args, kwargs, result):
    tracer.count("updates_clipped", int(result < 1.0))


def _sample_norm(tracer, args, kwargs, result):
    tracer.sample("grad_norm", result)


def _count_cells(tracer, args, kwargs, result):
    tracer.count("pooled_cells", np.size(args[0]))


HOOKS = {
    "gru.forward_sequence": _count_steps,
    "gru.sample_sequence_noise": _count_noise,
    "model.impute_series": _count_imputed,
    "training.clip_gradients": _count_clipped,
    "training.global_norm": _sample_norm,
    "metrics.micro_auc": _count_cells,
}


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Aggregated spans for the functions of one package, by phase."""

    def __init__(self):
        self.phase_name = "setup"
        self.stats: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.edges: dict[tuple[str, str, str], Stat] = defaultdict(Stat)
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.samples: dict[tuple[str, str], list] = defaultdict(list)
        self._stack: list[list] = []  # [child_time, name] per open span
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def phase(self, name: str):
        outer, self.phase_name = self.phase_name, name
        try:
            yield
        finally:
            self.phase_name = outer

    def count(self, key: str, amount) -> None:
        self.counters[(self.phase_name, key)] += amount

    def sample(self, key: str, value) -> None:
        self.samples[(self.phase_name, key)].append(value)

    def stat(self, phase: str, name: str) -> Stat:
        return self.stats.get((phase, name), Stat())

    def counter(self, phase: str, key: str) -> float:
        return self.counters.get((phase, key), 0.0)

    def _wrap(self, fn, name: str):
        stack = self._stack
        perf = time.perf_counter
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            t0 = perf()
            frame = [0.0, name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            t1 = perf()
            dur = t1 - t0
            phase = self.phase_name
            st = self.stats[(phase, name)]
            st.calls += 1
            st.total += dur
            st.self_time += dur - frame[0]
            if stack:
                edge = self.edges[(phase, stack[-1][1], name)]
                edge.calls += 1
                edge.total += dur
            if hook is not None:
                hook(self, args, kwargs, result)
            if stack:
                stack[-1][0] += perf() - t0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, package: str) -> int:
        """Wrap the package's public functions; returns how many."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__ or ""
                if not (owner == package or owner.startswith(package + ".")):
                    continue
                if id(obj) not in wrappers:
                    short = owner.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{obj.__name__}")
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        return len(wrappers)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def to_dict(self) -> dict:
        """Aggregated spans, edges and counters, for the trace file."""
        return {
            "spans": [{"phase": p, "name": n, "calls": s.calls,
                       "total_s": s.total, "self_s": s.self_time}
                      for (p, n), s in sorted(self.stats.items())],
            "edges": [{"phase": p, "caller": a, "callee": b, "calls": s.calls,
                       "total_s": s.total}
                      for (p, a, b), s in sorted(self.edges.items())],
            "counters": [{"phase": p, "key": k, "value": v}
                         for (p, k), v in sorted(self.counters.items())],
        }


class NullTracer:
    """The untraced run: phases are marked but nothing is recorded."""

    @contextmanager
    def phase(self, name: str):
        yield
