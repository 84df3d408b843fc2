"""Outside-in span tracer for the fockatom benchmark.

The program itself records nothing. The tracer replaces selected public
functions with timing wrappers at every namespace that bound them: the
defining module, each module that imported the name, the package root, and
the solver table `analysis._SOLVERS` (its values are function objects, so a
name-only patch would miss every sweep cell). Spans stay in memory; the
benchmark writes them out when it ends.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

# (module, attribute) of each traced callable. pulses and grids are too cheap
# to time on their own; their cost lands in the self time of the caller.
TRACED = (
    ("spectra", "driving_term_uniform"),
    ("spectra", "MemoryKernel.uniform"),
    ("dynamics", "solve_closed_form_lorentzian"),
    ("dynamics", "solve_ode_reduction"),
    ("dynamics", "solve_volterra"),
    ("dynamics", "solve_markov"),
    ("dynamics", "spontaneous_decay"),
    ("dynamics", "delta_pulse_rise"),
    ("analysis", "sweep_pmax"),
    ("analysis", "cell_grid"),
    ("detectors", "linear_response"),
    ("detectors", "fock_atom_response"),
    ("detectors", "bloch_response"),
    ("serialize", "write_csv"),
    ("serialize", "write_json"),
    ("serialize", "write_trajectory"),
    ("serialize", "write_sweep"),
    ("serialize", "write_detector_trace"),
    ("cli", "main"),
    ("cli", "normalize_config"),
)

# Namespaces searched for bindings of the traced callables.
NAMESPACES = ("spectra", "dynamics", "analysis", "detectors", "serialize", "cli")

ROOT = "bench.job"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str


class Tracer:
    """Records nested spans; `spans[i].parent` indexes the enclosing span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job = ""

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self._job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def job(self, job_id: str):
        """Root span of one benchmark job; every span inside carries job_id."""
        self._job = job_id
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)
            self._job = ""

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the TRACED callables; restore on exit."""
        import importlib

        import fockatom

        modules = {m: importlib.import_module(f"fockatom.{m}") for m in NAMESPACES}
        patched = []  # (owner, attribute, original)
        for mod_name, attr in TRACED:
            owner = modules[mod_name]
            if "." in attr:  # a method: the class is its only namespace
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                patched.append((cls, meth, original))
                setattr(cls, meth, self.wrap(f"{mod_name}.{attr}", original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", original)
            for ns in (fockatom, *modules.values()):
                if ns.__dict__.get(attr) is original:
                    patched.append((ns, attr, original))
                    setattr(ns, attr, wrapper)
            solvers = modules["analysis"]._SOLVERS
            for key, fn in list(solvers.items()):
                if fn is original:
                    patched.append((solvers, key, original))
                    solvers[key] = wrapper
        try:
            yield
        finally:
            for owner, attr, original in reversed(patched):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def wrapper_cost(calls: int = 20_000, rounds: int = 7) -> float:
    """Seconds one traced call adds over a plain call.

    Median over `rounds` tight loops of a wrapped no-op against the bare
    no-op. Times the spans' count, it estimates the tracer's overhead from
    quantities that do not drift with the machine's load, unlike a traced
    pass against an untraced one.
    """
    def noop():
        return None

    extra = []
    for _ in range(rounds):
        tracer = Tracer()
        traced = tracer.wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        extra.append(((t2 - t1) - (t1 - t0)) / calls)
    extra.sort()
    return extra[rounds // 2]
