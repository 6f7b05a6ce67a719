"""In-memory spans around calls into the jetforms layers.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  Names are ``<layer>.<function>`` where the
layer is the jetforms module the function lives in.  A span's self time is
its duration minus the durations of its direct children.

Spans are recorded only around calls the benchmark makes itself and around
the public names that ``jetforms.cli`` and ``jetforms.dedonder`` bind, which
the tracer rebinds for the duration of a traced operation.  Nothing inside
the library is edited.
"""
from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "cli",
    "problem",
    "jets",
    "expressions",
    "forms",
    "dedonder",
    "prolongations",
    "numeric",
)


def layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list):
        record[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def call(self, name: str, fn, *args, **kwargs):
        record = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(record)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    def _rebind(self, module, attr: str, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        """Rebind the jetforms functions that cli.py and dedonder.py call.

        Classes keep their identity (isinstance checks and exception
        handling depend on it); the energy functional is the one class whose
        instances are called per step, so its construction and its calls get
        spans through a thin factory.
        """
        import jetforms.cli as cli
        import jetforms.dedonder as dedonder

        for module in (cli, dedonder):
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__.startswith("jetforms.")
                    and not attr.startswith("_")
                    and value.__module__ != "jetforms.cli"
                ):
                    self._rebind(module, attr, self.wrap(f"{layer_of(value)}.{attr}", value))
        # cmd_verify imports these two inside the function, from jetforms.forms
        import jetforms.forms as forms

        for attr in ("holonomic_reduce", "is_semibasic"):
            self._rebind(forms, attr, self.wrap(f"forms.{attr}", getattr(forms, attr)))
        energy_cls = cli.EnergyFunctional

        def energy_functional(theta):
            energy = self.call("numeric.EnergyFunctional", energy_cls, theta)
            return self.wrap("numeric.energy_call", energy)

        self._rebind(cli, "EnergyFunctional", energy_functional)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def self_times(spans: list) -> list:
    """Self time of every span, in the order of ``spans``."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def by_name(spans: list) -> dict:
    """name -> [total self time, calls]."""
    totals: dict = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += own
        entry[1] += 1
    return totals


def by_layer(spans: list) -> dict:
    """layer -> total self time; every layer in LAYERS is present."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        totals[layer] += own
    return totals


def merge(groups) -> list:
    """Concatenate span lists recorded separately, keeping parent links."""
    out: list = []
    for spans in groups:
        offset = len(out)
        out.extend([name, start, end, parent + offset if parent >= 0 else -1]
                   for name, start, end, parent in spans)
    return out
