"""Spans around the public functions of the qefilters modules, and self times.

``Tracer.install`` wraps each public function, each public method and each
class constructor of the layer modules, and rebinds every module attribute
that refers to an original (``from .projection import backward`` copies the
name into the importing module) in this process only. ``uninstall`` puts the
originals back. Private helpers get no span; their time counts as the self
time of the public caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = (
    "synthetic",
    "cubeio",
    "filterbank",
    "projection",
    "training",
    "regularization",
    "metrics",
    "classical",
    "cli",
)

# Both heads report under one name, so the figure does not depend on which
# head a workload uses.
_CLASS_ALIASES = {"training.LinearHead": "training.head", "training.MlpHead": "training.head"}

# CLI subcommands are private functions; they get spans under their command names.
_CLI_COMMANDS = {"_cmd_gen_synth": "cli.gen-synth", "_cmd_train": "cli.train", "_cmd_reduce": "cli.reduce"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list, None for a root span


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


def _array_bytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays)


def _apply_bytes(args, result):
    # Computed bytes: the cube is read once and the reduced cube written once.
    return {"bytes": _array_bytes(args[0].data, result.data)}


def _backward_bytes(args, result):
    # Computed bytes: the (F, C) contraction reads the upstream gradient and the cube once.
    return {"bytes": _array_bytes(args[0].data, args[2])}


def _train_counts(args, result):
    return {"epochs": len(result.records), "val_miou": result.best_val_miou}


def _nmf_counts(args, result):
    return {"iterations": result[0].iterations_run}


# Counts recorded from a call's arguments and result, summed per span name.
_COUNTERS = {
    "projection.apply_filter_bank": _apply_bytes,
    "projection.backward": _backward_bytes,
    "training.train": _train_counts,
    "classical.fit_nmf": _nmf_counts,
}


class Tracer:
    """Collects spans and counts while installed; ``take`` hands them over."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.bank_states: set = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        is_bank = name == "filterbank.evaluate_filter_bank"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[f"{name}.{key}"] += value
            if is_bank:
                params, lam = args[0], args[1]
                self.bank_states.add((params.table.tobytes(), np.asarray(lam, dtype=float).tobytes()))
            return result

        return wrapper

    def take(self):
        """Return and clear what was recorded: (spans, counts, distinct bank states)."""
        out = (self.spans, dict(self.counts), len(self.bank_states))
        self.spans, self.counts, self.bank_states = [], defaultdict(float), set()
        return out

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        replaced = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"qefilters.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr in _CLI_COMMANDS and layer == "cli":
                    replaced[id(obj)] = (obj, self._wrap(_CLI_COMMANDS[attr], obj))
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(name, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(_CLASS_ALIASES.get(name, name), obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "qefilters" and not module_name.startswith("qefilters."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, hit[1])

    def _wrap_class(self, name: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__" and inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(f"{name}.{attr}", raw))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(f"{name}.{attr}", raw.__func__)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []
