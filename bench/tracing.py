"""Spans and counters around kdeform's public entry points, installed at run
time from the benchmark's own files; nothing under src/ is edited.

A target is "module:qualname".  A module-level function is replaced wherever a
loaded kdeform module binds it, so ``divide_h`` is wrapped in ``algebra``,
``bases`` and the package namespace alike; a method is replaced on its class.
A target that no longer resolves is recorded as absent, never an error.

Spans nest through a stack.  Each span name keeps its call count, its total
time and its self time (total minus the time of the spans opened inside it);
each (parent, child) pair keeps its call count and time.  Counters only count
calls, for entry points too hot to time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# Which end-to-end metric each layer should move, and on which workload, is in
# README.md next to this file.
SPANS = {
    "hopf.tables": [
        "kdeform.hopf:DeformationContext.coproduct",
        "kdeform.hopf:DeformationContext.antipode",
    ],
    "hopf.pi_identities": ["kdeform.hopf:pi_identities_report"],
    "hopf.coproduct_of": ["kdeform.hopf:DeformationContext.coproduct_of"],
    "hopf.antipode_of": ["kdeform.hopf:DeformationContext.antipode_of"],
    "algebra.mul_terms": ["kdeform.algebra:PoincareAlgebra.mul_terms"],
    "algebra.normal_order": ["kdeform.algebra:PoincareAlgebra.normal_order"],
    "algebra.series": [
        "kdeform.algebra:series_invert",
        "kdeform.algebra:series_exp",
        "kdeform.algebra:series_log_one_plus",
        "kdeform.algebra:divide_h",
    ],
    "tensors.mul": ["kdeform.tensors:TensorElement.__mul__"],
    "tensors.series": ["kdeform.tensors:tensor_exp", "kdeform.tensors:tensor_invert"],
    "bases.verify_mr": ["kdeform.bases:verify_mr"],
    "bases.lift": ["kdeform.hopf:DeformationContext.lift"],
    "bases.adapted_context": ["kdeform.bases:adapted_context"],
    "twist.build_twist": ["kdeform.twist:build_twist"],
    "twist.verify_twist": ["kdeform.twist:verify_twist"],
    "minkowski.mink_multiply": ["kdeform.minkowski:mink_multiply"],
    "minkowski.act": ["kdeform.minkowski:act"],
    "minkowski.verify_covariance": ["kdeform.minkowski:verify_covariance"],
}
_FRACTION_OPS = ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv")
COUNTERS = {
    "algebra.mono_product": ["kdeform.algebra:PoincareAlgebra.mono_product"],
    "scalars.fraction_ops": [f"fractions:Fraction.__{op}__" for op in _FRACTION_OPS],
}


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.edges = {}  # (parent, name) -> [calls, total_s]
        self.absent = []  # targets that did not resolve
        self._stack = []  # open spans: [name, time of closed children]

    def install(self):
        for name, targets in SPANS.items():
            for target in targets:
                self._wrap(target, functools.partial(self._timed, name))
        for name, targets in COUNTERS.items():
            for target in targets:
                self._wrap(target, functools.partial(self._counted, name))

    def _wrap(self, target: str, make):
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(target)
            return
        module = owner
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.absent.append(target)
            return
        wrapped = make(fn)
        if owner is not module:
            setattr(owner, attr, wrapped)
            return
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if mod is module or name == "kdeform" or name.startswith("kdeform."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _timed(self, name: str, fn):
        stat = self._stat(name)
        stack, close, clock = self._stack, self._close, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(stat, frame, clock() - t0)

        return wrapper

    def _close(self, stat: list, frame: list, d: float):
        self._stack.pop()
        stat[0] += 1
        stat[1] += d
        stat[2] += d - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += d
        edge = self.edges.setdefault((parent and parent[0], frame[0]), [0, 0.0])
        edge[0] += 1
        edge[1] += d

    def _counted(self, name: str, fn):
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args):
            stat[0] += 1
            return fn(*args)

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark around its own calls."""
        stat = self._stat(name)
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(stat, frame, time.perf_counter() - t0)

    def summary(self) -> dict:
        return {
            "stats": self.stats,
            "edges": [[parent, name, n, t] for (parent, name), (n, t) in self.edges.items()],
            "absent": self.absent,
        }
