"""Spans around calls into the psq modules, recorded from outside.

install() replaces every public function of every psq module with a
timing wrapper, in every module namespace that binds it: psq.cone sees
a wrapped sup_q and psq.tables a wrapped compute_bd, so nested calls
become child spans.  uninstall() restores the originals, so untraced
measurement runs the unmodified package.  Only calls made inside a
timed operation (between begin_op and end_op) are recorded, not the
benchmark's own reference calls.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

LAYERS = ("power_sums", "structured", "cone", "oracle", "tables", "cli")


@dataclass
class Span:
    sid: int
    name: str
    op_id: int
    parent: int
    t0: float
    t1: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return (self.t1 - self.t0) - self.child_s


def _entries(v) -> int:
    return int(v.size) if hasattr(v, "size") else len(v)


def _is_exact(v) -> bool:
    first = v.flat[0] if hasattr(v, "flat") else v[0]
    return isinstance(first, (int, Fraction)) and not isinstance(first, bool)


def _quotient_attrs(args, kwargs, result):
    x, y = args[0], args[1]
    return {"entries": _entries(x) + _entries(y), "exact": _is_exact(x) and _is_exact(y)}


# Attributes recorded at the boundary of some calls, for ratios.
ANNOTATE = {
    "power_sums.quotient_q": _quotient_attrs,
    "power_sums.quotient_q_batch": lambda a, k, r: {"entries": int(a[0].size + a[1].size)},
    "structured.sup_q": lambda a, k, r: {"dims": a[0] + a[1]},
    "cone.membership_equal_offdiag": lambda a, k, r: {"verdict": r.verdict},
    "cone.certify_general": lambda a, k, r: {"verdict": r.verdict, "psi_evals": r.n_evaluated},
    "oracle.brute_force_sup": lambda a, k, r: {
        "starts": r.n_starts,
        "converged": r.converged_fraction * r.n_starts,
    },
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op_id = None
        self._next_sid = 0
        self._patched = []

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id

    def end_op(self) -> None:
        self._op_id = None

    def _wrap(self, name, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            self._next_sid += 1
            span = Span(
                self._next_sid,
                name,
                self._op_id,
                parent.sid if parent else -1,
                time.perf_counter(),
            )
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.t1 - span.t0
                self.spans.append(span)
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every psq module imported so far."""
        modules = {"psq": sys.modules["psq"]}
        for layer in LAYERS:
            if f"psq.{layer}" in sys.modules:
                modules[layer] = sys.modules[f"psq.{layer}"]
        wrappers = {}
        for layer, mod in modules.items():
            if layer == "psq":
                continue
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "op": s.op_id,
                            "parent": s.parent,
                            "t0": s.t0,
                            "t1": s.t1,
                            "self_s": s.self_s,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )
