"""Spans around the library's layer functions, patched in at their call sites.

Several names are bound in more than one module (``from .x import name``),
so a function is wrapped in every module that calls it, under one span name.
``epicert.signed_distance`` as a package attribute is the exported function,
which shadows the submodule, so modules are looked up with
``importlib.import_module``.

Each span records its name, start, end, parent and root (the top-level call
it belongs to), plus the base-oracle points consumed inside it.  Self time is
the span's duration minus the time of its child spans and of oracle calls
made directly inside it.  Spans stay in memory; ``summary`` turns them into
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from collections import defaultdict

# (module, attribute, span name): every call site of every traced layer
CALL_SITES = (
    ("epicert.clarke", "directional_derivative", "clarke.directional_derivative"),
    ("epicert.clarke", "min_norm_point", "clarke.min_norm_point"),
    ("epicert.clarke", "estimate_gradient_hull", "clarke.estimate_gradient_hull"),
    ("epicert.verify", "estimate_gradient_hull", "clarke.estimate_gradient_hull"),
    ("epicert.epirep", "is_nondegenerate", "clarke.is_nondegenerate"),
    ("epicert.signed_distance", "is_nondegenerate", "clarke.is_nondegenerate"),
    ("epicert.epirep", "local_lipschitz_constant", "clarke.local_lipschitz_constant"),
    ("epicert.epirep", "find_descent_radius", "epirep.find_descent_radius"),
    ("epicert.epirep", "lambda_values", "epirep.lambda_values"),
    ("epicert.verify", "lambda_values", "epirep.lambda_values"),
    ("epicert.epirep", "sample_cylinder", "epirep.sample_cylinder"),
    ("epicert.verify", "sample_cylinder", "epirep.sample_cylinder"),
    ("epicert.epirep", "measured_cylinder_lipschitz", "epirep.measured_cylinder_lipschitz"),
    ("epicert.verify", "measured_cylinder_lipschitz", "epirep.measured_cylinder_lipschitz"),
    # certify is also reached from promote_to_certificate by a call-time import
    ("epicert.epirep", "certify", "epirep.certify"),
    # certify imports run_suite from verify at call time
    ("epicert.verify", "run_suite", "verify.run_suite"),
    ("epicert.signed_distance", "signed_distance_values",
     "signed_distance.signed_distance_values"),
    ("epicert.signed_distance", "check_theorem2", "signed_distance.check_theorem2"),
    ("epicert.signed_distance", "promote_to_certificate",
     "signed_distance.promote_to_certificate"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in CALL_SITES))

GATING_LEMMAS = ("L1", "L2", "L3", "L4", "L5", "L6")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Counts read off a layer's arguments and result, per span name.  Each
# observer returns {counter: increment}.
def _nondegenerate(args, kwargs, out):
    return {"directions_tried": out.directions_tried,
            "witnesses": int(out.witness is not None)}


def _lipschitz(args, kwargs, out):
    return {"n_quotients": out.n_quotients,
            "hint_rejections": int(out.hint_inconsistent)}


def _radius(args, kwargs, out):
    cfg = _arg(args, kwargs, 5, "cfg")
    r0 = kwargs.get("r0", 1.0)
    return {"halvings": round(math.log(r0 / out) / math.log(1.0 / cfg.shrink_factor))}


def _lambda(args, kwargs, out):
    return {"rows": len(_arg(args, kwargs, 4, "Y"))}


def _run_suite(args, kwargs, out):
    return {"lemma_failures": sum(
        1 for lid in GATING_LEMMAS if lid in out.per_lemma and not out.per_lemma[lid].passed)}


def _sd_values(args, kwargs, out):
    return {"rows": len(_arg(args, kwargs, 1, "Y")), "saturated": int(out[1].sum())}


OBSERVERS = {
    "clarke.is_nondegenerate": _nondegenerate,
    "clarke.local_lipschitz_constant": _lipschitz,
    "epirep.find_descent_radius": _radius,
    "epirep.lambda_values": _lambda,
    "verify.run_suite": _run_suite,
    "signed_distance.signed_distance_values": _sd_values,
}


class Tracer:
    """Records spans for the patched layer functions and the oracle."""

    def __init__(self, counter) -> None:
        self.counter = counter
        # (id, name, start, end, parent id, root id, self_s, oracle points)
        self.spans: list[tuple] = []
        self._stack: list[list] = []     # [span id, time in children]
        self._next_id = 0
        self.counts: dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.oracle_busy = 0.0

    def add_oracle_time(self, seconds: float) -> None:
        self.oracle_busy += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        counter = self.counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            root = self._stack[0][0] if self._stack else span_id
            frame = [span_id, 0.0]
            self._stack.append(frame)
            points0 = counter.points
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counts[name]["errors"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += t1 - t0
                self.spans.append((span_id, name, t0, t1, parent, root,
                                   t1 - t0 - frame[1], counter.points - points0))
            if observe is not None:
                for key, inc in observe(args, kwargs, out).items():
                    self.counts[name][key] += inc
            return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Patch every call site for the duration of the block, then undo."""
        originals = []
        try:
            for module_name, attr, name in CALL_SITES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            self.counter.tracer = self
            yield self
        finally:
            self.counter.tracer = None
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def share(self, child: str, ancestor: str) -> float:
        """Time in ``child`` spans that run below an ``ancestor`` span, over
        the time of the outermost ``ancestor`` spans."""
        info = {span[0]: (span[1], span[4]) for span in self.spans}

        def below(span_id, name):
            parent = info[span_id][1]
            while parent is not None:
                if info[parent][0] == name:
                    return True
                parent = info[parent][1]
            return False

        num = den = 0.0
        for span_id, name, t0, t1, *_ in self.spans:
            if name == child and not below(span_id, child) and below(span_id, ancestor):
                num += t1 - t0
            elif name == ancestor and not below(span_id, ancestor):
                den += t1 - t0
        return num / den if den > 0 else 0.0

    def summary(self) -> dict[str, dict]:
        """Per-layer totals: calls, busy (inclusive) and self time, max
        duration and oracle points, per span name; plus the named counts."""
        out: dict[str, dict] = {}
        for name in SPAN_NAMES:
            out[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "max_s": 0.0,
                         "oracle_points": 0}
        for _id, name, t0, t1, _parent, _root, self_s, points in self.spans:
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += t1 - t0
            row["self_s"] += self_s
            row["max_s"] = max(row["max_s"], t1 - t0)
            row["oracle_points"] += points
        for name, counts in self.counts.items():
            out[name].update(counts)
        return out
