"""Tiny prefix calculus for defining test functions in instance files.

An expression is nested JSON: a number is a constant, the string "x3" is the
third coordinate (1-based), and a list is an operator application, e.g.

    ["-", ["norm2", "x1", "x2"], 1]

for the unit-disc membership function.  Compilation produces a batch oracle
whose gradients come from one reverse (adjoint) pass, so a gradient query
costs a small multiple of one evaluation at any dimension.  At kink points of
max/min/abs the gradient is the lowest-index branch choice, which is fine
because consumers only trust gradients away from the nonsmooth locus.

Tape contract: _compile walks the JSON with an explicit stack and emits a
postfix tape, one row per node: ("const", c), ("coord", j) for coordinate
j + 1, or ((value, partials), k) for an operator of k arguments, the rules
from its _OPS row.  _run's forward pass reads the rows in order on points
(n, dim): a leaf pushes its values (n,), an operator pops the top k and
pushes value(args), and the one array left is f's.  A gradient query keeps
each operator's args and value, then reads the rows backwards with a stack of
adjoints df/dnode, the root's being 1: an operator pops its adjoint a and
pushes a * p for each p in partials(args, value), 0 where a is 0 (a max/min
branch not picked may have an infinite partial), which leaves its last
argument, the next row back, on top; a coordinate leaf adds its adjoint into
G[:, j].  The tape is a tree, so each node gets one adjoint.  Nothing
recurses, so nesting depth is unbounded.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import accumulate
from typing import Any, Callable

import numpy as np

from .core import FunctionOracle

__all__ = ["ExpressionError", "compile_expression"]

_COORD_RE = re.compile(r"^x([1-9][0-9]*)$")


class ExpressionError(ValueError):
    pass


def _fmt(x: float) -> str:
    if float(x) == int(x):
        return str(int(x))
    return repr(float(x))


_Row = tuple[Any, Any]  # ("const", c), ("coord", j) or ((value, partials), argument count)


def _mul_partials(vs, v) -> list:
    """Product of the other factors, for each factor."""
    left = [1.0, *accumulate(vs[:-1], np.multiply)]
    right = [*accumulate(vs[:0:-1], np.multiply)][::-1] + [1.0]
    return [lo * hi for lo, hi in zip(left, right)]


def _pick(arg: Callable) -> tuple[Callable, Callable]:
    def value(vs):
        vstack = np.stack(vs)                  # (k, n)
        idx = arg(vstack, axis=0)              # ties resolve to lowest index
        return vstack[idx, np.arange(vstack.shape[1])]

    # 1 for the picked argument, 0 for the others
    return value, lambda vs, v: np.arange(len(vs))[:, None] == arg(np.stack(vs), axis=0)


def _norm2(vs):
    vstack = np.stack(vs)                      # (k, n)
    return np.sqrt(np.sum(vstack * vstack, axis=0))


def _norm2_partials(vs, s):
    w = np.stack(vs) / np.maximum(s, 1e-300)
    w[:, s == 0.0] = 0.0
    return w


# operator: (least arguments, most arguments or None, value rule, partials rule);
# partials(args, value) gives d value / d args[i] for each argument
_OPS = {
    "+": (1, None, lambda vs: reduce(np.add, vs), lambda vs, v: [1.0] * len(vs)),
    "-": (1, 2, lambda vs: -vs[0] if len(vs) == 1 else vs[0] - vs[1],
          lambda vs, v: [-1.0] if len(vs) == 1 else [1.0, -1.0]),
    "*": (1, None, lambda vs: reduce(np.multiply, vs), _mul_partials),
    "max": (1, None, *_pick(np.argmax)),
    "min": (1, None, *_pick(np.argmin)),
    "abs": (1, 1, lambda vs: np.abs(vs[0]), lambda vs, v: [np.sign(vs[0])]),
    "sqr": (1, 1, lambda vs: vs[0] * vs[0], lambda vs, v: [2.0 * vs[0]]),
    "norm2": (1, None, _norm2, _norm2_partials),
}


def _compile(expr: Any, dim: int) -> tuple[list[_Row], str]:
    """Postfix tape and descriptor; types are checked on entry, operator and arity on exit.
    A node found inside itself (a Python list that contains itself) is an error."""
    tape: list[_Row] = []
    descs: list[str] = []
    todo = [(expr, False)]
    open_ids: set[int] = set()  # operator nodes entered and not yet exited
    while todo:
        e, args_done = todo.pop()
        if args_done:
            open_ids.discard(id(e))
            op, k = e[0], len(e) - 1
            if op not in _OPS:
                raise ExpressionError(f"unknown operator {op!r}")
            lo, hi, *rules = _OPS[op]
            if k < lo or (hi is not None and k > hi):
                raise ExpressionError(f"{op} got {k} arguments")
            tape.append((tuple(rules), k))
            descs[-k:] = ["(" + " ".join([op, *descs[-k:]]) + ")"]
        elif isinstance(e, bool):
            raise ExpressionError("booleans are not valid expressions")
        elif isinstance(e, (int, float)):
            tape.append(("const", float(e)))
            descs.append(_fmt(float(e)))
        elif isinstance(e, str):
            m = _COORD_RE.match(e)
            if not m:
                raise ExpressionError(f"bad atom {e!r}, expected x1..x{dim}")
            j = int(m.group(1)) - 1
            if j >= dim:
                raise ExpressionError(f"coordinate {e} out of range for dim {dim}")
            tape.append(("coord", j))
            descs.append(e)
        elif not isinstance(e, (list, tuple)) or not e:
            raise ExpressionError(f"bad expression node {e!r}")
        elif not isinstance(e[0], str):
            raise ExpressionError(f"operator must be a string, got {e[0]!r}")
        elif id(e) in open_ids:
            raise ExpressionError("expression contains itself")
        else:
            open_ids.add(id(e))
            todo.append((e, True))
            todo.extend((a, False) for a in reversed(e[1:]))
    return tape, descs[0]


def _run(tape: list[_Row], pts: np.ndarray, grad: bool) -> np.ndarray:
    """f's values at pts (n, dim), or its gradients (n, dim) if grad."""
    vs: list[np.ndarray] = []
    kept: list[tuple[list[np.ndarray], np.ndarray]] = []  # operators' arguments and values
    for head, arg in tape:
        if head == "const":
            v = np.full(pts.shape[0], arg)
        elif head == "coord":
            v = pts[:, arg].copy()
        else:
            args = vs[-arg:]
            del vs[-arg:]
            v = head[0](args)
            if grad:
                kept.append((args, v))
        vs.append(v)
    if not grad:
        return vs[0]
    G = np.zeros_like(pts)
    adjoints = [np.ones(pts.shape[0])]
    for head, arg in reversed(tape):
        a = adjoints.pop()
        if head == "coord":
            G[:, arg] += a
        elif head != "const":
            args, v = kept.pop()
            adjoints.extend(a * np.where(a == 0.0, 0.0, p) for p in head[1](args, v))
    return G


def compile_expression(expr: Any, dim: int) -> FunctionOracle:
    """Compile a prefix expression into a batch oracle with gradients."""
    tape, desc = _compile(expr, dim)

    def batch(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != dim:
            raise ExpressionError(f"points have dim {pts.shape[1]}, expected {dim}")
        return pts

    return FunctionOracle(eval=lambda pts: _run(tape, batch(pts), False),
                          grad=lambda pts: _run(tape, batch(pts), True), descriptor=desc)
