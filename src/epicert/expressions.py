"""Tiny prefix calculus for defining test functions in instance files.

An expression is nested JSON: a number is a constant, the string "x3" is the
third coordinate (1-based), and a list is an operator application, e.g.

    ["-", ["norm2", "x1", "x2"], 1]

for the unit-disc membership function.  Compilation produces a batch oracle
together with forward-mode gradients; at kink points of max/min/abs the
gradient is the lowest-index branch choice, which is fine because consumers
only trust gradients away from the nonsmooth locus.

Tape contract: _compile walks the JSON with an explicit stack and emits a
postfix tape, one row per node: ("const", c), ("coord", j) for coordinate
j + 1, or (rule, k) for an operator of k arguments, rule taken from its _OPS
row (least and most arguments, rule).  _run reads the rows in order on
points (n, dim): a leaf pushes (values (n,), gradients (n, dim)), an operator
pops the top k pairs and pushes rule(vs, gs), and the one pair left is f's.
gs is None on a value query, so no derivative is formed.  Nothing recurses,
so nesting depth is unbounded.
"""

from __future__ import annotations

import re
from functools import reduce
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


_Pair = tuple[np.ndarray, np.ndarray | None]
_Row = tuple[Any, Any]  # ("const", c), ("coord", j) or (rule, argument count)


def _add(vs, gs) -> _Pair:
    return reduce(np.add, vs), None if gs is None else reduce(np.add, gs)


def _sub(vs, gs) -> _Pair:
    if len(vs) == 1:
        return -vs[0], None if gs is None else -gs[0]
    return vs[0] - vs[1], None if gs is None else gs[0] - gs[1]


def _mul(vs, gs) -> _Pair:
    v, g = vs[0], None if gs is None else gs[0]
    for i in range(1, len(vs)):
        if gs is not None:
            g = g * vs[i][:, None] + gs[i] * v[:, None]
        v = v * vs[i]
    return v, g


def _pick(arg: Callable) -> Callable[..., _Pair]:
    def extremum(vs, gs) -> _Pair:
        vstack = np.stack(vs)                  # (k, n)
        idx = arg(vstack, axis=0)              # ties resolve to lowest index
        cols = np.arange(vstack.shape[1])
        return vstack[idx, cols], None if gs is None else np.stack(gs)[idx, cols, :]

    return extremum


def _abs(vs, gs) -> _Pair:
    return np.abs(vs[0]), None if gs is None else np.sign(vs[0])[:, None] * gs[0]


def _sqr(vs, gs) -> _Pair:
    return vs[0] * vs[0], None if gs is None else 2.0 * vs[0][:, None] * gs[0]


def _norm2(vs, gs) -> _Pair:
    vstack = np.stack(vs)                      # (k, n)
    s = np.sqrt(np.sum(vstack * vstack, axis=0))
    if gs is None:
        return s, None
    safe = np.maximum(s, 1e-300)
    g_out = np.zeros_like(gs[0])
    for v, g in zip(vs, gs):
        g_out += (v / safe)[:, None] * g
    g_out[s == 0.0] = 0.0
    return s, g_out


# operator: (least arguments, most arguments or None, rule)
_OPS = {
    "+": (1, None, _add),
    "-": (1, 2, _sub),
    "*": (1, None, _mul),
    "max": (1, None, _pick(np.argmax)),
    "min": (1, None, _pick(np.argmin)),
    "abs": (1, 1, _abs),
    "sqr": (1, 1, _sqr),
    "norm2": (1, None, _norm2),
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
            lo, hi, rule = _OPS[op]
            if k < lo or (hi is not None and k > hi):
                raise ExpressionError(f"{op} got {k} arguments")
            tape.append((rule, k))
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


def _run(tape: list[_Row], pts: np.ndarray, grad: bool) -> _Pair:
    vs: list[np.ndarray] = []
    gs: list[np.ndarray | None] = []
    for head, arg in tape:
        if head == "const":
            v, g = np.full(pts.shape[0], arg), np.zeros_like(pts) if grad else None
        elif head == "coord":
            v, g = pts[:, arg].copy(), np.zeros_like(pts) if grad else None
            if grad:
                g[:, arg] = 1.0
        else:
            v, g = head(vs[-arg:], gs[-arg:] if grad else None)
            del vs[-arg:], gs[-arg:]
        vs.append(v)
        gs.append(g)
    return vs[0], gs[0]


def compile_expression(expr: Any, dim: int) -> FunctionOracle:
    """Compile a prefix expression into a batch oracle with gradients."""
    tape, desc = _compile(expr, dim)

    def batch(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != dim:
            raise ExpressionError(f"points have dim {pts.shape[1]}, expected {dim}")
        return pts

    return FunctionOracle(eval=lambda pts: _run(tape, batch(pts), False)[0],
                          grad=lambda pts: _run(tape, batch(pts), True)[1], descriptor=desc)
