"""Tiny prefix calculus for defining test functions in instance files.

An expression is nested JSON: a number is a constant, the string "x3" is the
third coordinate (1-based), and a list is an operator application, e.g.

    ["-", ["norm2", "x1", "x2"], 1]

for the unit-disc membership function.  Compilation produces a batch oracle
together with forward-mode gradients; at kink points of max/min/abs the
gradient is the lowest-index branch choice, which is fine because consumers
only trust gradients away from the nonsmooth locus.

Node contract: a compiled node is called as node(pts, grad) on points
(n, dim) and returns (values (n,), gradients (n, dim)), or (values, None)
when grad is false.  Each operator is one _OPS row (least and most
arguments, rule); rule(vs, gs) maps the children's values and gradients to
the node's pair, and gs is None on a value query, so no derivative is formed.
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
_Node = Callable[[np.ndarray, bool], _Pair]


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


def _compile(expr: Any, dim: int) -> tuple[_Node, str]:
    if isinstance(expr, bool):
        raise ExpressionError("booleans are not valid expressions")
    if isinstance(expr, (int, float)):
        c = float(expr)

        def const(pts: np.ndarray, grad: bool) -> _Pair:
            return np.full(pts.shape[0], c), np.zeros_like(pts) if grad else None

        return const, _fmt(c)

    if isinstance(expr, str):
        m = _COORD_RE.match(expr)
        if not m:
            raise ExpressionError(f"bad atom {expr!r}, expected x1..x{dim}")
        j = int(m.group(1)) - 1
        if j >= dim:
            raise ExpressionError(f"coordinate {expr} out of range for dim {dim}")

        def coord(pts: np.ndarray, grad: bool) -> _Pair:
            g = None
            if grad:
                g = np.zeros_like(pts)
                g[:, j] = 1.0
            return pts[:, j].copy(), g

        return coord, expr

    if not isinstance(expr, (list, tuple)) or not expr:
        raise ExpressionError(f"bad expression node {expr!r}")

    op = expr[0]
    if not isinstance(op, str):
        raise ExpressionError(f"operator must be a string, got {op!r}")
    args = [_compile(a, dim) for a in expr[1:]]
    if op not in _OPS:
        raise ExpressionError(f"unknown operator {op!r}")
    lo, hi, rule = _OPS[op]
    if len(args) < lo or (hi is not None and len(args) > hi):
        raise ExpressionError(f"{op} got {len(args)} arguments")
    children = [a[0] for a in args]
    desc = "(" + " ".join([op] + [a[1] for a in args]) + ")"

    def node(pts: np.ndarray, grad: bool) -> _Pair:
        vs, gs = zip(*[child(pts, grad) for child in children])
        return rule(vs, gs if grad else None)

    return node, desc


def compile_expression(expr: Any, dim: int) -> FunctionOracle:
    """Compile a prefix expression into a batch oracle with gradients."""
    node, desc = _compile(expr, dim)

    def batch(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != dim:
            raise ExpressionError(f"points have dim {pts.shape[1]}, expected {dim}")
        return pts

    return FunctionOracle(eval=lambda pts: node(batch(pts), False)[0],
                          grad=lambda pts: node(batch(pts), True)[1], descriptor=desc)
