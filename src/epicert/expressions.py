"""Tiny prefix calculus for defining test functions in instance files.

An expression is nested JSON: a number is a constant, the string "x3" is the
third coordinate (1-based), and a list is an operator application, e.g.

    ["-", ["norm2", "x1", "x2"], 1]

for the unit-disc membership function.  Compilation produces a batch oracle
together with forward-mode gradients; at kink points of max/min/abs the
gradient is the lowest-index branch choice, which is fine because consumers
only trust gradients away from the nonsmooth locus.
"""

from __future__ import annotations

import re
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


# Each compiled node maps points (n, d) to (values (n,), gradients (n, d)).
_Node = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _compile(expr: Any, dim: int) -> tuple[_Node, str]:
    if isinstance(expr, bool):
        raise ExpressionError("booleans are not valid expressions")
    if isinstance(expr, (int, float)):
        c = float(expr)

        def const(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            n = pts.shape[0]
            return np.full(n, c), np.zeros_like(pts)

        return const, _fmt(c)

    if isinstance(expr, str):
        m = _COORD_RE.match(expr)
        if not m:
            raise ExpressionError(f"bad atom {expr!r}, expected x1..x{dim}")
        j = int(m.group(1)) - 1
        if j >= dim:
            raise ExpressionError(f"coordinate {expr} out of range for dim {dim}")

        def coord(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    nodes = [a[0] for a in args]
    desc = "(" + " ".join([op] + [a[1] for a in args]) + ")"

    def need(lo: int, hi: int | None = None) -> None:
        k = len(nodes)
        if k < lo or (hi is not None and k > hi):
            raise ExpressionError(f"{op} got {k} arguments")

    if op == "+":
        need(1)

        def add(pts):
            v, g = nodes[0](pts)
            for nd in nodes[1:]:
                v2, g2 = nd(pts)
                v = v + v2
                g = g + g2
            return v, g

        return add, desc

    if op == "-":
        need(1, 2)
        if len(nodes) == 1:

            def neg(pts):
                v, g = nodes[0](pts)
                return -v, -g

            return neg, desc

        def sub(pts):
            v1, g1 = nodes[0](pts)
            v2, g2 = nodes[1](pts)
            return v1 - v2, g1 - g2

        return sub, desc

    if op == "*":
        need(1)

        def mul(pts):
            v, g = nodes[0](pts)
            for nd in nodes[1:]:
                v2, g2 = nd(pts)
                g = g * v2[:, None] + g2 * v[:, None]
                v = v * v2
            return v, g

        return mul, desc

    if op in ("max", "min"):
        need(1)
        pick = np.argmax if op == "max" else np.argmin

        def extremum(pts):
            vs, gs = zip(*(nd(pts) for nd in nodes))
            vstack = np.stack(vs)          # (k, n)
            gstack = np.stack(gs)          # (k, n, d)
            idx = pick(vstack, axis=0)     # ties resolve to lowest index
            n = pts.shape[0]
            return vstack[idx, np.arange(n)], gstack[idx, np.arange(n), :]

        return extremum, desc

    if op == "abs":
        need(1, 1)

        def absolute(pts):
            v, g = nodes[0](pts)
            return np.abs(v), np.sign(v)[:, None] * g

        return absolute, desc

    if op == "sqr":
        need(1, 1)

        def square(pts):
            v, g = nodes[0](pts)
            return v * v, 2.0 * v[:, None] * g

        return square, desc

    if op == "norm2":
        need(1)

        def norm2(pts):
            vs, gs = zip(*(nd(pts) for nd in nodes))
            vstack = np.stack(vs)              # (k, n)
            s = np.sqrt(np.sum(vstack * vstack, axis=0))
            safe = np.maximum(s, 1e-300)
            g_out = np.zeros_like(pts)
            for v, g in zip(vs, gs):
                g_out += (v / safe)[:, None] * g
            g_out[s == 0.0] = 0.0
            return s, g_out

        return norm2, desc

    raise ExpressionError(f"unknown operator {op!r}")


def compile_expression(expr: Any, dim: int) -> FunctionOracle:
    """Compile a prefix expression into a batch oracle with gradients."""
    node, desc = _compile(expr, dim)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != dim:
            raise ExpressionError(f"points have dim {pts.shape[1]}, expected {dim}")
        return node(pts)[0]

    def gradient(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return node(pts)[1]

    return FunctionOracle(eval=evaluate, grad=gradient, descriptor=desc)
