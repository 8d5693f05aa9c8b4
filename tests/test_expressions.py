"""Expression compiler: values, gradients, tie rules, error handling."""

import re
import sys
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from epicert.catalog import rockafellar_truncation
from epicert.core import NonFiniteValue, NormedSpace, NumericConfig, ProblemInstance
from epicert.epirep import EpigraphCertificate, certify
from epicert.expressions import ExpressionError, compile_expression

from conftest import finite_difference_gradients


def _pts(seed, n=40, d=2, scale=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(n, d))


def test_constant_and_coordinate():
    f = compile_expression(3.5, 2)
    p = _pts(0)
    assert np.all(f.values(p) == 3.5)
    assert np.all(f.gradients(p) == 0.0)

    g = compile_expression("x2", 3)
    q = _pts(1, d=3)
    np.testing.assert_array_equal(g.values(q), q[:, 1])
    grads = g.gradients(q)
    np.testing.assert_array_equal(grads[:, 1], np.ones(len(q)))
    np.testing.assert_array_equal(grads[:, [0, 2]], np.zeros((len(q), 2)))


# ref gives the values and the two gradient columns; the gradients hold away
# from the kinks, which random points miss
@pytest.mark.parametrize(
    "expr,ref",
    [
        (["+", "x1", "x2", 1], lambda p: (p[:, 0] + p[:, 1] + 1.0, (1.0, 1.0))),
        (["-", "x1", "x2"], lambda p: (p[:, 0] - p[:, 1], (1.0, -1.0))),
        (["-", "x1"], lambda p: (-p[:, 0], (-1.0, 0.0))),
        (["*", "x1", "x2", 2],
         lambda p: (2.0 * p[:, 0] * p[:, 1], (2.0 * p[:, 1], 2.0 * p[:, 0]))),
        (["max", "x1", "x2"],
         lambda p: (np.maximum(p[:, 0], p[:, 1]), (p[:, 0] > p[:, 1], p[:, 0] < p[:, 1]))),
        (["min", "x1", "x2"],
         lambda p: (np.minimum(p[:, 0], p[:, 1]), (p[:, 0] < p[:, 1], p[:, 0] > p[:, 1]))),
        (["abs", "x1"], lambda p: (np.abs(p[:, 0]), (np.sign(p[:, 0]), 0.0))),
        (["sqr", "x2"], lambda p: (p[:, 1] ** 2, (0.0, 2.0 * p[:, 1]))),
        (["norm2", "x1", "x2"],
         lambda p: (np.hypot(p[:, 0], p[:, 1]), p.T / np.hypot(p[:, 0], p[:, 1]))),
        (
            ["-", ["norm2", "x1", "x2"], 1],
            lambda p: (np.hypot(p[:, 0], p[:, 1]) - 1.0, p.T / np.hypot(p[:, 0], p[:, 1])),
        ),
        (["norm2", "x1", "x2", "x1"],
         lambda p: (np.sqrt(2.0 * p[:, 0] ** 2 + p[:, 1] ** 2),
                    np.array([2.0 * p[:, 0], p[:, 1]]) / np.sqrt(2.0 * p[:, 0] ** 2 + p[:, 1] ** 2))),
        (["*", "x1", "x2", "x1"],
         lambda p: (p[:, 0] ** 2 * p[:, 1], (2.0 * p[:, 0] * p[:, 1], p[:, 0] ** 2))),
    ],
)
def test_ops_match_numpy(expr, ref):
    f = compile_expression(expr, 2)
    p = _pts(7)
    values, columns = ref(p)
    np.testing.assert_allclose(f.values(p), values, atol=1e-14)
    gradients = np.empty_like(p)
    gradients[:, 0], gradients[:, 1] = columns
    np.testing.assert_allclose(f.gradients(p), gradients, atol=1e-14)


def test_finite_difference_gradients_on_polynomial():
    def f(P):
        P = np.atleast_2d(P)
        return P[:, 0] ** 2 + 3.0 * P[:, 0] * P[:, 1]

    pts = np.array([[0.5, -1.0], [2.0, 0.25]])
    G = finite_difference_gradients(f, pts, 1e-6)
    expect = np.stack([2 * pts[:, 0] + 3 * pts[:, 1], 3 * pts[:, 0]], axis=1)
    np.testing.assert_allclose(G, expect, atol=1e-8)


@pytest.mark.parametrize(
    "expr",
    [
        ["+", ["sqr", "x1"], ["sqr", "x2"]],
        ["*", "x1", "x2"],
        ["-", ["norm2", "x1", "x2"], 1],
        ["max", ["+", "x1", "x2"], ["-", "x1", "x2"]],
        ["abs", ["-", "x1", 0.3]],
    ],
)
def test_gradients_match_finite_differences_off_kinks(expr):
    f = compile_expression(expr, 2)
    rng = np.random.default_rng(11)
    # keep points away from the nonsmooth loci of the expressions above
    p = rng.uniform(0.4, 1.7, size=(30, 2))
    fd = finite_difference_gradients(f.values, p, 1e-6)
    np.testing.assert_allclose(f.gradients(p), fd, atol=1e-7)


def test_max_tie_picks_lowest_index_branch():
    f = compile_expression(["max", "x1", "x2"], 2)
    p = np.array([[0.3, 0.3], [-1.0, -1.0]])
    g = f.gradients(p)
    np.testing.assert_array_equal(g, np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_min_tie_picks_lowest_index_branch():
    f = compile_expression(["min", "x1", "x2"], 2)
    g = f.gradients(np.array([[0.5, 0.5]]))
    np.testing.assert_array_equal(g, np.array([[1.0, 0.0]]))


def test_min_branch_not_picked_with_infinite_partial():
    # the second branch overflows to inf, and so does its partial; the zero
    # adjoint it gets must not turn into 0 * inf = NaN
    f = compile_expression(["min", "x1", ["sqr", ["sqr", ["*", 1e200, "x2"]]]], 2)
    with np.errstate(over="ignore"):
        g = f.gradients(np.array([[0.5, 1.0]]))
        res = certify(ProblemInstance(NormedSpace(2), f), np.array([0.0, 1.0]),
                      NumericConfig(rng_seed=42))
    np.testing.assert_array_equal(g, np.array([[1.0, 0.0]]))
    assert isinstance(res, EpigraphCertificate) and res.report.overall


def test_abs_gradient_zero_at_origin():
    f = compile_expression(["abs", "x1"], 1)
    g = f.gradients(np.array([[0.0], [2.0], [-2.0]]))
    np.testing.assert_array_equal(g[:, 0], np.array([0.0, 1.0, -1.0]))


def test_norm2_gradient_zero_at_origin():
    f = compile_expression(["norm2", "x1", "x2"], 2)
    g = f.gradients(np.array([[0.0, 0.0]]))
    np.testing.assert_array_equal(g, np.zeros((1, 2)))
    vals = f.values(np.zeros((1, 2)))
    assert vals[0] == 0.0


def test_descriptor_text():
    f = compile_expression(["-", ["norm2", "x1", "x2"], 1], 2)
    assert f.descriptor == "(- (norm2 x1 x2) 1)"
    g = compile_expression(["*", "x1", 2.5], 2)
    assert g.descriptor == "(* x1 2.5)"


@pytest.mark.parametrize(
    "expr",
    [
        "x3",                     # out of range for dim 2
        "y1",                     # not a coordinate
        "x0",                     # 1-based indexing
        True,                     # bools are not numbers here
        ["max", True, "x1"],
        [],
        [3, "x1"],                # operator must be a string
        ["frob", "x1"],           # unknown operator
        ["abs", "x1", "x2"],      # arity
        ["-", "x1", "x2", "x1"],  # arity
        ["max"],                  # arity
    ],
)
def test_bad_expressions_raise(expr):
    with pytest.raises(ExpressionError):
        compile_expression(expr, 2)


# a node's own type checks run on entry, its operator and arity checks after
# all its arguments, so the fault reported is not always the first in prefix order
@pytest.mark.parametrize(
    "expr,message",
    [
        (["frob", "y1"], "bad atom 'y1', expected x1..x2"),
        (["abs", "x1", ["frob"]], "unknown operator 'frob'"),
        (["abs", "x1", "x2"], "abs got 2 arguments"),
        (["max", True, "x1"], "booleans are not valid expressions"),
    ],
)
def test_error_order_with_several_faults(expr, message):
    with pytest.raises(ExpressionError, match=f"^{re.escape(message)}$"):
        compile_expression(expr, 2)


def test_deep_chain_needs_no_recursion():
    assert sys.getrecursionlimit() < 10_000
    expr = "x1"
    for _ in range(10_000):
        expr = ["-", expr]
    f = compile_expression(expr, 2)
    p = _pts(3)
    np.testing.assert_array_equal(f.values(p).view(np.int64), p[:, 0].view(np.int64))
    np.testing.assert_array_equal(f.gradients(p), np.tile([1.0, 0.0], (len(p), 1)))


def test_self_containing_expression_raises():
    loop = ["+", "x1"]
    loop.append(loop)
    inner = ["max", "x1"]
    outer = ["-", inner]
    inner.append(outer)
    for expr in (loop, outer):
        with pytest.raises(ExpressionError, match="^expression contains itself$"):
            compile_expression(expr, 2)
    # a node used twice side by side is a repeat, not a cycle
    shared = ["sqr", "x1"]
    f = compile_expression(["+", shared, shared], 2)
    np.testing.assert_array_equal(f.values(np.array([[3.0, 0.0]])), [18.0])


def test_eval_rejects_wrong_dim():
    f = compile_expression(["max", "x1", "x2"], 2)
    for query in (f.values, f.gradients):
        with pytest.raises(ExpressionError, match="points have dim 4, expected 2"):
            query(np.zeros((3, 4)))


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
)
def test_pointwise_algebra(a, b):
    p = np.array([[a, b]])
    f = compile_expression(
        ["+", ["sqr", "x1"], ["*", -1, ["sqr", "x2"]], ["abs", "x2"]], 2
    )
    want = a * a - b * b + abs(b)
    np.testing.assert_allclose(f.values(p)[0], want, rtol=1e-12, atol=1e-12)


MOST_ARGUMENTS = {"-": 2, "abs": 1, "sqr": 1}
trees = st.recursive(
    st.sampled_from(["x1", "x2", "x3"]) | st.integers(-3, 3) | st.floats(-2, 2),
    lambda inner: st.sampled_from(["+", "-", "*", "max", "min", "abs", "sqr", "norm2"]).flatmap(
        lambda op: st.lists(inner, min_size=1, max_size=MOST_ARGUMENTS.get(op, 4))
        .map(lambda args: [op, *args])),
    max_leaves=10,
)


def reference_values(expr, p):
    """The operators written out one by one, with the lowest-index tie rule."""
    if isinstance(expr, str):
        return p[:, int(expr[1:]) - 1]
    if not isinstance(expr, list):
        return np.full(len(p), float(expr))
    op, vs = expr[0], [reference_values(a, p) for a in expr[1:]]
    if op in ("max", "min"):
        out = vs[0]
        for v in vs[1:]:
            out = np.where(v > out if op == "max" else v < out, v, out)
        return out
    return {
        "+": lambda: reduce(np.add, vs),
        "-": lambda: -vs[0] if len(vs) == 1 else vs[0] - vs[1],
        "*": lambda: reduce(np.multiply, vs),
        "abs": lambda: np.abs(vs[0]),
        "sqr": lambda: vs[0] * vs[0],
        "norm2": lambda: np.sqrt(reduce(np.add, [v * v for v in vs])),
    }[op]()


@settings(max_examples=200, deadline=None)
@given(expr=trees, coords=st.lists(st.floats(-2, 2), min_size=15, max_size=15))
def test_values_match_reference_bit_for_bit(expr, coords):
    p = np.array(coords).reshape(5, 3)
    try:
        got = compile_expression(expr, 3).values(p)
    except NonFiniteValue:
        reject()  # NaN and inf pass through max and min by other rules here
    want = reference_values(expr, p)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))



def reference_gradients(expr, p):
    """Forward-mode gradients, one operator at a time, with the summed magnitude
    of the terms in each entry, which bounds its rounding error."""
    if isinstance(expr, str):
        g = np.zeros_like(p)
        g[:, int(expr[1:]) - 1] = 1.0
        return g, g
    if not isinstance(expr, list):
        return np.zeros_like(p), np.zeros_like(p)
    op, vs = expr[0], [reference_values(a, p) for a in expr[1:]]
    if op in ("max", "min"):
        out, pick = vs[0], np.zeros(len(p))
        for i, v in enumerate(vs[1:], 1):
            better = v > out if op == "max" else v < out
            out, pick = np.where(better, v, out), np.where(better, i, pick)
        partials = [pick == i for i in range(len(vs))]
    else:
        s = np.sqrt(reduce(np.add, [v * v for v in vs]))
        partials = {
            "+": lambda: [1.0] * len(vs),
            "-": lambda: [-1.0] if len(vs) == 1 else [1.0, -1.0],
            "*": lambda: [reduce(np.multiply, vs[:i] + vs[i + 1:], 1.0) for i in range(len(vs))],
            "abs": lambda: [np.sign(vs[0])],
            "sqr": lambda: [2.0 * vs[0]],
            "norm2": lambda: [np.where(s > 0, v / np.where(s > 0, s, 1.0), 0.0) for v in vs],
        }[op]()
    g, m = np.zeros_like(p), np.zeros_like(p)
    for q, a in zip(partials, expr[1:]):
        q = np.broadcast_to(np.asarray(q, dtype=float), (len(p),))[:, None]
        ga, ma = reference_gradients(a, p)
        g, m = g + q * ga, m + np.abs(q) * ma
    return g, m


# the reverse pass multiplies the same partials in another order, so entries
# agree to rounding, not bit for bit
@settings(max_examples=200, deadline=None)
@given(expr=trees, coords=st.lists(st.floats(-2, 2), min_size=15, max_size=15))
def test_gradients_match_forward_mode_reference(expr, coords):
    p = np.array(coords).reshape(5, 3)
    try:
        got = compile_expression(expr, 3).gradients(p)
    except NonFiniteValue:
        reject()
    want, magnitude = reference_gradients(expr, p)
    assert np.all(np.abs(got - want) <= 1e-12 * magnitude + 1e-300)  # 1e-300: subnormals


@pytest.mark.parametrize("d", [16, 64, 256])
def test_wide_gradient_matches_hand_written_rockafellar(d):
    # rockafellar_truncation(d) written as an expression: sum_j j*xi_j^2 - t
    expr = ["-", ["+", *(["*", j, ["sqr", f"x{j}"]] for j in range(1, d + 1))], f"x{d + 1}"]
    f = compile_expression(expr, d + 1)
    p = np.random.default_rng(d).uniform(-1.0, 1.0, size=(1000, d + 1))
    tracemalloc.start()
    try:
        got = f.gradients(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = rockafellar_truncation(d).instance.f.gradients(p)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert peak < 100e6  # forward-mode gradients peaked above 500 MB at d = 256
