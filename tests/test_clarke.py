"""Directional derivative estimator, min-norm point, nondegeneracy, Lipschitz."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import epicert.clarke as clarke
from epicert.catalog import load
from epicert.clarke import (
    SAFETY,
    DirectionalDerivativeEstimate,
    GradientHull,
    LipschitzEstimate,
    NondegeneracyResult,
    directional_derivative,
    estimate_gradient_hull,
    is_nondegenerate,
    local_lipschitz_constant,
    min_norm_point,
)
from epicert.core import (
    NORM_KINDS,
    FunctionOracle,
    NonFiniteValue,
    NormedSpace,
    NumericConfig,
    ProblemInstance,
    Scales,
    sample_ball,
    signed_axes,
    stream_rng,
)
from epicert.epirep import EpigraphCertificate, certify
from epicert.expressions import compile_expression
from epicert.signed_distance import sd_instance
from epicert.verify import run_suite


@pytest.fixture
def e2():
    return NormedSpace(2, "euclidean")


def _grid_upper_dd(fn, x, u, delta=1e-3, n=401):
    # dense-grid reference for the generalized directional derivative in 1d
    # structure: max over base offsets s and steps t of (f(x+su+tu)-f(x+su))/t
    ss = np.linspace(-delta, delta, n)
    ts = np.geomspace(delta * 1e-3, delta, 60)
    best = -np.inf
    for t in ts:
        q = (fn(x + np.add.outer(ss, t)) - fn(x + ss)) / t
        best = max(best, float(np.max(q)))
    return best


def test_abs_directional_derivative_matches_grid_reference(e2):
    # f(y) = |y1| at the origin: reference computed from first principles
    fn = lambda z: np.abs(z)
    assert _grid_upper_dd(fn, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert _grid_upper_dd(fn, 0.0, -1.0) == pytest.approx(1.0, abs=1e-12)

    f = compile_expression(["abs", "x1"], 2)
    cfg = NumericConfig(rng_seed=42)
    x = np.zeros(2)
    for sgn in (1.0, -1.0):
        est = directional_derivative(e2, f, x, np.array([sgn, 0.0]), cfg)
        assert est.value == pytest.approx(1.0, abs=1e-3)
        assert est.upper_bound_confidence >= est.value


def test_smooth_linear_directional_derivative(e2):
    f = compile_expression(["+", "x1", ["*", 2, "x2"]], 2)
    cfg = NumericConfig(rng_seed=7)
    est = directional_derivative(e2, f, np.array([0.3, -0.1]), np.array([1.0, 0.0]), cfg)
    assert est.value == pytest.approx(1.0, abs=1e-6)
    est = directional_derivative(e2, f, np.array([0.3, -0.1]), np.array([0.0, 1.0]), cfg)
    assert est.value == pytest.approx(2.0, abs=1e-6)


def test_directional_derivative_exact_positive_homogeneity(e2):
    f = compile_expression(["max", "x1", ["-", "x2"]], 2)
    cfg = NumericConfig(rng_seed=3)
    x = np.array([0.0, 0.0])
    v = np.array([0.7, -0.3])
    one = directional_derivative(e2, f, x, v, cfg)
    two = directional_derivative(e2, f, x, 2.0 * v, cfg)
    # the sampling stream does not depend on v, so doubling v doubles the
    # result bit for bit
    assert two.value == 2.0 * one.value


def test_directional_derivative_subadditive_at_kink(e2):
    f = compile_expression(["max", "x1", "x2"], 2)
    cfg = NumericConfig(rng_seed=5)
    x = np.zeros(2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.uniform(-1, 1, 2)
        w = rng.uniform(-1, 1, 2)
        eu = directional_derivative(e2, f, x, u, cfg).value
        ew = directional_derivative(e2, f, x, w, cfg).value
        euw = directional_derivative(e2, f, x, u + w, cfg).value
        assert euw <= eu + ew + 3.0 * cfg.tol_value


def test_min_norm_point_single_generator():
    p, w = min_norm_point(np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(p, [1.0, 0.0])
    np.testing.assert_allclose(w, [1.0])


def test_min_norm_point_segment_through_origin():
    p, w = min_norm_point(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert np.linalg.norm(p) <= 1e-10
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_min_norm_point_two_axis_generators():
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    p, w = min_norm_point(pts)
    # brute-force reference over the 1-parameter hull
    lam = np.linspace(0.0, 1.0, 200001)
    cand = lam[:, None] * pts[0] + (1 - lam)[:, None] * pts[1]
    brute = float(np.min(np.linalg.norm(cand, axis=1)))
    assert np.linalg.norm(p) == pytest.approx(brute, abs=1e-9)
    assert np.linalg.norm(p) == pytest.approx(0.7071067811865476, abs=1e-10)
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-9)


def test_min_norm_point_duplicate_rows_first_occurrence():
    pts = np.array([[0.0, 2.0], [1.0, 1.0], [0.0, 2.0]])
    p, w = min_norm_point(pts)
    assert w.shape == (3,)
    assert w[2] == 0.0  # duplicate mass sits on the first occurrence
    np.testing.assert_allclose(p, (w[:, None] * pts).sum(axis=0), atol=1e-12)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_min_norm_point_is_scale_free(c):
    # Wolfe's stop is relative to the generators' scale: the hull of c e1
    # and c e2 has its min-norm point at c (1/2, 1/2) in every unit
    p, w = min_norm_point(c * np.array([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(p / c, [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-9)


def test_min_norm_point_enters_a_nearly_coplanar_generator():
    # the last row lies 7e-8 below the plane of the other three, whose
    # hull's min-norm point is (0, 0.609375, 0.609375): the Gram system over
    # all four is too ill-conditioned to give the entering row its positive
    # weight, so Wolfe's step is solved on the rows' differences instead
    pts = np.array([[-1.6511021390183802, 1.21875, 0.0],
                    [1.21875, 1.21875, -1.1920928960000001e-07],
                    [1.21875, 0.0, 1.21875],
                    [-1.0, 1.21875, 0.0]])
    p, w = min_norm_point(pts)
    assert w[1] > 0.0
    np.testing.assert_allclose(p, w @ pts, atol=1e-12)
    assert np.min(pts @ p) >= p @ p - 1e-12


def test_min_norm_point_rejects_empty():
    with pytest.raises(ValueError):
        min_norm_point(np.zeros((0, 2)))


@settings(max_examples=40, deadline=None)
@given(
    pts=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 7), st.just(3)),
        elements=st.floats(-4, 4, allow_nan=False, width=64),
    )
)
def test_min_norm_point_kkt_and_weights(pts):
    p, w = min_norm_point(pts)
    assert np.all(w >= -1e-12)
    assert float(w.sum()) == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(p, (w[:, None] * pts).sum(axis=0), atol=1e-8)
    # optimality: no generator improves on the minimiser
    sq = float(p @ p)
    assert np.all(pts @ p >= sq - 1e-8 * max(1.0, sq))


def test_gradient_hull_abs_wall(e2):
    inst = load("abs_wall").instance
    cfg = NumericConfig(rng_seed=42)
    hull = estimate_gradient_hull(e2, inst.f, np.zeros(2), cfg)
    # every sampled gradient is one of the two signs of the first axis
    dist = np.minimum(
        np.linalg.norm(hull.generators - np.array([1.0, 0.0]), axis=1),
        np.linalg.norm(hull.generators - np.array([-1.0, 0.0]), axis=1),
    )
    assert np.max(dist) <= 1e-6
    assert hull.min_norm_value <= 1e-3


def test_is_nondegenerate_halfspace():
    entry = load("halfspace")
    cfg = NumericConfig(rng_seed=42)
    res = is_nondegenerate(entry.instance, np.zeros(2), cfg)
    assert not res.degenerate
    assert res.consistent
    assert res.witness is not None
    np.testing.assert_allclose(res.witness, [-1.0, 0.0], atol=1e-9)
    assert res.alpha == pytest.approx(0.5, abs=1e-6)
    assert res.directions_tried >= 1


def _certify_rescaled(e2, expr, c, v):
    inst = ProblemInstance(e2, compile_expression(["*", c, expr], 2),
                           boundary_points=(np.zeros(2),))
    cfg = NumericConfig(rng_seed=42)
    cert = certify(inst, inst.boundary_points[0], cfg)
    assert isinstance(cert, EpigraphCertificate), cert.message
    np.testing.assert_allclose(cert.witness.v, v, atol=1e-9)
    assert run_suite(inst, cert, replace(cfg, rng_seed=43)).overall


@pytest.mark.parametrize("c", [1e-7, 1e-6, 1e-4, 1e4])
def test_witness_search_is_scale_free_at_a_rescaled_halfspace(e2, c):
    # c x1 <= 0 is a halfspace at every c > 0: the hull's min-norm and the
    # descent threshold are read relative to f's gradient scale c, so the
    # verdict does not depend on f's units
    _certify_rescaled(e2, "x1", c, [-1.0, 0.0])


@pytest.mark.parametrize("c", [1e-6, 1e-4, 1e4])
def test_witness_search_is_scale_free_at_a_rescaled_orthant(e2, c):
    # c max(x1, x2) <= 0: the hull's min-norm point c (1/2, 1/2) needs
    # Wolfe's stop relative to the generators' scale c
    _certify_rescaled(e2, ["max", "x1", "x2"], c, [-math.sqrt(0.5)] * 2)


@pytest.mark.parametrize("expr", [
    ["+", ["*", "x1", "x1", "x1"], ["sqr", "x2"]],
    ["*", "x1", "x1", "x1"],
], ids=["x1^3+x2^2", "x1^3"])
def test_witness_search_at_a_smooth_critical_point_is_degenerate(e2, expr):
    # grad f(0) = 0, so 0 is in the generalized gradient and M has a cusp
    # (or a smooth wall with zero gradient) at 0.  The hull's scale is only
    # the size of grad f 1e-5 from 0: the hull reads 0 relative to it, and
    # its direction (about -e1) then needs an absolute descent of
    # WITNESS_TOL, which the difference quotients' bias does not reach; a
    # threshold relative to that scale would take the bias for descent
    inst = ProblemInstance(e2, compile_expression(expr, 2), boundary_points=(np.zeros(2),))
    for seed in range(30):
        cfg = NumericConfig(rng_seed=seed)
        res = is_nondegenerate(inst, np.zeros(2), cfg)
        assert res.degenerate, (seed, res.witness, res.note)
        assert res.hull.min_norm_value <= 1e-4 * res.hull.scale, seed
    fail = certify(inst, np.zeros(2), NumericConfig(rng_seed=42))
    assert fail.stage == "degenerate-point"
    assert fail.message.endswith("agrees (degenerate point)")


@pytest.mark.parametrize("c", [1e-5, 1e-4, 5e-4])
@pytest.mark.parametrize("a, b", [((1.0, 0.0), (0.0, 1.0)), ((0.6, 0.8), (-0.8, 0.6))],
                         ids=["axis", "rotated"])
def test_witness_search_below_the_hulls_resolution(e2, a, b, c):
    # f = |<a, x>| + c <b, x> at 0: its Clarke gradient [-1, 1] a + c b
    # misses 0 by c, below the hull's resolution HULL_ZERO_TOL, so the first
    # hull reads 0; its direction -b still descends at -c, below the
    # absolute threshold -WITNESS_TOL, and the witness disagrees with the hull
    def lin(w):
        return ["+", ["*", w[0], "x1"], ["*", w[1], "x2"]]

    inst = ProblemInstance(e2, compile_expression(["+", ["abs", lin(a)], ["*", c, lin(b)]], 2),
                           boundary_points=(np.zeros(2),))
    cfg = NumericConfig(rng_seed=42)
    res = is_nondegenerate(inst, np.zeros(2), cfg)
    assert res.hull.reads_zero
    assert res.directions_tried == 1
    np.testing.assert_allclose(res.witness, -np.array(b), atol=1e-9)
    assert res.alpha == pytest.approx(c / 2, rel=1e-3)
    assert not res.consistent and res.note.endswith("(found)")
    cert = certify(inst, np.zeros(2), cfg)
    assert isinstance(cert, EpigraphCertificate), cert.message
    assert run_suite(inst, cert, replace(cfg, rng_seed=43)).overall


def test_is_nondegenerate_singleton():
    entry = load("singleton_sq")
    cfg = NumericConfig(rng_seed=42)
    res = is_nondegenerate(entry.instance, np.zeros(2), cfg)
    assert res.degenerate
    assert res.witness is None and res.alpha is None
    assert res.hull.min_norm_value <= 1e-3


def test_is_nondegenerate_abs_wall():
    entry = load("abs_wall")
    cfg = NumericConfig(rng_seed=42)
    res = is_nondegenerate(entry.instance, np.zeros(2), cfg)
    assert res.degenerate
    assert res.hull.min_norm_value <= 1e-3


def orthant(d, norm="euclidean", rotation_seed=None):
    """M = {max_i (Qx)_i <= 0} at 0 as an expression instance: the negative
    orthant when Q is the identity, else rotated by a seeded orthogonal Q.
    Its Clarke gradient at 0 is conv{rows of Q}, and -sum of the rows descends.
    """
    if rotation_seed is None:
        pieces = [f"x{j + 1}" for j in range(d)]
    else:
        Q = np.linalg.qr(np.random.default_rng(rotation_seed).standard_normal((d, d)))[0]
        pieces = [["+", *(["*", float(q), f"x{j + 1}"] for j, q in enumerate(row))]
                  for row in Q]
    return ProblemInstance(NormedSpace(d, norm), compile_expression(["max", *pieces], d),
                           boundary_points=(np.zeros(d),))


def ladder_budget(f, cfg):
    """The ladder's sample budget: cfg's, capped at the oracle's dd_budget."""
    cap = f.scales.dd_budget
    return cfg.sample_budget if cap is None else min(cfg.sample_budget, cap)


@pytest.mark.parametrize("budget, rows", [(256, 16), (4096, 24)])
def test_signed_distance_ladder_takes_its_budget_from_its_scales(budget, rows):
    # the signed distance's scales cap the ladder's budget at 768: at 256
    # cfg's budget binds, at 4096 the cap does (24 = 768 / 32 rows per
    # level); the plain oracle keeps cfg's budget
    inst = load("halfspace").instance
    cfg = NumericConfig(rng_seed=42, sample_budget=budget)
    x = np.zeros(2)
    f, calls = _recording(sd_instance(inst, cfg).f)
    base = clarke._LadderBase(inst.space, f, x, cfg)
    assert (base.n, base.cap) == (rows, 8 * min(budget, 768))
    est = directional_derivative(inst.space, f, x, np.array([-1.0, 0.0]), cfg, base)
    # levels 0 and 1 share the first call: base and step points of each
    assert len(calls[0]) == 4 * rows
    assert est.samples_used % (2 * rows) == 0
    plain = clarke._LadderBase(inst.space, inst.f, x, cfg)
    assert (plain.n, plain.cap) == (max(16, budget // 32), 8 * budget)


@pytest.mark.parametrize("point,route,tried,calls,growths", [
    ("singleton_sq", "plain", 1, 23, 0),
    ("singleton_sq", "signed-distance", 1, 2, 0),
    ("orthant_32", "plain", 2, 2, 1),
    ("orthant_64_sup", "plain", 3, 3, 2),
    ("x2_e1_gradient", "plain", 1, 1, 1),
], ids=["plain", "signed-distance", "orthant-32", "orthant-64-sup", "growth-stops"])
def test_is_nondegenerate_shares_one_ladder_base(point, route, tried, calls, growths,
                                                 monkeypatch):
    # at singleton_sq the hull reads 0, so its direction runs once, with
    # the absolute threshold, fails, and the hull does not grow; at the
    # orthant the hull misses pieces, so its first direction fails and the
    # hull grows once (d = 32) or twice (d = 64, sup norm) before it
    # descends.  f = x2 behind a gradient that always reads
    # e1 (no oracle's contract allows that at a smooth point): -e1 fails and
    # the growth adds only e1, so the min-norm point stays and the search
    # stops without a witness, disagreeing with the hull.
    # Each estimate is the one an independent call
    # gives, and no batch of points is evaluated twice: each level's base
    # points are evaluated once.  A ladder of L >= 2 levels sends L - 1
    # calls, levels 0 and 1 sharing one.  Each growth is one gradient call
    # of the deepest level's n base points and their n steps
    cfg = NumericConfig(rng_seed=42)
    if point.startswith("orthant"):
        inst = orthant(int(point.split("_")[1]), "sup" if point.endswith("sup") else "euclidean")
    elif point == "x2_e1_gradient":
        f = FunctionOracle(eval=lambda P: P[:, 1], grad=lambda P: np.tile([1.0, 0.0], (len(P), 1)),
                           descriptor="x2-with-e1-gradient")
        inst = ProblemInstance(NormedSpace(2, "euclidean"), f, boundary_points=(np.zeros(2),))
    else:
        inst = load(point).instance
    if route == "signed-distance":
        inst = sd_instance(inst, cfg)
    x = inst.boundary_points[0]
    batches, grad_batches = [], []

    def counted(P):
        batches.append(P.tobytes())
        return inst.f.eval(P)

    def grad_counted(P):
        grad_batches.append(P)
        return inst.f.grad(P)

    probes = []
    real = clarke.directional_derivative

    def spy(*args):
        probes.append((args[3], real(*args)))
        return probes[-1][1]

    monkeypatch.setattr(clarke, "directional_derivative", spy)
    res = is_nondegenerate(replace(inst, f=replace(inst.f, eval=counted, grad=grad_counted)),
                           x, cfg)
    monkeypatch.undo()
    assert res.directions_tried == len(probes) == tried
    assert (res.witness is None) == (point in ("singleton_sq", "x2_e1_gradient"))
    assert res.consistent == (point != "x2_e1_gradient")
    if point == "x2_e1_gradient":
        assert res.note.startswith("hull min-norm 1 disagrees"), res.note
    for u, est in probes:
        assert real(inst.space, inst.f, x, u, cfg) == est
    n = max(16, ladder_budget(inst.f, cfg) // 32)
    levels = [est.samples_used // (2 * n) for _, est in probes]
    assert min(levels) >= 2
    assert len(batches) == len(set(batches)) == sum(L - 1 for L in levels) == calls
    # the hull's own gradient batch, then one per growth
    assert [len(P) for P in grad_batches[1:]] == [2 * n] * growths
    assert len(res.hull.generators) == len(grad_batches[0]) + 2 * n * growths


def _extreme_of_linear_forms(count, seed, pick="max"):
    """count random f = max_i <g_i, x> (or min_i) at 0: dim 2..4, 1..5
    pieces, the three norms in turn.  Three in ten of those with two or more
    pieces are built with 0 in conv{g_i}, f's Clarke gradient at 0 for
    either pick, so that no direction descends there; else one descends
    exactly when conv{g_i} misses 0, and v descends when max_i <g_i, v> < 0."""
    extreme, arg = {"max": (np.max, np.argmax), "min": (np.min, np.argmin)}[pick]
    rng = np.random.default_rng(seed)
    for i in range(count):
        d, k = int(rng.integers(2, 5)), int(rng.integers(1, 6))
        G = rng.standard_normal((k, d))
        zero_in = k >= 2 and rng.uniform() < 0.3
        if zero_in:
            w = rng.dirichlet(np.ones(k))
            G[-1] -= (w @ G) / w[-1]   # now w @ G = 0
        f = FunctionOracle(eval=lambda P, G=G: extreme(P @ G.T, axis=1),
                           grad=lambda P, G=G: G[arg(P @ G.T, axis=1)],
                           descriptor=f"{pick}-linear-{i}")
        yield ProblemInstance(NormedSpace(d, NORM_KINDS[i % 3]), f), G, zero_in


@pytest.mark.parametrize("pick", ["max", "min"])
def test_witness_search_finds_every_descent_the_pieces_allow(pick):
    # the hull's first direction can ascend along a piece its samples missed,
    # on about one instance in a few hundred; the hull grown from the ladder
    # must find that piece.  A min of pieces makes M a union of halfspaces,
    # nonconvex, with the same Clarke gradient as their max.  Min instance 28
    # is a known false witness: 0 is in conv{g_i}, but two pieces are minimal
    # only in thin cones that the ladder's samples miss, so the sampled
    # derivative along the hull's direction reads negative where f° is
    # positive; certify refuses it downstream
    false_witnesses = {"max": set(), "min": {28}}[pick]
    cfg = NumericConfig(rng_seed=42)
    found = 0
    for i, (inst, G, zero_in) in enumerate(_extreme_of_linear_forms(300, seed=0, pick=pick)):
        x = np.zeros(inst.space.dim)
        res = is_nondegenerate(inst, x, cfg)
        if res.witness is None:
            assert zero_in or np.linalg.norm(min_norm_point(G)[0]) <= 1e-3, i
        elif i in false_witnesses:
            assert zero_in and np.max(G @ res.witness) > 0.0, i
            assert not isinstance(certify(inst, x, cfg), EpigraphCertificate), i
        else:
            found += 1
            assert not zero_in, i
            assert np.max(G @ res.witness) < 0.0, i
    assert found > 200


@pytest.mark.parametrize("seed", [42, 1, 7])
@pytest.mark.parametrize("norm", ["euclidean", "sup"])
@pytest.mark.parametrize("d,rotation_seed", [(32, None), (64, None), (32, 0)],
                         ids=["orthant-32", "orthant-64", "rotated-orthant-32"])
def test_certify_at_the_orthant(d, rotation_seed, norm, seed):
    # the hull's first samples miss some of the d pieces past d = 24, and the
    # descent cone is too narrow for a guessed direction; the grown hull
    # finds it, and the certificate passes a fresh-seed suite
    inst = orthant(d, norm, rotation_seed)
    cfg = NumericConfig(rng_seed=seed)
    cert = certify(inst, inst.boundary_points[0], cfg)
    assert isinstance(cert, EpigraphCertificate), cert.message
    assert run_suite(inst, cert, replace(cfg, rng_seed=seed + 1)).overall


class _SequentialLadder:
    """directional_derivative as it ran with one oracle call per batch.

    Each level's base points are evaluated on first use, in a call of their
    own, and then its step points in another; directions share the levels.
    """

    def __init__(self, space, f, x, cfg):
        self.space, self.f, self.x, self.cfg = space, f, x, cfg
        self.budget = ladder_budget(f, cfg)
        self.n = max(16, self.budget // 32)
        self.rng = cfg.rng("dirderiv", f.descriptor, *np.round(x, 12).tolist())
        self.levels = []

    def estimate(self, v):
        space, f, x, cfg = self.space, self.f, self.x, self.cfg
        scale = 1.0 + float(space.norm(x))
        s = f.scales
        delta0 = 0.1 * scale if s.dd_delta0 is None else s.dd_delta0
        delta_floor = 1e-8 * scale if s.dd_delta_floor is None else s.dd_delta_floor
        stab_tol = cfg.tol_value if s.dd_stab_tol is None else s.dd_stab_tol
        vnorm = float(space.norm(v))
        u = space.unit(v)
        delta, prev, best, used, stabilized = float(delta0), None, -math.inf, 0, False
        for level in itertools.count():
            if level == len(self.levels):
                ys = sample_ball(space, x, delta, self.n, self.rng)
                ts = delta * self.rng.uniform(0.25, 1.0, self.n)
                self.levels.append((ys, ts, f.values(ys)))
            ys, ts, vals0 = self.levels[level]
            vals1 = f.values(ys + ts[:, None] * u[None, :])
            level_max = float(np.max((vals1 - vals0) / ts))
            used += 2 * self.n
            best = max(best, level_max)
            if prev is not None and abs(level_max - prev) <= stab_tol:
                stabilized = True
                break
            if delta * cfg.shrink_factor < delta_floor or used >= self.budget * 8:
                break
            prev = level_max
            delta *= cfg.shrink_factor
        return DirectionalDerivativeEstimate(
            value=level_max * vnorm, upper_bound_confidence=best * vnorm,
            samples_used=used, delta_final=delta, stabilized=stabilized)


def _recording(f):
    calls = []

    def evaluate(P):
        calls.append(np.array(P))
        return f.eval(P)

    return replace(f, eval=evaluate), calls


@pytest.mark.parametrize("seed", [42, 1])
@pytest.mark.parametrize("cid,point,route", [
    ("singleton_sq", "degenerate", "plain"),
    ("singleton_sq", "degenerate", "signed-distance"),
    ("union_balls", "certifiable", "plain"),
    ("union_balls", "certifiable", "signed-distance"),
    ("max_two_planes", "certifiable", "plain"),            # the kink at the origin
    ("max_two_planes", "certifiable", "signed-distance"),
    ("rockafellar_64", "certifiable", "plain"),
])
def test_fused_ladder_matches_one_call_per_batch(cid, point, route, seed):
    # levels 0 and 1 in one call, later levels one call each: the same
    # estimates, bit for bit, and the same oracle rows in the same order as
    # one call per batch, over directions that share one base
    entry = load(cid)
    inst, cfg = entry.instance, NumericConfig(rng_seed=seed)
    if route == "signed-distance":
        inst = sd_instance(inst, cfg)
    x = np.asarray(getattr(entry, f"{point}_at")[0], dtype=float)
    space = inst.space
    dirs = [*-signed_axes(space.dim)[:4],
            *stream_rng(seed, "ladder-dirs").standard_normal((2, space.dim))]
    fused_f, fused_calls = _recording(inst.f)
    seq_f, seq_calls = _recording(inst.f)
    base = clarke._LadderBase(space, fused_f, x, cfg)
    ref = _SequentialLadder(space, seq_f, x, cfg)
    for v in dirs:
        # dataclass equality: every field, bit for bit
        assert directional_derivative(space, fused_f, x, v, cfg, base) == ref.estimate(v), v
    np.testing.assert_array_equal(np.concatenate(fused_calls), np.concatenate(seq_calls))
    assert len(fused_calls) < len(seq_calls)


def test_one_level_ladder_evaluates_level_zero_alone(e2):
    # the floor lies above delta0 * shrink, so the loop stops after level 0:
    # the one call holds level 0's 2n points and none of level 1
    f, calls = _recording(replace(compile_expression(["max", "x1", "x2"], 2),
                                  scales=Scales(dd_delta0=0.1, dd_delta_floor=0.06)))
    cfg = NumericConfig(rng_seed=42)
    x, v = np.zeros(2), np.array([-1.0, 0.5])
    est = directional_derivative(e2, f, x, v, cfg)
    n = max(16, cfg.sample_budget // 32)
    assert [len(P) for P in calls] == [2 * n]
    assert (est.samples_used, est.stabilized) == (2 * n, False)
    assert est == _SequentialLadder(e2, f, x, cfg).estimate(v)


@pytest.mark.parametrize("poisoned", [("base1",), ("base1", "step0")])
def test_non_finite_value_is_named_in_one_call_per_batch_order(e2, poisoned):
    # a NaN at a level-1 base point alone is named there; with a NaN at a
    # level-0 step point too, the step point is named, as one call per batch
    # meets it first
    f0 = compile_expression(["+", "x1", "x2"], 2)
    cfg = NumericConfig(rng_seed=42)
    x, v = np.zeros(2), np.array([1.0, 0.0])
    draws = clarke._LadderBase(e2, f0, x, cfg)
    ys0, ts0 = draws.draw(0, 0.1)
    ys1, _ = draws.draw(1, 0.1 * cfg.shrink_factor)
    points = {"base1": ys1[3], "step0": ys0[5] + ts0[5] * e2.unit(v)}
    bad = np.array([points[p] for p in poisoned])

    def evaluate(P):
        out = f0.eval(P)
        out[(P[:, None, :] == bad[None]).all(axis=2).any(axis=1)] = np.nan
        return out

    f = replace(f0, eval=evaluate)
    with pytest.raises(NonFiniteValue) as fused:
        directional_derivative(e2, f, x, v, cfg)
    with pytest.raises(NonFiniteValue) as sequential:
        _SequentialLadder(e2, f, x, cfg).estimate(v)
    assert str(fused.value) == str(sequential.value)
    assert str(fused.value) == f"f is not finite at {points[poisoned[-1]].tolist()}"


@pytest.mark.parametrize("found,hull_norm,consistent,degenerate,note_end", [
    (True, 0.5, True, False, None),
    (False, 0.0, True, True, None),
    (True, 0.0, False, False, "(found)"),
    (False, 0.5, False, False, "(none)"),
])
def test_nondegeneracy_verdicts_follow_witness_and_hull(
        e2, found, hull_norm, consistent, degenerate, note_end):
    mnp = np.array([hull_norm, 0.0])
    hull = GradientHull(generators=mnp[None, :])
    assert hull.min_norm_value == hull_norm
    witness = e2.unit(np.array([-1.0, 0.0])) if found else None
    res = NondegeneracyResult(witness=witness, alpha=0.25 if found else None, hull=hull,
                              directions_tried=3)
    assert res.nondegenerate is found
    assert res.consistent is consistent
    assert res.degenerate is degenerate
    if note_end is None:
        assert res.note == ""
    else:
        assert res.note.startswith("hull min-norm ") and res.note.endswith(note_end)


def test_local_lipschitz_linear_attains_dual_norm(e2):
    # k for 3*y1 + y2 on any euclidean ball is the gradient norm sqrt(10)
    k_true = 3.1622776601683795
    f = compile_expression(["+", ["*", 3, "x1"], "x2"], 2)
    cfg = NumericConfig(rng_seed=42)
    est = local_lipschitz_constant(e2, f, np.zeros(2), 1.0, cfg)
    assert est.raw_max == pytest.approx(k_true, rel=1e-9)
    assert est.value == pytest.approx(SAFETY * est.raw_max, rel=1e-12)
    assert not est.hint_inconsistent
    assert est.n_quotients > 500


def test_local_lipschitz_consistent_hint_caps(e2):
    k_true = 3.1622776601683795
    base = compile_expression(["+", ["*", 3, "x1"], "x2"], 2)
    f = FunctionOracle(
        eval=base.eval, grad=base.grad, lipschitz_hint=k_true, descriptor=base.descriptor
    )
    cfg = NumericConfig(rng_seed=42)
    est = local_lipschitz_constant(e2, f, np.zeros(2), 1.0, cfg)
    assert est.value == pytest.approx(k_true, rel=1e-9)
    assert est.value <= SAFETY * est.raw_max
    assert not est.hint_inconsistent


def test_local_lipschitz_bad_hint_flagged(e2):
    base = compile_expression(["+", ["*", 3, "x1"], "x2"], 2)
    f = FunctionOracle(
        eval=base.eval, grad=base.grad, lipschitz_hint=1.0, descriptor=base.descriptor
    )
    cfg = NumericConfig(rng_seed=42)
    est = local_lipschitz_constant(e2, f, np.zeros(2), 1.0, cfg)
    assert est.hint_inconsistent
    assert est.value == pytest.approx(SAFETY * est.raw_max, rel=1e-12)


def test_local_lipschitz_theorem_constant_skips_sampling(e2):
    # a constant known by theorem is returned before any draw or oracle call
    def refuse(P):
        raise AssertionError("oracle called")

    f = FunctionOracle(eval=refuse, grad=refuse, scales=Scales(lipschitz=1.0))
    est = local_lipschitz_constant(e2, f, np.zeros(2), 1.0, NumericConfig(rng_seed=42))
    assert est == LipschitzEstimate(value=1.0, raw_max=0.0, n_quotients=0,
                                    hint_inconsistent=False)


@pytest.mark.parametrize("d", [16, 64, 256])
def test_local_lipschitz_ascent_reaches_the_sup(d):
    # the curvature peaks on the shell; random pairs and chords alone reach
    # only 0.62-0.87 of the sup here, the gradient-growth ascent the rest
    entry = load(f"rockafellar_{d}")
    inst = entry.instance
    est = local_lipschitz_constant(inst.space, inst.f, entry.certifiable_at[0], 0.05,
                                   NumericConfig(rng_seed=1))
    assert est.raw_max >= 0.99 * inst.reference.lipschitz_on_ball(0.05)


@pytest.mark.parametrize("d", [16, 64, 128, 256])
def test_certify_k_bounds_the_true_lipschitz_constant(d):
    # the stalled ascent still lands within SAFETY of the sup: k >= the
    # closed-form Lipschitz constant on B(x, r) at every seed
    entry = load(f"rockafellar_{d}")
    inst = entry.instance
    for seed in (42, 1, 2):
        cert = certify(inst, entry.certifiable_at[0], NumericConfig(rng_seed=seed))
        w = cert.witness
        assert w.k >= inst.reference.lipschitz_on_ball(w.r), seed


def test_local_lipschitz_ascent_stops_long_before_its_cap():
    # the static sources give at most 512 + 2 * 128 quotients and each ascent
    # step 4; the cap is 2 * dim steps, and the stall rule ends the ascent in
    # under an eighth of them
    entry = load("rockafellar_256")
    inst = entry.instance
    dim = inst.space.dim
    est = local_lipschitz_constant(inst.space, inst.f, entry.certifiable_at[0], 1.0,
                                   NumericConfig(rng_seed=42))
    assert est.n_quotients <= 512 + 2 * 128 + 4 * (2 * dim // 8)
    assert est.raw_max >= 0.99 * inst.reference.lipschitz_on_ball(1.0)


def test_local_lipschitz_ascent_survives_vanishing_gradients(e2):
    # the gradient of max(x1, 0) is zero on half the ball, so runs starting
    # there step along random directions and stop once hv vanishes
    f = compile_expression(["max", "x1", 0], 2)
    est = local_lipschitz_constant(e2, f, np.zeros(2), 1.0, NumericConfig(rng_seed=1))
    assert est.raw_max == pytest.approx(1.0, rel=1e-9)


def test_min_norm_point_stops_at_a_repeated_state(monkeypatch):
    # an affine solve that gives the entering generator negative weight, as
    # rounding can at nearly coplanar generators, in the Gram system and in
    # its fallback on differences alike: the minor cycle drops the generator
    # again with theta = 0, the state repeats exactly, and the loop must stop
    # after one major cycle rather than run to its iteration cap
    solve, lstsq = np.linalg.solve, np.linalg.lstsq
    calls = []

    def entering_negative_solve(a, b):
        calls.append(1)
        sol = solve(a, b)
        sol[-2] = -1e-3  # the entering weight; the last entry is the multiplier
        return sol

    def entering_negative_lstsq(a, b, rcond=None):
        c, *rest = lstsq(a, b, rcond=rcond)
        c[-1] = -1e-3  # the entering weight
        return (c, *rest)

    monkeypatch.setattr(np.linalg, "solve", entering_negative_solve)
    monkeypatch.setattr(np.linalg, "lstsq", entering_negative_lstsq)
    point, weights = min_norm_point(np.array([[2.0, 1.0], [-1.0, 3.0]]))
    assert len(calls) == 1
    np.testing.assert_array_equal(point, [2.0, 1.0])
    np.testing.assert_array_equal(weights, [1.0, 0.0])
