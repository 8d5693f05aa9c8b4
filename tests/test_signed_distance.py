"""Membership-only signed distance and the derived nondegeneracy check."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import epicert.signed_distance as sd_module
from epicert.catalog import FIXED_IDS, load
from epicert.clarke import is_nondegenerate
from epicert.core import (
    NormedSpace,
    NumericConfig,
    ProblemInstance,
    band_codes,
    itp_crossings,
    membership_codes,
    sample_ball,
    signed_axes,
    stream_rng,
)
from epicert.epirep import (
    BracketViolation,
    CertificationFailure,
    DescentWitness,
    EpigraphCertificate,
    certify,
    epsilon_formula,
    lambda_values,
    sample_cylinder,
)
from epicert.expressions import compile_expression
from epicert.instancefile import parse_instance
from epicert.signed_distance import (
    PROBE_RESOLUTION,
    RESOLUTION,
    SEARCH_RADIUS,
    check_theorem2,
    promote_to_certificate,
    sd_instance,
    sd_lipschitz_check,
    signed_distance_values,
)

from conftest import finite_difference_gradients
from test_clarke import _extreme_of_linear_forms


@pytest.fixture(scope="module")
def cfg():
    return NumericConfig(rng_seed=42)


@pytest.fixture(scope="module")
def ball():
    return load("unit_ball_euclid").instance


@pytest.fixture(scope="module")
def half():
    return load("halfspace").instance


def test_ball_center_distance(ball, cfg):
    # distance from the origin to the complement of the unit ball is 1
    d = signed_distance_values(ball, np.zeros((1, 2)), cfg)[0][0]
    assert d == pytest.approx(-1.0, abs=1e-6)
    # interior means negative here, magnitude may only overestimate
    assert d <= -1.0 + PROBE_RESOLUTION


def test_halfspace_axis_values(half, cfg):
    # for {y1 <= 0} the signed distance is exactly y1 along the axis
    pts = np.array([[0.3, 0.0], [-0.4, 0.0], [1.2, 0.5], [-1.0, -0.7]])
    vals, flags, _ = signed_distance_values(half, pts, cfg)
    np.testing.assert_allclose(vals, pts[:, 0], atol=2 * PROBE_RESOLUTION)
    assert not flags.any()


def test_sign_semantics_and_band(half, cfg):
    vals, _, _ = signed_distance_values(
        half, np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.0]]), cfg
    )
    assert vals[0] > 0 and vals[1] < 0
    assert vals[2] == 0.0  # membership band pins the value


def test_batch_purity(half, cfg):
    # each point's value may not depend on its batch neighbours
    rng = np.random.default_rng(10)
    pts = rng.uniform(-1, 1, (12, 2))
    full, _, _ = signed_distance_values(half, pts, cfg)
    singles = np.array([signed_distance_values(half, p[None, :], cfg)[0][0] for p in pts])
    np.testing.assert_array_equal(full, singles)
    perm = rng.permutation(12)
    shuffled, _, _ = signed_distance_values(half, pts[perm], cfg)
    np.testing.assert_array_equal(shuffled, full[perm])
    # a curved set, split where find_descent_radius splits a round
    union = load("union_balls").instance
    n = max(256, cfg.sample_budget // 2)
    pts = sample_ball(union.space, np.array([0.5, 0.0]), 2.0, n, rng)
    full, _, _ = signed_distance_values(union, pts, cfg)
    head, _, _ = signed_distance_values(union, pts[: n // 32], cfg)
    rest, _, _ = signed_distance_values(union, pts[n // 32 :], cfg)
    np.testing.assert_array_equal(np.concatenate([head, rest]), full)


def test_determinism(ball, cfg):
    pts = np.array([[0.2, 0.1], [1.4, -0.3]])
    a, _, _ = signed_distance_values(ball, pts, cfg)
    b, _, _ = signed_distance_values(ball, pts, cfg)
    np.testing.assert_array_equal(a, b)


def _whole_grid_reference(f_values, signs, g0, origins, dirs):
    # round 0 as one plain march: every ray over the whole grid, every ray
    # that crosses solved in its first crossing cell, then each row's min
    (n, d), p = origins.shape, len(dirs)
    rho = np.linspace(0.0, SEARCH_RADIUS, RESOLUTION + 1)
    grid = origins[:, None, None, :] + rho[1:, None] * dirs[:, None, :]
    g = signs[:, None, None] * f_values(grid.reshape(-1, d)).reshape(n, p, RESOLUTION)
    neg = g <= 0.0
    hit = neg.any(axis=2)
    dist = np.full((n, p), SEARCH_RADIUS)
    row, col = np.nonzero(hit)
    j = np.argmax(neg[row, col], axis=1)
    g_lo = np.where(j > 0, g[row, col, j - 1], g0[row])
    dist[row, col] = itp_crossings(f_values, origins[row], dirs[col], rho[j], rho[j + 1], g_lo,
                                   g[row, col, j], sd_module.BISECT_TOL, orient=signs[row],
                                   n0=sd_module.ITP_SLACK)
    return np.min(dist, axis=1), dirs[np.argmin(dist, axis=1)], hit.any(axis=1)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ray_march_matches_a_whole_grid_reference(data, cfg):
    # stopping each row after the block of its earliest crossing column
    # solves only the rays that cross there, yet every row's best
    # distance, best direction and crossed flag keep their bits
    cid = data.draw(st.sampled_from(["halfspace", "unit_ball_euclid", "max_two_planes",
                                     "union_balls", "singleton_sq", "rockafellar_4"]))
    inst = load(cid).instance
    dim = inst.space.dim
    n = data.draw(st.integers(1, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = rng.choice([0.05, 0.3, 1.5], (n, 1))   # near the boundary and far from it
    origins = rng.uniform(-1.0, 1.0, (n, dim)) * scale
    f0 = inst.f.values(origins)
    signs = band_codes(f0, cfg).astype(float)
    assume(np.all(signs != 0.0))
    if data.draw(st.booleans()):
        dirs = sd_module._directions(inst.space)
    else:
        dirs = rng.standard_normal((data.draw(st.integers(1, 16)), dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    got = sd_module._ray_crossings(inst.f.values, signs, signs * f0, origins, dirs)
    want = _whole_grid_reference(inst.f.values, signs, signs * f0, origins, dirs)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_refinement_probes_each_proposal_once_at_its_rows_best(monkeypatch, ball, cfg):
    # after round 0, a foot-normal round asks f's gradient at every crossed
    # row's foot and the base oracle for one point per row whose normal
    # proposal is new; each cone round asks one point per proposal of every
    # row; a last foot-normal round asks as the first did.  Each solves
    # only the proposals whose sign flipped at their row's best
    rng = np.random.default_rng(5)
    n = 7
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    Y = rng.uniform(1.05, 1.35, (n, 1)) * np.column_stack([np.cos(angle), np.sin(angle)])
    calls = []

    def counted(P):
        out = ball.f.eval(P)
        calls.append(("eval", len(P), out))
        return out

    def counted_grad(P):
        calls.append(("grad", len(P), None))
        return ball.f.grad(P)

    real_itp = sd_module.itp_crossings

    def itp(*args, **kwargs):
        calls.append(("itp", len(args[3]), None))
        out = real_itp(*args, **kwargs)
        calls.append(("end", 0, None))
        return out

    monkeypatch.setattr(sd_module, "itp_crossings", itp)
    inst = replace(ball, f=replace(ball.f, eval=counted, grad=counted_grad))
    _, flags, _ = signed_distance_values(inst, Y, cfg)
    assert not flags.any()
    # set the solver's own passes aside, each within its call's rows
    outer, solving = [], 0
    for kind, size, out in calls:
        if kind == "end":
            solving = 0
        elif solving:
            assert kind == "eval" and size <= solving
        else:
            outer.append((kind, size, out))
            solving = size if kind == "itp" else 0
    # round 0: one call per column block [0, 1), [1, 2), [2, 4), ...,
    # over the rows with no crossing yet, then one solver call; every row
    # crosses along an axis, so none walks
    p = len(sd_module._directions(ball.space))
    assert outer[0][:2] == ("eval", n)
    blocks, open_rows = 0, n
    for width in (1, 1, 2, 4, 8, 8):
        if not open_rows:
            break
        kind, size, out = outer[1 + blocks]
        assert (kind, size) == ("eval", open_rows * p * width)
        open_rows -= int(np.sum((out.reshape(open_rows, p, width) <= 0.0).any(axis=(1, 2))))
        blocks += 1
    assert open_rows == 0 and blocks >= 3   # later blocks asked for fewer rows
    assert outer[1 + blocks][0] == "itp"
    rounds = outer[2 + blocks:]
    for proposals in (None, *[sd_module.REFINE_PROPOSALS] * sd_module.REFINE_ROUNDS, None):
        if proposals is None:   # a foot-normal round; no foot is on an axis
            assert rounds.pop(0)[:2] == ("grad", n)
        kind, size, out = rounds.pop(0)
        assert (kind, size) == ("eval", n * (proposals or 1))
        flipped = int(np.sum(out <= 0.0))   # every row is outside: its sign is +1
        if flipped:
            assert rounds.pop(0)[:2] == ("itp", flipped)
    assert rounds == []


def test_foot_normal_rounds_skip_a_normal_that_is_the_best_direction(half, cfg):
    # at the halfspace every foot's normal is its row's axis, and solving
    # that ray again would move only its midpoint, within the solver's
    # tolerance; so every value keeps round 0's bits
    rng = np.random.default_rng(8)
    Y = rng.uniform(-1.0, 1.0, (200, 2))
    vals, flags, _ = signed_distance_values(half, Y, cfg)
    assert not flags.any()
    s = np.sign(Y[:, 0])
    best0, _, _ = sd_module._ray_crossings(half.f.values, s, np.abs(Y[:, 0]), Y,
                                            sd_module._directions(half.space))
    np.testing.assert_array_equal(vals, s * best0)


def test_proposal_crossing_a_thin_slab_twice_keeps_an_upper_bound(cfg):
    # M is {x1 <= 0} plus a slab far thinner than one grid cell; where round
    # 0 misses the slab its best is the halfspace, so a proposal ray that
    # reaches past the slab crosses it twice before its row's best and is
    # dropped; the value stays a crossing distance, never below the true
    # one by more than the solver's tolerance
    lo, hi = 0.5245, 0.5255
    f = compile_expression(["min", "x1", ["-", ["abs", ["-", "x1", 0.5 * (lo + hi)]],
                                                0.5 * (hi - lo)]], 2)
    inst = ProblemInstance(space=NormedSpace(2, "euclidean"), f=f)
    rng = np.random.default_rng(9)
    Y = np.vstack([np.column_stack([rng.uniform(0.8, 1.2, 12), rng.uniform(-1.0, 1.0, 12)]),
                   np.column_stack([rng.uniform(-0.5, -0.05, 6), rng.uniform(-1.0, 1.0, 6)])])
    x1 = Y[:, 0]
    true = np.where(x1 > hi, x1 - hi, x1)
    best0, _, _ = sd_module._ray_crossings(f.values, np.sign(true), np.abs(f.values(Y)), Y,
                                            sd_module._directions(inst.space))
    assert np.sum(best0[:12] > x1[:12] - 1e-9) >= 10   # round 0 misses the slab
    vals, flags, _ = signed_distance_values(inst, Y, cfg)
    assert not flags.any()
    np.testing.assert_array_equal(np.sign(vals), np.sign(true))
    assert np.all(np.abs(vals) >= np.abs(true) - sd_module.BISECT_TOL)


def _counting(inst):
    seen = []

    def counted(P):
        seen.append(len(P))
        return inst.f.eval(P)

    return replace(inst, f=replace(inst.f, eval=counted)), seen


def test_singleton_far_side_saturates(cfg):
    # outside, no inside found on any axis nor on the walk; the oracle sees
    # f(Y) and one call per column block, each over every row: the six
    # blocks cover all 24 columns.  Each row then walks dim + 2 = 4 steps,
    # one gradient and one value call each over every row: each step about
    # halves z, so it never reaches M = {0} nor leaves the search radius,
    # and no ray is solved
    base = load("singleton_sq").instance
    inst, seen = _counting(base)
    grads = []

    def counted_grad(P):
        grads.append(len(P))
        return base.f.grad(P)

    inst = replace(inst, f=replace(inst.f, grad=counted_grad))
    rng = np.random.default_rng(13)
    n = 5
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    Y = rng.uniform(0.2, 1.4, (n, 1)) * np.column_stack([np.cos(angle), np.sin(angle)])
    vals, flags, _ = signed_distance_values(inst, Y, cfg)
    assert flags.all()
    assert np.all(vals == SEARCH_RADIUS)
    p = len(sd_module._directions(inst.space))
    assert seen == [n] + [n * p * width for width in (1, 1, 2, 4, 8, 8)] + [n] * 4
    assert grads == [n] * 4


def test_rows_within_one_cell_of_the_boundary_stop_after_the_first_column(monkeypatch, half,
                                                                          cfg):
    # an axis ray of every row crosses at rho = 0.0625, so round 0 asks
    # the first column of each ray and nothing more before it solves
    rng = np.random.default_rng(12)
    n, cell = 9, SEARCH_RADIUS / RESOLUTION
    x1 = rng.uniform(0.01, 0.99, n) * cell * rng.choice([-1.0, 1.0], n)
    Y = np.column_stack([x1, rng.uniform(-1.0, 1.0, n)])
    inst, seen = _counting(half)
    calls = []
    real_itp = sd_module.itp_crossings

    def itp(*args, **kwargs):
        calls.append(list(seen))
        return real_itp(*args, **kwargs)

    monkeypatch.setattr(sd_module, "itp_crossings", itp)
    vals, flags, _ = signed_distance_values(inst, Y, cfg)
    assert not flags.any()
    assert calls[0] == [n, n * len(sd_module._directions(half.space))]
    np.testing.assert_allclose(vals, x1, atol=2 * PROBE_RESOLUTION)


def test_check_theorem2_solver_passes_at_the_fixed_points(monkeypatch):
    # a ray takes at most bisection's passes plus ITP's slack: 31 on a grid
    # cell, 35 on a refinement bracket; the total, 720 when measured, guards
    # what the slack and the tolerance save together
    tol, slack = sd_module.BISECT_TOL, sd_module.ITP_SLACK
    assert math.ceil(math.log2(SEARCH_RADIUS / RESOLUTION / tol)) + slack == 31
    assert math.ceil(math.log2(SEARCH_RADIUS / tol)) + slack == 35
    real_itp = sd_module.itp_crossings
    calls = []

    def itp(values, origins, dirs, lo, hi, *args, **kwargs):
        passes = []

        def counted(P):
            passes.append(len(P))
            return values(P)

        out = real_itp(counted, origins, dirs, lo, hi, *args, **kwargs)
        bisection = int(np.max(np.ceil(np.log2((hi - lo) / tol))))
        calls.append((len(passes), bisection))
        return out

    monkeypatch.setattr(sd_module, "itp_crossings", itp)
    cfg = NumericConfig(rng_seed=42)
    for cid in FIXED_IDS:
        entry = load(cid)
        for want, points in ((True, entry.certifiable_at), (False, entry.degenerate_at)):
            for x in points:
                assert check_theorem2(entry.instance, x, cfg).nondegenerate == want, (cid, x)
    assert all(passes <= bisection + slack for passes, bisection in calls), calls
    assert sum(passes for passes, _ in calls) <= 720


def test_signed_distance_ignores_the_run_seed():
    # the signed distance is a function of M alone
    rng = np.random.default_rng(11)
    for cid in ("halfspace", "unit_ball_euclid"):
        inst = load(cid).instance
        pts = rng.uniform(-1.3, 1.3, (16, 2))
        one, two = (sd_instance(inst, NumericConfig(rng_seed=seed)).f.values(pts)
                    for seed in (1, 2))
        np.testing.assert_array_equal(one, two, err_msg=cid)


def test_probe_resolution_keeps_its_bits():
    # theorem2 prints it and the signed distance declares it as value_noise
    assert repr(PROBE_RESOLUTION) == "0.00015144574286089478"


def test_overestimation_is_one_sided(ball, cfg):
    # |D| can exceed the true distance but never undershoot by more than
    # the bisection tolerance
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.6, 0.6, (20, 2))
    true = np.linalg.norm(pts, axis=1) - 1.0
    vals, _, _ = signed_distance_values(ball, pts, cfg)
    assert np.all(vals <= true + 1e-9)
    assert np.all(vals >= true - PROBE_RESOLUTION)


def closed_form_signed_distance(cid, Y):
    """d_M - d_{M^c} of a certifiable catalog entry, in its own norm."""
    if cid == "halfspace":
        return Y[:, 0]
    if cid == "unit_ball_euclid":
        return np.linalg.norm(Y, axis=1) - 1.0
    if cid == "box_sup":
        return np.max(np.abs(Y), axis=1) - 1.0
    if cid == "max_two_planes":
        outside = (Y > 0.0).any(axis=1)
        return np.where(outside, np.linalg.norm(np.maximum(Y, 0.0), axis=1), Y.max(axis=1))
    # union_balls: the two unit balls lie 1 apart, so inside one the other
    # is farther than its complement
    return np.minimum(np.linalg.norm(Y - [1.5, 0.0], axis=1),
                      np.linalg.norm(Y + [1.5, 0.0], axis=1)) - 1.0


@pytest.mark.parametrize("cid", ["halfspace", "unit_ball_euclid", "box_sup", "max_two_planes",
                                 "union_balls"])
def test_values_against_closed_forms(cid, cfg):
    # every value is a crossing distance, so none is short of the true
    # distance by more than the solver's tolerance, and its sign is exact;
    # the foot-normal rounds bring the excess within PROBE_RESOLUTION also
    # beside max_two_planes' corner and midway between union_balls' balls
    entry = load(cid)
    for x, seed in itertools.product(entry.certifiable_at, range(4)):
        Y = x + np.random.default_rng(seed).uniform(-0.5, 0.5, (2000, 2))
        vals, flags, _ = signed_distance_values(entry.instance, Y, cfg)
        true = closed_form_signed_distance(cid, Y)
        assert not flags.any()
        np.testing.assert_array_equal(np.sign(vals), np.sign(true))
        excess = np.abs(vals) - np.abs(true)
        assert excess.min() >= -sd_module.BISECT_TOL, (x, seed)
        assert excess.max() <= PROBE_RESOLUTION, (x, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_near_pairs_beside_the_kink_keep_modulus_one(seed, cfg):
    # pairs 1e-3 apart in max_two_planes' positive quadrant, where the
    # nearest point of M is the corner for a quarter of the rows; a row that
    # ended on a farther point of the boundary than its neighbour would
    # break the modulus by far more than the slack
    inst = load("max_two_planes").instance
    rng = np.random.default_rng(seed)
    P = rng.uniform(0.0, 0.5, (3000, 2))
    angle = rng.uniform(0.0, 2.0 * np.pi, 3000)
    Q = P + 1e-3 * np.column_stack([np.cos(angle), np.sin(angle)])
    vp, vq = np.split(signed_distance_values(inst, np.concatenate([P, Q]), cfg)[0], 2)
    allowed = 1.02 * np.linalg.norm(P - Q, axis=1) + 2.0 * PROBE_RESOLUTION
    assert np.sum(np.abs(vp - vq) > allowed) == 0


def test_lipschitz_check_passes(half, ball, cfg):
    for inst in (half, ball):
        res = sd_lipschitz_check(inst, np.zeros(2), 1.0, cfg)
        assert res["ok"], res
        assert res["pairs"] == 500


def test_lipschitz_check_sends_both_ends_in_one_call(ball, cfg, monkeypatch):
    # the two-call form: P's and Q's signed distances in separate batches
    center = np.array([0.3, -0.2])
    rng = cfg.rng("sd-lipschitz", ball.f.descriptor)
    P = sample_ball(ball.space, center, 1.0, 500, rng)
    Q = sample_ball(ball.space, center, 1.0, 500, rng)
    vp, _, _ = signed_distance_values(ball, P, cfg)
    vq, _, _ = signed_distance_values(ball, Q, cfg)
    excess = np.abs(vp - vq) - (1.02 * ball.space.norm(P - Q) + 2.0 * PROBE_RESOLUTION)
    worst = float(np.max(excess))
    want = {"ok": bool(worst <= 0.0), "max_excess": worst, "pairs": 500}

    calls = []

    def spy(inst, Y, cfg_):
        calls.append(len(Y))
        return signed_distance_values(inst, Y, cfg_)

    monkeypatch.setattr(sd_module, "signed_distance_values", spy)
    assert sd_lipschitz_check(ball, center, 1.0, cfg) == want
    assert calls == [1000]


def test_sd_instance_contract(half, ball, cfg):
    f = sd_instance(half, cfg).f
    assert f.value_noise == PROBE_RESOLUTION
    assert "signed-distance" in f.descriptor
    # the theorem's Lipschitz constant rides on the scales, not on the hint
    assert f.scales.lipschitz == 1.0
    assert f.lipschitz_hint is None
    # the gradient is the theorem's: the normal of M at each row's foot,
    # scaled to dual norm 1, on both sides
    g = f.gradients(np.array([[0.4, 0.2], [-0.3, -0.5]]))
    np.testing.assert_array_equal(g, [[1.0, 0.0], [1.0, 0.0]])
    Y = np.array([[1.3, 0.4], [0.3, -0.5], [-0.2, 0.6], [-1.1, -0.9]])   # two out, two in
    f = sd_instance(ball, cfg).f
    g = f.gradients(Y)
    np.testing.assert_allclose(g, Y / np.linalg.norm(Y, axis=1, keepdims=True), atol=1e-3)
    # at smooth points of D it agrees with D's central differences
    np.testing.assert_allclose(g, finite_difference_gradients(f.values, Y, 1e-2), atol=0.05)
    # a band row is its own foot
    u = np.array([[0.6, 0.8]])
    y = u * (1.0 + 2e-10)
    assert membership_codes(ball.f, y, cfg)[0] == 0
    np.testing.assert_array_equal(f.gradients(y), ball.space.dual.unit(ball.f.gradients(y)))
    # under the sup norm the dual (one) norm of the face normal is 1
    box = load("box_sup").instance
    g = sd_instance(box, cfg).f.gradients(np.array([[1.01, 0.3]]))
    np.testing.assert_array_equal(g, [[1.0, 0.0]])
    # a saturated row has no foot: D is locally constant there, so 0.  The
    # base gradient is asked only on the walk, at points within the search
    # radius of their row, never at a missing (NaN) foot
    point = load("singleton_sq").instance
    Y = np.array([[0.3, 0.2], [-0.8, 0.5]])
    assert signed_distance_values(point, Y, cfg)[1].all()
    asked = []

    def walk_gradient(P):
        asked.append(P.copy())
        return point.f.grad(P)

    sd = sd_instance(replace(point, f=replace(point.f, grad=walk_gradient)), cfg)
    np.testing.assert_array_equal(sd.f.gradients(Y), np.zeros((2, 2)))
    assert [len(P) for P in asked] == [2] * 4   # dim + 2 steps of both rows
    for P in asked:
        assert np.all(np.linalg.norm(P - Y, axis=1) <= SEARCH_RADIUS)


def test_check_theorem2_halfspace(cfg):
    inst = load("halfspace").instance
    res = check_theorem2(inst, np.zeros(2), cfg)
    assert res.nondegenerate
    assert res.alpha is not None and res.alpha >= 0.2
    assert res.witness is not None
    assert res.witness[0] < -0.9
    assert res.directions_tried >= 1


def test_check_theorem2_singleton(cfg):
    inst = load("singleton_sq").instance
    res = check_theorem2(inst, np.zeros(2), cfg)
    assert not res.nondegenerate
    assert res.witness is None


@pytest.mark.parametrize("dim, norm", [(3, "sup"), (4, "one")])
def test_directions_cover_every_orthant(dim, norm, cfg):
    # round 0 marches the signed axes, of norm 1 in every norm; no axis ray
    # from a point of the open positive orthant reaches M = {max_i x_i <= 0},
    # so those rows walk, cross, and read the distance max_i y_i (sup) or
    # sum_i y_i (one)
    space = NormedSpace(dim, norm)
    D = sd_module._directions(space)
    np.testing.assert_array_equal(D, signed_axes(dim))
    np.testing.assert_allclose(space.norm(D), 1.0, rtol=1e-12)
    inst = ProblemInstance(space=space,
                           f=compile_expression(["max", *(f"x{j + 1}" for j in range(dim))], dim))
    Y = np.random.default_rng(3).uniform(0.02, 0.4, (50, dim))
    _, _, crossed = sd_module._ray_crossings(inst.f.values, np.ones(50), inst.f.values(Y), Y, D)
    assert not crossed.any()
    vals, flags, _ = signed_distance_values(inst, Y, cfg)
    assert not flags.any()
    excess = vals - space.norm(Y)
    assert excess.min() >= -sd_module.BISECT_TOL and excess.max() <= PROBE_RESOLUTION


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_directions_have_no_duplicate_rows(dim):
    inst = ProblemInstance(space=NormedSpace(dim, "euclidean"), f=compile_expression("x1", dim))
    D = sd_module._directions(inst.space)
    assert len(np.unique(D, axis=0)) == len(D)


ONE_NORM_D4 = {
    "space": {"dim": 4, "norm": "one"},
    "function": {"expression": ["max", "x1", ["+", "x2", "x3"], ["-", 0, "x4"]],
                 "lipschitz_hint": 2.0},
    "boundary_points": [[0.0, 0.0, 0.0, 0.0]],
}


@pytest.mark.parametrize("spec, seed", [({"function": {"catalog_id": "max_two_planes"}},
                                         1113660102),
                                        (ONE_NORM_D4, 5)],
                         ids=["max_two_planes", "one-norm-d4"])
def test_check_theorem2_answers_true_at_kinks(spec, seed):
    # round 0's axes are fixed per space and the rows they miss walk, so the
    # seed picks only the witness search; at these seeds random probe
    # directions alone once missed the orthant where M lies
    inst, _ = parse_instance(spec)
    cfg = NumericConfig(rng_seed=seed)
    res = check_theorem2(inst, inst.boundary_points[0], cfg)
    assert res.nondegenerate, res.note
    assert res.alpha > 0.1
    for cid in ("singleton_sq", "abs_wall"):
        assert not check_theorem2(load(cid).instance, np.zeros(2), cfg).nondegenerate, cid


# item 25's wedge: M lies between 100.3 and 114.5 degrees, and no signed
# axis from most points near its tip meets it
WEDGE = ["max", ["+", ["*", -1.61402428, "x1"], ["*", -0.73666679, "x2"]],
         ["+", ["*", 1.29614913, "x1"], ["*", 0.23608312, "x2"]]]


@pytest.mark.parametrize("seed", [42, 1, 7])
@pytest.mark.parametrize("norm", ["euclidean", "sup"])
@pytest.mark.parametrize("cid, want", [("orthant_5", True), ("orthant_8", True),
                                       ("orthant_16", True), ("orthant_32", True),
                                       ("wedge", True), ("singleton_sq", False),
                                       ("abs_wall", False)])
def test_check_theorem2_verdicts_in_narrow_cones(cid, want, norm, seed):
    # certify succeeds at the orthant and the wedge; there the rows that no
    # axis ray crosses walk to the boundary instead of saturating, so no
    # hull row reads 0 and theorem2 agrees.  The degenerate points stay
    # degenerate: the walk crosses nothing at singleton_sq
    if cid == "wedge":
        inst = ProblemInstance(space=NormedSpace(2, norm), f=compile_expression(WEDGE, 2))
    else:
        base = load(cid).instance
        inst = replace(base, space=NormedSpace(base.space.dim, norm))
    res = check_theorem2(inst, np.zeros(inst.space.dim), NumericConfig(rng_seed=seed))
    assert res.nondegenerate == want, res.note


def test_check_theorem2_agrees_with_the_plain_search_on_random_max_of_linear_forms(cfg):
    # theorem2 is never true where the plain search finds no witness, and
    # true at nearly every instance that has one (173 of 200 with a fixed
    # direction table in place of the walk)
    found = agreed = 0
    for inst, _, _ in _extreme_of_linear_forms(300, seed=5):
        x = np.zeros(inst.space.dim)
        plain = is_nondegenerate(inst, x, cfg).witness is not None
        t2 = check_theorem2(inst, x, cfg).nondegenerate
        assert plain or not t2
        found += plain
        agreed += plain and t2
    assert found == 200 and agreed >= 182


@pytest.mark.parametrize("cid", ["halfspace", "unit_ball_euclid"])
def test_sign_query_agrees_with_signed_distance(cid, cfg):
    # the sign query is the membership code; > 0, < 0 and <= 0 must hold on
    # the same rows as for the signed distance, band and boundary included
    inst = load(cid).instance
    rng = np.random.default_rng(7)
    u = rng.standard_normal((6, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    if cid == "halfspace":
        edge = np.column_stack([np.zeros(6), u[:, 1]])
        band = edge + np.array([1.0, 0.0]) * rng.uniform(-0.9, 0.9, (6, 1)) * cfg.tol_value
    else:
        edge = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.6, 0.8], [-0.8, 0.6]])
        band = u * (1.0 + rng.uniform(-0.9, 0.9, (6, 1)) * cfg.tol_value)
    pts = np.vstack([rng.uniform(-1.5, 1.5, (24, 2)), edge, band])
    codes = membership_codes(inst.f, pts, cfg)
    assert (codes == 0).sum() >= 12 and (codes > 0).any() and (codes < 0).any()
    sd_vals, _, _ = signed_distance_values(inst, pts, cfg)
    signs = sd_instance(inst, cfg).f.signs(pts)
    for got in (codes, signs):
        np.testing.assert_array_equal(got > 0, sd_vals > 0)
        np.testing.assert_array_equal(got < 0, sd_vals < 0)
        np.testing.assert_array_equal(got <= 0, sd_vals <= 0)


def _halfspace_sd_witness(r):
    v = np.array([-1.0, 0.0])
    return DescentWitness(x=np.zeros(2), v=v, alpha=0.5, r=r, k=1.0,
                          epsilon=epsilon_formula(0.5, r, 1.0))


def test_lambda_values_same_bits_with_and_without_sign_query(cfg):
    inst = sd_instance(load("halfspace").instance, cfg)
    w = _halfspace_sd_witness(0.4)
    phi = inst.space.dual.dual_norming_direction(w.v)
    Y = sample_cylinder(inst.space, w, phi, 8, stream_rng(0, "sd-sign"), tau_halfwidth=w.r / 16.0)
    fast = lambda_values(inst.space, inst.f, w, phi, Y, cfg)
    full = lambda_values(inst.space, replace(inst.f, sign=None), w, phi, Y, cfg)
    np.testing.assert_array_equal(fast, full)
    np.testing.assert_allclose(fast, Y[:, 0], atol=1e-9 + cfg.tol_value)


def test_sd_bracket_violation_reports_values_not_codes(cfg):
    # r far too large for the ball: -r/4 lands beyond the search radius and
    # +r/4 goes through the ball and out the far side, so both signs are +
    entry = load("unit_ball_euclid")
    inst = sd_instance(entry.instance, cfg)
    v = np.array([-1.0, 0.0])
    w = DescentWitness(x=np.array([1.0, 0.0]), v=v, alpha=0.5, r=10.0, k=1.0,
                       epsilon=epsilon_formula(0.5, 10.0, 1.0))
    phi = inst.space.dual.dual_norming_direction(v)
    messages = []
    for f in (inst.f, replace(inst.f, sign=None)):
        with pytest.raises(BracketViolation) as exc:
            lambda_values(inst.space, f, w, phi, w.x[None, :], cfg)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    lo, hi = inst.f.value(w.x - 2.5 * v), inst.f.value(w.x + 2.5 * v)
    assert f"f(-r/4)={lo:.6g}, f(+r/4)={hi:.6g}" in messages[0]
    assert lo == SEARCH_RADIUS and hi == pytest.approx(0.5, abs=1e-3)


def test_promote_halfspace_certifies(cfg):
    entry = load("halfspace")
    x = entry.certifiable_at[0]
    cert = promote_to_certificate(entry.instance, x, cfg)
    assert isinstance(cert, EpigraphCertificate), getattr(cert, "message", cert)
    assert cert.report is not None and cert.report.overall
    # k is the signed distance's theorem constant, not a sampled estimate
    assert cert.witness.k == 1.0
    assert cert.witness.epsilon == epsilon_formula(cert.witness.alpha, cert.witness.r, 1.0)
    assert cert.lambda_samples
    pts = np.stack([p for p, _ in cert.lambda_samples])
    stored = np.array([val for _, val in cert.lambda_samples])
    # the signed distance is 0 on the band |f| < tol_value, which moves the
    # crossing by up to tol_value / |grad f|
    form = entry.reference.lambda_form_at(x)
    assert np.max(np.abs(form(pts, cert.witness.v) - stored)) <= 1e-9 + cfg.tol_value


@pytest.mark.parametrize("cid, i", [("halfspace", 0), ("unit_ball_euclid", 0),
                                    ("unit_ball_euclid", 1), ("box_sup", 0), ("box_sup", 1),
                                    ("max_two_planes", 0), ("max_two_planes", 1),
                                    ("union_balls", 0), ("union_balls", 1)])
def test_promote_certifies_theorem2s_witness(cid, i, cfg):
    # theorem2 and promote run one witness search on one oracle, so the
    # promoted certificate carries theorem2's witness and alpha, bit for bit
    entry = load(cid)
    x = entry.certifiable_at[i]
    res = check_theorem2(entry.instance, x, cfg)
    cert = promote_to_certificate(entry.instance, x, cfg)
    assert isinstance(cert, EpigraphCertificate), getattr(cert, "message", cert)
    np.testing.assert_array_equal(cert.witness.v, res.witness)
    assert cert.witness.alpha == res.alpha


@pytest.mark.parametrize("tol_value", [1e-9, 2.0], ids=["default", "wide-band"])
def test_sd_membership_codes_are_base_band_codes_without_rays(monkeypatch, tol_value):
    # the sign query answers membership exactly, at any tol_value, and no
    # signed distance is computed for it
    cfg = NumericConfig(rng_seed=42, tol_value=tol_value)
    inst = load("halfspace").instance
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.uniform(-3.0, 3.0, (40, 2)),
                     np.column_stack([rng.uniform(-0.9, 0.9, 8) * tol_value, np.ones(8)])])
    want = band_codes(inst.f.values(pts), cfg)
    assert (want == 0).any() and (want > 0).any() and (want < 0).any()
    sd = sd_instance(inst, cfg)

    def no_rays(*args, **kwargs):
        raise AssertionError("membership codes marched signed-distance rays")

    monkeypatch.setattr(sd_module, "signed_distance_values", no_rays)
    np.testing.assert_array_equal(membership_codes(sd.f, pts, cfg), want)


@pytest.mark.parametrize("point", [(0.5, 0.0), (-0.5, 0.0)], ids=["outside", "inside"])
def test_check_theorem2_refuses_off_band_point_as_certify_does(cfg, point):
    inst = load("halfspace").instance
    x = np.array(point)
    res = check_theorem2(inst, x, cfg)
    assert isinstance(res, CertificationFailure)
    want = certify(inst, x, cfg)
    assert res.stage == want.stage == "precondition"
    assert res.message == want.message
