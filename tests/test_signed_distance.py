"""Membership-only signed distance and the derived nondegeneracy check."""

import itertools

import numpy as np
import pytest

from epicert.catalog import load
from epicert.core import NormedSpace, NumericConfig, ProblemInstance, signed_axes
from epicert.expressions import compile_expression
from epicert.instancefile import parse_instance
from epicert.signed_distance import (
    SignedDistanceOracle,
    check_theorem2,
    sd_instance,
    sd_lipschitz_check,
    signed_distance_values,
)


@pytest.fixture(scope="module")
def cfg():
    return NumericConfig(rng_seed=42)


@pytest.fixture(scope="module")
def ball_sd():
    return SignedDistanceOracle(base=load("unit_ball_euclid").instance)


@pytest.fixture(scope="module")
def half_sd():
    return SignedDistanceOracle(base=load("halfspace").instance)


def test_ball_center_distance(ball_sd, cfg):
    # distance from the origin to the complement of the unit ball is 1
    d = signed_distance_values(ball_sd, np.zeros((1, 2)), cfg)[0][0]
    assert d == pytest.approx(-1.0, abs=1e-6)
    # interior means negative here, magnitude may only overestimate
    assert d <= -1.0 + ball_sd.probe_resolution


def test_halfspace_axis_values(half_sd, cfg):
    # for {y1 <= 0} the signed distance is exactly y1 along the axis
    pts = np.array([[0.3, 0.0], [-0.4, 0.0], [1.2, 0.5], [-1.0, -0.7]])
    vals, flags = signed_distance_values(half_sd, pts, cfg)
    np.testing.assert_allclose(vals, pts[:, 0], atol=2 * half_sd.probe_resolution)
    assert not flags.any()


def test_sign_semantics_and_band(half_sd, cfg):
    vals, _ = signed_distance_values(
        half_sd, np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.0]]), cfg
    )
    assert vals[0] > 0 and vals[1] < 0
    assert vals[2] == 0.0  # membership band pins the value


def test_batch_purity(half_sd, cfg):
    # each point's value may not depend on its batch neighbours
    rng = np.random.default_rng(10)
    pts = rng.uniform(-1, 1, (12, 2))
    full, _ = signed_distance_values(half_sd, pts, cfg)
    singles = np.array([signed_distance_values(half_sd, p[None, :], cfg)[0][0] for p in pts])
    np.testing.assert_array_equal(full, singles)
    perm = rng.permutation(12)
    shuffled, _ = signed_distance_values(half_sd, pts[perm], cfg)
    np.testing.assert_array_equal(shuffled, full[perm])


def test_determinism(ball_sd, cfg):
    pts = np.array([[0.2, 0.1], [1.4, -0.3]])
    a, _ = signed_distance_values(ball_sd, pts, cfg)
    b, _ = signed_distance_values(ball_sd, pts, cfg)
    np.testing.assert_array_equal(a, b)


def test_singleton_far_side_saturates(cfg):
    sd = SignedDistanceOracle(base=load("singleton_sq").instance)
    vals, flags = signed_distance_values(sd, np.array([[0.7, 0.0]]), cfg)
    assert flags[0]
    assert vals[0] == sd.search_radius  # outside, no inside found on any ray


def test_overestimation_is_one_sided(ball_sd, cfg):
    # |D| can exceed the true distance but never undershoot by more than
    # the bisection tolerance
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.6, 0.6, (20, 2))
    true = np.linalg.norm(pts, axis=1) - 1.0
    vals, _ = signed_distance_values(ball_sd, pts, cfg)
    assert np.all(vals <= true + 1e-9)
    assert np.all(vals >= true - ball_sd.probe_resolution)


def test_lipschitz_check_passes(half_sd, ball_sd, cfg):
    for sd in (half_sd, ball_sd):
        res = sd_lipschitz_check(sd, np.zeros(2), 1.0, cfg)
        assert res["ok"], res
        assert res["pairs"] == 500


def test_as_function_oracle_contract(half_sd, cfg):
    f = sd_instance(half_sd.base, cfg).f
    assert f.value_noise == half_sd.probe_resolution
    assert "signed-distance" in f.descriptor
    g = f.gradients(np.array([[0.4, 0.2]]))
    np.testing.assert_allclose(g[0], [1.0, 0.0], atol=0.05)


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
def test_directions_cover_every_orthant(dim, norm):
    space = NormedSpace(dim, norm)
    inst = ProblemInstance(space=space, f=compile_expression("x1", dim))
    D = SignedDistanceOracle(base=inst, seed=3).directions
    assert D.shape == (max(16, 2 * dim + 2**dim), dim)
    np.testing.assert_allclose(space.norm(D), 1.0, rtol=1e-12)
    np.testing.assert_array_equal(D[: 2 * dim], signed_axes(dim))
    # every open orthant holds a probe direction, whatever the random draws
    hit = {tuple(np.sign(row)) for row in D if np.all(row != 0.0)}
    assert hit == set(itertools.product((1.0, -1.0), repeat=dim))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_directions_have_no_duplicate_rows(dim):
    inst = ProblemInstance(space=NormedSpace(dim, "euclidean"), f=compile_expression("x1", dim))
    D = SignedDistanceOracle(base=inst, seed=3).directions
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
    # at these seeds the random probe directions alone missed the open
    # orthant where M lies, and the signed distance read far too large
    inst, _ = parse_instance(spec)
    cfg = NumericConfig(rng_seed=seed)
    res = check_theorem2(inst, inst.boundary_points[0], cfg)
    assert res.nondegenerate, res.note
    assert res.alpha > 0.1
    for cid in ("singleton_sq", "abs_wall"):
        assert not check_theorem2(load(cid).instance, np.zeros(2), cfg).nondegenerate, cid
