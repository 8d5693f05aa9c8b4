import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import epicert as ec
from epicert.core import (
    NORM_KINDS, FunctionOracle, NonFiniteValue, itp_crossings, pair_quotients, require_number,
    require_vector, signed_axes, stream_rng,
)

DIMS = st.integers(min_value=1, max_value=5)
KINDS = st.sampled_from(NORM_KINDS)


def vectors(dim, max_mag=100.0):
    return st.lists(
        st.floats(-max_mag, max_mag, allow_nan=False, allow_infinity=False),
        min_size=dim, max_size=dim,
    ).map(lambda xs: np.asarray(xs, dtype=float))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_norm_axioms(data):
    dim = data.draw(DIMS)
    space = ec.NormedSpace(dim, data.draw(KINDS))
    x = data.draw(vectors(dim))
    y = data.draw(vectors(dim))
    c = data.draw(st.floats(-50, 50, allow_nan=False))
    nx, ny = float(space.norm(x)), float(space.norm(y))
    assert nx >= 0.0
    assert float(space.norm(np.zeros(dim))) == 0.0
    assert float(space.norm(x + y)) <= nx + ny + 1e-9 * (1 + nx + ny)
    assert float(space.norm(c * x)) == pytest.approx(abs(c) * nx, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dual_pairing_bound(data):
    dim = data.draw(DIMS)
    space = ec.NormedSpace(dim, data.draw(KINDS))
    w = data.draw(vectors(dim))
    y = data.draw(vectors(dim))
    lhs = abs(float(w @ y))
    rhs = float(space.dual_norm(w)) * float(space.norm(y))
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dual_norming_direction_attains(data):
    dim = data.draw(DIMS)
    space = ec.NormedSpace(dim, data.draw(KINDS))
    w = data.draw(vectors(dim).filter(lambda v: np.max(np.abs(v)) > 1e-6))
    d = space.dual_norming_direction(w)
    dn = float(space.dual_norm(w))
    assert float(space.norm(d)) == pytest.approx(1.0, abs=1e-12)
    assert float(w @ d) == pytest.approx(dn, rel=1e-12, abs=1e-12)


def test_dual_norming_tie_uses_lowest_index():
    space = ec.NormedSpace(2, "one")       # dual norm is sup, attained per coordinate
    d = space.dual_norming_direction(np.array([2.0, 2.0]))
    np.testing.assert_array_equal(d, [1.0, 0.0])


TIE_ROWS = np.array([
    [2.0, 2.0, 0.0],      # tie between the first two coordinates
    [-2.0, 2.0, 1.0],     # tie with a negative lowest index
    [0.0, -0.0, -3.0],    # zero coordinates of either sign
    [-0.0, 0.0, 0.0],     # the zero vector with a -0.0 extreme coordinate
    [1e-3, -5.0, 5.0],
])


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_dual_norming_direction_batch_matches_rows(kind):
    space = ec.NormedSpace(3, kind)
    rows = TIE_ROWS if kind != "euclidean" else TIE_ROWS[[0, 1, 2, 4]]  # unit needs |g| > 0
    rows = np.vstack([rows, stream_rng(3, "dual-batch").standard_normal((6, 3))])
    batch = space.dual_norming_direction(rows)
    one_by_one = np.stack([space.dual_norming_direction(g) for g in rows])
    assert batch.shape == rows.shape
    assert np.array_equal(batch, one_by_one)
    assert np.array_equal(np.signbit(batch), np.signbit(one_by_one))
    assert space.dual_norming_direction(np.zeros((0, 3))).shape == (0, 3)


def test_dual_norming_direction_tie_rules():
    sup, one = ec.NormedSpace(3, "sup"), ec.NormedSpace(3, "one")
    np.testing.assert_array_equal(sup.dual_norming_direction(TIE_ROWS[:4]),
                                  [[1, 1, 1], [-1, 1, 1], [1, 1, -1], [1, 1, 1]])
    np.testing.assert_array_equal(one.dual_norming_direction(TIE_ROWS[:4]),
                                  [[1, 0, 0], [-1, 0, 0], [0, 0, -1], [1, 0, 0]])


def test_pair_quotients_drops_close_pairs():
    space = ec.NormedSpace(2)
    rng = stream_rng(5, "pairs")
    A = ec.sample_ball(space, np.zeros(2), 1.0, 8, rng)
    B = ec.sample_ball(space, np.zeros(2), 1.0, 8, rng)
    seen = []

    def g(P):
        seen.append(P.copy())
        return P @ np.array([3.0, -4.0])

    q = pair_quotients(space, g, A, B, 1e-9)
    # both draws start with the centre, so the first pair has separation 0
    assert q.shape == (7,)
    assert [len(P) for P in seen] == [7, 7]
    np.testing.assert_array_equal(seen[0], A[1:])
    assert np.all(q <= 5.0 * (1 + 1e-12))


def test_pair_quotients_skips_g_when_no_pair_qualifies():
    def g(P):
        raise AssertionError("g called")

    space = ec.NormedSpace(2, "sup")
    A = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert pair_quotients(space, g, A, A + 1e-12, 1e-9).shape == (0,)
    assert pair_quotients(space, g, np.zeros((0, 2)), np.zeros((0, 2)), 0.0).shape == (0,)


def test_unit_kills_negative_zero():
    space = ec.NormedSpace(2, "euclidean")
    u = space.unit(np.array([-1e-300 * 0.0 - 0.0, 3.0]))
    assert not np.signbit(u[0])


def test_signed_axes_order_and_zero_sign():
    axes = signed_axes(3)
    e = np.eye(3)
    assert axes.shape == (6, 3)
    assert np.array_equal(axes, np.stack([e[0], -e[0], e[1], -e[1], e[2], -e[2]]))
    assert not np.any(np.signbit(axes[axes == 0.0]))


def test_unit_rejects_zero():
    space = ec.NormedSpace(2, "euclidean")
    with pytest.raises(ValueError):
        space.unit(np.zeros(2))


def test_unit_normalizes():
    space = ec.NormedSpace(3, "sup")
    u = space.unit(np.array([0.2, -4.0, 1.0]))
    assert float(space.norm(u)) == pytest.approx(1.0, abs=1e-12)


def test_unit_rejects_overflowing_norm():
    space = ec.NormedSpace(2, "euclidean")
    with pytest.raises(NonFiniteValue, match="norm overflows"), np.errstate(over="ignore"):
        space.unit(np.array([1e308, 1e308]))


def test_gradients_refuse_an_overflowing_norm_at_its_point():
    # every entry is finite, but the norms of the last two rows are not; the
    # first of them is named
    G = np.array([[1.0, 2.0], [1e300, 1e300], [3e300, 0.0]])
    f = FunctionOracle(eval=lambda P: P[:, 0], grad=lambda P: G[: len(P)])
    P = np.array([[0.0, 0.0], [0.5, -1.0], [2.0, 3.0]])
    np.testing.assert_array_equal(f.gradients(P[:1]), G[:1])
    with pytest.raises(NonFiniteValue) as exc:
        f.gradients(P)
    assert str(exc.value) == "the norm of the gradient of f is not finite at [0.5, -1.0]"


def test_stream_rng_deterministic_and_label_sensitive():
    a = stream_rng(7, "x", 1).standard_normal(4)
    b = stream_rng(7, "x", 1).standard_normal(4)
    c = stream_rng(7, "x", 2).standard_normal(4)
    d = stream_rng(8, "x", 1).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sample_ball_contract(data):
    dim = data.draw(DIMS)
    kind = data.draw(KINDS)
    n = data.draw(st.integers(min_value=1, max_value=40))
    space = ec.NormedSpace(dim, kind)
    center = data.draw(vectors(dim, max_mag=5.0))
    radius = data.draw(st.floats(1e-3, 10.0))
    pts = ec.sample_ball(space, center, radius, n, stream_rng(3, "t"))
    assert pts.shape == (n, dim)
    np.testing.assert_array_equal(pts[0], center)
    norms = np.asarray(space.norm(pts - center[None, :]), dtype=float)
    assert np.all(norms < radius)
    want_shell = min(math.ceil(n / 8), n - 1)
    assert int(np.sum(norms > 0.9 * radius)) >= want_shell


def test_sample_ball_deterministic():
    space = ec.NormedSpace(3, "one")
    a = ec.sample_ball(space, np.zeros(3), 1.0, 17, stream_rng(5, "s"))
    b = ec.sample_ball(space, np.zeros(3), 1.0, 17, stream_rng(5, "s"))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("kind", NORM_KINDS)
@pytest.mark.parametrize("d", [1, 2, 5])
def test_uniform_ball_radial_law_and_unit_chords(kind, d):
    space = ec.NormedSpace(d, kind)
    rng = stream_rng(11, "ball-law", kind, d)
    norms = space.norm(space.uniform_ball(4000, rng))
    assert np.all(norms < 1.0)
    # uniform in the ball: the share within radius s is the volume ratio s**d
    for s in (0.5, 0.8):
        assert abs(float(np.mean(norms <= s)) - s**d) <= 0.03, s
    chords = space.chord_directions(4000, rng)
    assert chords.shape == (4000, d)
    np.testing.assert_allclose(space.norm(chords), 1.0, rtol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_kernel_ball_is_sample_ball_carried_into_ker_phi(d, sign):
    # both signs of phi's last coordinate take the Householder branch that
    # does not cancel; the draw keeps sample_ball's norms in dim - 1
    phi = stream_rng(4, "phi", d).standard_normal(d)
    phi[-1] = sign * abs(phi[-1])
    pts = ec.NormedSpace(d).kernel_ball(phi, 0.3, 40, stream_rng(5, "kernel"))
    assert pts.shape == (40, d)
    np.testing.assert_array_equal(pts[0], np.zeros(d))
    assert np.max(np.abs(pts @ phi)) <= 1e-15 * np.linalg.norm(phi)
    if d > 1:
        flat = ec.sample_ball(ec.NormedSpace(d - 1), np.zeros(d - 1), 0.3, 40,
                              stream_rng(5, "kernel"))
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1),
                                   np.linalg.norm(flat, axis=1), rtol=1e-14)


def test_kernel_ball_leaves_sup_one_and_degenerate_phi_to_the_caller():
    rng = stream_rng(5, "kernel")
    assert ec.NormedSpace(2, "sup").kernel_ball(np.array([1.0, 0.0]), 1.0, 4, rng) is None
    assert ec.NormedSpace(2, "one").kernel_ball(np.array([1.0, 0.0]), 1.0, 4, rng) is None
    assert ec.NormedSpace(2).kernel_ball(np.zeros(2), 1.0, 4, rng) is None
    assert ec.NormedSpace(2).kernel_ball(np.full(2, np.finfo(float).max), 1.0, 4, rng) is None
    big = ec.NormedSpace(2).kernel_ball(np.full(2, 1e308), 1.0, 4, rng)
    np.testing.assert_allclose(big[:, 0], -big[:, 1], rtol=1e-15)


def test_dual_space_is_an_involution():
    for kind in NORM_KINDS:
        assert ec.NormedSpace(3, kind).dual.dual == ec.NormedSpace(3, kind)
    assert ec.NormedSpace(2, "sup").dual == ec.NormedSpace(2, "one")


def test_membership_band_thresholds():
    space = ec.NormedSpace(1, "euclidean")
    f = ec.compile_expression("x1", 1)
    cfg = ec.NumericConfig()
    t = cfg.tol_value
    pts = np.array([[-2 * t], [-t], [-0.5 * t], [0.0], [0.5 * t], [t], [2 * t]])
    codes = ec.membership_codes(f, pts, cfg)
    np.testing.assert_array_equal(codes, [-1, -1, 0, 0, 0, 1, 1])
    del space


def test_membership_scales_with_f():
    # multiplying f by 2 moves band edges, nothing else
    f2 = ec.compile_expression(["*", 2, "x1"], 1)
    cfg = ec.NumericConfig()
    t = cfg.tol_value
    codes = ec.membership_codes(f2, np.array([[0.4 * t], [0.6 * t]]), cfg)
    np.testing.assert_array_equal(codes, [0, 1])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol_bisect": 0.0},
        {"tol_value": -1e-9},
        {"sample_budget": 4},
        {"sample_budget": 1000.0},
        {"rng_seed": 1.5},
        {"rng_seed": True},
        {"tol_bisect": True},
        {"tol_value": True},
        {"tol_value": "1e-3"},
        {"tol_bisect": math.inf},   # would pass every lemma check
        {"tol_value": math.inf},
        {"tol_bisect": math.nan},
        {"tol_bisect": 10**400},    # an int past the float range
        {"sample_budget": 2**63},   # past what numpy can index
        {"sample_budget": 10**20},
    ],
)
def test_numeric_config_validation(kwargs):
    with pytest.raises(ValueError):
        ec.NumericConfig(**kwargs)


def test_shrink_factor_is_a_constant_not_a_field():
    # the ladder and the descent radius halve their scale; no config sets it
    assert [f.name for f in dataclasses.fields(ec.NumericConfig)] == [
        "tol_bisect", "tol_value", "sample_budget", "rng_seed"]
    assert ec.NumericConfig().shrink_factor == ec.NumericConfig.shrink_factor == 0.5
    with pytest.raises(TypeError):
        ec.NumericConfig(shrink_factor=0.5)


@pytest.mark.parametrize("value, want", [(3, 3.0), (0.25, 0.25), (np.int64(2), 2.0),
                                         (np.float32(0.5), 0.5)])
def test_require_number_accepts_numbers(value, want):
    got = require_number(value, "v")
    assert type(got) is float and got == want


@pytest.mark.parametrize("value", [True, np.bool_(False), "1.5", None, [1.0], {}])
def test_require_number_rejects_non_numbers(value):
    with pytest.raises(ValueError, match="v must be a number"):
        require_number(value, "v")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64(np.inf), -(10**400)],
                         ids=["inf", "-inf", "nan", "numpy-inf", "int-past-float-range"])
def test_require_number_rejects_non_finite(value):
    with pytest.raises(ValueError, match="v is non-finite"):
        require_number(value, "v")


def test_require_vector():
    got = require_vector([1, 2.5, np.float32(0.5)], 3, "p")
    assert got.dtype == float and got.tolist() == [1.0, 2.5, 0.5]
    for value, needle in [((1.0, 2.0), "p must be a list of numbers"),
                          ([1.0, "a"], "p must be a list of numbers"),
                          ([1.0, True], "p must be a list of numbers"),
                          ([1.0, math.inf], "non-finite"),
                          ([1.0, 2.0], r"p has shape \(2,\), expected \(3,\)")]:
        with pytest.raises(ValueError, match=needle):
            require_vector(value, 3, "p")


def test_numeric_config_rng_depends_on_seed():
    a = ec.NumericConfig(rng_seed=1).rng("t").standard_normal(3)
    b = ec.NumericConfig(rng_seed=2).rng("t").standard_normal(3)
    assert not np.array_equal(a, b)
    c = ec.NumericConfig(rng_seed=np.int64(1)).rng("t").standard_normal(3)
    assert np.array_equal(a, c)


def test_canonical_json_stable_and_sorted():
    payload = {"b": np.float64(1.5), "a": np.array([1.0, 2.0]), "c": {"z": 1, "y": 2}}
    s1 = ec.canonical_json(payload)
    s2 = ec.canonical_json(payload)
    assert s1 == s2
    assert s1.index('"a"') < s1.index('"b"') < s1.index('"c"')
    assert json.loads(s1) == {"a": [1.0, 2.0], "b": 1.5, "c": {"y": 2, "z": 1}}


def test_canonical_json_rejects_nonfinite():
    with pytest.raises(ValueError):
        ec.canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        ec.canonical_json({"x": np.inf})
    with pytest.raises(ValueError):
        ec.canonical_json({"x": np.array([1.0, np.nan])})
    with pytest.raises(TypeError):
        ec.canonical_json({"x": object()})


def test_internal_verify_seed_differs_and_is_stable():
    for s in (0, 1, 42, 2**40):
        m = ec.internal_verify_seed(s)
        assert m != s
        assert m == ec.internal_verify_seed(s)


def test_reference_lookup_hit_and_miss():
    p = np.array([1.0, 0.0])
    ref = ec.ReferenceData(
        lambda_forms=((p, lambda Y, v: Y[:, 0]),),
        subdifferential=((p, np.array([[1.0, 0.0]])),),
    )
    assert ref.lambda_form_at(p) is not None
    assert ref.lambda_form_at(np.array([0.0, 0.0])) is None
    np.testing.assert_array_equal(ref.subdifferential_at(p), [[1.0, 0.0]])
    assert ref.subdifferential_at(np.array([5.0, 5.0])) is None


def test_function_oracle_value_shape_checks():
    f = ec.compile_expression("x1", 2)
    with pytest.raises(ValueError):
        f.values(np.zeros((3, 4)))         # wrong dim
    assert f.value(np.array([2.5, 0.0])) == 2.5


_LINEAR = FunctionOracle(eval=lambda P: P[:, 0], grad=lambda P: np.tile([1.0, 0.0], (len(P), 1)))


@pytest.mark.parametrize("build", [
    lambda: dataclasses.replace(_LINEAR, eval=lambda P: P).values(np.zeros((3, 2))),
    lambda: dataclasses.replace(_LINEAR, grad=lambda P: P[:, :1]).gradients(np.zeros((3, 2))),
    lambda: ec.core.ProblemInstance(ec.NormedSpace(2), _LINEAR, boundary_points=(np.zeros(3),)),
    lambda: ec.sample_ball(ec.NormedSpace(2), np.zeros(2), 1.0, 0, stream_rng(0, "t")),
    lambda: ec.catalog.rockafellar_truncation(0),
], ids=["eval-shape", "grad-shape", "boundary-point-shape", "sample-ball-n0",
        "rockafellar-d0"])
def test_shape_checks_reject(build):
    with pytest.raises(ValueError):
        build()


def test_itp_crossings_finds_linear_roots():
    # values(p) = p[1] - p[0] along +e1 from (0, c) crosses at t = c
    roots = np.array([-0.7, 0.0, 0.123456789, 0.9])
    origins = np.column_stack([np.zeros(4), roots])
    dirs = np.array([[1.0, 0.0]])

    def values(P):
        return P[:, 1] - P[:, 0]

    tol = 1e-10
    got = itp_crossings(values, origins, dirs, np.full(4, -1.0), np.full(4, 1.0),
                        roots + 1.0, roots - 1.0, tol)
    assert np.all(np.abs(got - roots) <= tol)


def test_itp_crossings_rows_are_independent():
    # a row's result is bitwise the same alone and inside a mixed batch
    rng = np.random.default_rng(0)
    origins = rng.uniform(-0.25, 0.25, (6, 3))
    dirs = rng.standard_normal((6, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    lo, hi = np.zeros(6), np.linspace(1.6, 3.0, 6)

    def values(P):
        return 1.0 - np.sum(P * P, axis=1)

    g_lo, g_hi = values(origins), values(origins + hi[:, None] * dirs)
    batch = itp_crossings(values, origins, dirs, lo, hi, g_lo, g_hi, 1e-12)
    for i in range(6):
        s = slice(i, i + 1)
        alone = itp_crossings(values, origins[s], dirs[s], lo[s], hi[s], g_lo[s], g_hi[s], 1e-12)
        assert alone.tobytes() == batch[s].tobytes()


# g(t) along a ray, first crossing c (g > 0 before c, g <= 0 at c), slope a
RAY_KINDS = {
    "linear": lambda t, c, a: a * (c - t),
    # convex max of two lines, kinked before c
    "kinked": lambda t, c, a: np.maximum(a * (c - t), 4.0 * a * (c - 0.25 - t)),
    "convex": lambda t, c, a: np.expm1(a * (c - t)),
    # exactly 0 on [c, c + 0.5], negative beyond
    "plateau": lambda t, c, a: a * np.maximum(c - t, 0.0) - np.maximum(t - c - 0.5, 0.0),
    # a sign-only oracle: codes +-1
    "codes": lambda t, c, a: np.where(t < c, 1.0, -1.0),
}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_itp_crossings_property(data):
    n = data.draw(st.integers(1, 6))
    kinds = data.draw(st.lists(st.sampled_from(sorted(RAY_KINDS)), min_size=n, max_size=n))
    c = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    a = np.array(data.draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n)))
    width = np.array(data.draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)))
    frac = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    orient = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    tol = data.draw(st.floats(1e-12, 1e-4))
    n0 = data.draw(st.sampled_from([0, 1]))
    lo = c - frac * width
    hi = lo + width
    # row i runs along +e1 from (0, i), so a query point names its row
    origins = np.column_stack([np.zeros(n), np.arange(n, dtype=float)])
    dirs = np.array([[1.0, 0.0]])
    passes = np.zeros(n, dtype=int)

    def g(t, rows):
        return np.array([RAY_KINDS[kinds[i]](ti, c[i], a[i]) for ti, i in zip(t, rows)])

    def values(P):
        rows = P[:, 1].astype(int)
        np.add.at(passes, rows, 1)
        return orient[rows] * g(P[:, 0], rows)

    everyone = np.arange(n)
    g_lo, g_hi = g(lo, everyone), g(hi, everyone)
    assume(np.all(g_lo > 0.0) and np.all(g_hi <= 0.0))
    got = itp_crossings(values, origins, dirs, lo, hi, g_lo, g_hi, tol, orient=orient, n0=n0)
    slack = 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    assert np.all(np.abs(got - c) <= 0.5 * tol + slack), (kinds, got - c)
    bisection = np.ceil(np.log2(width / tol)).astype(int)
    assert np.all(passes <= bisection + n0), (kinds, passes, bisection, n0)
    for i in range(n):
        s = slice(i, i + 1)
        alone = itp_crossings(values, origins[s], dirs, lo[s], hi[s], g_lo[s], g_hi[s], tol,
                              orient=orient[s], n0=n0)
        assert alone.tobytes() == got[s].tobytes()


@pytest.mark.parametrize("n0, want", [(0, 30), (1, 9)])
def test_itp_crossings_slack_leaves_a_shelf_early(n0, want):
    # a signed-distance ray beside max_two_planes' kink: g is flat up to
    # t = c - h, then falls with slope 1; the first regula falsi step lands
    # on the shelf, far short of c, and spends all of n0 = 0's spare radius,
    # so the row takes bisection's 30 passes, while with one pass of slack
    # it can interpolate again once past the shelf, where its regula falsi
    # point barely moves between passes and so truncates by that move
    h, c = 8.382566856300541e-4, 0.02035484479564463
    calls = []

    def values(P):
        calls.append(len(P))
        return np.minimum(h, c - P[:, 0])

    got = itp_crossings(values, np.zeros((1, 1)), np.ones((1, 1)), np.zeros(1),
                        np.array([0.0625]), np.array([h]), np.array([c - 0.0625]), 1e-10, n0=n0)
    assert abs(got[0] - c) <= 0.5e-10
    assert len(calls) == want


@pytest.mark.parametrize("n0", [0, 1])
@pytest.mark.parametrize("c", [0.123456789, 0.2, 0.45])
def test_itp_crossings_truncates_by_the_interpolants_move(c, n0):
    # g = c - t on [0, 0.5]: regula falsi lands on c up to rounding; the
    # first pass still steps kappa1 w**2 away from it, but from the second
    # on x_f moves by a rounding error, so the steps shrink to tol / 2 on
    # either side of c; a fixed kappa1 w**2 step took 9 passes here
    calls = []

    def values(P):
        calls.append(len(P))
        return c - P[:, 0]

    got = itp_crossings(values, np.zeros((1, 1)), np.ones((1, 1)), np.zeros(1),
                        np.array([0.5]), np.array([c]), np.array([c - 0.5]), 1e-10, n0=n0)
    assert abs(got[0] - c) <= 0.5e-10
    assert len(calls) == 4


@pytest.mark.parametrize("n0, lo, hi, want, passes", [
    (0, -0.0625, 0.0625, "0x1.948b0f742e7e8p-7", 31),
    (1, -0.0625, 0.0625, "0x1.948b0f742e7e8p-7", 32),
    (0, 0.0, 0.03, "0x1.948b0f742e7e8p-7", 29),
    (1, -0.25, 0.5, "0x1.948b0f742e7ecp-7", 34),
])
def test_itp_crossings_codes_with_a_band_keep_their_step(n0, lo, hi, want, passes):
    # membership codes: +1 before a, 0 on the band [a, b], -1 beyond; once
    # the crossing end reads 0, regula falsi sits on it and the step stays
    # kappa1 w**2, so root and pass count are those of the fixed step
    a, b = 0.0123456789, 0.0523456789
    calls = []

    def codes(t):
        return np.where(t < a, 1.0, np.where(t <= b, 0.0, -1.0))

    def values(P):
        calls.append(len(P))
        return codes(P[:, 0])

    got = itp_crossings(values, np.zeros((1, 1)), np.ones((1, 1)), np.array([lo]),
                        np.array([hi]), codes(np.array([lo])), codes(np.array([hi])), 1e-10,
                        n0=n0)
    assert got[0] == float.fromhex(want) == pytest.approx(a, abs=1e-10)
    assert len(calls) == passes


@pytest.mark.parametrize("kind", ["linear", "codes"])
def test_itp_crossings_bracket_of_width_1e308(kind):
    # 1057 passes at most; 2.0 ** 1057 would overflow
    lo, hi, tol = np.array([-5e307]), np.array([5e307]), 1e-10
    origins, dirs = np.zeros((1, 1)), np.ones((1, 1))
    calls = []

    def values(P):
        calls.append(len(P))
        return RAY_KINDS[kind](P[:, 0], 0.3, 1.0)

    got = itp_crossings(values, origins, dirs, lo, hi, values(origins + lo[:, None]),
                        values(origins + hi[:, None]), tol)
    assert abs(got[0] - 0.3) <= 0.5 * tol
    bisection = math.ceil(math.log2(1e308) - math.log2(tol))
    assert bisection == 1057 and len(calls) - 2 <= bisection


@pytest.mark.parametrize("field", ["tol_bisect", "tol_value", "sample_budget"])
def test_numeric_config_rejects_nan(field):
    with pytest.raises(ValueError):
        ec.NumericConfig(**{field: float("nan")})
