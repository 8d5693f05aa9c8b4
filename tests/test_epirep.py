"""Witness epsilon and L1 notes, norming functionals, the graph split, and lambda."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epicert as ec
from epicert import cli, epirep
from epicert.catalog import load
from epicert.clarke import GradientHull, NondegeneracyResult, is_nondegenerate
from epicert.core import (
    NonFiniteValue,
    NormedSpace,
    NumericConfig,
    ProblemInstance,
    canonical_json,
    internal_verify_seed,
    sample_ball,
    stream_rng,
)
from epicert.epirep import (
    BracketViolation,
    CertificationFailure,
    CylinderError,
    DescentWitness,
    RadiusUnderflow,
    certificate_from_json,
    certify,
    epsilon_formula,
    find_descent_radius,
    from_graph_coordinates,
    lambda_batches,
    lambda_values,
    measured_cylinder_lipschitz,
    sample_cylinder,
    to_graph_coordinates,
)
from epicert.expressions import compile_expression
from epicert.signed_distance import sd_instance
from epicert.verify import run_suite

from conftest import CERTIFIABLE_IDS


def test_epsilon_formula_branches():
    assert epsilon_formula(0.5, 1.0, 1.0) == 0.125
    # slope-limited branch vs radius-limited branch
    assert epsilon_formula(0.5, 1.0, 2.0) == 0.0625
    assert epsilon_formula(4.0, 1.0, 1.0) == 0.25
    assert epsilon_formula(1.0, 2.0, 1.0) == 0.5


def test_certify_stores_formula_epsilon(catalog_certs):
    for (cid, i), (entry, cert) in catalog_certs.items():
        w = cert.witness
        assert w.epsilon == epsilon_formula(w.alpha, w.r, w.k), (cid, i)


def test_broken_witness_is_an_l1_note(halfspace_cert, cfg42):
    entry, cert = halfspace_cert
    for field, value, note in [("alpha", 0.0, "nonpositive alpha/r/k"),
                               ("v", np.array([2.0, 0.0]), "witness direction not unit"),
                               ("epsilon", 0.2, "epsilon 0.2 != min(r/4, alpha*r/(4k))")]:
        broken = replace(cert, witness=replace(cert.witness, **{field: value}))
        rep = run_suite(entry.instance, broken, replace(cfg42, rng_seed=777))
        assert not rep.overall, field
        assert rep.per_lemma["L1"].note.startswith("structural: " + note), field


def test_norming_functional_euclidean_is_self():
    sp = NormedSpace(3, "euclidean")
    v = sp.unit(np.array([1.0, 2.0, -2.0]))
    phi = sp.dual.dual_norming_direction(v)
    np.testing.assert_allclose(phi, v)
    assert float(v @ phi) == pytest.approx(1.0, abs=1e-14)


def test_norming_functional_sup_picks_max_coordinate():
    sp = NormedSpace(2, "sup")
    phi = sp.dual.dual_norming_direction(np.array([1.0, 0.2]))
    np.testing.assert_array_equal(phi, [1.0, 0.0])
    phi = sp.dual.dual_norming_direction(np.array([0.2, -1.0]))
    np.testing.assert_array_equal(phi, [0.0, -1.0])
    # tie resolves to the lowest index
    phi = sp.dual.dual_norming_direction(np.array([1.0, 1.0]))
    np.testing.assert_array_equal(phi, [1.0, 0.0])


def test_norming_functional_one_norm_is_sign_vector():
    sp = NormedSpace(2, "one")
    phi = sp.dual.dual_norming_direction(np.array([0.5, -0.5]))
    np.testing.assert_array_equal(phi, [1.0, -1.0])
    assert sp.dual_norm(phi) == 1.0


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["euclidean", "sup", "one"]),
    raw=st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=5),
)
def test_norming_functional_contract_all_norms(kind, raw):
    v = np.asarray(raw)
    if float(np.max(np.abs(v))) < 1e-3:
        v = v + 1.0
    sp = NormedSpace(len(raw), kind)
    u = sp.unit(v)
    phi = sp.dual.dual_norming_direction(u)
    assert float(u @ phi) == pytest.approx(1.0, abs=1e-12)
    assert float(sp.dual_norm(phi)) == pytest.approx(1.0, abs=1e-10)


def test_one_norm_phi_is_plus_one_at_a_zero_coordinate_of_v():
    # x1 under the one norm: v = (-1, 0), and the sup space's norming rule
    # sends the zero coordinate to +1, a norming functional all the same
    sp = NormedSpace(2, "one")
    inst = ProblemInstance(sp, compile_expression("x1", 2), (np.zeros(2),))
    cert = certify(inst, np.zeros(2), NumericConfig(rng_seed=42))
    assert not isinstance(cert, CertificationFailure), cert
    np.testing.assert_array_equal(cert.witness.v, [-1.0, 0.0])
    np.testing.assert_array_equal(cert.phi, [-1.0, 1.0])
    assert float(cert.witness.v @ cert.phi) == 1.0
    assert float(sp.dual_norm(cert.phi)) == 1.0
    assert run_suite(inst, cert, NumericConfig(rng_seed=2024)).overall


def test_find_descent_radius_halfspace_keeps_r0():
    sp = NormedSpace(2, "euclidean")
    f = compile_expression("x1", 2)
    cfg = NumericConfig(rng_seed=42)
    r = find_descent_radius(sp, f, np.zeros(2), np.array([-1.0, 0.0]), 0.5, cfg)
    assert r == 1.0  # slope is exactly -1 everywhere, never violated


def test_find_descent_radius_underflow_on_impossible_alpha():
    sp = NormedSpace(2, "euclidean")
    f = compile_expression("x1", 2)
    cfg = NumericConfig(rng_seed=42)
    with pytest.raises(RadiusUnderflow):
        find_descent_radius(sp, f, np.zeros(2), np.array([-1.0, 0.0]), 1.5, cfg)


def _radius_rounds(space, f, x, v, cfg):
    """(r, ys, ts, shifted) for each round, drawn as find_descent_radius
    draws them, so tests can plant oracle values at known rows."""
    x = np.asarray(x, dtype=float)
    u = space.unit(v)
    rng = cfg.rng("radius", f.descriptor, *np.round(x, 12).tolist())
    n = max(256, cfg.sample_budget // 2)
    t_min_fraction = f.scales.t_min_fraction
    r = 1.0
    while r >= 1e-8:
        ys = sample_ball(space, x, 2.0 * r, n, rng)
        n_log = n // 4
        mag = np.empty(n)
        mag[: n - n_log] = rng.uniform(t_min_fraction, 1.0, n - n_log)
        mag[n - n_log :] = np.exp(rng.uniform(math.log(t_min_fraction), 0.0, n_log))
        ts = 2.0 * r * mag * rng.choice([-1.0, 1.0], n)
        yield r, ys, ts, ys + ts[:, None] * u[None, :]
        r *= cfg.shrink_factor


def one_shot_radius(space, f, x, v, alpha, cfg):
    """Reference search: every row of a round in one pair of oracle calls."""
    for r, ys, ts, shifted in _radius_rounds(space, f, x, v, cfg):
        if np.all((f.values(shifted) - f.values(ys)) / ts < -alpha):
            return r
    raise RadiusUnderflow("descent radius fell below 1e-08")


@pytest.mark.parametrize("seed", [42, 1, 7])
def test_staged_radius_search_returns_the_one_shot_radius(seed):
    cfg = NumericConfig(rng_seed=seed)
    cases = [(e.instance, x) for e in map(load, CERTIFIABLE_IDS) for x in e.certifiable_at]
    half = load("halfspace")
    cases.append((sd_instance(half.instance, cfg), half.certifiable_at[0]))
    radii = []
    for inst, x in cases:
        nd = is_nondegenerate(inst, x, cfg)
        args = (inst.space, inst.f, x, nd.witness, float(nd.alpha), cfg)
        radii.append(find_descent_radius(*args))
        assert radii[-1] == one_shot_radius(*args)
    assert min(radii) < 1.0   # some round was rejected


def _rigged(f, planted):
    """f with the values planted at exact points, and the rows of each call."""
    rows = []

    def evaluate(P):
        rows.append(len(P))
        out = np.array(f.eval(P), dtype=float)
        for point, value in planted:
            out[np.all(P == point, axis=1)] = value
        return out

    return replace(f, eval=evaluate), rows


@pytest.fixture()
def slope_one():
    """f = x1 at the origin, descending along -e1 at slope 1 everywhere,
    and the rows of its r = 1 round."""
    sp, f, cfg = NormedSpace(2, "euclidean"), compile_expression("x1", 2), NumericConfig(rng_seed=42)
    x, v = np.zeros(2), np.array([-1.0, 0.0])
    _, ys, _, shifted = next(_radius_rounds(sp, f, x, v, cfg))
    return sp, f, x, v, cfg, ys, shifted


def test_violation_in_the_first_rows_costs_the_round_only_those_rows(slope_one):
    sp, f, x, v, cfg, ys, shifted = slope_one
    n = len(ys)
    head = n // 32
    # f(y_0 + t_0 v) reads as f(y_0): a zero quotient at row 0
    g, rows = _rigged(f, [(shifted[0], f.value(ys[0]))])
    assert find_descent_radius(sp, g, x, v, 0.5, cfg) == cfg.shrink_factor
    assert rows == [head, head, head, head, n - head, n - head]


def test_violation_past_the_first_rows_still_rejects_r(slope_one):
    sp, f, x, v, cfg, ys, shifted = slope_one
    n = len(ys)
    head = n // 32
    g, rows = _rigged(f, [(shifted[head], f.value(ys[head]))])
    assert find_descent_radius(sp, g, x, v, 0.5, cfg) == cfg.shrink_factor
    assert rows == [head, head, n - head, n - head] * 2
    assert one_shot_radius(sp, g, x, v, 0.5, cfg) == cfg.shrink_factor


def test_non_finite_value_only_in_rows_a_rejected_round_skips_is_not_seen(slope_one):
    sp, f, x, v, cfg, ys, shifted = slope_one
    n = len(ys)
    g, _ = _rigged(f, [(shifted[0], f.value(ys[0])), (shifted[n - 1], np.nan)])
    assert find_descent_radius(sp, g, x, v, 0.5, cfg) == cfg.shrink_factor
    with pytest.raises(NonFiniteValue):
        one_shot_radius(sp, g, x, v, 0.5, cfg)   # the whole round sees it
    # in a row that is evaluated it still raises
    g, _ = _rigged(f, [(shifted[1], np.nan)])
    with pytest.raises(NonFiniteValue):
        find_descent_radius(sp, g, x, v, 0.5, cfg)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["euclidean", "sup", "one"]),
    seed=st.integers(0, 10_000),
)
def test_graph_coordinates_round_trip(kind, seed):
    sp = NormedSpace(3, kind)
    rng = stream_rng(seed, "graph-test")
    v = sp.unit(rng.standard_normal(3))
    phi = sp.dual.dual_norming_direction(v)
    Y = rng.uniform(-2, 2, (8, 3))
    xi, t = to_graph_coordinates(phi, v, Y)
    back = from_graph_coordinates(v, xi, t)
    np.testing.assert_allclose(back, Y, atol=1e-12)
    np.testing.assert_allclose(xi @ phi, np.zeros(8), atol=1e-12)


def test_lambda_matches_closed_form_on_halfspace(halfspace_cert, cfg42):
    entry, cert = halfspace_cert
    # for the halfspace the ray infimum is the first coordinate itself
    for p, val in cert.lambda_samples[:50]:
        assert val == pytest.approx(p[0], abs=1e-10)


def test_lambda_translation_identity(halfspace_cert, cfg42):
    entry, cert = halfspace_cert
    sp, f, w = cert.space, entry.instance.f, cert.witness
    rng = stream_rng(0, "identity")
    pts = sample_cylinder(sp, w, cert.phi, 40, rng, tau_halfwidth=w.r / 16.0)
    lam = lambda_values(sp, f, w, cert.phi, pts, cfg42)
    s = 0.05
    lam_shift = lambda_values(sp, f, w, cert.phi, pts + s * w.v[None, :], cfg42)
    np.testing.assert_allclose(lam_shift, lam - s, atol=2 * cfg42.tol_bisect + 1e-12)


def test_lambda_scalar_wrapper(halfspace_cert, cfg42):
    entry, cert = halfspace_cert
    y = cert.witness.x + 0.01 * cert.witness.v
    got = lambda_values(
        cert.space, entry.instance.f, cert.witness, cert.phi, y[None, :], cfg42
    )[0]
    assert got == pytest.approx(-0.01, abs=1e-10)


def test_lambda_rejects_far_query(halfspace_cert, cfg42):
    entry, cert = halfspace_cert
    y = cert.witness.x + np.array([0.0, 10.0])
    with pytest.raises(CylinderError):
        lambda_values(cert.space, entry.instance.f, cert.witness, cert.phi, y[None, :], cfg42)


def test_bracket_violation_surfaces_not_degrades(cfg42):
    # hand-built witness with a radius far past where the descent holds:
    # the -r/4 probe lands back inside the ball, breaking the sign bracket
    entry = load("unit_ball_euclid")
    sp = entry.instance.space
    w = DescentWitness(x=np.array([1.0, 0.0]), v=np.array([-1.0, 0.0]), alpha=0.5,
                       r=12.0, k=1.0, epsilon=epsilon_formula(0.5, 12.0, 1.0))
    phi = sp.dual.dual_norming_direction(w.v)
    with pytest.raises(BracketViolation):
        lambda_values(sp, entry.instance.f, w, phi, w.x[None, :], cfg42)


def test_lambda_batches_gives_each_batch_its_values_or_its_error(halfspace_cert, cfg42,
                                                                 monkeypatch):
    entry, cert = halfspace_cert
    sp, w, phi = cert.space, cert.witness, cert.phi
    pts = sample_cylinder(sp, w, phi, 40, stream_rng(0, "batches"), tau_halfwidth=w.r / 8.0)
    # far lies 2 epsilon from x across v, outside the cylinder and the ball;
    # base sits on x's phi-level, so it is its own ray base, and the oracle
    # is wrong at that base's +r/4 end
    far, base = w.x + np.array([0.0, 2.0 * w.epsilon]), w.x + np.array([0.0, 0.06])
    high = base + w.r / 4.0 * w.v
    real_f = entry.instance.f

    def eval_(P):
        out = np.array(real_f.eval(P), dtype=float)
        out[np.all(P == high, axis=1)] = 1.0
        return out

    f = replace(real_f, eval=eval_)
    rows, real_itp = [], epirep.itp_crossings

    def counted(values, origins, *args):
        rows.append(len(origins))
        return real_itp(values, origins, *args)

    monkeypatch.setattr(epirep, "itp_crossings", counted)
    batches = [np.vstack([pts[:10], far, pts[10:20]]), np.vstack([pts[20:25], base]), pts[25:]]
    cylinder, bracket, clean = lambda_batches(sp, f, w, phi, batches, cfg42)
    assert batches == [None, None, None]
    assert rows == [15]   # one root-finder call, on the clean batch alone
    assert isinstance(cylinder, CylinderError)
    assert str(cylinder).startswith(f"point {far.tolist()} outside cylinder (dF=0.25)")
    assert isinstance(bracket, BracketViolation)
    assert str(bracket) == f"sign bracket failed at base {base.tolist()}: f(-r/4)=0.25, f(+r/4)=1"
    # the clean batch carries lambda_values' bits, whatever it was solved with
    alone = lambda_values(sp, f, w, phi, pts[25:], cfg42)
    assert clean.tobytes() == alone.tobytes()


def test_sample_cylinder_draws_euclidean_points_straight_into_ker_phi(cfg42):
    # d = 256: a rejection loop's acceptance collapses here, the direct draw
    # has none to collapse
    entry = load("rockafellar_256")
    inst = entry.instance
    cert = certify(inst, entry.certifiable_at[0], cfg42)
    sp, w, phi = cert.space, cert.witness, cert.phi
    n, tau = 500, w.r / 8.0
    pts = sample_cylinder(sp, w, phi, n, stream_rng(0, "direct"), tau_halfwidth=tau)
    assert pts.shape == (n, sp.dim)
    xi, t = to_graph_coordinates(phi, w.v, pts)
    xix, tx = to_graph_coordinates(phi, w.v, w.x)
    drawn = xi - xix[None, :]
    norms = np.linalg.norm(drawn, axis=1)
    assert np.max(np.abs(drawn @ phi)) <= 1e-12 * w.epsilon
    assert np.max(norms) < 0.98 * w.epsilon
    assert np.max(np.abs(t - float(tx))) <= tau
    assert np.max(np.abs(drawn[0])) <= 1e-15 * (1.0 + tau)   # row 0 is on x's axis
    # sample_ball's mixture: the last ceil(n/8) rows are pushed to the shell
    shell = math.ceil(n / 8)
    band = norms / (0.98 * w.epsilon)
    assert np.all((band[-shell:] > 0.9) & (band[-shell:] < 0.999))
    lambda_values(sp, inst.f, w, phi, pts, cfg42)   # no CylinderError


def test_sample_cylinder_keeps_the_sup_norm_rejection_draw(catalog_certs):
    # the rejection loop the sup and one norms keep, as written before the
    # direct euclidean draw: the same bits from the same stream
    def rejection(space, w, phi, n, rng, tau):
        pix, phix = to_graph_coordinates(phi, w.v, w.x)
        collected, got = [], 0
        while got < n:
            ball = sample_ball(space, np.zeros(space.dim), w.epsilon, max(2 * n, 64), rng)
            xi, _ = to_graph_coordinates(phi, w.v, ball)
            xi = xi[space.norm(xi) < 0.98 * w.epsilon]
            collected.append(xi)
            got += len(xi)
        taus = rng.uniform(-tau, tau, n)
        return pix[None, :] + np.concatenate(collected)[:n] + (phix + taus)[:, None] * w.v

    for i in (0, 1):
        _, cert = catalog_certs[("box_sup", i)]
        sp, w, phi = cert.space, cert.witness, cert.phi
        got = sample_cylinder(sp, w, phi, 200, stream_rng(i, "sup"), tau_halfwidth=w.r / 8.0)
        want = rejection(sp, w, phi, 200, stream_rng(i, "sup"), w.r / 8.0)
        assert got.tobytes() == want.tobytes()


def test_sample_cylinder_respects_bounds(halfspace_cert):
    entry, cert = halfspace_cert
    sp, w, phi = cert.space, cert.witness, cert.phi
    rng = stream_rng(3, "cyl")
    pts = sample_cylinder(sp, w, phi, 200, rng, tau_halfwidth=w.r / 8.0)
    assert pts.shape == (200, sp.dim)
    xi, t = to_graph_coordinates(phi, w.v, pts)
    xix, tx = to_graph_coordinates(phi, w.v, w.x)
    dF = np.asarray(sp.norm(xi - xix[None, :]))
    assert np.max(dF) < 0.98 * w.epsilon + 1e-12
    assert np.max(np.abs(t - float(tx))) <= w.r / 8.0 + 1e-12


def test_measured_lipschitz_halfspace_is_one(halfspace_cert, cfg42):
    entry, cert = halfspace_cert
    m = measured_cylinder_lipschitz(
        cert.space, entry.instance.f, cert.witness, cert.phi, cfg42
    )
    assert m == pytest.approx(1.0, abs=1e-8)
    assert cert.measured_lipschitz == pytest.approx(1.0, abs=1e-8)


def test_measured_lipschitz_is_the_internal_l4_value(catalog_certs, cfg42):
    # certify stores its own suite's L4 maximum, drawn at the derived seed
    suite_cfg = replace(cfg42, rng_seed=internal_verify_seed(cfg42.rng_seed))
    for (cid, i), (entry, cert) in catalog_certs.items():
        m = measured_cylinder_lipschitz(cert.space, entry.instance.f, cert.witness, cert.phi,
                                        suite_cfg)
        assert cert.measured_lipschitz == m, (cid, i)
        assert cert.report.measured_lipschitz == m, (cid, i)


def test_certificate_json_round_trip(halfspace_cert):
    entry, cert = halfspace_cert
    d1 = cert.to_json_dict()
    rebuilt = certificate_from_json(json.loads(canonical_json(d1)))
    d2 = rebuilt.to_json_dict()
    # the rebuilt object carries no attached report; align and compare bytes
    d1 = dict(d1, lemma_report=None, overall=None)
    assert canonical_json(d1) == canonical_json(d2)
    assert rebuilt.witness.epsilon == cert.witness.epsilon
    assert rebuilt.space.norm_kind == cert.space.norm_kind


@pytest.mark.parametrize("path", [("alpha",), ("x", 1), ("lambda_samples", 3, "point", 0),
                                  ("lambda_samples", 0, "value")],
                         ids=["alpha", "x", "sample-point", "sample-value"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_certificate_from_json_refuses_non_finite_entries(halfspace_cert, path, bad):
    # a dict built in the library never passes the JSON parser's checks
    data = halfspace_cert[1].to_json_dict()
    *outer, last = path
    target = data
    for key in outer:
        target = target[key]
    target[last] = bad
    with pytest.raises(ValueError, match="non-finite"):
        certificate_from_json(data)


def test_certify_rejects_off_boundary_point(cfg42):
    entry = load("halfspace")
    res = certify(entry.instance, np.array([1.0, 1.0]), cfg42)
    assert isinstance(res, CertificationFailure)
    assert res.stage == "precondition"
    assert res.to_json_dict()["failure"] == "precondition"


def test_certify_reports_degenerate_stage(cfg42):
    entry = load("singleton_sq")
    res = certify(entry.instance, entry.degenerate_at[0], cfg42)
    assert isinstance(res, CertificationFailure)
    assert res.stage == "degenerate-point"
    assert res.to_json_dict()["hull_min_norm_value"] <= 1e-3


def test_certify_reports_a_hull_that_disagrees_with_the_witness_search(cfg42, capsys,
                                                                     monkeypatch):
    # a hull far from 0 with no witness found is not called degenerate: the
    # message names the disagreement, and the CLI still exits 2
    def disagreeing(inst, x, cfg):
        return NondegeneracyResult(witness=None, alpha=None,
                                   hull=GradientHull(generators=np.array([[1.0, 0.0]])),
                                   directions_tried=20)

    monkeypatch.setattr(epirep, "is_nondegenerate", disagreeing)
    res = certify(load("halfspace").instance, np.zeros(2), cfg42)
    assert isinstance(res, CertificationFailure)
    assert res.stage == "degenerate-point"
    assert res.message.endswith("hull min-norm 1 disagrees with witness search (none)")
    assert cli.main(["certify", "--catalog", "halfspace", "--seed", "42"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": res.message, "failure": "degenerate-point",
                               "hull_min_norm_value": 1.0}


def test_certificate_reports_bound_formula(halfspace_cert):
    entry, cert = halfspace_cert
    w = cert.witness
    assert cert.lipschitz_bound == 1.0 + 2.0 * w.k / w.alpha
    assert cert.measured_lipschitz <= cert.lipschitz_bound * 1.01
    assert cert.report is not None and cert.report.overall
    assert cert.confidence == "sampling_probabilistic"
    assert cert.seed == 42


def test_stored_lambda_samples_stay_in_quarter_band(catalog_certs, cfg42):
    for (cid, i), (entry, cert) in catalog_certs.items():
        vals = np.array([v for _, v in cert.lambda_samples])
        assert np.max(np.abs(vals)) <= cert.witness.r / 4.0 + cfg42.tol_bisect, cid
