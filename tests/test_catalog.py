"""Catalog entries: boundary data, closed forms, the scaling family."""

import numpy as np
import pytest

import epicert as ec
from epicert.catalog import FIXED_IDS, list_catalog, load, rockafellar_truncation
from epicert.clarke import directional_derivative, estimate_gradient_hull, min_norm_point
from epicert.core import NumericConfig, sample_ball, stream_rng
from epicert.epirep import DescentWitness, epsilon_formula, lambda_values, sample_cylinder

from conftest import CERTIFIABLE_IDS


def test_fixed_ids_all_load():
    assert set(CERTIFIABLE_IDS) <= set(FIXED_IDS)
    for cid in FIXED_IDS:
        entry = load(cid)
        assert entry.id == cid
        assert entry.instance.space.dim >= 1


def test_rockafellar_ids_parse():
    for d in (1, 3, 16):
        entry = load(f"rockafellar_{d}")
        assert entry.instance.space.dim == d + 1
        assert rockafellar_truncation(d).instance.space.dim == d + 1


def test_orthant_ids_parse():
    for d in (1, 5, 32):
        entry = load(f"orthant_{d}")
        assert entry.id == entry.instance.label == f"orthant_{d}"
        assert entry.instance.space.dim == d
        assert entry.instance.space.norm_kind == "euclidean"
        np.testing.assert_array_equal(entry.certifiable_at[0], np.zeros(d))


@pytest.mark.parametrize("bad", ["nope", "rockafellar_0", "rockafellar_x", "rockafellar_",
                                 "orthant_0", "orthant_07", "orthant_"])
def test_unknown_ids_raise(bad):
    with pytest.raises(KeyError):
        load(bad)


def test_catalog_ids_and_listing():
    ids = [row["id"] for row in list_catalog()]
    assert set(FIXED_IDS) <= set(ids)
    assert "rockafellar_<d>" in ids and "orthant_<d>" in ids


def test_declared_points_sit_on_the_boundary():
    for cid in FIXED_IDS:
        entry = load(cid)
        for pt in entry.certifiable_at + entry.degenerate_at:
            val = entry.instance.f.value(np.asarray(pt))
            assert abs(val) <= 1e-12, (cid, pt, val)
    entry = load("rockafellar_5")
    assert abs(entry.instance.f.value(entry.certifiable_at[0])) <= 1e-12


@pytest.mark.parametrize(
    "cid", FIXED_IDS + ("rockafellar_16", "rockafellar_64", "rockafellar_128", "rockafellar_256")
)
def test_oracle_values_are_row_wise(cid):
    # find_descent_radius evaluates a round in two pieces; that gives the
    # whole round's answer only if each row's value is its own, bit for bit
    entry = load(cid)
    inst = entry.instance
    x = (entry.certifiable_at + entry.degenerate_at)[0]
    n = max(256, NumericConfig().sample_budget // 2)
    P = sample_ball(inst.space, x, 2.0, n, np.random.default_rng(3))
    full = inst.f.values(P)
    for k in (1, n // 32, n // 2):
        np.testing.assert_array_equal(
            np.concatenate([inst.f.values(P[:k]), inst.f.values(P[k:])]), full
        )


def test_lambda_closed_forms_match_bisection(catalog_certs):
    for (cid, i), (entry, cert) in catalog_certs.items():
        ref = entry.instance.reference
        if ref is None:
            continue
        form = ref.lambda_form_at(cert.witness.x)
        if form is None:
            continue
        pts = np.array([p for p, _ in cert.lambda_samples[:100]])
        vals = np.array([v for _, v in cert.lambda_samples[:100]])
        want = form(pts, cert.witness.v)
        np.testing.assert_allclose(vals, want, atol=1e-8, err_msg=f"{cid}[{i}]")


@pytest.mark.parametrize("d", [1, 5, 32])
def test_orthant_lambda_closed_form_matches_lambda_values(d):
    # along the diagonal and along a random direction with every coordinate
    # negative, both descent directions of max(x1..xd) at 0
    entry = load(f"orthant_{d}")
    inst, x0 = entry.instance, entry.certifiable_at[0]
    form = entry.reference.lambda_form_at(x0)
    rng = stream_rng(0, "orthant-lambda", d)
    cfg = NumericConfig(rng_seed=42)
    for v in (-np.ones(d), -rng.uniform(0.2, 1.0, d)):
        v /= np.linalg.norm(v)
        alpha, r = float(-np.max(v)), 0.4
        w = DescentWitness(x=x0, v=v, alpha=alpha, r=r, k=1.0,
                           epsilon=epsilon_formula(alpha, r, 1.0))
        phi = inst.space.dual.dual_norming_direction(v)
        Y = sample_cylinder(inst.space, w, phi, 64, rng, tau_halfwidth=r / 16.0)
        np.testing.assert_allclose(lambda_values(inst.space, inst.f, w, phi, Y, cfg), form(Y, v),
                                   rtol=0, atol=1e-9)


@pytest.mark.parametrize("seed", [42, 1])
@pytest.mark.parametrize("d", [1, 4, 16])
def test_rockafellar_lambda_closed_form_matches_bisection(d, seed):
    entry = rockafellar_truncation(d)
    x0 = entry.certifiable_at[0]
    cert = ec.certify(entry.instance, x0, NumericConfig(rng_seed=seed))
    assert isinstance(cert, ec.EpigraphCertificate)
    pts = np.array([p for p, _ in cert.lambda_samples])
    vals = np.array([v for _, v in cert.lambda_samples])
    want = entry.reference.lambda_form_at(x0)(pts, cert.witness.v)
    np.testing.assert_allclose(vals, want, rtol=0, atol=1e-9)


def test_subdifferential_references_match_sampled_hulls(cfg42):
    for cid in FIXED_IDS:
        entry = load(cid)
        ref = entry.instance.reference
        if ref is None:
            continue
        for pt in entry.certifiable_at + entry.degenerate_at:
            gens_ref = ref.subdifferential_at(np.asarray(pt))
            if gens_ref is None:
                continue
            hull = estimate_gradient_hull(
                entry.instance.space, entry.instance.f, np.asarray(pt), cfg42
            )
            # every sampled gradient lies within 1e-4 of the reference hull
            for g in hull.generators:
                shifted = gens_ref - g[None, :]
                p, _ = min_norm_point(shifted)
                assert np.linalg.norm(p) <= 1e-4, (cid, pt, g)


def test_rockafellar_vertical_derivative(cfg42):
    for d in (1, 4):
        entry = load(f"rockafellar_{d}")
        ref = entry.instance.reference
        v = ref.witness_direction
        est = directional_derivative(
            entry.instance.space, entry.instance.f, ref.witness_point, v, cfg42
        )
        assert est.value == pytest.approx(ref.directional_derivative_at_witness, abs=1e-9)
        assert ref.directional_derivative_at_witness == -1.0


WITNESS_IDS = ("halfspace", "unit_ball_euclid", "box_sup", "max_two_planes", "union_balls",
               "rockafellar_1", "rockafellar_4")


def test_witness_ids_are_the_fixed_entries_with_reference_witness_data():
    ids = [cid for cid in FIXED_IDS if load(cid).instance.reference.witness_point is not None]
    assert ids == list(WITNESS_IDS[:5])


@pytest.mark.parametrize("seed", [42, 1, 7])
@pytest.mark.parametrize("cid", WITNESS_IDS)
def test_reference_witness_data(cid, seed):
    # the directional derivative along the reference direction is the
    # reference value, and certify's witness at the reference point is the
    # reference direction
    inst = load(cid).instance
    ref = inst.reference
    cfg = NumericConfig(rng_seed=seed)
    est = directional_derivative(inst.space, inst.f, ref.witness_point, ref.witness_direction, cfg)
    assert est.value == pytest.approx(ref.directional_derivative_at_witness, abs=1e-9)
    cert = ec.certify(inst, ref.witness_point, cfg)
    assert isinstance(cert, ec.EpigraphCertificate), cert.message
    assert np.linalg.norm(cert.witness.v - ref.witness_direction) <= 1e-6, cert.witness.v


def test_rockafellar_lipschitz_closed_form():
    entry = load("rockafellar_3")
    k = entry.instance.reference.lipschitz_on_ball(1.0)
    # gradient norm maximised at the ball shell: sqrt((2*d*r)^2 + 1)
    assert k == pytest.approx(np.sqrt(37.0), rel=1e-15)
    brute = 0.0
    rng = np.random.default_rng(0)
    for _ in range(2000):
        p = rng.uniform(-1, 1, 4)
        n = np.linalg.norm(p)
        if n > 1:
            p /= n
        g = entry.instance.f.gradients(p[None, :])[0]
        brute = max(brute, float(np.linalg.norm(g)))
    assert brute <= k + 1e-12


def test_rockafellar_epsilon_shrinks_with_dimension():
    # with alpha and r pinned, epsilon = alpha*r/(4k) and k grows with d,
    # so the certified slab must shrink monotonically
    prev = None
    for d in (1, 2, 4, 8, 16, 32, 64):
        k = load(f"rockafellar_{d}").instance.reference.lipschitz_on_ball(1.0)
        eps = epsilon_formula(0.5, 1.0, k)
        if prev is not None:
            assert eps < prev
        prev = eps


def test_certifiable_and_degenerate_expectations(cfg42):
    assert load("singleton_sq").certifiable_at == ()
    assert load("abs_wall").certifiable_at == ()
    for cid in ("singleton_sq", "abs_wall"):
        entry = load(cid)
        assert len(entry.degenerate_at) == 1
        res = ec.certify(entry.instance, entry.degenerate_at[0], cfg42)
        assert isinstance(res, ec.CertificationFailure)
        assert res.stage == "degenerate-point"


def test_rockafellar_certifies(cfg42):
    entry = load("rockafellar_2")
    res = ec.certify(entry.instance, entry.certifiable_at[0], cfg42)
    assert isinstance(res, ec.EpigraphCertificate)
    assert res.report.overall
