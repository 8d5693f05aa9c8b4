"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Run with -s to see the verdict lines as they happen; under capture they land
in the captured stdout section.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import epicert as ec
from epicert.catalog import load
from epicert.clarke import directional_derivative
from epicert.core import (
    NumericConfig,
    canonical_json,
    membership_codes,
    sample_ball,
    stream_rng,
)
from epicert.epirep import (
    certify,
    lambda_values,
    measured_cylinder_lipschitz,
    sample_cylinder,
    to_graph_coordinates,
)
from epicert.signed_distance import check_theorem2, sd_lipschitz_check
from epicert.verify import run_suite

from conftest import CERTIFIABLE_IDS


@contextmanager
def criterion(n, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} ({label}): FAIL  [{time.perf_counter() - t0:.2f}s]")
        raise
    print(f"ACCEPTANCE {n} ({label}): PASS  [{time.perf_counter() - t0:.2f}s]")


def test_acceptance_1_halfspace_end_to_end():
    with criterion(1, "halfspace end-to-end"):
        t0 = time.perf_counter()
        entry = load("halfspace")
        cfg = NumericConfig(rng_seed=42)
        cert = certify(entry.instance, np.zeros(2), cfg)
        assert isinstance(cert, ec.EpigraphCertificate)

        w = cert.witness
        rng = stream_rng(42, "acceptance-1")
        pts = sample_cylinder(
            cert.space, w, cert.phi, 1000, rng, tau_halfwidth=w.r / 8.0
        )
        lam = lambda_values(cert.space, entry.instance.f, w, cert.phi, pts, cfg)
        # the ray infimum of the halfspace is its first coordinate
        assert float(np.max(np.abs(lam - pts[:, 0]))) <= 1e-8

        assert 0.99 <= cert.measured_lipschitz <= 1.01
        assert 1.0 <= w.k <= 1.25 + 1e-12
        assert 0.4 <= w.alpha <= 0.5
        assert cert.lipschitz_bound == 1.0 + 2.0 * w.k / w.alpha
        assert time.perf_counter() - t0 < 2.0


def test_acceptance_2_translation_identity(catalog_certs, cfg42):
    with criterion(2, "translation identity L2"):
        t0 = time.perf_counter()
        assert cfg42.tol_bisect == 1e-10
        for cid in ("halfspace", "unit_ball_euclid", "max_two_planes", "union_balls"):
            entry, cert = catalog_certs[(cid, 0)]
            w, phi, f = cert.witness, cert.phi, entry.instance.f
            rng = stream_rng(1042, "acceptance-2", cid)
            Y = sample_cylinder(cert.space, w, phi, 200, rng, tau_halfwidth=w.r / 16.0)
            s = rng.uniform(-w.r / 16.0, w.r / 16.0, 200)
            lam = lambda_values(cert.space, f, w, phi, Y, cfg42)
            lam_s = lambda_values(
                cert.space, f, w, phi, Y + s[:, None] * w.v[None, :], cfg42
            )
            err = float(np.max(np.abs(lam_s - (lam - s))))
            assert err <= 2.0 * cfg42.tol_bisect, (cid, err)
        assert time.perf_counter() - t0 < 5.0


def test_acceptance_3_cylinder_slope_bound(catalog_certs, cfg42):
    with criterion(3, "cylinder slope bound L4"):
        t0 = time.perf_counter()
        fresh = replace(cfg42, rng_seed=4242)
        for (cid, i), (entry, cert) in catalog_certs.items():
            m = measured_cylinder_lipschitz(
                cert.space, entry.instance.f, cert.witness, cert.phi, fresh,
            )
            assert m <= 1.01 * cert.lipschitz_bound, (cid, i, m)
        assert time.perf_counter() - t0 < 10.0


def test_acceptance_4_half_ball_set_equality(catalog_certs, cfg42):
    with criterion(4, "half-ball set equality L6"):
        for (cid, i), (entry, cert) in catalog_certs.items():
            w, phi, f = cert.witness, cert.phi, entry.instance.f
            rng = stream_rng(2042, "acceptance-4", cid, i)
            Y = sample_ball(cert.space, w.x, w.epsilon / 2.0, 1000, rng)
            codes = membership_codes(f, Y, cfg42)
            keep = codes != 0  # the |f| <= tol_value band is excluded
            xi, height = to_graph_coordinates(phi, w.v, Y)
            lam = lambda_values(cert.space, f, w, phi, xi[keep], cfg42)
            above_graph = (height[keep] - lam) >= 0.0
            inside = codes[keep] < 0
            disagreements = int(np.sum(above_graph != inside))
            assert disagreements == 0, (cid, i, disagreements)


def test_acceptance_5_degeneracy_detection():
    with criterion(5, "degeneracy detection"):
        t0 = time.perf_counter()
        cfg = NumericConfig(rng_seed=42)
        for cid in ("singleton_sq", "abs_wall"):
            entry = load(cid)
            res = certify(entry.instance, np.zeros(2), cfg)
            assert isinstance(res, ec.CertificationFailure), cid
            assert res.stage == "degenerate-point", cid
            assert res.hull.min_norm_value <= 1e-3, cid
            if cid == "abs_wall":
                gens = res.hull.generators
                d_plus = np.min(np.linalg.norm(gens - np.array([1.0, 0.0]), axis=1))
                d_minus = np.min(np.linalg.norm(gens - np.array([-1.0, 0.0]), axis=1))
                assert d_plus <= 1e-6 and d_minus <= 1e-6
        assert time.perf_counter() - t0 < 2.0


def test_acceptance_6_signed_distance_nondegeneracy(cfg42):
    with criterion(6, "signed-distance nondegeneracy theorem2"):
        t0 = time.perf_counter()
        for cid in CERTIFIABLE_IDS:
            entry = load(cid)
            for pt in entry.certifiable_at:
                res = check_theorem2(entry.instance, np.asarray(pt), cfg42)
                assert res.nondegenerate, (cid, pt, res.note)
                assert res.alpha is not None and res.alpha >= 0.2, (cid, pt, res.alpha)
            chk = sd_lipschitz_check(entry.instance, np.asarray(entry.certifiable_at[0]), 1.0,
                                     cfg42)
            assert chk["ok"], (cid, chk)
        res = check_theorem2(load("singleton_sq").instance, np.zeros(2), cfg42)
        assert not res.nondegenerate
        assert time.perf_counter() - t0 < 20.0


def test_acceptance_7_truncation_family_collapse():
    with criterion(7, "truncation family collapse"):
        t0 = time.perf_counter()
        cfg = NumericConfig(rng_seed=42)
        eps = {}
        for d in (1, 2, 4, 8, 16, 32, 64):
            entry = load(f"rockafellar_{d}")
            cert = certify(entry.instance, entry.certifiable_at[0], cfg)
            assert isinstance(cert, ec.EpigraphCertificate), d
            w = cert.witness
            eps[d] = w.epsilon
            # closed-form slope cap on B(0, r): the gradient is
            # (2 j xi_j, -1), so |grad|^2 = sum_j (2 j xi_j)^2 + 1, maximised
            # by putting all mass on the last quadratic coordinate
            k_cf = float(np.sqrt(4.0 * d * d * w.r * w.r + 1.0))
            assert abs(w.k - k_cf) <= 0.25 * k_cf + 1e-9, (d, w.k, k_cf)

        # cross-check the closed form against brute maximisation once
        entry = load("rockafellar_2")
        rng = np.random.default_rng(0)
        P = rng.standard_normal((20000, 3))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        G = entry.instance.f.gradients(P)
        brute = float(np.max(np.linalg.norm(G, axis=1)))
        k_cf2 = float(np.sqrt(4.0 * 4.0 + 1.0))
        assert brute <= k_cf2 + 1e-9
        assert brute >= 0.97 * k_cf2

        ds = sorted(eps)
        assert all(eps[b] < eps[a] for a, b in zip(ds, ds[1:])), eps
        assert eps[64] / eps[4] <= 0.2
        assert time.perf_counter() - t0 < 30.0


def test_acceptance_8_directional_derivative_oracles():
    with criterion(8, "directional derivative oracles"):
        t0 = time.perf_counter()
        cfg = NumericConfig(rng_seed=42)
        dirs = [np.array([1.0, 0.0]), np.array([0.0, -1.0]), np.array([0.6, 0.8])]
        for cid in ("halfspace", "unit_ball_euclid", "box_sup", "max_two_planes",
                    "union_balls", "singleton_sq", "abs_wall"):
            entry = load(cid)
            ref = entry.instance.reference
            for p in ref.smooth_points:
                g = entry.instance.f.gradients(np.asarray(p)[None, :])[0]
                for v in dirs:
                    est = directional_derivative(
                        entry.instance.space, entry.instance.f, np.asarray(p), v, cfg
                    )
                    assert est.value == pytest.approx(float(g @ v), abs=1e-5), (cid, p, v)

        # the nonsmooth case, re-derived from a dense grid of quotients
        def grid_ref(sgn):
            ss = np.linspace(-1e-3, 1e-3, 801)
            best = -np.inf
            for t in np.geomspace(1e-6, 1e-3, 40):
                q = (np.abs(ss + sgn * t) - np.abs(ss)) / t
                best = max(best, float(np.max(q)))
            return best

        wall = load("abs_wall").instance
        for sgn in (1.0, -1.0):
            assert grid_ref(sgn) == pytest.approx(1.0, abs=1e-12)
            est = directional_derivative(
                wall.space, wall.f, np.zeros(2), np.array([sgn, 0.0]), cfg
            )
            assert est.value == pytest.approx(1.0, abs=1e-3)
        assert time.perf_counter() - t0 < 5.0


def test_acceptance_9_byte_determinism(cfg42):
    with criterion(9, "byte determinism"):
        entry = load("halfspace")
        c1 = certify(entry.instance, np.zeros(2), NumericConfig(rng_seed=42))
        c2 = certify(entry.instance, np.zeros(2), NumericConfig(rng_seed=42))
        b1 = canonical_json(c1.to_json_dict())
        b2 = canonical_json(c2.to_json_dict())
        assert b1 == b2

        fresh = replace(cfg42, rng_seed=424242)
        r1 = run_suite(entry.instance, c1, fresh)
        r2 = run_suite(entry.instance, c2, fresh)
        assert canonical_json(r1.to_json_dict()) == canonical_json(r2.to_json_dict())

        t1 = check_theorem2(entry.instance, np.zeros(2), cfg42)
        t2 = check_theorem2(entry.instance, np.zeros(2), cfg42)
        assert t1.alpha == t2.alpha
        np.testing.assert_array_equal(t1.witness, t2.witness)
