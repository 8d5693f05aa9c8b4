"""Verification suite behaviour: gating, tampering, seeds, pointedness."""

from dataclasses import replace

import numpy as np
import pytest

from epicert.clarke import GradientHull
from epicert.core import canonical_json
from epicert.epirep import certificate_from_json
from epicert.verify import (
    CHECK_SAMPLE_COUNTS,
    SeedReuseError,
    pointedness_margin,
    run_suite,
)


def _hull(gens):
    gens = np.atleast_2d(np.asarray(gens, dtype=float))
    return GradientHull(generators=gens)


def test_pointedness_single_generator():
    assert pointedness_margin(_hull([[1.0, 0.0]])) == pytest.approx(2.0, abs=1e-12)


def test_pointedness_opposed_pair_collapses():
    m = pointedness_margin(_hull([[1.0, 0.0], [-1.0, 0.0]]))
    assert m == pytest.approx(0.0, abs=1e-12)


def test_pointedness_orthogonal_pair():
    m = pointedness_margin(_hull([[1.0, 0.0], [0.0, 1.0]]))
    assert m == pytest.approx(1.4142135623730951, abs=1e-12)


def test_pointedness_zero_generator_is_zero():
    assert pointedness_margin(_hull([[0.0, 0.0], [1.0, 0.0]])) == 0.0


def test_report_shape_and_sample_counts(halfspace_cert):
    entry, cert = halfspace_cert
    rep = cert.report
    assert rep.overall
    for lid, count in CHECK_SAMPLE_COUNTS.items():
        assert lid in rep.per_lemma
        if lid in ("L5", "L6"):
            # these two judge only points outside the membership band, so
            # the reported count is the post-exclusion one
            assert 0.9 * count <= rep.per_lemma[lid].samples <= count
        else:
            assert rep.per_lemma[lid].samples == count
        assert rep.per_lemma[lid].passed
    assert "pointedness" in rep.per_lemma
    assert "overall: pass" in rep.table()
    d = rep.to_json_dict()
    assert d["per_lemma"]["L1"]["pass"] is True


def test_refuses_build_seed(halfspace_cert, cfg42):
    entry, cert = halfspace_cert
    with pytest.raises(SeedReuseError):
        run_suite(entry.instance, cert, replace(cfg42, rng_seed=cert.seed))


def test_fresh_seed_passes_and_is_deterministic(halfspace_cert, cfg42):
    entry, cert = halfspace_cert
    cfg = replace(cfg42, rng_seed=777)
    r1 = run_suite(entry.instance, cert, cfg)
    r2 = run_suite(entry.instance, cert, cfg)
    assert r1.overall
    assert canonical_json(r1.to_json_dict()) == canonical_json(r2.to_json_dict())


def test_tampered_epsilon_fails_structurally(halfspace_cert, cfg42):
    entry, cert = halfspace_cert
    data = cert.to_json_dict()
    data["epsilon"] = data["epsilon"] * 2.0
    tampered = certificate_from_json(data)
    rep = run_suite(entry.instance, tampered, replace(cfg42, rng_seed=777))
    assert not rep.overall
    l1 = rep.per_lemma["L1"]
    assert not l1.passed
    assert l1.note.startswith("structural")
    assert "epsilon" in l1.note


def test_tampered_measured_lipschitz_fails(halfspace_cert, cfg42):
    entry, cert = halfspace_cert
    data = cert.to_json_dict()
    data["measured_lipschitz"] = data["lipschitz_bound"] * 1.5
    tampered = certificate_from_json(data)
    rep = run_suite(entry.instance, tampered, replace(cfg42, rng_seed=778))
    assert not rep.overall
    assert "measured_lipschitz" in rep.per_lemma["L1"].note


def test_tampered_direction_fails(halfspace_cert, cfg42):
    entry, cert = halfspace_cert
    data = cert.to_json_dict()
    data["v"] = [-2.0, 0.0]
    tampered = certificate_from_json(data)
    rep = run_suite(entry.instance, tampered, replace(cfg42, rng_seed=779))
    assert not rep.overall


def test_monotonicity_under_tighter_tolerances(halfspace_cert, cfg42):
    # checks passing with margin > 10x tolerance must survive a 10x
    # tolerance tightening on a fresh seed
    entry, cert = halfspace_cert
    base = cert.report
    tight = replace(
        cfg42,
        rng_seed=911,
        tol_bisect=cfg42.tol_bisect / 10.0,
        tol_value=cfg42.tol_value / 10.0,
    )
    rep = run_suite(entry.instance, cert, tight)
    for lid in ("L1", "L2", "L3", "L4", "L5", "L6"):
        c = base.per_lemma[lid]
        if c.passed and c.margin > 10.0 * c.tolerance:
            assert rep.per_lemma[lid].passed, lid


def test_margins_are_comfortable_on_halfspace(halfspace_cert):
    # the reference instance should pass every gate with room to spare, so
    # the monotonicity test above is not vacuous
    entry, cert = halfspace_cert
    # L2's margin is bound minus observed error, so it cannot exceed its own
    # tolerance; every other gate should clear 10x
    for lid in ("L1", "L4", "L5", "L6"):
        c = cert.report.per_lemma[lid]
        assert c.margin > 10.0 * c.tolerance, (lid, c.margin, c.tolerance)


def test_all_catalog_reports_green(catalog_certs):
    for (cid, i), (entry, cert) in catalog_certs.items():
        assert cert.report.overall, (cid, i)
        for lid in ("L1", "L2", "L3", "L4", "L5", "L6"):
            assert cert.report.per_lemma[lid].passed, (cid, i, lid)
