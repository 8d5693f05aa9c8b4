"""Verification suite behaviour: gating, tampering, seeds."""

from dataclasses import replace

import numpy as np
import pytest

from epicert import epirep, verify
from epicert.core import canonical_json, membership_codes, sample_ball
from epicert.epirep import (
    BracketViolation,
    CylinderError,
    certificate_from_json,
    lambda_values,
    sample_cylinder,
)
from epicert.verify import (
    CHECK_SAMPLE_COUNTS,
    SeedReuseError,
    run_suite,
)


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
    assert set(rep.per_lemma) == set(CHECK_SAMPLE_COUNTS)
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


def test_suite_asks_the_root_finder_three_times(halfspace_cert, cfg42, monkeypatch):
    # one joined call for L1, L2, L3, L5 and L6, and one per side of L4's pairs
    entry, cert = halfspace_cert
    calls = []
    real = epirep.itp_crossings

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(epirep, "itp_crossings", counted)
    rep = run_suite(entry.instance, cert, replace(cfg42, rng_seed=7))
    assert rep.overall
    assert len(calls) == 3


def _flipped(cert):
    """The certificate with v and phi both negated: phi(v) = 1 still holds,
    but every ray now runs the wrong way through the boundary."""
    data = cert.to_json_dict()
    data["v"] = [-a for a in data["v"]]
    data["phi_weights"] = [-a for a in data["phi_weights"]]
    return certificate_from_json(data)


def test_flipped_witness_fails_each_lemma_at_its_own_base(halfspace_cert, cfg42):
    entry, cert = halfspace_cert
    flipped = _flipped(cert)
    cfg = replace(cfg42, rng_seed=7)
    rep = run_suite(entry.instance, flipped, cfg)
    for lid, count in CHECK_SAMPLE_COUNTS.items():
        check = rep.per_lemma[lid]
        assert (check.passed, check.margin, check.samples) == (False, -1.0, count), lid
        assert check.note.startswith("sign bracket failed at base "), lid
    # L5's note is what lambda_values says on L5's own kept draw
    space, f, w = flipped.space, entry.instance.f, flipped.witness
    Y = sample_ball(space, w.x, w.epsilon, CHECK_SAMPLE_COUNTS["L5"], cfg.rng("verify", "L5"))
    keep = membership_codes(f, Y, cfg) != 0
    with pytest.raises(BracketViolation) as exc:
        lambda_values(space, f, w, flipped.phi, Y[keep], cfg)
    assert rep.per_lemma["L5"].note == str(exc.value)
    assert str(exc.value).startswith("sign bracket failed at base [0.0, 0.0642")


@pytest.mark.parametrize("broken", ["L1", "L2", "L3", "L5", "L6"])
def test_one_broken_bracket_leaves_the_other_lemmas_alone(halfspace_cert, cfg42,
                                                          monkeypatch, broken):
    entry, cert = halfspace_cert
    cfg = replace(cfg42, rng_seed=7)
    sizes, solved = [], []
    real_batches, real_itp = verify.lambda_batches, epirep.itp_crossings

    def spy(space, f, witness, phi, batches, cfg):
        sizes.append([len(b) for b in batches])
        return real_batches(space, f, witness, phi, batches, cfg)

    def itp(values, origins, *args):
        solved.append(origins.copy())
        return real_itp(values, origins, *args)

    monkeypatch.setattr(verify, "lambda_batches", spy)
    monkeypatch.setattr(epirep, "itp_crossings", itp)
    clean = run_suite(entry.instance, cert, cfg)
    # every batch solves in the clean run, so the first root-finder call
    # holds all the bases, batch after batch (L4's calls come after)
    [sizes], bases = sizes, solved[0]
    # the broken lemma's last base (its first is x itself, shared by all
    # cylinder draws), found in no other lemma's rows, and the low end of
    # that base's sign bracket
    n_batches = {"L1": 2, "L2": 2, "L3": 1, "L4": 0, "L5": 1, "L6": 1}   # in suite order
    ids = list(n_batches)
    first = sum(n_batches[lid] for lid in ids[: ids.index(broken)])
    start, end = sum(sizes[:first]), sum(sizes[: first + n_batches[broken]])
    base = bases[end - 1]
    [hits] = np.nonzero(np.all(bases == base, axis=1))
    assert start <= hits.min() and hits.max() < end
    low = base - cert.witness.r / 4.0 * cert.witness.v
    f = entry.instance.f

    def eval_(P):
        out = np.array(f.eval(P), dtype=float)
        out[np.all(P == low, axis=1)] = -1.0
        return out

    rep = run_suite(replace(entry.instance, f=replace(f, eval=eval_)), cert, cfg)
    check = rep.per_lemma[broken]
    assert not check.passed and check.margin == -1.0
    assert check.note.startswith(f"sign bracket failed at base {base.tolist()}: f(-r/4)=-1,")
    for lid in rep.per_lemma:
        if lid != broken:
            assert clean.per_lemma[lid].passed, lid
            assert rep.per_lemma[lid] == clean.per_lemma[lid], lid


@pytest.mark.parametrize("first_side_fails", [False, True])
def test_l2_fails_with_its_first_failing_side(halfspace_cert, cfg42, first_side_fails):
    # phi = c v makes phi(v) = c != 1.  A first-side point y = x + xi + tau v
    # (xi in ker phi = v^perp, |xi| < 0.98 eps, |tau| <= r/8) then sits at
    # ker-phi distance sqrt(|xi|^2 + ((c - 1) tau)^2) from x's, under eps for
    # every draw since 0.98^2 + 0.19^2 < 1; the shift s v (|s| <= r/4) moves
    # that to sqrt(|xi|^2 + ((c - 1) (tau + s))^2), off the cylinder for some
    c = 1.15
    entry, cert = halfspace_cert
    data = cert.to_json_dict()
    data["phi_weights"] = [c * a for a in data["phi_weights"]]
    tampered = certificate_from_json(data)
    space, w, phi = tampered.space, tampered.witness, tampered.phi
    assert (c - 1.0) * w.r / 8.0 <= 0.19 * w.epsilon
    cfg = replace(cfg42, rng_seed=7)
    f = entry.instance.f
    if first_side_fails:   # a negated oracle breaks every sign bracket
        f = replace(f, eval=lambda P: -np.asarray(entry.instance.f.eval(P), dtype=float))
    # L2's two sides, drawn as the suite draws them
    rng = cfg.rng("verify", "L2")
    pts = sample_cylinder(space, w, phi, CHECK_SAMPLE_COUNTS["L2"], rng, tau_halfwidth=w.r / 8.0)
    s = rng.uniform(-w.r / 4.0, w.r / 4.0, len(pts))
    with pytest.raises(CylinderError) as second:
        lambda_values(space, f, w, phi, pts + s[:, None] * w.v[None, :], cfg)
    check = run_suite(replace(entry.instance, f=f), tampered, cfg).per_lemma["L2"]
    assert (check.passed, check.margin) == (False, -1.0)
    if first_side_fails:
        with pytest.raises(BracketViolation) as first:
            lambda_values(space, f, w, phi, pts, cfg)
        assert check.note == str(first.value)
    else:
        lambda_values(space, f, w, phi, pts, cfg)   # the first side solves
        assert check.note == str(second.value)
