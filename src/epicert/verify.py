"""Property-test suite for epigraph certificates.

Re-derives every certified claim on fresh samples: the ray-value bound (L1),
the translation identity (L2), boundary containment of ray crossings (L3),
the cylinder Lipschitz bound (L4), the sublevel characterisation on the
epsilon-ball (L5), and the graph/membership equivalence on the half-size
ball plus split-map invertibility (L6).  L1 also recomputes the stored
lambda samples.  Every check gates.

The suite refuses to run on the seed the certificate was built with; reusing
build samples would let an overfitted certificate check itself.

On cylinder draws both sides of L2, y and y + s v, land on the same ray base
up to one ulp, since lambda moves each cylinder point along v to x's
phi-level.  So L2 checks only the shift arithmetic, which leans on
phi(v) = 1, and that one base gives one root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clarke import estimate_gradient_hull  # not called here; bench/tracer.py patches this binding
from .core import (
    NumericConfig,
    ProblemInstance,
    membership_codes,
    sample_ball,
)
from .epirep import (
    CHECK_SAMPLE_COUNTS,
    N_LAMBDA_SAMPLES,
    BracketViolation,
    CylinderError,
    EpigraphCertificate,
    epsilon_formula,
    from_graph_coordinates,
    lambda_batches,
    lambda_values,  # not called here; bench/tracer.py patches this binding
    measured_cylinder_lipschitz,
    sample_cylinder,
    to_graph_coordinates,
)

__all__ = [
    "SeedReuseError",
    "LemmaCheck",
    "VerificationReport",
    "run_suite",
]


class SeedReuseError(ValueError):
    """Verification seed equals the certificate's build seed."""


@dataclass(frozen=True)
class LemmaCheck:
    passed: bool
    margin: float        # signed slack against the asserted bound
    samples: int
    tolerance: float
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "margin": self.margin,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "note": self.note,
        }


@dataclass(frozen=True, eq=False)
class VerificationReport:
    per_lemma: dict[str, LemmaCheck]
    seed: int
    measured_lipschitz: float | None     # L4's maximum quotient; None if L4 raised

    @property
    def overall(self) -> bool:
        """Every lemma check L1-L6 passed."""
        return all(c.passed for c in self.per_lemma.values())

    def to_json_dict(self) -> dict:
        return {
            "per_lemma": {k: c.to_json_dict() for k, c in sorted(self.per_lemma.items())},
            "overall": self.overall,
            "seed": self.seed,
        }

    def table(self) -> str:
        rows = ["id           pass  margin        samples  tolerance"]
        for key in sorted(self.per_lemma):
            c = self.per_lemma[key]
            rows.append(
                f"{key:<12} {'ok' if c.passed else 'FAIL':<5} "
                f"{c.margin:<13.4g} {c.samples:<8d} {c.tolerance:.3g}"
                + (f"  {c.note}" if c.note else "")
            )
        rows.append(f"overall: {'pass' if self.overall else 'FAIL'}")
        return "\n".join(rows)


def _agreement(agree: np.ndarray, gap: np.ndarray) -> tuple[bool, float, str]:
    """(passed, margin, note): the smallest |gap| when every sample agrees,
    else minus the largest |gap| among the disagreeing ones.  With no sample
    outside the membership band there is nothing to agree, and the lemma fails."""
    if not gap.size:
        return False, -1.0, "no sample outside the membership band"
    note = f"{int(np.sum(~agree))} disagreements"
    if bool(np.all(agree)):
        return True, float(np.min(np.abs(gap))), note
    return False, -float(np.max(np.abs(gap[~agree]))), note


def _structural_problems(inst: ProblemInstance, cert: EpigraphCertificate,
                         cfg: NumericConfig) -> list[str]:
    """Broken certificate invariants, one note each; empty when sound."""
    space, w = inst.space, cert.witness
    problems = []
    if not (w.alpha > 0 and w.r > 0 and w.k > 0):
        problems.append("nonpositive alpha/r/k")
    if abs(float(space.norm(w.v)) - 1.0) > 1e-12:
        problems.append("witness direction not unit")
    if w.k != 0:  # the formula divides by k
        expected = epsilon_formula(w.alpha, w.r, w.k)
        if w.epsilon != expected:
            problems.append(f"epsilon {w.epsilon!r} != min(r/4, alpha*r/(4k)) = {expected!r}")
    if abs(float(cert.phi @ w.v) - 1.0) > 1e-12:
        problems.append("phi(v) != 1")
    if abs(float(space.dual_norm(cert.phi)) - 1.0) > 1e-10:
        problems.append("phi dual norm != 1")
    # the bound divides by alpha
    if w.alpha != 0 and not np.isclose(cert.lipschitz_bound, w.lipschitz_bound,
                                       rtol=1e-12, atol=0.0):
        problems.append("lipschitz_bound != 1 + 2k/alpha")
    # L1's recomputation slack trusts tol_bisect, so the certificate may not
    # claim a coarser root finder than the verifier's or certify's default
    cap = max(cfg.tol_bisect, NumericConfig.tol_bisect)
    if not cert.tol_bisect > 0:
        problems.append(f"tol_bisect {cert.tol_bisect!r} is not positive")
    elif cert.tol_bisect > cap:
        problems.append(f"tol_bisect {cert.tol_bisect!r} is coarser than the verifier's {cap!r}")
    if not 0.0 <= cert.measured_lipschitz <= cert.lipschitz_bound * 1.01:
        problems.append("measured_lipschitz outside [0, bound * 1.01]")
    if len(cert.lambda_samples) != N_LAMBDA_SAMPLES:
        problems.append(f"{len(cert.lambda_samples)} stored lambda samples, "
                        f"expected {N_LAMBDA_SAMPLES}")
    if cert.confidence != "sampling_probabilistic":
        problems.append(f"confidence {cert.confidence!r} is not sampling_probabilistic")
    lam_cap = w.r / 4.0 + cfg.tol_bisect
    for _, val in cert.lambda_samples:
        if abs(val) > lam_cap:
            problems.append(f"stored lambda sample {val:.6g} exceeds r/4 bound")
            break
    return problems


def run_suite(
    inst: ProblemInstance,
    cert: EpigraphCertificate,
    cfg: NumericConfig,
) -> VerificationReport:
    """Evaluate all lemma checks against fresh samples drawn from cfg's seed.

    The suite draws first and then solves once.  Each lemma draws its point
    batches from its own rng stream, and one lambda_batches call gives the
    lambda values of every batch of L1 (a fresh draw and the stored sample
    points), L2 (both sides), L3, L5 and L6.  A lemma fails with the first
    error among its own batches, in order (the CylinderError or
    BracketViolation that lambda_values would raise on that batch), so L2's
    first side wins over its second; else its judge decides from the values.
    L4 measures through measured_cylinder_lipschitz.
    """
    if cfg.rng_seed == cert.seed:
        raise SeedReuseError(
            f"verification seed {cfg.rng_seed} equals the certificate build seed; "
            "re-verify with an independent seed"
        )
    space = inst.space
    f = inst.f
    w = cert.witness
    phi = cert.phi
    x, v, r, eps, k = w.x, w.v, w.r, w.epsilon, w.k
    counts = CHECK_SAMPLE_COUNTS
    measured = None  # set by l4, handed back on the report

    # each draw returns (point batches, judge); judge takes one lambda array
    # per batch and returns (passed, margin, samples, note).  A judge keeps
    # only what it needs of the draw, so lambda_batches frees the points
    # once it has copied them.
    def l1():
        problems = _structural_problems(inst, cert, cfg)
        if problems:
            return [], lambda: (False, -1.0, 0, "structural: " + "; ".join(problems))
        stored = np.array([val for _, val in cert.lambda_samples])

        def judge(lam, recomputed):
            off = float(np.max(np.abs(recomputed - stored)))
            slack = cert.tol_bisect + cfg.tol_bisect   # each side's root-finder error
            if not off <= slack:
                return False, slack - off, counts["L1"], f"stored lambda samples off by {off:.3g}"
            bound = r / 4.0 + cfg.tol_bisect
            worst = float(np.max(np.abs(lam)))
            return worst <= bound, bound - worst, counts["L1"], ""
        return [sample_ball(space, x, eps, counts["L1"], cfg.rng("verify", "L1")),
                np.stack([p for p, _ in cert.lambda_samples])], judge

    def l2():
        n = counts["L2"]
        rng = cfg.rng("verify", "L2")
        pts = sample_cylinder(space, w, phi, n, rng, tau_halfwidth=r / 8.0)
        s = rng.uniform(-r / 4.0, r / 4.0, n)

        def judge(lamA, lamB):
            err = float(np.max(np.abs(lamB - (lamA - s))))
            bound = 2.0 * cfg.tol_bisect
            return err <= bound, bound - err, n, ""
        return [pts, pts + s[:, None] * v[None, :]], judge

    def l3():
        pts = sample_cylinder(space, w, phi, counts["L3"], cfg.rng("verify", "L3"),
                              tau_halfwidth=r / 8.0)

        def judge(lam):
            crossings = pts + lam[:, None] * v[None, :]
            dist_slack = (r / 2.0 + cfg.tol_bisect) - float(np.max(space.norm(crossings - x)))
            value_cap = k * cfg.tol_bisect + 2.0 * f.value_noise
            value_slack = value_cap - float(np.max(np.abs(f.values(crossings))))
            margin = min(dist_slack, value_slack)
            return (margin >= 0.0, margin, counts["L3"],
                    f"distance slack {dist_slack:.3g}, residual slack {value_slack:.3g}")
        return [pts], judge

    def l4():
        def judge():
            nonlocal measured
            measured = measured_cylinder_lipschitz(space, f, w, phi, cfg)
            bound = 1.01 * cert.lipschitz_bound
            return measured <= bound, bound - measured, counts["L4"], ""
        return [], judge

    def l5():
        Y = sample_ball(space, x, eps, counts["L5"], cfg.rng("verify", "L5"))
        codes = membership_codes(f, Y, cfg)
        keep = codes != 0
        inside = codes[keep] < 0

        def judge(lam):
            passed, margin, note = _agreement(inside == (lam <= 0.0), lam)
            return passed, margin, len(inside), note
        return [Y[keep]], judge

    def l6():
        Y = sample_ball(space, x, eps / 2.0, counts["L6"], cfg.rng("verify", "L6"))
        codes = membership_codes(f, Y, cfg)
        keep = codes != 0
        xiY, phiY = to_graph_coordinates(phi, v, Y)
        heights, inside = phiY[keep], codes[keep] < 0

        def judge(lam):
            gap = heights - lam   # >= 0 iff the split puts y above the graph
            passed, margin, note = _agreement(inside == (gap >= 0.0), gap)
            Z = sample_ball(space, x, r / 2.0, 100, cfg.rng("verify", "L6-invert"))
            xiZ, tZ = to_graph_coordinates(phi, v, Z)
            inv_err = float(np.max(space.norm(from_graph_coordinates(v, xiZ, tZ) - Z)))
            if passed and not (inv_err <= 1e-12):
                passed, margin = False, -inv_err
            return (passed, margin, len(inside),
                    f"{note}; split-map round trip max error {inv_err:.2e}")
        return [xiY[keep]], judge

    lemmas = (
        ("L1", l1, cfg.tol_bisect),
        ("L2", l2, 2.0 * cfg.tol_bisect),
        ("L3", l3, cfg.tol_bisect),
        ("L4", l4, 0.01),
        ("L5", l5, cfg.tol_value),
        ("L6", l6, cfg.tol_value),
    )
    # draw: a lemma whose draw raises CylinderError keeps that error as its
    # one result and adds no batch
    judges, results, owners, batches = {}, {}, [], []
    for lemma_id, draw, _ in lemmas:
        results[lemma_id] = []
        try:
            points, judges[lemma_id] = draw()
        except CylinderError as exc:
            points, results[lemma_id] = [], [exc]
        owners += [lemma_id] * len(points)
        batches += points
    del points   # the last draw's list would keep its points alive
    # solve once
    for lemma_id, lam in zip(owners, lambda_batches(space, f, w, phi, batches, cfg)):
        results[lemma_id].append(lam)
    # judge: a lemma fails with the first error among its batches
    checks: dict[str, LemmaCheck] = {}
    for lemma_id, _, tolerance in lemmas:
        try:
            for lam in results[lemma_id]:
                if isinstance(lam, Exception):
                    raise lam
            passed, margin, samples, note = judges[lemma_id](*results[lemma_id])
        except (BracketViolation, CylinderError) as exc:
            passed, margin, samples, note = False, -1.0, counts[lemma_id], str(exc)
        checks[lemma_id] = LemmaCheck(passed, margin, samples, tolerance, note)
    return VerificationReport(per_lemma=checks, seed=cfg.rng_seed, measured_lipschitz=measured)
