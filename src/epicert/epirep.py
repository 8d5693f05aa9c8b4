"""Local epigraph representation of a level set at a nondegenerate boundary point.

Given a boundary point x of M = {f <= 0} and a descent witness (v, alpha),
this module extracts the remaining data: a radius r on which the descent
inequality survives sampling, a Lipschitz constant k for f near x, the
neighbourhood size epsilon, a norming functional phi (phi(v)=1, dual norm 1:
the dual space's norming direction of v, from ``NormedSpace``, which owns
every per-norm rule), the split y = pi(y) + phi(y) v, and the ray-crossing
function lambda.  The
product is a certificate stating that near x, membership in M is equivalent
to lying on one side of the graph of a Lipschitz function over ker phi.

lambda(y) is the infimum of {t : y + t v in M}; it satisfies
lambda(y + s v) = lambda(y) - s, vanishes on the boundary, and M coincides
locally with {lambda <= 0}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .clarke import GradientHull, is_nondegenerate, local_lipschitz_constant
from .core import (
    FunctionOracle,
    NormedSpace,
    NumericConfig,
    ProblemInstance,
    internal_verify_seed,
    itp_crossings,
    membership_codes,
    pair_quotients,
    require_integer,
    require_number,
    require_vector,
    sample_ball,
)

if TYPE_CHECKING:
    from .verify import VerificationReport

__all__ = [
    "N_LAMBDA_SAMPLES",
    "CHECK_SAMPLE_COUNTS",
    "RadiusUnderflow",
    "BracketViolation",
    "CylinderError",
    "epsilon_formula",
    "DescentWitness",
    "find_descent_radius",
    "to_graph_coordinates",
    "from_graph_coordinates",
    "lambda_batches",
    "lambda_values",
    "sample_cylinder",
    "measured_cylinder_lipschitz",
    "EpigraphCertificate",
    "CertificationFailure",
    "boundary_band_failure",
    "bisection_tolerance_failure",
    "certificate_from_json",
    "certify",
]


N_LAMBDA_SAMPLES = 256  # stored (point, lambda) pairs per certificate
# samples per lemma check (L4: cylinder pairs), a reporting contract
CHECK_SAMPLE_COUNTS = {"L1": 200, "L2": 200, "L3": 200, "L4": 500, "L5": 500, "L6": 1000}


class RadiusUnderflow(RuntimeError):
    """Descent radius search shrank past its floor; witness unusable."""


class BracketViolation(RuntimeError):
    """A guaranteed sign bracket for the lambda root finder failed.

    The construction proves f > 0 at distance r/4 against the descent
    direction and f < 0 at r/4 along it, for any base point within epsilon
    of x.  Observing otherwise means (r, k, epsilon) were mis-certified and
    the certificate must be revoked.
    """


class CylinderError(ValueError):
    """Query point outside both the lambda cylinder and B(x, epsilon), or a
    cylinder that cannot be sampled."""


def epsilon_formula(alpha: float, r: float, k: float) -> float:
    """Neighbourhood size for the representation.  Single source of truth:

    certify computes epsilon with it and verification (L1) checks the stored
    value against it, so the stored value is reproducible bit for bit.
    """
    return min(r / 4.0, (alpha * r) / (4.0 * k))


@dataclass(frozen=True, eq=False)
class DescentWitness:
    """Everything extracted at x before the lemma-level checks."""

    x: np.ndarray
    v: np.ndarray          # unit descent direction
    alpha: float
    r: float
    k: float
    epsilon: float

    @property
    def lipschitz_bound(self) -> float:
        """Modulus 1 + 2k/alpha of the graph function."""
        return 1.0 + 2.0 * self.k / self.alpha


def find_descent_radius(
    space: NormedSpace,
    f: FunctionOracle,
    x: np.ndarray,
    v: np.ndarray,
    alpha: float,
    cfg: NumericConfig,
) -> float:
    """Largest grid radius on which the sampled descent inequality holds.

    Tests (f(y + t v) - f(y))/t < -alpha for y in B(x, 2r) and signed steps
    |t| up to 2r; negative t is probed directly rather than by the formal
    reduction to positive t.  Any observed violation shrinks r.  A quarter
    of the step sizes is drawn log-uniformly so small-|t| behaviour near the
    kink set is covered as well as full-length chords.

    Each round draws all n rows first, then evaluates them in two pieces:
    rows [0, n // 32), and the rest only if every one of those descends.
    One violation rejects r and f is row-wise, so r is the one the whole
    batch gives, while a round rejected in its first piece costs n/16
    oracle rows instead of 2n.  A non-finite value that lies only in the
    rows a rejected round skips is never seen.
    """
    x = np.asarray(x, dtype=float)
    u = space.unit(v)
    rng = cfg.rng("radius", f.descriptor, *np.round(x, 12).tolist())
    n = max(256, cfg.sample_budget // 2)
    t_min_fraction = f.scales.t_min_fraction
    r = 1.0
    floor = 1e-8
    while True:
        ys = sample_ball(space, x, 2.0 * r, n, rng)
        n_log = n // 4
        mag = np.empty(n)
        mag[: n - n_log] = rng.uniform(t_min_fraction, 1.0, n - n_log)
        mag[n - n_log :] = np.exp(rng.uniform(math.log(t_min_fraction), 0.0, n_log))
        ts = 2.0 * r * mag * rng.choice([-1.0, 1.0], n)
        if all(
            np.all((f.values(ys[rows] + ts[rows, None] * u[None, :]) - f.values(ys[rows]))
                   / ts[rows] < -alpha)
            for rows in (slice(0, n // 32), slice(n // 32, n))
        ):
            return r
        r *= cfg.shrink_factor
        if r < floor:
            raise RadiusUnderflow(
                f"descent radius fell below {floor:g}; witness numerically unusable"
            )


def to_graph_coordinates(
    phi: np.ndarray, v: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split y into (component in ker phi, height along v)."""
    y = np.asarray(y, dtype=float)
    t = y @ phi
    xi = y - np.multiply.outer(t, v)
    return xi, t


def from_graph_coordinates(v: np.ndarray, xi: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Inverse of the split: xi + t v."""
    return np.asarray(xi, dtype=float) + np.multiply.outer(np.asarray(t, dtype=float), v)


def _base_shift(
    space: NormedSpace,
    witness: DescentWitness,
    phi: np.ndarray,
    Y: np.ndarray,
) -> np.ndarray:
    """The shift along v that carries each point of Y to its ray base, or
    CylinderError naming the first point that has none."""
    x, v, eps = witness.x, witness.v, witness.epsilon
    piY, phiY = to_graph_coordinates(phi, v, Y)
    pix, phix = to_graph_coordinates(phi, v, x)
    dF = np.asarray(space.norm(piY - pix[None, :]), dtype=float)
    direct_dist = np.asarray(space.norm(Y - x[None, :]), dtype=float)

    in_cyl = dF < eps
    in_ball = direct_dist < eps
    bad = ~(in_cyl | in_ball)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CylinderError(
            f"point {Y[i].tolist()} outside cylinder (dF={dF[i]:.3g}) "
            f"and outside B(x, {eps:.3g})"
        )
    return np.where(in_cyl, float(phix) - phiY, 0.0)


def lambda_batches(
    space: NormedSpace,
    f: FunctionOracle,
    witness: DescentWitness,
    phi: np.ndarray,
    batches: list[np.ndarray],
    cfg: NumericConfig,
) -> list[np.ndarray | BracketViolation | CylinderError]:
    """Ray infimum lambda(y) = inf{t : y + t v in M} for each of a list of
    (n, dim) point batches: per batch, its values or the error that stops it.

    A point qualifies either through the cylinder (its ker-phi part within
    epsilon of x's) or by lying in B(x, epsilon) outright; the second case
    matters for sup/one norms, where the projection can expand.  Cylinder
    points are translated along v to x's phi-level, which keeps the ray's
    base inside B(x, epsilon) no matter how far along v the query sits;
    direct-path points stay put.  A batch with a point that qualifies
    neither way gets the CylinderError naming its first such point.

    The proof-level sign bracket (f > 0 at -r/4, f < 0 at +r/4) is checked
    on every base, and a batch where it fails gets the BracketViolation at
    its first bad base rather than degrade.  One core.itp_crossings call
    then solves the rays of every other batch.  Both steps ask only
    f.signs, and the root finder starts from the bracket check's values.
    Rows never mix, so a batch's values do not depend on the batches solved
    with it.  Each entry of batches is set to None once its points are
    copied, so points the caller keeps nowhere else are freed before the solve.
    """
    v, w = witness.v, witness.r / 4.0
    bases = np.empty((sum(len(Y) for Y in batches), space.dim))
    shift = np.empty(len(bases))
    spans: list[slice | CylinderError] = []
    m = 0
    for i in range(len(batches)):
        try:
            rows = slice(m, m + len(batches[i]))
            shift[rows] = _base_shift(space, witness, phi, batches[i])
            np.add(batches[i], shift[rows, None] * v[None, :], out=bases[rows])
            spans.append(rows)
            m = rows.stop
        except CylinderError as exc:
            spans.append(exc)
        batches[i] = None
    bases, shift = bases[:m], shift[:m]

    s_lo = f.signs(bases - w * v[None, :])
    s_hi = f.signs(bases + w * v[None, :])
    ok = (s_lo > 0.0) & (s_hi < 0.0)
    solve = np.zeros(m, dtype=bool)
    for rows in spans:
        if isinstance(rows, slice):
            solve[rows] = ok[rows].all()
    roots = np.full(m, np.nan)
    n = int(np.count_nonzero(solve))
    if n:
        solved = slice(None) if n == m else solve   # copy only on a failure
        roots[solved] = itp_crossings(f.signs, bases[solved], v[None, :], np.full(n, -w),
                                      np.full(n, w), s_lo[solved], s_hi[solved], cfg.tol_bisect)
    roots += shift

    out: list[np.ndarray | BracketViolation | CylinderError] = []
    for rows in spans:
        if not isinstance(rows, slice):
            out.append(rows)
        elif ok[rows].all():
            out.append(roots[rows])
        else:
            base = bases[rows][int(np.argmin(ok[rows]))]
            out.append(BracketViolation(
                f"sign bracket failed at base {base.tolist()}: "
                f"f(-r/4)={f.value(base - w * v):.6g}, f(+r/4)={f.value(base + w * v):.6g}"))
    return out


def lambda_values(
    space: NormedSpace,
    f: FunctionOracle,
    witness: DescentWitness,
    phi: np.ndarray,
    Y: np.ndarray,
    cfg: NumericConfig,
) -> np.ndarray:
    """lambda_batches on the one batch Y, raising its CylinderError or
    BracketViolation.  core.itp_crossings takes 5-7 passes per call on the
    2-D catalog, never more than bisection's 33.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    [lam] = lambda_batches(space, f, witness, phi, [Y], cfg)
    if isinstance(lam, Exception):
        raise lam
    return lam


def sample_cylinder(
    space: NormedSpace,
    witness: DescentWitness,
    phi: np.ndarray,
    n: int,
    rng: np.random.Generator,
    *,
    tau_halfwidth: float,
) -> np.ndarray:
    """n points with ker-phi part within 0.98*epsilon of x and height
    within tau_halfwidth of x's level, so the cylinder precondition of
    lambda_values holds with slack.  Row 0 is on x's axis.  The ker-phi part
    is ``NormedSpace.kernel_ball``'s direct draw where the space has one (the
    euclidean norm), else the ker-phi projections of ``sample_ball`` draws
    from B(0, epsilon), rejection-sampled in batches of max(2n, 64).
    """
    x, v, eps = witness.x, witness.v, witness.epsilon
    pix, phix = to_graph_coordinates(phi, v, x)
    failure = CylinderError(
        f"cannot sample cylinder: epsilon {eps:.3g}, half-height {tau_halfwidth:.3g}")
    if not (eps > 0.0 and tau_halfwidth >= 0.0):
        raise failure
    xis = space.kernel_ball(phi, 0.98 * eps, n, rng)
    if xis is None:
        zero = np.zeros(space.dim)
        collected: list[np.ndarray] = []
        got = 0
        for _ in range(200):
            xi, _ = to_graph_coordinates(phi, v, sample_ball(space, zero, eps, max(2 * n, 64), rng))
            keep = np.asarray(space.norm(xi), dtype=float) < 0.98 * eps
            xi = xi[keep]
            if xi.shape[0]:
                collected.append(xi)
                got += xi.shape[0]
            if got >= n:
                break
        if got < n:
            raise failure
        xis = np.concatenate(collected)[:n]
    taus = rng.uniform(-tau_halfwidth, tau_halfwidth, n)
    return pix[None, :] + xis + (float(phix) + taus)[:, None] * v[None, :]


def measured_cylinder_lipschitz(
    space: NormedSpace,
    f: FunctionOracle,
    witness: DescentWitness,
    phi: np.ndarray,
    cfg: NumericConfig,
) -> float:
    """Max sampled quotient |lambda(z)-lambda(y)|/|z-y| over L4's count of cylinder pairs.

    Mix of pair types: unconstrained, along v (where the quotient is exactly
    1 by the translation identity), and pure ker-phi displacements (where
    the graph function's own modulus shows).  Lemma check L4; a certificate's
    ``measured_lipschitz`` is its value in certify's suite, at the derived seed.
    """
    r, eps, v = witness.r, witness.epsilon, witness.v
    rng = cfg.rng("verify-L4", f.descriptor)
    n_pairs = CHECK_SAMPLE_COUNTS["L4"]
    n_free = n_pairs // 2
    n_v = n_pairs // 4
    n_flat = n_pairs - n_free - n_v

    A = sample_cylinder(space, witness, phi, n_free + n_v + n_flat, rng,
                        tau_halfwidth=r / 8.0)
    B = np.empty_like(A)
    B[:n_free] = sample_cylinder(space, witness, phi, n_free, rng,
                                 tau_halfwidth=r / 8.0)
    s = rng.uniform(1e-3 * r, r / 8.0, n_v) * rng.choice([-1.0, 1.0], n_v)
    B[n_free : n_free + n_v] = A[n_free : n_free + n_v] + s[:, None] * v[None, :]
    flat = sample_cylinder(space, witness, phi, n_flat, rng, tau_halfwidth=r / 8.0)
    # keep the height of A, take the ker-phi part of a fresh draw
    xiF, _ = to_graph_coordinates(phi, v, flat)
    xiA, tA = to_graph_coordinates(phi, v, A[n_free + n_v :])
    B[n_free + n_v :] = from_graph_coordinates(v, xiF, tA)

    q = pair_quotients(space, lambda P: lambda_values(space, f, witness, phi, P, cfg),
                       A, B, 1e-6 * eps)
    return float(np.max(q, initial=0.0))


@dataclass(frozen=True, eq=False)
class EpigraphCertificate:
    """The artifact's statement that M is locally an epigraph at witness.x."""

    witness: DescentWitness
    phi: np.ndarray                        # norming weights, phi(y) = y @ phi
    lambda_samples: tuple[tuple[np.ndarray, float], ...]
    lipschitz_bound: float                 # 1 + 2k/alpha
    measured_lipschitz: float
    tol_bisect: float                      # root-finder tolerance of lambda_samples
    report: "VerificationReport | None"
    confidence: str
    seed: int
    instance_label: str
    instance_descriptor: str
    space: NormedSpace

    def to_json_dict(self) -> dict:
        w = self.witness
        return {
            "instance": {
                "label": self.instance_label,
                "descriptor": self.instance_descriptor,
                "dim": self.space.dim,
                "norm": self.space.norm_kind,
            },
            "x": w.x.tolist(),
            "v": w.v.tolist(),
            "alpha": w.alpha,
            "r": w.r,
            "k": w.k,
            "epsilon": w.epsilon,
            "phi_weights": self.phi.tolist(),
            "lipschitz_bound": self.lipschitz_bound,
            "measured_lipschitz": self.measured_lipschitz,
            "tol_bisect": self.tol_bisect,
            "lambda_samples": [
                {"point": p.tolist(), "value": val} for p, val in self.lambda_samples
            ],
            "lemma_report": (
                None if self.report is None else self.report.to_json_dict()["per_lemma"]
            ),
            "overall": None if self.report is None else self.report.overall,
            "confidence": self.confidence,
            "seed": self.seed,
        }


def certificate_from_json(data: dict) -> EpigraphCertificate:
    """Rebuild a certificate from its JSON form.

    Values are taken as stored, without revalidation; the verification suite
    is the place where a tampered field turns into a reported failure rather
    than a parse error.  Only the types and shapes are checked: ``dim`` and
    ``seed`` must be integers, every other scalar a finite number and every
    vector a list of ``dim`` finite numbers, else ValueError.  A certificate
    written before ``tol_bisect`` was stored reads as the then-default 1e-10.
    """
    info = data["instance"]
    space = NormedSpace(require_integer(info["dim"], "dim"), str(info["norm"]))
    dim = space.dim

    w = DescentWitness(
        x=require_vector(data["x"], dim, "x"),
        v=require_vector(data["v"], dim, "v"),
        alpha=require_number(data["alpha"], "alpha"),
        r=require_number(data["r"], "r"),
        k=require_number(data["k"], "k"),
        epsilon=require_number(data["epsilon"], "epsilon"),
    )
    samples = tuple(
        (require_vector(s["point"], dim, f"lambda sample {i} point"),
         require_number(s["value"], f"lambda sample {i} value"))
        for i, s in enumerate(data["lambda_samples"])
    )
    return EpigraphCertificate(
        witness=w,
        phi=require_vector(data["phi_weights"], dim, "phi_weights"),
        lambda_samples=samples,
        lipschitz_bound=require_number(data["lipschitz_bound"], "lipschitz_bound"),
        measured_lipschitz=require_number(data["measured_lipschitz"], "measured_lipschitz"),
        tol_bisect=require_number(data.get("tol_bisect", 1e-10), "tol_bisect"),
        report=None,
        confidence=str(data["confidence"]),
        seed=require_integer(data["seed"], "seed"),
        instance_label=str(info.get("label", "")),
        instance_descriptor=str(info.get("descriptor", "")),
        space=space,
    )


@dataclass(frozen=True, eq=False)
class CertificationFailure:
    stage: str          # precondition | degenerate-point | radius-underflow | lemma-check-failure
    message: str
    hull: GradientHull | None = None
    report: "VerificationReport | None" = None

    def to_json_dict(self) -> dict:
        out = {"failure": self.stage}
        if self.hull is not None:
            out["hull_min_norm_value"] = self.hull.min_norm_value
        if self.report is not None:
            out["lemma_report"] = self.report.to_json_dict()["per_lemma"]
        return out


def boundary_band_failure(inst: ProblemInstance, x: np.ndarray,
                          cfg: NumericConfig) -> CertificationFailure | None:
    """The precondition failure if x is off the band |f(x)| < tol_value, else None."""
    code = int(membership_codes(inst.f, x[None, :], cfg)[0])
    if code == 0:
        return None
    side = "inside" if code < 0 else "outside"
    return CertificationFailure(
        stage="precondition",
        message=f"x is {side}, not in the boundary band (f(x) = {inst.f.value(x):.6g})",
    )


def bisection_tolerance_failure(x: np.ndarray, cfg: NumericConfig) -> CertificationFailure | None:
    """The precondition failure if tol_bisect is finer than the float grid
    can resolve near x, else None.  Every root-finder point lies within r <= 1
    of x, so the spacing at max|x_i| + 1 is the smallest usable tolerance."""
    least = float(np.spacing(np.max(np.abs(x)) + 1.0))
    if cfg.tol_bisect >= least:
        return None
    return CertificationFailure(
        stage="precondition",
        message=f"tol_bisect {cfg.tol_bisect!r} is below the float spacing near x; "
                f"the smallest usable value is {least!r}",
    )


def certify(
    inst: ProblemInstance,
    x: np.ndarray,
    cfg: NumericConfig,
) -> EpigraphCertificate | CertificationFailure:
    """Full pipeline: witness -> radius -> Lipschitz -> epsilon -> phi ->
    lambda samples -> lemma suite.  Returns a certificate only when every
    lemma check passes on an independently derived verification seed.
    """
    from .verify import run_suite  # late import, verify depends on this module

    space = inst.space
    x = np.asarray(x, dtype=float)
    refused = boundary_band_failure(inst, x, cfg) or bisection_tolerance_failure(x, cfg)
    if refused is not None:
        return refused

    nd = is_nondegenerate(inst, x, cfg)
    if nd.witness is None:
        msg = "no descent direction found"
        if nd.degenerate:
            msg += f"; hull min-norm {nd.hull.min_norm_value:.3g} agrees (degenerate point)"
        elif nd.note:
            msg += f"; {nd.note}"
        return CertificationFailure(stage="degenerate-point", message=msg, hull=nd.hull)
    v = nd.witness
    alpha = float(nd.alpha)

    try:
        r = find_descent_radius(space, inst.f, x, v, alpha, cfg)
    except RadiusUnderflow as exc:
        return CertificationFailure(stage="radius-underflow", message=str(exc), hull=nd.hull)

    lip = local_lipschitz_constant(space, inst.f, x, r, cfg)
    witness = DescentWitness(x=x, v=v, alpha=alpha, r=r, k=lip.value,
                             epsilon=epsilon_formula(alpha, r, lip.value))
    phi = space.dual.dual_norming_direction(v)

    # stored graph samples: keep the height slab thin so every stored value
    # obeys the |lambda| <= r/4 certificate invariant with slack
    rng = cfg.rng("lambda-samples", inst.f.descriptor)
    try:
        pts = sample_cylinder(
            space, witness, phi, N_LAMBDA_SAMPLES, rng,
            tau_halfwidth=witness.r / 256.0,
        )
        lam = lambda_values(space, inst.f, witness, phi, pts, cfg)
    except (BracketViolation, CylinderError) as exc:
        return CertificationFailure(stage="lemma-check-failure",
                                    message=f"sampling stage: {exc}", hull=nd.hull)

    cert = EpigraphCertificate(
        witness=witness,
        phi=phi,
        lambda_samples=tuple((p, float(l)) for p, l in zip(pts, lam)),
        lipschitz_bound=witness.lipschitz_bound,
        measured_lipschitz=0.0,  # the suite's L4 measures it
        tol_bisect=cfg.tol_bisect,
        report=None,
        confidence="sampling_probabilistic",
        seed=cfg.rng_seed,
        instance_label=inst.label,
        instance_descriptor=inst.f.descriptor,
        space=space,
    )
    verify_cfg = replace(cfg, rng_seed=internal_verify_seed(cfg.rng_seed))
    report = run_suite(inst, cert, verify_cfg)
    if not report.overall:
        failed = [lid for lid, c in report.per_lemma.items() if not c.passed]
        return CertificationFailure(
            stage="lemma-check-failure",
            message=f"lemma checks failed: {', '.join(failed)}",
            hull=nd.hull, report=report,
        )
    return replace(cert, report=report, measured_lipschitz=report.measured_lipschitz)
