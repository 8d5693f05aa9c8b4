"""Signed distance to M = {f <= 0} computed from membership alone.

The value at y is the distance to M for outside points and minus the
distance to the complement for inside points; zero inside the membership
band.  It depends on the instance alone, never on a run seed or on batch
position, so splitting or reordering a batch cannot change any value.
Round 0 marches the radial grid of the 2 dim signed axes in doubling
column blocks, one oracle call each over the rows with no crossing yet;
core.itp_crossings solves only the rays that cross first in a row's
earliest crossing column, since a later ray crosses farther out.  A row
that no axis crosses, as from a point beside a narrow wedge or in the
open positive orthant of max(x1..xd), walks instead: at most dim + 2
projections onto the cuts of f's linearisation (Polyak 1969), one gradient
and one value call per step over the rows still walking, and a walk that
crosses is solved on the ray through its last point.  Round 0 and the walk
decide saturation: a row that crossed neither way keeps the signed search
radius.  Later rounds refine only the rows that crossed: one proposal
along M's normal at the row's foot, then a shrinking cone of proposals,
fixed per dimension, around the best direction so far, then one more
foot-normal proposal.  A proposal can beat its row's best only if its sign
has flipped there, so each round probes each proposal once, at its row's
best, and solves [0, best] only where the sign flipped; it drops the rest,
also a ray that leaves and re-enters M before the best, and may solve to
a later crossing than the first on a ray that crosses more often.  Either
way the value is a crossing distance.  The oracle's values only place each
solver probe; its sign, which membership gives exactly, decides which end
the probe replaces.  A ray takes at most ceil(log2(width / BISECT_TOL)) + 1
passes, bisection's count plus one pass of ITP slack: 31 on a grid cell,
35 on a refinement bracket.  The sign is therefore exact, and the
magnitude, a crossing distance, is never below the true distance by more
than the solver's tolerance.  It is above it by how far the last best
direction misses the nearest boundary point: within PROBE_RESOLUTION, the
cones' second-order term, where the boundary is smooth near the foot and
the search starts in the basin of the nearest point, and less after the
last foot-normal proposal, which aims along the normal at a foot near that
point.  Beside max(x1, x2)'s corner the walk reaches the corner along its
own direction, and midway between union_balls' two balls the axes start
in the nearer ball's basin, so the excess on the catalog's closed forms
stays below 1e-5.  A row whose first crossing lies on a farther piece of
the boundary would stay in that piece's basin; nothing bounds that excess.
Each row that crossed ends at a point of the boundary, its foot, where f's
gradient scaled to dual norm 1 is the signed distance's gradient (the
normal of M at the nearest boundary point, Clarke 1983, ch. 2); a band
row is its own foot, and a saturated row has none.  Membership codes of
the signed distance are the base ones, and march no rays.
``check_theorem2`` returns certify's precondition failure off the boundary
band, else the ``clarke.NondegeneracyResult`` of the witness search on the
signed distance.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .clarke import NondegeneracyResult, is_nondegenerate
from .epirep import CertificationFailure, boundary_band_failure
from .core import (
    FunctionOracle,
    NormedSpace,
    NumericConfig,
    ProblemInstance,
    Scales,
    band_codes,
    itp_crossings,
    membership_codes,
    sample_ball,
    signed_axes,
    stream_rng,
)

__all__ = [
    "SD_SCALES",
    "PROBE_RESOLUTION",
    "signed_distance_values",
    "sd_instance",
    "sd_lipschitz_check",
    "check_theorem2",
    "promote_to_certificate",
]


SEARCH_RADIUS = 1.5
RESOLUTION = 24            # radial grid points per direction
REFINE_ROUNDS = 9
REFINE_STEP = 0.6
REFINE_SHRINK = 0.55
REFINE_PROPOSALS = 4
BISECT_TOL = 1e-10
ITP_SLACK = 1              # ITP's n0 for the signed distance's rays

# Magnitude overestimation where the boundary is smooth near the foot and
# the search starts in the nearest point's basin; not a bound elsewhere
# (see the module docstring).  Direction search ends with proposal cones of
# angular scale REFINE_STEP * REFINE_SHRINK**(rounds-1); the induced
# overestimate is second order in that angle, scaled to the search radius.
# The solver adds at most BISECT_TOL / 2 either way: it returns the midpoint
# of a bracket no wider than BISECT_TOL around a crossing.
_SIGMA = REFINE_STEP * REFINE_SHRINK ** (REFINE_ROUNDS - 1)
PROBE_RESOLUTION = 4.0 * SEARCH_RADIUS * _SIGMA * _SIGMA + BISECT_TOL


@functools.cache
def _directions(space: NormedSpace) -> np.ndarray:
    # round 0's probes, shared read-only: the signed axes, of norm 1 in every
    # norm (in dim 1 the whole unit sphere); the rows they miss walk
    dirs = signed_axes(space.dim)
    dirs.setflags(write=False)
    return dirs


@functools.cache
def _refine_noise(dim: int) -> np.ndarray:
    """(rounds, proposals, dim) cone offsets, shared across query points on purpose."""
    noise = stream_rng(0, "sd-refine").standard_normal((REFINE_ROUNDS, REFINE_PROPOSALS, dim))
    noise.setflags(write=False)
    return noise


# Scales of the Theorem 2 route: the signed distance is only known to about
# PROBE_RESOLUTION, so derivative ladders stop well above that floor and
# descent steps stay long.  Each value is a ray search, so the ladder's
# budget is capped: 24 rows per level at most.  Its gradient is read at each
# ray's foot, not differenced, so hull samples need no wider offsets than the
# plain route's.  Its Lipschitz constant is 1 in the space's norm by theorem
# (Hiriart-Urruty 1979); the computed values keep it only up to their
# overestimation.  Written as factors of the search radius, not rounded
# literals: 6e-3 * 1.5 != 0.009 in binary64, and certificates depend on the
# exact bits.
SD_SCALES = Scales(
    dd_delta0=0.04 * SEARCH_RADIUS,
    dd_delta_floor=6e-3 * SEARCH_RADIUS,
    dd_stab_tol=1e-3,
    dd_budget=768,
    t_min_fraction=0.05,
    lipschitz=1.0,
)


def _ray_crossings(
    f_values,               # the base oracle's batch values
    signs: np.ndarray,      # (n,) +-1, makes f positive at each origin
    g0: np.ndarray,         # (n,) signs * f at each origin, > 0
    origins: np.ndarray,    # (n, dim)
    dirs: np.ndarray,       # (p, dim) unit directions, shared by every row
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's least crossing on the radial grid; (best, best_dir, crossed).

    Column blocks [0, 1), [1, 2), [2, 4), ... take one oracle call each over
    the rows with no crossing yet.  Only the rays that cross first in a
    row's earliest crossing column j* are solved, by one ``itp_crossings``
    call from the grid values at the cell's ends; a later ray crosses past
    rho[j* + 1].  A row with no crossing marches the whole grid and reports
    SEARCH_RADIUS.
    """
    (n, d), p = origins.shape, len(dirs)
    rho = np.linspace(0.0, SEARCH_RADIUS, RESOLUTION + 1)
    steps = rho[1:, None] * dirs[:, None, :]   # (p, RESOLUTION, dim)
    # the open rows' index, origin, sign and g at the column before the block
    idx, O, S, g_prev = np.arange(n), origins, signs, np.broadcast_to(g0[:, None], (n, p))
    cells, a = [], 0
    while idx.size and a < RESOLUTION:
        b = min(max(2 * a, 1), RESOLUTION)
        probes = O[:, None, None, :] + steps[:, a:b]
        g = S[:, None, None] * f_values(probes.reshape(-1, d)).reshape(idx.size, p, b - a)
        neg = g <= 0.0
        done = neg.any(axis=(1, 2))
        if done.any():
            # no ray of a done row crossed before its column jl, so the
            # rays that cross there cross there first
            jl = np.argmax(neg.any(axis=1), axis=1)
            r, c = np.nonzero(neg[np.arange(idx.size), :, jl] & done[:, None])
            jr = jl[r]
            g_lo = np.where(jr > 0, g[r, c, jr - 1], g_prev[r, c])
            cells.append((idx[r], c, a + jr, g_lo, g[r, c, jr]))
            idx, O, S, g = idx[~done], O[~done], S[~done], g[~done]
        g_prev, a = g[:, :, -1], b
    dist = np.full((n, p), SEARCH_RADIUS)
    if cells:
        row, col, j, g_lo, g_hi = (np.concatenate(v) for v in zip(*cells))
        dist[row, col] = itp_crossings(f_values, origins[row], dirs[col], rho[j], rho[j + 1],
                                       g_lo, g_hi, BISECT_TOL, orient=signs[row], n0=ITP_SLACK)
    crossed = np.ones(n, dtype=bool)
    crossed[idx] = False   # the rows still open never crossed
    k = np.argmin(dist, axis=1)
    return dist[np.arange(n), k], dirs[k], crossed


def _walk(
    f: FunctionOracle,
    space: NormedSpace,
    signs: np.ndarray,      # (n,) +-1, makes f positive at each origin
    g0: np.ndarray,         # (n,) signs * f at each origin, > 0
    origins: np.ndarray,    # (n, dim)
    tau: float,             # how far past the boundary each cut aims
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk each row from its origin over the boundary; (z, g, crossed), with
    z and g = signs * f(z) the walk's last point on a crossed row.

    A step moves z to its euclidean projection onto the latest cut
    {w : g(z) + signs grad f(z) . (w - z) <= -tau} (Polyak 1969), or, where
    that point violates the previous cut, onto both cuts: a 2x2 system whose
    multipliers must both be >= 0, masked where it is singular.  Each step
    sends one gradient call and one value call over the rows still open.  A
    row stops at g(z) <= 0, which crosses, at a zero gradient, past
    SEARCH_RADIUS from its origin, or after dim + 2 steps.
    """
    n, d = origins.shape
    Z, G = origins.copy(), g0.copy()
    A, C = np.zeros((n, d)), np.zeros(n)   # each row's latest cut A . w <= C; none yet
    open_, crossed = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    # a cut farther than this from z puts z past the search radius in each
    # of the three norms; a zero gradient has no cut
    reach = 2.0 * math.sqrt(d) * SEARCH_RADIUS
    for _ in range(d + 2):
        i = np.nonzero(open_)[0]
        if not i.size:
            break
        a = signs[i, None] * f.gradients(Z[i])
        norm = np.linalg.norm(a, axis=1)
        b = G[i] + tau
        near = b / reach < norm
        open_[i[~near]] = False
        i, a, b = i[near], a[near] / norm[near, None], b[near] / norm[near]
        z, a1, c1 = Z[i], A[i], C[i]
        P = z - b[:, None] * a
        A[i], C[i] = a, np.einsum("ij,ij->i", a, z) - b
        r = np.nonzero(np.einsum("ij,ij->i", a1, P) > c1)[0]
        if r.size:
            # w = z - l1 a1 - l2 a on both cuts: [1 c; c 1] (l1, l2) = (e1, b)
            cos = np.einsum("ij,ij->i", a1[r], a[r])
            det = 1.0 - cos * cos
            solvable = det > 1e-12
            r, cos, det = r[solvable], cos[solvable], det[solvable]
            e1 = np.einsum("ij,ij->i", a1[r], z[r]) - c1[r]
            l1, l2 = (e1 - cos * b[r]) / det, (b[r] - cos * e1) / det
            ok = (l1 >= 0.0) & (l2 >= 0.0)
            r = r[ok]
            P[r] = z[r] - l1[ok, None] * a1[r] - l2[ok, None] * a[r]
        inside = space.norm(P - origins[i]) <= SEARCH_RADIUS
        open_[i[~inside]] = False
        i = i[inside]
        if not i.size:
            break
        Z[i] = P[inside]
        G[i] = signs[i] * f.values(Z[i])
        hit = G[i] <= 0.0
        crossed[i[hit]] = True
        open_[i[hit]] = False
    return Z, G, crossed


def _improve(
    f_values,
    signs: np.ndarray,      # (n,) +-1, makes f positive at each origin
    g0: np.ndarray,         # (n,) signs * f at each origin, > 0
    origins: np.ndarray,    # (n, dim)
    best: np.ndarray,       # (n,) each row's least crossing distance so far
    best_dir: np.ndarray,   # (n, dim) the unit direction it was found along
    props: np.ndarray,      # (n, p, dim) unit proposals
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's (best, best_dir) after its proposals.

    A proposal can beat its row's best only if its sign has flipped there;
    then [0, best] brackets a crossing.  So each proposal is probed once, at
    its row's best, and solved only where the sign flipped.
    """
    at_best = props * best[:, None, None]
    at_best += origins[:, None, :]
    g = signs[:, None] * f_values(at_best.reshape(-1, origins.shape[1])).reshape(props.shape[:2])
    row, col = np.nonzero(g <= 0.0)
    if not row.size:
        return best, best_dir
    dist = np.full(g.shape, np.inf)
    dist[row, col] = itp_crossings(f_values, origins[row], props[row, col], np.zeros(row.size),
                                   best[row], g0[row], g[row, col], BISECT_TOL, orient=signs[row],
                                   n0=ITP_SLACK)
    rows, k = np.arange(len(g)), np.argmin(dist, axis=1)
    cand = dist[rows, k]
    return np.minimum(cand, best), np.where((cand < best)[:, None], props[rows, k], best_dir)


def _foot_normal_round(
    f: FunctionOracle,
    space: NormedSpace,
    signs: np.ndarray,
    g0: np.ndarray,
    origins: np.ndarray,
    best: np.ndarray,
    best_dir: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``_improve`` with one proposal per row: -signs times the unit
    direction along which f rises fastest at the row's foot, so along M's
    normal there.  A row keeps its best where its foot gradient is 0 or the
    proposal is its best direction already (solving that ray again moves
    only its midpoint, within BISECT_TOL)."""
    grad = f.gradients(origins + best[:, None] * best_dir)
    at = np.nonzero(space.dual.norm(grad) >= 1e-300)[0]   # space.unit refuses a zero row
    u = -signs[at, None] * space.dual_norming_direction(grad[at])
    new = np.any(u != best_dir[at], axis=1)
    at, u = at[new], u[new]
    if at.size:
        best, best_dir = best.copy(), best_dir.copy()
        best[at], best_dir[at] = _improve(f.values, signs[at], g0[at], origins[at], best[at],
                                          best_dir[at], u[:, None, :])
    return best, best_dir


def signed_distance_values(
    inst: ProblemInstance,
    Y: np.ndarray,
    cfg: NumericConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch signed distances to the set of inst; returns (values,
    saturated_flags, feet).

    A flagged row found no sign change within SEARCH_RADIUS along the
    signed axes nor on its walk (thin or empty far side); its value is the
    signed search radius and its foot is NaN.  Every other row's foot
    (n, dim) is the point of the boundary its value measures to:
    y + best * best_dir on the crossing ray, or y itself in the band.
    """
    space, f = inst.space, inst.f
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    f0 = f.values(Y)
    codes = band_codes(f0, cfg)
    vals = np.zeros(len(Y))
    flags = np.zeros(len(Y), dtype=bool)
    feet = np.where((codes == 0)[:, None], Y, np.nan)
    active = np.nonzero(codes != 0)[0]
    if active.size == 0:
        return vals, flags, feet
    s = codes[active].astype(float)
    g0 = s * f0[active]
    Ya = Y[active]
    # round 0 marches the signed axes; each row they leave uncrossed walks,
    # and a walk that crosses is solved on the ray through its last point
    best, best_dir, crossed = _ray_crossings(f.values, s, g0, Ya, _directions(space))
    w = np.nonzero(~crossed)[0]
    if w.size:
        Z, G, hit = _walk(f, space, s[w], g0[w], Ya[w], 2.0 * cfg.tol_value)
        if hit.any():
            w = w[hit]
            step = Z[hit] - Ya[w]
            length = space.norm(step)
            best_dir[w] = step / length[:, None]
            best[w] = itp_crossings(f.values, Ya[w], best_dir[w], np.zeros(w.size), length, g0[w],
                                    G[hit], BISECT_TOL, orient=s[w], n0=ITP_SLACK)
            crossed[w] = True
    flags[active] = ~crossed
    vals[active] = s * SEARCH_RADIUS
    if not crossed.any():
        return vals, flags, feet
    # the rows that crossed are refined: along the normal at their foot,
    # then by a shrinking cone of proposals around the best direction so
    # far, then along the normal at their new foot
    active, s, g0, Ya, best, best_dir = (v[crossed] for v in (active, s, g0, Ya, best, best_dir))
    best, best_dir = _foot_normal_round(f, space, s, g0, Ya, best, best_dir)
    sigma = REFINE_STEP
    for noise in _refine_noise(space.dim):
        props = best_dir[:, None, :] + sigma * noise[None, :, :]
        props = props / np.maximum(space.norm(props), 1e-300)[..., None]
        sigma *= REFINE_SHRINK
        best, best_dir = _improve(f.values, s, g0, Ya, best, best_dir, props)
    best, best_dir = _foot_normal_round(f, space, s, g0, Ya, best, best_dir)
    vals[active] = s * best
    feet[active] = Ya + best[:, None] * best_dir
    return vals, flags, feet


def sd_instance(inst: ProblemInstance, cfg: NumericConfig) -> ProblemInstance:
    """inst with f replaced by its signed distance, for the witness machinery.

    The gradient, which only the gradient hull asks for (the Lipschitz
    constant is ``SD_SCALES``' theorem 1), is the theorem's: where D is
    differentiable its gradient is the normal of M at the nearest boundary
    point, of dual norm 1 (Clarke 1983, ch. 2).  So it is
    ``space.dual.unit`` of f's gradient at each row's foot, and 0 where that
    gradient is 0 or the row saturated (D is locally constant there).
    value_noise carries the probe resolution so verification tolerances
    account for it, and every stage, the verifier's included, samples it at
    ``SD_SCALES``, so ``check_theorem2`` and ``promote_to_certificate`` run
    one witness search on it.  Its sign query returns the base membership
    codes, which are the signed distance's own, so membership codes and
    lambda's root finding march no rays.  The axes, the walk and the
    refinement cones are fixed per space, and round 0 and the walk decide
    saturation, so cfg's seed reaches no value.
    """
    def evaluate(P: np.ndarray) -> np.ndarray:
        return signed_distance_values(inst, P, cfg)[0]

    def gradient(P: np.ndarray) -> np.ndarray:
        feet = signed_distance_values(inst, P, cfg)[2]
        g = np.zeros(feet.shape)
        at = ~np.isnan(feet[:, 0])   # a saturated row has no foot
        g[at] = inst.f.gradients(feet[at]) if at.any() else 0.0   # no call without a foot
        at = inst.space.dual.norm(g) >= 1e-300   # f.gradients refuses an overflowing norm
        g[at] = inst.space.dual.unit(g[at])
        return g

    return ProblemInstance(
        space=inst.space,
        f=FunctionOracle(
            eval=evaluate,
            grad=gradient,
            descriptor=f"(signed-distance {inst.f.descriptor})",
            value_noise=PROBE_RESOLUTION,
            scales=SD_SCALES,
            sign=lambda P: membership_codes(inst.f, P, cfg),
        ),
        boundary_points=inst.boundary_points,
        label=(inst.label + "+signed-distance") if inst.label else "signed-distance",
    )


def sd_lipschitz_check(
    inst: ProblemInstance,
    center: np.ndarray,
    radius: float,
    cfg: NumericConfig,
) -> dict:
    """Sampled check of the modulus-one property of inst's signed distance
    D, with additive probe slack:

    |D(p) - D(q)| <= 1.02 |p - q| + 2 * PROBE_RESOLUTION on all pairs.

    Acceptance test 6 runs it: the numerical evidence for the constant 1
    that ``SD_SCALES`` hands the pipeline in place of a sampled estimate.
    """
    space = inst.space
    n_pairs = 500
    rng = cfg.rng("sd-lipschitz", inst.f.descriptor)
    P = sample_ball(space, center, radius, n_pairs, rng)
    Q = sample_ball(space, center, radius, n_pairs, rng)
    # one call for both ends (the signed distance is row-wise)
    vp, vq = np.split(signed_distance_values(inst, np.concatenate([P, Q]), cfg)[0], 2)
    sep = np.asarray(space.norm(P - Q), dtype=float)
    allowed = 1.02 * sep + 2.0 * PROBE_RESOLUTION
    excess = np.abs(vp - vq) - allowed
    worst = float(np.max(excess))
    return {"ok": bool(worst <= 0.0), "max_excess": worst, "pairs": n_pairs}


def check_theorem2(
    inst: ProblemInstance,
    x: np.ndarray,
    cfg: NumericConfig,
) -> NondegeneracyResult | CertificationFailure:
    """Nondegeneracy of the signed distance at a boundary point.

    Certify's precondition failure for an x off f's boundary band; else
    the ``NondegeneracyResult`` of the witness search on the signed
    distance, whose ``SD_SCALES`` adapt the search to probe noise:
    neighbourhood ladders stop well above the resolution floor, on a capped
    budget.  The hull reads the signed distance's gradient at each ray's
    foot.  It is the search that ``promote_to_certificate`` runs first, so
    both report one witness and one alpha.
    """
    x = np.asarray(x, dtype=float)
    return (boundary_band_failure(inst, x, cfg)
            or is_nondegenerate(sd_instance(inst, cfg), x, cfg))


def promote_to_certificate(inst: ProblemInstance, x: np.ndarray, cfg: NumericConfig):
    """Run the full construction against the signed distance itself.

    Lambda's root finding stays exact, and cheap: it asks only the signed
    distance's sign, which is the base membership code.  So the standard
    pipeline applies at the oracle's coarser ``SD_SCALES``.  Returns
    whatever certify returns.
    """
    from .epirep import certify

    return certify(sd_instance(inst, cfg), x, cfg)
