"""Sampling estimators for generalized derivatives of Lipschitz functions.

Four pieces:

* ``directional_derivative``: the generalized directional derivative at x in
  direction v, estimated as a max of difference quotients over a ladder of
  shrinking neighbourhoods.  Positively homogeneous in v by construction
  (the direction is normalised internally and the result rescaled).  The
  ladder's base points depend on x, not on v, so directions probed at one x
  share them.  Each ladder step is one oracle call: levels 0 and 1 go
  together, and each later level's base points (if new) go with its step
  points.  The oracle is row-wise, so these are the points and values one
  call per batch would give.
* ``estimate_gradient_hull`` / ``min_norm_point``: a surrogate for the
  generalized gradient, built as the convex hull of gradients sampled at
  nearby points along the jittered signed axes, with Wolfe's algorithm for
  the minimum-norm point.
* ``is_nondegenerate``: the witness search.  It tries the direction
  opposite the hull's min-norm point, at most dim + 1 times, growing the
  hull after each failure with f's gradients at the ladder rows where that
  direction was probed (gradient sampling, Burke-Lewis-Overton).  No
  direction is random.  Its thresholds are relative to the hull's scale,
  f's gradient scale at x, so its verdict does not depend on f's units,
  except where the first hull reads 0.
* ``local_lipschitz_constant``: a certified-by-sampling bound on the local
  Lipschitz constant of f on a ball, every candidate being an honest pair
  quotient |f(a) - f(b)| / |a - b| formed by ``core.pair_quotients``.  Its
  gradient-growth ascent stops once its running maximum stalls, far below
  its max(60, 2 dim) step cap in high dimension.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FunctionOracle,
    NormedSpace,
    NumericConfig,
    ProblemInstance,
    pair_quotients,
    sample_ball,
    signed_axes,
)

__all__ = [
    "DirectionalDerivativeEstimate",
    "directional_derivative",
    "min_norm_point",
    "GradientHull",
    "estimate_gradient_hull",
    "NondegeneracyResult",
    "is_nondegenerate",
    "LipschitzEstimate",
    "local_lipschitz_constant",
    "WITNESS_TOL",
    "SAFETY",
]

WITNESS_TOL = 1e-6     # descent is below minus this, times the first hull's scale unless it reads 0
HULL_ZERO_TOL = 1e-3   # hull min-norm up to this, times the hull's scale, reads as 0
SAFETY = 1.25          # inflation applied to raw sampled Lipschitz quotients
CHORD_FRACTION = 1e-4  # Lipschitz chord half-length, over the radius
STALL_RTOL = 1e-3      # an ascent step that lifts the max by less has stalled
STALL_STEPS = 8        # consecutive stalled steps that end the ascent
MNP_TOL = 1e-10        # Wolfe optimality tolerance, relative to the largest |p_i|^2
MNP_MAX_ITER = 10000   # Wolfe major cycles


@dataclass(frozen=True)
class DirectionalDerivativeEstimate:
    value: float                   # final-level max quotient (the estimate)
    upper_bound_confidence: float  # max quotient across all levels, >= value
    samples_used: int
    delta_final: float
    stabilized: bool        # consecutive levels agreed before hitting the floor


class _LadderBase:
    """The base points of ``directional_derivative``'s ladder at one x.

    Level i holds (ys, ts): base points in B(x, delta_i) and steps in
    [delta_i/4, delta_i], drawn in level order from an rng keyed by (f, x)
    only, so every direction probed at x would draw the same ones.  Drawing
    a level is apart from evaluating it: ``quotients`` evaluates the levels
    it is asked for in one f.values call, and f(ys) is kept once known, so
    each level's base points are evaluated once however many directions
    reach it.  Its budget is the config's ``sample_budget``, capped at
    ``f.scales.dd_budget``: n rows per level and at most 8 budget samples
    in all.
    """

    def __init__(self, space: NormedSpace, f: FunctionOracle, x: np.ndarray,
                 cfg: NumericConfig) -> None:
        self.space, self.f, self.x = space, f, x
        limit = f.scales.dd_budget
        budget = cfg.sample_budget if limit is None else min(cfg.sample_budget, limit)
        self.n, self.cap = max(16, budget // 32), 8 * budget
        self.rng = cfg.rng("dirderiv", f.descriptor, *np.round(x, 12).tolist())
        self.draws: list[tuple[np.ndarray, np.ndarray]] = []
        self.fys: list[np.ndarray] = []   # f(ys) of the levels evaluated so far

    def draw(self, i: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
        if i == len(self.draws):
            ys = sample_ball(self.space, self.x, delta, self.n, self.rng)
            ts = delta * self.rng.uniform(0.25, 1.0, self.n)
            self.draws.append((ys, ts))
        return self.draws[i]

    def quotients(self, first: int, deltas: list[float], u: np.ndarray) -> list[np.ndarray]:
        """(f(y + t u) - f(y)) / t at levels first, first + 1, ... of scales deltas.

        One f.values call, whose rows are each level's base points (unless
        already evaluated) then its step points, in level order: the order
        in which one call per batch would have met them, so a non-finite
        value is reported at the same point.
        """
        known = len(self.fys)
        draws = [self.draw(i, delta) for i, delta in enumerate(deltas, first)]
        blocks = []
        for i, (ys, ts) in enumerate(draws, first):
            if i >= known:
                blocks.append(ys)
            blocks.append(ys + ts[:, None] * u[None, :])
        out = iter(np.split(self.f.values(np.concatenate(blocks)), len(blocks)))
        qs = []
        for i, (ys, ts) in enumerate(draws, first):
            if i >= known:
                self.fys.append(next(out))
            qs.append((next(out) - self.fys[i]) / ts)
        return qs


def directional_derivative(
    space: NormedSpace,
    f: FunctionOracle,
    x: np.ndarray,
    v: np.ndarray,
    cfg: NumericConfig,
    base: _LadderBase | None = None,
) -> DirectionalDerivativeEstimate:
    """Estimate the generalized directional derivative of f at x along v.

    At neighbourhood scale delta we draw base points y in B(x, delta) and
    steps t in [delta/4, delta], take the max of (f(y + t u) - f(y)) / t for
    the unit direction u, and shrink delta until two consecutive levels agree
    to stab_tol or the floor is reached.  The result is scaled by |v| so
    positive homogeneity holds exactly.  The (y, t, f(y)) of each level come
    from ``base``, the ``_LadderBase`` of (space, f, x, cfg); a caller that
    probes several directions at x passes one, so f(y) is evaluated once.
    Each step sends one f.values call: the first holds levels 0 and 1
    whenever the loop would run level 1 (delta0 * shrink >= floor and
    2n < base.cap), else level 0 alone; each later level's base
    points, if new, and its step points go in one call.  Same points, same
    values as one call per batch, fewer calls.
    """
    x = np.asarray(x, dtype=float)
    scale = 1.0 + float(space.norm(x))
    scales = f.scales
    delta0 = 0.1 * scale if scales.dd_delta0 is None else scales.dd_delta0
    delta_floor = (
        1e-8 * scale if scales.dd_delta_floor is None else scales.dd_delta_floor
    )
    stab_tol = cfg.tol_value if scales.dd_stab_tol is None else scales.dd_stab_tol
    vnorm = float(space.norm(np.asarray(v, dtype=float)))
    u = space.unit(v)
    if base is None:
        base = _LadderBase(space, f, x, cfg)

    delta = float(delta0)
    shrink, cap = cfg.shrink_factor, base.cap
    # after level 0 there is no previous level to agree with, so level 1
    # runs exactly when the floor and the sample cap allow it: its points
    # join level 0's in the first oracle call
    both = delta * shrink >= delta_floor and 2 * base.n < cap
    qs = base.quotients(0, [delta, delta * shrink] if both else [delta], u)
    prev = None
    best_overall = -math.inf
    used = 0
    stabilized = False
    level_max = -math.inf
    for level in itertools.count():
        if level == len(qs):
            qs += base.quotients(level, [delta], u)
        level_max = float(np.max(qs[level]))
        used += 2 * base.n
        best_overall = max(best_overall, level_max)
        if prev is not None and abs(level_max - prev) <= stab_tol:
            stabilized = True
            break
        if delta * shrink < delta_floor or used >= cap:
            break
        prev = level_max
        delta *= shrink

    return DirectionalDerivativeEstimate(
        value=level_max * vnorm,
        upper_bound_confidence=best_overall * vnorm,
        samples_used=used,
        delta_final=delta,
        stabilized=stabilized,
    )


def min_norm_point(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum euclidean-norm point of conv(points) via Wolfe's method.

    Returns (point, weights); weights sum to 1 over the input rows, with the
    mass of duplicated rows assigned to their first occurrence.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    if m == 0:
        raise ValueError("empty generator set")
    P, first = np.unique(pts, axis=0, return_index=True)
    start = int(np.argmin(np.einsum("ij,ij->i", P, P)))
    active = [start]
    w = np.array([1.0])
    x = P[start].copy()
    # relative to the generators' scale, so the point's accuracy does not
    # depend on the units of the points
    tol = MNP_TOL * float(np.max(np.einsum("ij,ij->i", P, P)))

    for _ in range(MNP_MAX_ITER):
        dots = P @ x
        xx = float(x @ x)
        j = int(np.argmin(dots))
        if dots[j] > xx - tol:
            break
        if j in active:
            break  # numerically stuck, current x is as good as it gets
        state = (list(active), w.tobytes(), x.tobytes())
        active.append(j)
        w = np.append(w, 0.0)
        # minor cycles: affine minimiser over the active set, then pull the
        # weights back into the simplex, dropping vanished generators
        while True:
            S = P[active]
            k = len(active)
            G = S @ S.T
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = 2.0 * G
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            u = sol[:k]
            if u[-1] <= 0.0 and active[-1] == j:
                # the entering generator keeps positive weight in exact
                # arithmetic (Wolfe 1976); the Gram system squares the
                # conditioning of nearly coplanar generators, so solve the
                # affine problem on their differences instead
                c = np.linalg.lstsq((S[1:] - S[0]).T, -S[0], rcond=None)[0]
                u = np.concatenate([[1.0 - c.sum()], c])
            if np.all(u > 1e-12):
                w = u
                x = u @ S
                break
            mask = u <= 1e-12
            denom = w - u
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(mask & (denom > 1e-300), w / denom, np.inf)
            theta = float(np.min(ratios))
            theta = min(max(theta, 0.0), 1.0)
            w = (1.0 - theta) * w + theta * u
            w[w < 1e-12] = 0.0
            keep = w > 0.0
            if not np.any(keep):
                keep[int(np.argmax(u))] = True
                w[keep] = 1.0
            active = [a for a, k_ in zip(active, keep) if k_]
            w = w[keep]
            w = w / w.sum()
            x = w @ P[active]
            if len(active) == 1:
                break
        if (active, w.tobytes(), x.tobytes()) == state:
            # the minor cycle dropped j again with theta = 0; the loop is
            # deterministic in (active, w, x), so it would repeat to the cap
            break

    weights = np.zeros(m)
    weights[first[active]] = w
    return x, weights


@dataclass(frozen=True, eq=False)
class GradientHull:
    """Convex hull of sampled nearby gradients, with its min-norm point."""

    generators: np.ndarray       # (m, dim)

    @functools.cached_property
    def min_norm_point(self) -> np.ndarray:
        """Minimum-norm point of the hull, computed on first use."""
        return min_norm_point(self.generators)[0]

    @property
    def min_norm_value(self) -> float:
        """Euclidean norm of the min-norm point."""
        return float(np.linalg.norm(self.min_norm_point))

    @property
    def scale(self) -> float:
        """Largest euclidean norm among the generators: f's gradient scale at x."""
        return float(np.max(np.linalg.norm(self.generators, axis=1)))

    @property
    def reads_zero(self) -> bool:
        """The min-norm is at most HULL_ZERO_TOL times the scale: 0 is in the hull."""
        return self.min_norm_value <= HULL_ZERO_TOL * self.scale


def estimate_gradient_hull(
    space: NormedSpace,
    f: FunctionOracle,
    x: np.ndarray,
    cfg: NumericConfig,
) -> GradientHull:
    """Gradients at points 1e-5 (1 + |x|) from x along jittered signed axes, hulled.

    The first min(2 dim, 48) signed axes, each jittered by 1e-3 and
    normalised, catch piecewise structure aligned with coordinates; the
    jitter keeps samples off measure-zero kink sets almost surely.  Pieces
    the axes miss are found by ``is_nondegenerate``, which grows the hull
    from its ladder wherever the hull's direction fails.
    """
    x = np.asarray(x, dtype=float)
    d = space.dim
    rng = cfg.rng("hull", f.descriptor, *np.round(x, 12).tolist())

    D = np.stack([e + 1e-3 * rng.standard_normal(d) for e in signed_axes(d)[:48]])
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    pts = x[None, :] + 1e-5 * (1.0 + float(space.norm(x))) * D
    return GradientHull(generators=f.gradients(pts))


@dataclass(frozen=True, eq=False)
class NondegeneracyResult:
    witness: np.ndarray | None        # unit descent direction
    alpha: float | None               # minus half the directional derivative along the witness
    hull: GradientHull
    directions_tried: int

    @property
    def nondegenerate(self) -> bool:
        return self.witness is not None

    @property
    def consistent(self) -> bool:  # the witness search agrees with the hull test
        return self.nondegenerate != self.hull.reads_zero

    @property
    def degenerate(self) -> bool:
        return not self.nondegenerate and self.consistent

    @property
    def note(self) -> str:
        found = "found" if self.nondegenerate else "none"
        return "" if self.consistent else (f"hull min-norm {self.hull.min_norm_value:.3g} "
                                           f"disagrees with witness search ({found})")


def is_nondegenerate(
    inst: ProblemInstance,
    x: np.ndarray,
    cfg: NumericConfig,
) -> NondegeneracyResult:
    """Search for a descent direction at a boundary point.

    A unit v with negative directional derivative certifies that 0 is not in
    the generalized gradient.  The one candidate is the direction opposite
    the min-norm point of the gradient hull: where 0 is not in the
    generalized gradient, minus its min-norm element descends (Clarke 1983,
    2.1).  With s the hull's scale (the largest generator norm), the hull
    reads 0 when its min-norm is at most HULL_ZERO_TOL s, and a direction
    descends when its estimate is below -WITNESS_TOL s, s taken from the
    first hull.  The hull's direction is tried at most dim + 1 times: each
    time it fails, f's gradients at the deepest ladder level's base points
    and at their steps along it join the hull in one call of 2n rows (some
    piece that ascends along it is active there), and the next try needs a
    min-norm point that moved and a hull that does not read 0.  Where the
    first hull reads 0, its direction, if nonzero, is tried once, with the
    threshold -WITNESS_TOL in f's units: s is then only the size of f's
    gradient 1e-5 from x (small at a smooth critical point), and a relative
    threshold would count a difference-quotient bias as descent.  So a kink
    whose Clarke gradient misses 0 by less than HULL_ZERO_TOL s, such as
    |x1| + 1e-4 x2 at 0, still gets its witness.
    The tries share one ``_LadderBase``: the ladder's base points do not
    depend on the direction, so each level's f(y) is evaluated once
    however many tries reach it.  A try whose ladder runs L levels
    sends max(1, L - 1) oracle calls: levels 0 and 1 share one, and
    each later level's base points, if new, share its step points' call.
    The last hull is kept alongside as a consistency check but the witness,
    when found, is what downstream consumes.
    """
    space, f = inst.space, inst.f
    x = np.asarray(x, dtype=float)
    hull = estimate_gradient_hull(space, f, x, cfg)
    base = _LadderBase(space, f, x, cfg)
    # in f's units: relative to the first hull's scale, absolute where it
    # reads 0
    descends_below = -WITNESS_TOL * (1.0 if hull.reads_zero else hull.scale)
    witness = alpha = None
    tried = 0
    p = hull.min_norm_point
    while tried <= space.dim and p.any():
        tried += 1
        # normalize first: the estimate scales with |v|, and alpha must refer
        # to the unit witness
        u = space.unit(-p)
        est = directional_derivative(space, f, x, u, cfg, base)
        if est.value < descends_below:
            witness = space.unit(u)
            alpha = -est.value / 2.0
            break
        if hull.reads_zero:
            # only the first hull reads 0 here, and growth only lowers the
            # min-norm, so its direction gets one try
            break
        # -p failed, so a piece along which it ascends is active at some
        # ladder row: grow the hull there
        ys, ts = base.draws[-1]
        grown = f.gradients(np.concatenate([ys, ys + ts[:, None] * u[None, :]]))
        hull = GradientHull(generators=np.concatenate([hull.generators, grown]))
        if hull.reads_zero or np.array_equal(hull.min_norm_point, p):
            break
        p = hull.min_norm_point

    return NondegeneracyResult(witness=witness, alpha=alpha, hull=hull, directions_tried=tried)


@dataclass(frozen=True)
class LipschitzEstimate:
    value: float            # the bound the pipeline uses
    raw_max: float          # largest observed pair quotient
    n_quotients: int
    hint_inconsistent: bool # analytic hint fell below an observed quotient


def local_lipschitz_constant(
    space: NormedSpace,
    f: FunctionOracle,
    center: np.ndarray,
    radius: float,
    cfg: NumericConfig,
) -> LipschitzEstimate:
    """Lipschitz bound for f on the closed ball B(center, radius).

    Every candidate is an honest pair quotient |f(a) - f(b)| / |a - b| from
    ``pair_quotients``, taken over pairs more than 1e-9 * radius apart.  The
    static sources go through one call: random point pairs, short central
    chords at random points, and chords aimed along the dual norming
    direction of the local gradient.  Then four gradient-growth ascent runs
    chase the in-ball maximiser of the dual gradient norm, stepping in
    lockstep, so every oracle query here is one batch.  The ascent ends
    after STALL_STEPS steps in a row that each lift its running max quotient
    by less than STALL_RTOL, relative, or at max(60, 2 dim) steps.  A run
    whose gradient vanishes takes a random unit step direction from this
    call's rng stream, in row order.  The returned value inflates the raw
    max by a fixed safety factor unless a consistent analytic hint caps it.
    A constant the route knows by theorem, ``f.scales.lipschitz`` (the
    signed distance's 1), is returned before any draw or oracle call, with
    no quotients.
    """
    if f.scales.lipschitz is not None:
        return LipschitzEstimate(value=f.scales.lipschitz, raw_max=0.0, n_quotients=0,
                                 hint_inconsistent=False)
    center = np.asarray(center, dtype=float)
    rng = cfg.rng("lipschitz", f.descriptor, round(radius, 12))
    d = space.dim
    min_sep = 1e-9 * radius

    n_pairs = 512
    A = sample_ball(space, center, radius, n_pairs, rng)
    B = sample_ball(space, center, radius, n_pairs, rng)
    h = CHORD_FRACTION * radius
    n_chord = 128
    bases = sample_ball(space, center, radius * (1.0 - 2.0 * CHORD_FRACTION), n_chord, rng)
    U = space.chord_directions(n_chord, rng)
    # chords along the steepest direction each local gradient allows
    grads = f.gradients(bases)
    live = np.linalg.norm(grads, axis=1) > 1e-12
    W = space.dual_norming_direction(grads[live])
    quotients = [pair_quotients(
        space, f.values,
        np.concatenate([A, bases + h * U, bases[live] + h * W]),
        np.concatenate([B, bases - h * U, bases[live] - h * W]),
        min_sep,
    )]

    # ascent on the dual gradient norm, four runs in lockstep: each run moves
    # toward the shell point that its gradient's directional growth suggests,
    # recording a chord each step, and stops once its hv vanishes or its point
    # stops moving.  Needed in higher dimension, where random sampling
    # undershoots the sup.  The step is a power iteration on the Hessian, so
    # the running max settles within a few dozen steps at any dimension.
    hv_step = 1e-4 * radius
    P = center + 0.999 * radius * space.unit(rng.standard_normal((4, d)))
    prev = np.zeros_like(P)  # a zero previous step never flips the first one
    best, stalled = 0.0, 0
    for _ in range(max(60, 2 * d)):
        G = f.gradients(P)
        live = np.linalg.norm(G, axis=1) > 1e-12
        U = np.empty_like(P)
        U[live] = space.dual_norming_direction(G[live])
        base = center + (P[live] - center) * (1.0 - 2.0 * CHORD_FRACTION)
        quotients.append(
            pair_quotients(space, f.values, base + h * U[live], base - h * U[live], min_sep)
        )
        top = float(np.max(quotients[-1], initial=0.0))
        stalled = 0 if top > best * (1.0 + STALL_RTOL) else stalled + 1
        best = max(best, top)
        if stalled == STALL_STEPS:
            break
        U[~live] = space.unit(rng.standard_normal((int(np.sum(~live)), d)))
        # one call for both sides (FunctionOracle is row-wise)
        G_pm = f.gradients(np.concatenate([P + hv_step * U, P - hv_step * U]))
        HV = (G_pm[:len(P)] - G_pm[len(P):]) / (2.0 * hv_step)
        HV = np.where((np.einsum("ij,ij->i", HV, prev) < 0.0)[:, None], -HV, HV)
        keep = np.linalg.norm(HV, axis=1) >= 1e-12
        P_new = center + 0.999 * radius * space.unit(HV[keep])
        moved = np.linalg.norm(P_new - P[keep], axis=1) >= 1e-12 * (1.0 + radius)
        P, prev = P_new[moved], HV[keep][moved]
        if not len(P):
            break

    q = np.concatenate(quotients)
    raw = float(np.max(q, initial=0.0))
    hint_inconsistent = False
    hint = f.lipschitz_hint
    if hint is not None and hint >= raw * (1.0 - 1e-9):
        value = min(float(hint), SAFETY * raw) if raw > 0 else float(hint)
    else:
        if hint is not None:
            hint_inconsistent = True
        value = SAFETY * raw
    return LipschitzEstimate(
        value=value, raw_max=raw, n_quotients=q.size, hint_inconsistent=hint_inconsistent
    )
