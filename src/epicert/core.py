"""Shared numeric primitives: normed spaces, function oracles, sampling, config.

Everything downstream works against the small vocabulary defined here.  A
function oracle is batch-first (an (n, dim) array of points maps to (n,)
values) because the certification pipeline lives or dies on vectorised
evaluation.  Scalar convenience wrappers are provided but the batch form is
the contract.  ``NormedSpace`` owns every per-norm rule: the norm, the dual
space, the norming direction, the uniform ball draw, the chord draw and the
ball draw in ker phi; no other module branches on the norm kind.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

import numpy as np

__all__ = [
    "NORM_KINDS",
    "stream_rng",
    "NormedSpace",
    "signed_axes",
    "NonFiniteValue",
    "FunctionOracle",
    "itp_crossings",
    "require_integer",
    "require_number",
    "require_vector",
    "NumericConfig",
    "Scales",
    "PLAIN",
    "band_codes",
    "membership_codes",
    "ReferenceData",
    "ProblemInstance",
    "sample_ball",
    "pair_quotients",
    "canonical_json",
    "internal_verify_seed",
]

NORM_KINDS = ("euclidean", "sup", "one")

# Norming functionals for one norm live in the sup-norm dual ball and vice
# versa; euclidean is self-dual.
DUAL_KIND = {"euclidean": "euclidean", "sup": "one", "one": "sup"}


def stream_rng(seed: int, *labels: Any) -> np.random.Generator:
    """Deterministic named substream of a base seed.

    Labels are hashed so that e.g. ("radius", 3) and ("lipschitz",) never
    collide and adding a new consumer does not shift any existing stream.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        entropy.append(zlib.crc32(str(label).encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class NormedSpace:
    """Finite-dimensional real space with one of three norms."""

    dim: int
    norm_kind: str = "euclidean"

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"unknown norm_kind {self.norm_kind!r}, expected one of {NORM_KINDS}")

    def norm(self, y: np.ndarray) -> np.ndarray:
        """Norm of a point (dim,) or batch (n, dim); returns scalar or (n,)."""
        y = np.asarray(y, dtype=float)
        if self.norm_kind == "euclidean":
            return np.linalg.norm(y, axis=-1)
        if self.norm_kind == "sup":
            return np.max(np.abs(y), axis=-1)
        return np.sum(np.abs(y), axis=-1)

    def unit(self, y: np.ndarray) -> np.ndarray:
        """A point (dim,) or each row of a batch (n, dim) rescaled to norm 1.
        Raises ValueError on a (numerically) zero input, NonFiniteValue on a
        norm that is not finite."""
        y = np.asarray(y, dtype=float)
        n = self.norm(y)
        if not np.all(np.isfinite(n)):
            raise NonFiniteValue("norm overflows; cannot normalise")
        if np.any(n < 1e-300):
            raise ValueError("cannot normalise zero vector")
        u = y / np.expand_dims(n, -1)
        # kill -0.0 so serialised directions are reproducible byte for byte
        return np.where(u == 0.0, 0.0, u)

    @property
    def dual(self) -> NormedSpace:
        """The dual space: the same dim under the dual norm."""
        return NormedSpace(self.dim, DUAL_KIND[self.norm_kind])

    def dual_norm(self, w: np.ndarray) -> np.ndarray:
        return self.dual.norm(w)

    def dual_norming_direction(self, g: np.ndarray) -> np.ndarray:
        """A unit vector u (this space's norm) with <g, u> = dual_norm(g), for
        a point (dim,) or each row of a batch (n, dim).

        Aims chord probes along the steepest direction a gradient allows,
        and, asked of the dual space, gives a certificate's phi: for a unit v,
        phi = dual.dual_norming_direction(v) has phi(v) = 1 and dual norm 1.
        Ties in the sup/one cases resolve to +1 and the lowest index.
        """
        g = np.asarray(g, dtype=float)
        if self.norm_kind == "euclidean":
            return self.unit(g)
        if self.norm_kind == "sup":
            # dual of sup is one-norm: u has all coordinates at +-1
            return np.where(g < 0.0, -1.0, 1.0)
        # dual of one-norm is sup: mass on a single extreme coordinate
        j = np.argmax(np.abs(g), axis=-1)[..., None]
        s = np.where(np.take_along_axis(g, j, axis=-1) >= 0.0, 1.0, -1.0)
        return np.where(np.arange(self.dim) == j, s, 0.0)

    def uniform_ball(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """m points (m, dim) drawn uniformly from the unit ball."""
        d = self.dim
        if self.norm_kind == "sup":
            return rng.uniform(-1.0, 1.0, (m, d))
        if self.norm_kind == "euclidean":
            g = rng.standard_normal((m, d))
        else:
            # one-norm ball: the exponential trick gives a uniform direction
            # on the cross-polytope, then a radial factor
            g = rng.exponential(1.0, (m, d)) * rng.choice([-1.0, 1.0], (m, d))
        g /= np.maximum(self.norm(g)[:, None], 1e-300)
        radii = rng.uniform(0.0, 1.0, m) ** (1.0 / d)
        return g * radii[:, None]

    def kernel_ball(self, phi: np.ndarray, radius: float, n: int,
                    rng: np.random.Generator) -> np.ndarray | None:
        """n points (n, dim) of the ball B(0, radius) inside ker phi, zero
        first, or None where callers must rejection-sample it instead.

        Under the euclidean norm ker phi = phi^perp is a euclidean
        (dim-1)-ball: ``sample_ball``'s law in R^(dim-1) is drawn there and
        carried into phi^perp by the Householder reflection that maps e_dim
        to +-phi/|phi|, its sign chosen so that nothing cancels.  Under the
        sup and one norms the kernel's unit ball is not a coordinate ball,
        and a phi without a finite nonzero length has no hyperplane kernel:
        None for both.
        """
        size = math.hypot(*phi)   # scaled, so a finite length never overflows
        if self.norm_kind != "euclidean" or not 0.0 < size < math.inf:
            return None
        d = self.dim
        out = np.zeros((n, d))
        if d > 1:
            out[:, :-1] = sample_ball(NormedSpace(d - 1), np.zeros(d - 1), radius, n, rng)
        w = phi / (size if phi[-1] >= 0.0 else -size)
        w[-1] += 1.0   # e_dim + sign(phi_dim) phi/|phi|, so |w|^2 >= 2
        out -= np.multiply.outer(out @ w * (2.0 / (w @ w)), w)
        return out

    def chord_directions(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """m unit directions (m, dim): gaussian rows under the euclidean norm,
        rows of the cube [-1, 1]^dim otherwise, each rescaled to norm 1."""
        if self.norm_kind == "euclidean":
            U = rng.standard_normal((m, self.dim))
        else:
            U = rng.uniform(-1.0, 1.0, (m, self.dim))
        U /= np.maximum(self.norm(U)[:, None], 1e-300)
        return U


def signed_axes(d: int) -> np.ndarray:
    """Rows +e1, -e1, +e2, -e2, ... of shape (2d, d); every zero is +0.0."""
    out = np.zeros((2 * d, d))
    j = np.arange(d)
    out[2 * j, j] = 1.0
    out[2 * j + 1, j] = -1.0
    return out


def itp_crossings(
    values: Callable[[np.ndarray], np.ndarray], origins: np.ndarray, dirs: np.ndarray,
    lo: np.ndarray, hi: np.ndarray, g_lo: np.ndarray, g_hi: np.ndarray, tol: float,
    orient: np.ndarray | float = 1.0, n0: int = 0,
) -> np.ndarray:
    """Per-row crossing of g(t) = orient * values(origins + t dirs) on [lo, hi].

    The ITP method of Oliveira & Takahashi (ACM TOMS 47(1), 2020) with
    kappa1 = 0.2 / (the row's starting width) and kappa2 = 2: each pass
    steps from the regula falsi point towards the midpoint by
    kappa1 (hi - lo)**2, at least tol / 2, and stays within the radius that
    keeps bisection's pass count plus n0.  n0 is ITP's slack: with n0 = 0 a
    row whose steps spend that radius's spare room bisects the rest of the
    way, while each pass of slack doubles the room, at a cost of at most n0
    passes more than bisection.  The signed distance's rays, whose g turns
    at a kink or a shelf, pass 1; lambda's root finder keeps 0, where a pass
    of slack was measured to add passes, not save them.  Assumes g > 0 at lo
    and g <= 0 at hi (checked by callers), whose values g_lo and g_hi the
    caller already holds; a zero moves hi, so the result is the first
    crossing.  A row stops once hi - lo <= tol, after at most
    ceil(log2(width / tol)) + n0 passes, and returns its midpoint.  values
    must be a point function: each pass asks it only for the rows still
    open.  Rows never mix.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    width = hi - lo
    # bisection's pass count: the least m with tol * 2**m >= width; ldexp
    # stays finite where 2.0 ** m overflows (m > 1023: 1e298 wide at tol 1e-10)
    with np.errstate(divide="ignore", over="ignore"):
        m = np.maximum(np.ceil(np.log2(width) - math.log2(tol)), 0.0).astype(int)
        m += np.ldexp(tol, m) < width
        m -= (m > 0) & (np.ldexp(tol, m - 1) >= width)
        m += n0
        kappa1 = 0.2 / width
    # per open row: bracket, g at its ends, orientation, kappa1, passes left
    # and eps * 2**(passes left) with eps = tol / 2, which is the projection
    # radius plus half the current width
    state = (lo, hi, np.asarray(g_lo, dtype=float), np.asarray(g_hi, dtype=float),
             np.broadcast_to(np.asarray(orient, dtype=float), lo.shape), kappa1, m,
             np.ldexp(0.5 * tol, m))
    rows, P, U = np.arange(lo.size), origins, dirs   # U may be one row for all
    out = np.empty(lo.shape)
    while True:
        a, b, ga, gb, s, k1, left, budget = state
        done = (b - a <= tol) | (left == 0)
        if done.any():
            out[rows[done]] = 0.5 * (a[done] + b[done])
            keep = ~done
            rows, P, U = rows[keep], P[keep], U[keep] if len(U) > 1 else U
            a, b, ga, gb, s, k1, left, budget = (arr[keep] for arr in state)
        if not rows.size:
            return out
        w = b - a
        mid = 0.5 * (a + b)
        x_f = a + w * (ga / (ga - gb))
        sigma = np.sign(mid - x_f)
        # (k1 * w) <= 0.2 comes first, so w * w cannot overflow; the floor
        # keeps an endpoint with g = 0 exactly from stalling the far one
        delta = np.maximum(k1 * w * w, 0.5 * tol)
        x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
        radius = np.maximum(budget - 0.5 * w, 0.0)
        x = np.where(np.abs(x_t - mid) <= radius, x_t, mid - sigma * radius)
        pts = x[:, None] * U
        pts += P   # in place: one (rows, dim) temporary per pass
        g = s * values(pts)
        cross = g <= 0.0
        state = (np.where(cross, a, x), np.where(cross, x, b), np.where(cross, ga, g),
                 np.where(cross, g, gb), s, k1, left - 1, 0.5 * budget)


class NonFiniteValue(ValueError):
    """An oracle returned NaN or an infinity."""


def _finite(out: np.ndarray, points: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(out).all():
        i = int(np.argmin(np.isfinite(out.reshape(len(points), -1)).all(axis=1)))
        raise NonFiniteValue(f"{what} is not finite at {points[i].tolist()}")
    return out


@dataclass(frozen=True)
class Scales:
    """Sampling scales of the certification pipeline, carried by the oracle.

    The plain route and the signed-distance route run the same construction
    with these values; besides them, only the signed distance's oracle
    itself (its gradient, its value noise) differs.  A ``None`` scale takes
    its default relative to 1 + |x| at the point under test
    (``dd_stab_tol``: the config's ``tol_value``).  ``dd_budget`` caps the
    config's ``sample_budget`` for the directional-derivative ladder alone;
    None leaves it uncapped.  ``lipschitz`` is a Lipschitz constant the
    route knows by theorem, which ``local_lipschitz_constant`` returns
    without sampling; None samples it.
    """

    dd_delta0: float | None = None          # first directional-derivative scale
    dd_delta_floor: float | None = None     # smallest directional-derivative scale
    dd_stab_tol: float | None = None        # agreement that ends the ladder
    dd_budget: int | None = None            # cap on the ladder's sample budget
    t_min_fraction: float = 1e-4            # shortest descent-radius step, over 2r
    lipschitz: float | None = None          # Lipschitz constant known by theorem


PLAIN = Scales()


@dataclass(frozen=True, eq=False)
class FunctionOracle:
    """Locally Lipschitz function given by batch evaluation.

    eval: (n, dim) -> (n,).  grad: (n, dim) -> (n, dim) is required, and is
    trusted only away from the nonsmooth locus; estimators that need
    derivatives at kink points use difference quotients instead.  The
    signed distance also reads grad at the feet of its rays, points of the
    boundary of M; at a kink there, a branch gradient is one element of
    Clarke's generalized gradient.
    lipschitz_hint, when present, is an analytic bound on the local Lipschitz
    constant near the region of interest and is cross-checked rather than
    believed outright; a constant known by theorem is scales.lipschitz
    instead, and is not sampled.  value_noise declares how far eval may sit
    from the ideal function it stands for (0 for closed forms; the probe
    resolution for estimated oracles); magnitude-sensitive checks add it to
    their tolerance.  Every pipeline stage samples f at f.scales.  values and
    gradients raise NonFiniteValue on NaN or infinity, and gradients also on
    a row whose norm overflows, naming the first such point.  sign, when present,
    is a cheaper (n, dim) -> (n,) query for f's membership codes, with
    exactly eval's signs (0 in the band); membership_codes and lambda's root
    finding ask it instead of eval; on +-1 codes the regula falsi point of
    itp_crossings is the midpoint.

    f is a row-wise point function: each row's value depends on that row
    alone, bit for bit, never on the rest of its batch, so a caller may
    split a batch or join batches and get the same values.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz_hint: float | None = None
    descriptor: str = ""
    value_noise: float = 0.0
    scales: Scales = PLAIN
    sign: Callable[[np.ndarray], np.ndarray] | None = None

    def values(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self.eval(points), dtype=float)
        if out.shape != (points.shape[0],):
            raise ValueError(
                f"oracle returned shape {out.shape}, expected ({points.shape[0]},)"
            )
        return _finite(out, points, "f")

    def signs(self, points: np.ndarray) -> np.ndarray:
        """Values with the sign of f at each point: f.sign if set, else f.values."""
        return self.values(points) if self.sign is None else self.sign(points)

    def value(self, point: np.ndarray) -> float:
        return float(self.values(np.asarray(point, dtype=float)[None, :])[0])

    def gradients(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        g = np.asarray(self.grad(points), dtype=float)
        if g.shape != points.shape:
            raise ValueError(f"grad returned shape {g.shape}")
        _finite(g, points, "the gradient of f")
        # a finite gradient whose norm overflows cannot be normalised or hulled
        with np.errstate(over="ignore"):
            _finite(np.linalg.norm(g, axis=1), points, "the norm of the gradient of f")
        return g


def require_integer(value: Any, name: str) -> Any:
    """value itself if it is an integer (numpy integers count, bool does not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def require_number(value: Any, name: str) -> float:
    """float(value) for a finite int or float (numpy scalars count, bool does not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:   # an int past the float range
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"{name} is non-finite: {value!r}")
    return out


def require_vector(value: Any, dim: int, name: str) -> np.ndarray:
    """A (dim,) array from a list of dim finite numbers, else ValueError."""
    try:
        if not isinstance(value, list):
            raise ValueError("not a list")
        out = np.array([require_number(c, "an entry") for c in value], dtype=float)
    except ValueError as exc:
        raise ValueError(f"{name} must be a list of numbers, got {value!r} ({exc})") from None
    if out.shape != (dim,):
        raise ValueError(f"{name} has shape {out.shape}, expected ({dim},)")
    return out


@dataclass(frozen=True)
class NumericConfig:
    """Tolerances and budgets shared across the pipeline.

    ``shrink_factor``, the ratio between consecutive scales of the
    derivative ladder and the descent radius, is a constant, not a field.
    """

    tol_bisect: float = 1e-10
    tol_value: float = 1e-9
    sample_budget: int = 4096
    rng_seed: int = 0
    shrink_factor: ClassVar[float] = 0.5

    def __post_init__(self) -> None:
        require_integer(self.sample_budget, "sample_budget")
        require_integer(self.rng_seed, "rng_seed")
        for name in ("tol_bisect", "tol_value"):
            require_number(getattr(self, name), name)
        if not (self.tol_bisect > 0 and self.tol_value > 0):
            raise ValueError("tolerances must be positive")
        if not (self.sample_budget >= 16):
            raise ValueError("sample_budget too small")
        if self.sample_budget > np.iinfo(np.int64).max:   # past what numpy can index
            raise ValueError("sample_budget too large")

    def rng(self, *labels: Any) -> np.random.Generator:
        return stream_rng(self.rng_seed, *labels)


def band_codes(vals: np.ndarray, cfg: NumericConfig) -> np.ndarray:
    """-1 at values <= -tol_value, +1 at values >= tol_value, else 0 (int8)."""
    out = np.zeros(vals.shape, dtype=np.int8)
    out[vals <= -cfg.tol_value] = -1
    out[vals >= cfg.tol_value] = 1
    return out


def membership_codes(f: FunctionOracle, points: np.ndarray, cfg: NumericConfig) -> np.ndarray:
    """-1 inside, 0 within the value tolerance band, +1 outside (int8):
    f.sign's answer if present (banding its codes again would zero them once
    tol_value >= 1), else f's values banded."""
    if f.sign is not None:
        return f.sign(points)
    return band_codes(f.values(points), cfg)


@dataclass(frozen=True, eq=False)
class ReferenceData:
    """Optional analytic ground truth attached to a catalog entry.

    Only ever consumed by tests and diagnostics; the certification pipeline
    itself must work from the oracle alone.
    """

    witness_point: np.ndarray | None = None
    witness_direction: np.ndarray | None = None
    directional_derivative_at_witness: float | None = None
    # per boundary point: (point, closed form (Y, v) -> crossing heights for
    # descent direction v), used to cross-check computed lambda against the
    # direction actually certified
    lambda_forms: tuple[tuple[np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]], ...] = ()
    subdifferential: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
    lipschitz_on_ball: Callable[[float], float] | None = None
    smooth_points: tuple[np.ndarray, ...] = ()

    def _lookup(self, table, point: np.ndarray, atol: float):
        p = np.asarray(point, dtype=float)
        for where, payload in table:
            if np.allclose(where, p, atol=atol):
                return payload
        return None

    def subdifferential_at(self, point: np.ndarray, atol: float = 1e-9) -> np.ndarray | None:
        got = self._lookup(self.subdifferential, point, atol)
        return None if got is None else np.asarray(got, dtype=float)

    def lambda_form_at(self, point: np.ndarray, atol: float = 1e-9) -> Callable[[np.ndarray, np.ndarray], np.ndarray] | None:
        return self._lookup(self.lambda_forms, point, atol)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A set M = {f <= 0} in a normed space, plus boundary points of interest."""

    space: NormedSpace
    f: FunctionOracle
    boundary_points: tuple[np.ndarray, ...] = ()
    reference: ReferenceData | None = None
    label: str = ""

    def __post_init__(self) -> None:
        for p in self.boundary_points:
            if np.asarray(p).shape != (self.space.dim,):
                raise ValueError(f"boundary point shape {np.asarray(p).shape}")


def sample_ball(
    space: NormedSpace,
    center: np.ndarray,
    radius: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """n points of the open ball B(center, radius), center first.

    The tail of the batch (about one eighth) is pushed out near the shell,
    norms in (0.9, 1) times radius, because worst cases for Lipschitz and
    ray checks live near the boundary and plain uniform sampling in higher
    dimension rarely lands there under sup or one norms.
    """
    center = np.asarray(center, dtype=float)
    d = space.dim
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty((n, d))
    out[0] = center
    if n == 1:
        return out
    m = n - 1
    pts = space.uniform_ball(m, rng)
    pts *= 0.999  # keep strictly interior
    k = max(1, math.ceil(n / 8))
    k = min(k, m)
    shell = rng.uniform(0.901, 0.998, k)
    norms = space.norm(pts[-k:])
    norms = np.maximum(norms, 1e-300)
    pts[-k:] = pts[-k:] / norms[:, None] * shell[:, None]
    out[1:] = center + radius * pts
    return out


def pair_quotients(
    space: NormedSpace, g: Callable[[np.ndarray], np.ndarray],
    A: np.ndarray, B: np.ndarray, min_sep: float,
) -> np.ndarray:
    """|g(a) - g(b)| / |a - b| over the row pairs (a, b) of A and B more than
    min_sep apart.  g sees only those rows (one call per side), and is not
    called at all when no pair qualifies."""
    sep = space.norm(A - B)
    ok = sep > min_sep
    if not np.any(ok):
        return np.zeros(0)
    return np.abs(g(A[ok]) - g(B[ok])) / sep[ok]


def _numpy_to_json(obj: Any) -> Any:
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Stable serialisation: sorted keys, no whitespace, numpy values as plain
    lists and numbers, ValueError on NaN or infinity.  Same input, same bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      default=_numpy_to_json)


def internal_verify_seed(seed: int) -> int:
    """Derived seed for the self-check pass after certification.

    Must differ from the build seed (checked by the verifier) while staying a
    pure function of it so runs stay reproducible end to end.
    """
    # a * s + c == s (mod 2**63) would make the even (a - 1) * s equal the odd
    # -c, so no seed in [0, 2**63) maps to itself; other seeds are out of range
    return (int(seed) * 6364136223846793005 + 1442695040888963407) % (2**63)
