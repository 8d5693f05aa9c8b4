"""Built-in instance catalog.

Seven fixed two-dimensional instances plus two parametric families:
rockafellar_<d> on R^(d+1) and orthant_<d> on R^d.
Each entry carries analytic reference data (closed-form crossing heights,
subdifferentials, Lipschitz constants) so tests can compare the sampled
pipeline against ground truth.  Boundary points are exact zeros of the
defining functions.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np

from .core import FunctionOracle, NormedSpace, ProblemInstance, ReferenceData
from .expressions import compile_expression

__all__ = [
    "CatalogEntry",
    "FIXED_IDS",
    "load",
    "list_catalog",
    "rockafellar_truncation",
]


@dataclasses.dataclass(frozen=True, eq=False)
class CatalogEntry:
    id: str
    instance: ProblemInstance
    certifiable_at: tuple[np.ndarray, ...]   # boundary points expected to certify
    degenerate_at: tuple[np.ndarray, ...]    # boundary points expected to fail nondegeneracy

    @property
    def reference(self) -> ReferenceData | None:
        return self.instance.reference


def _entry(cid: str, space: NormedSpace, f: FunctionOracle, ref: ReferenceData,
           certifiable: tuple[np.ndarray, ...],
           degenerate: tuple[np.ndarray, ...] = ()) -> CatalogEntry:
    """Entry labelled cid whose instance declares every listed point."""
    inst = ProblemInstance(space=space, f=f, boundary_points=certifiable + degenerate,
                           reference=ref, label=cid)
    return CatalogEntry(cid, inst, certifiable_at=certifiable, degenerate_at=degenerate)


def _pt(*coords: float) -> np.ndarray:
    return np.asarray(coords, dtype=float)


def _ball_lambda(center: np.ndarray):
    """Crossing height into a euclidean unit ball centered at `center`.

    Smaller root of |y + t v - center| = 1 in t, for unit v aimed inward.
    """
    c = np.asarray(center, dtype=float)

    def form(Y: np.ndarray, v: np.ndarray) -> np.ndarray:
        S = np.atleast_2d(Y) - c[None, :]
        b = S @ v
        disc = b * b - np.sum(S * S, axis=1) + 1.0
        return -b - np.sqrt(disc)

    return form


def _expr_oracle(expr, dim: int, hint: float | None) -> FunctionOracle:
    f = compile_expression(expr, dim)
    if hint is not None:
        f = dataclasses.replace(f, lipschitz_hint=hint)
    return f


def _halfspace() -> CatalogEntry:
    space = NormedSpace(2, "euclidean")
    f = _expr_oracle("x1", 2, 1.0)
    x0 = _pt(0.0, 0.0)
    ref = ReferenceData(
        witness_point=x0,
        witness_direction=_pt(-1.0, 0.0),
        directional_derivative_at_witness=-1.0,
        lambda_forms=((x0, lambda Y, v: np.atleast_2d(Y)[:, 0] / (-v[0])),),
        subdifferential=((x0, np.array([[1.0, 0.0]])),),
        lipschitz_on_ball=lambda r: 1.0,
        smooth_points=(_pt(0.2, -0.3), _pt(-0.5, 0.1)),
    )
    return _entry("halfspace", space, f, ref, (x0,))


def _unit_ball_euclid() -> CatalogEntry:
    space = NormedSpace(2, "euclidean")
    f = _expr_oracle(["-", ["norm2", "x1", "x2"], 1], 2, 1.0)
    p1 = _pt(1.0, 0.0)
    p2 = _pt(0.0, -1.0)
    ball = _ball_lambda(_pt(0.0, 0.0))
    ref = ReferenceData(
        witness_point=p1,
        witness_direction=_pt(-1.0, 0.0),
        directional_derivative_at_witness=-1.0,
        lambda_forms=((p1, ball), (p2, ball)),
        subdifferential=(
            (p1, np.array([[1.0, 0.0]])),
            (p2, np.array([[0.0, -1.0]])),
        ),
        lipschitz_on_ball=lambda r: 1.0,
        smooth_points=(p1, _pt(0.6, 0.1)),
    )
    return _entry("unit_ball_euclid", space, f, ref, (p1, p2))


def _box_sup() -> CatalogEntry:
    space = NormedSpace(2, "sup")
    f = _expr_oracle(["-", ["max", ["abs", "x1"], ["abs", "x2"]], 1], 2, 1.0)
    p1 = _pt(1.0, 0.3)
    p2 = _pt(-1.0, 0.0)
    ref = ReferenceData(
        witness_point=p1,
        witness_direction=_pt(-1.0, 0.0),
        directional_derivative_at_witness=-1.0,
        lambda_forms=(
            # entry through the x1 = +1 face, resp. the x1 = -1 face
            (p1, lambda Y, v: (np.atleast_2d(Y)[:, 0] - 1.0) / (-v[0])),
            (p2, lambda Y, v: (-1.0 - np.atleast_2d(Y)[:, 0]) / v[0]),
        ),
        subdifferential=(
            (p1, np.array([[1.0, 0.0]])),
            (p2, np.array([[-1.0, 0.0]])),
        ),
        lipschitz_on_ball=lambda r: 1.0,
        smooth_points=(p1, _pt(0.2, -0.9)),
    )
    return _entry("box_sup", space, f, ref, (p1, p2))


def _max_two_planes() -> CatalogEntry:
    space = NormedSpace(2, "euclidean")
    f = _expr_oracle(["max", "x1", "x2"], 2, 1.0)
    p1 = _pt(0.0, 0.0)
    p2 = _pt(-0.7, 0.0)
    s = 1.0 / math.sqrt(2.0)
    ref = ReferenceData(
        witness_point=p1,
        witness_direction=_pt(-s, -s),
        directional_derivative_at_witness=-s,
        lambda_forms=(
            # at the kink both branches bind; away from it only x2 does
            (p1, lambda Y, v: np.maximum(np.atleast_2d(Y)[:, 0] / (-v[0]),
                                         np.atleast_2d(Y)[:, 1] / (-v[1]))),
            (p2, lambda Y, v: np.atleast_2d(Y)[:, 1] / (-v[1])),
        ),
        subdifferential=(
            (p1, np.array([[1.0, 0.0], [0.0, 1.0]])),
            (p2, np.array([[0.0, 1.0]])),
        ),
        lipschitz_on_ball=lambda r: 1.0,
        smooth_points=(_pt(0.5, -0.2), _pt(-0.7, 0.0)),
    )
    return _entry("max_two_planes", space, f, ref, (p1, p2))


def _union_balls() -> CatalogEntry:
    space = NormedSpace(2, "euclidean")
    f = _expr_oracle(
        ["-", ["min",
               ["norm2", ["-", "x1", 1.5], "x2"],
               ["norm2", ["+", "x1", 1.5], "x2"]], 1],
        2, 1.0,
    )
    p1 = _pt(0.5, 0.0)
    p2 = _pt(2.5, 0.0)
    right = _ball_lambda(_pt(1.5, 0.0))
    ref = ReferenceData(
        witness_point=p1,
        witness_direction=_pt(1.0, 0.0),
        directional_derivative_at_witness=-1.0,
        lambda_forms=((p1, right), (p2, right)),
        subdifferential=(
            (p1, np.array([[-1.0, 0.0]])),
            (p2, np.array([[1.0, 0.0]])),
        ),
        lipschitz_on_ball=lambda r: 1.0,
        smooth_points=(p1, p2),
    )
    return _entry("union_balls", space, f, ref, (p1, p2))


def _singleton_sq() -> CatalogEntry:
    space = NormedSpace(2, "euclidean")
    f = _expr_oracle(["+", ["sqr", "x1"], ["sqr", "x2"]], 2, None)
    x0 = _pt(0.0, 0.0)
    ref = ReferenceData(
        subdifferential=((x0, np.array([[0.0, 0.0]])),),
        smooth_points=(_pt(0.3, 0.4), x0),
    )
    return _entry("singleton_sq", space, f, ref, (), (x0,))


def _abs_wall() -> CatalogEntry:
    space = NormedSpace(2, "euclidean")
    f = _expr_oracle(["abs", "x1"], 2, 1.0)
    x0 = _pt(0.0, 0.0)
    ref = ReferenceData(
        subdifferential=((x0, np.array([[-1.0, 0.0], [1.0, 0.0]])),),
        smooth_points=(_pt(0.5, 0.1), _pt(-0.3, 0.7)),
    )
    return _entry("abs_wall", space, f, ref, (), (x0,))


def rockafellar_truncation(d: int) -> CatalogEntry:
    """f(xi, t) = sum_j j*xi_j^2 - t on R^(d+1), boundary point the origin.

    Smooth, with gradient (2 j xi_j, -1); the vertical direction is a descent
    direction with derivative exactly -1, while the curvature (and so the
    local Lipschitz constant) grows linearly with d.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    space = NormedSpace(d + 1, "euclidean")
    j = np.arange(1, d + 1, dtype=float)

    def ev(P: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(P)
        return np.sum(j[None, :] * P[:, :d] ** 2, axis=1) - P[:, d]

    def gr(P: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(P)
        G = np.empty_like(P)
        G[:, :d] = 2.0 * j[None, :] * P[:, :d]
        G[:, d] = -1.0
        return G

    f = FunctionOracle(eval=ev, grad=gr,
                       descriptor=f"(rockafellar {d})")
    x0 = np.zeros(d + 1)
    vref = np.zeros(d + 1)
    vref[d] = 1.0

    def lam(Y: np.ndarray, v: np.ndarray) -> np.ndarray:
        # smaller root of the quadratic f(y + t v) = 0, in the form that
        # stays stable as the leading coefficient vanishes
        Y = np.atleast_2d(Y)
        a = float(np.sum(j * v[:d] ** 2))
        b = 2.0 * (Y[:, :d] * j[None, :]) @ v[:d] - v[d]
        c = ev(Y)
        disc = np.sqrt(b * b - 4.0 * a * c)
        return 2.0 * c / (-b + disc)

    smooth = np.full(d + 1, 0.1)
    smooth[d] = 0.2
    ref = ReferenceData(
        witness_point=x0,
        witness_direction=vref,
        directional_derivative_at_witness=-1.0,
        lambda_forms=((x0, lam),),
        subdifferential=((x0, np.concatenate([np.zeros(d), [-1.0]])[None, :]),),
        lipschitz_on_ball=lambda r: math.sqrt(4.0 * d * d * r * r + 1.0),
        smooth_points=(x0, smooth),
    )
    return _entry(f"rockafellar_{d}", space, f, ref, (x0,))


def _orthant(d: int) -> CatalogEntry:
    """f(x) = max(x1, ..., xd) on R^d, boundary point the origin.

    M is the negative orthant, a cone whose descent directions at 0 are the
    v with every coordinate negative, so no signed axis from a point of the
    open positive orthant reaches it; lambda along such a unit v is
    max_i(y_i / -v_i).
    """
    space = NormedSpace(d, "euclidean")
    f = _expr_oracle(["max", *(f"x{j + 1}" for j in range(d))], d, 1.0)
    x0 = np.zeros(d)
    ref = ReferenceData(
        lambda_forms=((x0, lambda Y, v: np.max(np.atleast_2d(Y) / -v, axis=1)),),
    )
    return _entry(f"orthant_{d}", space, f, ref, (x0,))


_FIXED_BUILDERS = {
    "halfspace": _halfspace,
    "unit_ball_euclid": _unit_ball_euclid,
    "box_sup": _box_sup,
    "max_two_planes": _max_two_planes,
    "union_balls": _union_balls,
    "singleton_sq": _singleton_sq,
    "abs_wall": _abs_wall,
}

FIXED_IDS = tuple(_FIXED_BUILDERS)

_FAMILIES = (
    (re.compile(r"^rockafellar_([1-9][0-9]*)$"), rockafellar_truncation),
    (re.compile(r"^orthant_([1-9][0-9]*)$"), _orthant),
)


def load(entry_id: str) -> CatalogEntry:
    if entry_id in _FIXED_BUILDERS:
        return _FIXED_BUILDERS[entry_id]()
    for pattern, build in _FAMILIES:
        m = pattern.match(entry_id)
        if m:
            return build(int(m.group(1)))
    raise KeyError(f"unknown catalog id: {entry_id!r}")


def list_catalog() -> list[dict]:
    rows = []
    for cid in FIXED_IDS:
        e = _FIXED_BUILDERS[cid]()
        rows.append({
            "id": cid,
            "dim": e.instance.space.dim,
            "norm": e.instance.space.norm_kind,
            "certifiable_points": len(e.certifiable_at),
            "degenerate_points": len(e.degenerate_at),
        })
    rows.append({
        "id": "rockafellar_<d>",
        "dim": "d+1",
        "norm": "euclidean",
        "certifiable_points": 1,
        "degenerate_points": 0,
    })
    rows.append({
        "id": "orthant_<d>",
        "dim": "d",
        "norm": "euclidean",
        "certifiable_points": 1,
        "degenerate_points": 0,
    })
    return rows
