"""Instance files: JSON descriptions of a problem to certify.

Layout:

    {
      "space": {"dim": 2, "norm": "euclidean"},      optional with catalog_id
      "function": {"expression": ["max", "x1", "x2"],
                   "lipschitz_hint": 1.0}            or {"catalog_id": "..."}
      "boundary_points": [[0.0, 0.0]],               optional with catalog_id
      "config": {"rng_seed": 7}                      optional, NumericConfig fields
      "label": "disc"                                optional with expression only
    }

Catalog references inherit the entry's space, points, reference data and
label (the catalog id, so a label key beside catalog_id is refused);
explicit boundary_points replace the entry's list.  Any other key, at the
top level or in the function section, is refused.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import catalog
from .core import (FunctionOracle, NormedSpace, NumericConfig, ProblemInstance,
                   require_integer, require_number, require_vector)
from .expressions import ExpressionError, compile_expression

__all__ = ["InstanceSpecError", "parse_json", "parse_instance", "load_instance_file"]


class InstanceSpecError(ValueError):
    pass


TOP_KEYS = {"space", "function", "boundary_points", "config", "label"}
# the function section's keys, by the key that picks its form
FUNCTION_KEYS = {"catalog_id": {"catalog_id"}, "expression": {"expression", "lipschitz_hint"}}


def parse_json(text: str):
    """json.loads that refuses NaN, Infinity, overflowing numbers and deep nesting."""
    def finite(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {token}")
        return value

    def integer(token: str) -> int:
        finite(token)  # an integer past the float range overflows every float use
        return int(token)
    try:
        return json.loads(text, parse_float=finite, parse_constant=finite, parse_int=integer)
    except RecursionError as exc:
        raise ValueError(f"nested too deeply: {exc}") from None


def _parse_space(data: dict) -> NormedSpace:
    try:
        return NormedSpace(require_integer(data["dim"], "dim"), str(data.get("norm", "euclidean")))
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceSpecError(f"bad space section: {exc}") from exc


def _parse_points(raw, dim: int) -> tuple[np.ndarray, ...]:
    if not isinstance(raw, list):
        raise InstanceSpecError(f"boundary_points must be a list of points, got {raw!r}")
    try:
        return tuple(require_vector(row, dim, f"boundary point {i}") for i, row in enumerate(raw))
    except ValueError as exc:
        raise InstanceSpecError(str(exc)) from None


def parse_instance(data: dict) -> tuple[ProblemInstance, NumericConfig]:
    """Build (instance, config) from parsed JSON."""
    if not isinstance(data, dict):
        raise InstanceSpecError("instance file must hold a JSON object")
    unknown = set(data) - TOP_KEYS
    if unknown:
        raise InstanceSpecError(f"unknown top-level keys: {sorted(unknown)}")
    fn = data.get("function")
    if not isinstance(fn, dict):
        raise InstanceSpecError("missing function section")
    form = next((key for key in FUNCTION_KEYS if key in fn), None)
    if form is None:
        raise InstanceSpecError("function section needs catalog_id or expression")
    unknown = set(fn) - FUNCTION_KEYS[form]
    if unknown:
        raise InstanceSpecError(f"unknown function keys for {form}: {sorted(unknown)}")

    if form == "catalog_id":
        if "label" in data:
            raise InstanceSpecError("label is for expression instances; a catalog_id "
                                    "instance is labelled by its catalog id")
        try:
            inst = catalog.load(str(fn["catalog_id"])).instance
        except KeyError as exc:
            raise InstanceSpecError(exc.args[0]) from exc
        if "space" in data:
            declared = _parse_space(data["space"])
            if (declared.dim, declared.norm_kind) != (inst.space.dim, inst.space.norm_kind):
                raise InstanceSpecError(
                    f"space {declared.dim}/{declared.norm_kind} conflicts with catalog "
                    f"entry {inst.space.dim}/{inst.space.norm_kind}"
                )
        if "boundary_points" in data:
            pts = _parse_points(data["boundary_points"], inst.space.dim)
            inst = dataclasses.replace(inst, boundary_points=pts)
    else:
        if "space" not in data:
            raise InstanceSpecError("expression instances need a space section")
        space = _parse_space(data["space"])
        try:
            oracle: FunctionOracle = compile_expression(fn["expression"], space.dim)
        except ExpressionError as exc:
            raise InstanceSpecError(f"bad expression: {exc}") from exc
        hint = fn.get("lipschitz_hint")
        if hint is not None:
            try:
                hint = require_number(hint, "lipschitz_hint")
            except ValueError as exc:
                raise InstanceSpecError(str(exc)) from None
            if not hint >= 0:
                raise InstanceSpecError(f"lipschitz_hint must be a number >= 0, got {hint!r}")
            oracle = dataclasses.replace(oracle, lipschitz_hint=hint)
        if "boundary_points" not in data:
            raise InstanceSpecError("expression instances need boundary_points")
        pts = _parse_points(data["boundary_points"], space.dim)
        inst = ProblemInstance(
            space=space, f=oracle, boundary_points=pts,
            label=str(data.get("label", "instance")),
        )

    cfg_fields = data.get("config", {})
    if not isinstance(cfg_fields, dict):
        raise InstanceSpecError("config section must be an object")
    known = {f.name for f in dataclasses.fields(NumericConfig)}
    unknown = set(cfg_fields) - known
    if unknown:
        raise InstanceSpecError(f"unknown config fields: {sorted(unknown)}")
    try:
        cfg = NumericConfig(**cfg_fields)
    except (TypeError, ValueError) as exc:
        raise InstanceSpecError(f"bad config: {exc}") from exc
    return inst, cfg


def load_instance_file(path: str | Path) -> tuple[ProblemInstance, NumericConfig]:
    try:
        data = parse_json(Path(path).read_text())
    except OSError as exc:
        raise InstanceSpecError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise InstanceSpecError(f"invalid JSON in {path}: {exc}") from exc
    return parse_instance(data)
