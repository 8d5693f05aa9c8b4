"""Instance file parsing: catalog references, expressions, config overrides."""

import json

import numpy as np
import pytest

from epicert.catalog import load
from epicert.instancefile import InstanceSpecError, load_instance_file, parse_instance


def test_catalog_reference_round_trip():
    inst, cfg = parse_instance({"function": {"catalog_id": "halfspace"}})
    assert inst.label == "halfspace"
    assert inst.space.dim == 2
    assert cfg.rng_seed == 0  # defaults when no config section
    assert inst.reference is not None


def test_catalog_reference_with_matching_space_ok():
    inst, _ = parse_instance({
        "function": {"catalog_id": "box_sup"},
        "space": {"dim": 2, "norm": "sup"},
    })
    assert inst.space.norm_kind == "sup"


def test_catalog_reference_space_conflict():
    with pytest.raises(InstanceSpecError, match="conflict"):
        parse_instance({
            "function": {"catalog_id": "halfspace"},
            "space": {"dim": 3, "norm": "euclidean"},
        })


def test_catalog_boundary_point_override():
    inst, _ = parse_instance({
        "function": {"catalog_id": "halfspace"},
        "boundary_points": [[0.0, 0.5]],
    })
    assert len(inst.boundary_points) == 1
    np.testing.assert_array_equal(inst.boundary_points[0], [0.0, 0.5])
    # the entry itself is untouched
    assert len(load("halfspace").instance.boundary_points) != 0


def test_expression_instance():
    inst, cfg = parse_instance({
        "space": {"dim": 2, "norm": "euclidean"},
        "function": {"expression": ["-", ["norm2", "x1", "x2"], 1],
                     "lipschitz_hint": 1.0},
        "boundary_points": [[1.0, 0.0]],
        "label": "disc",
    })
    assert inst.label == "disc"
    assert inst.f.lipschitz_hint == 1.0
    assert inst.f.value(np.array([1.0, 0.0])) == 0.0


def test_config_overrides():
    _, cfg = parse_instance({
        "function": {"catalog_id": "halfspace"},
        "config": {"rng_seed": 9, "sample_budget": 512},
    })
    assert cfg.rng_seed == 9
    assert cfg.sample_budget == 512


@pytest.mark.parametrize(
    "data,needle",
    [
        ({}, "function"),
        ({"function": {}}, "catalog_id or expression"),
        ({"function": {"catalog_id": "zorp"}}, "zorp"),
        ({"function": {"expression": "x1"}}, "space"),
        ({"space": {"dim": 2}, "function": {"expression": "x1"}}, "boundary_points"),
        ({"space": {"dim": 2, "norm": "weird"},
          "function": {"expression": "x1"},
          "boundary_points": [[0, 0]]}, "norm"),
        ({"space": {"dim": 0}, "function": {"expression": "x1"},
          "boundary_points": []}, "dim"),
        ({"function": {"catalog_id": "halfspace"},
          "boundary_points": [[0.0, 0.0, 0.0]]}, "shape"),
        ({"function": {"catalog_id": "halfspace"},
          "config": {"bogus_knob": 1}}, "bogus_knob"),
        ({"function": {"catalog_id": "halfspace"},
          "config": {"tol_bisect": -1.0}}, "config"),
        ({"function": {"catalog_id": "halfspace"}, "config": 7}, "config"),
        ({"space": {"dim": 2.7}, "function": {"expression": "x1"},
          "boundary_points": [[0.0, 0.0]]}, "dim"),
        ({"space": {"dim": "2"}, "function": {"expression": "x1"},
          "boundary_points": [[0.0, 0.0]]}, "dim"),
        ({"space": {"dim": True}, "function": {"expression": "x1"},
          "boundary_points": [[0.0]]}, "dim"),
        ({"space": {"dim": 2}, "function": {"expression": ["frob", "x1"]},
          "boundary_points": [[0.0, 0.0]]}, "unknown operator 'frob'"),
        ({"space": {"dim": 2}, "function": {"expression": ["abs", "x1", "x2"]},
          "boundary_points": [[0.0, 0.0]]}, "abs got 2 arguments"),
        ({"space": {"dim": 2}, "function": {"expression": "nan"},
          "boundary_points": [[0.0, 0.0]]}, "bad atom"),
        ({"space": {"dim": 1}, "function": {"expression": "x2"},
          "boundary_points": [[0.0]]}, "out of range"),
        ({"space": {"dim": 2}, "function": {"expression": "x1"},
          "boundary_points": 5}, "boundary_points must be a list"),
        ({"space": {"dim": 2}, "function": {"expression": "x1"},
          "boundary_points": [["a", 0]]}, "boundary point 0 must be a list of numbers"),
        ({"space": {"dim": 2}, "function": {"expression": "x1"},
          "boundary_points": [[True, 0]]}, "boundary point 0 must be a list of numbers"),
        ({"function": {"catalog_id": "halfspace"}, "boundary_points": 5},
         "boundary_points must be a list"),
        *(({"space": {"dim": 2}, "function": {"expression": "x1", "lipschitz_hint": hint},
            "boundary_points": [[0.0, 0.0]]}, "lipschitz_hint")
          for hint in ("abc", [1], True, -1, -0.5, float("nan"))),
        # keys the parser would ignore are refused, naming them
        ({"function": {"catalog_id": "halfspace", "lipschitz_hint": 0.1}},
         r"unknown function keys for catalog_id: \['lipschitz_hint'\]"),
        ({"function": {"catalog_id": "halfspace", "expression": "x1"}},
         r"unknown function keys for catalog_id: \['expression'\]"),
        ({"space": {"dim": 2}, "function": {"expression": "x1", "lipschitz": 1.0},
          "boundary_points": [[0.0, 0.0]]},
         r"unknown function keys for expression: \['lipschitz'\]"),
        ({"function": {"catalog_id": "halfspace"}, "boundary_point": [[0.0, 0.5]]},
         r"unknown top-level keys: \['boundary_point'\]"),
        ({"space": {"dim": 2}, "function": {"expression": "x1"},
          "boundary_points": [[0.0, 0.0]], "scales": {}, "lipschitz": 1.0},
         r"unknown top-level keys: \['lipschitz', 'scales'\]"),
        ({"function": {"catalog_id": "halfspace"}, "label": "mine"},
         "label is for expression instances"),
    ],
)
def test_bad_instance_data(data, needle):
    with pytest.raises(InstanceSpecError, match=needle):
        parse_instance(data)


@pytest.mark.parametrize("field", ["tol_bisect", "tol_value"])
def test_config_string_tolerance_names_the_field(field):
    with pytest.raises(InstanceSpecError, match=f"{field} must be a number, got '1e-3'"):
        parse_instance({"function": {"catalog_id": "halfspace"}, "config": {field: "1e-3"}})


def test_load_instance_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "function": {"catalog_id": "unit_ball_euclid"},
        "config": {"rng_seed": 3},
    }))
    inst, cfg = load_instance_file(path)
    assert inst.label == "unit_ball_euclid"
    assert cfg.rng_seed == 3


def test_load_instance_file_errors(tmp_path):
    with pytest.raises(InstanceSpecError, match="cannot read"):
        load_instance_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InstanceSpecError, match="invalid JSON"):
        load_instance_file(bad)
