"""Fuzzed certificate and instance files through cli.main.

Whatever the file holds, the command ends in one of the documented exit
codes (0 to 4), and stderr is either empty or exactly one JSON line; a
non-number in a scalar certificate field is always exit 1, and a stored
sample list of the wrong length or another confidence exit 3.  The last
property parses deeply nested expression instances directly.
"""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from epicert import cli
from epicert.core import NonFiniteValue
from epicert.instancefile import InstanceSpecError, parse_instance

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=200,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])

# JSON integers have no size limit, so some leaves lie past the float range
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400)
    | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Magnitudes are bounded only where the cost of a run grows with them: a
# budget above 1e5 samples or a tolerance below 1e-12 would make a single
# example slow, not wrong.  Every type and every other value stays open.
def affordable(config: dict) -> bool:
    budget = config.get("sample_budget")
    if is_number(budget) and budget > 1e5:
        return False
    return not any(is_number(config.get(name)) and 0 < config[name] < 1e-12
                   for name in ("tol_bisect", "tol_value"))


# shrink_factor is a constant, not a field: a config that sets it is refused
CONFIG_FIELDS = ("tol_bisect", "tol_value", "sample_budget", "shrink_factor", "rng_seed")
# numbers weighted up: values in range, so that a fair share of the examples run
# a whole certify, and integers past the float range
config_values = (st.floats(0.0, 1.0) | st.integers(0, 10**5) | st.integers(2**1024, 10**400)
                 | json_values)
configs = st.dictionaries(st.sampled_from(CONFIG_FIELDS), config_values).filter(affordable)

CERTIFICATE_FIELDS = ("instance", "x", "v", "alpha", "r", "k", "epsilon", "phi_weights",
                      "lipschitz_bound", "measured_lipschitz", "tol_bisect", "lambda_samples",
                      "lemma_report", "overall", "confidence", "seed")


@functools.lru_cache(maxsize=None)
def halfspace_certificate() -> str:
    code, out, _ = run_cli("certify", "--catalog", "halfspace", "--seed", "42")
    assert code == 0
    return out


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_contract(code: int, err: str) -> None:
    assert code in range(5), code
    lines = err.splitlines()
    assert len(lines) <= 1, err
    if lines:
        json.loads(lines[0])


@FUZZ
@given(field=st.sampled_from(CERTIFICATE_FIELDS), value=json_values)
def test_verify_fuzzed_certificate_field(field, value):
    data = json.loads(halfspace_certificate())
    assert field in data
    data[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli("verify", "--catalog", "halfspace", "--certificate", str(path))
    assert_contract(code, err)


# each scalar certificate field must be a JSON number, not a value that
# float() would accept anyway ("1.5", true) or one it rejects (null, [], {})
SCALAR_FIELDS = ("alpha", "r", "k", "epsilon", "lipschitz_bound", "measured_lipschitz")
non_numbers = (st.booleans() | st.text(max_size=6) | st.none()
               | st.lists(json_values, max_size=3)
               | st.dictionaries(st.text(max_size=6), json_values, max_size=3))


@FUZZ
@given(field=st.sampled_from(SCALAR_FIELDS), value=non_numbers)
def test_verify_non_number_scalar_is_input_error(field, value):
    data = json.loads(halfspace_certificate())
    data[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli("verify", "--catalog", "halfspace", "--certificate", str(path))
    assert code == 1
    assert_contract(code, err)
    assert len(err.splitlines()) == 1


# a stored sample list of the wrong length or another confidence is a
# structural L1 failure (exit 3), never a pass; a missing list is an input error
sample_edits = (st.tuples(st.just("cut"), st.integers(0, 255))
                | st.tuples(st.just("repeat"), st.integers(1, 300))
                | st.tuples(st.just("confidence"),
                            st.text(max_size=24).filter(lambda t: t != "sampling_probabilistic"))
                | st.just(("delete", 0)))


@FUZZ
@given(edit=sample_edits)
def test_verify_incomplete_samples_or_other_confidence(edit):
    kind, arg = edit
    data = json.loads(halfspace_certificate())
    samples = data["lambda_samples"]
    if kind == "cut":
        data["lambda_samples"] = samples[:arg]
    elif kind == "repeat":
        data["lambda_samples"] = samples + [samples[i % len(samples)] for i in range(arg)]
    elif kind == "confidence":
        data["confidence"] = arg
    else:
        del data["lambda_samples"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli("verify", "--catalog", "halfspace", "--certificate", str(path))
    assert_contract(code, err)
    if kind == "delete":
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        return
    assert code == 3, (code, err)
    note = json.loads(out)["per_lemma"]["L1"]["note"]
    assert note.startswith("structural: ")
    if kind == "confidence":
        assert f"confidence {arg!r} is not sampling_probabilistic" in note
    else:
        assert f"{len(data['lambda_samples'])} stored lambda samples, expected 256" in note


@FUZZ
@given(config=configs)
def test_certify_fuzzed_config(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(json.dumps({"function": {"catalog_id": "halfspace"}, "config": config}))
        code, _, err = run_cli("certify", "--instance", str(path))
    assert_contract(code, err)


# well-formed trees over all eight operators weighted up, so that a fair
# share of the examples run a whole certify; x3 (past dim 2) and arbitrary
# JSON in any field make up the rest
OPERATORS = ("+", "-", "*", "max", "min", "abs", "sqr", "norm2")
MOST_ARGUMENTS = {"-": 2, "abs": 1, "sqr": 1}
trees = st.recursive(
    st.sampled_from(["x1", "x2"] * 4 + ["x3"]) | st.floats(-3, 3) | st.integers(-3, 3),
    lambda inner: st.sampled_from(OPERATORS).flatmap(
        lambda op: st.lists(inner, min_size=1, max_size=MOST_ARGUMENTS.get(op, 3))
        .map(lambda args: [op, *args])),
    max_leaves=6,
)
expressions = st.one_of(trees, trees, trees, json_values)
points = st.lists(st.lists(st.floats(-2, 2), min_size=2, max_size=2), min_size=1, max_size=2)
boundary_points = st.one_of(points, points, points, json_values)
hints = st.one_of(st.none(), st.floats(0, 10), json_values)


@FUZZ
@given(expression=expressions, boundary=boundary_points, hint=hints)
def test_certify_fuzzed_expression_instance(expression, boundary, hint):
    data = {"space": {"dim": 2}, "function": {"expression": expression, "lipschitz_hint": hint},
            "boundary_points": boundary}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli("certify", "--instance", str(path))
    assert_contract(code, err)


def parsed_oracle(expression):
    """The instance's oracle, or the InstanceSpecError message."""
    data = {"space": {"dim": 2}, "function": {"expression": expression},
            "boundary_points": [[0.0, 0.0]]}
    try:
        return parse_instance(data)[0].f
    except InstanceSpecError as exc:
        return str(exc)


# a tree under a chain of unary minuses far deeper than the recursion limit
# parses exactly when the tree does, with the same message, and its values are
# the tree's times (-1)^depth, bit for bit
@FUZZ
@given(tree=trees, depth=st.integers(0, 3000),
       coords=st.lists(st.floats(-2, 2), min_size=8, max_size=8))
def test_deeply_nested_expression_instance(tree, depth, coords):
    expression = tree
    for _ in range(depth):
        expression = ["-", expression]
    inner, outer = parsed_oracle(tree), parsed_oracle(expression)
    if isinstance(inner, str):
        assert outer == inner
        return
    p = np.array(coords).reshape(4, 2)
    try:
        want = inner.values(p)
    except NonFiniteValue:
        reject()
    want = want if depth % 2 == 0 else -want
    np.testing.assert_array_equal(outer.values(p).view(np.int64), want.view(np.int64))
