"""Command line behaviour, driven in-process through cli.main."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from epicert import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_certify_json_stdout(capsys):
    code, out, err = run(capsys, "certify", "--catalog", "halfspace", "--seed", "42")
    assert code == 0
    cert = json.loads(out)
    for key in ("instance", "x", "v", "alpha", "r", "k", "epsilon", "phi_weights",
                "lipschitz_bound", "measured_lipschitz", "tol_bisect", "lambda_samples",
                "lemma_report", "overall", "confidence", "seed"):
        assert key in cert, key
    assert cert["overall"] is True
    assert cert["seed"] == 42
    assert cert["tol_bisect"] == 1e-10
    assert cert["instance"]["label"] == "halfspace"
    for lid in ("L1", "L2", "L3", "L4", "L5", "L6"):
        assert cert["lemma_report"][lid]["pass"] is True


def test_certify_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    c1, _, _ = run(capsys, "certify", "--catalog", "max_two_planes",
                   "--seed", "7", "--out", str(a))
    c2, _, _ = run(capsys, "certify", "--catalog", "max_two_planes",
                   "--seed", "7", "--out", str(b))
    assert c1 == c2 == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_table_and_csv_formats(capsys, tmp_path):
    code, out, _ = run(capsys, "certify", "--catalog", "halfspace",
                       "--seed", "1", "--format", "table")
    assert code == 0
    assert "alpha" in out and "overall: pass" in out

    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify", "--catalog", "halfspace", "--seed", "1",
                       "--format", "csv", "--out", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,lambda"
    assert len(lines) > 100
    # --out always carries the canonical JSON no matter the stdout format
    stored = json.loads(path.read_text())
    assert stored["overall"] is True


def test_certify_degenerate_exit_2(capsys):
    code, out, err = run(capsys, "certify", "--catalog", "singleton_sq")
    assert code == 2
    payload = json.loads(err)
    assert payload["failure"] == "degenerate-point"
    assert "error" in payload


@pytest.mark.parametrize(
    "argv",
    [
        ("certify",),                                       # no instance source
        ("certify", "--catalog", "halfspace", "--instance", "x.json"),
        ("certify", "--catalog", "zorp"),
        ("certify", "--catalog", "halfspace", "--point", "1,zork"),
        ("certify", "--catalog", "halfspace", "--point", "1,2,3"),
        ("certify", "--catalog", "halfspace", "--point-index", "9"),
        ("sweep-rockafellar", "--d-list", ""),
        ("sweep-rockafellar", "--d-list", "1,x"),
        ("frobnicate",),                                    # unknown subcommand
        (),                                                 # usage
        ("certify", "--seed", "abc"),                       # bad flag value
        ("certify", "--frob"),                              # unknown flag
        ("sweep-rockafellar",),                             # missing required flag
        ("certify", "--catalog", "halfspace", "--point", ""),
        ("theorem2", "--catalog", "unit_ball_euclid", "--point", ""),
        ("certify", "--catalog", "halfspace", "--point", "0,0", "--point-index", "5"),
        ("theorem2", "--catalog", "halfspace", "--point", "0,0", "--point-index", "0"),
    ],
)
def test_input_errors_exit_1(capsys, argv):
    run_input_error(capsys, *argv)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["certify", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: epicert certify")


def _forbid_pipeline(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the pipeline ran before --out was checked")

    for name in ("certify", "run_suite", "check_theorem2", "promote_to_certificate"):
        monkeypatch.setattr(cli, name, never)


@pytest.mark.parametrize("argv", [
    ("certify", "--catalog", "halfspace"),
    ("verify", "--catalog", "halfspace", "--certificate", "CERT"),
    ("theorem2", "--catalog", "halfspace"),
    ("theorem2", "--catalog", "halfspace", "--promote"),
    ("sweep-rockafellar", "--d-list", "1"),
    ("list-catalog",),
], ids=["certify", "verify", "theorem2", "theorem2-promote", "sweep-rockafellar",
        "list-catalog"])
def test_unwritable_out_exit_1(capsys, tmp_path, monkeypatch, argv):
    cert = tmp_path / "cert.json"
    if "CERT" in argv:
        run(capsys, "certify", "--catalog", "halfspace", "--seed", "42", "--out", str(cert))
    argv = [str(cert) if a == "CERT" else a for a in argv]
    _forbid_pipeline(monkeypatch)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "out"))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith("cannot write --out")
    assert not (tmp_path / "missing").exists()


def test_out_directory_exit_1(capsys, tmp_path, monkeypatch):
    _forbid_pipeline(monkeypatch)
    code, out, err = run(capsys, "certify", "--catalog", "halfspace", "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"].endswith("it is a directory")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["certify", "theorem2"])
@pytest.mark.parametrize("point", ["nan,0", "0,inf"])
def test_non_finite_point_exit_1(capsys, command, point):
    code, out, err = run(capsys, command, "--catalog", "halfspace", "--point", point)
    assert code == 1
    assert out == ""
    assert "non-finite" in json.loads(err)["error"]


def test_certify_unknown_catalog_message(capsys, tmp_path):
    code, _, err = run(capsys, "certify", "--catalog", "zorp")
    assert code == 1
    assert json.loads(err) == {"error": "unknown catalog id: 'zorp'"}
    spec = tmp_path / "zorp.json"
    spec.write_text(json.dumps({"function": {"catalog_id": "zorp"}}))
    code, _, err = run(capsys, "certify", "--instance", str(spec))
    assert code == 1
    assert json.loads(err) == {"error": "unknown catalog id: 'zorp'"}


def test_out_of_memory_is_an_input_error(capsys, monkeypatch):
    # stands in for a dimension too large to allocate; a real one could get
    # the process killed on a host that overcommits memory instead of raising
    def certify(*args):
        raise MemoryError("Unable to allocate 149. GiB")

    monkeypatch.setattr(cli, "certify", certify)
    code, out, err = run(capsys, "sweep-rockafellar", "--d-list", "100000")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "input too large for memory: Unable to allocate 149. GiB"}


@pytest.mark.parametrize("target, exc, stage, code", [
    ("find_descent_radius", "RadiusUnderflow", "radius-underflow", 2),
    ("lambda_values", "BracketViolation", "lemma-check-failure", 3),
], ids=["radius-underflow", "sampling-stage"])
def test_certify_failure_stage_exit_code(capsys, monkeypatch, target, exc, stage, code):
    from epicert import epirep

    def fail(*args, **kwargs):
        raise getattr(epirep, exc)("forced")

    monkeypatch.setattr(epirep, target, fail)
    got, out, err = run(capsys, "certify", "--catalog", "halfspace")
    assert got == code
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["failure"] == stage


def test_verify_round_trip(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", "--catalog", "unit_ball_euclid",
                     "--seed", "42", "--out", str(cert))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--catalog", "unit_ball_euclid",
                       "--certificate", str(cert))
    assert code == 0
    rep = json.loads(out)
    assert rep["overall"] is True
    assert rep["seed"] == 43  # fresh seed derived from the stored one

    code, out, _ = run(capsys, "verify", "--catalog", "unit_ball_euclid",
                       "--certificate", str(cert), "--format", "table")
    assert code == 0
    assert "overall: pass" in out


def test_verify_seed_reuse_exit_4(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    run(capsys, "certify", "--catalog", "halfspace", "--seed", "42",
        "--out", str(cert))
    code, _, err = run(capsys, "verify", "--catalog", "halfspace",
                       "--certificate", str(cert), "--seed", "42")
    assert code == 4
    assert "seed" in err.lower()


@pytest.mark.parametrize("field, factor, note", [("epsilon", 2.0, "epsilon"),
                                                 ("k", 0.0, "nonpositive alpha/r/k"),
                                                 ("alpha", 0.0, "nonpositive alpha/r/k"),
                                                 ("r", 1e308, "epsilon"),
                                                 ("r", -1.0, "nonpositive alpha/r/k"),
                                                 ("epsilon", -1.0, "epsilon"),
                                                 ("measured_lipschitz", -1.0,
                                                  "measured_lipschitz"),
                                                 ("v", 2.0, "witness direction not unit"),
                                                 ("phi_weights", 2.0, "phi(v) != 1"),
                                                 ("tol_bisect", 0.0,
                                                  "tol_bisect 0.0 is not positive")],
                         ids=["epsilon-x2", "k-0", "alpha-0", "r-1e308", "r-negative",
                              "epsilon-negative", "measured-negative", "v-x2", "phi-x2",
                              "tol_bisect-0"])
def test_verify_tampered_certificate_exit_3(capsys, tmp_path, field, factor, note):
    cert = tmp_path / "cert.json"
    run(capsys, "certify", "--catalog", "halfspace", "--seed", "42",
        "--out", str(cert))
    data = json.loads(cert.read_text())
    data[field] = np.multiply(data[field], factor).tolist()
    cert.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--catalog", "halfspace",
                       "--certificate", str(cert))
    assert code == 3
    rep = json.loads(out)
    assert rep["overall"] is False
    assert rep["per_lemma"]["L1"]["pass"] is False
    assert note in rep["per_lemma"]["L1"]["note"]


def test_verify_recomputes_stored_lambda_samples_exit_3(capsys, tmp_path):
    # a shifted stored value stays within the r/4 band, so only the
    # recomputation can see it
    cert = tmp_path / "cert.json"
    run(capsys, "certify", "--catalog", "halfspace", "--seed", "42", "--out", str(cert))
    data = json.loads(cert.read_text())
    data["lambda_samples"][0]["value"] += 0.05
    cert.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--catalog", "halfspace", "--certificate", str(cert))
    assert code == 3
    rep = json.loads(out)["per_lemma"]
    l1 = rep["L1"]
    assert l1["pass"] is False
    assert l1["note"].startswith("stored lambda samples off by 0.05")
    assert l1["margin"] == pytest.approx(-0.05, abs=1e-9)
    assert all(rep[lid]["pass"] for lid in ("L2", "L3", "L4", "L5", "L6"))


def test_verify_refuses_a_coarser_tol_bisect_exit_3(capsys, tmp_path):
    # a tol_bisect of 0.1 would widen L1's recomputation slack past the
    # shifted stored value; a claim coarser than the verifier's is structural
    cert = tmp_path / "cert.json"
    run(capsys, "certify", "--catalog", "halfspace", "--seed", "42", "--out", str(cert))
    data = json.loads(cert.read_text())
    data["lambda_samples"][0]["value"] += 0.05
    data["tol_bisect"] = 0.1
    cert.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--catalog", "halfspace", "--certificate", str(cert))
    assert code == 3
    l1 = json.loads(out)["per_lemma"]["L1"]
    assert l1["pass"] is False
    assert l1["note"] == "structural: tol_bisect 0.1 is coarser than the verifier's 1e-10"


def test_verify_certificate_without_tol_bisect(capsys, tmp_path):
    # a certificate written before the field existed reads as 1e-10
    cert, old = tmp_path / "cert.json", tmp_path / "old.json"
    run(capsys, "certify", "--catalog", "halfspace", "--seed", "42", "--out", str(cert))
    data = json.loads(cert.read_text())
    del data["tol_bisect"]
    old.write_text(json.dumps(data))
    outs = []
    for path in (cert, old):
        code, out, _ = run(capsys, "verify", "--catalog", "halfspace", "--certificate", str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "catalog_id, tamper, needle",
    [
        ("rockafellar_3", False, "dim"),            # wrong dimension
        ("halfspace", True, "x has shape (3,)"),    # malformed certificate
        ("max_two_planes", False, "descriptor"),    # wrong instance, same space
    ],
    ids=["wrong-dim", "malformed-x", "wrong-instance"],
)
def test_verify_refuses_mismatched_certificate_exit_1(capsys, tmp_path, catalog_id,
                                                      tamper, needle):
    cert = tmp_path / "cert.json"
    run(capsys, "certify", "--catalog", "halfspace", "--seed", "42",
        "--out", str(cert))
    if tamper:
        data = json.loads(cert.read_text())
        data["x"] = data["x"] + [0.0]
        cert.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--catalog", catalog_id,
                         "--certificate", str(cert))
    assert code == 1
    assert out == ""
    assert needle in json.loads(err)["error"]


def test_verify_promoted_certificate(capsys, tmp_path):
    # verify checks a theorem2 --promote certificate against the signed
    # distance of f, the function it certified
    code, out, _ = run(capsys, "theorem2", "--catalog", "halfspace", "--promote", "--seed", "42")
    assert code == 0
    data = json.loads(out)["certificate"]
    assert data["instance"]["descriptor"] == "(signed-distance x1)"
    cert = tmp_path / "promoted.json"
    cert.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--catalog", "halfspace", "--certificate", str(cert))
    assert code == 0
    assert json.loads(out)["overall"] is True

    cert.write_text(json.dumps(dict(data, epsilon=2.0 * data["epsilon"])))
    code, out, _ = run(capsys, "verify", "--catalog", "halfspace", "--certificate", str(cert))
    assert code == 3
    assert "epsilon" in json.loads(out)["per_lemma"]["L1"]["note"]

    # the signed distance of another instance is still a mismatch
    code, out, err = run(capsys, "verify", "--catalog", "max_two_planes",
                         "--certificate", str(cert))
    assert code == 1
    assert out == ""
    assert "descriptor '(signed-distance x1)'" in json.loads(err)["error"]


def test_verify_missing_certificate_exit_1(capsys, tmp_path):
    code, _, _ = run(capsys, "verify", "--catalog", "halfspace",
                     "--certificate", str(tmp_path / "nope.json"))
    assert code == 1


def test_theorem2_halfspace(capsys):
    code, out, _ = run(capsys, "theorem2", "--catalog", "halfspace",
                       "--point", "0,0", "--seed", "42")
    assert code == 0
    payload = json.loads(out)
    assert payload["nondegenerate"] is True
    assert payload["alpha"] >= 0.2
    assert payload["witness"][0] < -0.9
    assert payload["probe_resolution"] > 0


def test_theorem2_degenerate_exit_2(capsys):
    code, out, _ = run(capsys, "theorem2", "--catalog", "singleton_sq",
                       "--seed", "42")
    assert code == 2
    payload = json.loads(out)
    assert payload["nondegenerate"] is False
    assert payload["witness"] is None


@pytest.mark.parametrize("promote", [False, True], ids=["plain", "promote"])
@pytest.mark.parametrize("point, side", [("0.5,0", "outside"), ("-0.5,0", "inside")])
def test_theorem2_off_band_exit_1(capsys, point, side, promote):
    # f = 0.5 and -0.5 there: not boundary points, so no nondegeneracy verdict
    argv = ["--catalog", "halfspace", f"--point={point}", "--seed", "42"]
    code, out, err = run(capsys, "theorem2", *argv, *(["--promote"] if promote else []))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["failure"] == "precondition"
    assert f"x is {side}, not in the boundary band" in payload["error"]
    # the same line that certify gives for the same point
    assert run(capsys, "certify", *argv) == (1, "", err)


def test_theorem2_promote_failure_keeps_the_verdict_off_out(capsys, tmp_path, monkeypatch):
    # theorem2 answered true, then the promotion failed: the verdict still
    # goes to stdout, the failure is the one JSON line on stderr, and --out,
    # which would hold the certificate, is not written
    def failing(inst, x, cfg):
        return cli.CertificationFailure(stage="radius-underflow", message="no luck")

    monkeypatch.setattr(cli, "promote_to_certificate", failing)
    path = tmp_path / "t2.json"
    argv = ["theorem2", "--catalog", "halfspace", "--seed", "42"]
    code, out, err = run(capsys, *argv, "--promote", "--out", str(path))
    assert code == 2
    assert (0, out, "") == run(capsys, *argv)
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "no luck", "failure": "radius-underflow"}
    assert not path.exists()


def test_sweep_rockafellar_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep-rockafellar", "--d-list", "1,2",
                       "--seed", "42", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "d,alpha,r,k,epsilon,lipschitz_bound,measured_lipschitz"
    assert len(lines) == 3
    eps = [float(l.split(",")[4]) for l in lines[1:]]
    assert eps[1] < eps[0]


@pytest.mark.parametrize("d_list", ["0", "-3"])
def test_sweep_bad_dimension_exit_1(capsys, d_list):
    code, out, err = run(capsys, "sweep-rockafellar", "--d-list", d_list)
    assert code == 1
    assert out == ""
    assert f"rockafellar_{d_list}" in json.loads(err)["error"]


@pytest.mark.parametrize("stage, want", [("degenerate-point", 2), ("lemma-check-failure", 3)])
def test_sweep_failing_certify_names_d(capsys, monkeypatch, stage, want):
    def failing(inst, x, cfg):
        return cli.CertificationFailure(stage=stage, message="no luck")

    monkeypatch.setattr(cli, "certify", failing)
    code, out, err = run(capsys, "sweep-rockafellar", "--d-list", "2,4")
    assert code == want
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "d=2: no luck", "failure": stage}


def test_sweep_repeated_d_fails_monotonicity(capsys):
    code, out, err = run(capsys, "sweep-rockafellar", "--d-list", "1,1")
    assert code == 3
    assert "not strictly decreasing" in err


def test_list_catalog(capsys):
    code, out, _ = run(capsys, "list-catalog")
    assert code == 0
    assert "halfspace" in out and "rockafellar" in out

    code, out, _ = run(capsys, "list-catalog", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    ids = {r["id"] for r in rows}
    assert "halfspace" in ids and "singleton_sq" in ids


def test_instance_file_certify(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "space": {"dim": 2, "norm": "euclidean"},
        "function": {"expression": "x1", "lipschitz_hint": 1.0},
        "boundary_points": [[0.0, 0.0]],
        "label": "my-halfspace",
        "config": {"rng_seed": 5},
    }))
    code, out, _ = run(capsys, "certify", "--instance", str(inst))
    assert code == 0
    cert = json.loads(out)
    assert cert["instance"]["label"] == "my-halfspace"
    assert cert["seed"] == 5


def test_lemmas_without_off_band_samples_exit_3(capsys, tmp_path):
    # a band this wide holds every L5 and L6 sample of the halfspace
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"function": {"catalog_id": "halfspace"},
                                "config": {"tol_value": 0.5}}))
    code, out, err = run(capsys, "certify", "--instance", str(inst))
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "lemma checks failed: L5, L6"
    for lid in ("L5", "L6"):
        check = payload["lemma_report"][lid]
        assert check["pass"] is False and check["samples"] == 0
        assert check["note"].startswith("no sample outside the membership band")


def run_input_error(capsys, *argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])
    return json.loads(lines[0])["error"]


def test_instance_file_holding_an_array_exit_1(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text('[{"function": {"catalog_id": "halfspace"}}]')
    run_input_error(capsys, "certify", "--instance", str(inst))


def test_misspelt_instance_key_exit_1(capsys, tmp_path):
    # read as absent, the misspelt key would leave the catalog's points in place
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"function": {"catalog_id": "halfspace"},
                                "boundary_point": [[0.0, 0.5]]}))
    code, out, err = run(capsys, "certify", "--instance", str(inst))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "unknown top-level keys: ['boundary_point']"}


def test_label_beside_catalog_id_exit_1(capsys, tmp_path):
    # read as absent, the label would leave the catalog id on the certificate
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"function": {"catalog_id": "halfspace"}, "label": "mine"}))
    code, out, err = run(capsys, "certify", "--instance", str(inst))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "label is for expression instances; a catalog_id "
                                        "instance is labelled by its catalog id"}


def test_non_finite_boundary_point_in_file_exit_1(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text('{"space": {"dim": 2}, "function": {"expression": "x1"}, '
                    '"boundary_points": [[NaN, 0.0]]}')
    run_input_error(capsys, "certify", "--instance", str(inst))


@pytest.mark.parametrize("config", ['{"tol_value": NaN}', '{"sample_budget": 1000.0}',
                                    '{"sample_budget": 100000000000000000000}',
                                    '{"rng_seed": 1.5}', '{"rng_seed": true}',
                                    '{"tol_bisect": true}'],
                         ids=["nan-tol-value", "float-budget", "huge-budget", "fractional-seed",
                              "bool-seed", "bool-tol-bisect"])
def test_non_finite_config_in_file_exit_1(capsys, tmp_path, config):
    inst = tmp_path / "inst.json"
    inst.write_text('{"space": {"dim": 2}, "function": {"expression": "x1"}, '
                    '"boundary_points": [[0.0, 0.0]], "config": ' + config + '}')
    run_input_error(capsys, "certify", "--instance", str(inst))


@pytest.mark.parametrize("value", [0.5, 0.25, "1e-3"])
def test_config_shrink_factor_is_refused_as_unknown(capsys, tmp_path, value):
    # the shrink factor is a constant of the pipeline, not a config field, so
    # an instance that sets it, even to its value 0.5, is refused by name
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"function": {"catalog_id": "halfspace"},
                                "config": {"shrink_factor": value}}))
    error = run_input_error(capsys, "certify", "--instance", str(inst))
    assert error == "unknown config fields: ['shrink_factor']"


@pytest.mark.parametrize("command", ["certify", "theorem2"])
@pytest.mark.parametrize("field, value", [("expression", ["frob", "x1"]),
                                          ("boundary_points", [["a", 0]]),
                                          ("lipschitz_hint", True),
                                          ("lipschitz_hint", -1)],
                         ids=["unknown-operator", "string-coordinate", "bool-hint",
                              "negative-hint"])
def test_bad_instance_field_exit_1(capsys, tmp_path, command, field, value):
    data = {"space": {"dim": 2}, "function": {"expression": "x1", "lipschitz_hint": 1.0},
            "boundary_points": [[0.0, 0.0]]}
    (data if field == "boundary_points" else data["function"])[field] = value
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    run_input_error(capsys, command, "--instance", str(inst))


# inf * 0 makes f NaN everywhere; inf - inf makes it NaN beside the point, not at it
NAN_EVERYWHERE = ["+", "x1", ["*", ["*", 1e308, 10], 0]]
NAN_NEAR_POINT = ["-", ["*", "x1", 1e200, 1e200], ["*", "x1", 1e200, 1e200]]
# finite values and gradients, but the gradient's norm overflows, at the point
# and at every foot of the signed distance's rays; like every other value that
# is not finite, it is reported at its point
HUGE_GRADIENT = ["+", ["*", 1e300, "x1"], ["*", 1e300, "x2"]]


@pytest.mark.parametrize(
    "command, expression",
    [("certify", NAN_EVERYWHERE), ("theorem2", NAN_EVERYWHERE),
     ("certify", NAN_NEAR_POINT), ("theorem2", NAN_NEAR_POINT), ("certify", HUGE_GRADIENT),
     ("theorem2", HUGE_GRADIENT)],
    ids=["certify", "theorem2", "certify-nan-near-point", "theorem2-nan-near-point",
         "certify-overflowing-gradient", "theorem2-overflowing-gradient"],
)
def test_non_finite_value_at_point_exit_1(capsys, tmp_path, command, expression):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "space": {"dim": 2},
        "function": {"expression": expression},
        "boundary_points": [[0.0, 0.0]],
    }))
    assert " at [" in run_input_error(capsys, command, "--instance", str(inst))


def deep_instance(depth: int) -> str:
    """x1 under depth unary minuses, written as text because json.dumps recurses."""
    chain = '["-", ' * depth + '"x1"' + "]" * depth
    return ('{"space": {"dim": 2}, "boundary_points": [[0, 0]], '
            '"function": {"expression": ' + chain + "}}")


def test_deep_expression_certifies(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(deep_instance(600))
    code, out, _ = run(capsys, "certify", "--instance", str(inst))
    assert code == 0
    assert json.loads(out)["overall"] is True


def test_nesting_too_deep_for_json_exit_1(capsys, tmp_path):
    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    inst.write_text(deep_instance(100_000))
    cert.write_text('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}")
    run_input_error(capsys, "certify", "--instance", str(inst))
    run_input_error(capsys, "verify", "--catalog", "halfspace", "--certificate", str(cert))


@pytest.mark.parametrize("old, new", [('"seed":42', '"seed":42,"k":NaN'),
                                      ('"seed":42', '"seed":42.5'),
                                      ('"seed":42', '"seed":true'),
                                      ('"dim":2', '"dim":2.5'),
                                      ('"phi_weights":[-1.0,0.0]', '"phi_weights":[null,0.0]'),
                                      ('"seed":42', '"seed":42,"r":1' + "0" * 400)],
                         ids=["nan-k", "fractional-seed", "bool-seed", "fractional-dim",
                              "null-phi", "overflowing-r"])
def test_verify_refuses_non_finite_certificate_exit_1(capsys, tmp_path, old, new):
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify", "--catalog", "halfspace", "--seed", "42")
    assert code == 0
    assert old in out
    path.write_text(out.replace(old, new, 1))
    run_input_error(capsys, "verify", "--catalog", "halfspace",
                    "--certificate", str(path))


def _string_lambda_values(data):
    for sample in data["lambda_samples"]:
        sample["value"] = repr(sample["value"])


@pytest.mark.parametrize("tamper", [
    lambda data: data.update(alpha=repr(data["alpha"])),
    _string_lambda_values,
    lambda data: data.update(x=[repr(c) for c in data["x"]]),
    lambda data: data.update(phi_weights=[repr(c) for c in data["phi_weights"]]),
    lambda data: data.update(measured_lipschitz=repr(data["measured_lipschitz"])),
    lambda data: data.update(r=True),
    lambda data: data.pop("confidence"),
], ids=["string-alpha", "string-lambda-values", "string-x", "string-phi", "string-measured",
        "bool-r", "no-confidence"])
def test_verify_refuses_non_number_certificate_field_exit_1(capsys, tmp_path, tamper):
    code, out, _ = run(capsys, "certify", "--catalog", "halfspace", "--seed", "42")
    assert code == 0
    data = json.loads(out)
    assert data["r"] == 1.0  # so that true would read as the stored value
    tamper(data)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    run_input_error(capsys, "verify", "--catalog", "halfspace", "--certificate", str(path))


# a halfspace far from the origin: the float spacing at 1e7 is about 1.86e-9
FAR_HALFSPACE = {"space": {"dim": 2}, "boundary_points": [[1e7, 0]],
                 "function": {"expression": ["-", "x1", 1e7]}}


def _far_instance(tmp_path, name, **config):
    path = tmp_path / name
    path.write_text(json.dumps(dict(FAR_HALFSPACE, config=config)))
    return str(path)


@pytest.mark.parametrize("argv", [("certify",), ("theorem2", "--promote")],
                         ids=["certify", "theorem2-promote"])
def test_tol_bisect_below_float_spacing_exit_1(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "--instance", _far_instance(tmp_path, "inst.json"))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["failure"] == "precondition"
    assert payload["error"].endswith(
        f"the smallest usable value is {float(np.spacing(1e7 + 1.0))!r}")


@pytest.mark.parametrize("argv", [("certify",), ("theorem2", "--promote")],
                         ids=["certify", "theorem2-promote"])
def test_off_band_point_is_refused_before_the_tolerance(capsys, tmp_path, argv):
    # both checks fail at x1 = 1e7 + 1; the band check comes first
    code, out, err = run(capsys, *argv, "--instance", _far_instance(tmp_path, "inst.json"),
                         "--point", "10000001,0")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"].startswith("x is outside, not in the boundary band")


def test_tol_bisect_at_float_spacing_certifies_and_verifies(capsys, tmp_path):
    coarse = _far_instance(tmp_path, "coarse.json", tol_bisect=2e-9)
    cert = str(tmp_path / "cert.json")
    code, _, _ = run(capsys, "certify", "--instance", coarse, "--out", cert)
    assert code == 0
    code, _, _ = run(capsys, "verify", "--instance", coarse, "--certificate", cert)
    assert code == 0
    # the default tolerance is refused at the certificate's x as well
    code, out, err = run(capsys, "verify", "--instance", _far_instance(tmp_path, "fine.json"),
                         "--certificate", cert)
    assert code == 1
    assert out == ""
    assert json.loads(err)["failure"] == "precondition"


def test_closed_stdout_exit_1_one_json_line():
    # the reader of stdout is gone before anything is written
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run([sys.executable, "-m", "epicert", "list-catalog", "--format", "json"],
                              stdout=w, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(w)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])
