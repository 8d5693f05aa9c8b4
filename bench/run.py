#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the epicert library.

    python3 bench/run.py --workload catalog-2d --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``epicert`` from its
``src`` directory.  One caller makes sequential calls in this process
(closed loop, one client); BLAS is held to one thread unless the environment
already says otherwise.  The workload runs in passes until ``--seconds``
have gone by (at least one pass).  Every output is checked.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` each pass runs once untraced and once with every layer's
call sites patched, and the per-layer metrics come from the traced passes.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out FILE`` also writes the full record, with the environment, there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 4   # before the passes, and again after them

# set-up as a user pays it: a fresh interpreter imports the package and
# loads the workload's catalog entries
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import epicert
from epicert import catalog
for cid in sys.argv[2:]:
    catalog.load(cid)
print(repr(time.perf_counter() - t0))
"""


def measure_setup(catalog_ids) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), *catalog_ids],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def percentile_tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None     # no percentile at or above the median qualifies
    p = (100 * (n - 10)) // n
    ordered = sorted(values)
    # nearest-rank value at percentile p leaves >= 10 samples above it
    return p, ordered[max(0, -(-p * n // 100) - 1)]


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values.

    A mix of call sites with different costs piles its calls into clusters,
    and a median then sits on the edge of one cluster; the middle half's
    mean averages whole clusters instead.  Rare slow calls, such as the
    min_norm_point iteration cap, stay in the top quarter.
    """
    ordered = sorted(values)
    n = len(ordered)
    middle = ordered[n // 4 : n - n // 4]
    return sum(middle) / len(middle)


def kind_metrics(seconds: dict[str, list[float]]) -> dict[str, dict]:
    out = {}
    for kind, values in sorted(seconds.items()):
        if kind == "promote":
            out["promote_s"] = {"value": statistics.median(values), "unit": "s",
                                "samples": len(values)}
            continue
        out[f"{kind}_ms_p50"] = {"value": 1e3 * statistics.median(values), "unit": "ms",
                                 "samples": len(values)}
        tail = percentile_tail(values)
        if tail is not None:
            out[f"{kind}_ms_tail"] = {"value": 1e3 * tail[1], "unit": "ms",
                                      "percentile": tail[0], "samples": len(values)}
    return out


def run_untraced(workload, args, rec, counter) -> dict:
    pass_points = []
    start = time.perf_counter()
    while True:
        p0 = counter.points
        workload.run_pass(args.seed, len(pass_points), rec)
        pass_points.append(counter.points - p0)
        if time.perf_counter() - start >= args.seconds:
            break
    call_s = [s for values in rec.seconds.values() for s in values]
    call_probes = [s for values in rec.probes.values() for s in values]
    metrics = {
        # closed loop, one caller: throughput is calls over time spent in calls
        "calls_per_s": {"value": len(call_s) / sum(call_s), "unit": "1/s"},
        "call_probes_iqm": {"value": interquartile_mean(call_probes), "unit": "probes"},
        # pass 0 has the same inputs for the same seed, so this count repeats
        "oracle_mpoints": {"value": pass_points[0] / 1e6, "unit": "Mpoints"},
        "fail_frac": {"value": rec.failed / rec.attempted, "unit": "ratio"},
    }
    metrics.update(kind_metrics(rec.seconds))
    for kind, values in sorted(rec.probes.items()):
        metrics[f"{kind}_probes_p50"] = {"value": statistics.median(values), "unit": "probes"}
    metrics["passes"] = {"value": len(pass_points), "unit": "count"}
    return metrics


def run_traced(workload, args, rec, counter) -> dict:
    from tracer import SPAN_NAMES, Tracer

    tracer = Tracer(counter)
    untraced_s = traced_s = 0.0
    oracle = [0, 0, 0, 0]   # eval calls, eval points, grad calls, grad points
    n = 0
    start = time.perf_counter()
    while True:
        # the same pass twice: untraced for the overhead baseline, then traced
        t0 = time.perf_counter()
        workload.run_pass(args.seed, n, rec)
        untraced_s += time.perf_counter() - t0
        before = counter.snapshot()
        with tracer.patched():
            t0 = time.perf_counter()
            workload.run_pass(args.seed, n, rec)
            traced_s += time.perf_counter() - t0
        oracle = [acc + b - a for acc, a, b in zip(oracle, before, counter.snapshot())]
        n += 1
        if time.perf_counter() - start >= args.seconds:
            break

    layers = tracer.summary()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def ratio(a, b):
        return a / b if b else 0.0

    eval_calls, eval_points, grad_calls, grad_points = oracle
    put("core.oracle.eval_calls", eval_calls / n, "1/pass")
    put("core.oracle.eval_points", eval_points / n, "1/pass")
    put("core.oracle.grad_calls", grad_calls / n, "1/pass")
    put("core.oracle.grad_points", grad_points / n, "1/pass")
    put("core.oracle.points_per_call",
        ratio(eval_points + grad_points, eval_calls + grad_calls), "points/call")
    put("core.oracle.busy_s", tracer.oracle_busy / n, "s/pass")
    for name in SPAN_NAMES:
        put(f"{name}.calls", layers[name]["calls"] / n, "1/pass")
        put(f"{name}.busy_s", layers[name]["busy_s"] / n, "s/pass")
        put(f"{name}.self_s", layers[name]["self_s"] / n, "s/pass")

    mnp = layers["clarke.min_norm_point"]
    put("clarke.min_norm_point.max_ms", 1e3 * mnp["max_s"], "ms")
    put("clarke.min_norm_point.share_of_certify",
        tracer.share("clarke.min_norm_point", "epirep.certify"), "ratio")
    nd = layers["clarke.is_nondegenerate"]
    put("clarke.is_nondegenerate.directions_tried", nd.get("directions_tried", 0) / n, "1/pass")
    put("clarke.witness_hit_ratio",
        ratio(nd.get("witnesses", 0), nd.get("directions_tried", 0)), "ratio")
    lip = layers["clarke.local_lipschitz_constant"]
    put("clarke.local_lipschitz_constant.n_quotients", lip.get("n_quotients", 0) / n, "1/pass")
    put("clarke.local_lipschitz_constant.hint_rejections",
        lip.get("hint_rejections", 0) / n, "1/pass")
    put("epirep.find_descent_radius.halvings",
        layers["epirep.find_descent_radius"].get("halvings", 0) / n, "1/pass")
    lam = layers["epirep.lambda_values"]
    put("epirep.lambda_values.rows", lam.get("rows", 0) / n, "1/pass")
    put("epirep.lambda_values.oracle_points_per_row",
        ratio(lam["oracle_points"], lam.get("rows", 0)), "points/row")
    put("epirep.lambda_values.errors", lam.get("errors", 0) / n, "1/pass")
    put("epirep.lambda_values.share_of_promote",
        tracer.share("epirep.lambda_values", "signed_distance.promote_to_certificate"), "ratio")
    put("verify.run_suite.lemma_failures",
        layers["verify.run_suite"].get("lemma_failures", 0) / n, "1/pass")
    sdv = layers["signed_distance.signed_distance_values"]
    put("signed_distance.signed_distance_values.rows", sdv.get("rows", 0) / n, "1/pass")
    put("signed_distance.signed_distance_values.base_points_per_row",
        ratio(sdv["oracle_points"], sdv.get("rows", 0)), "points/row")
    put("signed_distance.signed_distance_values.saturated_frac",
        ratio(sdv.get("saturated", 0), sdv.get("rows", 0)), "ratio")
    put("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio")
    metrics["passes"] = {"value": n, "unit": "count"}
    return metrics


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the full record here")
    args = ap.parse_args(argv)

    if not (SRC / "epicert" / "__init__.py").is_file():
        print(f"error: no epicert package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from counting import OracleCounter
    from workloads import WORKLOADS, Probe, Recorder

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    counter = OracleCounter()
    workload = workload_cls(counter)
    setup = []
    if args.trace:
        rec = Recorder()
        metrics = run_traced(workload, args, rec, counter)
    else:
        # set-up samples on both sides of the passes see more of the host's
        # slow and fast spells than samples taken back to back
        setup = measure_setup(workload_cls.catalog_ids)
        rec = Recorder(probe=Probe())
        metrics = run_untraced(workload, args, rec, counter)
        setup += measure_setup(workload_cls.catalog_ids)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        }

    env = environment(args)
    for key, val in env.items():
        print(f"# {key}: {val}")
    for name, m in metrics.items():
        extra = "".join(f" {k}={m[k]}" for k in ("percentile", "samples") if k in m)
        print(f"{name} {m['value']:.6g} {m['unit']}{extra}")
    for line in rec.failures:
        print(f"FAILED {line}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in wanted},
    }
    if args.out:
        record = dict(result, env=env, all_metrics=metrics, setup_samples=setup,
                      failures=rec.failures)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
