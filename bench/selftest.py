#!/usr/bin/env python3
"""Self-tests of the benchmark's own instruments.

    python3 bench/selftest.py

* The counting oracle wrapper keeps everything the library keys on: with
  and without it, the halfspace certificate JSON on seed 42 is
  byte-identical.
* A small traced run records at least one span for every traced layer,
  leaves the results unchanged, and every patch is undone afterwards, also
  when the traced block raises.

Exits 0 when every test passes, 1 otherwise.
"""

from __future__ import annotations

import importlib
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from epicert import catalog  # noqa: E402
from epicert.core import NumericConfig, canonical_json  # noqa: E402

from counting import OracleCounter  # noqa: E402
from tracer import CALL_SITES, SPAN_NAMES, Tracer  # noqa: E402

epirep = importlib.import_module("epicert.epirep")
sd_module = importlib.import_module("epicert.signed_distance")


def _halfspace_json(inst) -> str:
    x = catalog.load("halfspace").certifiable_at[0]
    return canonical_json(epirep.certify(inst, x, NumericConfig(rng_seed=42)).to_json_dict())


def test_wrapper_is_transparent():
    counter = OracleCounter()
    for cid in ("halfspace", "rockafellar_4"):
        f = catalog.load(cid).instance.f
        g = counter.wrap(f)
        assert g.descriptor == f.descriptor
        assert g.lipschitz_hint == f.lipschitz_hint
        assert g.value_noise == f.value_noise
        assert (g.grad is None) == (f.grad is None)
    inst = catalog.load("halfspace").instance
    plain = _halfspace_json(inst)
    counted = _halfspace_json(counter.wrap_instance(inst))
    assert plain == counted, "counting wrapper changed the halfspace certificate"
    assert counter.eval_calls > 0 and counter.eval_points > 0


def _call_sites():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in CALL_SITES}


def test_tracer_covers_every_layer_and_unpatches():
    before = _call_sites()
    counter = OracleCounter()
    entry = catalog.load("halfspace")
    inst = counter.wrap_instance(entry.instance)
    x = entry.certifiable_at[0]
    untraced = _halfspace_json(inst)
    tracer = Tracer(counter)
    with tracer.patched():
        assert all(_call_sites()[key] is not fn for key, fn in before.items())
        traced = _halfspace_json(inst)
        sd_module.check_theorem2(inst, x, NumericConfig(rng_seed=7))
        # coarse bisection keeps this promote short; only its spans matter
        sd_module.promote_to_certificate(
            inst, x, NumericConfig(rng_seed=7, tol_bisect=1e-4, sample_budget=64))
    assert traced == untraced, "tracing changed the halfspace certificate"
    seen = {span[1] for span in tracer.spans}
    missing = [name for name in SPAN_NAMES if name not in seen]
    assert not missing, f"no span recorded for {missing}"
    assert tracer.oracle_busy > 0.0
    assert counter.tracer is None
    assert _call_sites() == before, "a patch was left in place"

    try:
        with Tracer(counter).patched():
            raise KeyError("boom")
    except KeyError:
        pass
    assert _call_sites() == before, "a patch was left in place after an error"


def test_self_time_adds_up():
    counter = OracleCounter()
    entry = catalog.load("box_sup")
    inst = counter.wrap_instance(entry.instance)
    tracer = Tracer(counter)
    with tracer.patched():
        epirep.certify(inst, entry.certifiable_at[0], NumericConfig(rng_seed=3))
    roots = [s for s in tracer.spans if s[4] is None]
    assert len(roots) == 1 and roots[0][1] == "epirep.certify"
    total = roots[0][3] - roots[0][2]
    accounted = sum(s[6] for s in tracer.spans) + tracer.oracle_busy
    assert abs(accounted - total) <= 1e-6 * max(1.0, len(tracer.spans)), (accounted, total)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception:
            failed += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
