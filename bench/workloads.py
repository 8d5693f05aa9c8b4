"""The benchmark's workloads: fixed call mixes over catalog instances.

A workload runs in passes.  Pass ``i`` of workload seed ``s`` takes its
per-call ``rng_seed`` from ``derive_seed(s, workload, i, role)``, so the
same workload seed always gives the same inputs.  The library receives only
catalog instances, points and a ``NumericConfig``; every call goes through
the module attribute (``epirep.certify``, ``verify.run_suite``, ...) so that
a traced pass sees the patched functions.

Every output is checked; a call that raises or fails a check counts as
failed and the pass goes on.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from epicert import catalog
from epicert.core import NumericConfig, canonical_json

epirep = importlib.import_module("epicert.epirep")
verify = importlib.import_module("epicert.verify")
sd_module = importlib.import_module("epicert.signed_distance")

# stored lambda samples against the catalog's closed form; measured ~3e-11
LAMBDA_TOL = 1e-9
ROCKAFELLAR_DIMS = (16, 64, 128, 256)


def derive_seed(seed: int, workload: str, pass_index: int, role: str) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{pass_index}/{role}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class Probe:
    """Fixed reference work, timed between calls to track the machine's speed.

    On a shared host the same call can run 1.6x slower for seconds at a
    time.  Dividing each call's wall time by the probe times measured just
    before and after it cancels most of that drift.  The probe touches no
    library code, so a change to the library does not move it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((48, 48))
        self.v = rng.standard_normal(2048)
        self.big = rng.standard_normal(20000)
        self.last = self.run()

    def run(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(120):
            acc += float(self.A[i % 48] @ self.A[(7 * i) % 48])
            acc += float(np.sort(self.v[: 64 + i])[0])
            acc += float(np.linalg.solve(self.A[:6, :6] + 6.0 * np.eye(6), self.A[:6, 0])[0])
        acc += float(np.sum(np.abs(self.big * 1.5 - 0.5)))
        self.last = time.perf_counter() - t0
        return self.last


@dataclass
class Recorder:
    """Per-kind call durations and the failures of the output checks.

    With a ``probe``, each call's wall time is also kept in units of the
    probe time around it (``probes``).
    """

    probe: Probe | None = None
    seconds: dict[str, list[float]] = field(default_factory=dict)
    probes: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def call(self, kind: str, label: str, fn, *args):
        """Time ``fn(*args)``; return its result, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # a raising call is a failed call; keep going
            self._fail(kind, label, f"raised {exc!r}")
            return None
        finally:
            elapsed = time.perf_counter() - t0
            self.seconds.setdefault(kind, []).append(elapsed)
            if self.probe is not None:
                before = self.probe.last
                scale = 0.5 * (before + self.probe.run())
                self.probes.setdefault(kind, []).append(elapsed / scale)

    def check(self, kind: str, label: str, problem: str | None) -> bool:
        if problem is not None:
            self._fail(kind, label, problem)
        return problem is None

    def _fail(self, kind: str, label: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind} {label}: {problem}")


def certificate_problem(entry, x, res, tol: float = LAMBDA_TOL) -> str | None:
    """None if ``res`` is a passing certificate whose stored lambda samples
    are within ``tol`` of the entry's closed form at ``x``."""
    if not isinstance(res, epirep.EpigraphCertificate):
        return f"no certificate ({getattr(res, 'stage', type(res).__name__)})"
    if res.report is None or not res.report.overall:
        return "certificate report does not pass"
    form = entry.reference.lambda_form_at(x) if entry.reference is not None else None
    if form is not None and res.lambda_samples:
        pts = np.stack([p for p, _ in res.lambda_samples])
        stored = np.array([val for _, val in res.lambda_samples])
        err = float(np.max(np.abs(form(pts, res.witness.v) - stored)))
        if not err <= tol:
            return f"lambda samples off the closed form by {err:.3g}"
    return None


def _label(entry, x) -> str:
    return f"{entry.id}@{np.round(x, 3).tolist()}" if x.size <= 3 else entry.id


class Workload:
    name = ""
    catalog_ids: tuple[str, ...] = ()

    def __init__(self, counter) -> None:
        # each catalog instance carries a counting oracle
        self.entries = []
        for cid in self.catalog_ids:
            entry = catalog.load(cid)
            inst = counter.wrap_instance(entry.instance)
            self.entries.append(catalog.CatalogEntry(
                entry.id, inst, entry.certifiable_at, entry.degenerate_at))

    def seed(self, seed: int, pass_index: int, role: str = "build") -> int:
        return derive_seed(seed, self.name, pass_index, role)

    def run_pass(self, seed: int, pass_index: int, rec: Recorder) -> None:
        raise NotImplementedError


class Catalog2D(Workload):
    """certify at every listed point of the fixed entries; each certificate
    is round-tripped through canonical JSON and verified on a fresh seed."""

    name = "catalog-2d"
    catalog_ids = catalog.FIXED_IDS

    def run_pass(self, seed, pass_index, rec):
        cfg = NumericConfig(rng_seed=self.seed(seed, pass_index))
        verify_seed = self.seed(seed, pass_index, "verify")
        if verify_seed == cfg.rng_seed:
            verify_seed += 1
        for entry in self.entries:
            inst = entry.instance
            for x in entry.certifiable_at:
                label = _label(entry, x)
                res = rec.call("certify", label, epirep.certify, inst, x, cfg)
                if res is None or not rec.check(
                        "certify", label, certificate_problem(entry, x, res)):
                    continue
                text = canonical_json(res.to_json_dict())
                report = rec.call("verify", label, self._verify, inst, text, verify_seed)
                if report is not None:
                    rec.check("verify", label,
                              None if report.overall else "fresh-seed verify fails")
            for x in entry.degenerate_at:
                label = _label(entry, x)
                res = rec.call("certify", label, epirep.certify, inst, x, cfg)
                if res is not None:
                    stage = getattr(res, "stage", "certificate")
                    rec.check("certify", label, None if stage == "degenerate-point"
                              else f"expected degenerate-point, got {stage}")

    @staticmethod
    def _verify(inst, text, verify_seed):
        cert = epirep.certificate_from_json(json.loads(text))
        return verify.run_suite(inst, cert, NumericConfig(rng_seed=verify_seed))


class RockafellarSweep(Workload):
    """certify on rockafellar_d for growing d, one seed per sweep, as the
    sweep-rockafellar command does; epsilon must fall strictly with d."""

    name = "rockafellar-sweep"
    catalog_ids = tuple(f"rockafellar_{d}" for d in ROCKAFELLAR_DIMS)

    def run_pass(self, seed, pass_index, rec):
        cfg = NumericConfig(rng_seed=self.seed(seed, pass_index))
        prev_eps = None
        for entry in self.entries:
            x = entry.certifiable_at[0]
            label = _label(entry, x)
            res = rec.call("certify", label, epirep.certify, entry.instance, x, cfg)
            if res is None:
                continue
            problem = certificate_problem(entry, x, res)
            if problem is None:
                eps = res.witness.epsilon
                if prev_eps is not None and not eps < prev_eps:
                    problem = f"epsilon {eps!r} does not fall below {prev_eps!r}"
                prev_eps = eps
            rec.check("certify", label, problem)


class SignedDistance(Workload):
    """check_theorem2 at every listed point of the fixed entries under
    THEOREM2_ROUNDS seeds, plus promote_to_certificate on halfspace."""

    name = "signed-distance"
    catalog_ids = catalog.FIXED_IDS
    # one promote costs as much as ~60 theorem2 calls; several rounds give
    # the theorem2 figures enough samples per run
    THEOREM2_ROUNDS = 3

    def run_pass(self, seed, pass_index, rec):
        for round_index in range(self.THEOREM2_ROUNDS):
            cfg = NumericConfig(rng_seed=self.seed(seed, pass_index, f"theorem2-{round_index}"))
            for entry in self.entries:
                for expected, points in ((True, entry.certifiable_at),
                                         (False, entry.degenerate_at)):
                    for x in points:
                        label = _label(entry, x)
                        t2 = rec.call("theorem2", label, sd_module.check_theorem2,
                                      entry.instance, x, cfg)
                        if t2 is not None:
                            rec.check("theorem2", label, None if t2.nondegenerate == expected
                                      else f"nondegenerate={t2.nondegenerate}, "
                                           f"catalog says {expected}")
        cfg = NumericConfig(rng_seed=self.seed(seed, pass_index))
        entry = self.entries[catalog.FIXED_IDS.index("halfspace")]
        x = entry.certifiable_at[0]
        label = _label(entry, x)
        res = rec.call("promote", label, sd_module.promote_to_certificate,
                       entry.instance, x, cfg)
        if res is not None:
            # the signed distance is 0 on the whole membership band |f| <
            # tol_value, which moves the crossing by up to tol_value/|grad f|
            rec.check("promote", label,
                      certificate_problem(entry, x, res, LAMBDA_TOL + cfg.tol_value))


WORKLOADS = {w.name: w for w in (Catalog2D, RockafellarSweep, SignedDistance)}
