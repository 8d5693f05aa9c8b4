"""Command-line front end.

Subcommands: certify, verify, theorem2, sweep-rockafellar, list-catalog.

Exit codes are a stable contract:
    0  success
    1  input error (bad flags, unreadable files, unwritable --out paths,
       point not on the boundary, a tol_bisect finer than the float grid
       at the point, f or its gradient not finite near the point, too
       large for memory, a closed stdout)
    2  degenerate point (no descent direction; also theorem2 = false, and
       a descent radius that shrinks to nothing)
    3  lemma-check failure (certificate produced or loaded, suite rejected
       it; also a non-monotone sweep)
    4  seed reuse refused by the verifier
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys

import numpy as np

from . import catalog as _catalog
from .core import NonFiniteValue, NumericConfig, ProblemInstance, canonical_json, require_vector
from .epirep import (
    CertificationFailure,
    EpigraphCertificate,
    bisection_tolerance_failure,
    boundary_band_failure,
    certificate_from_json,
    certify,
)
from .instancefile import InstanceSpecError, load_instance_file, parse_instance, parse_json
from .signed_distance import (
    PROBE_RESOLUTION,
    check_theorem2,
    promote_to_certificate,
    sd_instance,
)
from .verify import SeedReuseError, run_suite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_LEMMA = 3
EXIT_SEED_REUSE = 4

_FAILURE_EXIT = {
    "precondition": EXIT_INPUT,
    "degenerate-point": EXIT_DEGENERATE,
    "radius-underflow": EXIT_DEGENERATE,
    "lemma-check-failure": EXIT_LEMMA,
}


def _error(message: str, extra: dict | None = None) -> None:
    payload = {**(extra or {}), "error": message}
    print(json.dumps(payload, sort_keys=True, allow_nan=False), file=sys.stderr)


def _failure(res: CertificationFailure, prefix: str = "") -> int:
    """Report a failed construction on stderr; return its exit code."""
    _error(prefix + res.message, res.to_json_dict())
    return _FAILURE_EXIT[res.stage]


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written before any work is done;
    creates no file.  _write's OSError handler stays the backstop."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(parent):
        problem = f"no directory {parent!r}"
    elif not os.access(parent, os.W_OK):
        problem = f"directory {parent!r} is not writable"
    else:
        return
    raise InstanceSpecError(f"cannot write --out {path!r}: {problem}")


def _write(path: str, text: str) -> None:
    """Write text to an --out path, newline-terminated; an unwritable path is
    an input error."""
    try:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise InstanceSpecError(f"cannot write --out: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    print(text)


def _resolve_instance(args) -> tuple[ProblemInstance, NumericConfig]:
    if args.catalog and args.instance:
        raise InstanceSpecError("give either --catalog or --instance, not both")
    if args.catalog:
        inst, cfg = parse_instance({"function": {"catalog_id": args.catalog}})
    elif args.instance:
        inst, cfg = load_instance_file(args.instance)
    else:
        raise InstanceSpecError("one of --catalog or --instance is required")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, rng_seed=args.seed)
    return inst, cfg


def _resolve_point(inst: ProblemInstance, args) -> np.ndarray:
    if args.point is not None and args.point_index is not None:
        raise InstanceSpecError("give either --point or --point-index, not both")
    if args.point is not None:   # an empty --point is a bad point, not "none given"
        try:
            coords = [float(t) for t in args.point.split(",")]
            return require_vector(coords, inst.space.dim, "the point")
        except ValueError as exc:
            raise InstanceSpecError(f"bad --point {args.point!r}: {exc}") from None
    idx = 0 if args.point_index is None else args.point_index
    if not inst.boundary_points:
        raise InstanceSpecError("instance declares no boundary points; use --point")
    if not (0 <= idx < len(inst.boundary_points)):
        raise InstanceSpecError(
            f"--point-index {idx} out of range ({len(inst.boundary_points)} declared)"
        )
    return np.asarray(inst.boundary_points[idx], dtype=float)


def _certificate_text(cert: EpigraphCertificate, fmt: str) -> str:
    if fmt == "csv":
        # the stored cylinder slice of lambda, one row per sample
        buf = io.StringIO()
        dim = cert.space.dim
        buf.write(",".join(f"x{i + 1}" for i in range(dim)) + ",lambda\n")
        for p, val in cert.lambda_samples:
            buf.write(",".join(repr(float(c)) for c in p) + f",{val!r}\n")
        return buf.getvalue().rstrip("\n")
    if fmt == "table":
        w = cert.witness
        lines = [
            f"instance      {cert.instance_label}",
            f"x             {np.asarray(w.x).tolist()}",
            f"v             {np.asarray(w.v).tolist()}",
            f"alpha         {w.alpha:.12g}",
            f"r             {w.r:.12g}",
            f"k             {w.k:.12g}",
            f"epsilon       {w.epsilon:.12g}",
            f"bound 1+2k/a  {cert.lipschitz_bound:.12g}",
            f"measured      {cert.measured_lipschitz:.12g}",
            f"confidence    {cert.confidence}",
        ]
        if cert.report is not None:
            lines.append("")
            lines.append(cert.report.table())
        return "\n".join(lines)
    return canonical_json(cert.to_json_dict())


def cmd_certify(args) -> int:
    inst, cfg = _resolve_instance(args)
    x = _resolve_point(inst, args)
    res = certify(inst, x, cfg)
    if isinstance(res, CertificationFailure):
        return _failure(res)
    if args.out:
        # out always receives the canonical JSON, stdout follows --format
        _write(args.out, canonical_json(res.to_json_dict()))
    print(_certificate_text(res, args.format))
    return EXIT_OK


def cmd_verify(args) -> int:
    inst, cfg = _resolve_instance(args)
    try:
        with open(args.certificate) as fh:
            cert = certificate_from_json(parse_json(fh.read()))
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise InstanceSpecError(f"cannot load certificate: {exc}") from exc
    # theorem2 --promote certifies the signed distance of f; check that
    # function, not f
    sd = sd_instance(inst, cfg)
    if cert.instance_descriptor == sd.f.descriptor:
        inst = sd
    stored = (cert.space.dim, cert.space.norm_kind, cert.instance_descriptor)
    wanted = (inst.space.dim, inst.space.norm_kind, inst.f.descriptor)
    for field, got, want in zip(("dim", "norm", "descriptor"), stored, wanted):
        if got != want:
            raise InstanceSpecError(
                f"certificate {field} {got!r} does not match the instance's {want!r}"
            )
    too_fine = bisection_tolerance_failure(cert.witness.x, cfg)
    if too_fine is not None:
        return _failure(too_fine)
    if args.seed is None:
        # fresh by default; an explicit matching --seed still trips the guard
        cfg = dataclasses.replace(cfg, rng_seed=cert.seed + 1)
    try:
        report = run_suite(inst, cert, cfg)
    except SeedReuseError as exc:
        _error(str(exc))
        return EXIT_SEED_REUSE
    text = report.table() if args.format == "table" else canonical_json(report.to_json_dict())
    _emit(text, args.out)
    return EXIT_OK if report.overall else EXIT_LEMMA


def cmd_theorem2(args) -> int:
    inst, cfg = _resolve_instance(args)
    x = _resolve_point(inst, args)
    # promote bisects, so before the witness search it refuses what certify
    # refuses: a point off the band, then a tol_bisect finer than the floats
    refused = args.promote and (boundary_band_failure(inst, x, cfg)
                                or bisection_tolerance_failure(x, cfg))
    t2 = refused or check_theorem2(inst, x, cfg)
    if isinstance(t2, CertificationFailure):
        return _failure(t2)
    payload = {
        "nondegenerate": t2.nondegenerate,
        "alpha": t2.alpha,
        "witness": None if t2.witness is None else t2.witness.tolist(),
        "probe_resolution": PROBE_RESOLUTION,
        "directions_tried": t2.directions_tried,
        "note": t2.note,
    }
    if not t2.nondegenerate:
        _emit(canonical_json(payload), args.out)
        return EXIT_DEGENERATE
    if args.promote:
        res = promote_to_certificate(inst, x, cfg)
        if isinstance(res, CertificationFailure):
            _emit(canonical_json(payload), None)
            return _failure(res)
        payload["certificate"] = res.to_json_dict()
    _emit(canonical_json(payload), args.out)
    return EXIT_OK


def cmd_sweep_rockafellar(args) -> int:
    try:
        d_list = [int(t) for t in args.d_list.split(",") if t.strip()]
    except ValueError as exc:
        raise InstanceSpecError(f"bad --d-list: {exc}") from exc
    if not d_list:
        raise InstanceSpecError("--d-list is empty")
    seed = args.seed if args.seed is not None else 0
    cfg = NumericConfig(rng_seed=seed)
    rows = []
    for d in d_list:
        try:
            entry = _catalog.load(f"rockafellar_{d}")
        except KeyError as exc:
            raise InstanceSpecError(f"bad --d-list: {exc.args[0]}") from exc
        res = certify(entry.instance, entry.certifiable_at[0], cfg)
        if isinstance(res, CertificationFailure):
            return _failure(res, f"d={d}: ")
        w = res.witness
        rows.append((d, w.alpha, w.r, w.k, w.epsilon,
                     res.lipschitz_bound, res.measured_lipschitz))
    header = "d,alpha,r,k,epsilon,lipschitz_bound,measured_lipschitz"
    body = "\n".join(",".join(repr(c) if i else str(c) for i, c in enumerate(row))
                     for row in rows)
    _emit(header + "\n" + body, args.out)
    eps = [row[4] for row in rows]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        _error("epsilon not strictly decreasing across the sweep",
               {"epsilons": eps, "d_list": d_list})
        return EXIT_LEMMA
    return EXIT_OK


def cmd_list_catalog(args) -> int:
    rows = _catalog.list_catalog()
    if args.format == "json":
        _emit(canonical_json(rows), args.out)
        return EXIT_OK
    widths = {k: max(len(k), *(len(str(r[k])) for r in rows)) for k in rows[0]}
    keys = list(rows[0])
    lines = ["  ".join(k.ljust(widths[k]) for k in keys)]
    for r in rows:
        lines.append("  ".join(str(r[k]).ljust(widths[k]) for k in keys))
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _add_instance_flags(p: argparse.ArgumentParser, with_point: bool = True) -> None:
    p.add_argument("--instance", help="path to an instance JSON file")
    p.add_argument("--catalog", help="built-in catalog id")
    if with_point:
        p.add_argument("--point", help='coordinates "x1,x2,..."')
        p.add_argument("--point-index", type=int, default=None,
                       help="index into the instance's declared boundary points "
                            "(default 0)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="also write the primary output to this path")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so they end in the JSON error line like any other
    input error; subparsers inherit the class."""

    def error(self, message: str):
        raise InstanceSpecError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="epicert",
        description="Certify that a sublevel set is locally the epigraph of "
                    "a Lipschitz function, and verify such certificates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="build a certificate at a boundary point")
    _add_instance_flags(p)
    p.add_argument("--format", choices=("json", "table", "csv"), default="json")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="re-run the lemma suite on a stored certificate")
    _add_instance_flags(p, with_point=False)
    p.add_argument("--certificate", required=True, help="certificate JSON path")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("theorem2", help="signed-distance nondegeneracy check")
    _add_instance_flags(p)
    p.add_argument("--promote", action="store_true",
                   help="additionally certify against the signed distance")
    p.set_defaults(func=cmd_theorem2)

    p = sub.add_parser("sweep-rockafellar", help="certify the truncation family over d")
    p.add_argument("--d-list", required=True, help='comma list, e.g. "1,2,4,8"')
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_sweep_rockafellar)

    p = sub.add_parser("list-catalog", help="show built-in instances")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_list_catalog)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out:
            _check_out(args.out)
        # a non-finite oracle value is reported below, not warned about
        with np.errstate(all="ignore"):
            code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone; point stdout at devnull so the
        # flush at interpreter exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _error("stdout was closed before the output was written")
        return EXIT_INPUT
    except (InstanceSpecError, NonFiniteValue) as exc:
        _error(str(exc))
        return EXIT_INPUT
    except MemoryError as exc:
        _error(f"input too large for memory: {str(exc) or 'allocation failed'}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
