"""Command-line entry point exposing every pipeline stage.

Subcommands: degree, coeffs, build, eval, kde, regimes, bench.  Output
is deterministic for fixed flags, input files, and seed (pass
--no-timings to zero the wall-clock fields that would otherwise vary).

Exit codes: 0 success, 2 argument or input error, 3 internal soundness
violation, 4 capacity exceeded.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .approx import (
    Regime,
    classify_regime,
    eval_exported,
    export_polynomial,
    find_degree,
    predict_degree,
    problem,
)
from .coeffs import Target, coefficient_range
from .errors import CapacityError, DomainError, ExpchebError
from .hp import hpf
from .kde import kde_bruteforce, kde_matvec, kernel_map, make_instance
from .polyio import parse_polynomial, render_polynomial

DEFAULT_BITS_ENV = "EXPCHEB_BITS"


def _default_bits() -> int:
    try:
        return int(os.environ.get(DEFAULT_BITS_ENV, "128"))
    except ValueError:
        return 128


def _target(text: str) -> Target:
    try:
        return Target(text)
    except ValueError:
        raise DomainError(f"unknown target {text!r}") from None


def _frac_from_text(text) -> Fraction:
    try:
        if isinstance(text, (int, Fraction)):
            return Fraction(text)
        if isinstance(text, float):
            return Fraction(decimal.Decimal(repr(text)))
        return Fraction(decimal.Decimal(str(text)))
    except (decimal.InvalidOperation, ValueError, TypeError):
        raise DomainError(f"cannot parse number {text!r}") from None


def _dec(x, digits: int | None = None) -> str:
    return x.to_decimal(digits) if digits else x.to_decimal()


# ---------------------------------------------------------------------------
# degree


def _prediction_doc(pred) -> dict:
    doc = {
        "regime": pred.regime.value,
        "predicted_degree": _dec(pred.predicted_degree, 20),
        "constant_name": pred.constant_name.value,
    }
    if pred.regime is Regime.HUGE_B:
        # only the order of magnitude is certified; the true leading
        # constant lies somewhere in [1/2, 1]
        doc["leading_constant"] = ["0.5", "1"]
    else:
        doc["leading_constant"] = _dec(pred.leading_constant, 20)
    return doc


def cmd_degree(args) -> str:
    spec = problem(_target(args.target), args.B, args.delta,
                   args.precision_bits)
    pred = predict_degree(spec)
    cert = None
    note = None
    try:
        cert = find_degree(spec)
    except CapacityError as exc:
        note = str(exc)
    doc = {
        "target": spec.target.value,
        "B": spec.B_text,
        "delta": spec.delta_text,
        "prediction": _prediction_doc(pred),
    }
    if cert is not None:
        doc["certificate"] = {
            "D_upper": cert.D_upper,
            "tail_upper_at_D": _dec(cert.tail_upper_at_D, 20),
            "D_lower": cert.D_lower,
            "lower_witness": cert.lower_witness.value,
            "lower_value": _dec(cert.lower_value, 20),
        }
    else:
        doc["certificate"] = None
        doc["certificate_note"] = note
    if args.output_format == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output_format == "csv":
        rows = ["key,value"]
        flat = dict(doc)
        pred_doc = flat.pop("prediction")
        cert_doc = flat.pop("certificate") or {}
        flat.update({f"prediction.{k}": v for k, v in pred_doc.items()})
        flat.update({f"certificate.{k}": v for k, v in cert_doc.items()})
        for k in sorted(flat):
            rows.append(f"{k},{flat[k]}")
        return "\n".join(rows) + "\n"
    lines = [f"target {spec.target.value}, B = {spec.B_text}, "
             f"delta = {spec.delta_text}"]
    if cert is not None:
        lines.append(f"  certified degree D_upper = {cert.D_upper} "
                     f"(tail bound {_dec(cert.tail_upper_at_D, 12)})")
        lines.append(f"  lower witness {cert.lower_witness.value}: "
                     f"D_lower = {cert.D_lower}")
    else:
        lines.append(f"  certificate skipped: {note}")
    pd = doc["prediction"]
    lc = pd["leading_constant"]
    lc_text = f"[{lc[0]}, {lc[1]}]" if isinstance(lc, list) else lc
    lines.append(f"  regime {pd['regime']}: predicted degree "
                 f"{pd['predicted_degree']} (constant {pd['constant_name']}"
                 f" = {lc_text})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# coeffs


def cmd_coeffs(args) -> str:
    if args.count < 1:
        raise DomainError("count must be at least 1")
    lam = hpf(args.lam, args.precision_bits)
    target = _target(args.target)
    values = coefficient_range(range(args.count), lam, target,
                               args.precision_bits)
    if args.output_format == "json":
        doc = [{"v": v, "value": _dec(cv.value),
                "error_radius": _dec(cv.radius)}
               for v, cv in enumerate(values)]
        return json.dumps(doc, indent=2) + "\n"
    if args.output_format == "text":
        lines = [f"v={v}  {_dec(cv.value, 30)}  (radius {_dec(cv.radius, 6)})"
                 for v, cv in enumerate(values)]
        return "\n".join(lines) + "\n"
    rows = ["v,value,error_radius"]
    for v, cv in enumerate(values):
        rows.append(f"{v},{_dec(cv.value)},{_dec(cv.radius)}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# build / eval


def cmd_build(args) -> str:
    spec = problem(_target(args.target), args.B, args.delta,
                   args.precision_bits)
    cert = find_degree(spec)
    poly = export_polynomial(spec, cert)
    doc = render_polynomial(spec, poly)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
        return ""
    return doc


def _read_points(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        out = []
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line.split(",")[0].strip())
        return out


def cmd_eval(args) -> str:
    with open(args.poly, encoding="utf-8") as fh:
        spec, poly = parse_polynomial(fh.read())
    zs = _read_points(args.points)
    wb = poly.precision_bits + 16
    rows = []
    for z_text in zs:
        z = hpf(z_text, wb)
        if z.to_float() < 0 or z.to_fraction() > spec.B_frac:
            print(f"warning: z = {z_text} lies outside [0, {spec.B_text}]; "
                  f"no accuracy guarantee there", file=sys.stderr)
        p = eval_exported(poly, z)
        f = (-z).exp() if spec.target is Target.EXP_NEG else z.exp()
        err = p - f
        if err.sign() < 0:
            err = -err
        rows.append((z_text, _dec(p, 30), _dec(f, 30), _dec(err, 6)))
    if args.output_format == "json":
        doc = [{"z": r[0], "p": r[1], "f": r[2], "error": r[3]}
               for r in rows]
        return json.dumps(doc, indent=2) + "\n"
    if args.output_format == "text":
        lines = [f"z={r[0]}  p={r[1]}  f={r[2]}  |p-f|={r[3]}" for r in rows]
        return "\n".join(lines) + "\n"
    out = ["z,p,f,error"]
    out.extend(",".join(r) for r in rows)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# kde


def _load_instance(args):
    if args.instance:
        with open(args.instance, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DomainError(f"malformed instance JSON: {exc}") from None
        for key in ("x", "y", "w", "delta"):
            if key not in doc:
                raise DomainError(f"instance JSON is missing {key!r}")
        X = np.asarray(doc["x"], dtype=np.float64)
        Y = np.asarray(doc["y"], dtype=np.float64)
        w = np.asarray(doc["w"], dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        if Y.ndim == 1:
            Y = Y[:, None]
        delta = _frac_from_text(doc["delta"])
        B = _frac_from_text(doc["B"]) if doc.get("B") is not None else None
        if "n" in doc and int(doc["n"]) != X.shape[0]:
            raise DomainError("instance n does not match the x array")
        if "m" in doc and int(doc["m"]) != X.shape[1]:
            raise DomainError("instance m does not match the x array")
        return make_instance(X, Y, w, delta, B)
    if not (args.x and args.y and args.w and args.delta):
        raise DomainError(
            "kde needs --instance or all of --x, --y, --w, --delta")
    X = np.loadtxt(args.x, delimiter=",", ndmin=2, dtype=np.float64)
    Y = np.loadtxt(args.y, delimiter=",", ndmin=2, dtype=np.float64)
    w = np.loadtxt(args.w, delimiter=",", dtype=np.float64).reshape(-1)
    delta = _frac_from_text(args.delta)
    B = _frac_from_text(args.B) if args.B else None
    return make_instance(X, Y, w, delta, B)


def cmd_kde(args) -> str:
    inst = _load_instance(args)
    cert, fm = kernel_map(inst.m, inst.B, inst.delta, args.precision_bits,
                          args.max_columns)
    res = kde_matvec(inst, fm, force=args.force,
                     validate_diameter=args.validate_diameter)
    doc = {
        "n": inst.n,
        "m": inst.m,
        "M": res.M,
        "degree": res.degree,
        "delta": str(inst.delta),
        "B_used": repr(float(inst.B)),
        "B_estimated": inst.B_estimated,
        "certificate": {
            "D_upper": cert.D_upper,
            "D_lower": cert.D_lower,
            "lower_witness": cert.lower_witness.value,
            "certified_sup_bound": _dec(fm.poly.certified_sup_bound, 12),
        },
        "float_error_bound": repr(res.float_error_bound),
        "used_high_precision": res.used_high_precision,
        "timings_ms": None if args.no_timings else {
            "build": res.elapsed_build * 1e3,
            "matvec": res.elapsed_matvec * 1e3,
        },
        "v": [repr(float(x)) for x in res.v],
    }
    if res.diameter_violation is not None:
        doc["diameter_violation"] = repr(res.diameter_violation)
    if args.validate:
        ref = kde_bruteforce(inst)
        wn = float(np.abs(inst.w).sum())
        ratio = float(np.abs(res.v - ref).max()) / wn if wn > 0 else 0.0
        doc["measured_ratio"] = repr(ratio)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# regimes / bench


def _parse_list(text: str) -> list[str]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise DomainError("empty sweep list")
    return items


def cmd_regimes(args) -> str:
    target = _target(args.target)
    bits = args.precision_bits
    rows = ["B,delta,rho,regime,constant_name,leading_constant,"
            "predicted_degree,D_upper,D_lower,lower_witness"]
    for delta_text in _parse_list(args.deltas):
        for b_text in _parse_list(args.Bs):
            spec = problem(target, b_text, delta_text, bits)
            regime, rho = classify_regime(spec)
            pred = predict_degree(spec)
            if pred.regime is Regime.HUGE_B:
                lc = "0.5..1"
            else:
                lc = _dec(pred.leading_constant, 12)
            d_up = d_lo = wit = ""
            if not args.predict_only:
                try:
                    cert = find_degree(spec)
                    d_up = str(cert.D_upper)
                    d_lo = str(cert.D_lower)
                    wit = cert.lower_witness.value
                except CapacityError:
                    pass
            rows.append(",".join([
                b_text, delta_text, _dec(rho, 12), regime.value,
                pred.constant_name.value, lc,
                _dec(pred.predicted_degree, 12), d_up, d_lo, wit]))
    return "\n".join(rows) + "\n"


def _fit_slope(ns: list[int], times: list[float]) -> float:
    xs = np.log(np.asarray(ns, dtype=np.float64))
    ys = np.log(np.asarray(times, dtype=np.float64))
    return float(np.polyfit(xs, ys, 1)[0])


def cmd_bench(args) -> str:
    ns = [int(t) for t in _parse_list(args.ns)]
    if any(n < 2 for n in ns):
        raise DomainError("bench sizes must be at least 2")
    delta = _frac_from_text(args.delta)
    B = _frac_from_text(args.B)
    _, fm = kernel_map(args.m, B, delta, args.precision_bits, args.max_columns)

    # points drawn inside a box whose squared diameter stays below B
    side = math.sqrt(0.98 * float(B) / args.m)
    rng = np.random.default_rng(args.seed)
    rows = ["n,M,degree,build_ms,matvec_ms,total_ms,brute_ms"]
    ns_done = []
    totals = []
    brutes = []
    for n in ns:
        X = rng.uniform(-side / 2, side / 2, (n, args.m))
        Y = rng.uniform(-side / 2, side / 2, (n, args.m))
        w = rng.uniform(0.0, 1.0, n)
        inst = make_instance(X, Y, w, delta, B)
        best_total = best_build = best_mv = math.inf
        best_brute = math.inf
        for _ in range(max(1, args.repeats)):
            res = kde_matvec(inst, fm)
            total = res.elapsed_build + res.elapsed_matvec
            if total < best_total:
                best_total = total
                best_build = res.elapsed_build
                best_mv = res.elapsed_matvec
            t0 = time.perf_counter()
            kde_bruteforce(inst)
            best_brute = min(best_brute, time.perf_counter() - t0)
        if args.no_timings:
            best_build = best_mv = best_total = best_brute = 0.0
        rows.append(f"{n},{fm.rank},{fm.d},{best_build*1e3:.3f},"
                    f"{best_mv*1e3:.3f},{best_total*1e3:.3f},"
                    f"{best_brute*1e3:.3f}")
        ns_done.append(n)
        totals.append(max(best_total, 1e-9))
        brutes.append(max(best_brute, 1e-9))
    out = "\n".join(rows) + "\n"
    if not args.no_timings and len(ns_done) >= 2:
        out += (f"# slope_matvec={_fit_slope(ns_done, totals):.4f}\n"
                f"# slope_brute={_fit_slope(ns_done, brutes):.4f}\n")
    return out


# ---------------------------------------------------------------------------
# parser and dispatch


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=int,
                        default=_default_bits(), dest="precision_bits",
                        help="working precision in bits (default 128, or "
                             f"${DEFAULT_BITS_ENV})")
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default=None, dest="output_format",
                        help="output format (default depends on subcommand)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks (default 0)")
    common.add_argument("--no-timings", action="store_true",
                        dest="no_timings",
                        help="zero out wall-clock fields for byte-stable "
                             "output")

    parser = argparse.ArgumentParser(
        prog="expcheb",
        description="Certified minimal-degree polynomial approximations of "
                    "exp(-x) and exp(x) on [0, B], and fast batch Gaussian "
                    "KDE built on them.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("degree", parents=[common],
                        help="degree certificate plus regime prediction")
    p.add_argument("--B", required=True, help="domain width (decimal text)")
    p.add_argument("--delta", required=True, help="uniform tolerance")
    p.add_argument("--target", default="exp-neg",
                   choices=("exp-neg", "exp-pos"))
    p.set_defaults(func=cmd_degree, default_format="json")

    p = subs.add_parser("coeffs", parents=[common],
                        help="certified series coefficients as CSV")
    p.add_argument("--lambda", required=True, dest="lam",
                   help="coefficient scale (= B/2), at least 1/2")
    p.add_argument("--target", default="exp-neg",
                   choices=("exp-neg", "exp-pos"))
    p.add_argument("--count", type=int, required=True,
                   help="number of orders, starting at v = 0")
    p.set_defaults(func=cmd_coeffs, default_format="csv")

    p = subs.add_parser("build", parents=[common],
                        help="export a certified polynomial document")
    p.add_argument("--B", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--target", default="exp-neg",
                   choices=("exp-neg", "exp-pos"))
    p.add_argument("--out", default=None, help="write to file, not stdout")
    p.set_defaults(func=cmd_build, default_format="json")

    p = subs.add_parser("eval", parents=[common],
                        help="evaluate an exported polynomial at points")
    p.add_argument("--poly", required=True, help="polynomial document file")
    p.add_argument("--points", required=True,
                   help="file of evaluation points, one per line")
    p.set_defaults(func=cmd_eval, default_format="csv")

    p = subs.add_parser("kde", parents=[common],
                        help="batch Gaussian KDE via feature expansion")
    p.add_argument("--instance", default=None,
                   help="instance JSON {n, m, x, y, w, delta, B?}")
    p.add_argument("--x", default=None, help="CSV of source points")
    p.add_argument("--y", default=None, help="CSV of query points")
    p.add_argument("--w", default=None, help="CSV of weights")
    p.add_argument("--delta", default=None, help="per-entry tolerance")
    p.add_argument("--B", default=None,
                   help="squared-diameter bound (estimated when omitted)")
    p.add_argument("--force", choices=("plain", "high"), default=None)
    p.add_argument("--validate", action="store_true",
                   help="run the brute-force oracle and report the "
                        "measured error ratio")
    p.add_argument("--validate-diameter", action="store_true",
                   dest="validate_diameter",
                   help="exactly check the squared-diameter bound (O(n^2 m))")
    p.add_argument("--max-columns", type=int, default=2_000_000,
                   dest="max_columns")
    p.set_defaults(func=cmd_kde, default_format="json")

    p = subs.add_parser("regimes", parents=[common],
                        help="sweep (B, delta): predicted vs certified")
    p.add_argument("--B", required=True, dest="Bs",
                   help="comma-separated B values")
    p.add_argument("--delta", required=True, dest="deltas",
                   help="comma-separated delta values")
    p.add_argument("--target", default="exp-neg",
                   choices=("exp-neg", "exp-pos"))
    p.add_argument("--predict-only", action="store_true",
                   dest="predict_only",
                   help="skip certificates (fast, prediction columns only)")
    p.set_defaults(func=cmd_regimes, default_format="csv")

    p = subs.add_parser("bench", parents=[common],
                        help="timing sweep: feature matvec vs brute force")
    p.add_argument("--n", required=True, dest="ns",
                   help="comma-separated instance sizes")
    p.add_argument("--m", type=int, required=True, help="dimension")
    p.add_argument("--B", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--repeats", type=int, default=1,
                   help="repetitions per size; the minimum is reported")
    p.add_argument("--max-columns", type=int, default=2_000_000,
                   dest="max_columns")
    p.set_defaults(func=cmd_bench, default_format="csv")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.output_format is None:
        args.output_format = args.default_format
    try:
        out = args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExpchebError as exc:
        print(f"soundness error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
