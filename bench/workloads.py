"""The benchmark's workloads: seeded inputs, one operation, and its oracle.

Each workload maps an op index k to inputs that depend only on the seed
and k (warm-up ops use k < 0, so their inputs are never reused), runs one
operation through expcheb's public functions, and checks the result with
an independent oracle outside the timed window.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from expcheb import approx, coeffs, kde
from expcheb.hp import hpf

GOLDEN = (math.sqrt(5) - 1) / 2


def op_rng(seed: int, k: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, 0 if k >= 0 else 1, abs(k)])


@dataclass(frozen=True)
class CertifyInput:
    target: coeffs.Target
    B: str
    delta: str
    zs: tuple[float, ...]


class CertifyWide:
    """One certificate per op: predict_degree, find_degree, export_polynomial.

    Ops alternate between exp(-x) with B in [180, 220] at delta 1e-8
    (find_degree dominates) and exp(+x) with B in [90, 110] at delta 1e-6
    (export dominates).  B walks a golden-ratio sequence from a seeded
    offset: every op gets a distinct B, so the process-wide Bessel cache
    never serves a later op, and the ops of any run spread evenly over the
    range, which keeps the per-run median steady across seeds.
    """

    name = "certify-wide"
    CASES = ((coeffs.Target.EXP_NEG, 180, 220, "1e-8"),
             (coeffs.Target.EXP_POS, 90, 110, "1e-6"))
    Z_POINTS = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.offsets = op_rng(seed, 0, stream=1).random(len(self.CASES))

    def inputs(self, k: int) -> CertifyInput:
        case, j = k % 2, k // 2
        target, lo, hi, delta = self.CASES[case]
        u = (self.offsets[case] + j * GOLDEN) % 1.0
        B = f"{lo + (hi - lo) * u:.6f}"
        zs = op_rng(self.seed, k).uniform(0.0, float(B), self.Z_POINTS)
        return CertifyInput(target, B, delta, tuple(float(z) for z in zs))

    def run(self, inp: CertifyInput):
        spec = approx.problem(inp.target, inp.B, inp.delta)
        approx.predict_degree(spec)
        cert = approx.find_degree(spec)
        return cert, approx.export_polynomial(spec, cert)

    def check(self, inp: CertifyInput, out) -> list[str]:
        cert, poly = out
        errors = []
        bound = poly.certified_sup_bound.to_fraction()
        if not bound < Fraction(inp.delta):
            errors.append(f"certified bound {float(bound):.4g} >= {inp.delta}")
        if not cert.D_lower <= cert.D_upper == poly.degree:
            errors.append(f"degrees out of order: D_lower {cert.D_lower}, "
                          f"D_upper {cert.D_upper}, export {poly.degree}")
        sign = -1 if inp.target is coeffs.Target.EXP_NEG else 1
        with mpmath.workprec(2 * poly.precision_bits + 64):
            limit = mpmath.mpf(bound.numerator) / bound.denominator
            for z in inp.zs:
                p = approx.eval_exported(poly, hpf(z, poly.precision_bits))
                p = p.to_fraction()
                err = abs(mpmath.mpf(p.numerator) / p.denominator
                          - mpmath.exp(sign * mpmath.mpf(z)))
                if err > limit:
                    errors.append(f"|p(z) - f(z)| = {float(err):.4g} above "
                                  f"the bound at z = {z!r}")
        return errors

    def summary(self, out) -> dict:
        cert, _ = out
        return {"degree": cert.D_upper, "degree_lower": cert.D_lower}

    def cli_case(self, k: int, first, tmpdir):
        """`expcheb degree` on a fresh B, compared with the library."""
        inp = self.inputs(k)
        argv = ["degree", "--B", inp.B, "--delta", inp.delta,
                "--target", inp.target.value]

        def compare(doc: dict, _first_cert) -> list[str]:
            cert = approx.find_degree(
                approx.problem(inp.target, inp.B, inp.delta))
            got = doc["certificate"]
            if (got["D_upper"], got["D_lower"]) != (cert.D_upper, cert.D_lower):
                return [f"CLI degree {got['D_upper']}/{got['D_lower']} differs "
                        f"from library {cert.D_upper}/{cert.D_lower}"]
            return []
        return argv, compare


@dataclass(frozen=True)
class KdeInput:
    X: np.ndarray
    Y: np.ndarray
    w: np.ndarray
    delta: str
    rows: np.ndarray  # rows checked against the direct sum


class Kde:
    """One `solve(make_instance(X, Y, w, delta))` per op, B estimated.

    Points are uniform in the box [0, side]^m, so the estimated squared
    diameter is about m * side^2; weights are standard normal (mixed
    signs).  Every op draws a fresh instance.
    """

    CHECK_ROWS = 32

    def __init__(self, name: str, m: int, n: int, delta: str, side: float,
                 seed: int):
        self.name, self.m, self.n, self.delta, self.side = name, m, n, delta, side
        self.seed = seed

    def inputs(self, k: int) -> KdeInput:
        rng = op_rng(self.seed, k)
        X = rng.uniform(0.0, self.side, (self.n, self.m))
        Y = rng.uniform(0.0, self.side, (self.n, self.m))
        w = rng.standard_normal(self.n)
        rows = rng.choice(self.n, self.CHECK_ROWS, replace=False)
        return KdeInput(X, Y, w, self.delta, rows)

    def run(self, inp: KdeInput):
        inst = kde.make_instance(inp.X, inp.Y, inp.w, inp.delta)
        return inst, kde.solve(inst)

    def check(self, inp: KdeInput, out) -> list[str]:
        _, res = out
        errors = []
        delta = float(Fraction(inp.delta))
        w_norm = math.fsum(np.abs(inp.w))
        worst = 0.0
        for i in inp.rows:
            d2 = ((inp.X[i] - inp.Y) ** 2).sum(axis=1)
            exact = math.fsum(inp.w * np.exp(-d2))
            worst = max(worst, abs(float(res.v[i]) - exact))
        if not worst <= delta * w_norm:
            errors.append(f"sampled error {worst / w_norm:.4g} * ||w||_1 "
                          f"above delta {inp.delta}")
        if not res.float_error_bound <= delta / 2:
            errors.append(f"float error bound {res.float_error_bound:.4g} "
                          f"above delta/2")
        if res.v.shape != (self.n,) or not np.isfinite(res.v).all():
            errors.append("result vector malformed")
        return errors

    def summary(self, out) -> dict:
        inst, res = out
        return {"M": res.M, "degree": res.degree, "n": inst.n,
                "build_s": res.elapsed_build, "matvec_s": res.elapsed_matvec,
                "escalated": res.used_high_precision,
                "float_bound_share":
                    res.float_error_bound / float(inst.delta / 2)}

    def cli_case(self, k: int, first, tmpdir):
        """`expcheb kde --no-timings` on op `first`'s instance."""
        inp, (inst, res) = first
        path = tmpdir / "instance.json"
        path.write_text(json.dumps({"x": inp.X.tolist(), "y": inp.Y.tolist(),
                                    "w": inp.w.tolist(), "delta": inp.delta}),
                        encoding="utf-8")
        argv = ["kde", "--instance", str(path), "--no-timings"]

        def compare(doc: dict, first_cert) -> list[str]:
            errors = []
            got = (doc["degree"], doc["M"], doc["certificate"]["D_lower"])
            want = (res.degree, res.M, first_cert.D_lower)
            if got != want:
                errors.append(f"CLI (degree, M, D_lower) {got} differs from "
                              f"library {want}")
            v = np.array([float(x) for x in doc["v"]])
            # both sides are certified within their float bound of the same
            # polynomial sum, so they can differ by at most the two bounds
            slack = (float(doc["float_error_bound"]) + res.float_error_bound) \
                * math.fsum(np.abs(inst.w))
            gap = float(np.abs(v - res.v).max())
            if not gap <= slack:
                errors.append(f"CLI v differs from library by {gap:.4g}, "
                              f"above the combined bound {slack:.4g}")
            return errors
        return argv, compare

    def brute_check(self, first) -> list[str]:
        inp, (inst, res) = first
        ref = kde.kde_bruteforce(inst)
        w_norm = math.fsum(np.abs(inst.w))
        gap = float(np.abs(res.v - ref).max())
        if not gap <= float(inst.delta) * w_norm:
            return [f"brute-force gap {gap / w_norm:.4g} * ||w||_1 above "
                    f"delta {inp.delta}"]
        return []


def make(name: str, seed: int):
    if name == "certify-wide":
        return CertifyWide(seed)
    if name == "kde-lowdim":
        return Kde(name, m=2, n=16384, delta="1e-3", side=math.sqrt(2),
                   seed=seed)
    if name == "kde-escalate":
        return Kde(name, m=1, n=4096, delta="1e-12", side=4.0, seed=seed)
    raise ValueError(f"unknown workload {name!r}")
