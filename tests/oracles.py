"""Independent reference computations used to pin expected test values.

Everything here is deliberately implemented independently of the
package.  The package also runs the Bessel recurrence downward, but from
certified power-series seeds at the top two orders; the oracle's Miller
recurrence starts from an arbitrary value far above the order, with no
seed, and is normalized by exp(lam) = I_0 + 2 sum I_k, so the two share
no input.  Tails come from direct high-precision summation, and kernel
expansions from exact rational brute force.  mpmath supplies only raw
arbitrary-precision arithmetic.  `eval_monomial` and `measure_sup_error`
are the exceptions: unbounded Horner on the exported monomial form and a
sampled sup error, both in the package's `HPReal`, for checks that a
certificate is at least the error it claims to bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import mpmath

from expcheb.approx import (
    ExportedPolynomial,
    ProblemSpec,
    cert_precision,
    eval_exported,
)
from expcheb.coeffs import Target
from expcheb.errors import DomainError
from expcheb.hp import HPReal, hpf
from expcheb.special import cheb_extrema_and_roots


def bessel_i(v: int, lam, dps: int = 60):
    """I_v(lam) by backward recurrence with doubled-start verification."""
    first = _miller(v, lam, dps, margin=40)
    second = _miller(v, lam, dps, margin=80)
    with mpmath.workdps(dps):
        rel = abs(first - second) / abs(second)
        if rel > mpmath.mpf(10) ** (8 - dps):
            raise AssertionError(
                f"Miller recurrence unstable for I_{v}({lam}): {rel}")
    return second


def _miller(v: int, lam, dps: int, margin: int):
    with mpmath.workdps(dps + 20):
        x = mpmath.mpf(str(lam))
        # start far enough above both the order and the argument that
        # the minimal solution dominates by the time we recur down to v
        start = int(max(v, x)) + margin + 2 * dps
        hi = mpmath.mpf(0)                         # i_{start+1}
        lo = mpmath.mpf(10) ** (-dps)              # i_{start}, arbitrary
        total = mpmath.mpf(0)
        wanted = None
        for k in range(start, 0, -1):
            prev = hi + (2 * k / x) * lo           # i_{k-1}
            hi, lo = lo, prev
            if k - 1 == v:
                wanted = prev
            if k - 1 >= 1:
                total += prev
        # lo is now the unnormalized I_0 and total = sum_{k>=1} I_k, so
        # I_0 + 2 * total is the unnormalized e^lam
        scale = mpmath.exp(x) / (lo + 2 * total)
        value = wanted * scale
    with mpmath.workdps(dps):
        return +value


def exp_neg_coeff(v: int, lam, dps: int = 60):
    """A_v = 2 e^-lam (-1)^v I_v(lam)."""
    with mpmath.workdps(dps):
        sign = -1 if v % 2 else 1
        return 2 * sign * mpmath.exp(-mpmath.mpf(str(lam))) \
            * bessel_i(v, lam, dps)


def exp_pos_coeff(v: int, lam, dps: int = 60):
    """B_v = 2 e^lam I_v(lam)."""
    with mpmath.workdps(dps):
        return 2 * mpmath.exp(mpmath.mpf(str(lam))) * bessel_i(v, lam, dps)


def abs_tail(start: int, lam, neg: bool, dps: int = 60, orders: int = 400):
    """Direct sum of |a_j| for j >= start (truncated far into the decay)."""
    with mpmath.workdps(dps):
        pref = 2 * mpmath.exp(-mpmath.mpf(str(lam)) if neg
                              else mpmath.mpf(str(lam)))
        total = mpmath.mpf(0)
        for j in range(start, start + orders):
            term = pref * bessel_i(j, lam, dps)
            total += abs(term)
            if term != 0 and abs(term) < abs(total) * mpmath.mpf(10) ** (-dps):
                break
        return total


def l2_tail(start: int, lam, neg: bool, dps: int = 60, orders: int = 400):
    """sqrt(1/2 sum_{k>=start} a_k^2 / k), the lower bracket side."""
    with mpmath.workdps(dps):
        pref = 2 * mpmath.exp(-mpmath.mpf(str(lam)) if neg
                              else mpmath.mpf(str(lam)))
        total = mpmath.mpf(0)
        for k in range(start, start + orders):
            term = (pref * bessel_i(k, lam, dps)) ** 2 / k
            total += term
            if term != 0 and term < total * mpmath.mpf(10) ** (-dps):
                break
        return mpmath.sqrt(total / 2)


def best_constant_error(B, dps: int = 60):
    """Minimax error of the best degree-0 approximation to e^-z on [0, B]."""
    with mpmath.workdps(dps):
        return (1 - mpmath.exp(-mpmath.mpf(str(B)))) / 2


def kernel_poly_value(coeffs, x, y) -> Fraction:
    """Exact p(sum_l (x_l - y_l)^2) for rational points and coefficients."""
    q = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x, y))
    acc = Fraction(0)
    for c in reversed([Fraction(c) for c in coeffs]):
        acc = acc * q + c
    return acc


def _multinomial(exps) -> int:
    out = math.factorial(sum(exps))
    for e in exps:
        out //= math.factorial(e)
    return out


def reconstruct_feature_value(fm, x, y) -> Fraction:
    """Exact sum_r kappa_r Xmat_r(x) Ymat_r(y) of a kde feature map at one
    (x, y) pair, from q: with a' = ||x||^2 - t0/2 and c' = ||y||^2 - t0/2
    exact, each column r = (j, i, beta) adds
    (j!/beta!) a'^i x^beta y^beta sum_k c_ijk c'^k, with
    c_ijk = q_{i+j+k} (i+j+k)! / (i! j! k!) (-2)^j taken from q itself."""
    xs = [Fraction(v) for v in x]
    ys = [Fraction(v) for v in y]
    a = sum(v * v for v in xs) - Fraction(fm.shift)
    c = sum(v * v for v in ys) - Fraction(fm.shift)
    d = fm.d
    q = list(fm.shifted) + [Fraction(0)] * (d + 1)
    total = Fraction(0)
    for beta in fm.exponents.tolist():
        j = sum(beta)
        xb = Fraction(_multinomial(beta))
        yb = Fraction(1)
        for xv, yv, e in zip(xs, ys, beta):
            xb *= xv ** e
            yb *= yv ** e
        for i in range(d - j + 1):
            h = sum(q[i + j + k] * _multinomial((i, j, k)) * (-2) ** j
                    * c ** k for k in range(d - i - j + 1))
            total += (xb * a ** i) * (yb * h)
    return total


def eval_monomial(coeffs: Sequence[Fraction], z: HPReal,
                  bits: int) -> HPReal:
    """Horner's rule on the monomial form at `bits`, with no error bound:
    cancellation can cost about log2(sum |c_j| z^j / |p(z)|) bits, which
    grows with B.  `eval_exported` is the stable evaluator."""
    zw = z.with_bits(bits)
    acc = hpf(0, bits)
    for c in reversed(coeffs):
        acc = acc * zw + hpf(c, bits)
    return acc


def measure_sup_error(poly: ExportedPolynomial, spec: ProblemSpec,
                      grid_factor: int = 16) -> HPReal:
    """Observed sup |p(z) - f(z)| on a Chebyshev-spaced grid plus endpoints.

    An empirical measurement (dense sampling), not a certificate; the
    certificate lives in `poly.certified_sup_bound`.
    """
    if grid_factor < 4:
        raise DomainError("grid_factor must be at least 4")
    wb = max(cert_precision(spec), 192)
    n = grid_factor * (poly.degree + 1)
    _, roots = cheb_extrema_and_roots(n, wb)
    half_B = spec.B.with_bits(wb).shifted(-1)
    zs = [half_B * (1 + x) for x in roots]
    zs.append(hpf(0, wb))
    zs.append(spec.B.with_bits(wb))
    worst = hpf(0, wb)
    for z in zs:
        pv = eval_exported(poly, z, wb)
        fv = (-z).exp() if spec.target is Target.EXP_NEG else z.exp()
        err = abs(pv - fv)
        if err > worst:
            worst = err
    return worst


# frozen reference digits (computed with the oracles above and checked
# against standard tables)
GOLDEN = {
    "G_1": "0.5328399753535520235690793992299057695415115471153127",
    "z_star": "2.233423063746441595169948161300635889961429057139265",
    "nu_1": "1.508879561538319928909884488160578573694278589047769",
    "mu_1": "2.836475523324742512531097965657818127218961021785423",
    "I0_1": "1.26606587775200833559824462521471753760767",
    "I1_1": "0.5651591039924850272076960276098633073289",
    "I2_1": "0.135747669767038281182852569994990922949871",
    "I3_1": "0.0221684249243319024762857476298996155294153",
    "I0_half": "1.06348337074132351926318441544535652932952",
    "I5_half": "0.00000822317131310926396161805139097569552891831",
    "I10_20": "3540200.20901952109905289138244985607057267",
    "I2_2": "0.688948447698738204054950015811867105331363",
    "psi_3_2": "0.0212616236026613807834287819132243756428103",
    "const_err_B2": "0.432332358381693654053000252513757798296184",
    "tail_half_20": "4.6030786444497883387353883062582907e-31",
    "A2_1": "0.0998775537884470775263843170946181979885895",
    "B2_1": "0.738000847966798948275046307884886013231227",
}
