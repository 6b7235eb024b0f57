"""Minimum-degree polynomial approximation of exp(-x) / exp(x) on [0, B].

The builder works in three stages:

1. `predict_degree` classifies the (B, delta) pair into a regime and
   produces a closed-form degree estimate.  The estimate only seeds the
   search and labels reports; it carries no soundness weight.
2. `find_degree` turns certified coefficient-tail brackets into a
   `DegreeCertificate`: the minimal degree whose truncation error is
   provably below delta, plus a lower witness showing nearby smaller
   degrees cannot work.
3. `export_polynomial` materializes the certified truncation as both a
   Chebyshev-basis form (for stable evaluation) and exact dyadic-rational
   monomial coefficients in the original variable z in [0, B], with every
   rounding step budgeted and re-verified.

All tolerance comparisons that decide a certificate are performed on
exact rationals (every finite binary float is one), never on rounded
values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath.libmp import mpf_exp, mpf_neg

from .coeffs import (
    CoeffValue,
    TailBounds,
    Target,
    coefficient,
    tail_bounds,
    tail_cutoff,
)
from .errors import (
    BitBudgetError,
    CapacityError,
    DomainError,
    SoundnessError,
)
from .hp import DEFAULT_BITS, HPReal, hpf
from .special import (
    cheb_eval,
    cheb_extrema_and_roots,
    critical_constant_neg,
    critical_constant_pos,
    saturation_constant,
)

# Regime thresholds on rho = B / (2 ln(1/delta)).  They only steer
# reporting and the search seed; certificates carry the soundness.
RHO_SMALL = 0.05
RHO_LARGE = 20.0

# find_degree refuses to build certificates whose explicit coefficient
# sums would exceed this many terms; callers get a CapacityError instead
# of an open-ended computation.
MAX_TAIL_CUTOFF = 60_000

_TAIL_BITS = 128


class Regime(enum.Enum):
    SMALL_B = "small-B"
    CRITICAL = "critical"
    LARGE_B = "large-B"
    HUGE_B = "huge-B"


class ConstantName(enum.Enum):
    NONE = "none"
    NU = "nu"
    MU = "mu"
    Z_STAR = "z-star"
    SQRT = "sqrt"


class LowerWitness(enum.Enum):
    # L2 tail bound: no polynomial of degree < D_lower reaches delta.
    TAIL_L2 = "tail-l2"
    # Growth of Chebyshev polynomials outside [-1, 1] forces the degree.
    CHEB_GROWTH = "cheb-growth"
    # Only the non-constancy requirement applies (degree >= 1).
    DEFINITION = "definition"


@dataclass(frozen=True)
class ProblemSpec:
    """An approximation problem: target exp(+-x), domain [0, B], tolerance."""

    target: Target
    B: HPReal
    delta: HPReal
    B_text: str
    delta_text: str
    B_frac: Fraction
    delta_frac: Fraction
    lam: HPReal  # half-width B/2, the natural scale of the coefficients

    @property
    def bits(self) -> int:
        return max(self.B.bits, self.delta.bits, DEFAULT_BITS)


def problem(target: Target, B, delta, bits: int = DEFAULT_BITS) -> ProblemSpec:
    """Validate and package an approximation problem.

    `B` and `delta` may be decimal strings (kept verbatim for round-trip
    serialization), ints, floats, Fractions, or HPReal values.
    """
    if not isinstance(target, Target):
        raise DomainError("target must be a Target")
    B_text = B if isinstance(B, str) else str(B)
    delta_text = delta if isinstance(delta, str) else str(delta)
    B_hp = B if isinstance(B, HPReal) else HPReal(B, bits)
    delta_hp = delta if isinstance(delta, HPReal) else HPReal(delta, bits)
    B_frac = B_hp.to_fraction()
    delta_frac = delta_hp.to_fraction()
    if B_frac < 1:
        raise DomainError("domain width B must be at least 1")
    if not (0 < delta_frac < 1):
        raise DomainError("tolerance delta must lie strictly between 0 and 1")
    return ProblemSpec(target, B_hp, delta_hp, B_text, delta_text,
                       B_frac, delta_frac, B_hp.shifted(-1))


@dataclass(frozen=True)
class ChebSeries:
    """Truncated Chebyshev-basis series: coeffs[j] is the order-j coefficient."""

    lam: HPReal
    target: Target
    coeffs: tuple[CoeffValue, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class DegreeCertificate:
    spec: ProblemSpec
    D_upper: int
    tail_upper_at_D: HPReal
    D_lower: int
    lower_witness: LowerWitness
    lower_value: HPReal


@dataclass(frozen=True)
class RegimePrediction:
    spec: ProblemSpec
    regime: Regime
    predicted_degree: HPReal
    leading_constant: HPReal
    constant_name: ConstantName


@dataclass(frozen=True)
class ExportedPolynomial:
    """A certified polynomial in both Chebyshev and monomial form.

    `monomial_form[j]` is the exact dyadic-rational coefficient of z^j,
    z in [0, B].  `certified_sup_bound` is a proven upper bound on
    sup |p(z) - f(z)|: truncation tail + coefficient radii + rounding.
    """

    degree: int
    domain_B: HPReal
    cheb_form: ChebSeries
    monomial_form: tuple[Fraction, ...]
    certified_sup_bound: HPReal
    rounding_bound: HPReal
    precision_bits: int


def log_inv_delta(spec: ProblemSpec, bits: int = DEFAULT_BITS) -> HPReal:
    """ln(1/delta) at the requested precision."""
    return -(spec.delta.with_bits(bits + 8).log().with_bits(bits))


def cert_precision(spec: ProblemSpec) -> int:
    """Coefficient precision used when exporting a certified polynomial.

    Scales with the tolerance and, for the growing target, with the
    magnitude e^{2 lam} the coefficients must resolve against.
    """
    dbits = max(0, math.ceil(-math.log2(float(spec.delta_frac))
                             if spec.delta_frac > 0 else 0))
    extra = 0
    if spec.target is Target.EXP_POS:
        extra = math.ceil(2 * spec.lam.to_float() * math.log2(math.e)) + 8
    return DEFAULT_BITS + dbits + extra + 64


def radius_sum_budget(spec: ProblemSpec, p_cert: int) -> Fraction:
    """Upper bound on the sum of all coefficient error radii at p_cert bits.

    Every radius is below 2^-p_cert times its coefficient magnitude, and
    the absolute coefficient sum is at most 2 (decaying target) or
    2 e^{2 lam} (growing target).
    """
    if spec.target is Target.EXP_NEG:
        scale = Fraction(2)
    else:
        two_lam = spec.lam.shifted(1)
        scale = 2 * HPReal._wrap(
            mpf_exp(two_lam.raw, 64, "u"), 64).to_fraction()
    return scale * Fraction(1, 2 ** p_cert)


# ---------------------------------------------------------------------------
# regime prediction


def classify_regime(spec: ProblemSpec) -> tuple[Regime, HPReal]:
    """Regime label plus rho = B / (2 ln(1/delta))."""
    bits = spec.bits
    L = log_inv_delta(spec, bits)
    rho = spec.B / (L.shifted(1))
    rho_f = rho.to_float()
    if rho_f < RHO_SMALL:
        return Regime.SMALL_B, rho
    if rho_f <= RHO_LARGE:
        return Regime.CRITICAL, rho
    if spec.target is Target.EXP_NEG and spec.B > L * L * L:
        return Regime.HUGE_B, rho
    return Regime.LARGE_B, rho


def predict_degree(spec: ProblemSpec) -> RegimePrediction:
    """Closed-form degree estimate from the regime analysis.

    SMALL_B:  ln(1/delta) / ln(ln(1/delta) / B)
    CRITICAL: c(rho) * rho * ln(1/delta), c solving the decay-rate level
              equation (level 1 - 1/rho for the decaying target,
              -1 - 1/rho for the growing one)
    LARGE_B:  sqrt(B ln(1/delta)) decaying, z_star * B / 2 growing
    HUGE_B:   sqrt(B ln(1/delta)) as an order of magnitude only; the true
              leading constant is known only to lie in [1/2, 1]
    """
    bits = spec.bits
    regime, rho = classify_regime(spec)
    L = log_inv_delta(spec, bits)
    one = hpf(1, bits)
    if regime is Regime.SMALL_B:
        value = L / (L / spec.B).log()
        return RegimePrediction(spec, regime, value, one, ConstantName.NONE)
    if regime is Regime.CRITICAL:
        if spec.target is Target.EXP_NEG:
            const = critical_constant_neg(rho, bits)
            name = ConstantName.NU
        else:
            const = critical_constant_pos(rho, bits)
            name = ConstantName.MU
        return RegimePrediction(spec, regime, const * rho * L, const, name)
    if spec.target is Target.EXP_POS:
        zs = saturation_constant(bits)
        return RegimePrediction(spec, Regime.LARGE_B, zs * spec.lam, zs,
                                ConstantName.Z_STAR)
    value = (spec.B * L).sqrt()
    return RegimePrediction(spec, regime, value, one, ConstantName.SQRT)


# ---------------------------------------------------------------------------
# certified degree search


def build_series(spec: ProblemSpec, D: int,
                 p_target: int = DEFAULT_BITS) -> ChebSeries:
    """First D coefficients (orders 0..D-1) at certified precision."""
    if not isinstance(D, int) or D < 1:
        raise DomainError("coefficient count D must be a positive integer")
    coeffs = tuple(coefficient(v, spec.lam, spec.target, p_target)
                   for v in range(D))
    return ChebSeries(spec.lam, spec.target, coeffs)


class _TailCache:
    def __init__(self, spec: ProblemSpec, p_target: int):
        self.spec = spec
        self.p_target = p_target
        self._memo: dict[int, TailBounds] = {}

    def __call__(self, D: int) -> TailBounds:
        tb = self._memo.get(D)
        if tb is None:
            tb = tail_bounds(D, self.spec.lam, self.spec.target, self.p_target)
            self._memo[D] = tb
        return tb


def _check_tail_cutoff(spec: ProblemSpec, D: int, p_target: int) -> None:
    V = tail_cutoff(D, spec.lam.to_float(), p_target)
    if V > MAX_TAIL_CUTOFF:
        raise CapacityError(
            f"certifying this problem needs explicit sums over ~{V} "
            f"coefficients (limit {MAX_TAIL_CUTOFF}); use predict_degree "
            f"for an order-of-magnitude estimate instead")


def find_degree(spec: ProblemSpec) -> DegreeCertificate:
    """Certified minimal degree plus a lower witness.

    D_upper is the least D >= 1 whose tail upper bound, plus the error
    radii the exported coefficients will carry, is provably below delta.
    The tail upper bound is nonincreasing in D, so an exponential bracket
    around the regime prediction followed by binary search is exact.
    """
    p_tail = _TAIL_BITS
    _check_tail_cutoff(spec, 1, p_tail)
    tails = _TailCache(spec, p_tail)
    threshold = spec.delta_frac - radius_sum_budget(spec, cert_precision(spec))
    if threshold <= 0:
        raise SoundnessError("tolerance too small for the export precision")

    def ok(D: int) -> bool:
        return tails(D).upper.to_fraction() < threshold

    seed = max(1, min(int(predict_degree(spec).predicted_degree.to_float()),
                      MAX_TAIL_CUTOFF))
    if ok(1):
        D_upper = 1
    else:
        lo, hi = 1, max(2, seed)
        while not ok(hi):
            lo = hi
            hi *= 2
            _check_tail_cutoff(spec, hi, p_tail)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ok(mid):
                hi = mid
            else:
                lo = mid
        D_upper = hi
    tail_at = tails(D_upper)

    # Lower witness.  The L2 tail lower bound is nonincreasing in D; find
    # the largest D where it still reaches delta.
    def low_ok(D: int) -> bool:
        return tails(D).lower.to_fraction() >= spec.delta_frac

    if low_ok(1):
        lo, hi = 1, 2
        while hi <= D_upper and low_ok(hi):
            lo = hi
            hi *= 2
        hi = min(hi, D_upper + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if low_ok(mid):
                lo = mid
            else:
                hi = mid
        D_lower = lo
        return DegreeCertificate(spec, D_upper, tail_at.upper, D_lower,
                                 LowerWitness.TAIL_L2, tails(D_lower).lower)

    can_growth = (spec.target is Target.EXP_NEG
                  and spec.delta_frac < Fraction(1, 4)
                  and spec.B_frac > 0
                  and log_inv_delta(spec, 96).to_fraction() < spec.B_frac)
    if can_growth:
        try:
            D_growth = degree_lower_bound(spec)
        except DomainError:
            D_growth = None
        if D_growth is not None:
            D_lower = min(D_growth, D_upper)
            return DegreeCertificate(spec, D_upper, tail_at.upper, D_lower,
                                     LowerWitness.CHEB_GROWTH,
                                     hpf(D_growth, 64))
    return DegreeCertificate(spec, D_upper, tail_at.upper, 1,
                             LowerWitness.DEFINITION, tails(1).lower)


def degree_lower_bound(spec: ProblemSpec, bits: int = 256) -> int:
    """Degree forced by Chebyshev growth outside the unit interval.

    For the decaying target with delta < 1/4 and B > ln(1/delta): any
    polynomial that stays delta-close to exp(-z) on [0, B] is small on
    the subinterval where exp(-z) <= delta yet nearly 1 at z = 0; scaling
    that subinterval to [-1, 1] places z = 0 at
        x0 = 1 + 2 ln(1/delta) / (B - ln(1/delta)) > 1,
    and a degree-d polynomial bounded by 2*delta on [-1, 1] can reach at
    most 2*delta*T_d(x0) there.  The returned D is the least degree whose
    growth reaches (1 - delta)/(2 delta), so every degree below D fails.
    """
    if spec.target is not Target.EXP_NEG:
        raise DomainError("growth witness applies to the decaying target only")
    if not spec.delta_frac < Fraction(1, 4):
        raise DomainError("growth witness requires delta < 1/4")
    L = log_inv_delta(spec, bits)
    if not L.to_fraction() < spec.B_frac:
        raise DomainError("growth witness requires B > ln(1/delta)")
    x0 = 1 + L.shifted(1) / (spec.B - L)
    thr_frac = (1 - spec.delta_frac) / (2 * spec.delta_frac)
    x0f = x0.to_float()
    thrf = float(thr_frac)
    if x0f > 1 and thrf > 1:
        d_est = max(1, math.floor(math.acosh(thrf) / math.acosh(x0f)) - 2)
    else:
        d_est = 1

    def reaches(d: int) -> bool:
        # scaled Chebyshev value: T_d(x0) = 2^{d-1} * monic value
        t = cheb_eval(d, x0.with_bits(bits)).shifted(d - 1)
        return t.to_fraction() >= thr_frac

    d = max(1, d_est)
    while reaches(d) and d > 1:
        d -= 1
    while not reaches(d):
        d += 1
        if d > 10_000_000:
            raise SoundnessError("growth witness search failed to terminate")
    return d


# ---------------------------------------------------------------------------
# evaluation


def eval_cheb_series(series: ChebSeries, x: HPReal,
                     bits: int | None = None) -> HPReal:
    """Evaluate the series at x in [-1, 1] (Clenshaw recurrence)."""
    wb = bits or max(x.bits, series.coeffs[0].value.bits)
    xw = x.with_bits(wb + 16)
    b1 = hpf(0, wb + 16)
    b2 = hpf(0, wb + 16)
    two_x = xw.shifted(1)
    for cv in reversed(series.coeffs[1:]):
        b1, b2 = cv.value + two_x * b1 - b2, b1
    half_a0 = series.coeffs[0].value.shifted(-1)
    return (half_a0 + xw * b1 - b2).with_bits(wb)


def domain_to_unit(spec_or_poly, z: HPReal, bits: int | None = None) -> HPReal:
    """Affine map from z in [0, B] to the series variable in [-1, 1].

    Both targets use x = 2z/B - 1: the series identities read
    exp(-z) = sum 2^{v-1} a_v Q_v(x) with alternating a_v, and
    exp(+z) likewise with all-positive a_v, where z = lam*(x+1).
    """
    B = spec_or_poly.B if isinstance(spec_or_poly, ProblemSpec) \
        else spec_or_poly.domain_B
    wb = bits or max(z.bits, B.bits)
    return (z.with_bits(wb) / B.with_bits(wb)).shifted(1) - 1


def eval_exported(poly: ExportedPolynomial, z: HPReal,
                  bits: int | None = None) -> HPReal:
    """Stable evaluation of the exported polynomial at z in [0, B]."""
    wb = bits or poly.precision_bits
    x = domain_to_unit(poly, z, wb)
    return eval_cheb_series(poly.cheb_form, x, wb)


def eval_monomial(coeffs: Sequence[Fraction], z: HPReal,
                  bits: int) -> HPReal:
    zw = z.with_bits(bits)
    acc = hpf(0, bits)
    for c in reversed(coeffs):
        acc = acc * zw + hpf(c, bits)
    return acc


# ---------------------------------------------------------------------------
# export


def _cheb_monomial_rows(d: int) -> list[list[int]]:
    """Integer monomial coefficients of the scaled Chebyshev polynomials."""
    rows = [[1]]
    if d >= 1:
        rows.append([0, 1])
    for j in range(2, d + 1):
        row = [0] * (j + 1)
        for i, c in enumerate(rows[j - 1]):
            row[i + 1] += 2 * c
        for i, c in enumerate(rows[j - 2]):
            row[i] -= c
        rows.append(row)
    return rows


def _compose_affine(px: list[Fraction], e: Fraction, g: Fraction) -> list[Fraction]:
    """Coefficients of p(e + g*z) given coefficients of p(x)."""
    res = [Fraction(0)]
    for c in reversed(px):
        new = [Fraction(0)] * (len(res) + 1)
        for i, rc in enumerate(res):
            new[i] += rc * e
            new[i + 1] += rc * g
        new[0] += c
        while len(new) > 1 and new[-1] == 0:
            new.pop()
        res = new
    return res


def _round_dyadic(c: Fraction, k: int) -> Fraction:
    scaled = c * (1 << k)
    n = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    return Fraction(n, 1 << k)


def coefficient_bit_budget(degree: int) -> int:
    """Numerator/denominator bit cap for exported rational coefficients."""
    return 64 * (degree + 2) ** 2


def export_polynomial(spec: ProblemSpec,
                      cert: DegreeCertificate) -> ExportedPolynomial:
    """Materialize the certified degree-D_upper truncation on [0, B].

    The Chebyshev form keeps full-precision coefficients with radii; the
    monomial form is produced by exact basis conversion and affine
    composition, then each coefficient is rounded to a dyadic rational
    under a per-degree budget so the total rounding error, the truncation
    tail, and the coefficient radii together stay below delta.
    """
    if cert.spec is not spec and (cert.spec.B_frac != spec.B_frac
                                  or cert.spec.delta_frac != spec.delta_frac
                                  or cert.spec.target != spec.target):
        raise DomainError("certificate does not match the problem")
    d = cert.D_upper
    p_cert = cert_precision(spec)
    series = build_series(spec, d + 1, p_cert)

    # soundness ledger: truncation + radii (exact rationals throughout)
    tail_next = tail_bounds(d + 1, spec.lam, spec.target, _TAIL_BITS)
    trunc = tail_next.upper.to_fraction()
    radii = sum((cv.radius.to_fraction() for cv in series.coeffs),
                Fraction(0))
    margin = spec.delta_frac - trunc - radii
    if margin <= 0:
        raise SoundnessError("certificate margin exhausted before rounding")

    # exact Chebyshev -> monomial on [-1, 1]
    rows = _cheb_monomial_rows(d)
    px = [Fraction(0)] * (d + 1)
    for j, cv in enumerate(series.coeffs):
        a = cv.value.to_fraction()
        if j == 0:
            a = a / 2
        for i, rc in enumerate(rows[j]):
            if rc:
                px[i] += a * rc
    # affine composition to z in [0, B]: x = 2z/B - 1 for both targets
    pz = _compose_affine(px, Fraction(-1), Fraction(2) / spec.B_frac)
    if len(pz) < d + 1:
        pz += [Fraction(0)] * (d + 1 - len(pz))

    # rounding budget: min of the delta budget, the remaining certificate
    # margin, and the budget implied by the 2^-40 form-agreement invariant
    f_floor = HPReal._wrap(
        mpf_exp(mpf_neg(spec.B.raw), 64, "d"), 64).to_fraction() \
        if spec.target is Target.EXP_NEG else Fraction(1)
    budget_total = min(spec.delta_frac / 4, margin / 2,
                       f_floor * Fraction(1, 1 << 48))
    bit_cap = coefficient_bit_budget(d)
    Bpow = [spec.B_frac ** j for j in range(d + 1)]

    for attempt in range(5):
        mono: list[Fraction] = []
        round_err = Fraction(0)
        for j, c in enumerate(pz):
            bj = budget_total / ((d + 1) * Bpow[j])
            k = max(1, bj.denominator.bit_length()
                    - bj.numerator.bit_length() + 2)
            r = _round_dyadic(c, k)
            mono.append(r)
            round_err += abs(c - r) * Bpow[j]
        if all(abs(r.numerator).bit_length() <= bit_cap
               and r.denominator.bit_length() <= bit_cap for r in mono):
            if _forms_agree(spec, series, mono, p_cert):
                break
        else:
            raise BitBudgetError(
                f"rounded coefficients exceed the {bit_cap}-bit budget at "
                f"degree {d}; enlarge the budget polynomial to proceed")
        budget_total /= 256
    else:
        raise BitBudgetError(
            "monomial and Chebyshev forms failed to agree within the "
            "rounding budget; enlarge the bit budget to proceed")

    total = trunc + radii + round_err
    if not total < spec.delta_frac:
        raise SoundnessError("certified error budget exceeded at export")
    wb = max(_TAIL_BITS, p_cert)
    return ExportedPolynomial(
        degree=d,
        domain_B=spec.B,
        cheb_form=series,
        monomial_form=tuple(mono),
        certified_sup_bound=hpf(total, wb),
        rounding_bound=hpf(round_err, wb),
        precision_bits=p_cert,
    )


def _forms_agree(spec: ProblemSpec, series: ChebSeries,
                 mono: Sequence[Fraction], p_cert: int) -> bool:
    """Check the two forms agree to 2^-40 relative at 64 Chebyshev nodes."""
    wb = max(p_cert, 128) + 32
    _, roots = cheb_extrema_and_roots(64, wb)
    half_B = spec.B.with_bits(wb).shifted(-1)
    tol_shift = -40
    for x in roots:
        z = half_B * (1 + x)
        cv = eval_cheb_series(series, domain_to_unit(spec, z, wb), wb)
        mv = eval_monomial(mono, z, wb)
        scale = max(abs(cv), abs(mv))
        if abs(cv - mv) > scale.shifted(tol_shift):
            return False
    return True


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
