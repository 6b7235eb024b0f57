"""Minimum-degree polynomial approximation of exp(-x) / exp(x) on [0, B].

The builder works in three stages:

1. `predict_degree` classifies the (B, delta) pair into a regime and
   produces a closed-form degree estimate.  The estimate only labels
   reports; it carries no soundness weight.
2. `find_degree` reads certified coefficient-tail brackets for every
   start from one table and turns them into a `DegreeCertificate`: the
   minimal degree whose truncation error is provably below delta, plus
   a lower witness showing nearby smaller degrees cannot work.
3. `export_polynomial` materializes the certified truncation as both a
   Chebyshev-basis form (for stable evaluation) and exact dyadic-rational
   monomial coefficients in the original variable z in [0, B], with every
   rounding step budgeted and its error summed exactly.

`problem` rounds B up and delta down once, so a certificate covers the
requested [0, B] at the requested delta.  All tolerance comparisons that
decide a certificate are performed on exact rationals (every finite
binary float is one), never on rounded values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import mpf_div, mpf_exp, mpf_neg

from .coeffs import (
    CoeffValue,
    Target,
    coefficient_range,
    tail_cutoff,
    tail_table,
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
    critical_constant_neg,
    critical_constant_pos,
    saturation_constant,
)

# Regime thresholds on rho = B / (2 ln(1/delta)).  They only steer
# reporting; certificates carry the soundness.
RHO_SMALL = 0.05
RHO_LARGE = 20.0

# find_degree refuses to build certificates whose explicit coefficient
# sums would exceed this many terms; callers get a CapacityError instead
# of an open-ended computation.
MAX_TAIL_CUTOFF = 60_000

_TAIL_BITS = 128
_GROWTH_BITS = 256   # working precision of the Chebyshev-growth witness


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
    serialization), ints, floats, Fractions, or HPReal values.  All but
    HPReal are read exactly and rounded once at `bits`, B up and delta
    down, so a certificate covers the requested [0, B] at that delta.
    """
    if not isinstance(target, Target):
        raise DomainError("target must be a Target")
    try:  # str() refuses ints past Python's 4,300-digit limit
        B_text, delta_text = (v if isinstance(v, str) else str(v)
                              for v in (B, delta))
    except ValueError:
        raise DomainError("B or delta has too many digits") from None
    B_hp = B if isinstance(B, HPReal) else _rounded(parse_exact(B), bits, "c")
    delta_hp = delta if isinstance(delta, HPReal) \
        else _rounded(parse_exact(delta), bits, "f")
    B_frac = B_hp.to_fraction()
    delta_frac = delta_hp.to_fraction()
    if B_frac < 1:
        raise DomainError("domain width B must be at least 1")
    if not (0 < delta_frac < 1):
        raise DomainError("tolerance delta must lie strictly between 0 and 1")
    return ProblemSpec(target, B_hp, delta_hp, B_text, delta_text,
                       B_frac, delta_frac, B_hp.shifted(-1))


def parse_exact(value) -> Fraction:
    """`value` (text, int, float or Fraction) read exactly; anything that is
    not a finite number raises DomainError.  In text, a decimal exponent
    past 100,000 is refused before the exact parse, whose cost grows with
    it."""
    try:
        if (isinstance(value, str)
                and abs(int(value.lower().partition("e")[2] or 0)) > 100_000):
            raise ValueError
        return Fraction(value)
    except (ArithmeticError, ValueError, TypeError):
        raise DomainError(f"cannot parse number {value!r}") from None


def _rounded(q: Fraction, bits: int, rnd) -> HPReal:
    """`q` rounded once at `bits` in the direction `rnd` ("c" up, "f" down)."""
    num, den = HPReal(q.numerator, bits), HPReal(q.denominator, bits)
    return HPReal(mpf_div(num.raw, den.raw, bits, rnd), bits)


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
    """Certified degrees D_lower <= d_{B;delta} <= D_upper (`find_degree`)."""

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
    sup |p(z) - f(z)|: truncation tail + coefficient radii + rounding,
    rounded up; `rounding_bound`, the rounding term alone, rounded up.
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
    magnitude e^{2 lam} the coefficients must resolve against.  The
    tolerance's share, ceil(log2(1/delta)), is exact in integers, so a
    delta below the double range is no special case.
    """
    num, den = spec.delta_frac.numerator, spec.delta_frac.denominator
    dbits = max(0, den.bit_length() - num.bit_length() - 1)
    while num << dbits < den:    # the least dbits with 2^dbits delta >= 1
        dbits += 1
    extra = 0
    if spec.target is Target.EXP_POS:
        extra = math.ceil(2 * spec.lam.to_float() * math.log2(math.e)) + 8
    return DEFAULT_BITS + dbits + extra + 64


def radius_sum_budget(spec: ProblemSpec, p_cert: int) -> Fraction:
    """Upper bound on the sum of all coefficient error radii at p_cert bits.

    Every radius is below 2^-p_cert times its coefficient magnitude, and
    the sum of the coefficient magnitudes is at most 2 (decaying target) or
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
    coeffs = tuple(coefficient_range(range(D), spec.lam, spec.target,
                                     p_target))
    return ChebSeries(spec.lam, spec.target, coeffs)


def _check_tail_cutoff(spec: ProblemSpec, D: int, p_target: int) -> None:
    V = tail_cutoff(D, spec.lam.to_float(), p_target)
    if V > MAX_TAIL_CUTOFF:
        raise CapacityError(
            f"certifying this problem needs explicit sums over ~{V} "
            f"coefficients (limit {MAX_TAIL_CUTOFF}); use predict_degree "
            f"for an order-of-magnitude estimate instead")


def find_degree(spec: ProblemSpec) -> DegreeCertificate:
    """Certified minimal degree plus a lower witness.

    tails(D).upper bounds the error of the degree-(D-1) truncation.  With
    D the least D >= 1 for which it, plus the exported coefficients' error
    radii, is provably below delta, the certified degree is D_upper =
    max(1, D - 1) (d >= 1) and tail_upper_at_D = tails(D_upper + 1).upper.
    Every bracket is read from one `tail_table` at the cutoff of
    S = max(1, ceil(8*lam)), by two linear scans: D is the least D <= S
    below the threshold, D_lower the largest degree <= D_upper whose L2
    lower bracket still reaches delta.  Only when no D <= S qualifies
    does S double, clamped so its cutoff stays within MAX_TAIL_CUTOFF.
    """
    lam_f = spec.lam.to_float()
    S = max(1, math.ceil(8 * lam_f))
    _check_tail_cutoff(spec, S, _TAIL_BITS)
    S_max = MAX_TAIL_CUTOFF - (tail_cutoff(S, lam_f, _TAIL_BITS) - S)
    threshold = spec.delta_frac - radius_sum_budget(spec, cert_precision(spec))
    if threshold <= 0:
        raise SoundnessError("tolerance too small for the export precision")

    while True:
        tails = tail_table(tail_cutoff(S, lam_f, _TAIL_BITS), spec.lam,
                           spec.target, _TAIL_BITS)
        D = next((D for D in range(1, S + 1)
                  if tails(D).upper.to_fraction() < threshold), None)
        if D is not None:
            break
        if S == S_max:
            _check_tail_cutoff(spec, S + 1, _TAIL_BITS)  # CapacityError
        S = min(2 * S, S_max)
    D_upper = max(1, D - 1)
    tail_at = tails(D_upper + 1).upper

    # Lower witness: the largest D whose L2 tail lower bound reaches delta.
    witness = next((tb for tb in map(tails, range(D_upper, 0, -1))
                    if tb.lower.to_fraction() >= spec.delta_frac), None)
    if witness is not None:
        return DegreeCertificate(spec, D_upper, tail_at, witness.start,
                                 LowerWitness.TAIL_L2, witness.lower)
    try:
        D_growth = degree_lower_bound(spec)
    except DomainError:
        return DegreeCertificate(spec, D_upper, tail_at, 1,
                                 LowerWitness.DEFINITION, tails(1).lower)
    return DegreeCertificate(spec, D_upper, tail_at, min(D_growth, D_upper),
                             LowerWitness.CHEB_GROWTH, hpf(D_growth, 64))


def degree_lower_bound(spec: ProblemSpec) -> int:
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
    L = log_inv_delta(spec, _GROWTH_BITS)
    if not L.to_fraction() < spec.B_frac:
        raise DomainError("growth witness requires B > ln(1/delta)")
    x0 = 1 + L.shifted(1) / (spec.B - L)
    thr_frac = (1 - spec.delta_frac) / (2 * spec.delta_frac)
    x0f = x0.to_float()
    # the search starts from acosh(thr) ~ ln(2 thr), taken from logarithms
    # so that a thr past the double range does not overflow
    ln_2thr = math.log(2 * thr_frac.numerator) - math.log(thr_frac.denominator)
    d_est = max(1, math.floor(ln_2thr / math.acosh(x0f)) - 2) if x0f > 1 \
        else 1

    def reaches(d: int) -> bool:
        # scaled Chebyshev value: T_d(x0) = 2^{d-1} * monic value
        t = cheb_eval(d, x0.with_bits(_GROWTH_BITS)).shifted(d - 1)
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


# ---------------------------------------------------------------------------
# export


def _shifted_cheb_rows(d: int):
    """Integer monomial coefficients in u of T_j(2u - 1), for j = 0..d, from
    T*_{j+1} = 2(2u - 1) T*_j - T*_{j-1}."""
    prev, cur = [1], [-1, 2]
    yield prev
    for _ in range(d):
        yield cur
        nxt = [-2 * c for c in cur] + [0]
        for i, c in enumerate(cur):
            nxt[i + 1] += 4 * c
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt


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

    `cert` must be `find_degree(spec)`'s: its tail_upper_at_D is taken as
    the truncation tail, checked where the certificate was made.
    The Chebyshev form keeps full-precision coefficients with radii.  The
    monomial form comes from one exact integer conversion of those values
    from the shifted Chebyshev basis; each coefficient c_j of z^j is then
    rounded once to a dyadic r_j under a per-degree budget.  The two forms
    differ by at most round_err = sum |c_j - r_j| B^j, summed exactly, so
    certified_sup_bound = truncation tail + coefficient radii + round_err
    bounds the monomial form's error with no re-evaluation.  Both reported
    bounds are rounded up.
    """
    if cert.spec is not spec and (cert.spec.B_frac != spec.B_frac
                                  or cert.spec.delta_frac != spec.delta_frac
                                  or cert.spec.target != spec.target):
        raise DomainError("certificate does not match the problem")
    d = cert.D_upper
    p_cert = cert_precision(spec)
    series = build_series(spec, d + 1, p_cert)

    # soundness ledger: truncation + radii (exact rationals throughout)
    trunc = cert.tail_upper_at_D.to_fraction()
    radii = sum((cv.radius.to_fraction() for cv in series.coeffs),
                Fraction(0))
    margin = spec.delta_frac - trunc - radii
    if margin <= 0:
        raise SoundnessError("certificate margin exhausted before rounding")

    # exact Chebyshev -> monomial in z: p(z) = sum_j a_j T_j(2z/B - 1) with
    # a_0 halved; every a_j = m_j 2^e_j goes to one integer scale 2^e, and
    # each coefficient of u^i = (z/B)^i is divided by B^i once
    raws = [cv.value.raw for cv in series.coeffs]
    e = min(exp for _, _, exp, _ in raws) - 1
    acc = [0] * (d + 1)
    for j, ((sign, man, exp, _), row) in enumerate(
            zip(raws, _shifted_cheb_rows(d))):
        m = (-man if sign else man) << (exp - e - (j == 0))
        for i, r in enumerate(row):
            acc[i] += m * r
    Bpow = [spec.B_frac ** j for j in range(d + 1)]
    scale = Fraction(2) ** e
    pz = [n * scale / Bpow[i] for i, n in enumerate(acc)]

    # rounding budget: min of the delta budget, the remaining certificate
    # margin, and 2^-48 min_{[0,B]} f, so round_err <= 2^-48 min_{[0,B]} f
    f_floor = HPReal._wrap(
        mpf_exp(mpf_neg(spec.B.raw), 64, "d"), 64).to_fraction() \
        if spec.target is Target.EXP_NEG else Fraction(1)
    budget_total = min(spec.delta_frac / 4, margin / 2,
                       f_floor * Fraction(1, 1 << 48))
    mono: list[Fraction] = []
    round_err = Fraction(0)
    for j, c in enumerate(pz):
        bj = budget_total / ((d + 1) * Bpow[j])
        k = max(1, bj.denominator.bit_length()
                - bj.numerator.bit_length() + 2)
        r = _round_dyadic(c, k)
        mono.append(r)
        round_err += abs(c - r) * Bpow[j]
    bit_cap = coefficient_bit_budget(d)
    if any(abs(r.numerator).bit_length() > bit_cap
           or r.denominator.bit_length() > bit_cap for r in mono):
        raise BitBudgetError(
            f"rounded coefficients exceed the {bit_cap}-bit cap at "
            f"degree {d}; this B and delta have no exact export")

    bound = _rounded(trunc + radii + round_err, p_cert, "c")
    if not bound.to_fraction() < spec.delta_frac:
        raise SoundnessError("certified error budget exceeded at export")
    return ExportedPolynomial(
        degree=d,
        domain_B=spec.B,
        cheb_form=series,
        monomial_form=tuple(mono),
        certified_sup_bound=bound,
        rounding_bound=_rounded(round_err, p_cert, "c"),
        precision_bits=p_cert,
    )

