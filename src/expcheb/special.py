"""Scalar building blocks for the approximation machinery.

Everything here is a pure function of `HPReal` inputs:

* `decay_rate` -- the profile g(x) = sqrt(x^2+1) + x*log(sqrt(x^2+1) - x)
  that controls, per unit of interval half-width, how fast Chebyshev-basis
  coefficients of the exponential decay as a function of the ratio
  (coefficient order) / (half-width).  g(0) = 1, strictly decreasing,
  g -> -infinity.
* `coeff_log_scale` -- the half-width-scaled version: the natural log of
  the size scale of the order-v coefficient on an interval of half-width
  lam.  Equal to lam * decay_rate(v/lam).
* `term_log_weight` -- Stirling log-size of the n-th term of the series
  defining those coefficients; its maximum over n sits at
  n0 = sqrt(v^2 + lam^2) and equals coeff_log_scale(v, lam).
* monic Chebyshev evaluation, roots and extrema.
* root solvers for levels of `decay_rate`, giving the leading constants
  of the degree laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import ConvergenceError, DomainError
from .hp import DEFAULT_BITS, HPReal, hpf

_GUARD = 16


def _asinh(x: HPReal) -> HPReal:
    # log(x + sqrt(x^2 + 1)); monotone, no cancellation for x >= 0
    return ((x * x + 1).sqrt() + x).log()


def decay_rate(x: HPReal) -> HPReal:
    """Evaluate the decay-rate profile at x >= 0.

    Uses the cancellation-free form sqrt(x^2+1) - x*asinh(x); the textbook
    form with log(sqrt(x^2+1) - x) loses half the working precision for
    large x.
    """
    x = x if isinstance(x, HPReal) else hpf(x)
    if x.sign() < 0:
        raise DomainError("decay_rate is defined for x >= 0")
    w = x.with_bits(x.bits + _GUARD)
    s = (w * w + 1).sqrt()
    return (s - w * _asinh(w)).with_bits(x.bits)


def decay_rate_derivative(x: HPReal) -> HPReal:
    """d/dx of `decay_rate`, which collapses to -asinh(x)."""
    x = x if isinstance(x, HPReal) else hpf(x)
    if x.sign() < 0:
        raise DomainError("decay_rate is defined for x >= 0")
    return -_asinh(x)


def coeff_log_scale(v: int, lam: HPReal) -> HPReal:
    """Log of the magnitude scale of the order-v coefficient, half-width lam.

    Computed as s + v*log(lam/(s+v)) with s = sqrt(v^2+lam^2), which stays
    accurate when v >> lam (the naive s - v difference cancels).
    Decreasing in v; equals lam at v = 0.
    """
    if not isinstance(v, int) or v < 0:
        raise DomainError("coefficient order v must be a nonnegative integer")
    lam = lam if isinstance(lam, HPReal) else hpf(lam)
    if lam * 2 < 1:
        raise DomainError("half-width lam must be at least 1/2")
    w = lam.with_bits(lam.bits + _GUARD)
    vv = HPReal(v, w.bits)
    s = (vv * vv + w * w).sqrt()
    return (s + vv * (w / (s + vv)).log()).with_bits(lam.bits)


def term_log_weight(n: HPReal, v: int, lam: HPReal) -> HPReal:
    """Stirling log-size of the series term indexed by n (n >= v).

    n*log(lam) - n*log(2) + n - ((n-v)/2)*log((n-v)/2) - ((n+v)/2)*log((n+v)/2),
    with the 0*log(0) limit read as 0 at n = v.
    """
    if not isinstance(v, int) or v < 0:
        raise DomainError("v must be a nonnegative integer")
    lam = lam if isinstance(lam, HPReal) else hpf(lam)
    n = n if isinstance(n, HPReal) else hpf(n, lam.bits)
    if n < v:
        raise DomainError("term_log_weight requires n >= v")
    bits = min(n.bits, lam.bits) + _GUARD
    w = lam.with_bits(bits)
    nn = n.with_bits(bits)
    vv = HPReal(v, bits)
    two = HPReal(2, bits)
    out = nn * w.log() - nn * two.log() + nn
    lo = (nn - vv) / 2
    hi = (nn + vv) / 2
    if lo.sign() > 0:
        out = out - lo * lo.log()
    out = out - hi * hi.log()
    return out.with_bits(min(n.bits, lam.bits))


@dataclass(frozen=True)
class SaddleDiagnostics:
    """Location and height of the peak of `term_log_weight` in n."""

    v: int
    lam: HPReal
    peak_index: HPReal       # sqrt(v^2 + lam^2)
    peak_log_weight: HPReal  # term_log_weight at the peak


def saddle_point(v: int, lam: HPReal) -> SaddleDiagnostics:
    """Locate the interior maximum of n -> term_log_weight(n, v, lam).

    The derivative log(lam) - log(sqrt(n^2-v^2))/1 vanishes at
    n0 = sqrt(v^2 + lam^2); the peak height coincides with
    coeff_log_scale(v, lam), which downstream code relies on.
    """
    lam = lam if isinstance(lam, HPReal) else hpf(lam)
    bits = lam.bits + _GUARD
    w = lam.with_bits(bits)
    vv = HPReal(v, bits)
    n0 = (vv * vv + w * w).sqrt()
    height = term_log_weight(n0, v, w)
    return SaddleDiagnostics(v, lam, n0.with_bits(lam.bits), height.with_bits(lam.bits))


# ---------------------------------------------------------------------------
# Monic Chebyshev polynomials: leading coefficient 1, sup-norm 2^(1-d) on
# [-1, 1].  q_0 = 1, q_1 = x, q_2 = x*q_1 - q_0/2, q_d = x*q_{d-1} - q_{d-2}/4.
# ---------------------------------------------------------------------------


def cheb_eval(d: int, x: HPReal) -> HPReal:
    """Value of the degree-d monic Chebyshev polynomial at x.

    Inside [-1, 1] the three-term recurrence is used (all intermediates are
    bounded, so it is stable).  Outside, the closed radical form
    2^-d * (t^d + t^-d) with t = |x| + sqrt(x^2-1) is used; t^-d is formed
    as a reciprocal so the subtraction sqrt(x^2-1) - |x| never happens.
    """
    if not isinstance(d, int) or d < 0:
        raise DomainError("degree must be a nonnegative integer")
    x = x if isinstance(x, HPReal) else hpf(x)
    if d == 0:
        return HPReal(1, x.bits)
    if d == 1:
        return x
    bits = x.bits + _GUARD + d.bit_length()
    w = x.with_bits(bits)
    ax = abs(w)
    if ax <= 1:
        prev = HPReal(1, bits)      # q_0
        cur = w                     # q_1
        for k in range(2, d + 1):
            scale = 2 if k == 2 else 4
            nxt = w * cur - prev / scale
            prev, cur = cur, nxt
        return cur.with_bits(x.bits)
    t = ax + (ax * ax - 1).sqrt()
    tp = t ** d
    val = (tp + 1 / tp).shifted(-d)
    if w.sign() < 0 and d % 2 == 1:
        val = -val
    return val.with_bits(x.bits)


def _cos_angle(num: int, den: int, bits: int) -> HPReal:
    """cos(pi * num / den) with the handful of exact values kept exact."""
    if num == 0:
        return HPReal(1, bits)
    if 2 * num == den:
        return HPReal(0, bits)
    if num == den:
        return HPReal(-1, bits)
    theta = HPReal.pi(bits + _GUARD) * num / den
    return theta.cos().with_bits(bits)


def cheb_extrema_and_roots(d: int, bits: int = DEFAULT_BITS):
    """Extrema (d+1 points) and roots (d points) on [-1, 1], decreasing.

    Extrema are cos(pi*k/d), k = 0..d; roots are cos(pi*(2k+1)/(2d)),
    k = 0..d-1.
    """
    if not isinstance(d, int) or d < 1:
        raise DomainError("degree must be a positive integer")
    extrema = [_cos_angle(k, d, bits) for k in range(d + 1)]
    roots = [_cos_angle(2 * k + 1, 2 * d, bits) for k in range(d)]
    return extrema, roots


# ---------------------------------------------------------------------------
# Level solvers on the decay-rate profile.
# ---------------------------------------------------------------------------


def solve_rate_level(level: HPReal, hi: HPReal,
                     bits: int = DEFAULT_BITS) -> HPReal:
    """Solve decay_rate(x) = level for x >= 0 by Newton from the right.

    The start hi is doubled a bounded number of times until
    decay_rate(hi) <= level.  The profile is decreasing and concave on
    x >= 0 (g' = -asinh x, g'' = -1/sqrt(x^2 + 1)), so each tangent lies
    above it and Newton steps from the right of the root decrease
    monotonically to it, quadratically near it.
    """
    wb = bits + 32
    level = HPReal(level, wb) if not isinstance(level, HPReal) else level.with_bits(wb)
    if level > 1:
        raise DomainError("decay_rate never exceeds 1 on x >= 0")
    if level == 1:  # decay_rate(0) = 1, where Newton only halves x
        return hpf(0, bits)
    x = HPReal(hi, wb) if not isinstance(hi, HPReal) else hi.with_bits(wb)
    for _ in range(64):
        if decay_rate(x) <= level:
            break
        x = x.shifted(1)
    else:
        raise ConvergenceError("could not find a right bracket endpoint")
    for _ in range(64):
        step = (decay_rate(x) - level) / decay_rate_derivative(x)
        x = x - step
        if abs(step) <= abs(x).shifted(-(bits + 8)):
            break
    else:
        raise ConvergenceError("Newton iteration did not converge")
    return x.with_bits(bits)


@cache
def saturation_constant(bits: int = DEFAULT_BITS) -> HPReal:
    """The x with decay_rate(x) = -1 (about 2.2334).

    This is the per-unit-half-width degree slope that certified
    approximations of the growing exponential settle at once the interval
    is much longer than log(1/tolerance).
    """
    return solve_rate_level(HPReal(-1, bits + 32), hpf(3, bits), bits)


def critical_constant_neg(r: HPReal, bits: int = DEFAULT_BITS) -> HPReal:
    """Leading degree constant for the decaying exponential at width ratio r.

    Solves decay_rate(x) = 1 - 1/r.  The root always lies in
    [sqrt(2/r), max(1/r, e)]; Newton starts at the right end.
    """
    r = r if isinstance(r, HPReal) else hpf(r)
    if r.sign() <= 0:
        raise DomainError("width ratio r must be positive")
    wb = bits + 32
    rr = r.with_bits(wb)
    level = 1 - 1 / rr
    e = HPReal(1, wb).exp()
    hi = 1 / rr if 1 / rr > e else e
    return solve_rate_level(level, hi, bits)


def critical_constant_pos(r: HPReal, bits: int = DEFAULT_BITS) -> HPReal:
    """Leading degree constant for the growing exponential at width ratio r.

    Solves decay_rate(x) = -1 - 1/r.  The root lies in
    [saturation_constant, max(2 + 2/r, e)]; Newton starts at the right end.
    """
    r = r if isinstance(r, HPReal) else hpf(r)
    if r.sign() <= 0:
        raise DomainError("width ratio r must be positive")
    wb = bits + 32
    rr = r.with_bits(wb)
    level = -1 - 1 / rr
    e = HPReal(1, wb).exp()
    cand = 2 + 2 / rr
    hi = cand if cand > e else e
    return solve_rate_level(level, hi, bits)
