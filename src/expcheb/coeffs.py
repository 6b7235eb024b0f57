"""Certified Chebyshev-basis coefficients of exp on [0, B].

Writing B = 2*lam, the shifted exponentials exp(-lam*x - lam) and
exp(lam*x + lam) on x in [-1, 1] have Chebyshev coefficients

    a_v = 2*exp(-lam) * (-1)^v * I_v(lam)      (decaying target)
    a_v = 2*exp(+lam) * I_v(lam)               (growing target)

where I_v is the modified Bessel function of the first kind, computed
here from its all-positive power series so a rigorous error radius can
be attached to every value.  `tail_bounds` turns those certified values
into a two-sided bracket on the tail sums that control how well the
series can be truncated:

    sqrt(0.5 * sum_{k>=D} a_k^2 / k)  <=  best degree-(D-1) sup error
                                      <=  sum_{j>=D} |a_j|

Upper bounds are accumulated with upward-directed rounding and lower
bounds with downward-directed rounding, so the returned bracket is a
true enclosure, not a heuristic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath.libmp import (
    from_int,
    fzero,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
)

from .errors import (
    ConvergenceError,
    CutoffError,
    DomainError,
    PrecisionOverflowError,
)
from .hp import DEFAULT_BITS, MAX_BITS, HPReal

_LN2 = math.log(2)
_MAX_TERMS = 50_000_000


class Target(enum.Enum):
    """Which exponential is being approximated on [0, B]."""

    EXP_NEG = "exp-neg"   # exp(-x)
    EXP_POS = "exp-pos"   # exp(+x)


@dataclass(frozen=True)
class CoeffValue:
    """A computed coefficient together with a certified error radius.

    The true value is guaranteed to lie in [value - radius, value + radius],
    and radius <= 2^-p_target * max(|value|, 2^-p_target).
    """

    value: HPReal
    radius: HPReal

    def upper_abs_raw(self, bits: int):
        return mpf_add(abs(self.value).raw, self.radius.raw, bits, "u")

    def lower_abs_raw(self, bits: int):
        lo = mpf_sub(abs(self.value).raw, self.radius.raw, bits, "d")
        return lo if mpf_cmp(lo, fzero) > 0 else fzero


@dataclass(frozen=True)
class TailBounds:
    """Certified enclosure of the coefficient tail starting at order D."""

    start: int
    lam: HPReal
    target: Target
    upper: HPReal
    lower: HPReal
    cutoff: int  # last order summed explicitly before the geometric bound


def _check_lam(lam) -> HPReal:
    lam = lam if isinstance(lam, HPReal) else HPReal(lam)
    if lam * 2 < 1:
        raise DomainError("half-width lam must be at least 1/2")
    return lam


def _work_bits(v: int, lam_f: float, p_target: int) -> int:
    return p_target + math.ceil(1.45 * lam_f) + 8 * math.ceil(
        math.log2(v + lam_f + 2)) + 32


@lru_cache(maxsize=None)
def _bessel_raw(v: int, lam_raw, p_target: int):
    """Raw positive-series evaluation of I_v(lam) with a relative error bound.

    Returns (sum_raw, rel_err_bound_raw, store_bits).  Terms are updated
    incrementally: t_{k+1} = t_k * (lam^2/4) / ((k+1)(v+k+1)); since every
    term is positive the accumulated relative error of the sum is at most
    (4N + v + 16) units in the last place of the working precision.
    """
    lam_f = abs(HPReal._wrap(lam_raw, 64).to_float())
    p_work = _work_bits(v, lam_f, p_target)
    while True:
        if p_work > MAX_BITS:
            raise PrecisionOverflowError(
                f"coefficient (v={v}, lam~{lam_f:g}) needs more than "
                f"{MAX_BITS} working bits")
        c = mpf_shift(mpf_mul(lam_raw, lam_raw, p_work, "n"), -2)  # lam^2/4
        # t_0 = (lam/2)^v / v!
        half = mpf_shift(lam_raw, -1)
        t = from_int(1)
        for _ in range(v):
            t = mpf_mul(t, half, p_work, "n")
        t = mpf_div(t, from_int(math.factorial(v)), p_work, "n")
        s = t
        n_terms = 1
        k = 0
        while True:
            denom = (k + 1) * (v + k + 1)
            t = mpf_div(mpf_mul(t, c, p_work, "n"), from_int(denom), p_work, "n")
            s = mpf_add(s, t, p_work, "n")
            n_terms += 1
            k += 1
            ratio_small = mpf_cmp(c, from_int(2 * (k + 1) * (v + k + 1))) <= 0
            if ratio_small and mpf_cmp(t, mpf_shift(s, -(p_work + 8))) <= 0:
                break
            if n_terms > _MAX_TERMS:
                raise ConvergenceError("coefficient series failed to settle")
        rel_ulps = 4 * n_terms + v + 16
        if rel_ulps < (1 << (p_work - p_target - 2)):
            store = p_target + 64
            rel = mpf_add(
                mpf_shift(from_int(rel_ulps), -p_work),
                mpf_shift(from_int(1), -store), 64, "u")
            return (mpf_add(s, fzero, store, "n"), rel, store)
        p_work *= 2


def modified_bessel(v: int, lam, p_target: int = DEFAULT_BITS) -> CoeffValue:
    """I_v(lam) for integer v >= 0, lam >= 1/2, with a certified radius."""
    if not isinstance(v, int) or v < 0:
        raise DomainError("order v must be a nonnegative integer")
    if p_target < 64:
        raise DomainError("p_target must be at least 64 bits")
    lam = _check_lam(lam)
    s, rel, store = _bessel_raw(v, lam.raw, p_target)
    rad = mpf_mul(s, rel, 64, "u")
    return CoeffValue(HPReal._wrap(s, store), HPReal._wrap(rad, 64))


def _prefactor_raw(lam_raw, target: Target, bits: int, rnd: str):
    """Directed 2*exp(-lam) or 2*exp(+lam) with a one-ulp safety margin."""
    arg = mpf_neg(lam_raw) if target is Target.EXP_NEG else lam_raw
    e = mpf_exp(arg, bits, rnd)
    slack = mpf_add(from_int(1), mpf_shift(from_int(1), -(bits - 2)), bits, rnd)
    if rnd == "u":
        e = mpf_mul(e, slack, bits, "u")
    else:
        e = mpf_div(e, slack, bits, "d")
    return mpf_shift(e, 1)


def coefficient(v: int, lam, target: Target,
                p_target: int = DEFAULT_BITS) -> CoeffValue:
    """Order-v coefficient 2*exp(-lam)*(-1)^v*I_v(lam) (EXP_NEG) or
    2*exp(lam)*I_v(lam) (EXP_POS), with a certified radius."""
    base = modified_bessel(v, lam, p_target)
    lam = _check_lam(lam)
    bits = base.value.bits
    pref = mpf_exp(mpf_neg(lam.raw) if target is Target.EXP_NEG else lam.raw,
                   bits, "n")
    pref = mpf_shift(pref, 1)
    val = mpf_mul(base.value.raw, pref, bits, "n")
    # relative error: series bound + exp rounding + two multiplications
    rel = mpf_add(mpf_div(base.radius.raw, base.value.raw, 64, "u"),
                  mpf_shift(from_int(3), -bits), 64, "u")
    rad = mpf_mul(val, rel, 64, "u")
    if target is Target.EXP_NEG and v % 2 == 1:
        val = mpf_neg(val)
    return CoeffValue(HPReal._wrap(val, bits), HPReal._wrap(rad, 64))


def coefficient_range(orders, lam, target: Target,
                      p_target: int = DEFAULT_BITS) -> list[CoeffValue]:
    """Coefficients for a batch of orders."""
    return [coefficient(v, lam, target, p_target) for v in orders]


def tail_cutoff(start: int, lam_f: float, p_target: int) -> int:
    """Last order summed explicitly before switching to a geometric bound."""
    return max(start, math.ceil(8 * lam_f)) + math.ceil(p_target * _LN2)


def tail_bounds(start: int, lam, target: Target,
                p_target: int = DEFAULT_BITS) -> TailBounds:
    """Certified two-sided bounds on the coefficient tail from `start` up.

    The explicit sum runs to V = max(start, ceil(8*lam)) + ceil(p*ln 2).
    Beyond V the termwise inequality I_{v+1}(lam) <= lam/(2(v+1)) * I_v(lam)
    certifies a geometric remainder with ratio q = lam/(2(V+1)); the code
    validates q <= 1/e explicitly and refuses to return a bound otherwise.
    """
    if not isinstance(start, int) or start < 1:
        raise DomainError("tail start must be a positive integer")
    lam = _check_lam(lam)
    if not isinstance(target, Target):
        raise DomainError("target must be a Target")
    lam_f = lam.to_float()
    V = tail_cutoff(start, lam_f, p_target)
    wb = p_target + 32

    # geometric-ratio validation at the cutoff
    q_ub = mpf_div(lam.raw, from_int(2 * (V + 1)), wb, "u")
    inv_e_lb = mpf_div(from_int(1), mpf_exp(from_int(1), wb, "u"), wb, "d")
    if mpf_cmp(q_ub, inv_e_lb) > 0:
        raise CutoffError(
            f"termwise ratio {HPReal._wrap(q_ub, 64).to_float():g} at cutoff "
            f"{V} exceeds 1/e; no certified tail bound")

    vals = [modified_bessel(j, lam, p_target) for j in range(start, V + 1)]

    up = fzero
    for cv in vals:
        up = mpf_add(up, cv.upper_abs_raw(wb), wb, "u")
    # geometric remainder from V+1 on
    last_ub = vals[-1].upper_abs_raw(wb)
    one_minus_q = mpf_sub(from_int(1), q_ub, wb, "d")
    rem = mpf_div(mpf_mul(last_ub, q_ub, wb, "u"), one_minus_q, wb, "u")
    up = mpf_add(up, rem, wb, "u")

    low = fzero
    for j, cv in zip(range(start, V + 1), vals):
        lb = cv.lower_abs_raw(wb)
        sq = mpf_div(mpf_mul(lb, lb, wb, "d"), from_int(j), wb, "d")
        low = mpf_add(low, sq, wb, "d")
    low = mpf_sqrt(mpf_shift(low, -1), wb, "d")

    pref_up = _prefactor_raw(lam.raw, target, wb, "u")
    pref_dn = _prefactor_raw(lam.raw, target, wb, "d")
    upper = HPReal._wrap(mpf_mul(up, pref_up, wb, "u"), p_target)
    lower = HPReal._wrap(mpf_mul(low, pref_dn, wb, "d"), p_target)
    return TailBounds(start, lam, target, upper, lower, V)
