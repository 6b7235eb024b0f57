"""Certified Chebyshev-basis coefficients of exp on [0, B].

Writing B = 2*lam, the shifted exponentials exp(-lam*x - lam) and
exp(lam*x + lam) on x in [-1, 1] have Chebyshev coefficients

    a_v = 2*exp(-lam) * (-1)^v * I_v(lam)      (decaying target)
    a_v = 2*exp(+lam) * I_v(lam)               (growing target)

where I_v is the modified Bessel function of the first kind.

Lemma.  I_{v-1}(lam) = I_{v+1}(lam) + (2v/lam) I_v(lam) has only positive
terms, so run down from enclosures of I_{V+1} and I_V with every operation
rounded down (up) it bounds each I_v, v <= V, from below (above).  A step
whose inputs are within relative error e returns one within
(1+e)(1+u)^3 - 1, u one ulp: 3 ulps per step.  So w >= p + ceil(log2 3V)
+ guard working bits keep the whole family within 2^-p relative.  The
positive power series of I_v only seeds I_V and I_{V+1}.

`tail_table` turns one family, at a cutoff V, into two-sided brackets on
the tail sums that control how well the series can be truncated, for
every start D in 1..V:

    sqrt(0.5 * sum_{k>=D} a_k^2 / k)  <=  best degree-(D-1) sup error
                                      <=  sum_{j>=D} |a_j|

Both suffix sums are accumulated once, from V down: the upper one with
upward-directed rounding, the lower one with downward-directed rounding,
so each bracket is a true enclosure, not a heuristic, and each is
nonincreasing in D.  `tail_bounds(D)` reads the table at
V = tail_cutoff(D).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

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
    SoundnessError,
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


def modified_bessel(v: int, lam, p_target: int = DEFAULT_BITS) -> CoeffValue:
    """I_v(lam) for integer v >= 0, lam >= 1/2, with a certified radius.

    Sums the power series; terms are updated incrementally:
    t_{k+1} = t_k * (lam^2/4) / ((k+1)(v+k+1)).  Every term is positive,
    so the relative error of the sum does not depend on the size of its
    terms: at most (4N + v + 16) units in the last place of the working
    precision, which the guard bits always cover.
    """
    if not isinstance(v, int) or v < 0:
        raise DomainError("order v must be a nonnegative integer")
    if p_target < 64:
        raise DomainError("p_target must be at least 64 bits")
    lam = _check_lam(lam)
    lam_raw, lam_f = lam.raw, lam.to_float()
    p_work = p_target + 8 * math.ceil(math.log2(v + lam_f + 2)) + 32
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
    if rel_ulps >= 1 << (p_work - p_target - 2):
        raise SoundnessError(
            f"coefficient series (v={v}, lam~{lam_f:g}) spent its guard bits")
    store = p_target + 64
    rel = mpf_add(mpf_shift(from_int(rel_ulps), -p_work),
                  mpf_shift(from_int(1), -store), 64, "u")
    s = mpf_add(s, fzero, store, "n")
    rad = mpf_mul(s, rel, 64, "u")
    return CoeffValue(HPReal._wrap(s, store), HPReal._wrap(rad, 64))


def _bessel_family(V: int, lam: HPReal, bits: int):
    """Lower and upper bounds on I_0(lam)..I_V(lam) within 2^-bits relative:
    the module docstring's recurrence, seeded by the series at V and V+1."""
    w = bits + (3 * V + 3).bit_length() + 8
    seeds = modified_bessel(V + 1, lam, w), modified_bessel(V, lam, w)
    runs = []
    for rnd, edge in (("d", mpf_sub), ("u", mpf_add)):
        above, cur = (edge(cv.value.raw, cv.radius.raw, w, rnd) for cv in seeds)
        run = [cur]
        for v in range(V, 0, -1):
            step = mpf_div(mpf_mul(cur, from_int(2 * v), w, rnd),
                           lam.raw, w, rnd)
            above, cur = cur, mpf_add(above, step, w, rnd)
            run.append(cur)
        runs.append(run[::-1])
    return runs


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
    return coefficient_range([v], lam, target, p_target)[0]


def coefficient_range(orders, lam, target: Target,
                      p_target: int = DEFAULT_BITS) -> list[CoeffValue]:
    """Coefficients for a batch of orders, from one Bessel family; each
    radius is at most 2^-p_target times its value."""
    orders = list(orders)
    if any(not isinstance(v, int) or v < 0 for v in orders):
        raise DomainError("order v must be a nonnegative integer")
    if p_target < 64:
        raise DomainError("p_target must be at least 64 bits")
    lam = _check_lam(lam)
    bits = p_target + 64
    lows, highs = _bessel_family(max(orders, default=0), lam, bits)
    pref_dn = _prefactor_raw(lam.raw, target, bits, "d")
    pref_up = _prefactor_raw(lam.raw, target, bits, "u")
    out = []
    for v in orders:
        lo = mpf_mul(lows[v], pref_dn, bits, "d")
        hi = mpf_mul(highs[v], pref_up, bits, "u")
        # lo and hi are representable, so the rounded midpoint is in [lo, hi]
        val = mpf_shift(mpf_add(lo, hi, bits, "n"), -1)
        rad = mpf_sub(hi, lo, 64, "u")
        if target is Target.EXP_NEG and v % 2 == 1:
            val = mpf_neg(val)
        out.append(CoeffValue(HPReal._wrap(val, bits), HPReal._wrap(rad, 64)))
    return out


def tail_cutoff(start: int, lam_f: float, p_target: int) -> int:
    """Last order summed explicitly before switching to a geometric bound."""
    return max(start, math.ceil(8 * lam_f)) + math.ceil(p_target * _LN2)


def tail_table(V: int, lam, target: Target, p_target: int = DEFAULT_BITS
               ) -> Callable[[int], TailBounds]:
    """Tail brackets for every start 1..V from one Bessel family at cutoff V.

    Beyond V the termwise inequality I_{v+1}(lam) <= lam/(2(v+1)) * I_v(lam)
    certifies a geometric remainder with ratio q = lam/(2(V+1)); the code
    validates q <= 1/e explicitly and refuses to build a table otherwise.
    The upper sum (seeded by that remainder) and the L2 lower sum are
    accumulated once, from V down, so each suffix sum is nonincreasing in
    its start; the returned `bounds(start)` applies the prefactor and the
    square root of that start.
    """
    lam = _check_lam(lam)
    if not isinstance(target, Target):
        raise DomainError("target must be a Target")
    wb = p_target + 32

    # geometric-ratio validation at the cutoff
    q_ub = mpf_div(lam.raw, from_int(2 * (V + 1)), wb, "u")
    inv_e_lb = mpf_div(from_int(1), mpf_exp(from_int(1), wb, "u"), wb, "d")
    if mpf_cmp(q_ub, inv_e_lb) > 0:
        raise CutoffError(
            f"termwise ratio {HPReal._wrap(q_ub, 64).to_float():g} at cutoff "
            f"{V} exceeds 1/e; no certified tail bound")

    lows, highs = _bessel_family(V, lam, wb)
    one_minus_q = mpf_sub(from_int(1), q_ub, wb, "d")
    up = mpf_div(mpf_mul(highs[V], q_ub, wb, "u"), one_minus_q, wb, "u")
    low = fzero
    ups, l2s = [fzero] * (V + 1), [fzero] * (V + 1)
    for j in range(V, 0, -1):
        up = mpf_add(up, highs[j], wb, "u")
        sq = mpf_div(mpf_mul(lows[j], lows[j], wb, "d"), from_int(j), wb, "d")
        low = mpf_add(low, sq, wb, "d")
        ups[j], l2s[j] = up, low
    pref_up = _prefactor_raw(lam.raw, target, wb, "u")
    pref_dn = _prefactor_raw(lam.raw, target, wb, "d")

    def bounds(start: int) -> TailBounds:
        if not 1 <= start <= V:
            raise DomainError(f"tail start must lie in 1..{V}")
        upper = mpf_mul(ups[start], pref_up, wb, "u")
        lower = mpf_mul(mpf_sqrt(mpf_shift(l2s[start], -1), wb, "d"),
                        pref_dn, wb, "d")
        return TailBounds(start, lam, target, HPReal._wrap(upper, p_target),
                          HPReal._wrap(lower, p_target), V)

    return bounds


def tail_bounds(start: int, lam, target: Target,
                p_target: int = DEFAULT_BITS) -> TailBounds:
    """Certified two-sided bounds on the coefficient tail from `start` up:
    `tail_table` at cutoff V = max(start, ceil(8*lam)) + ceil(p*ln 2)."""
    if not isinstance(start, int) or start < 1:
        raise DomainError("tail start must be a positive integer")
    lam = _check_lam(lam)
    V = tail_cutoff(start, lam.to_float(), p_target)
    return tail_table(V, lam, target, p_target)(start)
