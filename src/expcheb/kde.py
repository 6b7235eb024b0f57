"""Batch Gaussian kernel-density evaluation by low-rank factorization.

Given points x^(1)..x^(n), y^(1)..y^(n) and weights w, approximates
v = K w with K[i,j] = exp(-||x_i - y_j||^2), to additive accuracy
delta * ||w||_1 per entry, in O(n * R) arithmetic instead of n^2:

1. build a certified polynomial p with |p(z) - exp(-z)| <= delta/2 on
   [0, B], B an upper bound on the squared diameter, and recentre it:
   q(s) = p(s + t0), shifted exactly, with t0 = 2 fl(B/4) ~ B/2;
2. factor p(||x - y||^2) = q(a' - 2b + c') through a' = ||x||^2 - t0/2,
   b = <x, y> and c' = ||y||^2 - t0/2:

       q(s) = sum_{i+j+k <= d} c_ijk a'^i b^j c'^k,
       c_ijk = q_{i+j+k} (i+j+k)! / (i! j! k!) (-2)^j,

   and b^j = sum_{|beta| = j} (j! / beta!) x^beta y^beta over the m
   coordinates.  With g_s(c') = sum_k c_{s,0,k} c'^k, exactly
   c_ijk = (-2)^j C(i+j, i) c_{i+j,0,k}, so feature r = (j, i, beta) has
   the x-side value a'^i x^beta, the y-side value y^beta g_{i+j}(c') (d + 1
   Horner polynomials per row) and the integer column scale
   kappa_r = (-2)^j C(i+j, i) j!/beta!: K ~ Xmat @ diag(kappa) @ Ymat.T,
   of rank R = sum_j C(m+j-1, j) (d-j+1) = C(m+d+1, d);
3. stream row chunks of Ymat (reduction s = Ymat.T @ w), scale s by
   kappa, then stream Xmat's (output v = Xmat @ s) through BLAS, never
   holding n x R.

The recentring is Higham's cure for an ill-conditioned sum (Accuracy
and Stability of Numerical Algorithms, 5.1): P_abs(t) = sum |p_k| t^k,
p's sum in magnitudes, grows like e^t on [0, B], while q's coefficients
are about e^-t0 (-1)^k / k!.  A nonzero table entry that is not a normal
double raises SoundnessError.

The contract max_i |v_i - v_i_exact| <= delta ||w||_1 holds when B bounds
every squared x-y distance.  make_instance checks that once, at input,
in O(nm): an estimated B sums the pooled squared ranges exactly and
rounds up, and a given B is refused with DomainError below the larger of
max_l max(maxX_l - minY_l, maxY_l - minX_l)^2 (the squared diameter
itself when m = 1) and the squared distance of one pair, picked in
doubles (the y farthest from X's midrange, then the x farthest from that
y) and computed exactly.  For m >= 2 a given B between that floor and
the true squared diameter passes; measured_diameter_sq is the O(n^2 m)
diagnostic for it, which `expcheb kde --validate` reports.

Floating-point error is charged against the remaining delta/2 budget.
The rows take a' = fl(fl(||x'||^2) - t0/2) and c' likewise as data.
Every elementary term T = c_ijk (j!/beta!) a'^i x^beta y^beta c'^k w_n
reaches v_i through at most N roundings, each obeying the standard model
fl(a op b) = (a op b)(1 + e), |e| <= u (Higham, 2.2):

* x side: x^beta (j - 1), a'^i (i - 1), one product (1): at most i + j + 1;
* y side: the Horner coefficient as a double (1), Horner on g_s
  (2k + 1), y^beta (j - 1), one product (1): at most 2k + j + 3;
* the scale kappa_r as a double and its product with s: 2;
* reduction (one product, n - 1 sums) and output (R products and sums):
  n + R, in any summation order and any chunking.

With i + j + k <= d that is at most n + R + 2d + 6; gamma_ops charges
N = n + R + 2d + 8, a slack of 2, so |v_i - fl(v_i)| <= gamma_N A_i,
gamma_N = N u / (1 - N u), where A_i = sum_n |w_n| sum |T|.

kde_matvec centers the instance once, on the float midrange c of the
pooled points (the kernel is translation-invariant).  x' = fl(x - c) is
within u r_l of x_l - c_l, r_l the pooled range of coordinate l, and
r_l^2 <= 4B (any two pooled points are within 2 sqrt(B) through a
third), so t' = ||x' - y'||^2 is within 8 m B u (1 + 4u) of t.  The
squared norms' roundings are relative to ||x'||^2, not to the smaller
|a'| that cancellation can leave, so they are charged here and not in N:
|a' - (||x'||^2 - t0/2)| <= gamma_m ||x'||^2 + u/(1 - u) |a'|, and
likewise for c'.  exp(-t) is 1-Lipschitz on t >= 0, so each kernel
value moves by at most

    8 m B u (1 + 4u) + e_a + e_c,                        (shift_slack)

with e_a, e_c the maxima of those bounds over the rows, charged times
||w||_1 (for evaluated arguments in [0, B], where p is certified).  The
budget delta/2 ||w||_1 is rounded down from a lower bound w_lo on
||w||_1, and shift_slack up from an upper bound.

The compensated rung keeps the same double rows and makes only the sums
error-free or compensated (Ogita, Rump and Oishi, SISC 2005): exact
products with w (two_prod), double-double sums (<= 3u^2 operand-wise)
and products of the double-double s by kappa and by the rows
(<= 2u^2), one unit of 2^-104 = 4u^2 each, then one rounding of the
output to a double.  The rows, kappa and that rounding take at most
2d + 6 roundings at u, the rest at most b = n + R + 1 units of 2^-104;
the cross term is at most gamma_b(2^-104) / 2 as gamma_{2d+6}(u) <= 1/2,
and 3/2 gamma_b <= gamma_{2b-1} for b >= 2, so the error is at most
(gamma_{2d+6}(u) + gamma_{2(n+R)+1}(2^-104)) A_i.  The rung charges
gamma_{2d+9}(u) + gamma_{2(n+R)}(2^-104), whose 3 spare units of u cover
the extra unit of 2^-104, below 2^-103 while (2(n+R)+1) 2^-104 <= 1/4.

The precision is chosen before any feature row is built.  With
|c_ijk| = |q_s| s! / (i! j! k!) 2^j for s = i + j + k, summing the terms
of A_i over beta and over i + j + k = s undoes the factorization
(multinomial theorem, twice):

    A_i = sum_n |w_n| Q_abs(|a'_i| + 2 <|x'_i|, |y'_n|> + |c'_n|),

with Q_abs(s) = sum_k |q_k| s^k, whose ratio to |q(s)| is the condition
number of evaluating q.  Q_abs is nondecreasing on s >= 0.

One pass per side reads fl(||p'||^2) per row.  The float maximum of the
squared norms over 1 - gamma_m, rounded up, bounds the exact one
(gamma_m covers the m roundings of each sum of squares), and with the
rows' own max |a'| gives e_a.  ||w||_1 is read once, as the float sum s
of the |w_n|, whose n - 1 roundings on nonnegative operands, in any
order, give s / (1 + gamma_{n-1}) = w_lo <= ||w||_1 <= s / (1 - gamma_{n-1}).

The box bound works on pairs of boxes (after Greengard and Strain, SISC
1991), which keep the direction of the points.  With h = t0/2,
|a'| = -a' + 2 a'+ (a'+ = max(a', 0)) and a' >= ||x'||^2 - h - e_a, and
likewise for c', the argument folds:

    |a'| + |c'| + 2 <|x'|, |y'|>
        <= 2h + e_a + e_c + 2 a'+ + 2 c'+ - || |x'| - |y'| ||^2.

Each side is cut into at most K k-d leaves of |p'|: level by level,
each node splits at its middle leaf, at a median of its widest
coordinate (for m = 1, quantile bins); at K = 1 nothing is sorted.
Leaf I of X keeps the ranges [lo_I, hi_I] of its |x'| per coordinate
and its largest a'; leaf J of Y the same, and W_J, the float sum of its
|w_n|, within gamma_n of the exact one.  Every pair from leaves I and J
has an argument of at most

    t_IJ = 2h + e_a + e_c + 2 a'_I+ + 2 c'_J+ - sum_l gap_l^2,
    gap_l = max(0, lo_Il - hi_Jl, lo_Jl - hi_Il).

In doubles, the head 2h + e_a + e_c is raised by 2 gamma_{m+5} S and
rounded up, with S = 2h + e_a + e_c + max 2 a'_I+ + max 2 c'_J+.  The
exact gap sum is at most S (the argument is nonnegative), so the m + 2
roundings of a gap sum and the 3 of t_IJ's sums, on operands of about S
at most, lower t_IJ by about (m + 5) u S; the raise covers twice that,
and squares that underflow (S >= 2h >= 1/2).  Horner on the doubles of
|q_k| then takes 2d + 1 roundings, the product by W_J 1 and the sum over
J K_y - 1, all on nonnegative operands, so

    A_box = fl(max_I sum_J W_J Q_abs(t_IJ))
            / ((1 - gamma_n) (1 - gamma_{2d + K_y + 1})),

in O(n log n log K + K^2 (m + d)) in all, and O(n (m + d)) at K = 1.

With one-point boxes the lemma bounds single rows: row i of X as its own
box (lo = hi = |x'_i|, its own a') against each row of Y as its own
(lo = hi = |y'_n|, its own c', W = |w_n|) has the argument t_in of
the fold above, with the same raised head, and K_y = n:

    A_i <= fl(sum_n |w_n| Q_abs(t_in))
           / ((1 - gamma_n) (1 - gamma_{2d + n + 1})),

in O(n (m + d)) per row.  For a rung that allows max_i A_i <= L, the row
level flags the _BINS x-leaves whose box sum is above L or overflows and
walks their rows once: largest leaf sum first (an overflowed one before
all), in chunks of 1, 2, 4, ... rows up to _CHUNK_BYTES of one-point
arguments.  Each chunk's rows are boxed, one point each, against the
same y leaves, and the rows still above L get the one-point bound
against every row of Y at once.  The walk stops after the first chunk
with a row whose one-point bound is above L.  The upper end is the
largest, over the rows, of the bound taken for each: the leaf sum for a
row of a leaf not flagged and for a row not reached, else the row's box
sum or its one-point sum.  A row level that flags no leaf has the upper
end A_box at _BINS leaves.

The precision is one ladder over the rungs `force` allows, plain doubles
and then the compensated rung.  A rung bounds the error by its
coefficient times A plus shift_slack, rounded up.  It tries two upper
ends of max_i A_i: A_box at one leaf per side ("a-priori"), then the row
level at _BINS leaves ("binned" when it flags no leaf, "rows" when it
refines), each box level computed at most once per call.  The rung is
certified at the first that meets its budget and given up when the row
level's misses; an upper end whose doubles overflow misses.  Since the
walk takes the largest leaf sums first and stops at the first row that
misses, a rung that cannot be met is usually given up after one row:
past the box levels, a sort of the rows by leaf sum and that row's two
sums, in O(n log n + (_BINS + n) (m + d)).  SoundnessError ends a ladder
whose last rung fails.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .approx import (
    DegreeCertificate,
    ExportedPolynomial,
    ProblemSpec,
    export_polynomial,
    find_degree,
    parse_exact,
    problem,
)
from .coeffs import Target
from .errors import CapacityError, DomainError, SoundnessError
from .hp import hpf
from .special import critical_constant_neg

MAX_COLUMNS = 2_000_000
MAX_MATRIX_BYTES = 2_000_000_000
_CHUNK_BYTES = 8_000_000     # one chunk of feature rows (plain path)
_DD_CHUNK_BYTES = 1_000_000  # one chunk of feature rows (compensated path)
_BRUTE_CHUNK = 256           # rows of x per block of kde_bruteforce
_BINS = 128                  # k-d leaves per side of the box bound

_EPS = 2.0 ** -53
_EPS_DD = 2.0 ** -104


@dataclass(frozen=True)
class KdeInstance:
    n: int
    m: int
    X: np.ndarray  # n x m source points
    Y: np.ndarray  # n x m query points
    w: np.ndarray  # length n weights
    delta: Fraction
    B: Fraction    # upper bound on squared diameter, >= 1
    B_estimated: bool


@dataclass(frozen=True)
class FeatureMap:
    """The rank-C(m+d+1, d) factorization of p(||x - y||^2).

    Monomials x^beta over the m coordinates are held in the order of
    `enumerate_multi_indices`.  Each row (dst, src, count, var) of `runs`
    says that monomials dst..dst+count-1 are monomials src..src+count-1
    times coordinate var, their parent links in run-length form.  Column
    r = (j, i, beta) of the feature matrices runs over levels j, then
    i = 0..d-j, then the level's monomials beta; `scale` holds its
    integer constant kappa_r, so K ~ Xmat @ diag(scale) @ Ymat.T.  The
    tables factor q(s) = p(s + 2 shift), and the rows subtract `shift`
    = t0/2 from the squared norms.
    """
    m: int
    d: int
    exponents: np.ndarray     # T x m exponent vectors beta, T = C(m+d, d)
    runs: np.ndarray          # parent links: rows (dst, src, count, var)
    level_starts: tuple[int, ...]  # first monomial of each degree, then T
    horner: np.ndarray        # [s, k] = c_{s,0,k}, as doubles
    scale: np.ndarray         # kappa_r = (-2)^j C(i+j, i) j!/beta!, doubles
    poly: ExportedPolynomial
    shift: float              # t0/2, with t0 = 2 fl(B/4) ~ B/2
    shifted: tuple[Fraction, ...]  # q_k, exact: q(s) = p(s + t0)

    @property
    def rank(self) -> int:
        return feature_count(self.m, self.d)


@dataclass
class KdeResult:
    """Output of kde_matvec.

    `elapsed_build` is the time spent building the plain pass's feature
    rows; it is 0 on the compensated path.  `elapsed_matvec` is the rest:
    the bounds on max_i A_i, the plain BLAS products or the compensated
    pass, its rows included.  `float_bound_source` says which enclosure
    of max_i A_i certified the run (module docstring): "a-priori" (the
    box bound at one leaf per side), "binned" (the row level at _BINS
    leaves, which refined nothing: the box bound there) or "rows" (the
    _BINS leaves that miss, refined down to rows).
    """
    v: np.ndarray
    M: int                         # feature rank R
    elapsed_build: float
    elapsed_matvec: float
    degree: int
    float_error_bound: float       # certified per-entry bound / ||w||_1
    used_high_precision: bool
    float_bound_source: str        # "a-priori", "binned" or "rows"


def feature_count(m: int, d: int) -> int:
    return math.comb(m + d + 1, d)


def _check_rank(m: int, d: int) -> None:
    R = feature_count(m, d)
    if R > MAX_COLUMNS:
        raise CapacityError(
            f"feature expansion needs R = C({m+d+1}, {d}) = {R} columns, "
            f"above the ceiling of {MAX_COLUMNS}")


def estimate_diameter_sq(X: np.ndarray, Y: np.ndarray) -> float:
    """Sum of squared per-coordinate ranges over the pooled points.

    An O(nm) upper bound on the true squared diameter, summed exactly and
    rounded up, so a polynomial certified on [0, B-hat] covers every
    pairwise distance.
    """
    pooled = np.vstack([X, Y])
    return _round_up(sum((Fraction(hi) - Fraction(lo)) ** 2 for hi, lo in
                         zip(pooled.max(axis=0).tolist(),
                             pooled.min(axis=0).tolist())))


def _diameter_floor(X: np.ndarray, Y: np.ndarray) -> Fraction:
    """An O(nm) lower bound on the squared x-y diameter, exactly: the larger
    of max_l max(maxX_l - minY_l, maxY_l - minX_l)^2 (the squared diameter
    itself when m = 1) and the squared distance of one pair, picked in
    doubles: the y farthest from X's midrange, then the x farthest from
    that y."""
    y = Y[((Y - 0.5 * (X.max(axis=0) + X.min(axis=0))) ** 2).sum(axis=1)
          .argmax()]
    x = X[((X - y) ** 2).sum(axis=1).argmax()]
    pair = sum((Fraction(a) - Fraction(b)) ** 2
               for a, b in zip(x.tolist(), y.tolist()))
    return max([pair] + [
        max(Fraction(xh) - Fraction(yl), Fraction(yh) - Fraction(xl)) ** 2
        for xh, xl, yh, yl in zip(
            X.max(axis=0).tolist(), X.min(axis=0).tolist(),
            Y.max(axis=0).tolist(), Y.min(axis=0).tolist())])


def measured_diameter_sq(X: np.ndarray, Y: np.ndarray) -> float:
    """The float maximum of the squared x-y distances, in O(n^2 m): a
    diagnostic, summed in doubles, not an exact or directed bound."""
    worst = 0.0
    for i in range(X.shape[0]):
        d2 = ((X[i] - Y) ** 2).sum(axis=1).max()
        if d2 > worst:
            worst = float(d2)
    return worst


def make_instance(X, Y, w, delta, B=None) -> KdeInstance:
    """Validate and package a KDE instance; estimates B when not given.

    B, the squared-diameter bound, is clamped up to 1.  A given B below
    the exact O(nm) floor of _diameter_floor (the cross range per
    coordinate, and one far pair) raises DomainError; the estimated B
    bounds every x-y squared distance by construction and is not checked
    again.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or w.ndim != 1:
        raise DomainError("X and Y must be 2-d arrays and w a vector")
    n, m = X.shape
    if Y.shape != (n, m) or w.shape != (n,):
        raise DomainError("X, Y, and w must agree on n (and m)")
    if n < 1 or m < 1:
        raise DomainError("instance must have n >= 1 points of m >= 1 coords")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()
            and np.isfinite(w).all()):
        raise DomainError("non-finite input coordinate or weight")
    delta = parse_exact(delta)
    if not (0 < delta < 1):
        raise DomainError("delta must lie strictly between 0 and 1")
    estimated = B is None
    if estimated:
        B_frac = Fraction(estimate_diameter_sq(X, Y))
    else:
        B_frac = parse_exact(B)
    if B_frac < 1:
        B_frac = Fraction(1)
    if not estimated:
        floor = _diameter_floor(X, Y)
        if B_frac < floor:
            raise DomainError(
                f"B = {_round_down(B_frac):.17g} is below "
                f"{_round_up(floor):.17g}, a lower bound on the squared x-y "
                f"diameter; B must bound every squared x-y distance")
    return KdeInstance(n, m, X, Y, w, delta, B_frac, estimated)


# ---------------------------------------------------------------------------
# monomial enumeration and kernel factorization


def enumerate_multi_indices(m: int, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples over m variables with total degree <= d.

    Graded colexicographic: ascending total degree, then ascending
    lexicographic order of the reversed tuple.  Within a degree the
    tuples come in runs, one per last nonzero variable v, and the run
    for v is the previous degree's tuples with last nonzero variable
    <= v (a prefix of that degree), each plus one unit of v.  Length is
    C(m+d, d).  Refuses when the rank-C(m+d+1, d) map they index would
    exceed MAX_COLUMNS.
    """
    if m < 1 or d < 1:
        raise DomainError("m and d must be positive")
    _check_rank(m, d)
    return [tuple(int(e) for e in vec) for vec in _monomial_tree(m, d)[0]]


def _monomial_tree(m: int, d: int):
    """Exponents, parent runs and level starts of the graded monomials."""
    exps = [(0,) * m]
    lasts = [-1]                # last nonzero variable of each tuple
    runs = []
    level_starts = [0, 1]
    for _ in range(d):
        start, end = level_starts[-2], level_starts[-1]
        for v in range(m):
            count = 0
            while start + count < end and lasts[start + count] <= v:
                count += 1
            runs.append((len(exps), start, count, v))
            for t in range(start, start + count):
                vec = exps[t]
                exps.append(vec[:v] + (vec[v] + 1,) + vec[v + 1:])
                lasts.append(v)
        level_starts.append(len(exps))
    return (np.array(exps, dtype=np.int64), np.array(runs, dtype=np.int64),
            tuple(level_starts))


def _multinomial(beta) -> int:
    out = math.factorial(sum(beta))
    for e in beta:
        out //= math.factorial(e)
    return out


def _shift_coefficients(p, t0: Fraction) -> tuple[Fraction, ...]:
    """Coefficients of q(s) = p(s + t0), exactly (Horner's Taylor shift)."""
    q = [Fraction(c) for c in p]
    for i in range(len(q) - 1):
        for k in range(len(q) - 2, i - 1, -1):
            q[k] += t0 * q[k + 1]
    return tuple(q)


def _exact_tables(q, exponents: np.ndarray, level_starts, d: int):
    """The feature map's tables, exact: Horner coefficients
    [s, k] = c_{s,0,k} = q_{s+k} C(s+k, s), and the column scales
    kappa_r = (-2)^j C(i+j, i) j!/beta! in column order r = (j, i, beta)."""
    q = list(q) + [Fraction(0)] * (d + 1)
    weights = [_multinomial(b) for b in exponents]
    return ([[q[s + k] * math.comb(s + k, s) for k in range(d + 1)]
             for s in range(d + 1)],
            [(-2) ** j * math.comb(i + j, i) * wt
             for j in range(d + 1) for i in range(d - j + 1)
             for wt in weights[level_starts[j]:level_starts[j + 1]]])


def _normal_doubles(table) -> np.ndarray:
    """An exact table as doubles; the rounding model admits no nonzero
    entry that overflows or rounds to a subnormal or zero."""
    exact = np.array(table, dtype=object)
    try:
        out = exact.astype(np.float64)
        normal = (np.abs(out) >= sys.float_info.min)[exact != 0].all()
    except OverflowError:
        normal = False
    if not normal:
        raise SoundnessError("the kernel tables leave the normal double "
                             "range; B is too wide for one feature map")
    return out


def expand_kernel_poly(poly: ExportedPolynomial, m: int) -> FeatureMap:
    """Factor p(||x - y||^2) = q(a' - 2b + c') through a' = ||x||^2 - t0/2,
    b = <x, y> and c' = ||y||^2 - t0/2, with q(s) = p(s + t0) and
    t0 = 2 fl(B/4) for p's domain [0, B].

    The Horner coefficients c_{s,0,k} come from q, shifted exactly from
    p's dyadic monomial form; the monomials over the m coordinates carry
    parent pointers for incremental evaluation.
    """
    if m < 1:
        raise DomainError("m must be positive")
    d = max(poly.degree, 1)
    _check_rank(m, d)
    for c in poly.monomial_form:
        if c.denominator & (c.denominator - 1):
            raise SoundnessError("polynomial coefficients are not dyadic")

    shift = float(poly.domain_B.to_fraction() / 4)
    shifted = _shift_coefficients(poly.monomial_form, 2 * Fraction(shift))
    exponents, runs, level_starts = _monomial_tree(m, d)
    horner, scale = (_normal_doubles(t) for t in
                     _exact_tables(shifted, exponents, level_starts, d))
    return FeatureMap(m, d, exponents, runs, level_starts, horner, scale,
                      poly, shift, shifted)


# ---------------------------------------------------------------------------
# feature rows (plain double precision)


def _monomial_rows(P: np.ndarray, fm: FeatureMap) -> np.ndarray:
    """rows x T values of every monomial, one product per column."""
    out = np.empty((P.shape[0], fm.level_starts[-1]))
    out[:, 0] = 1.0
    for dst, src, count, var in fm.runs:
        np.multiply(out[:, src:src + count], P[:, var, None],
                    out=out[:, dst:dst + count])
    return out


def _norm_sq(P: np.ndarray) -> np.ndarray:
    """fl(||p||^2) per row, summed in coordinate order, so that a chunk of
    rows gets the same doubles as the whole."""
    s = P[:, 0] * P[:, 0]
    for l in range(1, P.shape[1]):
        s += P[:, l] * P[:, l]
    return s


def _level_fill(P: np.ndarray, side: np.ndarray, fm: FeatureMap,
                lag: int) -> np.ndarray:
    """Feature rows row[(j, i, beta)] = p^beta side[:, lag j + i]: the
    monomials of the rows P times one side's values per column."""
    mono = _monomial_rows(P, fm)
    out = np.empty((P.shape[0], fm.rank))
    col = 0
    for j in range(fm.d + 1):
        s, e = fm.level_starts[j], fm.level_starts[j + 1]
        width = fm.d - j + 1
        view = out[:, col:col + width * (e - s)].reshape(
            out.shape[0], width, e - s)
        np.multiply(mono[:, None, s:e],
                    side[:, lag * j:lag * j + width, None], out=view)
        col += width * (e - s)
    return out


def _x_rows(P: np.ndarray, fm: FeatureMap) -> np.ndarray:
    """Xmat rows: a'^i x^beta, from the powers of a'."""
    apow = np.empty((P.shape[0], fm.d + 1))
    apow[:, 0] = 1.0
    apow[:, 1] = _norm_sq(P) - fm.shift     # a'
    for i in range(2, fm.d + 1):
        np.multiply(apow[:, i - 1], apow[:, 1], out=apow[:, i])
    return _level_fill(P, apow, fm, 0)


def _y_rows(P: np.ndarray, fm: FeatureMap) -> np.ndarray:
    """Ymat rows: y^beta g_{i+j}(c'), from the d + 1 Horner values."""
    c = (_norm_sq(P) - fm.shift)[:, None]   # c'
    g = np.zeros((P.shape[0], fm.d + 1))
    for k in range(fm.d, -1, -1):
        g *= c
        g += fm.horner[:, k]
    return _level_fill(P, g, fm, 1)


def build_feature_matrices(inst: KdeInstance, fm: FeatureMap,
                           x_rows: slice = slice(None),
                           y_rows: slice = slice(None)
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows of the points X[x_rows] and Y[y_rows] in float64.

    Row i of Xmat holds a'^i x^beta and row j of Ymat holds
    y^beta g_{i+j}(c') over the columns r = (j, i, beta), so
    K[x_rows, y_rows] ~ Xmat @ diag(fm.scale) @ Ymat.T.
    """
    Xp, Yp = inst.X[x_rows], inst.Y[y_rows]
    bytes_needed = (Xp.shape[0] + Yp.shape[0]) * fm.rank * 8
    if bytes_needed > MAX_MATRIX_BYTES:
        raise CapacityError(
            f"feature matrices need {bytes_needed} bytes "
            f"(limit {MAX_MATRIX_BYTES})")
    return _x_rows(Xp, fm), _y_rows(Yp, fm)


def _midrange(inst: KdeInstance) -> np.ndarray:
    pooled = np.vstack([inst.X, inst.Y])
    return 0.5 * (pooled.max(axis=0) + pooled.min(axis=0))


def _chunks(n: int, rank: int, chunk_bytes: int) -> list[slice]:
    """Row chunks of at most chunk_bytes per rank-wide row block; they
    depend on n and the rank only."""
    step = max(1, chunk_bytes // (8 * rank))
    return [slice(s, min(s + step, n)) for s in range(0, n, step)]


# ---------------------------------------------------------------------------
# double-double helpers (error-free transformations, vectorized)

_SPLIT = 2.0 ** 27 + 1.0


def _two_sum(a, b):
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    return s, e


def _two_prod(a, b):
    p = a * b
    ah = _SPLIT * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLIT * b
    bh = bh - (bh - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _dd_add(hi1, lo1, hi2, lo2):
    s, e = _two_sum(hi1, hi2)
    e = e + (lo1 + lo2)
    hi = s + e
    lo = e - (hi - s)
    return hi, lo


def _dd_mul(hi1, lo1, hi2, lo2):
    p, e = _two_prod(hi1, hi2)
    e = e + (hi1 * lo2 + lo1 * hi2)
    hi = p + e
    lo = e - (hi - p)
    return hi, lo


def _dd_sum_tree(hi: np.ndarray, lo: np.ndarray):
    """Pairwise double-double sum over axis 0, in place: at each level the
    first half of the rows absorbs the second, and an odd count carries
    its middle row up unchanged.  Overwrites hi and lo."""
    k = hi.shape[0]
    while k > 1:
        half = (k + 1) // 2
        pairs = k - half
        hi[:pairs], lo[:pairs] = _dd_add(hi[:pairs], lo[:pairs],
                                         hi[half:k], lo[half:k])
        k = half
    return hi[0], lo[0]


# ---------------------------------------------------------------------------
# the matvec


def _gamma(k: int, unit):
    """gamma_k = k u / (1 - k u); exact when `unit` is a Fraction."""
    return k * unit / (1 - k * unit)


def gamma_ops(n: int, fm: FeatureMap) -> int:
    """Roundings on the path of one elementary term (module docstring)."""
    return n + fm.rank + 2 * fm.d + 8


def _round_up(q: Fraction) -> float:
    """Least double >= q (inf past the double range)."""
    try:
        f = float(q)
    except OverflowError:
        return math.inf
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def _round_down(q: Fraction) -> float:
    """Greatest double <= q, for q >= 0."""
    try:
        f = float(q)
    except OverflowError:
        return sys.float_info.max
    return f if Fraction(f) <= q else math.nextafter(f, 0.0)


def _norms(P: np.ndarray, fm: FeatureMap) -> tuple[np.ndarray, Fraction]:
    """One side's squared norms, read by every bound: fl(||p'||^2) per
    row, and e_a >= |a' - (||p'||^2 - t0/2)| over the rows, from the
    rows' own max |a'| and the float maximum of the squared norms over
    1 - gamma_m, rounded up, which bounds the exact max ||p'||^2."""
    s = _norm_sq(P)
    s_max = float(s.max())
    u = Fraction(_EPS)
    g = _gamma(P.shape[1], u)
    hi = _round_up(Fraction(s_max) / (1 - g)) if math.isfinite(s_max) \
        else math.inf
    if hi == math.inf:
        raise DomainError("squared norms of the centered coordinates "
                          "overflow double precision")
    a_abs = Fraction(float(np.abs(s - fm.shift).max()))
    return s, g * Fraction(hi) + u / (1 - u) * a_abs


def _leaf_boxes(P: np.ndarray, p_sq: np.ndarray, K: int, fm: FeatureMap):
    """One side's rows in an order whose runs from arange(K) * n // K are
    K k-d leaves of |p'|, and per leaf the ranges lo, hi of |p'| and
    2 max(0, largest a').  Level by level, each node of leaves [L0, L1)
    splits at leaf (L0 + L1) // 2 after its rows are sorted along its
    widest coordinate; for m = 1 one sort makes every level's split.  For
    K = 1 the order is slice(None): no row is sorted or copied."""
    A = np.abs(P)
    n = A.shape[0]
    edges = np.arange(K + 1) * n // K
    order = np.argsort(A[:, 0]) if K > 1 else slice(None)
    nodes = np.array([0, K]) if P.shape[1] > 1 else np.arange(K + 1)
    while len(nodes) <= K:      # nodes holds the leaf bounds of one level
        starts, rows = edges[nodes[:-1]], A[order]
        widest = (np.maximum.reduceat(rows, starts)
                  - np.minimum.reduceat(rows, starts)).argmax(axis=1)
        node = np.repeat(np.arange(len(starts), dtype=np.min_scalar_type(K)),
                         np.diff(edges[nodes]))
        by_key = np.argsort(A[order, widest[node]])
        order = order[by_key[np.argsort(node[by_key], kind="stable")]]
        split = nodes[1:] - nodes[:-1] > 1
        nodes = np.sort(np.concatenate(
            [nodes, ((nodes[:-1] + nodes[1:]) // 2)[split]]))
    rows = A[order]
    top = np.maximum.reduceat(p_sq[order], edges[:-1]) - fm.shift
    return (order, np.minimum.reduceat(rows, edges[:-1]),
            np.maximum.reduceat(rows, edges[:-1]), 2 * np.maximum(top, 0.0))


def _binned_abs_bound(X: np.ndarray, Y: np.ndarray, xs: tuple, ys: tuple,
                      w: np.ndarray, fm: FeatureMap, leaves: int
                      ) -> tuple[Fraction | None,
                                 Callable[[Fraction],
                                          tuple[Fraction | None, bool]]]:
    """(A_box, rows) from pairs of at most `leaves` k-d boxes per side of
    the centered rows |x'| and |y'|, with the sides' _norms (module
    docstring): max_i A_i <= A_box, None when the double evaluation
    overflows, and rows(L) = (upper, refined) for a rung that allows
    max_i A_i <= L: the row level's upper end, None when its doubles
    overflow, and whether it flagged any leaf.  rows walks the rows of
    the flagged leaves once, largest leaf sum first, boxing each chunk
    against the y leaves and point-summing its rows still above L, and
    stops at the first chunk that misses; the rows it did not reach count
    at their leaf sums.  A row level that refines nothing reports A_box
    itself."""
    n = w.shape[0]
    K = min(n, leaves)
    edges = np.arange(K + 1) * n // K
    order_x, lo_x, hi_x, a_pos = _leaf_boxes(X, xs[0], K, fm)
    order, lo_y, hi_y, c_pos = _leaf_boxes(Y, ys[0], K, fm)
    W = np.add.reduceat(np.abs(w[order]), edges[:-1])
    u = Fraction(_EPS)
    head = 2 * Fraction(fm.shift) + xs[1] + ys[1]
    S = head + Fraction(float(a_pos.max())) + Fraction(float(c_pos.max()))
    head = _round_up(head + 2 * _gamma(fm.m + 5, u) * S)
    y_boxes = (lo_y, hi_y, c_pos + head, W)
    per_leaf = _pair_sums(lo_x, hi_x, a_pos, y_boxes, fm)
    box_scale = (1 - _gamma(n, u)) * (1 - _gamma(2 * fm.d + K + 1, u))
    row_scale = (1 - _gamma(n, u)) * (1 - _gamma(2 * fm.d + n + 1, u))

    def rows(limit: Fraction) -> tuple[Fraction | None, bool]:
        box_lim, row_lim = (_round_down(max(limit, 0) * scale)
                            for scale in (box_scale, row_scale))
        leaf_sum = np.repeat(per_leaf, np.diff(edges))  # rows in leaf order
        walk = np.argsort(leaf_sum, kind="stable")[::-1]  # NaN before all
        flagged = int((~(leaf_sum <= box_lim)).sum())  # a prefix of walk
        members = np.arange(n)[order_x]
        y_abs = np.abs(Y)
        points = (y_abs, y_abs,
                  2 * np.maximum(ys[0] - fm.shift, 0.0) + head, np.abs(w))
        box, row, done, step = 0.0, 0.0, 0, 1
        while done < flagged:
            c = members[walk[done:min(done + step, flagged)]]
            x, a = np.abs(X[c]), 2 * np.maximum(xs[0][c] - fm.shift, 0.0)
            boxed = _pair_sums(x, x, a, y_boxes, fm)
            over = ~(boxed <= box_lim)
            box = max(box, float(boxed[~over].max(initial=0)))
            sums = _pair_sums(x[over], x[over], a[over], points, fm)
            row = float(np.maximum(row, sums.max(initial=0)))   # NaN stays
            done += len(c)
            if not (sums <= row_lim).all():
                break
            step = min(2 * step, max(1, _CHUNK_BYTES // (8 * n)))
        # rows not reached, and the rows of leaves not flagged, count at
        # their leaf sums
        box = float(np.append(leaf_sum[walk[done:]], box).max())
        upper = max(Fraction(box) / box_scale, Fraction(row) / row_scale) \
            if math.isfinite(box + row) else None
        return upper, flagged > 0

    total = float(per_leaf.max())
    return (Fraction(total) / box_scale if math.isfinite(total) else None,
            rows)


def _pair_sums(lo_x: np.ndarray, hi_x: np.ndarray, a_pos: np.ndarray,
               y_boxes: tuple, fm: FeatureMap) -> np.ndarray:
    """fl(sum_J W_J Q_abs(t_IJ)) per x box I (ranges lo_x, hi_x of |x'|
    and a_pos = 2 a'_I+) against the y boxes (lo, hi, 2 c'_J+ plus the
    raised head, W_J) (module docstring)."""
    lo_y, hi_y, c_head, W = y_boxes
    gap_sq = np.zeros((a_pos.shape[0], W.shape[0]))
    for lo_i, hi_i, lo_j, hi_j in zip(lo_x.T, hi_x.T, lo_y.T, hi_y.T):
        gap = np.maximum(lo_i[:, None] - hi_j, lo_j - hi_i[:, None])
        gap_sq += np.maximum(gap, 0.0) ** 2
    return _q_abs_fl((a_pos[:, None] + c_head) - gap_sq, fm) @ W


def _q_abs_fl(t: np.ndarray, fm: FeatureMap) -> np.ndarray:
    """Q_abs(t) elementwise, by Horner in doubles on fl(|q_k|)."""
    q = np.abs(fm.horner[0])     # row s = 0 holds q_k
    Q = np.full_like(t, q[-1])
    for c in q[-2::-1]:
        Q *= t
        Q += c
    return Q


def _budget(inst: KdeInstance, xs: tuple, ys: tuple
            ) -> tuple[float, float, Fraction]:
    """(budget, shift_slack, w_lo): the float half of delta times ||w||_1
    rounded down, the allowance for the moved arguments times ||w||_1
    rounded up (module docstring), and a lower bound on ||w||_1, all
    from the float sum of the |w_n| (module docstring)."""
    u = Fraction(_EPS)
    moved = 8 * inst.m * inst.B * u * (1 + 4 * u) + xs[1] + ys[1]
    with np.errstate(over="ignore"):
        s = float(np.abs(inst.w).sum())
    if not math.isfinite(s):
        raise DomainError("||w||_1 overflows double precision")
    g = _gamma(inst.n - 1, u)
    w_lo = Fraction(s) / (1 + g)
    return (_round_down(inst.delta / 2 * w_lo),
            _round_up(moved * Fraction(s) / (1 - g)), w_lo)


def kde_matvec(inst: KdeInstance, fm: FeatureMap,
               force: str | None = None) -> KdeResult:
    """v = Xmat @ (Ymat.T @ w) with a certified floating-point budget.

    `inst.B` is taken to bound every squared x-y distance, as
    make_instance checked it; nothing here checks it again.

    The precision is chosen before any value row is built, by the ladder
    of the module docstring.  Rows are streamed in chunks whose boundaries
    depend only on n and the rank, and partial reductions are merged in
    chunk order, so the result is bitwise reproducible.

    `force` is None (auto), "plain" (stay in double precision; raises
    SoundnessError if the budget check fails), or "high" (always use the
    compensated path: the same double rows, double-double sums).
    """
    if force not in (None, "plain", "high"):
        raise DomainError("force must be None, 'plain', or 'high'")

    center = _midrange(inst)
    inst = replace(inst, X=inst.X - center, Y=inst.Y - center)
    if not (np.isfinite(inst.X).all() and np.isfinite(inst.Y).all()):
        raise DomainError("non-finite input coordinate")
    xs, ys = _norms(inst.X, fm), _norms(inst.Y, fm)
    budget, shift_slack, w_lo = _budget(inst, xs, ys)
    N = gamma_ops(inst.n, fm)
    slack = Fraction(shift_slack)
    u = Fraction(_EPS)
    sums = inst.n + fm.rank
    # plain: gamma_N at u; compensated: 2d + 9 roundings at u and
    # 2 (n + R) units of 2^-104 (the module docstring gives the slack)
    rungs = [(False, _gamma(N, u)),
             (True, _gamma(N - sums + 1, u)
              + _gamma(2 * sums, Fraction(_EPS_DD)))]

    t0 = time.perf_counter()
    level = functools.cache(functools.partial(     # leaves -> its bounds
        _binned_abs_bound, inst.X, inst.Y, xs, ys, inst.w, fm))
    for use_high, g in {None: rungs, "plain": rungs[:1],
                        "high": rungs[1:]}[force]:
        limit = (budget - slack) / g    # the largest max_i A_i it allows
        upper, source = level(1)[0], "a-priori"
        if upper is None or upper > limit:
            upper, refined = level(_BINS)[1](limit)
            source = "rows" if refined else "binned"
        bound = math.inf if upper is None else _round_up(g * upper + slack)
        if bound <= budget:
            break
    else:
        raise SoundnessError(
            f"{'high' if use_high else 'double'}-precision error "
            f"bound {bound:g} exceeds the budget {budget:g}"
            + ("; drop force='plain'" if force == "plain" else ""))

    del xs, ys, level  # the passes need no squared norms; free them first
    v, build_s = (_matvec_dd(inst, fm), 0.0) if use_high \
        else _matvec_plain(inst, fm)

    rel_bound = _round_up(Fraction(bound) / w_lo) if w_lo > 0 else 0.0
    return KdeResult(v=v, M=fm.rank, elapsed_build=build_s,
                     elapsed_matvec=time.perf_counter() - t0 - build_s,
                     degree=fm.d, float_error_bound=rel_bound,
                     used_high_precision=use_high,
                     float_bound_source=source)


def _matvec_plain(inst: KdeInstance, fm: FeatureMap
                  ) -> tuple[np.ndarray, float]:
    """Streamed BLAS passes; returns v and the time spent building
    feature rows.  Each chunk is freed before the next is built."""
    empty = slice(0, 0)
    chunks = _chunks(inst.n, fm.rank, _CHUNK_BYTES)
    svec = np.zeros(fm.rank)
    feat_s = 0.0
    for rows in chunks:
        t = time.perf_counter()
        _, Yc = build_feature_matrices(inst, fm, empty, rows)
        feat_s += time.perf_counter() - t
        svec += Yc.T @ inst.w[rows]
        del Yc
    svec *= fm.scale
    parts = []
    for rows in chunks:
        t = time.perf_counter()
        Xc, _ = build_feature_matrices(inst, fm, rows, empty)
        feat_s += time.perf_counter() - t
        parts.append(Xc @ svec)
        del Xc
    return np.concatenate(parts), feat_s


def _matvec_dd(inst: KdeInstance, fm: FeatureMap) -> np.ndarray:
    """The plain double rows with error-free products by w, double-double
    reduction and output sums, and double-double products by the column
    scales and by s."""
    empty = slice(0, 0)
    chunks = _chunks(inst.n, fm.rank, _DD_CHUNK_BYTES)
    sh = np.zeros(fm.rank)
    sl = np.zeros(fm.rank)
    for rows in chunks:
        _, Yc = build_feature_matrices(inst, fm, empty, rows)
        ph, pl = _dd_sum_tree(*_two_prod(Yc, inst.w[rows, None]))
        del Yc
        sh, sl = _dd_add(sh, sl, ph, pl)
    sh, sl = _dd_mul(sh, sl, fm.scale, 0.0)
    parts = []
    for rows in chunks:
        Xc, _ = build_feature_matrices(inst, fm, rows, empty)
        th, tl = _dd_mul(Xc, 0.0, sh, sl)
        del Xc
        vh, vl = _dd_sum_tree(th.T, tl.T)
        parts.append(vh + vl)
    return np.concatenate(parts)


def kde_bruteforce(inst: KdeInstance) -> np.ndarray:
    """Exact O(n^2 m) reference: v_i = sum_j w_j exp(-||x_i - y_j||^2),
    _BRUTE_CHUNK rows of x at a time."""
    n = inst.n
    v = np.empty(n)
    for s in range(0, n, _BRUTE_CHUNK):
        e = min(s + _BRUTE_CHUNK, n)
        d2 = ((inst.X[s:e, None, :] - inst.Y[None, :, :]) ** 2).sum(axis=2)
        v[s:e] = np.exp(-d2) @ inst.w
    return v


def _kernel_problem(B, delta) -> ProblemSpec:
    """exp(-z) on [0, B] at the polynomial's half of the KDE tolerance."""
    return problem(Target.EXP_NEG, B, Fraction(delta) / 2)


def kernel_map(m: int, B, delta) -> tuple[DegreeCertificate, FeatureMap]:
    """Certify p for exp(-z) on [0, B] at delta/2 and factor p(||x - y||^2).

    The certify->factor half of the KDE pipeline, shared by `solve` and
    the `kde` and `bench` subcommands; `delta` is the KDE tolerance, whose
    other half goes to the floating-point passes.  The rank is checked
    before the polynomial is exported.
    """
    spec = _kernel_problem(B, delta)
    cert = find_degree(spec)
    _check_rank(m, cert.D_upper)
    poly = export_polynomial(spec, cert)
    return cert, expand_kernel_poly(poly, m)


def solve(inst: KdeInstance, force: str | None = None) -> KdeResult:
    """End-to-end driver: certify a polynomial at delta/2, expand, matvec."""
    _, fm = kernel_map(inst.m, inst.B, inst.delta)
    return kde_matvec(inst, fm, force=force)


# ---------------------------------------------------------------------------
# cost model


@dataclass(frozen=True)
class CostModel:
    n: int
    alpha: float
    beta: float
    kappa: float
    m: int
    degree: int
    M: int
    exponent_bound: float
    x: float            # kappa * nu(kappa / (2 beta))
    envelope: float     # x * |ln x|, the analytic exponent envelope
    degree_source: str  # "certificate" or "prediction"


def cost_model(n: int, alpha: float, beta: float, kappa: float) -> CostModel:
    """Feature rank and runtime exponent in the scaling regime.

    With m = alpha ln n, delta = n^-beta, and B = kappa ln n, the window
    ratio is r = kappa / (2 beta) and the certified degree grows like
    nu(r) * r * beta * ln n.  M is the feature rank C(m+d+1, d) that
    the solver uses and exponent_bound = ln M / ln n; envelope is the
    analytic x |ln x| with x = kappa nu(r).
    Uses the degree `kernel_map` certifies (at delta/2) when B >= 1, the
    closed-form prediction otherwise.  M is reported exactly and may
    exceed the materialization ceiling; no capacity check applies here.
    """
    if not 0 < kappa < 0.5:
        raise DomainError("kappa must lie in (0, 1/2)")
    if alpha <= 0 or beta <= 0 or n < 3:
        raise DomainError("need alpha > 0, beta > 0, n >= 3")
    ln_n = math.log(n)
    m = max(1, int(alpha * ln_n))
    r = kappa / (2 * beta)
    nu = critical_constant_neg(hpf(r, 96), 96).to_float()
    B = kappa * ln_n
    source = "prediction"
    d = max(1, math.ceil(nu * r * beta * ln_n))
    if B >= 1:
        try:
            d = find_degree(_kernel_problem(repr(B), repr(n ** -beta))).D_upper
            source = "certificate"
        except CapacityError:
            pass
    M = feature_count(m, d)
    x = kappa * nu
    envelope = x * abs(math.log(x)) if x > 0 else 0.0
    return CostModel(n, alpha, beta, kappa, m, d, M,
                     math.log(M) / ln_n, x, envelope, source)
