"""Batch Gaussian kernel-density evaluation by low-rank factorization.

Given points x^(1)..x^(n), y^(1)..y^(n) and weights w, approximates
v = K w with K[i,j] = exp(-||x_i - y_j||^2), to additive accuracy
delta * ||w||_1 per entry, in O(n * R) arithmetic instead of n^2:

1. build a certified polynomial p with |p(z) - exp(-z)| <= delta/2 on
   [0, B], B an upper bound on the squared diameter;
2. factor p(||x - y||^2) through a = ||x||^2, b = <x, y>, c = ||y||^2.
   With t = a - 2b + c,

       p(t) = sum_{i+j+k <= d} c_ijk a^i b^j c^k,
       c_ijk = p_{i+j+k} (i+j+k)! / (i! j! k!) (-2)^j,

   and b^j = sum_{|beta| = j} (j! / beta!) x^beta y^beta over the m
   coordinates.  Feature r = (j, i, beta) has the x-side value
   (j! / beta!) a^i x^beta and the y-side value y^beta h_ij(c) with
   h_ij(c) = sum_k c_ijk c^k, so K ~ Xmat @ Ymat.T with rank
   R = sum_j C(m+j-1, j) (d-j+1) = C(m+d+1, d);
3. stream row chunks of Ymat (reduction s = Ymat.T @ w) and then of
   Xmat (output v = Xmat @ s) through BLAS, never holding n x R.

h_ij is evaluated as (-2)^j C(i+j, i) g_{i+j}(c) with
g_s(c) = sum_k c_{s,0,k} c^k, which is exact algebra
(c_ijk = (-2)^j C(i+j, i) c_{i+j,0,k}), so only d + 1 Horner
polynomials run per row.

Floating-point error is charged against the remaining delta/2 budget.
Every elementary term T = c_ijk (j!/beta!) a^i x^beta y^beta c^k w_n
reaches v_i through at most N roundings, each obeying the standard model
fl(a op b) = (a op b)(1 + e), |e| <= u (Higham, Accuracy and Stability of
Numerical Algorithms, 2.2):

* x side: a = sum_l x_l^2 (m), a^i by repeated products (i m + i - 1),
  the weight j!/beta! as a double (1), x^beta by parent-pointer products
  (j - 1), two products (2): at most i (m+1) + j + 3;
* y side: c (k m for c^k), the Horner coefficient c_{s,0,k} as a double
  (1), Horner on g_s (2k + 1), the scale (-2)^j C(i+j, i) as a double
  and its product (2), y^beta (j - 1), one product (1): at most
  k (m+2) + j + 5;
* reduction (one product, n - 1 sums) and output (R products and sums):
  n + R, in any summation order and any chunking.

With i + k <= d - j and 2j <= j (m+2) the total is

    N = n + R + d (m + 2) + 8,                         (gamma_ops)

so |v_i - fl(v_i)| <= gamma_N A_i, gamma_N = N u / (1 - N u), where
A_i = sum_n |w_n| sum |T| is the same feature map applied to |x|, |y| and
|c_ijk|.

kde_matvec centers the instance once, on the float midrange c of the
pooled points, and hands the centered instance to every pass; the
Gaussian kernel is translation-invariant, so it is the same problem.
x' = fl(x - c) has |x'_l - (x_l - c_l)| <= u r_l with r_l the pooled
range of coordinate l.  With s_l = x_l - y_l and s'_l = x'_l - y'_l,
|s'_l^2 - s_l^2| <= 2u r_l^2 (1 + 4u), and r_l^2 <= 4B because any two
pooled points are within 2 sqrt(B) through a third.  p is evaluated at
the perturbed squared distance t', and exp(-t) is 1-Lipschitz on
t >= 0, so each kernel value moves by at most

    sum_l |s'_l^2 - s_l^2| <= 8 m B u (1 + 4u),          (shift_slack)

charged times ||w||_1 (for t' <= B, where p is certified).  The float
budget delta/2 ||w||_1 is rounded down, and shift_slack and
float_error_bound up, each from a float ||w||_1 within a factor 1 +- u
of the exact one.

When plain double precision cannot meet the budget the matvec escalates
to double-double arithmetic end to end, with the same N counted twice
at unit 2^-104 = 4u^2: double-double sums (<= 3u^2 operand-wise) and
products by a double (<= 2u^2) take one unit, products of two
double-doubles (<= 7u^2, Joldes, Muller and Popescu, TOMS 2017) two.

The precision is chosen before any feature row is built, from two
O(nm + d) bounds on max_i A_i.  With a_i = ||x'_i||^2, c_n = ||y'_n||^2
and |c_ijk| = |p_s| s! / (i! j! k!) 2^j for s = i + j + k, summing the
terms of A_i over beta and over i + j + k = s undoes the factorization
(multinomial theorem, twice):

    A_i = sum_n |w_n| P_abs(a_i + 2 <|x'_i|, |y'_n|> + c_n),
    P_abs(t) = sum_k |p_k| t^k,

the same polynomial with its coefficients' absolute values, whose value
over |p(t)| is the condition number of evaluating p (Higham, 5.1).
P_abs is nondecreasing on t >= 0 and <|x|, |y|> <= sqrt(a c) by
Cauchy-Schwarz, so

    A_lo = ||w||_1 P_abs(a_max) <= max_i A_i
         <= ||w||_1 P_abs(a_max + 2 sqrt(a_max c_max) + c_max) = A_hi.

Both are evaluated exactly in rationals from float inputs rounded
outward.  A float sum of m squares is within gamma_m of the exact one
and a float ||w||_1 within gamma_n, so the inputs to A_hi are divided by
1 - gamma and rounded up, those to A_lo multiplied by 1 - gamma and
rounded down, and the square root is rounded up.  The measured pass is
the plain matvec of the majorant (|x'|, |y'|, |w|, |Horner coefficients|
and |pair scales|), so it sums nonnegative data: its float max_i A_i is
at least (1 - gamma_N) max_i A_i, and gamma_N / (1 - gamma_N) times it
bounds the error.

The precision is one ladder over the rungs `force` allows, plain doubles
(gamma_N at unit u) and then double-double (gamma_2N at unit 2^-104).
A rung bounds the error by gamma_k A + shift_slack, in rationals rounded
up, and takes A = A_hi when that meets the budget.  It fails without a
pass when A = A_lo misses it: the measured A = fl(max_i A_i) /
(1 - gamma_N) is at least A_lo.  Otherwise the measured pass, run at
most once per call, decides it.  SoundnessError ends a ladder
whose last rung fails.
"""

from __future__ import annotations

import math
import sys
import time
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .approx import (
    DegreeCertificate,
    ExportedPolynomial,
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
_CHUNK_BYTES = 16_000_000    # one chunk of feature rows (plain path)
_DD_CHUNK_BYTES = 1_000_000  # one chunk of feature rows, hi part (dd path)

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
    i = 0..d-j, then the level's monomials beta.
    """
    m: int
    d: int
    exponents: np.ndarray     # T x m exponent vectors beta, T = C(m+d, d)
    runs: np.ndarray          # parent links: rows (dst, src, count, var)
    level_starts: tuple[int, ...]  # first monomial of each degree, then T
    weights: np.ndarray       # j! / beta! per monomial, as doubles
    horner: np.ndarray        # [s, k] = c_{s,0,k}, as doubles
    pair_scale: np.ndarray    # [j, i] = (-2)^j C(i+j, i), zero for i > d-j
    poly: ExportedPolynomial

    @property
    def rank(self) -> int:
        return feature_count(self.m, self.d)


@dataclass
class KdeResult:
    """Output of kde_matvec.

    `elapsed_build` is the plain-double work outside the value products:
    building the plain feature rows, plus the absolute-value pass when the
    a priori bound misses the budget.  It is 0 when the double-double path
    is chosen from the a priori bounds alone.  `elapsed_matvec` is the
    rest: the bounds, the plain BLAS products or the double-double pass.
    `float_bound_source` says which bound certified the run: "a-priori"
    (the O(nm + d) bound A_hi) or "measured" (the absolute-value pass).
    """
    v: np.ndarray
    M: int                         # feature rank R
    elapsed_build: float
    elapsed_matvec: float
    degree: int
    B_used: Fraction
    float_error_bound: float       # certified per-entry bound / ||w||_1
    used_high_precision: bool
    float_bound_source: str        # "a-priori" or "measured"
    diameter_violation: float | None = None


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

    An O(nm) upper bound on the true squared diameter, so a polynomial
    certified on [0, B-hat] covers every pairwise distance.
    """
    pooled = np.vstack([X, Y])
    ranges = pooled.max(axis=0) - pooled.min(axis=0)
    return float(np.dot(ranges, ranges))


def measured_diameter_sq(X: np.ndarray, Y: np.ndarray) -> float:
    """Exact maximal squared distance between any x and y point (O(n^2 m))."""
    worst = 0.0
    for i in range(X.shape[0]):
        d2 = ((X[i] - Y) ** 2).sum(axis=1).max()
        if d2 > worst:
            worst = float(d2)
    return worst


def make_instance(X, Y, w, delta, B=None) -> KdeInstance:
    """Validate and package a KDE instance; estimates B when not given."""
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


def _exact_tables(poly: ExportedPolynomial, exponents: np.ndarray, d: int):
    """The feature map's tables, exact: weights j! / beta! per monomial,
    Horner coefficients [s, k] = c_{s,0,k} = p_{s+k} C(s+k, s) and pair
    scales [j, i] = (-2)^j C(i+j, i), zero for i > d-j."""
    p = list(poly.monomial_form) + [Fraction(0)] * (d + 1)
    return ([_multinomial(b) for b in exponents],
            [[p[s + k] * math.comb(s + k, s) for k in range(d + 1)]
             for s in range(d + 1)],
            [[(-2) ** j * math.comb(i + j, i) if i + j <= d else 0
              for i in range(d + 1)] for j in range(d + 1)])


def expand_kernel_poly(poly: ExportedPolynomial, m: int) -> FeatureMap:
    """Factor p(||x - y||^2) through (||x||^2, <x, y>, ||y||^2).

    The Horner coefficients c_{s,0,k} and pair scales come from p's dyadic
    monomial form; the monomials over the m coordinates carry parent
    pointers for incremental evaluation.
    """
    if m < 1:
        raise DomainError("m must be positive")
    d = max(poly.degree, 1)
    _check_rank(m, d)
    for c in poly.monomial_form:
        if c.denominator & (c.denominator - 1):
            raise SoundnessError("polynomial coefficients are not dyadic")

    exponents, runs, level_starts = _monomial_tree(m, d)
    weights, horner, pair_scale = (
        np.array(t, dtype=np.float64)
        for t in _exact_tables(poly, exponents, d))
    return FeatureMap(m, d, exponents, runs, level_starts, weights, horner,
                      pair_scale, poly)


def reconstruct_feature_value(fm: FeatureMap, x, y) -> Fraction:
    """Exact sum_r Xmat_r(x) Ymat_r(y) of the map at one (x, y) pair, with
    c_ijk = p_{i+j+k} (i+j+k)! / (i! j! k!) (-2)^j taken from p itself."""
    xs = [Fraction(v) for v in x]
    ys = [Fraction(v) for v in y]
    a = sum(v * v for v in xs)
    c = sum(v * v for v in ys)
    d = fm.d
    p = list(fm.poly.monomial_form) + [Fraction(0)] * (d + 1)
    total = Fraction(0)
    for beta in fm.exponents:
        j = int(beta.sum())
        xb = Fraction(_multinomial(beta))
        yb = Fraction(1)
        for xv, yv, e in zip(xs, ys, beta):
            xb *= xv ** int(e)
            yb *= yv ** int(e)
        for i in range(d - j + 1):
            h = sum(p[i + j + k] * _multinomial((i, j, k)) * (-2) ** j
                    * c ** k for k in range(d - i - j + 1))
            total += (xb * a ** i) * (yb * h)
    return total


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


def _level_blocks(fm: FeatureMap, out: np.ndarray):
    """(j, monomial slice, view of out as rows x (d-j+1) x C_j)."""
    col = 0
    for j in range(fm.d + 1):
        s, e = fm.level_starts[j], fm.level_starts[j + 1]
        width = (e - s) * (fm.d - j + 1)
        yield j, slice(s, e), out[:, col:col + width].reshape(
            out.shape[0], fm.d - j + 1, e - s)
        col += width


def _x_rows(P: np.ndarray, fm: FeatureMap) -> np.ndarray:
    """Xmat rows: (j! / beta!) a^i x^beta."""
    mono = _monomial_rows(P, fm)
    mono *= fm.weights
    apow = np.empty((P.shape[0], fm.d + 1))
    apow[:, 0] = 1.0
    apow[:, 1] = (P * P).sum(axis=1)
    for i in range(2, fm.d + 1):
        np.multiply(apow[:, i - 1], apow[:, 1], out=apow[:, i])
    out = np.empty((P.shape[0], fm.rank))
    for j, sl, view in _level_blocks(fm, out):
        np.multiply(mono[:, None, sl], apow[:, :fm.d - j + 1, None], out=view)
    return out


def _y_rows(P: np.ndarray, fm: FeatureMap) -> np.ndarray:
    """Ymat rows: y^beta h_ij(c)."""
    mono = _monomial_rows(P, fm)
    c = (P * P).sum(axis=1)[:, None]
    g = np.zeros((P.shape[0], fm.d + 1))
    for k in range(fm.d, -1, -1):
        g *= c
        g += fm.horner[:, k]
    out = np.empty((P.shape[0], fm.rank))
    for j, sl, view in _level_blocks(fm, out):
        h = g[:, j:] * fm.pair_scale[j, :fm.d - j + 1]
        np.multiply(mono[:, None, sl], h[:, :, None], out=view)
    return out


def build_feature_matrices(inst: KdeInstance, fm: FeatureMap,
                           x_rows: slice = slice(None),
                           y_rows: slice = slice(None)
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows of the points X[x_rows] and Y[y_rows] in float64.

    Row i of Xmat holds (j! / beta!) a^i x^beta and row j of Ymat holds
    y^beta h_ij(c) over the columns r = (j, i, beta), so
    K[x_rows, y_rows] ~ Xmat @ Ymat.T.
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


def _dd_split(values) -> tuple[np.ndarray, np.ndarray]:
    """Exact rationals or integers as (hi, lo) double pairs."""
    vals = np.asarray(values, dtype=object)
    hi = np.array([float(v) for v in vals.flat]).reshape(vals.shape)
    lo = np.array([float(Fraction(v) - Fraction(h))
                   for v, h in zip(vals.flat, hi.flat)]).reshape(vals.shape)
    return hi, lo


def _dd_norm_sq(P: np.ndarray):
    sh = np.zeros(P.shape[0])
    sl = np.zeros(P.shape[0])
    for l in range(P.shape[1]):
        sh, sl = _dd_add(sh, sl, *_two_prod(P[:, l], P[:, l]))
    return sh, sl


def _dd_monomial_rows(P: np.ndarray, fm: FeatureMap):
    T = fm.level_starts[-1]
    hi = np.empty((P.shape[0], T))
    lo = np.zeros((P.shape[0], T))
    hi[:, 0] = 1.0
    for dst, src, count, var in fm.runs:
        hi[:, dst:dst + count], lo[:, dst:dst + count] = _dd_mul(
            hi[:, src:src + count], lo[:, src:src + count], P[:, var, None],
            0.0)
    return hi, lo


def _dd_tables(fm: FeatureMap):
    """Weights, Horner coefficients and pair scales as exact (hi, lo)."""
    return tuple(_dd_split(t)
                 for t in _exact_tables(fm.poly, fm.exponents, fm.d))


def _x_rows_dd(P: np.ndarray, fm: FeatureMap, tables):
    mh, ml = _dd_monomial_rows(P, fm)
    mh, ml = _dd_mul(mh, ml, *tables[0])
    ah, al = _dd_norm_sq(P)
    rows = P.shape[0]
    ph = np.empty((rows, fm.d + 1))
    pl = np.empty((rows, fm.d + 1))
    ph[:, 0], pl[:, 0] = 1.0, 0.0
    for i in range(1, fm.d + 1):
        ph[:, i], pl[:, i] = _dd_mul(ph[:, i - 1], pl[:, i - 1], ah, al)
    hi = np.empty((rows, fm.rank))
    lo = np.empty((rows, fm.rank))
    for (j, sl, vh), (_, _, vl) in zip(_level_blocks(fm, hi),
                                        _level_blocks(fm, lo)):
        k = fm.d - j + 1
        vh[...], vl[...] = _dd_mul(mh[:, None, sl], ml[:, None, sl],
                                   ph[:, :k, None], pl[:, :k, None])
    return hi, lo


def _y_rows_dd(P: np.ndarray, fm: FeatureMap, tables):
    mh, ml = _dd_monomial_rows(P, fm)
    ch, cl = _dd_norm_sq(P)
    ch, cl = ch[:, None], cl[:, None]
    rows = P.shape[0]
    gh = np.zeros((rows, fm.d + 1))
    gl = np.zeros((rows, fm.d + 1))
    _, (qh, ql), (sh, sl_) = tables
    for k in range(fm.d, -1, -1):
        gh, gl = _dd_add(*_dd_mul(gh, gl, ch, cl), qh[:, k], ql[:, k])
    hi = np.empty((rows, fm.rank))
    lo = np.empty((rows, fm.rank))
    for (j, sl, vh), (_, _, vl) in zip(_level_blocks(fm, hi),
                                        _level_blocks(fm, lo)):
        k = fm.d - j + 1
        hh, hl = _dd_mul(gh[:, j:], gl[:, j:], sh[j, :k], sl_[j, :k])
        vh[...], vl[...] = _dd_mul(mh[:, None, sl], ml[:, None, sl],
                                   hh[:, :, None], hl[:, :, None])
    return hi, lo


# ---------------------------------------------------------------------------
# the matvec


def _gamma(k: int, unit):
    """gamma_k = k u / (1 - k u); exact when `unit` is a Fraction."""
    return k * unit / (1 - k * unit)


def gamma_ops(n: int, fm: FeatureMap) -> int:
    """Roundings on the path of one elementary term (module docstring)."""
    return n + fm.rank + fm.d * (fm.m + 2) + 8


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


def _abs_sum_bounds(Xp: np.ndarray, Yp: np.ndarray, w: np.ndarray,
                    fm: FeatureMap) -> tuple[Fraction, Fraction]:
    """(A_lo, A_hi) with A_lo <= max_i A_i <= A_hi, in O(nm + d), from the
    centered coordinates Xp, Yp (module docstring)."""
    u = Fraction(_EPS)
    p_abs = [abs(c) for c in fm.poly.monomial_form]

    def P_abs(t: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(p_abs):
            acc = acc * t + c
        return acc

    def norm_sq_max(P: np.ndarray) -> tuple[float, float]:
        fl = float((P * P).sum(axis=1).max())
        g = _gamma(P.shape[1], u)
        hi = _round_up(Fraction(fl) / (1 - g)) if math.isfinite(fl) \
            else math.inf
        if hi == math.inf:
            raise DomainError("squared norms of the centered coordinates "
                              "overflow double precision")
        return _round_down(Fraction(fl) * (1 - g)), hi

    a_lo, a_hi = norm_sq_max(Xp)
    _, c_hi = norm_sq_max(Yp)
    s = math.sqrt(a_hi) * math.sqrt(c_hi)
    while Fraction(s) ** 2 < Fraction(a_hi) * Fraction(c_hi):
        s = math.nextafter(s, math.inf)
    w_fl = Fraction(float(np.abs(w).sum()))
    g = _gamma(w.shape[0], u)
    t_hi = Fraction(a_hi) + 2 * Fraction(s) + Fraction(c_hi)
    return (w_fl * (1 - g) * P_abs(Fraction(a_lo)),
            w_fl / (1 - g) * P_abs(t_hi))


def _budget(inst: KdeInstance) -> tuple[float, float, Fraction]:
    """(budget, shift_slack, w_lo): the float half of delta times ||w||_1
    rounded down, the centering allowance 8 m B u (1 + 4u) ||w||_1 rounded
    up, and a lower bound on ||w||_1.  math.fsum rounds the exact ||w||_1
    to nearest, so it is within a factor 1 +- u of it."""
    u = Fraction(_EPS)
    w_fl = Fraction(math.fsum(np.abs(inst.w).tolist()))
    return (_round_down(inst.delta / 2 * (1 - u) * w_fl),
            _round_up(8 * inst.m * inst.B * u * (1 + 4 * u) * (1 + u) * w_fl),
            (1 - u) * w_fl)


def kde_matvec(inst: KdeInstance, fm: FeatureMap, force: str | None = None,
               validate_diameter: bool = False) -> KdeResult:
    """v = Xmat @ (Ymat.T @ w) with a certified floating-point budget.

    The precision is chosen before any value row is built, by the ladder
    of the module docstring.  Rows are streamed in chunks whose boundaries
    depend only on n and the rank, and partial reductions are merged in
    chunk order, so the result is bitwise reproducible.

    `force` is None (auto), "plain" (stay in double precision; raises
    SoundnessError if the budget check fails), or "high" (always use the
    double-double path end to end).
    """
    if force not in (None, "plain", "high"):
        raise DomainError("force must be None, 'plain', or 'high'")

    violation = None
    if validate_diameter:
        measured = measured_diameter_sq(inst.X, inst.Y)
        if measured > float(inst.B):
            violation = measured
            warnings.warn(
                f"squared diameter {measured:g} exceeds the bound "
                f"{float(inst.B):g}; the accuracy contract does not apply",
                stacklevel=2)

    center = _midrange(inst)
    inst = replace(inst, X=inst.X - center, Y=inst.Y - center)
    if not (np.isfinite(inst.X).all() and np.isfinite(inst.Y).all()):
        raise DomainError("non-finite input coordinate")
    budget, shift_slack, w_lo = _budget(inst)
    N = gamma_ops(inst.n, fm)
    slack = Fraction(shift_slack)

    t0 = time.perf_counter()
    A_lo, A_hi = _abs_sum_bounds(inst.X, inst.Y, inst.w, fm)
    A_measured = None   # fl(max_i A_i) / (1 - gamma_N), measured at most once
    build_s = 0.0
    rungs = [(N, _EPS), (2 * N, _EPS_DD)]
    for k, unit in {None: rungs, "plain": rungs[:1], "high": rungs[1:]}[force]:
        g = _gamma(k, Fraction(unit))
        bound = _round_up(g * A_hi + slack)
        source = "a-priori"
        if bound > budget and _round_up(g * A_lo + slack) <= budget:
            if A_measured is None:
                t = time.perf_counter()
                a = _abs_pass(inst, fm)
                # an overflowed pass measures nothing past A_hi
                A_measured = Fraction(a) / (1 - _gamma(N, Fraction(_EPS))) \
                    if math.isfinite(a) else A_hi
                build_s += time.perf_counter() - t
            bound = _round_up(g * A_measured + slack)
            source = "measured"
        if bound <= budget:
            break
    else:
        raise SoundnessError(
            f"{'high' if unit == _EPS_DD else 'double'}-precision error "
            f"bound {bound:g} exceeds the budget {budget:g}"
            + ("; drop force='plain'" if force == "plain" else ""))

    use_high = unit == _EPS_DD
    if use_high:
        v = _matvec_dd(inst, fm)
    else:
        v, feat_s = _matvec_plain(inst, fm)
        build_s += feat_s

    rel_bound = _round_up(Fraction(bound) / w_lo) if w_lo > 0 else 0.0
    return KdeResult(v=v, M=fm.rank, elapsed_build=build_s,
                     elapsed_matvec=time.perf_counter() - t0 - build_s,
                     degree=fm.d, B_used=inst.B, float_error_bound=rel_bound,
                     used_high_precision=use_high,
                     float_bound_source=source,
                     diameter_violation=violation)


def _abs_pass(inst: KdeInstance, fm: FeatureMap) -> float:
    """max_i fl(A_i) of a centered instance: the plain matvec of the
    majorant, on |x'|, |y'|, |w| with |Horner coefficients| and |pair
    scales|."""
    majorant = replace(inst, X=np.abs(inst.X), Y=np.abs(inst.Y),
                       w=np.abs(inst.w))
    fm_abs = replace(fm, horner=np.abs(fm.horner),
                     pair_scale=np.abs(fm.pair_scale))
    return float(_matvec_plain(majorant, fm_abs)[0].max())


def _matvec_plain(inst: KdeInstance, fm: FeatureMap
                  ) -> tuple[np.ndarray, float]:
    """Streamed BLAS passes; returns v and the time spent building
    feature rows."""
    empty = slice(0, 0)
    chunks = _chunks(inst.n, fm.rank, _CHUNK_BYTES)
    svec = np.zeros(fm.rank)
    feat_s = 0.0
    for rows in chunks:
        t = time.perf_counter()
        _, Yc = build_feature_matrices(inst, fm, empty, rows)
        feat_s += time.perf_counter() - t
        svec += Yc.T @ inst.w[rows]
    parts = []
    for rows in chunks:
        t = time.perf_counter()
        Xc, _ = build_feature_matrices(inst, fm, rows, empty)
        feat_s += time.perf_counter() - t
        parts.append(Xc @ svec)
    return np.concatenate(parts), feat_s


def _matvec_dd(inst: KdeInstance, fm: FeatureMap) -> np.ndarray:
    """Double-double end to end over streamed chunks of feature rows."""
    w = inst.w
    tables = _dd_tables(fm)

    def reduce(rows):
        yh, yl = _y_rows_dd(inst.Y[rows], fm, tables)
        th, tl = _dd_mul(yh, yl, w[rows, None], 0.0)
        return _dd_sum_tree(th, tl)

    def output(rows):
        xh, xl = _x_rows_dd(inst.X[rows], fm, tables)
        th, tl = _dd_mul(xh, xl, sh, sl)
        vh, vl = _dd_sum_tree(th.T, tl.T)
        return vh + vl

    chunks = _chunks(inst.n, fm.rank, _DD_CHUNK_BYTES)
    sh = np.zeros(fm.rank)
    sl = np.zeros(fm.rank)
    for ph, pl in map(reduce, chunks):
        sh, sl = _dd_add(sh, sl, ph, pl)
    return np.concatenate([output(rows) for rows in chunks])


def kde_bruteforce(inst: KdeInstance, chunk: int = 256) -> np.ndarray:
    """Exact O(n^2 m) reference: v_i = sum_j w_j exp(-||x_i - y_j||^2)."""
    n = inst.n
    v = np.empty(n)
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        d2 = ((inst.X[s:e, None, :] - inst.Y[None, :, :]) ** 2).sum(axis=2)
        v[s:e] = np.exp(-d2) @ inst.w
    return v


def kernel_map(m: int, B, delta) -> tuple[DegreeCertificate, FeatureMap]:
    """Certify p for exp(-z) on [0, B] at delta/2 and factor p(||x - y||^2).

    The certify->factor half of the KDE pipeline, shared by `solve` and
    the `kde` and `bench` subcommands; `delta` is the KDE tolerance, whose
    other half goes to the floating-point passes.  The rank is checked
    before the polynomial is exported.
    """
    spec = problem(Target.EXP_NEG, B, Fraction(delta) / 2)
    cert = find_degree(spec)
    _check_rank(m, cert.D_upper)
    poly = export_polynomial(spec, cert)
    return cert, expand_kernel_poly(poly, m)


def solve(inst: KdeInstance, force: str | None = None,
          validate_diameter: bool = False) -> KdeResult:
    """End-to-end driver: certify a polynomial at delta/2, expand, matvec."""
    _, fm = kernel_map(inst.m, inst.B, inst.delta)
    return kde_matvec(inst, fm, force=force,
                      validate_diameter=validate_diameter)


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
    Uses the certified degree when B >= 1 makes a certificate feasible,
    the closed-form prediction otherwise.  M is reported exactly and may
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
            spec = problem(Target.EXP_NEG, repr(B), repr(n ** -beta))
            d = find_degree(spec).D_upper
            source = "certificate"
        except CapacityError:
            pass
    M = feature_count(m, d)
    x = kappa * nu
    envelope = x * abs(math.log(x)) if x > 0 else 0.0
    return CostModel(n, alpha, beta, kappa, m, d, M,
                     math.log(M) / ln_n, x, envelope, source)
