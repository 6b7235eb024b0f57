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
|c_ijk|.  The absolute-value pass computes A_i in the same chunks from
nonnegative data, so its float value is at least (1 - gamma_N) A_i and
the reported bound is gamma_N / (1 - gamma_N) max_i fl(A_i).

Coordinates are centered on the float midrange c of the pooled points,
x' = fl(x - c), so |x'_l - (x_l - c_l)| <= u r_l with r_l the pooled
range of coordinate l.  With s_l = x_l - y_l and s'_l = x'_l - y'_l,
|s'_l^2 - s_l^2| <= 2u r_l^2 (1 + 4u), and r_l^2 <= 4B because any two
pooled points are within 2 sqrt(B) through a third.  p is evaluated at
the perturbed squared distance t', and exp(-t) is 1-Lipschitz on
t >= 0, so each kernel value moves by at most

    sum_l |s'_l^2 - s_l^2| <= 8 m B u (1 + 4u),          (shift_slack)

charged times ||w||_1 (for t' <= B, where p is certified).

When plain double precision cannot meet the budget the matvec escalates
to double-double arithmetic end to end, with the same N counted twice
at unit 2^-104 = 4u^2: double-double sums (<= 3u^2 operand-wise) and
products by a double (<= 2u^2) take one unit, products of two
double-doubles (<= 7u^2, Joldes, Muller and Popescu, TOMS 2017) two.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .approx import (
    DegreeCertificate,
    ExportedPolynomial,
    export_polynomial,
    find_degree,
    problem,
)
from .coeffs import Target
from .errors import CapacityError, DomainError, SoundnessError
from .hp import DEFAULT_BITS, hpf
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
    coef: np.ndarray          # (d+1)^3 exact c_ijk, zero where i+j+k > d
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

    On the plain path `elapsed_build` is the time spent building feature
    rows (values and absolute values) and `elapsed_matvec` the rest of
    the streamed passes.  After an escalation `elapsed_build` is the
    whole discarded plain attempt and `elapsed_matvec` the double-double
    pass.
    """
    v: np.ndarray
    M: int                         # feature rank R
    elapsed_build: float
    elapsed_matvec: float
    degree: int
    B_used: Fraction
    float_error_bound: float       # certified per-entry bound / ||w||_1
    used_high_precision: bool
    diameter_violation: float | None = None


def feature_count(m: int, d: int) -> int:
    return math.comb(m + d + 1, d)


def _check_rank(m: int, d: int, max_columns: int = MAX_COLUMNS) -> int:
    R = feature_count(m, d)
    if R > max_columns:
        raise CapacityError(
            f"feature expansion needs R = C({m+d+1}, {d}) = {R} columns, "
            f"above the configured ceiling of {max_columns}")
    return R


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
    delta = delta if isinstance(delta, Fraction) else Fraction(delta)
    if not (0 < delta < 1):
        raise DomainError("delta must lie strictly between 0 and 1")
    estimated = B is None
    if estimated:
        B_frac = Fraction(estimate_diameter_sq(X, Y))
    else:
        B_frac = Fraction(B)
    if B_frac < 1:
        B_frac = Fraction(1)
    return KdeInstance(n, m, X, Y, w, delta, B_frac, estimated)


# ---------------------------------------------------------------------------
# monomial enumeration and kernel factorization


def enumerate_multi_indices(m: int, d: int,
                            max_columns: int = MAX_COLUMNS
                            ) -> list[tuple[int, ...]]:
    """All exponent tuples over m variables with total degree <= d.

    Graded colexicographic: ascending total degree, then ascending
    lexicographic order of the reversed tuple.  Within a degree the
    tuples come in runs, one per last nonzero variable v, and the run
    for v is the previous degree's tuples with last nonzero variable
    <= v (a prefix of that degree), each plus one unit of v.  Length is
    C(m+d, d).  Refuses when the rank-C(m+d+1, d) map they index would
    exceed `max_columns`.
    """
    if m < 1 or d < 1:
        raise DomainError("m and d must be positive")
    _check_rank(m, d, max_columns)
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


def _pair_scale(i: int, j: int) -> int:
    return (-2) ** j * math.comb(i + j, i)


def expand_kernel_poly(poly: ExportedPolynomial, m: int,
                       max_columns: int = MAX_COLUMNS) -> FeatureMap:
    """Factor p(||x - y||^2) through (||x||^2, <x, y>, ||y||^2).

    The coefficients c_ijk are exact rationals computed from p's dyadic
    monomial form; the monomials over the m coordinates carry parent
    pointers for incremental evaluation.
    """
    if m < 1:
        raise DomainError("m must be positive")
    d = max(poly.degree, 1)
    _check_rank(m, d, max_columns)
    p = list(poly.monomial_form) + [Fraction(0)] * (d + 1)
    for c in p:
        if c.denominator & (c.denominator - 1):
            raise SoundnessError("polynomial coefficients are not dyadic")

    fact = [math.factorial(k) for k in range(d + 1)]
    coef = np.full((d + 1,) * 3, Fraction(0), dtype=object)
    for i in range(d + 1):
        for j in range(d + 1 - i):
            for k in range(d + 1 - i - j):
                mult = fact[i + j + k] // (fact[i] * fact[j] * fact[k])
                coef[i, j, k] = p[i + j + k] * mult * (-2) ** j

    exponents, runs, level_starts = _monomial_tree(m, d)
    horner = np.array([[float(coef[s, 0, k]) for k in range(d + 1)]
                       for s in range(d + 1)])
    pair_scale = np.array([[float(_pair_scale(i, j)) if i + j <= d else 0.0
                            for i in range(d + 1)] for j in range(d + 1)])
    return FeatureMap(m, d, coef, exponents, runs, level_starts,
                      np.array([float(_multinomial(b)) for b in exponents]),
                      horner, pair_scale, poly)


def reconstruct_feature_value(fm: FeatureMap, x, y) -> Fraction:
    """Exact sum_r Xmat_r(x) Ymat_r(y) of the map at one (x, y) pair."""
    xs = [Fraction(v) for v in x]
    ys = [Fraction(v) for v in y]
    a = sum(v * v for v in xs)
    c = sum(v * v for v in ys)
    d = fm.d
    total = Fraction(0)
    for beta in fm.exponents:
        j = int(beta.sum())
        xb = Fraction(_multinomial(beta))
        yb = Fraction(1)
        for xv, yv, e in zip(xs, ys, beta):
            xb *= xv ** int(e)
            yb *= yv ** int(e)
        for i in range(d - j + 1):
            h = sum(fm.coef[i, j, k] * c ** k for k in range(d - i - j + 1))
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


def _y_rows(P: np.ndarray, fm: FeatureMap, absolute: bool = False
            ) -> np.ndarray:
    """Ymat rows: y^beta h_ij(c).  With `absolute`, P should be |y| and
    the rows use |c_ijk|: the majorant the float bound is driven by."""
    mono = _monomial_rows(P, fm)
    c = (P * P).sum(axis=1)[:, None]
    horner = np.abs(fm.horner) if absolute else fm.horner
    scale = np.abs(fm.pair_scale) if absolute else fm.pair_scale
    g = np.zeros((P.shape[0], fm.d + 1))
    for k in range(fm.d, -1, -1):
        g *= c
        g += horner[:, k]
    out = np.empty((P.shape[0], fm.rank))
    for j, sl, view in _level_blocks(fm, out):
        h = g[:, j:] * scale[j, :fm.d - j + 1]
        np.multiply(mono[:, None, sl], h[:, :, None], out=view)
    return out


def build_feature_matrices(inst: KdeInstance, fm: FeatureMap,
                           center: np.ndarray | None = None,
                           x_rows: slice = slice(None),
                           y_rows: slice = slice(None)
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows of the points X[x_rows] and Y[y_rows] in float64.

    Row i of Xmat holds (j! / beta!) a^i x^beta and row j of Ymat holds
    y^beta h_ij(c) over the columns r = (j, i, beta), so
    K[x_rows, y_rows] ~ Xmat @ Ymat.T.  Coordinates are taken relative
    to `center` when given.
    """
    Xp = inst.X[x_rows] if center is None else inst.X[x_rows] - center
    Yp = inst.Y[y_rows] if center is None else inst.Y[y_rows] - center
    bytes_needed = (Xp.shape[0] + Yp.shape[0]) * fm.rank * 8
    if bytes_needed > MAX_MATRIX_BYTES:
        raise CapacityError(
            f"feature matrices need {bytes_needed} bytes "
            f"(limit {MAX_MATRIX_BYTES})")
    if not (np.isfinite(Xp).all() and np.isfinite(Yp).all()):
        raise DomainError("non-finite input coordinate")
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
    """Pairwise double-double sum over axis 0."""
    while hi.shape[0] > 1:
        k = hi.shape[0]
        half = (k + 1) // 2
        pairs = k - half
        h2 = hi[:half].copy()
        l2 = lo[:half].copy()
        h2[:pairs], l2[:pairs] = _dd_add(hi[:pairs], lo[:pairs],
                                         hi[half:], lo[half:])
        hi, lo = h2, l2
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
    return (_dd_split([_multinomial(b) for b in fm.exponents]),
            _dd_split(fm.coef[:, 0, :]),
            _dd_split([[_pair_scale(i, j) if i + j <= fm.d else 0
                        for i in range(fm.d + 1)] for j in range(fm.d + 1)]))


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


def _gamma(k: int, unit: float) -> float:
    return k * unit / (1 - k * unit)


def gamma_ops(n: int, fm: FeatureMap) -> int:
    """Roundings on the path of one elementary term (module docstring)."""
    return n + fm.rank + fm.d * (fm.m + 2) + 8


def kde_matvec(inst: KdeInstance, fm: FeatureMap, force: str | None = None,
               validate_diameter: bool = False) -> KdeResult:
    """v = Xmat @ (Ymat.T @ w) with a certified floating-point budget.

    Rows are streamed in chunks whose boundaries depend only on n and
    the rank, and partial reductions are merged in chunk order, so the
    result is bitwise reproducible.

    `force` is None (auto), "plain" (stay in double precision; raises
    SoundnessError if the budget check fails), or "high" (always use the
    double-double path end to end).
    """
    if force not in (None, "plain", "high"):
        raise DomainError("force must be None, 'plain', or 'high'")
    n, m = inst.n, inst.m
    w_norm = float(np.abs(inst.w).sum())

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
    if not (np.isfinite(inst.X - center).all()
            and np.isfinite(inst.Y - center).all()):
        raise DomainError("non-finite input coordinate")
    # the polynomial consumed delta/2; floats get the other half, minus
    # the centering allowance
    budget = float(inst.delta) / 2 * w_norm
    shift_slack = 8.0 * m * float(inst.B) * _EPS * (1 + 4 * _EPS) * w_norm
    N = gamma_ops(n, fm)
    abs_scale = 1.0 / (1.0 - _gamma(N, _EPS))

    build_elapsed = 0.0
    use_high = force == "high"
    if not use_high:
        t0 = time.perf_counter()
        v, abs_max, feat_s = _matvec_plain(inst, fm, center)
        plain_s = time.perf_counter() - t0
        bound = _gamma(N, _EPS) * abs_max * abs_scale + shift_slack
        build_elapsed, matvec_elapsed = feat_s, max(plain_s - feat_s, 0.0)
        if bound > budget:
            if force == "plain":
                raise SoundnessError(
                    f"double-precision error bound {bound:g} exceeds "
                    f"the budget {budget:g}; drop force='plain'")
            use_high = True
            build_elapsed = plain_s
    if use_high:
        t1 = time.perf_counter()
        v, abs_max = _matvec_dd(inst, fm, center)
        matvec_elapsed = time.perf_counter() - t1
        bound = _gamma(2 * N, _EPS_DD) * abs_max * abs_scale + shift_slack
        if bound > budget:
            raise SoundnessError(
                f"even the high-precision error bound {bound:g} exceeds "
                f"the budget {budget:g}")

    rel_bound = bound / w_norm if w_norm > 0 else 0.0
    return KdeResult(v=v, M=fm.rank, elapsed_build=build_elapsed,
                     elapsed_matvec=matvec_elapsed, degree=fm.d,
                     B_used=inst.B, float_error_bound=rel_bound,
                     used_high_precision=use_high,
                     diameter_violation=violation)


def _matvec_plain(inst: KdeInstance, fm: FeatureMap, center: np.ndarray
                  ) -> tuple[np.ndarray, float, float]:
    """Streamed BLAS passes with the absolute-value pass fused in.

    Returns v, max_i fl(A_i) and the time spent building feature rows.
    """
    w = inst.w
    aw = np.abs(w)
    empty = slice(0, 0)

    def reduce(rows):
        t = time.perf_counter()
        _, Yc = build_feature_matrices(inst, fm, center, empty, rows)
        Ya = _y_rows(np.abs(inst.Y[rows] - center), fm, absolute=True)
        t = time.perf_counter() - t
        return Yc.T @ w[rows], Ya.T @ aw[rows], t

    def output(rows):
        t = time.perf_counter()
        Xc, _ = build_feature_matrices(inst, fm, center, rows, empty)
        t = time.perf_counter() - t
        v = Xc @ svec
        return v, np.abs(Xc, out=Xc) @ sabs, t

    chunks = _chunks(inst.n, fm.rank, _CHUNK_BYTES)
    svec = np.zeros(fm.rank)
    sabs = np.zeros(fm.rank)
    feat_s = 0.0
    for ps, pa, t in map(reduce, chunks):
        svec += ps
        sabs += pa
        feat_s += t
    outs = list(map(output, chunks))
    v = np.concatenate([o[0] for o in outs])
    abs_max = max(float(o[1].max()) for o in outs)
    return v, abs_max, feat_s + sum(o[2] for o in outs)


def _matvec_dd(inst: KdeInstance, fm: FeatureMap, center: np.ndarray
               ) -> tuple[np.ndarray, float]:
    """Double-double end to end over streamed chunks of feature rows;
    the absolute-value pass runs in plain doubles alongside."""
    w = inst.w
    aw = np.abs(w)
    tables = _dd_tables(fm)

    def reduce(rows):
        Yp = inst.Y[rows] - center
        yh, yl = _y_rows_dd(Yp, fm, tables)
        th, tl = _dd_mul(yh, yl, w[rows, None], 0.0)
        ph, pl = _dd_sum_tree(th, tl)
        Ya = _y_rows(np.abs(Yp), fm, absolute=True)
        return ph, pl, Ya.T @ aw[rows]

    def output(rows):
        xh, xl = _x_rows_dd(inst.X[rows] - center, fm, tables)
        th, tl = _dd_mul(xh, xl, sh, sl)
        vh, vl = _dd_sum_tree(th.T, tl.T)
        return vh + vl, np.abs(xh) @ sabs

    chunks = _chunks(inst.n, fm.rank, _DD_CHUNK_BYTES)
    sh = np.zeros(fm.rank)
    sl = np.zeros(fm.rank)
    sabs = np.zeros(fm.rank)
    for ph, pl, pa in map(reduce, chunks):
        sh, sl = _dd_add(sh, sl, ph, pl)
        sabs += pa
    outs = list(map(output, chunks))
    v = np.concatenate([o[0] for o in outs])
    abs_max = max(float(o[1].max()) for o in outs)
    return v, abs_max


def kde_bruteforce(inst: KdeInstance, chunk: int = 256) -> np.ndarray:
    """Exact O(n^2 m) reference: v_i = sum_j w_j exp(-||x_i - y_j||^2)."""
    n = inst.n
    v = np.empty(n)
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        d2 = ((inst.X[s:e, None, :] - inst.Y[None, :, :]) ** 2).sum(axis=2)
        v[s:e] = np.exp(-d2) @ inst.w
    return v


def kernel_map(m: int, B, delta, bits: int = DEFAULT_BITS,
               max_columns: int = MAX_COLUMNS
               ) -> tuple[DegreeCertificate, FeatureMap]:
    """Certify p for exp(-z) on [0, B] at delta/2 and factor p(||x - y||^2).

    The certify->factor half of the KDE pipeline, shared by `solve` and
    the `kde` and `bench` subcommands; `delta` is the KDE tolerance, whose
    other half goes to the floating-point passes.  The rank is checked
    before the polynomial is exported.
    """
    spec = problem(Target.EXP_NEG, B, Fraction(delta) / 2, bits)
    cert = find_degree(spec)
    _check_rank(m, cert.D_upper, max_columns)
    poly = export_polynomial(spec, cert)
    return cert, expand_kernel_poly(poly, m, max_columns)


def solve(inst: KdeInstance, force: str | None = None,
          validate_diameter: bool = False,
          max_columns: int = MAX_COLUMNS) -> KdeResult:
    """End-to-end driver: certify a polynomial at delta/2, expand, matvec."""
    _, fm = kernel_map(inst.m, inst.B, inst.delta, max_columns=max_columns)
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
