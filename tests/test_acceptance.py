"""Top-level acceptance checks, one test per numbered criterion.

Each test_criterion_NN function is reported as a single PASS/FAIL line
in the terminal summary (see conftest.py).  Tolerances are fixed here
and are not to be loosened: a red criterion means the library misses
its contract at the stated scale.
"""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import oracles
from expcheb.approx import (
    ChebSeries,
    degree_lower_bound,
    eval_cheb_series,
    export_polynomial,
    find_degree,
    problem,
)
from expcheb.cli import main as cli_main
from expcheb.coeffs import (
    Target,
    coefficient_range,
    modified_bessel,
    tail_bounds,
)
from expcheb.hp import hpf
from expcheb.kde import (
    cost_model,
    expand_kernel_poly,
    kde_bruteforce,
    kde_matvec,
    make_instance,
)
from expcheb.remez import minimax_error
from expcheb.special import (
    cheb_eval,
    cheb_extrema_and_roots,
    coeff_log_scale,
    critical_constant_neg,
    critical_constant_pos,
    decay_rate,
    saddle_point,
    saturation_constant,
    term_log_weight,
)

LN10 = math.log(10)


def test_criterion_01_rate_constants():
    bits = 192
    zs = saturation_constant(bits)
    assert abs(zs.to_float() - 2.2334) <= 1e-3
    assert abs((decay_rate(zs) + 1).to_float()) <= 1e-12
    one = hpf(1, bits)
    for r in (0.1, 0.5, 1.0, 2.0, 10.0):
        rh = hpf(r, bits)
        nu = critical_constant_neg(rh, bits)
        level_n = one - one / rh
        assert abs((decay_rate(nu) - level_n).to_float()) < 1e-12
        nu_f = nu.to_float()
        assert math.sqrt(2 / r) - 1e-9 <= nu_f <= max(1 / r, math.e) + 1e-9

        mu = critical_constant_pos(rh, bits)
        level_p = -(one + one / rh)
        assert abs((decay_rate(mu) - level_p).to_float()) < 1e-12
        mu_f = mu.to_float()
        assert zs.to_float() - 1e-12 <= mu_f <= max(2 + 2 / r, math.e) + 1e-9


def test_criterion_02_bessel_grid():
    for lam in (0.5, 1.0, 5.0, 20.0, 40.0):
        for v in range(0, 51):
            ref = oracles.bessel_i(v, lam, dps=50)
            got = modified_bessel(v, hpf(lam, 128), p_target=128)
            with mpmath.workdps(45):
                mine = mpmath.mpf(got.value.to_decimal(40))
                rel = float(abs(mine - ref) / abs(ref))
            assert rel < 1e-12, (v, lam, rel)


def test_criterion_03_series_reconstruction():
    bits = 256
    V = 60
    rng = random.Random(0)
    for lam_f in (0.5, 2.0, 8.0):
        lam = hpf(lam_f, bits)
        for target in (Target.EXP_NEG, Target.EXP_POS):
            cvs = coefficient_range(range(V), lam, target, p_target=bits)
            tb = tail_bounds(V, lam, target, p_target=bits)
            budget = tb.upper.to_fraction()
            budget += sum(cv.radius.to_fraction() for cv in cvs)
            budget += Fraction(1, 2 ** 180)  # evaluation rounding
            series = ChebSeries(lam, target, tuple(cvs))
            for _ in range(100):
                x = hpf(rng.uniform(-1.0, 1.0), bits)
                arg = lam * (x + 1)
                f = (-arg).exp() if target is Target.EXP_NEG else arg.exp()
                approx = eval_cheb_series(series, x, bits)
                assert abs((f - approx).to_fraction()) <= budget, \
                    (lam_f, target, x.to_float())


def test_criterion_04_minimax_bracket_and_saddle_scale():
    slack = Fraction(1, 10 ** 6)
    for lam_f in (0.5, 2.0, 8.0):
        lam = hpf(lam_f, 192)
        for target in (Target.EXP_NEG, Target.EXP_POS):
            spec = problem(target, 2 * lam_f, "1e-9")
            for d in (1, 2, 4, 8, 16, 30):
                tb = tail_bounds(d + 1, lam, target, p_target=192)
                mm = minimax_error(spec, d)
                mm_frac = mm.to_fraction()
                assert mm_frac >= tb.lower.to_fraction() * (1 - slack), \
                    (lam_f, target, d)
                assert mm_frac <= tb.upper.to_fraction() * (1 + slack), \
                    (lam_f, target, d)
                ln_mm = mm.log().to_float()
                psi = coeff_log_scale(d + 1, lam).to_float()
                center = psi - lam_f if target is Target.EXP_NEG \
                    else psi + lam_f
                assert abs(ln_mm - center) <= 2 * math.log(d + lam_f) + 6, \
                    (lam_f, target, d, ln_mm, center)


def test_criterion_05_regime_degree_ratios():
    # critical window at rho = 1
    L12 = 12 * LN10
    cert = find_degree(problem(Target.EXP_NEG, repr(2 * L12), "1e-12"))
    nu1 = float(mpmath.mpf(oracles.GOLDEN["nu_1"]))
    ratio = cert.D_upper / (nu1 * L12)
    assert 0.8 <= ratio <= 1.2, ratio

    # wide decaying domain: degree ~ sqrt(B ln(1/delta))
    L8 = 8 * LN10
    B = 100 * L8
    cert = find_degree(problem(Target.EXP_NEG, repr(B), "1e-8"))
    ratio = cert.D_upper / math.sqrt(B * L8)
    assert 0.8 <= ratio <= 1.25, ratio

    # saturated growing target: degree ~ z* B / 2
    zs = float(mpmath.mpf(oracles.GOLDEN["z_star"]))
    cert = find_degree(problem(Target.EXP_POS, "2000", "1e-3"))
    ratio = cert.D_upper / (zs * 1000)
    assert 0.9 <= ratio <= 1.2, ratio


def test_criterion_06_growth_witness_window():
    delta = 1e-6
    B = 100 * (-math.log(delta))
    spec = problem(Target.EXP_NEG, repr(B), "1e-6")
    D_lb = degree_lower_bound(spec)
    floor = 0.4 * math.sqrt(B * math.log(1 / (2 * delta)))
    assert D_lb >= floor, (D_lb, floor)
    cert = find_degree(spec)
    assert D_lb <= cert.D_upper, (D_lb, cert.D_upper)


# per-(B, delta) dimension ceilings keeping the feature count under the
# materialization limit at n <= 128
_KDE_CAPS = {
    ("4", "1e-3"): 4,
    ("4", "1e-6"): 3,
    ("9", "1e-3"): 3,
    ("9", "1e-6"): 2,
    ("25", "1e-3"): 2,
    ("25", "1e-6"): 1,
}


def test_criterion_07_randomized_kde_batches():
    rng = np.random.default_rng(20240817)
    combos = sorted(_KDE_CAPS)
    poly_cache = {}
    fm_cache = {}
    for _ in range(50):
        B_text, delta_text = combos[int(rng.integers(len(combos)))]
        m = int(rng.integers(1, _KDE_CAPS[(B_text, delta_text)] + 1))
        n = int(rng.integers(8, 129))
        pkey = (B_text, delta_text)
        poly = poly_cache.get(pkey)
        if poly is None:
            spec = problem(Target.EXP_NEG, B_text,
                           Fraction(Fraction(delta_text), 2))
            poly = export_polynomial(spec, find_degree(spec))
            poly_cache[pkey] = poly
        fm = fm_cache.get((B_text, delta_text, m))
        if fm is None:
            fm = expand_kernel_poly(poly, m)
            fm_cache[(B_text, delta_text, m)] = fm

        delta = Fraction(delta_text)
        side = math.sqrt(0.98 * float(Fraction(B_text)) / m)
        X = rng.uniform(-side / 2, side / 2, (n, m))
        Y = rng.uniform(-side / 2, side / 2, (n, m))
        w = rng.normal(size=n)
        inst = make_instance(X, Y, w, delta, B=Fraction(B_text))
        res = kde_matvec(inst, fm)
        brute = kde_bruteforce(inst)
        gap = float(np.abs(res.v - brute).max())
        w1 = float(np.abs(w).sum())
        assert gap <= float(delta) * w1, (B_text, delta_text, m, n, gap)
        assert res.M == math.comb(m + fm.d + 1, fm.d)
        assert res.float_error_bound <= float(delta) / 2 * (1 + 1e-12)


def test_criterion_08_benchmark_reference_scale(capsys):
    ns = ",".join(str(2 ** k) for k in range(10, 15))
    code = cli_main(["bench", "--n", ns, "--m", "8", "--B", "9",
                     "--delta", "1e-3", "--repeats", "2"])
    out, err = capsys.readouterr()
    assert code == 0, (
        f"reference-scale benchmark could not run: {err.strip()}")
    slopes = {}
    for line in out.splitlines():
        if line.startswith("# slope_"):
            key, val = line[2:].split("=")
            slopes[key] = float(val)
    assert slopes["slope_matvec"] < 1.3, slopes
    assert slopes["slope_brute"] > 1.7, slopes


def test_criterion_09_cost_model_exponents():
    n = 2 ** 32
    exps = [cost_model(n, 1.0, 1.0, k).exponent_bound
            for k in (1e-2, 1e-4, 1e-6)]
    assert exps[0] > exps[1] > exps[2], exps
    # asymptotic rate-constant identity: nu(r) * r * ln(1/kappa) -> 1
    kappa = 1e-6
    r = kappa / 2
    nu = critical_constant_neg(hpf(r, 96), 96).to_float()
    val = nu * r * math.log(1 / kappa)
    assert 0.75 <= val <= 1.25, val


def test_criterion_10_saddle_and_extremal_structure():
    bits = 192
    # saddle identity and stationarity
    for v, lam_f in ((3, 2), (10, 0.5), (2, 8), (40, 40)):
        lam = hpf(lam_f, bits)
        diag = saddle_point(v, lam)
        psi = coeff_log_scale(v, lam)
        rel = abs((diag.peak_log_weight - psi).to_float())
        assert rel <= 1e-10 * max(1.0, abs(psi.to_float()))
        h = hpf(Fraction(1, 1 << 16), bits)
        fd = (term_log_weight(diag.peak_index + h, v, lam)
              - term_log_weight(diag.peak_index - h, v, lam)) / h.shifted(1)
        assert abs(fd.to_float()) < 1e-6

    # extrema alternate at +-2^(1-d), roots vanish, nothing exceeds 2^(1-d)
    rng = random.Random(2718)
    for d in (1, 2, 5, 9, 16):
        scale = Fraction(1, 2 ** (d - 1))
        extrema, roots = cheb_extrema_and_roots(d, bits)
        for k, x in enumerate(extrema):
            val = cheb_eval(d, x).to_fraction()
            want = scale if k % 2 == 0 else -scale
            assert abs(val - want) <= Fraction(1, 2 ** 150)
        for x in roots:
            assert abs(cheb_eval(d, x).to_float()) < 1e-40
        for _ in range(50):
            x = hpf(rng.uniform(-1.0, 1.0), bits)
            assert abs(cheb_eval(d, x).to_fraction()) \
                <= scale * (1 + Fraction(1, 2 ** 100))

    # no monic polynomial beats that sup norm: on the alternation grid,
    # every random monic competitor already reaches 2^(1-d)
    for d in (4, 9, 15):
        scale = Fraction(1, 2 ** (d - 1))
        extrema, _ = cheb_extrema_and_roots(d, bits)
        for _ in range(12):
            coeffs = [rng.uniform(-1.0, 1.0) for _ in range(d)]
            best = Fraction(0)
            for x in extrema:
                acc = hpf(1, bits)
                for c in reversed(coeffs):
                    acc = acc * x + hpf(c, bits)
                val = abs(acc.to_fraction())
                if val > best:
                    best = val
            assert best >= scale * (1 - Fraction(1, 2 ** 100))

    # growth window outside the interval
    for d in (3, 8, 21):
        for xf in (1.0001, 1.5, 4.0, 20.0, -1.5, -20.0):
            x = hpf(xf, 256)
            q = cheb_eval(d, x)
            t = abs(xf) + math.sqrt(xf * xf - 1)
            ln_q = abs(q).log().to_float()
            assert d * math.log(t) - d * math.log(2) - 1e-9 <= ln_q
            assert ln_q <= d * math.log(t) - (d - 1) * math.log(2) + 1e-9
            if xf < -1:
                assert q.sign() == (1 if d % 2 == 0 else -1)


def test_scaling_evidence_reduced_size():
    # criterion 08 checks the scaling contrast through `expcheb bench` at
    # the reference shape (m = 8, B = 9); this checks it in-process on
    # kde_matvec alone, at m = 2 and B = 4, against the brute-force sum
    delta = Fraction("1e-3")
    spec = problem(Target.EXP_NEG, 4, Fraction(delta, 2))
    poly = export_polynomial(spec, find_degree(spec))
    fm = expand_kernel_poly(poly, 2)
    rng = np.random.default_rng(0)
    side = math.sqrt(0.98 * 4.0 / 2)
    ns = [1024, 2048, 4096, 8192]
    fast_times = []
    brute_times = []
    import time
    for n in ns:
        X = rng.uniform(-side / 2, side / 2, (n, 2))
        Y = rng.uniform(-side / 2, side / 2, (n, 2))
        w = rng.uniform(0.0, 1.0, n)
        inst = make_instance(X, Y, w, delta, B=4)
        best_fast = math.inf
        best_brute = math.inf
        for _ in range(3):
            res = kde_matvec(inst, fm)
            best_fast = min(best_fast, res.elapsed_build + res.elapsed_matvec)
            t0 = time.perf_counter()
            kde_bruteforce(inst)
            best_brute = min(best_brute, time.perf_counter() - t0)
        fast_times.append(max(best_fast, 1e-9))
        brute_times.append(max(best_brute, 1e-9))
    logs = np.log(np.asarray(ns, dtype=float))
    slope_fast = float(np.polyfit(logs, np.log(fast_times), 1)[0])
    slope_brute = float(np.polyfit(logs, np.log(brute_times), 1)[0])
    assert slope_fast < 1.3, (slope_fast, fast_times)
    assert slope_brute > 1.7, (slope_brute, brute_times)
