import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from expcheb import (
    DomainError,
    cheb_eval,
    cheb_extrema_and_roots,
    coeff_log_scale,
    critical_constant_neg,
    critical_constant_pos,
    decay_rate,
    decay_rate_derivative,
    hpf,
    saddle_point,
    saturation_constant,
    solve_rate_level,
    term_log_weight,
)
from oracles import GOLDEN

BITS = 192


def test_decay_rate_at_zero_and_one():
    assert decay_rate(hpf(0, BITS)).to_fraction() == 1
    g1 = decay_rate(hpf(1, BITS))
    assert g1.to_decimal(50).startswith(GOLDEN["G_1"][:45])


def test_decay_rate_strictly_decreasing():
    xs = [hpf(Fraction(k, 7), BITS) for k in range(0, 200, 3)]
    vals = [decay_rate(x) for x in xs]
    for a, b in zip(vals, vals[1:]):
        assert a > b


def test_decay_rate_derivative_is_negative_arcsinh():
    for xf in (0.25, 1.0, 3.5, 20.0):
        x = hpf(xf, BITS)
        d = decay_rate_derivative(x)
        assert abs(d.to_float() + math.asinh(xf)) < 1e-14
        # central finite difference agrees
        h = hpf(Fraction(1, 1 << 20), BITS)
        fd = (decay_rate(x + h) - decay_rate(x - h)) / h.shifted(1)
        assert abs(fd.to_float() - d.to_float()) < 1e-9


def test_coeff_log_scale_matches_scaled_decay_rate():
    # Psi(v, lam) = lam * G(v / lam), computed in the cancellation-free form
    lam = hpf(2, BITS)
    psi = coeff_log_scale(3, lam)
    assert psi.to_decimal(40).startswith(GOLDEN["psi_3_2"][:35])
    direct = lam * decay_rate(hpf(3, BITS) / lam)
    assert abs((psi - direct).to_float()) < 1e-40


def test_coeff_log_scale_requires_half():
    with pytest.raises(DomainError):
        coeff_log_scale(1, hpf(Fraction(1, 4), BITS))


def test_saddle_point_maximizes_term_weight():
    # the term-size surrogate peaks at sqrt(v^2 + lam^2) with value Psi
    for v, lamf in ((3, 2), (10, 0.5), (2, 8), (40, 40)):
        lam = hpf(lamf, BITS)
        diag = saddle_point(v, lam)
        n0 = diag.peak_index
        expected = (hpf(v, BITS) * v + lam * lam).sqrt()
        assert abs((n0 - expected).to_float()) < 1e-40
        psi = coeff_log_scale(v, lam)
        rel = abs((diag.peak_log_weight - psi).to_float())
        assert rel <= 1e-12 * max(1.0, abs(psi.to_float()))
        # neighbors of the peak do not beat it (stay inside the n >= v domain)
        for off in (-0.25, 0.25):
            n_probe = n0 + hpf(off, BITS)
            if n_probe < v:
                continue
            down = term_log_weight(n_probe, v, lam)
            assert down <= diag.peak_log_weight


def test_term_weight_derivative_vanishes_at_peak():
    for v, lamf in ((5, 1), (2, 6), (12, 12)):
        lam = hpf(lamf, BITS)
        n0 = saddle_point(v, lam).peak_index
        h = hpf(Fraction(1, 1 << 18), BITS)
        fd = (term_log_weight(n0 + h, v, lam)
              - term_log_weight(n0 - h, v, lam)) / h.shifted(1)
        assert abs(fd.to_float()) < 1e-8


# ---------------------------------------------------------------------------
# monic Chebyshev evaluation


def test_cheb_small_degrees_exact():
    # Q_2 = x^2 - 1/2, Q_3 = x^3 - 3x/4, Q_4 = x^4 - x^2 + 1/8
    for xf in (Fraction(0), Fraction(1, 2), Fraction(-3, 4), Fraction(1)):
        x = hpf(xf, BITS)
        assert cheb_eval(0, x).to_fraction() == 1
        assert cheb_eval(1, x).to_fraction() == xf
        assert cheb_eval(2, x).to_fraction() == xf * xf - Fraction(1, 2)
        assert cheb_eval(3, x).to_fraction() == xf ** 3 - Fraction(3, 4) * xf
        assert cheb_eval(4, x).to_fraction() == \
            xf ** 4 - xf ** 2 + Fraction(1, 8)


def test_cheb_matches_cosine_form_inside():
    # 2^{d-1} Q_d(cos t) = cos(d t)
    for d in (1, 2, 3, 7, 20, 51):
        for k in range(9):
            t = 0.1 + 0.35 * k
            x = hpf(math.cos(t), 256)
            got = cheb_eval(d, x).shifted(d - 1).to_float()
            assert abs(got - math.cos(d * t)) < 1e-12


def test_cheb_bounded_inside():
    for d in (1, 4, 9, 33):
        bound = Fraction(2) ** (1 - d)
        for k in range(-8, 9):
            x = hpf(Fraction(k, 8), 256)
            assert abs(cheb_eval(d, x).to_fraction()) <= bound


def test_cheb_extrema_and_roots():
    for d in (1, 2, 5, 12):
        extrema, roots = cheb_extrema_and_roots(d, 256)
        assert len(extrema) == d + 1 and len(roots) == d
        assert all(a > b for a, b in zip(extrema, extrema[1:]))
        level = Fraction(2) ** (1 - d)
        for i, x in enumerate(extrema):
            val = cheb_eval(d, x).to_fraction()
            want = level if i % 2 == 0 else -level
            assert abs(val - want) <= Fraction(1, 2 ** 200)
        for x in roots:
            assert abs(cheb_eval(d, x).to_float()) < 1e-60


def test_cheb_monic_minimality_at_extrema():
    # any monic degree-d polynomial reaches 2^{1-d} somewhere on the
    # extremal point set, by the classical alternation argument
    import random
    rng = random.Random(42)
    for d in (3, 6, 10):
        extrema, _ = cheb_extrema_and_roots(d, 256)
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-8, 8), 4) for _ in range(d)]
            best = Fraction(0)
            for x in extrema:
                xf = x.to_fraction()
                val = xf ** d
                for j, c in enumerate(coeffs):
                    val += c * xf ** j
                best = max(best, abs(val))
            assert best >= Fraction(2) ** (1 - d)


def test_cheb_growth_window_outside():
    # for |x| > 1: Q_d = 2^-d (t^d + t^-d), t = |x| + sqrt(x^2-1), so
    # 2^-d t^d <= |Q_d| <= 2^{1-d} t^d, with sign (-1)^d for x < -1
    for d in (2, 5, 16, 40):
        for xf in (1.25, 2.0, 7.5, -1.5, -3.0):
            x = hpf(xf, 256)
            q = cheb_eval(d, x)
            t = abs(xf) + math.sqrt(xf * xf - 1)
            log_q = math.log(abs(q.to_float())) if d < 30 else \
                (q if q > hpf(0) else -q).log().to_float()
            lo = -d * math.log(2) + d * math.log(t)
            assert lo - 1e-9 <= log_q <= lo + math.log(2) + 1e-9
            if xf < 0:
                assert q.sign() == (1 if d % 2 == 0 else -1)


def test_cheb_recurrence_consistency_across_branches():
    # the closed form outside [-1, 1] agrees with the recurrence
    for d in (3, 8, 21):
        for xf in (1.0 + 1e-6, 1.1, 5.0):
            x = hpf(xf, 320)
            by_closed = cheb_eval(d, x)
            b0, b1 = hpf(1, 320), x
            for j in range(2, d + 1):
                quarter = b0.shifted(-1) if j == 2 else b0.shifted(-2)
                b0, b1 = b1, x * b1 - quarter
            target = b1 if d >= 1 else b0
            rel = abs((by_closed - target).to_float()) \
                / max(1e-300, abs(target.to_float()))
            assert rel < 1e-70


# ---------------------------------------------------------------------------
# level-set constants


def test_saturation_constant_golden():
    zs = saturation_constant(BITS)
    assert zs.to_decimal(50).startswith(GOLDEN["z_star"][:45])
    resid = decay_rate(zs) + 1
    assert abs(resid.to_float()) < 1e-40


def test_critical_constants_golden():
    nu1 = critical_constant_neg(hpf(1, BITS), BITS)
    mu1 = critical_constant_pos(hpf(1, BITS), BITS)
    assert nu1.to_decimal(50).startswith(GOLDEN["nu_1"][:45])
    assert mu1.to_decimal(50).startswith(GOLDEN["mu_1"][:45])


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_critical_constants_residuals_and_brackets(r):
    rr = hpf(r, BITS)
    nu = critical_constant_neg(rr, BITS)
    mu = critical_constant_pos(rr, BITS)
    lvl_nu = hpf(1, BITS) - 1 / rr
    lvl_mu = hpf(-1, BITS) - 1 / rr
    assert abs((decay_rate(nu) - lvl_nu).to_float()) < 1e-13
    assert abs((decay_rate(mu) - lvl_mu).to_float()) < 1e-13
    # containment windows for the level-set roots
    assert math.sqrt(2 / r) <= nu.to_float() <= max(1 / r, math.e) + 1e-12
    zs = saturation_constant(BITS).to_float()
    assert zs - 1e-12 <= mu.to_float() <= max(2 + 2 / r, math.e) + 1e-12


def test_solve_rate_level_generic():
    # solve G = -3 from a start far right of the root, confirm the residual
    root = solve_rate_level(hpf(-3, BITS), hpf(50, BITS), BITS)
    assert abs((decay_rate(root) + 3).to_float()) < 1e-40
    # level 1 is decay_rate(0): the exact root 0
    assert solve_rate_level(hpf(1, 128), hpf(3, 128), 128).to_fraction() == 0


@settings(max_examples=40)
@given(st.floats(min_value=0.01, max_value=50),
       st.floats(min_value=0.01, max_value=50))
def test_decay_rate_monotone_property(a, b):
    if abs(a - b) < 1e-9:
        return
    lo, hi = sorted((a, b))
    assert decay_rate(hpf(lo, 128)) > decay_rate(hpf(hi, 128))
