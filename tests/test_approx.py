"""Degree certificates, regime predictions, and certified polynomial export."""

import functools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expcheb.coeffs as coeffs_mod
import oracles
from expcheb.approx import (
    ConstantName,
    LowerWitness,
    Regime,
    _shifted_cheb_rows,
    build_series,
    cert_precision,
    classify_regime,
    coefficient_bit_budget,
    degree_lower_bound,
    domain_to_unit,
    eval_cheb_series,
    eval_exported,
    export_polynomial,
    find_degree,
    log_inv_delta,
    predict_degree,
    problem,
)
from expcheb.coeffs import Target, tail_bounds
from expcheb.errors import CapacityError, DomainError
from expcheb.hp import hpf
from expcheb.remez import minimax_error
from expcheb.special import saturation_constant


def _spec(target, B, delta):
    return problem(target, B, delta)


def test_problem_validation():
    with pytest.raises(DomainError):
        problem("exp-neg", 4, "1e-3")  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        problem(Target.EXP_NEG, "0.5", "1e-3")
    with pytest.raises(DomainError):
        problem(Target.EXP_NEG, 4, "0")
    with pytest.raises(DomainError):
        problem(Target.EXP_NEG, 4, 1)
    with pytest.raises(DomainError):
        problem(Target.EXP_NEG, 4, "1.5")
    for text in ("abc", "inf", "1/0", "1e-1000000"):
        with pytest.raises(DomainError):
            problem(Target.EXP_NEG, 4, text)
    # a Fraction past Python's 4,300-digit int-to-text limit
    with pytest.raises(DomainError):
        problem(Target.EXP_NEG, Fraction(10 ** 5000 + 1, 10 ** 5000), "1e-3")
    spec = problem(Target.EXP_NEG, "4", "1e-6")
    assert spec.B_text == "4" and spec.delta_text == "1e-6"
    assert spec.lam.to_fraction() == 2
    assert spec.bits >= 128


def test_tiny_tolerance_survives_parsing():
    spec = problem(Target.EXP_NEG, 2, "1e-300", bits=1100)
    assert 0 < spec.delta_frac < Fraction(1, 10 ** 299)
    L = log_inv_delta(spec, 128).to_float()
    assert abs(L - 300 * math.log(10)) < 1e-9


@pytest.mark.parametrize("delta", ("1e-8", "1e-6", "5e-4", "5e-13", "1e-3",
                                   "2e-13", "0.9"))
def test_cert_precision_matches_the_double_reading(delta):
    # for a delta whose double is normal, the exact ceil(log2(1/delta))
    # is the one the double gives, so exports keep their precision
    spec = problem(Target.EXP_NEG, 9, delta)
    want = math.ceil(-math.log2(float(spec.delta_frac)))
    assert cert_precision(spec) == cert_precision(
        problem(Target.EXP_NEG, 9, "0.9")) - 1 + want


def test_tolerance_below_the_double_range_certifies():
    # 1e-400 underflows a double; the precision reads log2(1/delta) from
    # the rational, so find_degree certifies instead of raising
    spec = problem(Target.EXP_NEG, 1, "1e-400")
    assert float(spec.delta_frac) == 0.0
    assert cert_precision(spec) == cert_precision(
        problem(Target.EXP_NEG, 1, "0.9")) - 1 + 1329
    cert = find_degree(spec)
    assert cert.D_lower <= cert.D_upper == 166
    assert cert.tail_upper_at_D.to_fraction() < spec.delta_frac


def _ulp(q: Fraction, bits: int = 128) -> Fraction:
    e = q.numerator.bit_length() - q.denominator.bit_length()
    if Fraction(2) ** e > q:
        e -= 1
    return Fraction(2) ** (e + 1 - bits)


def _assert_rounded_outward(spec, B_text, delta_text):
    B, delta = Fraction(B_text), Fraction(delta_text)
    assert B <= spec.B_frac <= B + 2 * _ulp(B)
    assert delta - 2 * _ulp(delta) <= spec.delta_frac <= delta
    assert spec.lam.to_fraction() == spec.B_frac / 2


def test_problem_rounds_inputs_outward():
    # to nearest, "101.7" would round low and "1e-6" high
    _assert_rounded_outward(problem(Target.EXP_POS, "101.7", "1e-6"),
                            "101.7", "1e-6")
    spec = problem(Target.EXP_NEG, Fraction(1017, 10), Fraction(1, 3))
    _assert_rounded_outward(spec, "101.7", "1/3")
    exact = problem(Target.EXP_NEG, 4, 0.25)
    assert (exact.B_frac, exact.delta_frac) == (4, Fraction(1, 4))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.decimals(min_value=1, max_value=10 ** 6, allow_nan=False,
                   allow_infinity=False),
       st.decimals(min_value="1e-40", max_value="0.999", allow_nan=False,
                   allow_infinity=False))
def test_problem_rounding_property(B, delta):
    _assert_rounded_outward(problem(Target.EXP_NEG, str(B), str(delta)),
                            str(B), str(delta))


def test_classify_regime_grid():
    delta = "1e-6"
    L = 6 * math.log(10)
    for B, expect in ((1, Regime.SMALL_B), (5, Regime.CRITICAL),
                      (600, Regime.LARGE_B), (3000, Regime.HUGE_B)):
        spec = _spec(Target.EXP_NEG, B, delta)
        regime, rho = classify_regime(spec)
        assert regime is expect
        assert abs(rho.to_float() - B / (2 * L)) < 1e-12 * (1 + B)
    # the growing target saturates: never a separate huge-B regime
    regime, _ = classify_regime(_spec(Target.EXP_POS, 3000, delta))
    assert regime is Regime.LARGE_B


def test_prediction_small_B():
    spec = _spec(Target.EXP_NEG, 1, "1e-6")
    pred = predict_degree(spec)
    L = 6 * math.log(10)
    assert pred.regime is Regime.SMALL_B
    assert pred.constant_name is ConstantName.NONE
    assert abs(pred.predicted_degree.to_float() - L / math.log(L)) < 1e-9


def test_prediction_critical_matches_rate_constants():
    # at rho = 1 the decay-rate level equation pins the frozen constants
    L = 12 * math.log(10)
    spec_n = _spec(Target.EXP_NEG, 2 * L, "1e-12")
    pred_n = predict_degree(spec_n)
    assert pred_n.regime is Regime.CRITICAL
    assert pred_n.constant_name is ConstantName.NU
    nu1 = float(mpmath.mpf(oracles.GOLDEN["nu_1"]))
    assert abs(pred_n.leading_constant.to_float() - nu1) < 1e-9
    assert abs(pred_n.predicted_degree.to_float() - nu1 * L) < 1e-6

    spec_p = _spec(Target.EXP_POS, 2 * L, "1e-12")
    pred_p = predict_degree(spec_p)
    assert pred_p.constant_name is ConstantName.MU
    mu1 = float(mpmath.mpf(oracles.GOLDEN["mu_1"]))
    assert abs(pred_p.leading_constant.to_float() - mu1) < 1e-9


def test_prediction_large_B():
    spec_n = _spec(Target.EXP_NEG, 600, "1e-6")
    pred_n = predict_degree(spec_n)
    L = 6 * math.log(10)
    assert pred_n.regime is Regime.LARGE_B
    assert pred_n.constant_name is ConstantName.SQRT
    assert abs(pred_n.predicted_degree.to_float() - math.sqrt(600 * L)) < 1e-9

    spec_p = _spec(Target.EXP_POS, 600, "1e-6")
    pred_p = predict_degree(spec_p)
    zs = float(mpmath.mpf(oracles.GOLDEN["z_star"]))
    assert pred_p.constant_name is ConstantName.Z_STAR
    assert abs(pred_p.predicted_degree.to_float() - zs * 300) < 1e-9
    assert abs(pred_p.leading_constant.to_float()
               - saturation_constant(128).to_float()) < 1e-30


def test_prediction_huge_B():
    spec = _spec(Target.EXP_NEG, 3000, "1e-6")
    pred = predict_degree(spec)
    L = 6 * math.log(10)
    assert pred.regime is Regime.HUGE_B
    assert pred.constant_name is ConstantName.SQRT
    assert abs(pred.predicted_degree.to_float() - math.sqrt(3000 * L)) < 1e-9


@pytest.mark.parametrize("target, rho", [(Target.EXP_NEG, 0.25),
                                         (Target.EXP_NEG, 1.0),
                                         (Target.EXP_POS, 1.0)])
def test_leading_constants_emerge_as_delta_shrinks(target, rho):
    # at B = 2 rho ln(1/delta) the certified degree over the regime's
    # prediction tends to 1 (0.94 -> 0.999 at rho = 0.25), and the
    # bracket stays within 3 degrees at delta = 1e-1000
    gaps = []
    for e in (12, 100, 1000):
        spec = _spec(target, repr(2 * rho * e * math.log(10)), f"1e-{e}")
        cert = find_degree(spec)
        ratio = cert.D_upper / predict_degree(spec).predicted_degree.to_float()
        gaps.append(abs(ratio - 1))
    assert gaps[0] > gaps[1] > gaps[2]
    assert cert.D_upper - cert.D_lower <= 3


def test_trivial_problem_certificate():
    cert = find_degree(_spec(Target.EXP_NEG, 1, "0.9"))
    assert cert.D_upper == 1
    assert cert.D_lower == 1
    assert cert.lower_witness is LowerWitness.DEFINITION


def test_critical_certificate_regression():
    # rho = 1, delta = 1e-12: the certified degree sits within 20% of the
    # rate-constant estimate nu(1) * ln(1/delta)
    L = 12 * math.log(10)
    cert = find_degree(_spec(Target.EXP_NEG, 2 * L, "1e-12"))
    assert cert.D_upper == 40
    nu1 = float(mpmath.mpf(oracles.GOLDEN["nu_1"]))
    ratio = cert.D_upper / (nu1 * L)
    assert 0.8 <= ratio <= 1.2
    assert cert.D_lower <= cert.D_upper


@pytest.mark.parametrize("target,B,delta,degrees", (
    (Target.EXP_NEG, "201.3", "1e-8", (58, 53)),
    (Target.EXP_POS, "101.7", "1e-6", (120, 118)),
    # D_upper above 8*lam: the tail table must grow past its first cutoff
    (Target.EXP_NEG, "1", "1e-40", (24, 24)),
    (Target.EXP_NEG, "1", "1e-90", (48, 47)),
    (Target.EXP_POS, "2", "1e-100", (60, 59)),
    # thousands of tail brackets read from one table
    (Target.EXP_POS, "2000", "1e-3", (2235, 2232)),
))
def test_certify_wide_degrees_pinned(target, B, delta, degrees):
    # the benchmark's certify-wide domains and the scan's edge cases, pinned
    # so that a change in the Bessel or tail layer cannot move a certified
    # degree unnoticed
    cert = find_degree(_spec(target, B, delta))
    assert (cert.D_upper, cert.D_lower) == degrees


def test_find_degree_reads_the_tail_bounds_table():
    # D_upper + 1 <= 8*lam, so find_degree's table and the tail of the
    # degree-D_upper truncation, tail_bounds(D_upper + 1), share one
    # cutoff and must agree to the last bit
    spec = _spec(Target.EXP_NEG, "201.3", "1e-8")
    cert = find_degree(spec)
    assert cert.D_upper + 1 <= 8 * spec.lam.to_float()
    tb = tail_bounds(cert.D_upper + 1, spec.lam, spec.target, 128)
    assert cert.tail_upper_at_D.to_fraction() == tb.upper.to_fraction()


def test_degree_monotone_in_domain_width():
    prev = 0
    for B in (1, 2, 4, 8, 16, 32):
        cert = find_degree(_spec(Target.EXP_NEG, B, "1e-3"))
        assert cert.D_upper >= prev
        prev = cert.D_upper


def test_certificate_sandwich_against_minimax():
    cases = (
        (Target.EXP_NEG, 2, "1e-4"),
        (Target.EXP_NEG, 9, "1e-6"),
        (Target.EXP_POS, 3, "1e-5"),
        (Target.EXP_NEG, 8, "1e-3"),
        (Target.EXP_NEG, 9, "5e-4"),
    )
    for target, B, delta in cases:
        spec = _spec(target, B, delta)
        cert = find_degree(spec)
        assert 1 <= cert.D_lower <= cert.D_upper <= 40
        # the certified degree truly reaches the tolerance
        mm_up = minimax_error(spec, cert.D_upper)
        assert mm_up.to_fraction() < spec.delta_frac * Fraction(10 ** 7 + 1,
                                                                10 ** 7)
        # and no smaller degree does, so the certificate is exactly d
        mm_below = minimax_error(spec, cert.D_upper - 1)
        assert mm_below.to_fraction() > spec.delta_frac * Fraction(
            10 ** 7 - 1, 10 ** 7)
        # and the witnessed floor truly blocks smaller degrees
        mm_low = minimax_error(spec, cert.D_lower - 1)
        assert mm_low.to_fraction() > spec.delta_frac * Fraction(10 ** 7 - 1,
                                                                 10 ** 7)


def test_minimax_sits_inside_tail_bracket():
    for target, lam_f, d in ((Target.EXP_NEG, 1, 3),
                             (Target.EXP_NEG, 1, 6),
                             (Target.EXP_POS, 1.5, 5)):
        spec = _spec(target, 2 * lam_f, "1e-9")
        tb = tail_bounds(d + 1, spec.lam, target, 128)
        mm = minimax_error(spec, d).to_fraction()
        slack = Fraction(1, 10 ** 7)
        assert mm >= tb.lower.to_fraction() * (1 - slack)
        assert mm <= tb.upper.to_fraction() * (1 + slack)


def test_growth_witness_values():
    spec = _spec(Target.EXP_NEG, 60, "1e-6")
    D = degree_lower_bound(spec)
    # independent check: scaled Chebyshev growth cosh(d*acosh(x0))
    with mpmath.workdps(50):
        L = -mpmath.log(mpmath.mpf("1e-6"))
        x0 = 1 + 2 * L / (60 - L)
        thr = (1 - mpmath.mpf("1e-6")) / (2 * mpmath.mpf("1e-6"))
        assert mpmath.cosh(D * mpmath.acosh(x0)) >= thr
        assert mpmath.cosh((D - 1) * mpmath.acosh(x0)) < thr


def test_growth_witness_at_a_tolerance_past_the_double_range():
    # (1 - delta) / (2 delta) overflows a double at delta = 1e-1000; the
    # search starts from its logarithm instead
    spec = _spec(Target.EXP_NEG, "4605.170185988091", "1e-1000")
    assert degree_lower_bound(spec) <= find_degree(spec).D_upper == 3470


def test_growth_witness_preconditions():
    with pytest.raises(DomainError):
        degree_lower_bound(_spec(Target.EXP_POS, 60, "1e-6"))
    with pytest.raises(DomainError):
        degree_lower_bound(_spec(Target.EXP_NEG, 60, "0.3"))
    with pytest.raises(DomainError):
        degree_lower_bound(_spec(Target.EXP_NEG, 10, "1e-6"))


def test_find_degree_uses_growth_witness():
    # shallow tolerance on a wide domain: the L2 floor dies at D = 1 but
    # Chebyshev growth still forces a nontrivial degree
    spec = _spec(Target.EXP_NEG, 100, "0.2")
    cert = find_degree(spec)
    assert cert.lower_witness is LowerWitness.CHEB_GROWTH
    assert cert.D_lower == min(degree_lower_bound(spec), cert.D_upper)
    assert cert.D_lower > 1


def test_find_degree_l2_witness():
    spec = _spec(Target.EXP_NEG, 8, "1e-3")
    cert = find_degree(spec)
    assert cert.lower_witness is LowerWitness.TAIL_L2
    assert cert.lower_value.to_fraction() >= spec.delta_frac
    # the next tail down fails, so D_lower is maximal
    nxt = tail_bounds(cert.D_lower + 1, spec.lam, spec.target, 128)
    assert nxt.lower.to_fraction() < spec.delta_frac


def test_find_degree_capacity_refusal():
    spec = _spec(Target.EXP_NEG, "1000000000", "0.5")
    with pytest.raises(CapacityError) as exc:
        find_degree(spec)
    assert "coefficients" in str(exc.value)


def test_find_degree_deterministic():
    spec = _spec(Target.EXP_POS, 7, "1e-5")
    a = find_degree(spec)
    b = find_degree(spec)
    assert (a.D_upper, a.D_lower, a.lower_witness) == \
        (b.D_upper, b.D_lower, b.lower_witness)
    assert a.tail_upper_at_D.to_fraction() == b.tail_upper_at_D.to_fraction()


def test_domain_map_endpoints():
    spec = _spec(Target.EXP_NEG, 4, "1e-3")
    z0 = hpf(0, 128)
    zB = hpf(4, 128)
    zm = hpf(2, 128)
    assert domain_to_unit(spec, z0).to_fraction() == -1
    assert domain_to_unit(spec, zB).to_fraction() == 1
    assert domain_to_unit(spec, zm).to_fraction() == 0


def test_clenshaw_matches_cosine_form():
    bits = 256
    spec = _spec(Target.EXP_NEG, 4, "1e-10")
    series = build_series(spec, 20, bits)
    import random
    rng = random.Random(11)
    for _ in range(8):
        theta = hpf(rng.uniform(0.0, math.pi), bits)
        x = theta.cos()
        direct = series.coeffs[0].value.shifted(-1)
        for v in range(1, 20):
            direct = direct + series.coeffs[v].value * (theta * v).cos()
        clen = eval_cheb_series(series, x, bits)
        assert abs((clen - direct).to_float()) < 1e-60


EXPORT_CASES = (
    (Target.EXP_NEG, 1, "1e-2"),
    (Target.EXP_NEG, 4, "1e-6"),
    (Target.EXP_NEG, 40, "1e-2"),
    (Target.EXP_NEG, 120, "0.3"),     # order-of-magnitude regime, desk scale
    (Target.EXP_POS, 2, "1e-5"),
    (Target.EXP_POS, 12, "1e-3"),
    (Target.EXP_POS, 60, "0.5"),      # saturated growth, degree ~ z* B / 2
)


# wide domains whose monomial form cancels far below double precision;
# (1000, 5e-4) is kernel_map's problem for a delta = 1e-3 KDE
WIDE_CASES = (
    (Target.EXP_NEG, 500, "1e-8"),
    (Target.EXP_NEG, 1000, "5e-4"),
)


@functools.cache
def _export(target, B, delta):
    spec = _spec(target, B, delta)
    return spec, export_polynomial(spec, find_degree(spec))


def _exact_monomials(poly):
    """The unrounded monomial coefficients of the Chebyshev form, by the
    three-term recurrence on polynomials in z with x = 2z/B - 1."""
    B = poly.domain_B.to_fraction()
    a = [cv.value.to_fraction() for cv in poly.cheb_form.coeffs]
    out = [a[0] / 2] + [Fraction(0)] * poly.degree
    prev, cur = [Fraction(1)], [Fraction(-1), 2 / B]
    for aj in a[1:]:
        for i, t in enumerate(cur):
            out[i] += aj * t
        nxt = [Fraction(0)] * (len(cur) + 1)
        for i, t in enumerate(cur):
            nxt[i] -= 2 * t
            nxt[i + 1] += 4 * t / B
        for i, t in enumerate(prev):
            nxt[i] -= t
        prev, cur = cur, nxt
    return out


def _cheb_at(poly, z: Fraction) -> Fraction:
    """The Chebyshev form at z, exactly, by T_{j+1} = 2x T_j - T_{j-1}."""
    x = 2 * z / poly.domain_B.to_fraction() - 1
    a = [cv.value.to_fraction() for cv in poly.cheb_form.coeffs]
    total, prev, cur = a[0] / 2, Fraction(1), x
    for aj in a[1:]:
        total += aj * cur
        prev, cur = cur, 2 * x * cur - prev
    return total


def _mono_at(poly, z: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly.monomial_form):
        acc = acc * z + c
    return acc


def _grid(poly, parts: int = 16) -> list[Fraction]:
    B = poly.domain_B.to_fraction()
    return [B * k / parts for k in range(parts + 1)]


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


@pytest.mark.parametrize("target,B,delta", EXPORT_CASES)
def test_reported_bounds_round_up(target, B, delta):
    # both reported bounds lie at or above the exact sums the export
    # lemma certifies, recomputed here from the Chebyshev form
    spec, poly = _export(target, B, delta)
    Bf = spec.B_frac
    round_err = sum((abs(c - r) * Bf ** j for j, (c, r) in enumerate(
        zip(_exact_monomials(poly), poly.monomial_form))), Fraction(0))
    assert poly.rounding_bound.to_fraction() >= round_err
    trunc = tail_bounds(poly.degree + 1, spec.lam, target, 128).upper
    radii = sum((cv.radius.to_fraction() for cv in poly.cheb_form.coeffs),
                Fraction(0))
    assert poly.certified_sup_bound.to_fraction() \
        >= trunc.to_fraction() + radii + round_err


@pytest.mark.parametrize("target,B,delta", EXPORT_CASES + WIDE_CASES)
def test_forms_differ_by_at_most_rounding_bound(target, B, delta):
    spec, poly = _export(target, B, delta)
    bound = poly.rounding_bound.to_fraction()
    for z in _grid(poly):
        assert abs(_mono_at(poly, z) - _cheb_at(poly, z)) <= bound
    if target is Target.EXP_NEG:
        # the budget keeps rounding 2^-48 below the smallest value of f
        with mpmath.workprec(256):
            assert _mp(bound) <= mpmath.ldexp(mpmath.exp(-_mp(spec.B_frac)),
                                              -48)


@pytest.mark.parametrize("target,B,delta", WIDE_CASES)
def test_wide_domain_export_holds_against_oracle(target, B, delta):
    # the monomial form, evaluated exactly, stays within the certified
    # bound of exp(-z); at z = 0 the gap is about 1e-47 relative, so the
    # comparison runs at 1024 bits and never through decimal text
    spec, poly = _export(target, B, delta)
    bound = poly.certified_sup_bound.to_fraction()
    assert bound < spec.delta_frac
    with mpmath.workprec(1024):
        for z in _grid(poly):
            err = abs(_mp(_mono_at(poly, z)) - mpmath.exp(-_mp(z)))
            assert err <= _mp(bound)


@pytest.mark.parametrize("target,B,delta", EXPORT_CASES)
def test_export_soundness(target, B, delta):
    spec = _spec(target, B, delta)
    cert = find_degree(spec)
    poly = export_polynomial(spec, cert)
    assert poly.degree == cert.D_upper
    assert len(poly.monomial_form) == poly.degree + 1
    assert len(poly.cheb_form.coeffs) == poly.degree + 1
    certified = poly.certified_sup_bound.to_fraction()
    assert certified < spec.delta_frac
    assert poly.rounding_bound.to_fraction() <= spec.delta_frac / 4
    cap = coefficient_bit_budget(poly.degree)
    for c in poly.monomial_form:
        assert abs(c.numerator).bit_length() <= cap
        assert c.denominator.bit_length() <= cap
    assert any(c != 0 for c in poly.monomial_form[1:])
    # observed error never exceeds the certificate (tiny slack covers the
    # evaluation rounding of the measurement itself)
    measured = oracles.measure_sup_error(poly, spec,
                                         grid_factor=8).to_fraction()
    assert measured <= certified * (1 + Fraction(1, 10 ** 25)) \
        + Fraction(1, 10 ** 25)
    # both forms hit f(0) = 1 within the certificate
    one_err = abs(eval_exported(poly, hpf(0, 192)).to_fraction() - 1)
    assert one_err <= certified + Fraction(1, 10 ** 25)
    mono_at_0 = poly.monomial_form[0]
    assert abs(mono_at_0 - 1) <= certified + Fraction(1, 10 ** 25)


def test_exported_monomial_form_tracks_target():
    spec = _spec(Target.EXP_NEG, 4, "1e-8")
    poly = export_polynomial(spec, find_degree(spec))
    wb = 256
    for k in range(9):
        z = spec.B.with_bits(wb) * hpf(Fraction(k, 8), wb)
        mv = oracles.eval_monomial(poly.monomial_form, z, wb)
        fv = (-z).exp()
        assert abs((mv - fv).to_fraction()) \
            <= poly.certified_sup_bound.to_fraction() + Fraction(1, 10 ** 25)


def test_shifted_cheb_rows_match_fraction_recurrence():
    # the integer rows export converts with, evaluated exactly, against
    # T_j(x) at x = 2u - 1 from the Fraction three-term recurrence
    rows = list(_shifted_cheb_rows(12))
    assert [len(r) for r in rows] == list(range(1, 14))
    for u in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3),
              Fraction(-2, 7), Fraction(5, 4)):
        x = 2 * u - 1
        prev, cur = Fraction(1), x
        ref = [prev, cur]
        for _ in range(11):
            prev, cur = cur, 2 * x * cur - prev
            ref.append(cur)
        got = [sum(c * u ** i for i, c in enumerate(r)) for r in rows]
        assert got == ref


def test_export_rejects_foreign_certificate():
    spec_a = _spec(Target.EXP_NEG, 4, "1e-4")
    spec_b = _spec(Target.EXP_NEG, 5, "1e-4")
    cert_a = find_degree(spec_a)
    with pytest.raises(DomainError):
        export_polynomial(spec_b, cert_a)


def test_export_builds_one_bessel_family(monkeypatch):
    # the truncation tail comes from the certificate, so export builds
    # only the family of its own coefficients
    spec = _spec(Target.EXP_NEG, "201.3", "1e-8")
    cert = find_degree(spec)
    calls = []
    family = coeffs_mod._bessel_family

    def spy(V, lam, bits):
        calls.append(V)
        return family(V, lam, bits)

    monkeypatch.setattr(coeffs_mod, "_bessel_family", spy)
    poly = export_polynomial(spec, cert)
    assert calls == [cert.D_upper]
    assert poly.certified_sup_bound.to_fraction() < spec.delta_frac


@settings(max_examples=25, deadline=None)
@given(B=st.floats(min_value=1.0, max_value=1e6,
                   allow_nan=False, allow_infinity=False),
       log10_delta=st.floats(min_value=-30.0, max_value=-0.5))
def test_regime_rho_property(B, log10_delta):
    delta = 10.0 ** log10_delta
    spec = _spec(Target.EXP_NEG, B, delta)
    regime, rho = classify_regime(spec)
    expected = B / (2 * (-math.log(delta)))
    assert abs(rho.to_float() - expected) <= 1e-9 * max(1.0, expected)
    if expected < 0.05 - 1e-12:
        assert regime is Regime.SMALL_B
    elif 0.05 + 1e-12 < expected < 20 - 1e-9:
        assert regime is Regime.CRITICAL
