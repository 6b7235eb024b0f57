"""Certified coefficient layer: Bessel values, radii, tails, identities."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from expcheb.coeffs import (
    CoeffValue,
    Target,
    _bessel_family,
    coefficient,
    coefficient_range,
    modified_bessel,
    tail_bounds,
    tail_cutoff,
)
from expcheb.errors import DomainError
from expcheb.hp import HPReal, hpf

P = 192


def _rel(cv_value, reference_mpf, dps=60):
    """Relative distance between an HPReal and an mpmath reference."""
    with mpmath.workdps(dps):
        mine = mpmath.mpf(cv_value.to_decimal(55))
        return float(abs(mine - reference_mpf) / abs(reference_mpf))


def test_bessel_matches_independent_recurrence():
    # lam = 1000.5 is next to the widest problem the tests certify
    # (B = 2000); its tail table at cutoff 8093 is seeded by v = 8094
    cases = [(lam, v) for lam in (0.5, 1.0, 5.0, 20.0)
             for v in (0, 1, 2, 3, 7, 15, 30, 50)]
    for lam, v in cases + [(1000.5, 0), (1000.5, 8094)]:
        ref = oracles.bessel_i(v, lam, dps=60)
        got = modified_bessel(v, hpf(lam, P), p_target=P)
        assert _rel(got.value, ref) < 1e-30
        assert got.radius.to_fraction() \
            <= got.value.to_fraction() / 2 ** P


def test_bessel_family_encloses_oracle_at_benchmark_scale():
    # B = 201.3 is the wide exp(-x) case; V = 895 is its tail cutoff
    lam = hpf(Fraction("100.65"), 128)
    lows, highs = _bessel_family(895, lam, 128)
    assert len(lows) == len(highs) == 896
    for v in (0, 1, 300, 895):
        ref = _mpf_fraction(oracles.bessel_i(v, lam.to_decimal(80), dps=60))
        slack = ref / 10 ** 50  # oracle's own rounding headroom
        lo = HPReal._wrap(lows[v], 64).to_fraction()
        hi = HPReal._wrap(highs[v], 64).to_fraction()
        assert lo - slack <= ref <= hi + slack
        assert hi - lo <= hi / 2 ** 128


def test_bessel_frozen_goldens():
    cases = {
        (0, "1"): "I0_1",
        (1, "1"): "I1_1",
        (2, "1"): "I2_1",
        (3, "1"): "I3_1",
        (0, "0.5"): "I0_half",
        (5, "0.5"): "I5_half",
        (10, "20"): "I10_20",
        (2, "2"): "I2_2",
    }
    with mpmath.workdps(55):
        for (v, lam_text), key in cases.items():
            ref = mpmath.mpf(oracles.GOLDEN[key])
            got = modified_bessel(v, hpf(Fraction(lam_text), P), p_target=P)
            assert _rel(got.value, ref, dps=55) < 1e-36


def test_radius_invariant():
    for p in (64, 128, 192):
        for v, lam in ((0, "0.5"), (3, "1"), (12, "4"), (40, "25")):
            cv = modified_bessel(v, hpf(Fraction(lam), p), p_target=p)
            rad = cv.radius.to_fraction()
            val = abs(cv.value.to_fraction())
            floor = Fraction(1, 2 ** p)
            assert rad > 0
            assert rad <= floor * max(val, floor)


def test_values_positive_and_decreasing_in_order():
    lam = hpf(7, P)
    prev = None
    for v in range(0, 21):
        cur = modified_bessel(v, lam, p_target=P).value.to_fraction()
        assert cur > 0
        if prev is not None:
            assert cur < prev
        prev = cur


def test_coefficient_signs():
    lam = hpf(3, 128)
    for v in range(0, 8):
        neg = coefficient(v, lam, Target.EXP_NEG).value.to_fraction()
        pos = coefficient(v, lam, Target.EXP_POS).value.to_fraction()
        assert pos > 0
        if v % 2 == 0:
            assert neg > 0
        else:
            assert neg < 0


def test_coefficient_frozen_goldens():
    with mpmath.workdps(55):
        a2 = coefficient(2, hpf(1, P), Target.EXP_NEG, p_target=P)
        b2 = coefficient(2, hpf(1, P), Target.EXP_POS, p_target=P)
        assert _rel(a2.value, mpmath.mpf(oracles.GOLDEN["A2_1"]), 55) < 1e-36
        assert _rel(b2.value, mpmath.mpf(oracles.GOLDEN["B2_1"]), 55) < 1e-36


def test_sum_identities():
    # half the order-0 coefficient plus the absolute higher orders telescopes
    # to the endpoint value: 1 for the decaying target, e^(2 lam) for the
    # growing one.
    for lam_f in (0.5, 2.0, 8.0):
        lam = hpf(lam_f, P)
        V = int(8 * lam_f) + 200
        neg = coefficient_range(range(V + 1), lam, Target.EXP_NEG, p_target=P)
        pos = coefficient_range(range(V + 1), lam, Target.EXP_POS, p_target=P)
        s_neg = abs(neg[0].value).shifted(-1)
        s_pos = abs(pos[0].value).shifted(-1)
        for v in range(1, V + 1):
            s_neg = s_neg + abs(neg[v].value)
            s_pos = s_pos + abs(pos[v].value)
        assert abs((s_neg - 1).to_float()) < 1e-45
        target = (lam.shifted(1)).exp()
        assert abs(((s_pos - target) / target).to_float()) < 1e-45


def test_tail_cutoff_rule():
    assert tail_cutoff(20, 0.5, 128) == max(20, 4) + math.ceil(128 * math.log(2))
    assert tail_cutoff(3, 12.0, 192) == 96 + math.ceil(192 * math.log(2))


def test_tail_bounds_structure():
    for lam_f, start in ((0.5, 20), (3.0, 5), (12.0, 1)):
        lam = hpf(lam_f, 128)
        for target in (Target.EXP_NEG, Target.EXP_POS):
            tb = tail_bounds(start, lam, target, p_target=128)
            assert tb.start == start
            assert tb.target is target
            assert tb.cutoff == tail_cutoff(start, lam_f, 128)
            lo = tb.lower.to_fraction()
            up = tb.upper.to_fraction()
            assert 0 < lo <= up


def test_tail_upper_monotone_nonincreasing():
    lam = hpf(3, 128)
    prev = None
    for start in range(1, 31):
        up = tail_bounds(start, lam, Target.EXP_NEG, 128).upper.to_fraction()
        if prev is not None:
            assert up <= prev
        prev = up


def _mpf_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    fr = Fraction(man) * Fraction(2) ** exp
    return -fr if sign else fr


def test_tail_upper_brackets_true_tail():
    # direct high-precision summation of the absolute tail at
    # (start=20, lam=1/2); oracle rounding is far below the package's
    # own directed-rounding margins, so exact comparison is meaningful
    tb = tail_bounds(20, hpf(Fraction(1, 2), 128), Target.EXP_NEG, 128)
    truth = _mpf_fraction(oracles.abs_tail(20, 0.5, neg=True, dps=60))
    slack = truth / 10 ** 50  # oracle's own rounding headroom
    up = tb.upper.to_fraction()
    lo = tb.lower.to_fraction()
    assert up + slack >= truth
    assert lo <= truth + slack
    # the upper bound is tight, not merely valid
    assert up <= truth * (1 + Fraction(1, 10 ** 30))
    with mpmath.workdps(50):
        golden = mpmath.mpf(oracles.GOLDEN["tail_half_20"])
        got = mpmath.mpf(tb.upper.to_decimal(45))
        assert abs(float(got / golden - 1)) < 1e-33


def test_tail_lower_matches_l2_oracle():
    tb = tail_bounds(6, hpf(2, 128), Target.EXP_POS, 128)
    ref = _mpf_fraction(oracles.l2_tail(6, 2, neg=False, dps=60))
    slack = ref / 10 ** 50
    lo = tb.lower.to_fraction()
    assert lo <= ref + slack
    assert lo >= ref * (1 - Fraction(1, 10 ** 30))


def test_series_reconstruction_within_certified_bracket():
    # truncating the series at D leaves an error no larger than the
    # certified absolute tail plus the coefficient radii
    bits = 256
    rng = random.Random(7)
    for lam_f, D, target in ((0.5, 15, Target.EXP_NEG),
                             (2.0, 25, Target.EXP_NEG),
                             (2.0, 25, Target.EXP_POS)):
        lam = hpf(lam_f, bits)
        cvs = coefficient_range(range(D), lam, target, p_target=bits)
        tb = tail_bounds(D, lam, target, p_target=bits)
        budget = tb.upper.to_fraction()
        budget += sum(cv.radius.to_fraction() for cv in cvs)
        budget += Fraction(1, 2 ** 200)  # evaluation rounding slack
        for _ in range(12):
            theta = hpf(rng.uniform(0.0, math.pi), bits)
            x = theta.cos()
            arg = lam * (x + 1)
            f = (-arg).exp() if target is Target.EXP_NEG else arg.exp()
            acc = cvs[0].value.shifted(-1)
            for v in range(1, D):
                acc = acc + cvs[v].value * (theta * v).cos()
            diff = abs((f - acc).to_fraction())
            assert diff <= budget


def test_precision_levels_are_mutually_consistent():
    lam = hpf(Fraction(9, 2), 256)
    for v in (0, 4, 17):
        c1 = modified_bessel(v, lam, p_target=128)
        c2 = modified_bessel(v, lam, p_target=256)
        gap = abs(c1.value.to_fraction() - c2.value.to_fraction())
        assert gap <= c1.radius.to_fraction() + c2.radius.to_fraction()


def test_domain_errors():
    lam = hpf(1, 128)
    with pytest.raises(DomainError):
        modified_bessel(-1, lam)
    with pytest.raises(DomainError):
        modified_bessel(2.0, lam)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        modified_bessel(2, hpf(Fraction(1, 4), 128))
    with pytest.raises(DomainError):
        modified_bessel(2, lam, p_target=32)
    with pytest.raises(DomainError):
        coefficient_range([3, -1], lam, Target.EXP_NEG)
    with pytest.raises(DomainError):
        tail_bounds(0, lam, Target.EXP_NEG)
    with pytest.raises(DomainError):
        tail_bounds(3, lam, "exp-neg")  # type: ignore[arg-type]


@settings(max_examples=30, deadline=None)
@given(v=st.integers(min_value=0, max_value=40),
       lam_f=st.floats(min_value=0.5, max_value=30.0,
                       allow_nan=False, allow_infinity=False))
def test_radius_invariant_property(v, lam_f):
    cv = modified_bessel(v, hpf(lam_f, 128), p_target=128)
    rad = cv.radius.to_fraction()
    val = abs(cv.value.to_fraction())
    floor = Fraction(1, 2 ** 128)
    assert 0 < rad <= floor * max(val, floor)
    # every coefficient radius stays below 2^-p of its value, which
    # approx.radius_sum_budget relies on
    for p in (128, 384):
        for target in Target:
            for cv in coefficient_range(range(v + 1), hpf(lam_f, p), target, p):
                rad = cv.radius.to_fraction()
                assert 0 < rad <= abs(cv.value.to_fraction()) / 2 ** p
