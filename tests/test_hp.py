import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from expcheb import DomainError, HPReal, hpf


def test_construction_roundtrip():
    assert hpf(3).to_fraction() == 3
    assert hpf(-7.25).to_fraction() == Fraction(-29, 4)
    assert hpf("0.5").to_fraction() == Fraction(1, 2)
    assert hpf(Fraction(1, 8)).to_fraction() == Fraction(1, 8)


def test_tiny_decimal_survives_parsing():
    x = hpf("1e-300", 128)
    assert x.to_fraction() > 0
    assert math.isclose(x.log().to_float(), -300 * math.log(10), rel_tol=1e-12)


def test_arithmetic_matches_fractions_when_exact():
    a = hpf(Fraction(3, 4), 96)
    b = hpf(Fraction(5, 8), 96)
    assert (a + b).to_fraction() == Fraction(11, 8)
    assert (a - b).to_fraction() == Fraction(1, 8)
    assert (a * b).to_fraction() == Fraction(15, 32)
    # 6/5 is not dyadic, so division rounds at the working precision
    q = (a / b).to_fraction()
    assert abs(q - Fraction(6, 5)) <= Fraction(2, 2 ** 96)


def test_reflected_operations():
    a = hpf(2, 80)
    assert (3 + a).to_fraction() == 5
    assert (3 - a).to_fraction() == 1
    assert (3 * a).to_fraction() == 6
    assert (3 / a).to_fraction() == Fraction(3, 2)


def test_shifted_is_exact_scaling():
    x = hpf(Fraction(5, 8), 64)
    assert x.shifted(10).to_fraction() == Fraction(5, 8) * 1024
    assert x.shifted(-3).to_fraction() == Fraction(5, 64)
    assert x.shifted(200).shifted(-200).to_fraction() == Fraction(5, 8)


def test_mixed_precision_uses_lower_bits():
    a = hpf(1, 256) / 3
    b = hpf(1, 64) / 3
    assert (a + b).bits == 64
    assert a.with_bits(64).to_fraction() != a.to_fraction()


def test_comparisons_are_exact_values():
    a = hpf(Fraction(1, 3), 64)
    b = hpf(Fraction(1, 3), 256)
    # both are roundings of 1/3 at different precisions: not equal
    assert a != b
    assert a == a.with_bits(64)
    assert hpf(2, 64) < hpf(3, 4096)
    assert hpf(-1) < hpf(0) < hpf(1)


def test_domain_errors():
    with pytest.raises(DomainError):
        hpf(-1).sqrt()
    with pytest.raises(DomainError):
        hpf(0).log()
    with pytest.raises(DomainError):
        hpf(-2).log()


def test_elementary_values():
    assert hpf(4).sqrt().to_fraction() == 2
    assert abs(hpf(1).exp().to_float() - math.e) < 1e-15
    ln2 = hpf(2, 128).log()
    assert abs(ln2.to_float() - math.log(2)) < 1e-16
    assert abs(hpf(0).cos().to_fraction() - 1) == 0


def test_floor_ceil_sign():
    x = hpf(Fraction(7, 2))
    assert x.sign() == 1 and (-x).sign() == -1 and hpf(0).sign() == 0
    assert hpf(0).is_zero()


def test_hash_consistent_with_equality():
    a = hpf(Fraction(3, 16), 64)
    b = hpf(Fraction(3, 16), 512)
    assert a == b
    assert hash(a) == hash(b)


def test_decimal_rendering_roundtrip():
    x = hpf(Fraction(1, 3), 128)
    text = x.to_decimal()
    y = hpf(text, 192)
    # the decimal string carries enough digits to reproduce x exactly
    assert y.with_bits(128) == x


@given(st.floats(allow_nan=False, allow_infinity=False,
                 min_value=-1e300, max_value=1e300))
def test_float_roundtrip_exact(f):
    assert hpf(f, 64).to_fraction() == Fraction(f)


@given(st.fractions(min_value=-100, max_value=100, max_denominator=1 << 30),
       st.fractions(min_value=-100, max_value=100, max_denominator=1 << 30))
def test_addition_exact_for_dyadic_inputs(p, q):
    # dyadic rationals with small numerators add exactly at 128 bits
    p = Fraction(p.numerator, 1 << min(40, p.denominator.bit_length()))
    q = Fraction(q.numerator, 1 << min(40, q.denominator.bit_length()))
    assert (hpf(p, 128) + hpf(q, 128)).to_fraction() == p + q
