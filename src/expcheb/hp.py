"""Arbitrary-precision real scalar with an explicit, carried precision.

The rest of the package does all of its numeric work through `HPReal`
instead of floats.  Each value knows the precision (in bits) it was
produced at; arithmetic between two values rounds the result to the
*minimum* of the two precisions, so accidental precision laundering is
impossible.  The representation is the raw mantissa/exponent tuple used
by mpmath's libmp backend, which keeps every operation a pure function
of its inputs (no global context to mutate, safe under concurrency).
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import libmp
from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_str,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_cos,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pow_int,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    to_str,
)

from .errors import DomainError

DEFAULT_BITS = 128
MIN_BITS = 64
# Hard ceiling on working precision; anything above this signals a runaway
# precision escalation loop rather than a legitimate request.
MAX_BITS = 1 << 20

_RND = "n"


def _coerce_raw(value):
    """Convert an int/float/str/Fraction to an exact-or-rounded raw mpf."""
    if isinstance(value, int):
        return from_int(value), True
    if isinstance(value, float):
        n, d = value.as_integer_ratio()
        return from_man_exp(n, -(d.bit_length() - 1)), True
    return None, False


class HPReal:
    """A real number tagged with the precision it carries."""

    __slots__ = ("raw", "bits")

    def __init__(self, value, bits: int = DEFAULT_BITS):
        if isinstance(value, HPReal):
            self.raw = value.raw
            self.bits = value.bits if bits is None else bits
            return
        bits = int(bits)
        if bits < MIN_BITS:
            raise DomainError(f"precision must be at least {MIN_BITS} bits, got {bits}")
        if bits > MAX_BITS:
            raise DomainError(f"precision {bits} exceeds the {MAX_BITS}-bit ceiling")
        raw, exact = _coerce_raw(value)
        if exact:
            self.raw = raw
        elif isinstance(value, str):
            self.raw = from_str(value.strip(), bits, _RND)
        elif isinstance(value, Fraction):
            num = from_int(value.numerator)
            den = from_int(value.denominator)
            self.raw = mpf_div(num, den, bits, _RND)
        elif isinstance(value, tuple) and len(value) == 4:
            self.raw = value
        else:
            raise TypeError(f"cannot build HPReal from {type(value).__name__}")
        self.bits = bits

    @classmethod
    def _wrap(cls, raw, bits: int) -> "HPReal":
        out = object.__new__(cls)
        out.raw = raw
        out.bits = bits
        return out

    @classmethod
    def pi(cls, bits: int = DEFAULT_BITS) -> "HPReal":
        return cls._wrap(mpf_pi(bits, _RND), bits)

    # -- arithmetic ---------------------------------------------------

    def _other(self, other):
        if isinstance(other, HPReal):
            return other
        raw, exact = _coerce_raw(other)
        if exact:
            return HPReal._wrap(raw, self.bits)
        if isinstance(other, Fraction):
            return HPReal(other, self.bits)
        return None

    def _binop(self, other, fn):
        o = self._other(other)
        if o is None:
            return NotImplemented
        bits = min(self.bits, o.bits)
        return HPReal._wrap(fn(self.raw, o.raw, bits, _RND), bits)

    def _rbinop(self, other, fn):
        o = self._other(other)
        if o is None:
            return NotImplemented
        bits = min(self.bits, o.bits)
        return HPReal._wrap(fn(o.raw, self.raw, bits, _RND), bits)

    def __add__(self, other):
        return self._binop(other, mpf_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, mpf_sub)

    def __rsub__(self, other):
        return self._rbinop(other, mpf_sub)

    def __mul__(self, other):
        return self._binop(other, mpf_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, mpf_div)

    def __rtruediv__(self, other):
        return self._rbinop(other, mpf_div)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return HPReal._wrap(mpf_pow_int(self.raw, n, self.bits, _RND), self.bits)

    def __neg__(self):
        return HPReal._wrap(mpf_neg(self.raw), self.bits)

    def __abs__(self):
        return HPReal._wrap(mpf_abs(self.raw), self.bits)

    def __pos__(self):
        return self

    # -- elementary functions ------------------------------------------

    def sqrt(self) -> "HPReal":
        if self.sign() < 0:
            raise DomainError("sqrt of a negative value")
        return HPReal._wrap(mpf_sqrt(self.raw, self.bits, _RND), self.bits)

    def log(self) -> "HPReal":
        if self.sign() <= 0:
            raise DomainError("log of a non-positive value")
        return HPReal._wrap(mpf_log(self.raw, self.bits, _RND), self.bits)

    def exp(self) -> "HPReal":
        return HPReal._wrap(mpf_exp(self.raw, self.bits, _RND), self.bits)

    def cos(self) -> "HPReal":
        return HPReal._wrap(mpf_cos(self.raw, self.bits, _RND), self.bits)

    def shifted(self, k: int) -> "HPReal":
        """Exact multiplication by 2**k."""
        return HPReal._wrap(mpf_shift(self.raw, k), self.bits)

    def with_bits(self, bits: int) -> "HPReal":
        """Re-tag (and re-round, if narrowing) to a different precision."""
        raw = mpf_add(self.raw, libmp.fzero, bits, _RND)
        return HPReal._wrap(raw, bits)

    # -- comparisons (exact, precision independent) --------------------

    def _cmp(self, other):
        o = self._other(other)
        if o is None:
            return None
        return mpf_cmp(self.raw, o.raw)

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        return hash(self.to_fraction())

    def sign(self) -> int:
        s, man, exp, bc = self.raw
        if man == 0 and exp == 0:
            return 0
        return -1 if s else 1

    def is_zero(self) -> bool:
        return self.sign() == 0

    # -- conversions ----------------------------------------------------

    def to_float(self) -> float:
        return libmp.to_float(self.raw)

    def to_fraction(self) -> Fraction:
        """Exact value as a rational (always dyadic)."""
        s, man, exp, bc = self.raw
        if man == 0:
            return Fraction(0)
        m = -man if s else man
        if exp >= 0:
            return Fraction(m << exp)
        return Fraction(m, 1 << -exp)

    def to_int_floor(self) -> int:
        return libmp.to_int(self.raw, libmp.round_floor)

    def to_int_ceil(self) -> int:
        return libmp.to_int(self.raw, libmp.round_ceiling)

    def to_decimal(self, dps: int | None = None) -> str:
        if dps is None:
            dps = int(self.bits * 0.30103) + 2
        return to_str(self.raw, dps)

    def __float__(self):
        return self.to_float()

    def __repr__(self):
        return f"HPReal({self.to_decimal()!r}, bits={self.bits})"

    def __str__(self):
        return self.to_decimal()


def hpf(value, bits: int = DEFAULT_BITS) -> HPReal:
    """Shorthand constructor."""
    return HPReal(value, bits)
