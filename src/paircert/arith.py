"""Exact integer/rational arithmetic and certified interval evaluation.

Naturals are plain Python ints (arbitrary precision) with factorizations
cached process-wide; rationals are ``fractions.Fraction`` (always stored in
lowest terms with positive denominator).  Every measure-level quantity in
this package stays exact; intervals enter only for transcendental bound
factors (e^x, Log t, fractional powers).

The interval engine represents endpoints as dyadic numbers man * 2**exp
with directed (outward) rounding, so an :class:`Interval` is a guaranteed
enclosure of the real number it describes.  Transcendental kernels are
two-pass fixed-point series: one pass rounds every term down, one pass
rounds every term up and pads the tail, which yields certified one-sided
bounds without trusting any floating-point hardware.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Optional, Union

from .errors import (
    DomainError,
    InvalidParameter,
    ResourceLimit,
    UndefinedValuation,
)

Rational = Union[int, Fraction]

# ---------------------------------------------------------------------------
# Prime sieve and factorization
# ---------------------------------------------------------------------------

_DEFAULT_SIEVE_CAP = 10**7


def sieve_cap() -> int:
    """Upper limit for sieving/factorization (env PAIRCERT_SIEVE_CAP overrides)."""
    raw = os.environ.get("PAIRCERT_SIEVE_CAP")
    if raw is None:
        return _DEFAULT_SIEVE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidParameter(f"PAIRCERT_SIEVE_CAP not an integer: {raw!r}") from exc
    if cap < 10:
        raise InvalidParameter("sieve cap must be at least 10")
    return cap


_sieve_limit = 0
_is_prime = bytearray()
_primes: list[int] = []


def _ensure_sieve(limit: int) -> None:
    global _sieve_limit, _is_prime, _primes
    if limit <= _sieve_limit:
        return
    cap = sieve_cap()
    if limit > cap:
        raise ResourceLimit(f"sieve request {limit} exceeds cap {cap}")
    limit = min(cap, max(limit, 2 * _sieve_limit, 1 << 14))
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : limit + 1 : p] = b"\x00" * ((limit - start) // p + 1)
    _is_prime = sieve
    _sieve_limit = limit
    _primes = [i for i, flag in enumerate(sieve) if flag]


def _floor_rational(x: Rational) -> int:
    if isinstance(x, int):
        return x
    return x.numerator // x.denominator


def primes_upto(t: Rational) -> list[int]:
    """Ascending list of primes p <= t.  Requires t >= 1."""
    if t < 1:
        raise InvalidParameter(f"primes_upto requires t >= 1, got {t}")
    bound = _floor_rational(Fraction(t))
    if bound < 2:
        return []
    _ensure_sieve(bound)
    from bisect import bisect_right

    return _primes[: bisect_right(_primes, bound)]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n <= _sieve_limit:
        return bool(_is_prime[n])
    if n <= sieve_cap():
        _ensure_sieve(n)
        return bool(_is_prime[n])
    # beyond the sieve cap: trial division by cached primes
    _ensure_sieve(min(sieve_cap(), isqrt(n) + 1))
    for p in _primes:
        if p * p > n:
            return True
        if n % p == 0:
            return False
    raise ResourceLimit(f"primality of {n} needs primes beyond the sieve cap")


@lru_cache(maxsize=1 << 20)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical factorization of n >= 1 as ((p1,e1),...), primes ascending.

    Trial division by the sieved primes up to isqrt(n), so the sieve cap
    bounds sqrt(n), not n; ResourceLimit, before any sieving, when
    isqrt(n) is beyond the cap.
    """
    if n < 1:
        raise InvalidParameter(f"factorize requires n >= 1, got {n}")
    if n == 1:
        return ()
    root = isqrt(n)
    if root > sieve_cap():
        raise ResourceLimit(f"factorizing {n} needs primes up to {root}, beyond cap {sieve_cap()}")
    _ensure_sieve(root)
    out = []
    m = n
    for p in _primes:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def valuation(p: int, x: Rational) -> int:
    """p-adic valuation nu_p(x) of a nonzero rational."""
    if p < 2 or not is_prime(p):
        raise InvalidParameter(f"valuation base {p} is not prime")
    if x == 0:
        raise UndefinedValuation("valuation of zero is undefined")
    if isinstance(x, int):
        return _int_valuation(p, abs(x))
    return _int_valuation(p, abs(x.numerator)) - _int_valuation(p, x.denominator)


def _int_valuation(p: int, n: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Dyadic endpoints
# ---------------------------------------------------------------------------

_FLOOR = 0  # round toward -infinity
_CEIL = 1  # round toward +infinity

_GUARD = 32
_MAG_CAP = 1 << 14  # max magnitude (bits) of an exp() argument
_MATERIALIZE_CAP = 1 << 22  # max |exp| when converting a Dyadic to Fraction


class Dyadic:
    """A dyadic real man * 2**exp, canonical (man odd or zero)."""

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int):
        if man == 0:
            exp = 0
        else:
            shift = (man & -man).bit_length() - 1  # trailing zero bits
            if shift:
                man >>= shift
                exp += shift
        object.__setattr__(self, "man", man)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, *args):
        raise AttributeError("Dyadic is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Dyadic)
            and self.man == other.man
            and self.exp == other.exp
        )

    def __hash__(self):
        return hash((self.man, self.exp))

    @property
    def sign(self) -> int:
        return (self.man > 0) - (self.man < 0)

    @property
    def mag_bits(self) -> int:
        """Position p with 2**(p-1) <= |value| < 2**p (0 for zero)."""
        if self.man == 0:
            return 0
        return self.exp + abs(self.man).bit_length()

    def as_fraction(self) -> Fraction:
        if abs(self.exp) > _MATERIALIZE_CAP:
            raise ResourceLimit("dyadic exponent too large to materialize")
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << -self.exp)

    def log2_estimate(self) -> float:
        """Float estimate of log2|value| (for display only)."""
        if self.man == 0:
            return float("-inf")
        m = abs(self.man)
        bl = m.bit_length()
        import math as _m

        top = m >> max(0, bl - 53)
        return self.exp + max(0, bl - 53) + _m.log2(top)

    def __repr__(self):
        return f"Dyadic({self.man}, {self.exp})"


_DY_ZERO = Dyadic(0, 0)
_DY_ONE = Dyadic(1, 0)


def _dy_round(man: int, exp: int, prec: int, rnd: int) -> Dyadic:
    if man == 0:
        return _DY_ZERO
    extra = abs(man).bit_length() - prec
    if extra <= 0:
        return Dyadic(man, exp)
    if rnd == _FLOOR:
        man = man >> extra
    else:
        man = -((-man) >> extra)
    return Dyadic(man, exp + extra)


def _dy_neg(a: Dyadic) -> Dyadic:
    return Dyadic(-a.man, a.exp)


def _dy_nudge(a: Dyadic, prec: int, rnd: int) -> Dyadic:
    """Move one unit in the last place outward (direction of rnd)."""
    if a.man == 0:
        return Dyadic(1 if rnd == _CEIL else -1, a.exp - prec)
    bl = abs(a.man).bit_length()
    step = 1 if rnd == _CEIL else -1
    return _dy_round(a.man + step * (1 if bl <= prec else 1 << (bl - prec)), a.exp, prec, rnd)


def _dy_add(a: Dyadic, b: Dyadic, prec: int, rnd: int) -> Dyadic:
    if a.man == 0:
        return _dy_round(b.man, b.exp, prec, rnd)
    if b.man == 0:
        return _dy_round(a.man, a.exp, prec, rnd)
    pa, pb = a.mag_bits, b.mag_bits
    if pa < pb:
        a, b, pa, pb = b, a, pb, pa
    if pa - pb <= prec + 8:
        shift = a.exp - b.exp
        if shift >= 0:
            return _dy_round((a.man << shift) + b.man, b.exp, prec, rnd)
        return _dy_round(a.man + (b.man << -shift), a.exp, prec, rnd)
    # |b| is below one ulp of the rounded result: drop it, padding only when
    # truncation is anti-conservative for the requested direction.
    base = _dy_round(a.man, a.exp, prec, rnd)
    if (b.man > 0 and rnd == _CEIL) or (b.man < 0 and rnd == _FLOOR):
        return _dy_nudge(base, prec, rnd)
    return base


def _dy_sub(a: Dyadic, b: Dyadic, prec: int, rnd: int) -> Dyadic:
    return _dy_add(a, _dy_neg(b), prec, rnd)


def _dy_div(a: Dyadic, b: Dyadic, prec: int, rnd: int) -> Dyadic:
    if b.man == 0:
        raise DomainError("division by zero dyadic")
    if a.man == 0:
        return _DY_ZERO
    neg = (a.man < 0) != (b.man < 0)
    am, bm = abs(a.man), abs(b.man)
    k = prec + 4 + max(0, bm.bit_length() - am.bit_length())
    q, r = divmod(am << k, bm)
    if neg:
        man = -(q + 1) if (r and rnd == _FLOOR) else -q
    else:
        man = q + 1 if (r and rnd == _CEIL) else q
    return _dy_round(man, a.exp - b.exp - k, prec, rnd)


def _dy_cmp(a: Dyadic, b: Dyadic) -> int:
    sa, sb = a.sign, b.sign
    if sa != sb:
        return -1 if sa < sb else 1
    if sa == 0:
        return 0
    pa, pb = a.mag_bits, b.mag_bits
    if pa != pb:
        bigger_abs = 1 if pa > pb else -1
        return bigger_abs * sa
    shift = a.exp - b.exp  # |shift| <= max mantissa bits here
    if shift >= 0:
        x, y = a.man << shift, b.man
    else:
        x, y = a.man, b.man << -shift
    return (x > y) - (x < y)


def _dy_cmp_fraction(a: Dyadic, x: Rational) -> int:
    x = Fraction(x)
    sa = a.sign
    sx = (x > 0) - (x < 0)
    if sa != sx:
        return -1 if sa < sx else 1
    if sa == 0:
        return 0
    p, q = abs(x.numerator), x.denominator
    # crude magnitude window: 2**(px-1) <= |x| < 2**(px+1)
    px = p.bit_length() - q.bit_length()
    pa = a.mag_bits
    if pa - 1 > px + 1:
        return sa
    if pa <= px - 2:  # |a| < 2**pa <= 2**(px-1) <= |x|
        return -sa
    # close call: compare man * q * 2**exp against p exactly
    m = abs(a.man) * q
    e = a.exp
    if e >= 0:
        lhs, rhs = m << e, p
    else:
        lhs, rhs = m, p << -e
    return ((lhs > rhs) - (lhs < rhs)) * sa


def _dy_from_fraction(x: Rational, prec: int, rnd: int) -> Dyadic:
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    if p == 0:
        return _DY_ZERO
    if q == 1 and abs(p).bit_length() <= prec:
        return Dyadic(p, 0)
    neg = p < 0
    p = abs(p)
    e = p.bit_length() - q.bit_length() - prec - 2
    if e >= 0:
        num, den = p, q << e
    else:
        num, den = p << -e, q
    m, r = divmod(num, den)
    if neg:
        man = -(m + 1) if (r and rnd == _FLOOR) else -m
    else:
        man = m + 1 if (r and rnd == _CEIL) else m
    return _dy_round(man, e, prec, rnd)


# ---------------------------------------------------------------------------
# Certified series kernels (fixed point, scale 2**w)
# ---------------------------------------------------------------------------


def _exp_series_scaled(c: int, d: int, w: int) -> tuple[int, int]:
    """Bounds (lo, hi) with lo/2^w <= e^(c/d) <= hi/2^w, for 0 <= c/d <= 1."""
    scale = 1 << w
    if c == 0:
        return scale, scale
    lo = t = scale
    n = 1
    while t:
        t = (t * c) // (d * n)
        lo += t
        n += 1
    hi = u = scale
    n = 1
    while u > 2:
        u = -((-u * c) // (d * n))
        hi += u
        n += 1
    return lo, hi + 2 * u + 8


def _atanh_series_scaled(c: int, d: int, w: int) -> tuple[int, int]:
    """Bounds for atanh(c/d) scaled by 2^w, for 0 <= c/d <= 1/2."""
    scale = 1 << w
    if c == 0:
        return 0, 0
    c2, d2 = c * c, d * d
    v = (scale * c) // d
    lo = v
    k = 1
    while v:
        v = (v * c2) // d2
        lo += v // (2 * k + 1)
        k += 1
    v = -((-scale * c) // d)
    hi = v
    k = 1
    term = v
    while term > 2:
        v = -((-v * c2) // d2)
        term = -((-v) // (2 * k + 1))
        hi += term
        k += 1
    return lo, hi + 2 * term + 8


@lru_cache(maxsize=64)
def _ln2_scaled(w: int) -> tuple[int, int]:
    """(lo, hi) ints with lo/2^w <= ln 2 <= hi/2^w."""
    lo, hi = _atanh_series_scaled(1, 3, w)
    return 2 * lo, 2 * hi


def _frac_round(x: Fraction, bits: int, rnd: int) -> Fraction:
    """Directed rounding of a rational onto a ~bits-bit dyadic grid."""
    return _dy_from_fraction(x, bits, rnd).as_fraction()


def _exp_dy(a: Dyadic, prec: int, rnd: int) -> Dyadic:
    """Certified one-sided bound of e^(value of a)."""
    w = prec + _GUARD
    if a.man == 0:
        return _DY_ONE
    pos = a.mag_bits
    if pos <= -w:
        # |a| <= 2^-w: e^a within [1 - 2^(1-w), 1 + 2^(1-w)]
        if rnd == _FLOOR:
            return Dyadic((1 << w) - 2, -w) if a.man < 0 else _DY_ONE
        return Dyadic((1 << w) + 2, -w) if a.man > 0 else _DY_ONE
    if pos > _MAG_CAP:
        raise ResourceLimit(f"exp argument magnitude 2^{pos} exceeds cap")
    if a.man < 0:
        # e^a = 1 / e^|a|; flip the rounding direction through the division
        inner = _exp_dy(_dy_neg(a), prec + 4, _CEIL if rnd == _FLOOR else _FLOOR)
        return _dy_div(_DY_ONE, inner, prec, rnd)
    big = a.as_fraction()
    wk = w + max(pos, 0) + 8
    l2lo, l2hi = _ln2_scaled(wk)
    ln2_hi = Fraction(l2hi, 1 << wk)
    ln2_lo = Fraction(l2lo, 1 << wk)
    k = int(big / ln2_hi)  # floor for positive values
    if rnd == _FLOOR:
        r = _frac_round(big - k * ln2_hi, w + 8, _FLOOR)
        if r < 0:
            r = Fraction(0)
        s, _ = _exp_series_scaled(r.numerator, r.denominator, w)
    else:
        r = _frac_round(big - k * ln2_lo, w + 8, _CEIL)
        if r > 1:
            # only possible through rounding fuzz; fall back to split step
            s1hi = _exp_series_scaled(r.numerator, 2 * r.denominator, w)[1]
            s = -((-s1hi * s1hi) >> w)
            return _dy_round(s, k - w, prec, rnd)
        _, s = _exp_series_scaled(r.numerator, r.denominator, w)
    return _dy_round(s, k - w, prec, rnd)


def _ln_dy(a: Dyadic, prec: int, rnd: int) -> Dyadic:
    """Certified one-sided bound of ln(value of a), a > 0."""
    if a.sign <= 0:
        raise DomainError("log of a nonpositive value")
    if a == _DY_ONE:
        return _DY_ZERO
    w = prec + _GUARD
    bl = a.man.bit_length()
    s = a.exp + bl - 1  # a = m * 2^s with m in [1, 2)
    half = 1 << (bl - 1)
    # atanh argument z = (m-1)/(m+1) in [0, 1/3)
    znum, zden = a.man - half, a.man + half
    atl, ath = _atanh_series_scaled(znum, zden, w)
    if s == 0:
        return _dy_round(2 * (atl if rnd == _FLOOR else ath), -w, prec, rnd)
    wk = w + abs(s).bit_length() + 8
    l2lo, l2hi = _ln2_scaled(wk)
    if (s > 0) == (rnd == _FLOOR):
        sl2 = s * l2lo
    else:
        sl2 = s * l2hi
    at = 2 * (atl if rnd == _FLOOR else ath)
    # align scale 2^-wk with 2^-w (wk > w)
    total = sl2 + (at << (wk - w))
    return _dy_round(total, -wk, prec, rnd)


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


class Interval:
    """A certified enclosure [lo, hi] with dyadic endpoints."""

    __slots__ = ("lo", "hi", "precision_bits")

    def __init__(self, lo: Dyadic, hi: Dyadic, precision_bits: int):
        if _dy_cmp(lo, hi) > 0:
            raise InvalidParameter("inverted interval endpoints")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "precision_bits", precision_bits)

    def __setattr__(self, *args):
        raise AttributeError("Interval is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fraction(x: Rational, precision_bits: int) -> "Interval":
        lo = _dy_from_fraction(x, precision_bits, _FLOOR)
        hi = _dy_from_fraction(x, precision_bits, _CEIL)
        return Interval(lo, hi, precision_bits)

    @staticmethod
    def exact_zero(precision_bits: int = 64) -> "Interval":
        return Interval(_DY_ZERO, _DY_ZERO, precision_bits)

    @staticmethod
    def exact_one(precision_bits: int = 64) -> "Interval":
        return Interval(_DY_ONE, _DY_ONE, precision_bits)

    # -- queries ------------------------------------------------------

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Rational) -> bool:
        return _dy_cmp_fraction(self.lo, x) <= 0 and _dy_cmp_fraction(self.hi, x) >= 0

    def cmp_fraction(self, x: Rational) -> int:
        """-1 if entirely below x, 1 if entirely above, else 0 (overlap)."""
        if _dy_cmp_fraction(self.hi, x) < 0:
            return -1
        if _dy_cmp_fraction(self.lo, x) > 0:
            return 1
        return 0

    def lo_cmp(self, x: Rational) -> int:
        return _dy_cmp_fraction(self.lo, x)

    def hi_cmp(self, x: Rational) -> int:
        return _dy_cmp_fraction(self.hi, x)

    def certified_ge(self, other: "Interval") -> bool:
        """True when every point of self is >= every point of other."""
        return _dy_cmp(self.lo, other.hi) >= 0

    def certified_lt(self, other: "Interval") -> bool:
        """True when every point of self is < every point of other."""
        return _dy_cmp(self.hi, other.lo) < 0

    def width(self) -> Fraction:
        return self.hi.as_fraction() - self.lo.as_fraction()

    # -- arithmetic ---------------------------------------------------

    def round(self, precision_bits: int) -> "Interval":
        return Interval(
            _dy_round(self.lo.man, self.lo.exp, precision_bits, _FLOOR),
            _dy_round(self.hi.man, self.hi.exp, precision_bits, _CEIL),
            precision_bits,
        )

    def add(self, other: "Interval", prec: Optional[int] = None) -> "Interval":
        p = prec or max(self.precision_bits, other.precision_bits)
        return Interval(
            _dy_add(self.lo, other.lo, p, _FLOOR),
            _dy_add(self.hi, other.hi, p, _CEIL),
            p,
        )

    def sub(self, other: "Interval", prec: Optional[int] = None) -> "Interval":
        p = prec or max(self.precision_bits, other.precision_bits)
        return Interval(
            _dy_sub(self.lo, other.hi, p, _FLOOR),
            _dy_sub(self.hi, other.lo, p, _CEIL),
            p,
        )

    def neg(self) -> "Interval":
        return Interval(_dy_neg(self.hi), _dy_neg(self.lo), self.precision_bits)

    def mul(self, other: "Interval", prec: Optional[int] = None) -> "Interval":
        p = prec or max(self.precision_bits, other.precision_bits)
        cands = []
        for x in (self.lo, self.hi):
            for y in (other.lo, other.hi):
                cands.append((x.man * y.man, x.exp + y.exp))
        # exact products; pick extremes exactly before rounding outward
        lo = hi = cands[0]
        for me in cands[1:]:
            if _me_cmp(me, lo) < 0:
                lo = me
            if _me_cmp(me, hi) > 0:
                hi = me
        return Interval(
            _dy_round(lo[0], lo[1], p, _FLOOR), _dy_round(hi[0], hi[1], p, _CEIL), p
        )

    def div(self, other: "Interval", prec: Optional[int] = None) -> "Interval":
        p = prec or max(self.precision_bits, other.precision_bits)
        slo, shi = other.lo.sign, other.hi.sign
        if slo <= 0 <= shi:
            raise DomainError("division by an interval containing zero")
        inv_lo = _dy_div(_DY_ONE, other.hi, p + 4, _FLOOR)
        inv_hi = _dy_div(_DY_ONE, other.lo, p + 4, _CEIL)
        return self.mul(Interval(inv_lo, inv_hi, p + 4), p)

    def scale(self, q: Rational, prec: Optional[int] = None) -> "Interval":
        p = prec or self.precision_bits
        return self.mul(Interval.from_fraction(q, p + 4), p)

    # -- transcendental -----------------------------------------------

    def exp(self, prec: Optional[int] = None) -> "Interval":
        p = prec or self.precision_bits
        return Interval(_exp_dy(self.lo, p, _FLOOR), _exp_dy(self.hi, p, _CEIL), p)

    def log(self, prec: Optional[int] = None) -> "Interval":
        p = prec or self.precision_bits
        if self.lo.sign <= 0:
            raise DomainError("log of an interval reaching zero")
        return Interval(_ln_dy(self.lo, p, _FLOOR), _ln_dy(self.hi, p, _CEIL), p)

    def pow(self, expo: Union[Rational, "Interval"], prec: Optional[int] = None) -> "Interval":
        """x^expo for a positive interval x, via exp(expo * ln x)."""
        p = prec or self.precision_bits
        if self.lo.sign <= 0:
            raise DomainError("power base interval reaches zero")
        if self.lo == _DY_ONE and self.hi == _DY_ONE:
            return Interval.exact_one(p)
        if not isinstance(expo, Interval):
            e = Fraction(expo)
            if e == 0:
                return Interval.exact_one(p)
            if e.denominator == 1 and abs(e.numerator) <= 4:
                # tiny integer powers: repeated interval multiplication
                n = e.numerator
                base = self if n > 0 else Interval.exact_one(p).div(self, p + 8)
                out = base
                for _ in range(abs(n) - 1):
                    out = out.mul(base, p + 8)
                return out.round(p)
            y_mag = e.numerator.bit_length() - e.denominator.bit_length() + 1
            expo_iv = None
        else:
            y_mag = max(expo.lo.mag_bits, expo.hi.mag_bits)
            expo_iv = expo
        ln_mag = max(abs(self.lo.mag_bits), abs(self.hi.mag_bits)).bit_length() + 1
        w = p + _GUARD + max(0, y_mag) + ln_mag
        ln_x = self.log(w)
        if expo_iv is None:
            expo_iv = Interval.from_fraction(e, w)
        return ln_x.mul(expo_iv, w).exp(p)

    def __repr__(self):
        return f"Interval[{dyadic_str(self.lo)}, {dyadic_str(self.hi)}]@{self.precision_bits}b"


def _me_cmp(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Exact comparison of unnormalized man*2**exp pairs.

    Safe: alignment shifts only happen when magnitude positions agree, so
    they are bounded by the mantissa bit lengths.
    """
    m1, e1 = a
    m2, e2 = b
    s1 = (m1 > 0) - (m1 < 0)
    s2 = (m2 > 0) - (m2 < 0)
    if s1 != s2:
        return -1 if s1 < s2 else 1
    if s1 == 0:
        return 0
    p1 = e1 + abs(m1).bit_length()
    p2 = e2 + abs(m2).bit_length()
    if p1 != p2:
        return (1 if p1 > p2 else -1) * s1
    sh = e1 - e2
    x = m1 << sh if sh >= 0 else m1
    y = m2 if sh >= 0 else m2 << -sh
    return (x > y) - (x < y)


def dyadic_str(d: Dyadic, digits: int = 12) -> str:
    """Human-readable decimal (approximate for huge exponents)."""
    if d.man == 0:
        return "0"
    if abs(d.exp) <= 4096:
        x = d.as_fraction()
        return _fraction_decimal(x, digits)
    l2 = d.log2_estimate()
    sign = "-" if d.man < 0 else ""
    return f"{sign}2^{l2:.6g}"


def _fraction_decimal(x: Fraction, digits: int) -> str:
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    x = abs(x)
    # decimal exponent
    e = 0
    while x >= 10:
        x /= 10
        e += 1
    while x < 1:
        x *= 10
        e -= 1
    scaled = int(x * 10 ** (digits - 1))
    mant = str(scaled)
    mant = mant[0] + "." + mant[1:]
    return f"{sign}{mant}e{e:+d}"


# Python refuses str() of ints past sys.get_int_max_str_digits() digits
# (4300 by default, 640 at the least), so longer ones are split by a power
# of ten into pieces below that.
_STR_DIGITS = 600
_STR_BOUND = 10**_STR_DIGITS


def int_str(n: int) -> str:
    """str(n), exact at any size."""
    if -_STR_BOUND < n < _STR_BOUND:
        return str(n)
    if n < 0:
        return "-" + int_str(-n)
    k = n.bit_length() * 3 // 20  # about half the decimal digits
    hi, lo = divmod(n, 10**k)
    return int_str(hi) + int_str(lo).zfill(k)


def fraction_str(x: Rational) -> str:
    """str(Fraction(x)), exact at any size."""
    x = Fraction(x)
    if x.denominator == 1:
        return int_str(x.numerator)
    return f"{int_str(x.numerator)}/{int_str(x.denominator)}"


# ---------------------------------------------------------------------------
# Bound-factor expressions and interval_eval
# ---------------------------------------------------------------------------


class BoundExpr:
    """A lazily evaluated positive real with certified enclosures.

    Supports +, -, *, / against rationals and other expressions; used to
    assemble bound factors such as (e^(40C) - 1)/2 without committing to a
    precision until evaluation time.  Nodes are immutable values: two
    expressions built from the same exact rationals compare and hash equal,
    and integral_consts says whether every const leaf is an integer.
    """

    __slots__ = ("key", "integral_consts", "_hash")

    def __init__(self, key: tuple, integral_consts: bool):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "integral_consts", integral_consts)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, *args):
        raise AttributeError("BoundExpr is immutable")

    def __eq__(self, other):
        return isinstance(other, BoundExpr) and self.key == other.key

    def __hash__(self):
        return self._hash

    def enclosure(self, precision_bits: int) -> Interval:
        raise NotImplementedError

    def exact_rational(self) -> Optional[Fraction]:
        return None

    def __add__(self, other):
        return _BinExpr("+", self, _coerce(other))

    def __radd__(self, other):
        return _BinExpr("+", _coerce(other), self)

    def __sub__(self, other):
        return _BinExpr("-", self, _coerce(other))

    def __rsub__(self, other):
        return _BinExpr("-", _coerce(other), self)

    def __mul__(self, other):
        return _BinExpr("*", self, _coerce(other))

    def __rmul__(self, other):
        return _BinExpr("*", _coerce(other), self)

    def __truediv__(self, other):
        return _BinExpr("/", self, _coerce(other))

    def __rtruediv__(self, other):
        return _BinExpr("/", _coerce(other), self)


class _Memo:
    """A bounded map from keys to computed values; the oldest entry goes
    first when it is full (see interval_eval for what may be a key)."""

    def __init__(self, size: int):
        self.size = size
        self.entries: dict = {}

    def get(self, key, compute, *args):
        try:
            return self.entries[key]
        except KeyError:
            pass
        value = compute(*args)
        if len(self.entries) >= self.size:
            del self.entries[next(iter(self.entries))]
        self.entries[key] = value
        return value

    def clear(self) -> None:
        self.entries.clear()


_MEMO = _Memo(256)


class _Const(BoundExpr):
    __slots__ = ("value",)

    def __init__(self, value: Rational):
        value = Fraction(value)
        object.__setattr__(self, "value", value)
        super().__init__(("const", value), value.denominator == 1)

    def enclosure(self, precision_bits: int) -> Interval:
        return Interval.from_fraction(self.value, precision_bits)

    def exact_rational(self):
        return self.value

    def __repr__(self):
        return f"const({self.value})"


class _ExpOf(BoundExpr):
    __slots__ = ("x",)

    def __init__(self, x: Rational):
        x = Fraction(x)
        object.__setattr__(self, "x", x)
        super().__init__(("exp", x), True)

    def enclosure(self, precision_bits: int) -> Interval:
        if self.x == 0:
            return Interval.exact_one(precision_bits)
        return _MEMO.get((self, precision_bits), self._enclose, precision_bits)

    def _enclose(self, precision_bits: int) -> Interval:
        return Interval.from_fraction(self.x, precision_bits + _GUARD).exp(
            precision_bits
        )

    def exact_rational(self):
        return Fraction(1) if self.x == 0 else None

    def __repr__(self):
        return f"exp_of({self.x})"


class _LogOf(BoundExpr):
    """Log t := max(1, ln t) for rational t >= 1."""

    __slots__ = ("t",)

    def __init__(self, t: Rational):
        tf = Fraction(t)
        if tf < 1:
            raise InvalidParameter(f"Log t requires t >= 1, got {t}")
        object.__setattr__(self, "t", tf)
        super().__init__(("log", tf), True)

    def _below_e(self) -> bool:
        if self.t <= 2:
            return True
        return _MEMO.get(("below_e", self.t), self._compare_e)

    def _compare_e(self) -> bool:
        prec = 64
        while True:
            e_iv = _ExpOf(1).enclosure(prec)
            c = e_iv.cmp_fraction(self.t)
            if c > 0:  # e > t
                return True
            if c < 0:
                return False
            prec *= 2  # t rational, e irrational: always separates

    def enclosure(self, precision_bits: int) -> Interval:
        if self.t == 1 or self._below_e():
            return Interval.exact_one(precision_bits)
        return _MEMO.get((self, precision_bits), self._enclose, precision_bits)

    def _enclose(self, precision_bits: int) -> Interval:
        iv = Interval.from_fraction(self.t, precision_bits + _GUARD).log(
            precision_bits
        )
        # certified ln t > 1; clip rounding fuzz from below
        if _dy_cmp_fraction(iv.lo, 1) < 0:
            iv = Interval(_DY_ONE, iv.hi, precision_bits)
        return iv

    def exact_rational(self):
        return Fraction(1) if (self.t == 1 or self._below_e()) else None

    def __repr__(self):
        return f"log_of({self.t})"


class _BinExpr(BoundExpr):
    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: BoundExpr, b: BoundExpr):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        super().__init__((op, a.key, b.key), a.integral_consts and b.integral_consts)

    def enclosure(self, precision_bits: int) -> Interval:
        w = precision_bits + 8
        ia = self.a.enclosure(w)
        ib = self.b.enclosure(w)
        if self.op == "+":
            out = ia.add(ib, w)
        elif self.op == "-":
            out = ia.sub(ib, w)
        elif self.op == "*":
            out = ia.mul(ib, w)
        else:
            out = ia.div(ib, w)
        return out.round(precision_bits)

    def exact_rational(self):
        ra = self.a.exact_rational()
        rb = self.b.exact_rational()
        if ra is None or rb is None:
            return None
        if self.op == "+":
            return ra + rb
        if self.op == "-":
            return ra - rb
        if self.op == "*":
            return ra * rb
        return ra / rb if rb != 0 else None

    def __repr__(self):
        return f"({self.a} {self.op} {self.b})"


def const(q: Rational) -> BoundExpr:
    return _Const(q)


def exp_of(x: Rational) -> BoundExpr:
    """The factor e^x for rational x."""
    return _ExpOf(x)


def log_of(t: Rational) -> BoundExpr:
    """The factor Log t = max(1, ln t) for rational t >= 1."""
    return _LogOf(t)


def _coerce(x) -> BoundExpr:
    if isinstance(x, BoundExpr):
        return x
    return _Const(Fraction(x))


ExprLike = Union[Rational, BoundExpr]


def _power_enclosure(
    e_expr: BoundExpr,
    expr_r: Optional[Fraction],
    e_expo: BoundExpr,
    expo_r: Optional[Fraction],
    w: int,
) -> Interval:
    """Enclosure of e_expr ^ e_expo at working precision w, for a positive
    base; expr_r and expo_r are the exact rational values or None."""

    def base_at(prec: int) -> Interval:
        if expr_r is not None:
            return Interval.from_fraction(expr_r, prec)
        return e_expr.enclosure(prec)

    # a large exponent magnifies the absolute error of y*ln(x), so both
    # the exponent and the base enclosures get matching extra precision
    if expo_r is not None:
        probe: Union[Fraction, Interval] = expo_r
        mag = max(0, expo_r.numerator.bit_length() - expo_r.denominator.bit_length() + 1)
    else:
        probe = e_expo.enclosure(w)
        mag = max(probe.lo.mag_bits, probe.hi.mag_bits, 0)
    # exp() refuses arguments of magnitude 2^_MAG_CAP; while |ln base| <
    # 2^64 that takes |expo| >= 2^(_MAG_CAP - 64), so only such exponents
    # are checked before the work at precision w + mag
    if mag > _MAG_CAP - 64:
        _check_exp_magnitude(base_at(w), probe, w)
    expo_arg = e_expo.enclosure(w + mag) if expo_r is None and mag > 0 else probe
    base_iv = base_at(w + mag)
    if base_iv.lo.sign <= 0:
        raise DomainError("nonpositive base of a fractional power")
    return base_iv.pow(expo_arg, w)


def _check_exp_magnitude(
    base_low: Interval, expo_low: Union[Fraction, Interval], w: int
) -> None:
    """Raise ResourceLimit when low-precision enclosures already certify
    |expo * ln base| >= 2^_MAG_CAP, an argument exp() refuses."""
    if base_low.lo.sign <= 0:
        return
    if not isinstance(expo_low, Interval):
        expo_low = Interval.from_fraction(expo_low, w)
    arg = base_low.log(w).mul(expo_low, w)
    if (arg.lo.sign > 0 and arg.lo.mag_bits > _MAG_CAP) or (
        arg.hi.sign < 0 and arg.hi.mag_bits > _MAG_CAP
    ):
        raise ResourceLimit(
            f"exp argument |expo * ln base| >= 2^{_MAG_CAP} exceeds the magnitude cap"
        )


def interval_eval(
    base: Rational,
    factors: list[tuple[ExprLike, ExprLike]],
    precision_bits: int,
) -> Interval:
    """Certified enclosure of base * prod(expr_i ^ expo_i).

    Each expr is a rational constant, e^x (exp_of), or Log t (log_of);
    exponents may be rationals or derived expressions.  Doubling
    precision_bits never widens the result, and the true value is always
    enclosed.  Nonpositive bases of fractional powers raise DomainError.

    The enclosure of a factor whose expr and expo have only integer const
    leaves is memoized process-wide in one bounded memo, keyed on (expr,
    expo, working precision), as are the exp_of/log_of leaf enclosures
    (keyed on the leaf and the precision) and the Log t < e test.  In the
    package's bound factors such keys carry only the parameter-grid values
    C, t, K, epsilon, P and small integer constants: a factor carrying a
    measure, such as const(mu(V) mu(W)), has a non-integer const leaf
    (unless the measure is an integer) and is computed afresh.  A memoized
    enclosure is the one the same function computes from the same exact
    inputs, so results are bit-identical with or without the memo.
    """
    base = Fraction(base)
    if base < 0:
        raise InvalidParameter("interval_eval base must be nonnegative")
    w = precision_bits + _GUARD
    acc_exact = base
    acc_iv: Optional[Interval] = None
    for expr, expo in factors:
        e_expr = _coerce(expr)
        e_expo = _coerce(expo)
        expr_r = e_expr.exact_rational()
        expo_r = e_expo.exact_rational()
        if expr_r is not None:
            if expr_r == 1:
                continue
            if expo_r is not None and expo_r.denominator == 1:
                n = expo_r.numerator
                if expr_r == 0:
                    if n > 0:
                        acc_exact = Fraction(0)
                    elif n < 0:
                        raise DomainError("zero base with negative exponent")
                    continue
                acc_exact *= expr_r**n
                continue
            if expr_r <= 0:
                raise DomainError("nonpositive base of a fractional power")
        if acc_exact == 0:
            return Interval.exact_zero(precision_bits)
        args = (e_expr, expr_r, e_expo, expo_r, w)
        if e_expr.integral_consts and e_expo.integral_consts:
            piece = _MEMO.get((e_expr, e_expo, w), _power_enclosure, *args)
        else:
            piece = _power_enclosure(*args)
        acc_iv = piece if acc_iv is None else acc_iv.mul(piece, w)
    if acc_iv is None:
        return Interval.from_fraction(acc_exact, precision_bits)
    if acc_exact != 1:
        acc_iv = acc_iv.mul(Interval.from_fraction(acc_exact, w), w)
    return acc_iv.round(precision_bits)


# ---------------------------------------------------------------------------
# Exact comparisons of rational powers
# ---------------------------------------------------------------------------


def compare_power(base: Rational, expo: Rational, rhs: Rational) -> int:
    """Exact sign of base**expo - rhs for base > 0, rhs > 0, rational expo.

    Uses base^(a/b) <=> rhs  iff  base^a <=> rhs^b, which stays in exact
    integer arithmetic.
    """
    base = Fraction(base)
    rhs = Fraction(rhs)
    expo = Fraction(expo)
    if base <= 0 or rhs <= 0:
        raise InvalidParameter("compare_power requires positive base and rhs")
    a, b = expo.numerator, expo.denominator
    lhs_pow = base**a
    rhs_pow = rhs**b
    return (lhs_pow > rhs_pow) - (lhs_pow < rhs_pow)
