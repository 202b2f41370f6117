"""Exact arithmetic and the certified interval engine.

The independent oracle for interval enclosures is mpmath evaluated at far
higher working precision than anything the engine uses; the engine itself
never touches floating point.
"""

import functools
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircert import arith
from paircert.arith import (
    Interval,
    _bracket_point,
    compare_power,
    const,
    divisors,
    exp_of,
    factorize,
    fraction_str,
    int_str,
    interval_eval,
    is_prime,
    log_of,
    prime_divisors,
    primes_upto,
    valuation,
)
from paircert.errors import (
    DomainError,
    InvalidParameter,
    ResourceLimit,
    UndefinedValuation,
)

mpmath.mp.dps = 150


def _trial_division_primes(bound: int) -> list[int]:
    out = []
    for n in range(2, bound + 1):
        if all(n % d for d in range(2, n)):
            out.append(n)
    return out


def _mp(iv: Interval):
    lo = mpmath.mpf(iv.lo.man) * mpmath.power(2, iv.lo.exp)
    hi = mpmath.mpf(iv.hi.man) * mpmath.power(2, iv.hi.exp)
    return lo, hi


def _contains_ref(iv: Interval, ref) -> bool:
    lo, hi = _mp(iv)
    slack = abs(ref) * mpmath.power(2, -400) + mpmath.power(2, -400)
    return lo - slack <= ref <= hi + slack


class TestPrimes:
    def test_no_primes_below_two(self):
        assert primes_upto(1) == []
        assert primes_upto(F(3, 2)) == []

    def test_boundary_inclusion(self):
        assert primes_upto(2) == [2]

    def test_first_primes(self):
        assert primes_upto(10) == [2, 3, 5, 7]

    def test_rational_bound_floors(self):
        assert primes_upto(F(10, 3)) == [2, 3]

    def test_against_trial_division(self):
        assert primes_upto(500) == _trial_division_primes(500)

    def test_below_one_rejected(self):
        with pytest.raises(InvalidParameter):
            primes_upto(F(1, 2))

    def test_is_prime(self):
        assert is_prime(97)
        assert not is_prime(1)
        assert not is_prime(91)


class TestFactorize:
    def test_one_gives_empty_product(self):
        assert factorize(1) == ()

    def test_twelve(self):
        assert factorize(12) == ((2, 2), (3, 1))

    def test_prime(self):
        assert factorize(97) == ((97, 1),)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameter):
            factorize(0)

    def test_cap_bounds_sqrt_not_n(self):
        assert factorize(2 * 10**7) == ((2, 8), (5, 7))
        assert factorize(10000019) == ((10000019, 1),)

    def test_cap_under_small_sieve_cap(self, monkeypatch):
        from paircert import arith

        monkeypatch.setenv("PAIRCERT_SIEVE_CAP", "100")
        factorize.cache_clear()
        assert factorize(101**2 - 1) == ((2, 3), (3, 1), (5, 2), (17, 1))
        sieved = []
        monkeypatch.setattr(arith, "_ensure_sieve", sieved.append)
        for n in (101**2, 101 * 103, 10**9 + 7):
            with pytest.raises(ResourceLimit):
                factorize(n)
        assert sieved == []

    def test_reconstruction_to_1e5(self):
        for n in range(1, 100_001):
            prod = 1
            last = 1
            for p, e in factorize(n):
                assert p > last and e >= 1
                last = p
                prod *= p**e
            assert prod == n

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_reconstruction_property(self, n):
        prod = 1
        for p, e in factorize(n):
            prod *= p**e
        assert prod == n

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert prime_divisors(12) == (2, 3)


class TestValuation:
    def test_prime_power(self):
        assert valuation(2, 8) == 3

    def test_rational(self):
        assert valuation(3, F(4, 6)) == -1

    def test_coprime(self):
        assert valuation(5, 7) == 0

    def test_zero_rejected(self):
        with pytest.raises(UndefinedValuation):
            valuation(2, 0)

    def test_nonprime_rejected(self):
        with pytest.raises(InvalidParameter):
            valuation(6, 12)

    def test_homomorphism_bulk(self):
        rng = random.Random(11)
        primes = [2, 3, 5, 7, 11, 13]
        for _ in range(10_000):
            p = rng.choice(primes)
            x = F(rng.randint(1, 5000), rng.randint(1, 5000))
            y = F(rng.randint(1, 5000), rng.randint(1, 5000))
            assert valuation(p, x * y) == valuation(p, x) + valuation(p, y)

    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.fractions(min_value=F(1, 999), max_value=999),
        st.fractions(min_value=F(1, 999), max_value=999),
    )
    @settings(max_examples=200, deadline=None)
    def test_homomorphism_property(self, p, x, y):
        assert valuation(p, x * y) == valuation(p, x) + valuation(p, y)


class TestIntervalEval:
    def test_exp_zero_is_exact_one(self):
        iv = interval_eval(F(1), [(exp_of(0), 1)], 64)
        assert iv.is_point() and iv.contains(1)

    def test_log_one_is_exact_one(self):
        iv = interval_eval(F(1), [(log_of(1), 5)], 64)
        assert iv.is_point() and iv.contains(1)

    def test_log_below_e_is_one(self):
        # Log t = max(1, ln t) = 1 for t <= e
        iv = interval_eval(F(1), [(log_of(F(5, 2)), 3)], 64)
        assert iv.is_point() and iv.contains(1)

    def test_inverse_e_tight(self):
        iv = interval_eval(F(1), [(exp_of(1), -1)], 128)
        ref = mpmath.exp(-1)
        assert _contains_ref(iv, ref)
        assert iv.width() < F(1, 2**100)

    def test_rational_integer_power_exact(self):
        iv = interval_eval(F(3), [(const(F(1, 383)), -9)], 128)
        assert iv.is_point() and iv.contains(3 * F(383) ** 9)

    def test_zero_base_positive_power(self):
        iv = interval_eval(F(1), [(const(0), 2), (exp_of(1), 1)], 64)
        assert iv.is_point() and iv.contains(0)

    def test_zero_base_fractional_power_rejected(self):
        with pytest.raises(DomainError):
            interval_eval(F(1), [(const(0), F(1, 2))], 64)

    def test_negative_base_fractional_power_rejected(self):
        with pytest.raises(DomainError):
            interval_eval(F(1), [(const(-2), F(1, 2))], 64)

    def test_negative_base_rejected_before_zero_shortcut(self):
        with pytest.raises(DomainError):
            interval_eval(F(0), [(const(-2), F(1, 2))], 64)

    def test_negative_base_integer_power_exact(self):
        iv = interval_eval(F(1), [(const(-2), 3)], 64)
        assert iv.is_point() and iv.contains(-8)

    def test_zero_base_negative_power_rejected(self):
        with pytest.raises(DomainError):
            interval_eval(F(1), [(const(0), -1)], 64)

    def test_negative_overall_base_rejected(self):
        with pytest.raises(InvalidParameter):
            interval_eval(F(-1), [], 64)

    def test_huge_exponent_tower(self):
        # (Log 10)^((e^40 - 1)/2): magnitude near 2^(1.4e17)
        iv = interval_eval(F(1), [(log_of(10), (exp_of(40) - 1) / 2)], 128)
        l2lo = iv.lo.log2_estimate()
        l2hi = iv.hi.log2_estimate()
        assert 1.41e17 < l2lo <= l2hi < 1.43e17

    def test_nesting_and_oracle_on_random_expressions(self):
        """Doubling precision never widens; the high-precision oracle point
        stays enclosed (100 expressions)."""
        rng = random.Random(3)
        for _ in range(100):
            kind = rng.randrange(3)
            if kind == 0:
                x = F(rng.randint(-200, 200), rng.randint(1, 40))
                factors = [(exp_of(x), 1)]
                ref = mpmath.exp(mpmath.mpf(x.numerator) / x.denominator)
            elif kind == 1:
                t = F(rng.randint(1, 10**5), rng.randint(1, 50))
                if t < 1:
                    t = 1 / t
                y = F(rng.randint(-9, 9), rng.randint(1, 5))
                factors = [(log_of(t), y)]
                tt = mpmath.mpf(t.numerator) / t.denominator
                ref = mpmath.power(max(1, mpmath.log(tt)), mpmath.mpf(y.numerator) / y.denominator)
            else:
                b = F(rng.randint(1, 500), rng.randint(1, 500))
                y = F(rng.randint(-25, 25), rng.randint(1, 8))
                factors = [(const(b), y)]
                ref = mpmath.power(
                    mpmath.mpf(b.numerator) / b.denominator,
                    mpmath.mpf(y.numerator) / y.denominator,
                )
            prev_width = None
            for prec in (64, 128, 256):
                iv = interval_eval(F(1), factors, prec)
                assert _contains_ref(iv, ref), (factors, prec)
                w = iv.width()
                if prev_width is not None:
                    assert w <= prev_width, (factors, prec)
                prev_width = w

    def test_division_by_zero_interval(self):
        a = Interval.from_fraction(F(1), 64)
        b = Interval.from_fraction(F(-1), 64).add(Interval.from_fraction(F(1), 64))
        with pytest.raises(DomainError):
            a.div(b)

    def test_magnitude_cap(self):
        # (Log 10)^(e^12000) would exceed 2^(2^14) in the exponent
        with pytest.raises(ResourceLimit):
            interval_eval(F(1), [(log_of(10), exp_of(12000))], 64)



class TestBracketPoint:
    @pytest.mark.parametrize("bits", [1, 2, 8, 64])
    def test_decides_exactly_when_the_ends_round_alike(self, bits):
        """_bracket_point gives from_fraction of every point of the bracket
        when both ends round alike in each direction, and None otherwise
        (rounding is monotone, so the ends decide every point between)."""
        rng = random.Random(bits)
        for _ in range(400):
            exp = rng.randint(-80, 10)
            grid = rng.randint(1, 1 << bits) << rng.randint(0, 12)  # near a grid point
            lo = max(1, grid + rng.randint(-3, 3))
            hi = lo + rng.choice([0, 0, 1, 2, 5])
            ends = [Interval.from_fraction(F(n) * F(2) ** exp, bits) for n in (lo, hi)]
            got = _bracket_point(lo, hi, exp, bits)
            if (ends[0].lo, ends[0].hi) != (ends[1].lo, ends[1].hi):
                assert got is None, (lo, hi, exp)
            else:
                assert got is not None, (lo, hi, exp)
                assert (got.lo, got.hi, got.precision_bits) == (ends[0].lo, ends[0].hi, bits)

class TestIntervalOps:
    def test_from_fraction_exactness(self):
        iv = Interval.from_fraction(F(5, 8), 64)
        assert iv.is_point() and iv.contains(F(5, 8))

    def test_from_fraction_rounding_encloses(self):
        x = F(1, 3)
        iv = Interval.from_fraction(x, 32)
        assert iv.lo_cmp(x) <= 0 <= iv.hi_cmp(x)
        assert not iv.is_point()

    def test_cmp_fraction(self):
        iv = Interval.from_fraction(F(1, 3), 64)
        assert iv.cmp_fraction(F(1, 2)) == -1
        assert iv.cmp_fraction(F(1, 4)) == 1
        assert iv.cmp_fraction(F(1, 3)) == 0

    def test_mul_sign_handling(self):
        a = Interval.from_fraction(F(-3), 64)
        b = Interval.from_fraction(F(2), 64)
        out = a.mul(b)
        assert out.contains(-6) and out.is_point()

    def test_interval_comparisons(self):
        lo = Interval.from_fraction(F(1), 64)
        hi = Interval.from_fraction(F(2), 64)
        assert hi.certified_ge(lo)
        assert lo.certified_lt(hi)
        assert not lo.certified_ge(hi)


class TestDyadicAdd:
    """_dy_add's zero operands and its far-apart branch, where the smaller
    operand lies below one ulp of the larger, against exact Fractions."""

    RNDS = (arith._FLOOR, arith._CEIL)

    def test_zero_operand_is_the_other_rounded(self):
        rng = random.Random(11)
        for prec in (16, 53):
            for _ in range(20):
                b = _dyadic(rng, rng.randint(1, 3 * prec), rng.randint(-30, 30), rng.choice((1, -1)))
                for rnd in self.RNDS:
                    want = arith._dy_from_fraction(b.as_fraction(), prec, rnd)
                    assert arith._dy_add(arith._DY_ZERO, b, prec, rnd) == want
                    assert arith._dy_add(b, arith._DY_ZERO, prec, rnd) == want
            assert arith._dy_add(arith._DY_ZERO, arith._DY_ZERO, prec, arith._CEIL) == arith._DY_ZERO

    def test_far_apart_operands_enclose_the_exact_sum(self):
        rng = random.Random(12)
        for prec in (16, 53):
            for _ in range(40):
                a_sign, b_sign = rng.choice((1, -1)), rng.choice((1, -1))
                a_bits = rng.choice((1, 3, prec, 2 * prec))
                a = _dyadic(rng, a_bits, rng.randint(-20, 20), a_sign)
                b = _dyadic(rng, rng.randint(1, 40), a.mag_bits - prec - 9 - rng.randint(0, 50), b_sign)
                exact = a.as_fraction() + b.as_fraction()
                lo, hi = (arith._dy_add(a, b, prec, rnd) for rnd in self.RNDS)
                assert lo.as_fraction() < exact < hi.as_fraction(), (a, b, prec)
                assert (lo, hi) == tuple(arith._dy_add(b, a, prec, rnd) for rnd in self.RNDS)
                if a_bits == prec:  # a is on the grid: the sum rounds exactly
                    assert lo == arith._dy_from_fraction(exact, prec, arith._FLOOR)
                    assert hi == arith._dy_from_fraction(exact, prec, arith._CEIL)


class TestComparePower:
    def test_exact_cube(self):
        assert compare_power(F(8), F(1, 3), F(2)) == 0

    def test_strict(self):
        assert compare_power(F(8), F(1, 3), F(3)) < 0
        assert compare_power(F(9), F(1, 2), F(2)) > 0

    def test_matches_interval_route(self):
        rng = random.Random(5)
        for _ in range(200):
            b = F(rng.randint(1, 60), rng.randint(1, 60))
            y = F(rng.randint(-6, 6), rng.randint(1, 4))
            r = F(rng.randint(1, 60), rng.randint(1, 60))
            sign = compare_power(b, y, r)
            prec = 128
            while True:
                iv = interval_eval(F(1), [(const(b), y)], prec)
                c = iv.cmp_fraction(r)
                if c != 0:
                    assert c == sign
                    break
                if sign == 0:
                    break  # exactly equal: intervals can never separate
                prec *= 2
                assert prec <= 8192


class TestFractionStr:
    def test_matches_str_under_the_limit(self, rng):
        for digits in (1, 5, 599, 600, 601, 1500, 4000):
            for _ in range(5):
                n = rng.randrange(10 ** (digits - 1), 10**digits) * rng.choice((1, -1))
                d = rng.randrange(1, 10**digits)
                assert int_str(n) == str(n)
                assert fraction_str(F(n, d)) == str(F(n, d))
        assert int_str(0) == "0" and fraction_str(F(-3, 6)) == "-1/2"
        assert int_str(10**600) == str(10**600)
        assert int_str(10**1200 - 1) == "9" * 1200

    def test_exact_past_the_limit(self):
        import sys

        n = -(7**20000) * 10**3000 + 12345
        x = F(n, 3**9000)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = str(x)
        finally:
            sys.set_int_max_str_digits(old)
        assert len(want) > 2 * old
        assert fraction_str(x) == want


# The exp kernel as it stood on Fractions: the argument reduced by Fraction
# bounds of ln 2 and rounded through a Fraction grid, the series dividing by
# a general denominator d*n.  Kept verbatim as the reference that the
# scaled-integer kernel must match bit for bit.


def _ref_exp_series_scaled(c, d, w):
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


def _ref_frac_round(x, bits, rnd):
    return arith._dy_from_fraction(x, bits, rnd).as_fraction()


def _ref_exp_dy(a, prec, rnd):
    Dyadic, FLOOR, CEIL = arith.Dyadic, arith._FLOOR, arith._CEIL
    w = prec + arith._GUARD
    if a.man == 0:
        return arith._DY_ONE
    pos = a.mag_bits
    if pos <= -w:
        if rnd == FLOOR:
            return Dyadic((1 << w) - 2, -w) if a.man < 0 else arith._DY_ONE
        return Dyadic((1 << w) + 2, -w) if a.man > 0 else arith._DY_ONE
    if pos > arith._MAG_CAP:
        raise ResourceLimit(f"exp argument magnitude 2^{pos} exceeds cap")
    if a.man < 0:
        inner = _ref_exp_dy(arith._dy_neg(a), prec + 4, CEIL if rnd == FLOOR else FLOOR)
        return arith._dy_div(arith._DY_ONE, inner, prec, rnd)
    big = a.as_fraction()
    wk = w + max(pos, 0) + 8
    l2lo, l2hi = arith._ln2_scaled(wk)
    ln2_hi = F(l2hi, 1 << wk)
    ln2_lo = F(l2lo, 1 << wk)
    k = int(big / ln2_hi)
    if rnd == FLOOR:
        r = _ref_frac_round(big - k * ln2_hi, w + 8, FLOOR)
        if r < 0:
            r = F(0)
        s, _ = _ref_exp_series_scaled(r.numerator, r.denominator, w)
    else:
        r = _ref_frac_round(big - k * ln2_lo, w + 8, CEIL)
        if r > 1:
            s1hi = _ref_exp_series_scaled(r.numerator, 2 * r.denominator, w)[1]
            s = -((-s1hi * s1hi) >> w)
            return arith._dy_round(s, k - w, prec, rnd)
        _, s = _ref_exp_series_scaled(r.numerator, r.denominator, w)
    return arith._dy_round(s, k - w, prec, rnd)


def _outcome(fn, a, prec, rnd):
    try:
        d = fn(a, prec, rnd)
    except ResourceLimit:
        return "ResourceLimit"
    return d.man, d.exp


class TestExpKernelReference:
    """arith._exp_dy against the Fraction-based reference, bit for bit."""

    @staticmethod
    def _arguments(rng, prec):
        w = prec + arith._GUARD
        cap = arith._MAG_CAP
        # (mantissa bits, magnitude): tiny, at and just above 2^-w, ordinary,
        # mantissas wider than the precision, and at and past the cap
        shapes = [(rng.randint(1, prec), -w - rng.randint(0, 9)) for _ in range(2)]
        shapes += [(1, -w), (prec, -w), (prec, -w + 1), (1, -w + 1)]
        shapes += [(rng.randint(1, prec), rng.randint(-w // 2, 12)) for _ in range(6)]
        shapes += [(rng.randint(prec, 2 * prec), rng.randint(-8, 40)) for _ in range(2)]
        shapes += [(prec, cap), (1, cap), (prec, cap + 1), (1, cap + 1)]
        out = []
        for bits, mag in shapes:
            man = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            out.append(arith.Dyadic(man, mag - man.bit_length()))
        # multiples of ln 2 on the kernel's own grid, where r is 0 or tiny
        for j in (1, 3, 1000):
            pos = (j * 7 // 10).bit_length() or 1
            wk = w + pos + 8
            l2lo, l2hi = arith._ln2_scaled(wk)
            out += [arith.Dyadic(j * l2hi, -wk), arith.Dyadic(j * l2lo, -wk)]
        out += [arith.Dyadic(1, 0), arith.Dyadic(1, -1), arith.Dyadic(3, 1)]
        return out

    def test_bit_identical_to_fraction_reference(self):
        rng = random.Random(20250809)
        compared = limits = 0
        for prec in (16, 17, 53, 64, 200, 256, 512, 1024, 4096):
            args = self._arguments(rng, prec)
            if prec > 1024:
                args = rng.sample(args, 8) + args[-10:-7]
            for a in args:
                for sign in (1, -1):
                    x = arith.Dyadic(sign * a.man, a.exp)
                    for rnd in (arith._FLOOR, arith._CEIL):
                        got = _outcome(arith._exp_dy, x, prec, rnd)
                        want = _outcome(_ref_exp_dy, x, prec, rnd)
                        assert got == want, (x, prec, rnd)
                        compared += 1
                        limits += got == "ResourceLimit"
        assert compared > 800 and limits > 0

    def test_series_shift_equals_division(self, rng):
        for _ in range(200):
            w = rng.randint(8, 600)
            k = rng.randint(0, 700)
            c = rng.randint(0, 1 << k)
            ends = tuple(
                arith._exp_series_scaled(c, k, w, rnd) for rnd in (arith._FLOOR, arith._CEIL)
            )
            assert ends == _ref_exp_series_scaled(c, 1 << k, w)


# The ln kernel as it stood with two-sided series: atanh summed a lower and
# an upper series on every call and _ln_dy kept the end it rounds toward.
# Kept verbatim as the reference that the kernel must match bit for bit.


def _ref_atanh_series_scaled(c, d, w):
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


def _ref_ln2_scaled(w):
    lo, hi = _ref_atanh_series_scaled(1, 3, w)
    return 2 * lo, 2 * hi


def _ref_ln_dy(a, prec, rnd):
    FLOOR = arith._FLOOR
    if a.sign <= 0:
        raise DomainError("log of a nonpositive value")
    if a == arith._DY_ONE:
        return arith._DY_ZERO
    w = prec + arith._GUARD
    bl = a.man.bit_length()
    s = a.exp + bl - 1
    half = 1 << (bl - 1)
    znum, zden = a.man - half, a.man + half
    atl, ath = _ref_atanh_series_scaled(znum, zden, w)
    if s == 0:
        return arith._dy_round(2 * (atl if rnd == FLOOR else ath), -w, prec, rnd)
    wk = w + abs(s).bit_length() + 8
    l2lo, l2hi = _ref_ln2_scaled(wk)
    if (s > 0) == (rnd == FLOOR):
        sl2 = s * l2lo
    else:
        sl2 = s * l2hi
    at = 2 * (atl if rnd == FLOOR else ath)
    total = sl2 + (at << (wk - w))
    return arith._dy_round(total, -wk, prec, rnd)


class TestLnKernelReference:
    """arith._ln_dy and arith._ln2_scaled against the two-sided reference,
    bit for bit."""

    @staticmethod
    def _arguments(rng, prec):
        # mantissa widths: one bit, short, the precision, wider than it
        widths = [1, 2, rng.randint(3, 12), prec, rng.randint(prec + 1, 2 * prec)]
        mantissas = {1}
        for b in widths[1:]:
            top = 1 << b
            mantissas.add((top >> 1) + 1)  # m just above 1
            mantissas.add((top >> 1) + rng.randint(1, 1 << max(1, b // 4)))
            mantissas.add(top - 1)  # m just below 2
            mantissas.add(top - rng.randint(1, 1 << max(1, b // 4)))
            mantissas.add(rng.randrange(top >> 1, top))
        # m = man / 2^(bl-1) in [1, 2) and the binary exponent s of a
        exps = [0, 1, -1, rng.randint(2, 40), -rng.randint(2, 40)]
        exps += [rng.randint(1 << 20, 1 << 40), -rng.randint(1 << 20, 1 << 40)]
        out = []
        for man in sorted(mantissas):
            for s in exps:
                out.append(arith.Dyadic(man, s - man.bit_length() + 1))
        return out

    def test_bit_identical_to_two_sided_reference(self):
        rng = random.Random(20251018)
        compared = 0
        for prec in (16, 17, 53, 256, 1024, 4096):
            args = self._arguments(rng, prec)
            if prec > 1024:
                args = rng.sample(args, 12)
            for a in args:
                for rnd in (arith._FLOOR, arith._CEIL):
                    got = arith._ln_dy(a, prec, rnd)
                    want = _ref_ln_dy(a, prec, rnd)
                    assert (got.man, got.exp) == (want.man, want.exp), (a, prec, rnd)
                    compared += 1
        assert compared > 1000

    def test_ln2_scaled(self):
        for w in (1, 8, 48, 49, 100, 288, 1064, 4136, 4200, 16434):
            assert arith._ln2_scaled(w) == _ref_ln2_scaled(w)


def test_atanh_series_ends_equal_reference(rng):
    for _ in range(200):
        w = rng.randint(8, 600)
        d = rng.randint(1, 1 << rng.randint(1, 300))
        c = rng.randint(0, d // 2)
        ends = tuple(
            arith._atanh_series_scaled(c, d, w, rnd) for rnd in (arith._FLOOR, arith._CEIL)
        )
        assert ends == _ref_atanh_series_scaled(c, d, w)


# The dyadic primitives as they stood with a hand-written quotient in each of
# _dy_div and _dy_from_fraction and a magnitude window in _dy_cmp_fraction.
# Kept verbatim as the reference that the shared quotient and the one exact
# comparison must match bit for bit.


def _ref_dy_div(a, b, prec, rnd):
    if b.man == 0:
        raise DomainError("division by zero dyadic")
    if a.man == 0:
        return arith._DY_ZERO
    neg = (a.man < 0) != (b.man < 0)
    am, bm = abs(a.man), abs(b.man)
    k = prec + 4 + max(0, bm.bit_length() - am.bit_length())
    q, r = divmod(am << k, bm)
    if neg:
        man = -(q + 1) if (r and rnd == arith._FLOOR) else -q
    else:
        man = q + 1 if (r and rnd == arith._CEIL) else q
    return arith._dy_round(man, a.exp - b.exp - k, prec, rnd)


def _ref_dy_cmp_fraction(a, x):
    x = F(x)
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


def _ref_dy_from_fraction(x, prec, rnd):
    x = F(x)
    p, q = x.numerator, x.denominator
    if p == 0:
        return arith._DY_ZERO
    if q == 1 and abs(p).bit_length() <= prec:
        return arith.Dyadic(p, 0)
    neg = p < 0
    p = abs(p)
    e = p.bit_length() - q.bit_length() - prec - 2
    if e >= 0:
        num, den = p, q << e
    else:
        num, den = p << -e, q
    m, r = divmod(num, den)
    if neg:
        man = -(m + 1) if (r and rnd == arith._FLOOR) else -m
    else:
        man = m + 1 if (r and rnd == arith._CEIL) else m
    return arith._dy_round(man, e, prec, rnd)


class TestDyadicPrimitiveReference:
    """arith._dy_from_fraction, _dy_div and _dy_cmp_fraction against the
    hand-written reference, bit for bit."""

    PRECS = (16, 17, 53, 256, 1024, 4096)
    RNDS = (arith._FLOOR, arith._CEIL)

    @staticmethod
    def _int(rng, bits):
        """A random integer of exactly `bits` bits, either sign."""
        n = rng.getrandbits(bits) | (1 << (bits - 1))
        return n if rng.getrandbits(1) else -n

    @staticmethod
    def _odd(rng, bits):
        return rng.getrandbits(bits) | (1 << (bits - 1)) | 1

    def _fractions(self, rng, prec):
        out = [F(0), F(1), F(-1), F(1 << prec), F((1 << prec) - 1), F((1 << prec) + 1)]
        # integers that fit prec bits and integers that do not
        for bits in (1, 2, prec - 1, prec, prec + 1, prec + 2, 2 * prec + 7):
            out.append(F(self._int(rng, bits)))
        # numerators far longer and far shorter than denominators, and alike
        shapes = [(3 * prec, 5), (5, 3 * prec), (prec, prec), (5000, 40), (40, 5000)]
        shapes += [(rng.randint(1, 2 * prec), rng.randint(1, 2 * prec)) for _ in range(8)]
        for pb, qb in shapes:
            out.append(F(self._int(rng, pb), self._odd(rng, qb)))
        # one unit away from a dyadic: (m q +- 1) / q * 2^k
        for _ in range(6):
            m = self._int(rng, rng.randint(1, prec + 2))
            q = self._odd(rng, rng.randint(2, 64))
            k = rng.randint(-2 * prec, prec)
            for u in (-1, 1):
                out.append(F(m * q + u, q) * F(2) ** k)
        # shifted powers of two and their neighbours
        for k in (-prec - 1, -3, 5, prec + 3):
            out += [F(2) ** k, -(F(2) ** k), F(2) ** k + F(1, 3 << prec)]
        return out

    def _dyadics(self, rng, prec):
        out = []
        for bits in (1, 2, prec - 1, prec, prec + 1, 3 * prec, 5000):
            for _ in range(2):
                out.append(arith.Dyadic(self._int(rng, bits), rng.randint(-3 * prec, 3 * prec)))
        out += [arith.Dyadic(1, 0), arith.Dyadic(-1, prec), arith.Dyadic(3, -prec)]
        return out

    def test_from_fraction(self):
        rng = random.Random(20261018)
        compared = 0
        for prec in self.PRECS:
            for x in self._fractions(rng, prec):
                for rnd in self.RNDS:
                    got = arith._dy_from_fraction(x, prec, rnd)
                    want = _ref_dy_from_fraction(x, prec, rnd)
                    assert (got.man, got.exp) == (want.man, want.exp), (x, prec, rnd)
                    compared += 1
        assert compared >= 600

    def test_div(self):
        rng = random.Random(20261019)
        compared = 0
        for prec in self.PRECS:
            ds = self._dyadics(rng, prec)
            pairs = [(a, b) for a in [arith._DY_ZERO] + ds for b in ds]
            for a, b in rng.sample(pairs, 250):
                for rnd in self.RNDS:
                    got = arith._dy_div(a, b, prec, rnd)
                    want = _ref_dy_div(a, b, prec, rnd)
                    assert (got.man, got.exp) == (want.man, want.exp), (a, b, prec, rnd)
                    compared += 1
        assert compared > 2500
        with pytest.raises(DomainError):
            arith._dy_div(arith._DY_ONE, arith._DY_ZERO, 53, arith._FLOOR)

    def test_cmp_fraction(self):
        rng = random.Random(20261020)
        compared = 0
        for prec in self.PRECS:
            ds = self._dyadics(rng, prec)
            for x in self._fractions(rng, prec):
                # the roundings of x itself, one unit off them, and strangers
                near = [_ref_dy_from_fraction(x, prec, rnd) for rnd in self.RNDS]
                near += [arith._dy_nudge(d, prec, rnd) for d in near for rnd in self.RNDS]
                near += [arith._dy_neg(d) for d in near[:2]] + [arith._DY_ZERO]
                for a in near + rng.sample(ds, 3):
                    assert arith._dy_cmp_fraction(a, x) == _ref_dy_cmp_fraction(a, x), (a, x)
                    compared += 1
            # dyadic rationals against themselves and their neighbours
            for d in ds:
                x = d.as_fraction()
                for a in (d, arith._dy_nudge(d, prec, arith._FLOOR), arith._dy_neg(d)):
                    assert arith._dy_cmp_fraction(a, x) == _ref_dy_cmp_fraction(a, x), (a, x)
                    compared += 1
        assert compared > 2500


# Interval.log and Interval.exp as they stood with one series per end: both
# methods round each end on its own through _ln_dy and _exp_dy, copied here
# verbatim.  Kept as the reference that the shared-bracket kernels must match
# bit for bit.


def _ref_series_exp_dy(a, prec, rnd):
    Dyadic, _FLOOR, _CEIL = arith.Dyadic, arith._FLOOR, arith._CEIL
    w = prec + arith._GUARD
    if a.man == 0:
        return arith._DY_ONE
    pos = a.mag_bits
    if pos <= -w:
        # |a| <= 2^-w: e^a within [1 - 2^(1-w), 1 + 2^(1-w)]
        if rnd == _FLOOR:
            return Dyadic((1 << w) - 2, -w) if a.man < 0 else arith._DY_ONE
        return Dyadic((1 << w) + 2, -w) if a.man > 0 else arith._DY_ONE
    if pos > arith._MAG_CAP:
        raise ResourceLimit(f"exp argument magnitude 2^{pos} exceeds cap")
    if a.man < 0:
        # e^a = 1 / e^|a|; flip the rounding direction through the division
        inner = _ref_series_exp_dy(arith._dy_neg(a), prec + 4, _CEIL if rnd == _FLOOR else _FLOOR)
        return arith._dy_div(arith._DY_ONE, inner, prec, rnd)
    wk = w + max(pos, 0) + 8
    l2lo, l2hi = arith._ln2_scaled(wk)
    s = max(wk, -a.exp)
    x = a.man << (s + a.exp)
    k = x // (l2hi << (s - wk))
    l2 = l2hi if rnd == _FLOOR else l2lo
    r = arith._dy_round(x - ((k * l2) << (s - wk)), -s, w + 8, rnd)
    return arith._dy_round(arith._exp_series_scaled(r.man, -r.exp, w, rnd), k - w, prec, rnd)


def _ref_series_ln_dy(a, prec, rnd):
    _FLOOR = arith._FLOOR
    if a.sign <= 0:
        raise DomainError("log of a nonpositive value")
    if a == arith._DY_ONE:
        return arith._DY_ZERO
    w = prec + arith._GUARD
    bl = a.man.bit_length()
    s = a.exp + bl - 1  # a = m * 2^s with m in [1, 2)
    half = 1 << (bl - 1)
    # atanh argument z = (m-1)/(m+1) in [0, 1/3)
    at = 2 * arith._atanh_series_scaled(a.man - half, a.man + half, w, rnd)
    if s == 0:
        return arith._dy_round(at, -w, prec, rnd)
    wk = w + abs(s).bit_length() + 8
    l2lo, l2hi = arith._ln2_scaled(wk)
    sl2 = s * (l2lo if (s > 0) == (rnd == _FLOOR) else l2hi)
    # align scale 2^-wk with 2^-w (wk > w)
    return arith._dy_round(sl2 + (at << (wk - w)), -wk, prec, rnd)


def _ref_interval_exp(iv, prec):
    p = prec or iv.precision_bits
    return Interval(
        _ref_series_exp_dy(iv.lo, p, arith._FLOOR), _ref_series_exp_dy(iv.hi, p, arith._CEIL), p
    )


def _ref_interval_log(iv, prec):
    p = prec or iv.precision_bits
    if iv.lo.sign <= 0:
        raise DomainError("log of an interval reaching zero")
    return Interval(
        _ref_series_ln_dy(iv.lo, p, arith._FLOOR), _ref_series_ln_dy(iv.hi, p, arith._CEIL), p
    )


def _interval_outcome(fn, iv, prec):
    try:
        out = fn(iv, prec)
    except (DomainError, ResourceLimit) as exc:
        return type(exc).__name__
    return out.lo.man, out.lo.exp, out.hi.man, out.hi.exp, out.precision_bits


def _dyadic(rng, bits, mag, sign=1):
    """A random dyadic of sign, odd mantissa of `bits` bits and magnitude
    position mag (2^(mag-1) <= |value| < 2^mag)."""
    man = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    return arith.Dyadic(sign * man, mag - bits)


_BY_VALUE = functools.cmp_to_key(arith._dy_cmp)


class TestIntervalKernelReference:
    """Interval.log and Interval.exp against the per-end series reference, bit
    for bit: point, one-ulp and wide intervals; arguments near 1 and near
    powers of two; negative, mixed-sign, tiny and capped exp arguments."""

    PRECS = (16, 17, 53, 256, 1024, 4096)

    @staticmethod
    def _widen(ends, rng, prec):
        """Point, one-ulp and wide intervals over the sorted ends."""
        up = [arith._dy_nudge(a, prec, arith._CEIL) for a in ends]
        out = [(a, a) for a in ends] + list(zip(ends, up))
        for _ in range(len(ends)):
            a, b = sorted(rng.sample(ends, 2), key=_BY_VALUE)
            out.append((a, b))
        return [Interval(a, b, prec) for a, b in out]

    def _log_intervals(self, rng, prec):
        w = prec + arith._GUARD
        ends = []
        for j in (1, 2, 5, 20, prec // 2, prec, w, w + 9):  # 1 +- 2^-j
            ends += [arith.Dyadic((1 << j) + 1, -j), arith.Dyadic((1 << j) - 1, -j)]
        for s in (1, -1, 7, -30, rng.randint(1 << 20, 1 << 40)):  # near 2^s
            ends += [arith.Dyadic((1 << prec) + u, s - prec) for u in (-1, 0, 1)]
        for bits in (1, 3, prec, prec + 1, 2 * prec):
            ends += [_dyadic(rng, bits, rng.randint(-40, 40)) for _ in range(2)]
        ivs = self._widen(ends, rng, prec)
        ivs += [Interval.from_fraction(F(rng.randint(1, 10**9), rng.randint(1, 10**9)), prec)]
        for j in (3, prec // 2, w):  # straddling 1 and a power of two
            ivs.append(Interval(arith.Dyadic((1 << j) - 1, -j), arith.Dyadic((1 << j) + 1, -j), prec))
            ivs.append(Interval(arith.Dyadic((1 << j) - 1, 5 - j), arith.Dyadic((1 << j) + 1, 5 - j), prec))
        return ivs

    def _exp_intervals(self, rng, prec):
        w = prec + arith._GUARD
        cap = arith._MAG_CAP
        ends = []
        for sign in (1, -1):
            ends += [_dyadic(rng, rng.randint(1, prec), -w - rng.randint(0, 3), sign)]
            ends += [_dyadic(rng, 1, -w + 1, sign), _dyadic(rng, prec, -w + 1, sign)]
            for _ in range(5):
                mag = rng.randint(-w // 2, 12)
                ends.append(_dyadic(rng, rng.choice([1, 5, prec, 2 * prec]), mag, sign))
        # multiples of ln 2 on the kernel's own grid, where k changes
        for j in (1, 3, 1000):
            wk = w + ((j * 7 // 10).bit_length() or 1) + 8
            l2lo, l2hi = arith._ln2_scaled(wk)
            ends += [arith.Dyadic(j * l2hi, -wk), arith.Dyadic(j * l2lo, -wk)]
        ends.sort(key=_BY_VALUE)
        ivs = self._widen(ends, rng, prec)
        at_cap = [_dyadic(rng, prec, cap), _dyadic(rng, 1, cap), _dyadic(rng, 3, cap + 1)]
        for a in at_cap[:2]:
            ivs += [Interval(a, a, prec), Interval(arith._dy_neg(a), arith._dy_neg(a), prec)]
        ivs += [Interval(arith._DY_ONE, at_cap[2], prec), Interval(arith._dy_neg(at_cap[2]), arith._DY_ONE, prec)]
        return ivs

    def _compare(self, method, ref, intervals, prec):
        for iv in intervals:
            got = _interval_outcome(method, iv, prec)
            assert got == _interval_outcome(ref, iv, prec), (iv, prec)
        return len(intervals)

    def test_log_bit_identical_to_series_reference(self):
        rng = random.Random(20261019)
        compared = 0
        for prec in self.PRECS:
            ivs = self._log_intervals(rng, prec)
            if prec > 1024:
                ivs = rng.sample(ivs, 10)
            compared += self._compare(Interval.log, _ref_interval_log, ivs, prec)
        assert compared > 500

    def test_exp_bit_identical_to_series_reference(self):
        rng = random.Random(20261020)
        compared = limits = 0
        for prec in self.PRECS:
            ivs = self._exp_intervals(rng, prec)
            limits += sum(
                _interval_outcome(Interval.exp, iv, prec) == "ResourceLimit" for iv in ivs[-6:]
            )
            if prec > 1024:
                ivs = rng.sample(ivs[:-6], 10) + ivs[-6:]
            compared += self._compare(Interval.exp, _ref_interval_exp, ivs, prec)
        assert compared > 350 and limits > 0


class TestReducedBrackets:
    """The reduced fixed-point brackets that decide most ln and exp ends,
    and the series fallback behind them."""

    PRECS = (16, 17, 53, 256, 1024, 4096)

    @staticmethod
    def _mantissas(rng, prec):
        w = prec + arith._GUARD
        out = [1, 2, 3, (1 << prec) + 1, (1 << prec) - 1, (1 << w) + 1, (1 << (2 * w)) - 1]
        out += [_dyadic(rng, bits, bits).man for bits in (3, prec, w + 1, 2 * w + 5)]
        return out

    @staticmethod
    def _reduced(rng, prec):
        """r in [0, 0.7) on w + 8 bits, as _exp_reduced leaves it."""
        w = prec + arith._GUARD
        out = [arith._DY_ZERO, arith.Dyadic(1, -w - 8), arith.Dyadic(1, -1)]
        out += [arith.Dyadic((7 << (w + 4)) // 10 - 1, -(w + 8))]  # just below 0.7
        out += [_dyadic(rng, w + 8, -rng.randint(0, 40)) for _ in range(3)]
        return out

    def test_ln_bracket_contains_the_value(self):
        rng = random.Random(20261021)
        for prec in self.PRECS:
            w = prec + arith._GUARD
            with mpmath.workprec(2 * w):
                for man in self._mantissas(rng, prec):
                    lo, hi = arith._ln_fixed(man, w)
                    m = mpmath.mpf(man) / mpmath.mpf(2) ** (man.bit_length() - 1)
                    assert lo <= mpmath.log(m) * mpmath.mpf(2) ** w <= hi, (man, prec)
                    assert hi - lo <= 4

    def test_exp_bracket_contains_the_value(self):
        rng = random.Random(20261022)
        for prec in self.PRECS:
            w = prec + arith._GUARD
            with mpmath.workprec(2 * w):
                for r in self._reduced(rng, prec):
                    lo, hi = arith._exp_fixed(r, w)
                    x = mpmath.mpf(r.man) * mpmath.mpf(2) ** r.exp
                    assert lo <= mpmath.exp(x) * mpmath.mpf(2) ** w <= hi, (r, prec)
                    assert hi - lo <= 4

    def test_values_just_above_an_integer(self):
        """Brackets of values 2^-64 above an integer N: the working scale's
        guard bits would round an upper end without its slack down to N."""
        rng = random.Random(20261025)
        for prec in self.PRECS:
            w = prec + arith._GUARD
            with mpmath.workprec(2 * w + 200):
                for _ in range(3):
                    n = mpmath.mpf(rng.randint(1 << (w - 2), 1 << (w - 1)))  # ln m in [1/4, 1/2]
                    x = (n + mpmath.mpf(2) ** -64) / mpmath.mpf(2) ** w
                    man = int(mpmath.floor(mpmath.exp(x) * mpmath.mpf(2) ** (w + 80)))
                    lo, hi = arith._ln_fixed(man, w)
                    m = mpmath.mpf(man) / mpmath.mpf(2) ** (man.bit_length() - 1)
                    assert lo <= mpmath.log(m) * mpmath.mpf(2) ** w <= hi, (man, prec)
                    n = mpmath.mpf(rng.randint(1 << w, 3 << (w - 1)))  # e^r in [1, 3/2]
                    y = mpmath.log(n + mpmath.mpf(2) ** -64) - w * mpmath.log(2)
                    r = arith.Dyadic(int(mpmath.ceil(y * mpmath.mpf(2) ** (w + 80))), -w - 80)
                    assert 0 <= r.man and r.mag_bits <= 0
                    lo, hi = arith._exp_fixed(r, w)
                    rv = mpmath.mpf(r.man) * mpmath.mpf(2) ** r.exp
                    assert lo <= mpmath.exp(rv) * mpmath.mpf(2) ** w <= hi, (r, prec)

    def test_series_within_e_old(self, rng):
        """The series bounds lie within the E_old that _ln_round and
        _exp_round allow them: 2w + 32 for twice atanh, 2w + 16 for exp."""
        for _ in range(60):
            w = rng.randint(8, 600)
            d = rng.randint(2, 1 << rng.randint(2, 300))
            c = rng.randint(0, d // 3)
            k = rng.randint(1, 700)
            rc = rng.randint(0, (7 << k) // 10)
            with mpmath.workprec(2 * w + 64):
                ln = mpmath.log(mpmath.mpf(d + c) / (d - c)) * mpmath.mpf(2) ** w
                ex = mpmath.exp(mpmath.mpf(rc) / mpmath.mpf(2) ** k) * mpmath.mpf(2) ** w
                for rnd in (arith._FLOOR, arith._CEIL):
                    assert abs(2 * arith._atanh_series_scaled(c, d, w, rnd) - ln) <= 2 * w + 32
                    assert abs(arith._exp_series_scaled(rc, k, w, rnd) - ex) <= 2 * w + 16

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        series = getattr(arith, name)
        monkeypatch.setattr(arith, name, lambda *args: calls.append(args) or series(*args))
        return calls

    def test_undecided_ends_fall_back_to_the_series(self, monkeypatch):
        """Brackets too wide for the rounding test send every end to the
        series, which gives the reference's bits."""
        for name in ("_ln_fixed", "_exp_fixed"):
            fixed = getattr(arith, name)
            monkeypatch.setattr(
                arith, name, lambda x, w, fixed=fixed: tuple(
                    b + u * (1 << w) for b, u in zip(fixed(x, w), (-1, 1))
                )
            )
        atanh = self._count(monkeypatch, "_atanh_series_scaled")
        expser = self._count(monkeypatch, "_exp_series_scaled")
        rng = random.Random(20261023)
        for prec in (17, 53, 256):
            for _ in range(6):
                a = _dyadic(rng, prec, rng.randint(-6, 6))
                iv = Interval(a, arith._dy_nudge(a, prec, arith._CEIL), prec)
                for method, ref, calls in (
                    (Interval.log, _ref_interval_log, atanh),
                    (Interval.exp, _ref_interval_exp, expser),
                ):
                    del calls[:]
                    got = _interval_outcome(method, iv, prec)
                    assert len([c for c in calls if c[:2] != (1, 3)]) == 2  # not ln 2's
                    assert got == _interval_outcome(ref, iv, prec), (iv, prec)

    def test_ends_on_a_rounding_boundary_fall_back(self, monkeypatch):
        """ln m and e^a within 2^-2w of a prec-bit rounding boundary, on the
        side where the series bound rounds to the neighbour of the true
        value's rounding: only the series gives the reference's bits, so the
        rounding test must leave these ends to it."""
        atanh = self._count(monkeypatch, "_atanh_series_scaled")
        expser = self._count(monkeypatch, "_exp_series_scaled")
        rng = random.Random(20261024)
        for prec in (53, 256, 1024):
            w = prec + arith._GUARD
            for _ in range(3):
                g = rng.randint(1 << (prec - 1), (1 << prec) - 1)  # 2^w ln m = g 2^32
                h = rng.randint(1 << (prec - 1), (7 << prec) // 10)  # 2^w e^a = h 2^33
                with mpmath.workprec(4 * w):
                    m = mpmath.exp(mpmath.mpf(g) * mpmath.mpf(2) ** (32 - w)) * mpmath.mpf(2) ** (3 * w)
                    a = mpmath.log(mpmath.mpf(h) * mpmath.mpf(2) ** (1 - prec)) * mpmath.mpf(2) ** (w + 8)
                    ln_args = [arith.Dyadic(int(f(m)), -3 * w) for f in (mpmath.ceil, mpmath.floor)]
                    exp_args = [arith.Dyadic(int(f(a)), -w - 8) for f in (mpmath.ceil, mpmath.floor)]
                for method, ref, args, calls in (
                    (Interval.log, _ref_interval_log, ln_args, atanh),
                    (Interval.exp, _ref_interval_exp, exp_args, expser),
                ):
                    for x in args:
                        iv = Interval(x, x, prec)
                        del calls[:]
                        got = _interval_outcome(method, iv, prec)
                        assert calls, (x, prec)
                        assert got == _interval_outcome(ref, iv, prec), (x, prec)


def _ref_interval_pow(x, expo, prec=None):
    """x^expo for a positive interval x: the former Interval.pow, verbatim."""
    p = prec or x.precision_bits
    if x.lo.sign <= 0:
        raise DomainError("power base interval reaches zero")
    if x.lo == arith._DY_ONE and x.hi == arith._DY_ONE:
        return Interval.exact_one(p)
    if not isinstance(expo, Interval):
        e = F(expo)
        if e == 0:
            return Interval.exact_one(p)
        if e.denominator == 1 and abs(e.numerator) <= 4:
            # tiny integer powers: repeated interval multiplication
            n = e.numerator
            base = x if n > 0 else Interval.exact_one(p).div(x, p + 8)
            out = base
            for _ in range(abs(n) - 1):
                out = out.mul(base, p + 8)
            return out.round(p)
        y_mag = e.numerator.bit_length() - e.denominator.bit_length() + 1
        expo_iv = None
    else:
        y_mag = max(expo.lo.mag_bits, expo.hi.mag_bits)
        expo_iv = expo
    ln_mag = max(abs(x.lo.mag_bits), abs(x.hi.mag_bits)).bit_length() + 1
    w = p + arith._GUARD + max(0, y_mag) + ln_mag
    ln_x = x.log(w)
    if expo_iv is None:
        expo_iv = Interval.from_fraction(e, w)
    return ln_x.mul(expo_iv, w).exp(p)


def _ref_power_enclosure(e_expr, expr_r, e_expo, expo_r, w):
    """The former _power_enclosure, verbatim, on _ref_interval_pow."""

    def base_at(prec):
        if expr_r is not None:
            return Interval.from_fraction(expr_r, prec)
        return e_expr.enclosure(prec)

    if expo_r is not None:
        probe = expo_r
        mag = max(0, expo_r.numerator.bit_length() - expo_r.denominator.bit_length() + 1)
    else:
        probe = e_expo.enclosure(w)
        mag = max(probe.lo.mag_bits, probe.hi.mag_bits, 0)
    if mag > arith._MAG_CAP - 64:
        arith._check_exp_magnitude(base_at(w), probe, w)
    expo_arg = e_expo.enclosure(w + mag) if expo_r is None and mag > 0 else probe
    base_iv = base_at(w + mag)
    if base_iv.lo.sign <= 0:
        raise DomainError("nonpositive base of a fractional power")
    return _ref_interval_pow(base_iv, expo_arg, w)


class TestPowerEnclosureReference:
    """_power_enclosure against the former _power_enclosure on Interval.pow,
    bit for bit, errors included."""

    BASES = [
        const(F(3, 7)),
        const(F(10, 3)),
        const(2),
        const(1),
        const(F(1, 10**12)),
        exp_of(F(1, 3)),
        exp_of(F(-5, 2)),
        log_of(50),
        exp_of(40) - 1,
        (exp_of(2) - 1) / 7 + 1,
    ]
    EXPONENTS = [F(n) for n in range(-4, 5)] + [
        F(1, 2), F(-1, 3), F(7, 5), F(-22, 7), F(10**6, 3), F(-(10**9), 7), F(1, 10**9)
    ]
    # magnitudes 5, 1, 4, 0 and -4 (taken as 0)
    EXPRS = [exp_of(3), exp_of(F(1, 2)), log_of(10**6), 0 - exp_of(F(1, 4)), exp_of(-3)]

    @staticmethod
    def _outcome(fn, expr, expo, w):
        expr, expo = arith._coerce(expr), arith._coerce(expo)
        try:
            out = fn(expr, expr.exact_rational(), expo, expo.exact_rational(), w)
        except (DomainError, ResourceLimit) as exc:
            return type(exc).__name__
        return out.lo.man, out.lo.exp, out.hi.man, out.hi.exp, out.precision_bits

    def _same(self, expr, expo, w):
        got = self._outcome(arith._power_enclosure, expr, expo, w)
        assert got == self._outcome(_ref_power_enclosure, expr, expo, w), (expr, expo, w)
        return got

    def test_rational_and_expression_exponents(self):
        outcomes = []
        for w in (48, 288, 1056):
            for expr in self.BASES:
                for expo in self.EXPONENTS + self.EXPRS:
                    outcomes.append(self._same(expr, expo, w))
        assert len(outcomes) == 3 * 10 * 21
        assert not any(isinstance(o, str) for o in outcomes)

    def test_base_reaching_zero_raises_domain_error(self):
        # e^(10^-30) - 1 encloses as [0, ulp] at 48 bits
        base = exp_of(F(1, 10**30)) - 1
        for expo in (F(1, 2), F(-7, 3), exp_of(1)):
            assert self._same(base, expo, 48) == "DomainError"

    def test_exponents_past_the_magnitude_check(self):
        cap = arith._MAG_CAP
        # |expo ln 3| >= 2^cap already at w bits
        assert self._same(const(3), F(2**(cap + 6)), 48) == "ResourceLimit"
        assert self._same(const(F(1, 3)), F(-(2**(cap + 6)), 5), 48) == "ResourceLimit"
        # ln(1 + 2^-(cap - 64)) 2^(cap - 54) is about 2^10: checked, then computed
        near_one = const(1 + F(1, 2 ** (cap - 64)))
        for expo in (F(2 ** (cap - 54)), F(-(2 ** (cap - 54)), 3)):
            assert not isinstance(self._same(near_one, expo, 48), str)
        # reaches zero at w bits only: the check skips it, the exp refuses
        tiny = exp_of(F(1, 10**30)) - 1
        assert self._same(tiny, F(2 ** (cap - 4)), 48) == "ResourceLimit"
