"""Exact arithmetic and the certified interval engine.

The independent oracle for interval enclosures is mpmath evaluated at far
higher working precision than anything the engine uses; the engine itself
never touches floating point.
"""

import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircert.arith import (
    Interval,
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
