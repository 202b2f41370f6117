"""Exact arithmetic and the certified interval engine.

The independent oracle for interval enclosures is mpmath evaluated at far
higher working precision than anything the engine uses; the engine itself
never touches floating point.
"""

import functools
import hashlib
import random
import re
from math import isqrt
from fractions import Fraction as F
from unittest import mock

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

    @pytest.mark.parametrize("cap", [10, 11, 12, 13, 14, 100, 101])
    def test_listing_under_a_tiny_sieve_cap(self, cap, monkeypatch):
        """The sieve and its prime list at the smallest caps, both parities
        of limit, limits on and next to a prime."""
        monkeypatch.setattr(arith, "_SIEVE_CAP", cap)
        for name, value in (("_sieve_limit", 0), ("_is_prime", bytearray()), ("_primes", [])):
            monkeypatch.setattr(arith, name, value)
        assert arith.sieve_cap() == cap
        assert primes_upto(cap) == _trial_division_primes(cap)
        assert arith._sieve_limit == cap
        assert list(arith._is_prime) == [int(n in arith._primes) for n in range(cap + 1)]
        with pytest.raises(ResourceLimit):
            primes_upto(cap + 1)

    def test_is_prime_under_a_tiny_sieve_cap(self, monkeypatch):
        """Under a cap of 100 with the sieve reset: n above the sieve but
        within the cap grows the sieve to the cap; n past the cap is decided
        by trial division while isqrt(n) is within the cap, the primes
        between 97^2 and 101^2 included, and raises ResourceLimit past it."""
        monkeypatch.setattr(arith, "_SIEVE_CAP", 100)
        for name, value in (("_sieve_limit", 0), ("_is_prime", bytearray()), ("_primes", [])):
            monkeypatch.setattr(arith, name, value)
        assert is_prime(89)
        assert arith._sieve_limit == 100
        below = _trial_division_primes(100)
        assert [n for n in range(101) if is_prime(n)] == below

        def trial_division(n):
            return all(n % p for p in below if p * p <= n)

        for n in range(101, 101**2):
            assert is_prime(n) == trial_division(n), n
        assert arith._sieve_limit == 100
        assert not is_prime(101**2 + 1)
        with pytest.raises(ResourceLimit, match=f"primality of {101**2} needs primes"):
            is_prime(101**2)
        # past Python's 4,300-digit int -> str limit, which str() would raise ValueError at
        with pytest.raises(ResourceLimit, match=f"primality of {int_str(101**2500)} needs primes"):
            is_prime(101**2500)


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

        monkeypatch.setattr(arith, "_SIEVE_CAP", 100)
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

    # t = 2, 5/2 and convergents of e below it; t = 3 and convergents above
    BELOW_E = (F(2), F(5, 2), F(106, 39), F(2721, 1001))
    ABOVE_E = (F(3), F(193, 71), F(1457, 536))

    @pytest.mark.parametrize("bits", (16, 64, 256))
    def test_log_around_e(self, bits):
        """The enclosure holds max(1, ln t), and is the point 1 below e; the
        exact value is 1 exactly for t <= 2."""
        for t in self.BELOW_E + self.ABOVE_E:
            iv = log_of(t).enclosure(bits)
            assert _contains_ref(iv, max(1, mpmath.log(mpmath.mpf(t.numerator) / t.denominator))), t
            if t in self.BELOW_E:
                assert iv.lo == iv.hi == arith._DY_ONE, t
            else:
                assert iv.hi_cmp(1) > 0, t
            assert log_of(t).exact_rational() == (1 if t <= 2 else None), t

    def test_log_just_below_e_is_one_to_hi(self):
        """A convergent of e about 2^-46 below it: at 16 bits ln t's enclosure
        reaches past 1, so the clipped enclosure is [1, hi] with hi > 1; at
        64 bits it is the point 1."""
        t = F(14665106, 5394991)
        assert mpmath.mpf(t.numerator) / t.denominator < mpmath.e
        iv = log_of(t).enclosure(16)
        assert iv.lo == arith._DY_ONE and iv.hi_cmp(1) > 0
        assert log_of(t).enclosure(64).is_point()

    @pytest.mark.parametrize("bits", (16, 256))
    def test_log_below_e_to_a_huge_power_is_one(self, bits):
        """Log t to the power (e^(40C) - 1)/2 with C = 10^5, an exponent of
        about 2^(5.8*10^6): below e the factor is the point 1 at once, even
        for a convergent 2^-76 below e whose enclosure at 16 + 32 bits is
        [1, hi]; at t = 3 the exp argument's size is refused at once."""
        expo = (exp_of(40 * 10**5) - 1) / 2
        for t in (F(5, 2), F(534625820200, 196677847971)):
            iv = interval_eval(F(1), [(log_of(t), expo)], bits)
            assert iv.lo == iv.hi == arith._DY_ONE, t
        with pytest.raises(ResourceLimit):
            interval_eval(F(1), [(log_of(3), expo)], bits)

    def test_inverse_e_tight(self):
        iv = interval_eval(F(1), [(exp_of(1), -1)], 128)
        ref = mpmath.exp(-1)
        assert _contains_ref(iv, ref)
        assert iv.hi.as_fraction() - iv.lo.as_fraction() < F(1, 2**100)

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
                w = iv.hi.as_fraction() - iv.lo.as_fraction()
                if prev_width is not None:
                    assert w <= prev_width, (factors, prec)
                prev_width = w

    def test_division_by_zero_interval(self):
        a = Interval.from_fraction(F(1), 64)
        b = Interval.from_fraction(F(-1), 64).add(Interval.from_fraction(F(1), 64), 64)
        with pytest.raises(DomainError):
            a.div(b, 64)

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

    def test_mul_sign_handling(self):
        a = Interval.from_fraction(F(-3), 64)
        b = Interval.from_fraction(F(2), 64)
        out = a.mul(b, 64)
        assert out.contains(-6) and out.is_point()

    def test_inverted_ends_and_assignment_are_refused(self):
        with pytest.raises(InvalidParameter, match="inverted"):
            Interval(arith._DY_ONE, arith._DY_ZERO, 64)
        iv = Interval.exact_one(64)
        with pytest.raises(AttributeError, match="immutable"):
            iv.lo = arith._DY_ZERO
        assert iv.lo == arith._DY_ONE
        assert repr(iv) == "Interval[1.00000000000e+0, 1.00000000000e+0]@64b"

    def test_log_domain(self):
        with pytest.raises(DomainError, match="reaching zero"):
            Interval(arith._DY_ZERO, arith._DY_ONE, 64).log(64)
        with pytest.raises(InvalidParameter, match="t must be >= 1"):
            log_of(F(1, 2))
        assert repr(log_of(F(5, 2))) == "log_of(5/2)"


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

    def test_far_apart_sums_round_exactly(self):
        """The far-apart sum is the exact sum rounded once, for every
        mantissa length of the larger operand up to prec (1 is a power of
        two) and for longer ones, whose last bits may reach the smaller."""
        rng = random.Random(13)
        for prec in (16, 53):
            for a_bits in [*range(1, prec + 1), prec + 1, prec + 3, 2 * prec, 5 * prec]:
                for a_sign in (1, -1):
                    a = _dyadic(rng, a_bits, rng.randint(-20, 20), a_sign)
                    for b_sign in (1, -1):
                        for gap in (prec + 9, prec + 10, prec + 60, 1000):
                            b = _dyadic(rng, rng.randint(1, 40), a.mag_bits - gap, b_sign)
                            exact = a.as_fraction() + b.as_fraction()
                            for rnd in self.RNDS:
                                want = arith._dy_from_fraction(exact, prec, rnd)
                                assert arith._dy_add(a, b, prec, rnd) == want, (a, b, prec, rnd)
                                assert arith._dy_add(b, a, prec, rnd) == want, (a, b, prec, rnd)

    def test_short_mantissa_pads_one_ulp(self):
        tiny = arith.Dyadic(1, -1000)
        got = arith._dy_add(arith.Dyadic(3, 0), tiny, 53, arith._CEIL)
        assert got.as_fraction() == 3 + F(1, 2**51)
        got = arith._dy_add(arith._DY_ONE, arith._dy_neg(tiny), 53, arith._FLOOR)
        assert got.as_fraction() == 1 - F(1, 2**53)


class TestComparePower:
    def test_exact_cube(self):
        assert compare_power(F(8), F(1, 3), F(2)) == 0

    def test_strict(self):
        assert compare_power(F(8), F(1, 3), F(3)) < 0
        assert compare_power(F(9), F(1, 2), F(2)) > 0

    def test_power_bits_cap_on_both_sides(self):
        """base^a and rhs^b are built up to _POWER_BITS_CAP bits, counting
        numerator and denominator (4 and 1/4 have 3 + 1 bits), and refused
        one exponent step past it."""
        n = arith._POWER_BITS_CAP // 4
        assert n * 4 == arith._POWER_BITS_CAP
        for q in (F(4), F(1, 4)):
            assert compare_power(q, n, 2) == (1 if q > 1 else -1)
            assert compare_power(q, -n, 2) == (-1 if q > 1 else 1)
            assert compare_power(2, F(1, n), q) == (1 if q < 2 else -1)
            for args in ((q, n + 1, 2), (q, -n - 1, 2), (2, F(1, n + 1), q)):
                with pytest.raises(ResourceLimit, match="compare_power"):
                    compare_power(*args)

    def test_power_bits_cap_fails_before_the_power(self):
        """An exponent whose numerator or denominator has 31 or 5000 digits
        is refused at once, in one line that does not print it."""
        for expo in (5 - F(10, 10**30), F(10**5000 + 1, 3), F(1, 10**5000)):
            with pytest.raises(ResourceLimit) as info:
                compare_power(3, expo, 2)
            assert "\n" not in str(info.value) and len(str(info.value)) < 100

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
                c = 1 if iv.lo_cmp(r) > 0 else -1 if iv.hi_cmp(r) < 0 else 0
                if c != 0:
                    assert c == sign
                    break
                if sign == 0:
                    break  # exactly equal: intervals can never separate
                prec *= 2
                assert prec <= 8192


def _power_sites():
    """(site, who, bits, call) per caller of arith._power: call(n) asks it
    for a power of a base of `bits` bits (numerator and denominator) to the
    exponent n or -n, and who is the name its ResourceLimit gives."""
    from paircert.anatomy import count_chain_report, divisor_anatomy_bound, divisor_chain_report
    from paircert.compress import Slice, slice_system, verify_slice_identities
    from paircert.model import PairSystem, TOTIENT, WeightFunction, validate_multiplicative
    from paircert.resolution import s_majorant

    psi = WeightFunction({3: F(1, 3)})
    system = PairSystem(psi, psi, TOTIENT, TOTIENT, {(3, 3)})
    empty = slice_system(system, 2, 1, 0).tilde  # no v with nu_2(v) = 1

    def hand_slice(i, j):
        return Slice(2, i, j, empty, frozenset(), frozenset())

    # 4 and 1/4 have 3 + 1 bits, 2 has 2 + 1
    return [
        ("count_chain_report.K", "count_chain_report", 4, lambda n: count_chain_report(100, 10, n, 4)),
        ("count_chain_report.-K", "count_chain_report", 4, lambda n: count_chain_report(100, 10, -n, 4)),
        (
            "divisor_chain_report.K",
            "divisor_anatomy_bound",  # its own bound comes first, with the same power
            4,
            lambda n: divisor_chain_report(12, 10, n, 4, TOTIENT),
        ),
        ("divisor_anatomy_bound.K", "divisor_anatomy_bound", 4, lambda n: divisor_anatomy_bound(12, 10, n, 4)),
        ("divisor_anatomy_bound.-K", "divisor_anatomy_bound", 4, lambda n: divisor_anatomy_bound(12, 10, -n, 4)),
        ("s_majorant.K", "s_majorant", 4, lambda n: s_majorant(10, 4 * n, 4)),
        ("s_majorant.-K", "s_majorant", 4, lambda n: s_majorant(10, -4 * n, 4)),
        ("interval_eval.q^n", "interval_eval", 4, lambda n: interval_eval(1, [(4, n)], 64)),
        ("interval_eval.q^-n", "interval_eval", 4, lambda n: interval_eval(1, [(F(1, 4), -n)], 64)),
        ("interval_eval.0^n", "interval_eval", 1, lambda n: interval_eval(1, [(0, n)], 64)),  # 0 + 1 bits
        ("slice_system.i", "slice_system", 3, lambda n: slice_system(system, 2, n, 0)),
        ("slice_system.j", "slice_system", 3, lambda n: slice_system(system, 2, 0, n)),
        (
            "verify_slice_identities.i",
            "verify_slice_identities",
            3,
            lambda n: verify_slice_identities(system, hand_slice(n, 0), 10),
        ),
        (
            "verify_slice_identities.j",
            "verify_slice_identities",
            3,
            lambda n: verify_slice_identities(system, hand_slice(0, n), 10),
        ),
        ("prime_power.a", "prime_power", 3, lambda n: TOTIENT.prime_power(2, n)),
        ("one_star_prime_power.a", "one_star_prime_power", 3, lambda n: TOTIENT.one_star_prime_power(2, n)),
        (
            "validate_multiplicative.a",
            "validate_multiplicative",
            3,
            lambda n: validate_multiplicative(TOTIENT, [(2, n)]),
        ),
    ]


_POWER_SITES = _power_sites()


@pytest.mark.parametrize(
    "who, bits, call", [row[1:] for row in _POWER_SITES], ids=[row[0] for row in _POWER_SITES]
)
def test_power_bits_cap_at_every_site(who, bits, call):
    """Each caller of _power builds a power up to _POWER_BITS_CAP bits and
    refuses one exponent step past it, before building it."""
    cap = arith._POWER_BITS_CAP
    n = cap // bits
    call(n)
    with pytest.raises(ResourceLimit, match=f"^{who} needs a power past the cap of {cap} bits$"):
        call(n + 1)


def test_an_empty_slice_cell_at_the_power_cap():
    """p^i at the cap is built, and a cell that no v reaches still gives an
    empty slice."""
    from paircert.compress import slice_system
    from paircert.model import PairSystem, TOTIENT, WeightFunction

    psi = WeightFunction({3: F(1, 3)})
    i = arith._POWER_BITS_CAP // 3  # 2 has 2 + 1 bits
    s = slice_system(PairSystem(psi, psi, TOTIENT, TOTIENT, {(3, 3)}), 2, i, 0)
    assert (s.i, s.v_cell, s.w_cell, s.tilde.edges) == (i, frozenset(), frozenset({3}), frozenset())
    assert not s.tilde.psi.support()


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

    def test_int_str_around_the_splits(self):
        """int_str(n) == str(n), under the default digit limit, at 0, +-1,
        10^k +- 1 and 2^k +- 1 around _STR_BOUND and the sizes where the
        split recursion gains a level (each about twice the last), on both
        signs; str() is taken with the limit off, restored after."""
        import sys

        b0 = arith._STR_BOUND.bit_length()
        d0 = len(str(arith._STR_BOUND)) - 1
        ns = [0, 1, arith._STR_BOUND]
        for level in range(5):
            ns += [2 ** (b + (b0 << level)) + j for b in (-1, 0, 1) for j in (-1, 0, 1)]
            ns += [10 ** (d + (d0 << level)) + j for d in (-1, 0, 1) for j in (-1, 0, 1)]
        ns += [-n for n in ns]
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = [str(n) for n in ns]
        finally:
            sys.set_int_max_str_digits(old)
        assert max(map(len, want)) > 2 * old
        assert [int_str(n) for n in ns] == want


# The decimal writer as it stood before it went through the decimal module:
# the decimal exponent found by one Fraction step of 10 per power, then the
# mantissa truncated.  Kept verbatim as the reference that
# arith._fraction_decimal must match character for character.


def _ref_fraction_decimal(x: F, digits: int) -> str:
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


class TestFractionDecimalReference:
    """arith._fraction_decimal, which dyadic_str and so every report's
    interval ends go through, against the reference above."""

    def test_matches_the_reference(self):
        rng = random.Random(3604)
        xs = [F(0)]
        for k in range(-40, 41):  # exact powers of ten, and one unit off
            xs += [F(10) ** k, F(10) ** k * (1 + F(1, 10**25)), F(10) ** k * (1 - F(1, 10**25))]
        for _ in range(200):
            man = rng.getrandbits(rng.randint(1, 300)) | 1
            xs.append(arith.Dyadic(man, rng.randint(-4096, 4096)).as_fraction())
        xs += [-x for x in xs]
        for digits in (12, 20):
            assert [arith._fraction_decimal(x, digits) for x in xs] == [_ref_fraction_decimal(x, digits) for x in xs]

    def test_zero(self):
        assert arith._fraction_decimal(F(0), 12) == "0"
        assert arith.dyadic_str(arith.Dyadic(0, 5)) == "0"
        assert arith.interval_json(Interval(arith.Dyadic(0, 0), arith.Dyadic(1, 0), 16)) == ["0", "1.0000000000000000000e+0"]


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
                near += [_nudge(d, prec, rnd) for d in near for rnd in self.RNDS]
                near += [arith._dy_neg(d) for d in near[:2]] + [arith._DY_ZERO]
                for a in near + rng.sample(ds, 3):
                    assert arith._dy_cmp_fraction(a, x) == _ref_dy_cmp_fraction(a, x), (a, x)
                    compared += 1
            # dyadic rationals against themselves and their neighbours
            for d in ds:
                x = d.as_fraction()
                for a in (d, _nudge(d, prec, arith._FLOOR), arith._dy_neg(d)):
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


def _nudge(a, prec, rnd):
    """a moved one unit of its last place outward (toward rnd), then rounded
    to prec bits: a near value for the kernel references."""
    if a.man == 0:
        return arith.Dyadic(1 if rnd == arith._CEIL else -1, a.exp - prec)
    bl = abs(a.man).bit_length()
    step = 1 if rnd == arith._CEIL else -1
    return arith._dy_round(a.man + step * (1 if bl <= prec else 1 << (bl - prec)), a.exp, prec, rnd)


class TestIntervalKernelReference:
    """Interval.log and Interval.exp against the per-end series reference, bit
    for bit: point, one-ulp and wide intervals; arguments near 1 and near
    powers of two; negative, mixed-sign, tiny and capped exp arguments."""

    PRECS = (16, 17, 53, 256, 1024, 4096)

    @staticmethod
    def _widen(ends, rng, prec):
        """Point, one-ulp and wide intervals over the sorted ends."""
        up = [_nudge(a, prec, arith._CEIL) for a in ends]
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

    def test_ln_bracket_on_its_own_scale(self):
        """_ln_bracket against mpmath on the scale 2^f it sums on, where its
        slack is not hidden under the guard bits that _ln_fixed rounds away:
        small scales and the scales _ln_fixed takes; mantissas longer than
        f + 1 bits whose x lands one or two units above 2^f, so that z = 0
        and only the slack covers the value; m just below 2, which takes
        the most halvings; and random mantissas of every shape."""
        rng = random.Random(20261026)
        scales = [(8, 3), (12, 3), (20, 3), (40, 4)]
        for prec in self.PRECS:
            w = prec + arith._GUARD
            h = max(3, isqrt(w) >> 2)
            scales.append((w + 2 * h + 16, h))
        for f, h in scales:
            mans = [(1 << (f + 1)) - 1, (1 << (f + 2)) - 3]
            for t in (0, 1, 5, 40):
                # x = 2^f + 1 and 2^f + 2, each with the largest c that gives it
                mans += [(1 << (f + 1 + t)) + (1 << (t + 2)) - 1, (1 << (f + 1 + t)) + (3 << (t + 1)) - 1]
            for bits in (2, 3, f, f + 1, f + 2, 2 * f + 5):
                mans += [_dyadic(rng, bits, bits).man for _ in range(3)]
            with mpmath.workprec(2 * f + 64):
                for man in mans:
                    lo, hi = arith._ln_bracket(man, f, h)
                    m = mpmath.mpf(man) / mpmath.mpf(2) ** (man.bit_length() - 1)
                    assert lo <= mpmath.log(m) * mpmath.mpf(2) ** f <= hi, (man, f, h)

    def test_shared_upper_brackets_contain_the_value(self, monkeypatch):
        """The bracket that _ln_ends and _exp_ends derive for the upper end
        from the lower end's, checked on its own scale 2^w as it reaches
        _ln_round or _exp_round, with the ends as far apart as the sharing
        allows: (d/lo)^2 up to 2^-w for ln, d^2 up to 2^(-w-1) for exp."""
        calls = []
        for name in ("_ln_round", "_exp_round", "_ln_fixed", "_exp_fixed"):
            real = getattr(arith, name)
            monkeypatch.setattr(arith, name, lambda *a, real=real, name=name: calls.append((name, a)) or real(*a))
        rng = random.Random(20261027)
        shared = 0
        for prec in self.PRECS:
            w = prec + arith._GUARD
            for _ in range(12):
                # ln: one binade, lo's mantissa x near its bottom, the largest d
                bits = w + rng.randint(8, 60)
                x = (1 << (bits - 1)) + rng.getrandbits(bits - 12)
                d_bits = bits - 1 - (w + 1) // 2  # 2 (bitlen d - bitlen x + 1) <= -w
                d = rng.randint(1 << (d_bits - 1), (1 << d_bits) - 1)
                exp = rng.randint(-bits - 5, -bits + 5)
                calls.clear()
                arith._ln_ends(arith.Dyadic(x, exp), arith.Dyadic(x + d, exp), prec)
                assert [c[0] for c in calls] == ["_ln_fixed", "_ln_round", "_ln_round"]
                a, _, rnd, lo, hi = calls[2][1]
                assert rnd == arith._CEIL
                with mpmath.workprec(2 * w + 2 * bits):
                    m = mpmath.mpf(a.man) / mpmath.mpf(2) ** (a.man.bit_length() - 1)
                    assert lo <= mpmath.log(m) * mpmath.mpf(2) ** w <= hi, (x, d, exp, prec)
                # exp: hi - lo = delta with delta^2 <= 2^(-w-3), so the reduced
                # arguments differ by d with d^2 <= 2^(-w-1) unless k moves
                lo_ = _dyadic(rng, w, rng.randint(-6, 7))
                delta = arith.Dyadic(rng.getrandbits(w) | 1, -w - (w + 3 + 1) // 2)
                calls.clear()
                arith._exp_ends(lo_, arith._dy_add(lo_, delta, 3 * w, arith._CEIL), prec)
                if [c[0] for c in calls] != ["_exp_fixed", "_exp_round", "_exp_round"]:
                    continue  # k differs between the ends: hi went on its own
                shared += 1
                r, k, _, rnd, lo, hi = calls[2][1]
                assert rnd == arith._CEIL
                with mpmath.workprec(2 * w + 2 * (w + 8)):
                    e_r = mpmath.exp(mpmath.mpf(r.man) * mpmath.mpf(2) ** r.exp)
                    assert lo <= e_r * mpmath.mpf(2) ** w <= hi, (lo_, delta, prec)
        assert shared >= 60

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
                iv = Interval(a, _nudge(a, prec, arith._CEIL), prec)
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

    def test_a_base_still_one_past_the_cap_is_refused(self):
        """A base enclosed by [1, hi] even at w + _MAG_CAP bits gives the
        magnitude check nothing to refuse (ln 1 = 0): under an exponent of
        _MAG_CAP bits it is computed as before, one bit more is refused."""
        cap = arith._MAG_CAP
        near_one = const(1 + F(1, 2 ** (2 * cap)))
        assert not isinstance(self._same(near_one, F(2 ** (cap - 1)), 48), str)
        message = f"within 2\\^-{48 + cap} of 1 under an exponent of {cap + 1} bits"
        with pytest.raises(ResourceLimit, match=message):
            arith._power_enclosure(near_one, near_one.exact_rational(), const(2**cap), F(2**cap), 48)


def _ref_interval_mul(a, b, prec=None):
    """Interval.mul as it stood before its positive case, verbatim: the
    extremes of the four exact end products, picked by _me_cmp."""
    p = prec or max(a.precision_bits, b.precision_bits)
    cands = []
    for x in (a.lo, a.hi):
        for y in (b.lo, b.hi):
            cands.append((x.man * y.man, x.exp + y.exp))
    lo = hi = cands[0]
    for me in cands[1:]:
        if arith._me_cmp(me, lo) < 0:
            lo = me
        if arith._me_cmp(me, hi) > 0:
            hi = me
    return Interval(
        arith._dy_round(lo[0], lo[1], p, arith._FLOOR), arith._dy_round(hi[0], hi[1], p, arith._CEIL), p
    )


class TestIntervalMulReference:
    """Interval.mul against the four-candidate reference, bit for bit, on
    positive, negative, mixed and zero-touching intervals."""

    PRECS = (16, 53, 256, 1056)

    @staticmethod
    def _intervals(rng, prec):
        def dy(sign):
            if sign == 0:
                return arith._DY_ZERO
            bits = rng.choice((1, 3, prec - 1, prec, prec + 5, 2 * prec))
            return _dyadic(rng, bits, rng.randint(-40, 40), sign)

        out = []
        for lo_sign, hi_sign in ((1, 1), (-1, -1), (-1, 1), (0, 1), (-1, 0), (0, 0)):
            for _ in range(3):
                ends = sorted((dy(lo_sign), dy(hi_sign)), key=_BY_VALUE)
                out.append(Interval(*ends, rng.choice((prec, prec + 8))))
        for sign in (1, -1):  # points and one-ulp intervals
            a = dy(sign)
            out.append(Interval(a, a, prec))
            up = _nudge(arith._dy_round(a.man, a.exp, prec, arith._CEIL), prec, arith._CEIL)
            out.append(Interval(a, up, prec))
        return out

    def test_bit_identical_to_four_candidates(self):
        rng = random.Random(20261019)
        for prec in self.PRECS:
            ivs = self._intervals(rng, prec)
            for a in ivs:
                for b in ivs:
                    for p in (prec, prec + 8):
                        got, want = a.mul(b, p), _ref_interval_mul(a, b, p)
                        assert (got.lo, got.hi, got.precision_bits) == (want.lo, want.hi, want.precision_bits), (a, b, p)


class TestBoundExprHash:
    """A BoundExpr hashes as its key and equals an expression built alike;
    interval_eval's memo hits and misses on a campaign corpus are pinned."""

    @staticmethod
    def _build():
        C, t, K = F(1, 2), F(100), F(2)
        decay = (exp_of(40 * C) - 1) / 2
        return [
            const(3),
            const(F(-7, 3)),
            exp_of(F(5, 4)),
            log_of(t),
            decay,
            decay * log_of(t) + F(7, 3),
            1 / (decay - log_of(t)),
            K * exp_of(C) - const(F(1, 9)) * (log_of(10**6) + 1),
        ]

    def test_hash_is_the_key_hash(self):
        exprs, again = self._build(), self._build()
        for x, y in zip(exprs, again):
            assert x is not y and x == y
            assert hash(x) == hash(x.key) == hash(y)
        assert len(set(exprs) | set(again)) == len(exprs)
        assert {x: i for i, x in enumerate(exprs)}[again[5]] == 5

    def test_memo_hits_on_the_campaign_streams(self, monkeypatch):
        from paircert.harness import GeneratorConfig, generate_instance
        from paircert.quality import main_bound_check

        counts = {"get": 0, "compute": 0}

        class Counting(arith._Memo):
            def get(self, key, compute, *args):
                counts["get"] += 1

                def counted(*a):
                    counts["compute"] += 1
                    return compute(*a)

                return super().get(key, counted, *args)

        monkeypatch.setattr(arith, "_MEMO", Counting(256))
        for config in (GeneratorConfig(seed=20250809), GeneratorConfig(seed=20250810, f_mode="random")):
            for index in range(25):
                main_bound_check(*generate_instance(config, index))
        assert counts == {"get": 142, "compute": 35}


# ---------------------------------------------------------------------------
# One reader for every caller-supplied rational
# ---------------------------------------------------------------------------


def _reader_slots():
    """(name, call, int value, Fraction value): call(x) hands x to one
    rational argument of a public entry point, every other argument exact."""
    from paircert.model import PairSystem, TOTIENT, WeightFunction
    from paircert.quality import build_edge_set_bruteforce, certify_le
    from paircert.resolution import s_majorant, s_majorant_bridged, s_sums

    iv = Interval.from_fraction(F(1, 3), 64)
    psi = WeightFunction({1: F(1)})
    theta = WeightFunction({2: F(1, 4), 3: F(1, 9)})
    system = PairSystem(psi, theta, TOTIENT, TOTIENT, {(1, 2), (1, 3)})
    halves = WeightFunction({2: F(1, 2), 3: F(1, 3)})
    ninths = WeightFunction({2: F(1, 2), 9: F(1, 9)})
    e = [(exp_of(1), 1)]
    return [
        ("Interval.from_fraction", lambda x: Interval.from_fraction(x, 64), 3, F(1, 3)),
        ("Interval.lo_cmp", iv.lo_cmp, 0, F(1, 3)),
        ("Interval.hi_cmp", iv.hi_cmp, 1, F(1, 3)),
        ("Interval.contains", iv.contains, 0, F(1, 3)),
        ("const", lambda x: const(x).key, 3, F(3, 2)),
        ("exp_of", lambda x: exp_of(x).enclosure(64), 1, F(1, 2)),
        ("log_of", lambda x: log_of(x).enclosure(64), 10, F(7, 2)),
        ("interval_eval.base", lambda x: interval_eval(x, e, 64), 3, F(1, 3)),
        ("compare_power.base", lambda x: compare_power(x, F(1, 2), 2), 4, F(9, 2)),
        ("compare_power.expo", lambda x: compare_power(2, x, 3), 2, F(3, 2)),
        ("compare_power.rhs", lambda x: compare_power(2, F(1, 2), x), 1, F(3, 2)),
        ("primes_upto", primes_upto, 30, F(77, 2)),
        ("prime_flags", lambda x: bytes(arith.prime_flags(x)), 30, F(77, 2)),
        ("valuation", lambda x: valuation(2, x), 12, F(3, 8)),
        ("certify_le.lhs", lambda x: certify_le(x, 1, e, 64), 3, F(5, 2)),
        ("s_sums.K", lambda x: s_sums(system, system.edges, 1, 10, x), 0, F(9, 2)),
        ("s_majorant.K", lambda x: s_majorant(10, x, 2), 4, F(1, 2)),
        ("s_majorant.gamma", lambda x: s_majorant(10, 4, x), 2, F(11, 10)),
        ("s_majorant_bridged.t", lambda x: s_majorant_bridged(x, 1, 1, 64), 10, F(23, 2)),
        ("s_majorant_bridged.K", lambda x: s_majorant_bridged(10, x, 1, 64), 1, F(1, 2)),
        ("s_majorant_bridged.C", lambda x: s_majorant_bridged(10, 1, x, 64), 1, F(1, 2)),
        (
            "build_edge_set_bruteforce.K",
            lambda x: build_edge_set_bruteforce(halves, ninths, 10, x),
            0,
            F(1, 2),
        ),
        (
            "build_edge_set_bruteforce.t",
            lambda x: build_edge_set_bruteforce(halves, ninths, x, 1),
            2,
            F(7, 2),
        ),
    ]


_READER_SLOTS = _reader_slots()


def _exact_form(value):
    """value with each interval as its dyadic ends and precision, and a
    frozenset sorted, so that its repr is exact and stable."""
    if isinstance(value, Interval):
        return (value.lo.man, value.lo.exp, value.hi.man, value.hi.exp, value.precision_bits)
    if isinstance(value, tuple):
        return tuple(map(_exact_form, value))
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def _reader_digest(value) -> str:
    """The first 16 hex digits of the sha256 of repr(_exact_form(value))."""
    return hashlib.sha256(repr(_exact_form(value)).encode()).hexdigest()[:16]


# name: (digest of the int's result, digest of the Fraction's result)
_READER_DIGESTS = {
    "Interval.from_fraction": ("f41772ee6dac53b9", "fd072273c12dc122"),
    "Interval.lo_cmp": ("6b86b273ff34fce1", "1bad6b8cf97131fc"),
    "Interval.hi_cmp": ("1bad6b8cf97131fc", "6b86b273ff34fce1"),
    "Interval.contains": ("60a33e6cf5151f2d", "3cbc87c7681f34db"),
    "const": ("85f6157bf134de59", "41ca10bfa64447ff"),
    "exp_of": ("057b87ab97d1d8e8", "240c34d611027d47"),
    "log_of": ("61351721dc3885d5", "daaa60023c231005"),
    "interval_eval.base": ("c1b3f63c10a64e6a", "6071108338d49f71"),
    "compare_power.base": ("5feceb66ffc86f38", "6b86b273ff34fce1"),
    "compare_power.expo": ("6b86b273ff34fce1", "1bad6b8cf97131fc"),
    "compare_power.rhs": ("6b86b273ff34fce1", "1bad6b8cf97131fc"),
    "primes_upto": ("989050046826db9c", "b6ae808b78a95836"),
    "prime_flags": ("f40263fedcb0e4bb", "e61fd5344625a72b"),
    "valuation": ("d4735e3a265e16ee", "615bdd17c2556f82"),
    "certify_le.lhs": ("cc162969e1c447a1", "085ece7f6a2e010b"),
    "s_sums.K": ("a48cba59481b4d9e", "34d00f076940b876"),
    "s_majorant.K": ("ff7320c9439e5b60", "796cb464aee7adf5"),
    "s_majorant.gamma": ("ff7320c9439e5b60", "b3ee61ade6e7f443"),
    "s_majorant_bridged.t": ("cdc5fff5a0a4137d", "e7a494efe5786ca0"),
    "s_majorant_bridged.K": ("cdc5fff5a0a4137d", "88b21898b6966221"),
    "s_majorant_bridged.C": ("cdc5fff5a0a4137d", "4c44e92fd98673b3"),
    "build_edge_set_bruteforce.K": ("49393b6739a80f8b", "fcd3d887a5aeb093"),
    "build_edge_set_bruteforce.t": ("4f53cda18c2baa0c", "fcd3d887a5aeb093"),
}


@pytest.mark.parametrize("value", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "call", [slot[1] for slot in _READER_SLOTS], ids=[slot[0] for slot in _READER_SLOTS]
)
def test_a_float_or_a_bool_is_no_exact_rational(call, value):
    """Every rational argument of a public entry point goes through one
    reader, arith._rational, which takes neither a float nor a bool."""
    with pytest.raises(InvalidParameter, match="not an exact rational"):
        call(value)


@pytest.mark.parametrize("name, call, n, q", _READER_SLOTS, ids=[s[0] for s in _READER_SLOTS])
def test_an_int_or_a_fraction_keeps_its_value(name, call, n, q):
    """The same slots still take an int and a Fraction, with the results
    they had before the reader (pinned as digests)."""
    assert (_reader_digest(call(n)), _reader_digest(call(q))) == _READER_DIGESTS[name]


# ---------------------------------------------------------------------------
# One registry of the public numeric slots, one guard
# ---------------------------------------------------------------------------


def _cli_precision(bits) -> None:
    """paircert --precision bits anatomy mertens, with its exit 4 raised as
    the InvalidParameter that its one stderr line reports (an argparse
    usage error for a value that is not an int)."""
    import contextlib
    import io

    from paircert.cli import main

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["--precision", str(bits), "anatomy", "mertens", "--t", "10"])
        except SystemExit as exc:
            code = exc.code
    if code == 4:
        raise InvalidParameter(err.getvalue().strip())
    assert code == 0


def _slot_registry():
    """(callable, parameter, domain, call) per public numeric slot: call(x)
    hands x to that parameter of the public entry point module.name, every
    other argument valid. domain names the one reader of the slot and its
    bounds: ("t",) for arith._t_floor, ("precision",) for arith._precision,
    ("int", least, most) for arith._integer (None: an open end) and
    ("above", bound, or_equal) for arith._rational_above."""
    from paircert import anatomy, compress, harness, quality, resolution
    from paircert.model import PairSystem, TOTIENT, WeightFunction

    halves = WeightFunction({2: F(1, 2), 3: F(1, 3)})
    ninths = WeightFunction({2: F(1, 2), 9: F(1, 9)})
    system = PairSystem(halves, ninths, TOTIENT, TOTIENT, {(2, 2), (3, 9)})
    cell = compress.slice_system(system, 3, 1, 2)  # the slice edge (1, 1), i != j
    structured = PairSystem(
        WeightFunction({1: F(1)}), WeightFunction({2: F(1, 4), 3: F(1, 9)}), TOTIENT, TOTIENT, {(1, 2), (1, 3)}
    )
    one = WeightFunction({3: F(1, 3)})
    config = harness.GeneratorConfig()

    def params(**fields):
        return quality.Params(**{"epsilon": F(1, 4), "C": F(1), "t": F(10), "K": F(0), **fields})

    class FirstInstance(Exception):
        pass

    def campaign_count(n):
        """certify_campaign(config, n) stopped at its first instance, after
        count is read: a count of 2^24 is not run."""
        with mock.patch.object(harness, "generate_instance", side_effect=FirstInstance):
            with pytest.raises(FirstInstance):
                harness.certify_campaign(config, n)

    t_slots = [
        ("arith.primes_upto", primes_upto),
        ("arith.prime_flags", arith.prime_flags),
        ("arith.log_of", log_of),
        ("quality.Params", lambda t: params(t=t)),
        ("quality.omega_t", lambda t: quality.omega_t(2, 3, t)),
        ("quality.build_edge_set", lambda t: quality.build_edge_set(halves, ninths, t, 1)),
        ("quality.stray_edges", lambda t: quality.stray_edges(halves, ninths, system.edges, t, 1)),
        ("quality.build_edge_set_bruteforce", lambda t: quality.build_edge_set_bruteforce(halves, ninths, t, 1)),
        ("anatomy.small_prime_divisor_count", lambda t: anatomy.small_prime_divisor_count(30, t)),
        ("anatomy.count_many_small_primes", lambda t: anatomy.count_many_small_primes(100, t, 2)),
        ("anatomy.rankin_sum", lambda t: anatomy.rankin_sum(100, t, 2)),
        ("anatomy.divisor_anatomy_sum", lambda t: anatomy.divisor_anatomy_sum(12, t, 1, TOTIENT)),
        ("anatomy.rankin_divisor_sum", lambda t: anatomy.rankin_divisor_sum(12, t, 2, TOTIENT)),
        ("anatomy.rankin_divisor_product", lambda t: anatomy.rankin_divisor_product(12, t, 2, TOTIENT)),
        ("anatomy.divisor_anatomy_bound", lambda t: anatomy.divisor_anatomy_bound(12, t, 1, 2)),
        ("anatomy.mertens_product", lambda t: anatomy.mertens_product(t, 2)),
        ("anatomy.ratio_to_log_power", lambda t: anatomy.ratio_to_log_power(t, 2)),
        ("anatomy.count_chain_report", lambda t: anatomy.count_chain_report(100, t, 1, 2)),
        ("anatomy.divisor_chain_report", lambda t: anatomy.divisor_chain_report(12, t, 1, 2, TOTIENT)),
        ("compress.slice_k_shift", lambda t: compress.slice_k_shift(cell, t)),
        ("compress.verify_slice_identities", lambda t: compress.verify_slice_identities(system, cell, t)),
        ("resolution.s_sums", lambda t: resolution.s_sums(structured, structured.edges, 1, t, 0)),
        ("resolution.s_majorant", lambda t: resolution.s_majorant(t, 4, 2)),
        ("resolution.s_majorant_bridged", lambda t: resolution.s_majorant_bridged(t, 1, 1, 64)),
        ("harness.corollary_bound_check", lambda t: harness.corollary_bound_check(halves, F(1, 2), 1, t, 0)),
    ]
    precision_slots = [
        ("arith.interval_eval", lambda bits: interval_eval(1, [(exp_of(1), 1)], bits)),
        ("quality.certify_le", lambda bits: quality.certify_le(2, 1, [(exp_of(1), 1)], bits)),
        ("quality.Params", lambda bits: params(precision_bits=bits)),
        ("resolution.s_majorant", lambda bits: resolution.s_majorant(10, 1, 2, bits)),
        ("resolution.s_majorant_bridged", lambda bits: resolution.s_majorant_bridged(10, 1, 1, bits)),
        ("anatomy.divisor_anatomy_bound", lambda bits: anatomy.divisor_anatomy_bound(12, 10, F(1, 2), 2, bits)),
        ("anatomy.ratio_to_log_power", lambda bits: anatomy.ratio_to_log_power(10, 2, bits)),
        (
            "harness.corollary_bound_check",
            lambda bits: harness.corollary_bound_check(one, F(1, 2), 1, 1, 0, precision_bits=bits),
        ),
        ("cli.--precision", _cli_precision),
    ]
    int_slots = [
        ("anatomy.divisor_anatomy_sum", "M", 1, None, lambda M: anatomy.divisor_anatomy_sum(M, 10, 1, TOTIENT)),
        ("anatomy.rankin_divisor_sum", "M", 1, None, lambda M: anatomy.rankin_divisor_sum(M, 10, 2, TOTIENT)),
        ("anatomy.rankin_divisor_product", "M", 1, None, lambda M: anatomy.rankin_divisor_product(M, 10, 2, TOTIENT)),
        ("anatomy.divisor_anatomy_bound", "M", 1, None, lambda M: anatomy.divisor_anatomy_bound(M, 10, 1, 2)),
        ("anatomy.divisor_chain_report", "M", 1, None, lambda M: anatomy.divisor_chain_report(M, 10, 1, 2, TOTIENT)),
        ("compress.slice_system", "i", 0, None, lambda i: compress.slice_system(system, 3, i, 0)),
        ("compress.slice_system", "j", 0, None, lambda j: compress.slice_system(system, 3, 0, j)),
        ("harness.GeneratorConfig", "seed", 0, None, lambda n: harness.GeneratorConfig(seed=n)),
        ("harness.GeneratorConfig", "support_min", 0, None, lambda n: harness.GeneratorConfig(support_min=n)),
        (
            "harness.GeneratorConfig",
            "support_max",
            None,
            None,
            lambda n: harness.GeneratorConfig(support_min=0, support_max=n),
        ),
        (
            "harness.GeneratorConfig",
            "value_numerator_bound",
            1,
            None,
            lambda n: harness.GeneratorConfig(value_numerator_bound=n),
        ),
        ("harness.GeneratorConfig", "prime_pool_bound", 2, None, lambda n: harness.GeneratorConfig(prime_pool_bound=n)),
        ("harness.GeneratorConfig", "max_exponent", 1, None, lambda n: harness.GeneratorConfig(max_exponent=n)),
        ("harness.GeneratorConfig", "element_bound", 1, None, lambda n: harness.GeneratorConfig(element_bound=n)),
        ("harness.generate_instance", "index", 0, (1 << 32) - 1, lambda n: harness.generate_instance(config, n)),
        ("harness.certify_instance", "index", 0, None, lambda n: harness.certify_instance(system, params(), index=n)),
        (
            "harness.certify_instance",
            "slice_spots",
            0,
            None,
            lambda n: harness.certify_instance(system, params(), slice_spots=n),
        ),
        ("harness.certify_campaign", "count", 1, 1 << 24, campaign_count),
        ("harness.rescale_kmy", "Q", None, None, lambda n: harness.rescale_kmy(halves, 2, n)),
        (
            "harness.corollary_bound_check",
            "p0",
            1,
            None,
            lambda n: harness.corollary_bound_check(one, F(1, 2), 1, 1, 0, p0=n),
        ),
        ("quality.Params", "p0", 1, None, lambda n: params(p0=n)),
        ("model.MultiplicativeFunction.prime_power", "p", 2, None, lambda p: TOTIENT.prime_power(p, 1)),
        ("model.MultiplicativeFunction.prime_power", "a", 0, None, lambda a: TOTIENT.prime_power(3, a)),
        (
            "model.MultiplicativeFunction.one_star_prime_power",
            "p",
            2,
            None,
            lambda p: TOTIENT.one_star_prime_power(p, 1),
        ),
        (
            "model.MultiplicativeFunction.one_star_prime_power",
            "a",
            0,
            None,
            lambda a: TOTIENT.one_star_prime_power(3, a),
        ),
        ("quality.omega_t", "v", 1, None, lambda v: quality.omega_t(v, 3, 10)),
        ("quality.omega_t", "w", 1, None, lambda w: quality.omega_t(2, w, 10)),
        ("quality.d_value", "v", 1, None, lambda v: quality.d_value(v, 3, halves, ninths)),
        ("quality.d_value", "w", 1, None, lambda w: quality.d_value(2, w, halves, ninths)),
        ("resolution.decompose", "v", 1, None, lambda v: resolution.decompose(v, 1)),
        ("resolution.decompose", "N", 1, None, lambda N: resolution.decompose(1, N)),
        ("resolution.check_structured", "N", 1, None, lambda N: resolution.check_structured(structured.edges, N)),
        (
            "resolution.build_decomposition",
            "N",
            1,
            None,
            lambda N: resolution.build_decomposition(structured.edges, N),
        ),
        ("resolution.s_sums", "N", 1, None, lambda N: resolution.s_sums(structured, structured.edges, N, 10, 0)),
        (
            "resolution.resolution_check",
            "N",
            1,
            None,
            lambda N: resolution.resolution_check(structured, structured.edges, N, params()),
        ),
    ]
    above_slots = [
        ("anatomy.rankin_sum", "gamma", 0, False, lambda g: anatomy.rankin_sum(100, 10, g)),
        ("anatomy.mertens_product", "gamma", 1, True, lambda g: anatomy.mertens_product(10, g)),
        ("anatomy.ratio_to_log_power", "gamma", 1, True, lambda g: anatomy.ratio_to_log_power(10, g)),
        ("anatomy.count_chain_report", "gamma", 1, True, lambda g: anatomy.count_chain_report(100, 10, 1, g)),
        ("anatomy.divisor_anatomy_bound", "gamma", 1, False, lambda g: anatomy.divisor_anatomy_bound(12, 10, 1, g)),
        (
            "anatomy.divisor_chain_report",
            "gamma",
            1,
            False,
            lambda g: anatomy.divisor_chain_report(12, 10, 1, g, TOTIENT),
        ),
        ("resolution.s_majorant", "gamma", 1, False, lambda g: resolution.s_majorant(10, 4, g)),
        ("quality.Params", "C", 0, False, lambda C: params(C=C)),
        ("harness.corollary_bound_check", "C", 0, False, lambda C: harness.corollary_bound_check(one, F(1, 2), C, 1, 0)),
        ("harness.rescale_kmy", "y", 0, False, lambda y: harness.rescale_kmy(halves, y, 10)),
        ("arith.interval_eval", "base", 0, True, lambda q: interval_eval(q, [(exp_of(1), 1)], 64)),
        ("arith.compare_power", "base", 0, False, lambda q: compare_power(q, F(1, 2), 2)),
        ("arith.compare_power", "rhs", 0, False, lambda q: compare_power(2, F(1, 2), q)),
        ("quality.certify_le", "base", 0, True, lambda q: quality.certify_le(1, q, [(exp_of(1), 1)], 64)),
    ]
    return (
        [(name, "t", ("t",), call) for name, call in t_slots]
        + [(name, "precision_bits", ("precision",), call) for name, call in precision_slots]
        + [(name, param, ("int", least, most), call) for name, param, least, most, call in int_slots]
        + [(name, param, ("above", bound, or_equal), call) for name, param, bound, or_equal, call in above_slots]
    )


_SLOTS = _slot_registry()

_REPORT = "a report or result type: its fields are outputs, not inputs"
_BY_IS_PRIME = "read by is_prime, whose n keeps its own message"
_BY_FACTORIZE = "read by factorize, whose n keeps its own message"
_ANY_GAMMA = "any rational, read by _rational: the divisor-sum identity holds for every gamma"

# public numeric parameters with no row in _SLOTS, each with its reason; a
# key names one parameter, or a callable and every parameter of it and its
# methods
_SLOT_EXEMPT = {
    "anatomy.AnatomyReport": _REPORT,
    "anatomy.small_prime_divisor_count.n": _BY_FACTORIZE,
    "anatomy.rankin_divisor_sum.gamma": _ANY_GAMMA,
    "anatomy.rankin_divisor_product.gamma": _ANY_GAMMA,
    "arith.is_prime.n": _BY_IS_PRIME,
    "arith.prime_divisors.n": _BY_FACTORIZE,
    "arith.divisors.n": _BY_FACTORIZE,
    "arith.valuation.p": _BY_IS_PRIME,
    "arith.coprime_fraction": "a kernel for coprime ints its callers build, unchecked by design",
    "arith.int_str": "a formatter of numbers the package built",
    "arith.dyadic_str": "a formatter of numbers the package built",
    "arith.Dyadic": "a value type: the ends of an Interval",
    "arith.Interval": "a working precision: the package runs Interval past the cap (_power_enclosure at w + mag)",
    "arith.BoundExpr.enclosure": "a working precision, as for Interval's methods",
    "compress.Slice": "a result of slice_system, which reads p, i and j",
    "compress.IdentityCheck": _REPORT,
    "compress.SliceIdentityReport": _REPORT,
    "compress.slice_system.p": _BY_IS_PRIME,
    "diagonal.CellCheck": _REPORT,
    "diagonal.CenterResult": _REPORT,
    "diagonal.ConcentrateResult": _REPORT,
    "diagonal.DecayReport": _REPORT,
    "diagonal.PeelStep": _REPORT,
    "diagonal.DiagonalMeasure": "a measure that diagonal_measure builds, its p read by is_prime there",
    "diagonal.diagonal_measure.p": _BY_IS_PRIME,
    "harness.CampaignReport": _REPORT,
    "harness.InstanceOutcome": _REPORT,
    "model.SideMasses": "a view that vertex_masses builds",
    "model.WeightFunction.value.v": "a lookup: every v off the support has weight 0",
    "model.mu_point.v": "a lookup, as WeightFunction.value: f(v) is asked only on the support",
    "quality.BoundReport": "a report field: the precision at which a verdict settled, not an input",
    "resolution.Decomposition": "a result of build_decomposition, which reads N",
    "resolution.SSums": _REPORT,
    "resolution.s_majorant_bridged.C": "any rational, read by _rational: gamma = e^(40 C)",
}

# rationals with a domain; every int-annotated parameter is a slot too
_BOUNDED_NAMES = {"t", "precision_bits", "gamma", "C", "y", "base", "rhs"}


def _slot_params(reader):
    """parametrize's arguments for the rows of _SLOTS read by reader, as
    (parameter, domain, call); a t or precision row's id is its callable
    alone, any other row's callable.parameter."""
    rows = [row for row in _SLOTS if row[2][0] == reader]
    return {
        "argnames": "param, domain, call",
        "argvalues": [row[1:] for row in rows],
        "ids": [name if reader in ("t", "precision") else f"{name}.{param}" for name, param, _, _ in rows],
    }


@pytest.mark.parametrize(**_slot_params("t"))
def test_every_prime_bound_is_read_by_one_reader(param, domain, call):
    """Each public t goes through arith._t_floor: t >= 1 is taken, t < 1
    raises its one message, and a float or a bool is no exact rational."""
    call(1)
    call(F(7, 2))
    for t in (F(1, 2), 0, -5):
        with pytest.raises(InvalidParameter, match="t must be >= 1, got"):
            call(t)
    for t in (1.5, True):
        with pytest.raises(InvalidParameter, match="not an exact rational"):
            call(t)


@pytest.mark.parametrize(**_slot_params("precision"))
def test_every_precision_is_read_by_one_reader(param, domain, call):
    """Each public precision goes through arith._precision: an int in [16,
    2^14] is taken; any other int, a bool or a float raises its message."""
    call(16)
    call(1 << 14)
    for bits in (0, 15, (1 << 14) + 1):
        with pytest.raises(InvalidParameter, match=rf"outside \[16, 2\^14\]: {bits}$"):
            call(bits)
    for bits in (True, 256.0):
        with pytest.raises(InvalidParameter, match=r"must be an integer, got|invalid int value"):
            call(bits)


@pytest.mark.parametrize(**_slot_params("int"))
def test_every_int_slot_is_read_by_one_reader(param, domain, call):
    """Each public int slot goes through arith._integer: an int at either
    end of its range is taken; one step past an end, a bool, a float or a
    numeral string raises its message, led by the parameter's name."""
    _, least, most = domain
    call(0 if least is None else least)
    if most is not None:
        call(most)
        with pytest.raises(InvalidParameter, match=f"^{param} must be <= {most}, got {most + 1}$"):
            call(most + 1)
    if least is not None:
        with pytest.raises(InvalidParameter, match=f"^{param} must be >= {least}, got {least - 1}$"):
            call(least - 1)
    for value in (True, 2.0, "2"):
        with pytest.raises(InvalidParameter, match=re.escape(f"{param} must be an integer, got {value!r}")):
            call(value)


@pytest.mark.parametrize(**_slot_params("above"))
def test_every_lower_bounded_rational_is_read_by_one_reader(param, domain, call):
    """Each public gamma, C and y goes through arith._rational_above: a
    rational past its bound is taken, the bound itself only where it is
    allowed; one at or below it raises its message, and a float or a bool
    is no exact rational."""
    _, bound, or_equal = domain
    call(bound + F(1, 2))
    refused = [bound - F(1, 2)]
    if or_equal:
        call(bound)
    else:
        refused.append(bound)
    relation = ">=" if or_equal else ">"
    for q in refused:
        with pytest.raises(InvalidParameter, match=f"^{param} must be {relation} {bound}, got {fraction_str(q)}$"):
            call(q)
    for value in (1.5, True):
        with pytest.raises(InvalidParameter, match="not an exact rational"):
            call(value)


def _public_numeric_parameters(package):
    """{(module.callable, parameter): inspect.Parameter} for every parameter
    of a public function, class or method of package that is annotated int
    or is named in _BOUNDED_NAMES."""
    import importlib
    import inspect
    import pkgutil

    found = {}
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            callables = {f"{info.name}.{name}": obj}
            if inspect.isclass(obj):
                callables.update(
                    (f"{info.name}.{name}.{attr}", getattr(obj, attr))
                    for attr, member in vars(obj).items()
                    if not attr.startswith("_")
                    and (inspect.isfunction(member) or isinstance(member, (staticmethod, classmethod)))
                )
            for key, member in callables.items():
                try:
                    parameters = inspect.signature(member).parameters
                except ValueError:  # a builtin base, such as an exception's
                    continue
                for parameter in parameters.values():
                    if parameter.annotation in ("int", "Optional[int]") or parameter.name in _BOUNDED_NAMES:
                        found[(key, parameter.name)] = parameter
    return found


def _exemption(key, name):
    """The _SLOT_EXEMPT key that covers parameter name of callable key, or None."""
    parts = f"{key}.{name}".split(".")
    return next((k for k in (".".join(parts[:n]) for n in range(2, len(parts) + 1)) if k in _SLOT_EXEMPT), None)


def _registered(reader):
    """{(callable, parameter)} of the rows of _SLOTS read by reader, past the CLI's."""
    return {(name, param) for name, param, domain, _ in _SLOTS if domain[0] == reader and not name.startswith("cli.")}


def test_slot_registry_names_every_public_numeric_parameter():
    """Every public numeric parameter of the package has a row in _SLOTS or
    a reason in _SLOT_EXEMPT, and every row and every reason names one."""
    import paircert

    found = _public_numeric_parameters(paircert)
    used = {_exemption(*slot) for slot in found} - {None}
    slots = {slot for slot in found if _exemption(*slot) is None}
    registered = {(name, param) for name, param, _, _ in _SLOTS if not name.startswith("cli.")}
    assert sorted(slots - registered) == [], "public numeric parameters with no row or reason"
    assert sorted(registered - slots) == [], "rows that name no public numeric parameter"
    assert sorted(set(_SLOT_EXEMPT) - used) == [], "reasons that name no public numeric parameter"


def test_t_slots_name_every_public_parameter_t():
    """Every public callable of the package that takes a t has a t row in
    _SLOTS or a reason in _SLOT_EXEMPT, and every t row names one."""
    import paircert

    found = {slot for slot in _public_numeric_parameters(paircert) if slot[1] == "t" and _exemption(*slot) is None}
    assert found == _registered("t")


def test_precision_slots_name_every_public_precision_bits():
    """Every public callable of the package that takes a precision_bits has
    a precision row in _SLOTS or a reason in _SLOT_EXEMPT, every precision
    row names one, and a default precision is DEFAULT_PRECISION."""
    import inspect

    import paircert

    found = {
        slot: parameter
        for slot, parameter in _public_numeric_parameters(paircert).items()
        if slot[1] == "precision_bits" and _exemption(*slot) is None
    }
    assert set(found) == _registered("precision")
    for (key, _), parameter in found.items():
        assert parameter.default in (inspect.Parameter.empty, arith.DEFAULT_PRECISION), key


# ---------------------------------------------------------------------------
# Input-domain raises that a public entry point reaches
# ---------------------------------------------------------------------------


def _domain_raises():
    """(name, call, exception type, message regex) per input-domain raise."""
    from paircert.anatomy import (
        ENUMERATION_CAP, count_chain_report, count_many_small_primes, divisor_anatomy_bound,
        divisor_chain_report, rankin_sum, small_prime_divisor_count,
    )
    from paircert.compress import slice_system
    from paircert.diagonal import DiagonalMeasure, diagonal_measure
    from paircert.errors import DegenerateMeasure
    from paircert.harness import GeneratorConfig
    from paircert.model import MultiplicativeFunction, PairSystem, TOTIENT, WeightFunction
    from paircert.quality import Params
    from paircert.resolution import decompose, resolution_check, s_majorant

    psi = WeightFunction({1: F(1, 8)})
    theta = WeightFunction({2: F(1, 8)})
    system = PairSystem(psi, theta, TOTIENT, TOTIENT, {(1, 2)})
    params = Params(epsilon=F(1, 4), C=F(1), t=F(10), K=F(0))
    one = {0: F(1)}
    cap = ENUMERATION_CAP
    power_cap = arith._POWER_BITS_CAP
    power_n = power_cap // 3 + 1
    return [
        ("rankin_sum.gamma", lambda: rankin_sum(100, 10, 0), InvalidParameter, "gamma must be > 0, got 0"),
        (
            "divisor_anatomy_bound.gamma",
            lambda: divisor_anatomy_bound(12, 10, 1, 1),
            InvalidParameter,
            "gamma must be > 1, got 1",
        ),
        ("s_majorant.gamma", lambda: s_majorant(10, 4, 1), InvalidParameter, "gamma must be > 1, got 1"),
        (
            "count_chain_report.K",
            lambda: count_chain_report(100, 10, F(1, 2), 2),
            InvalidParameter,
            "exact chain reports need integer K",
        ),
        (
            "divisor_chain_report.K",
            lambda: divisor_chain_report(12, 10, F(1, 2), 2, TOTIENT),
            InvalidParameter,
            "exact chain reports need integer K",
        ),
        (
            "_enumeration_bound.x",
            lambda: count_many_small_primes(F(1, 2), 10, 1),
            InvalidParameter,
            "x must be >= 1, got 1/2",
        ),
        (
            "_enumeration_bound.cap",
            lambda: rankin_sum(cap + 1, 10, 2),
            ResourceLimit,
            f"enumeration bound {cap + 1} exceeds cap {cap}",
        ),
        (
            "compare_power.base",
            lambda: compare_power(0, 1, 1),
            InvalidParameter,
            "^base must be > 0, got 0$",
        ),
        (
            "compare_power.rhs",
            lambda: compare_power(2, 1, -1),
            InvalidParameter,
            "^rhs must be > 0, got -1$",
        ),
        (
            "slice_system.exponents",
            lambda: slice_system(system, 2, 0, -1),
            InvalidParameter,
            "^j must be >= 0, got -1$",
        ),
    ] + [
        # one exponent step past _POWER_BITS_CAP: 2 has 2 + 1 bits
        (f"{who}.power_cap", call, ResourceLimit, f"{who} needs a power past the cap of {power_cap} bits")
        for who, call in [
            ("count_chain_report", lambda: count_chain_report(100, 10, power_n, 2)),
            ("divisor_anatomy_bound", lambda: divisor_anatomy_bound(12, 10, power_n, 2)),
            ("s_majorant", lambda: s_majorant(10, 4 * power_n, 2)),
            ("interval_eval", lambda: interval_eval(1, [(2, power_n)], 64)),
            ("slice_system", lambda: slice_system(system, 2, power_n, 0)),
        ]
    ] + [
        (
            "DiagonalMeasure.total",
            lambda: DiagonalMeasure(2, {(0, 0): F(1)}, one, one, F(0)),
            DegenerateMeasure,
            r"diagonal measure needs mu\(E\) > 0",
        ),
        (
            "DiagonalMeasure.negative",
            lambda: DiagonalMeasure(2, {(0, 0): F(2), (1, 1): F(-1)}, one, one, F(1)),
            InvalidParameter,
            "cells has a negative entry",
        ),
        (
            "diagonal_measure.p",
            lambda: diagonal_measure(system, system.edges, 4),
            InvalidParameter,
            "valuation base 4 is not prime",
        ),
        ("GeneratorConfig.f_mode", lambda: GeneratorConfig(f_mode="zeta"), InvalidParameter, "unknown f_mode 'zeta'"),
        (
            "GeneratorConfig.support_order",
            lambda: GeneratorConfig(support_min=5, support_max=4),
            InvalidParameter,
            "bad support size bounds",
        ),
        (
            "GeneratorConfig.support_min",
            lambda: GeneratorConfig(support_min=-1),
            InvalidParameter,
            "^support_min must be >= 0, got -1$",
        ),
        (
            "MultiplicativeFunction.exponent",
            lambda: MultiplicativeFunction({(2, 0): 1}),
            InvalidParameter,
            "prime-power exponent 0 < 1",
        ),
        (
            "Params.p0",
            lambda: Params(epsilon=F(1, 4), C=F(1), t=F(10), K=F(0), p0=0),
            InvalidParameter,
            "p0 must be >= 1, got 0",
        ),
        ("decompose", lambda: decompose(0, 1), InvalidParameter, "^v must be >= 1, got 0$"),
        # is_prime and factorize take only an int, and N is an int slot: no float or bool gives a TypeError
        (
            "slice_system.p",
            lambda: slice_system(system, 2.0, 0, 0),
            InvalidParameter,
            "is_prime requires an int, got 2.0",
        ),
        (
            "diagonal_measure.p_float",
            lambda: diagonal_measure(system, system.edges, 2.0),
            InvalidParameter,
            "is_prime requires an int, got 2.0",
        ),
        ("valuation.p", lambda: valuation(2.0, 4), InvalidParameter, "is_prime requires an int, got 2.0"),
        (
            "small_prime_divisor_count.n",
            lambda: small_prime_divisor_count(6.0, 10),
            InvalidParameter,
            "factorize requires an int, got 6.0",
        ),
        (
            "resolution_check.N_float",
            lambda: resolution_check(system, system.edges, 2.0, params),
            InvalidParameter,
            "^N must be an integer, got 2.0$",
        ),
        (
            "resolution_check.N_bool",
            lambda: resolution_check(system, system.edges, True, params),
            InvalidParameter,
            "^N must be an integer, got True$",
        ),
    ] + _past_the_digit_limit()


def _past_the_digit_limit():
    """(name, call, exception type, message regex) per raise whose message
    prints a number, with a 5,001-digit number there: past Python's
    4,300-digit int -> str limit, which str() would raise ValueError at."""
    from paircert.anatomy import (
        count_many_small_primes, divisor_anatomy_bound, divisor_anatomy_sum, mertens_product,
        rankin_sum, small_prime_divisor_count,
    )
    from paircert.compress import slice_system
    from paircert.diagonal import DiagonalMeasure, _with_origin, diagonal_measure
    from paircert.harness import GeneratorConfig, corollary_bound_check, rescale_kmy
    from paircert.model import MultiplicativeFunction, PairSystem, TOTIENT, WeightFunction
    from paircert.quality import Params
    from paircert.resolution import s_majorant

    big = 10**5000
    B = "1" + "0" * 5000  # big's digits
    psi = WeightFunction({1: F(1, 8)})
    system = PairSystem(psi, WeightFunction({2: F(1, 8)}), TOTIENT, TOTIENT, {(1, 2)})
    one = {0: F(1)}

    def params(**fields):
        return Params(**{"epsilon": F(1, 4), "C": F(1), "t": F(10), "K": F(0), **fields})

    rows = [
        ("WeightFunction.value", lambda: WeightFunction({3: -F(big)}), f"negative weight at 3: -{B}$"),
        (
            "MultiplicativeFunction.value",
            lambda: MultiplicativeFunction({(2, 1): -F(big)}),
            rf"negative value at 2\^1: -{B}$",
        ),
        ("Params.epsilon", lambda: params(epsilon=F(big)), rf"epsilon {B} outside \(0, 2/5\]$"),
        ("Params.C", lambda: params(C=-F(big)), f"C must be > 0, got -{B}$"),
        ("Params.p0", lambda: params(p0=-big), f"p0 must be >= 1, got -{B}$"),
        ("_t_floor.t", lambda: small_prime_divisor_count(6, -big), f"t must be >= 1, got -{B}$"),
        ("factorize.n", lambda: factorize(-big), f"factorize requires n >= 1, got -{B}$"),
        ("_check_M.M", lambda: divisor_anatomy_sum(-big, 10, 1, TOTIENT), f"M must be >= 1, got -{B}$"),
        ("_enumeration_bound.x", lambda: count_many_small_primes(-big, 10, 1), f"x must be >= 1, got -{B}$"),
        ("rankin_sum.gamma", lambda: rankin_sum(10, 10, -big), f"gamma must be > 0, got -{B}$"),
        (
            "divisor_anatomy_bound.gamma",
            lambda: divisor_anatomy_bound(12, 10, 1, -big),
            f"gamma must be > 1, got -{B}$",
        ),
        ("_mertens_args.gamma", lambda: mertens_product(10, -big), f"gamma must be >= 1, got -{B}$"),
        ("rescale_kmy.y", lambda: rescale_kmy(psi, -big, 10), f"y must be > 0, got -{B}$"),
        ("s_majorant.gamma", lambda: s_majorant(10, 4, -big), f"gamma must be > 1, got -{B}$"),
        (
            "_precision.bits",
            lambda: interval_eval(1, [(exp_of(1), 1)], big),
            rf"precision_bits outside \[16, 2\^14\]: {B}$",
        ),
        ("valuation.p", lambda: valuation(-big, 4), f"valuation base -{B} is not prime$"),
        ("WeightFunction.key", lambda: WeightFunction({-big: F(1)}), f"weight support element -{B} < 1$"),
        (
            "MultiplicativeFunction.exponent",
            lambda: MultiplicativeFunction({(2, -big): 1}),
            f"prime-power exponent -{B} < 1$",
        ),
        (
            "PairSystem.edge",
            lambda: PairSystem(psi, psi, TOTIENT, TOTIENT, {(big, 1)}),
            rf"edge \({B},1\) leaves the supports$",
        ),
        ("GeneratorConfig.density", lambda: GeneratorConfig(density=F(big)), rf"density {B} outside \[0, 1\]$"),
        (
            "GeneratorConfig.element_bound",
            lambda: GeneratorConfig(element_bound=-big),
            f"element_bound must be >= 1, got -{B}$",
        ),
        (
            "corollary_bound_check.epsilon",
            lambda: corollary_bound_check(psi, F(big), 1, 1, 0),
            rf"corollary epsilon {B} outside \(0, 4/5\]$",
        ),
        ("slice_system.p", lambda: slice_system(system, -big, 0, 0), f"slice prime -{B} is not prime$"),
        (
            "DiagonalMeasure.cells",
            lambda: DiagonalMeasure(2, {(0, 0): F(big)}, one, one, F(1)),
            f"cells sums to {B}, not 1$",
        ),
        (
            "diagonal_measure.p",
            lambda: diagonal_measure(system, system.edges, -big),
            f"valuation base -{B} is not prime$",
        ),
        (
            "_with_origin.masses",
            lambda: _with_origin({(1, 1): big}, 1, (0, 0)),
            rf"cell masses {{\(1, 1\): {B}}} do not fit in the total 1$",
        ),
    ]
    out = [(f"{name}_5001_digits", call, InvalidParameter, message) for name, call, message in rows]
    limits = [
        ("sieve_request", lambda: primes_upto(big), f"sieve request {B} exceeds cap"),
        (
            "factorize.cap",
            lambda: factorize(big),
            f"factorizing {B} needs primes up to 1{'0' * 2500}, beyond cap",
        ),
        ("GeneratorConfig.support_max", lambda: GeneratorConfig(support_max=big), f"support_max {B} exceeds cap"),
    ]
    return out + [(f"{name}_5001_digits", call, ResourceLimit, message) for name, call, message in limits]


_DOMAIN_RAISES = _domain_raises()


@pytest.mark.parametrize(
    "call, exc, message", [row[1:] for row in _DOMAIN_RAISES], ids=[row[0] for row in _DOMAIN_RAISES]
)
def test_input_domain_raise(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


# ---------------------------------------------------------------------------
# Caps on a precision, a dyadic exponent and a numeral
# ---------------------------------------------------------------------------


def test_a_precision_past_the_cap_is_refused_before_any_work():
    """2^17 bits raise before any enclosure is built (e at 200,000 bits
    takes about 14 s)."""
    import time

    start = time.perf_counter()
    with pytest.raises(InvalidParameter, match=r"outside \[16, 2\^14\]: 131072"):
        interval_eval(1, [(exp_of(1), 1)], 1 << 17)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_materialize_cap(sign):
    """Dyadic.as_fraction converts an exponent of magnitude up to 2^22 and
    refuses one past it."""
    assert arith.Dyadic(1, sign * (1 << 22)).as_fraction() == F(2) ** (sign * (1 << 22))
    with pytest.raises(ResourceLimit, match="dyadic exponent too large to materialize"):
        arith.Dyadic(1, sign * ((1 << 22) + 1)).as_fraction()


@pytest.mark.parametrize(
    "text, value",
    [
        ("3/4", F(3, 4)),
        ("-6/8", F(-3, 4)),
        ("-0", F(0)),
        (" 3/4 ", F(3, 4)),
        ("1.5", F(3, 2)),
        ("5" * 5000 + "/3", F(int("5" * 1000) * 10**4000 + int("5" * 4000), 3)),
        ("-" + "7" * 99_999, -F(10**99_999 - 1) * 7 / 9),
        ("1/" + "9" * 99_998, F(1, 10**99_998 - 1)),
    ],
    ids=["fraction", "reduced", "negative-zero", "spaces", "decimal", "past-the-str-limit", "cap", "cap-den"],
)
def test_a_numeral_is_read_at_any_length_up_to_its_cap(text, value):
    """_rational reads an "n" or "n/d" numeral as Fraction() does, past
    Python's 4,300-digit str -> int limit too, up to _NUMERAL_CAP = 10^5
    characters; other spellings still go through Fraction()."""
    assert arith._rational(text) == value


@pytest.mark.parametrize(
    "text", ["1" * 100_001, "1/" + "1" * 99_999, "-" + "1" * 100_000], ids=["integer", "fraction", "negative"]
)
def test_a_numeral_past_its_cap_is_refused(text):
    with pytest.raises(ResourceLimit, match="a numeral of 100001 characters exceeds the cap of 100000"):
        arith._rational(text)
