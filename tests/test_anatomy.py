"""Exact anatomy chains: Rankin step, divisor chains, Mertens products."""

import math
import random
import sys
from fractions import Fraction as F

import mpmath
import pytest

from paircert.anatomy import (
    AnatomyReport,
    _omega_counts,
    count_chain_report,
    count_many_small_primes,
    divisor_anatomy_bound,
    divisor_anatomy_sum,
    divisor_chain_report,
    mertens_product,
    rankin_divisor_product,
    rankin_divisor_sum,
    rankin_sum,
    ratio_to_log_power,
    small_prime_divisor_count,
)
from paircert.arith import Interval, coprime_fraction, divisors, primes_upto
from paircert.errors import InvalidParameter, ResourceLimit
from paircert.model import MultiplicativeFunction, TOTIENT

mpmath.mp.dps = 150


def _oracle_inside(iv: Interval, ref) -> bool:
    lo = mpmath.mpf(iv.lo.man) * mpmath.power(2, iv.lo.exp)
    hi = mpmath.mpf(iv.hi.man) * mpmath.power(2, iv.hi.exp)
    slack = abs(ref) * mpmath.power(2, -400) + mpmath.power(2, -400)
    return lo - slack <= ref <= hi + slack


class TestCount:
    def test_hand_examples(self):
        assert count_many_small_primes(10, 10, 2) == 2  # {6, 10}
        assert count_many_small_primes(30, 3, 2) == 5  # multiples of 6

    def test_vacuous_condition(self):
        assert count_many_small_primes(F(17, 2), 10, 0) == 8
        assert count_many_small_primes(10, 10, -3) == 10

    def test_against_direct_enumeration(self):
        for x, t, K in ((50, 7, 1), (200, 10, 2), (120, 3, F(3, 2))):
            direct = sum(
                1 for n in range(1, x + 1) if small_prime_divisor_count(n, t) >= K
            )
            assert count_many_small_primes(x, t, K) == direct

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            count_many_small_primes(10**9, 10, 1)

    @pytest.mark.parametrize("t", [1, 2, F(7, 2), 30, 2000, 10**4])
    def test_against_per_n_loops(self, t):
        x = F(4001, 2)
        omegas = [small_prime_divisor_count(n, t) for n in range(1, 2001)]
        for K in (-1, 0, F(3, 2), 2, F(5, 2)):
            assert count_many_small_primes(x, t, K) == sum(1 for c in omegas if c >= K)
        for gamma in (F(1, 3), 1, F(3, 2), 2, F(5, 2)):
            assert rankin_sum(x, t, gamma) == sum((F(gamma) ** c for c in omegas), F(0))

    @pytest.mark.parametrize("x, t", [(1, 1), (2, 2), (30, 5), (510510, 17), (3000, 10**4)])
    def test_omega_counts_sieve(self, x, t):
        counts = _omega_counts(x, t)
        assert len(counts) == x + 1 and counts[0] == 0
        for n in sorted({1, x, *range(1, x + 1, max(1, x // 997))}):
            assert counts[n] == small_prime_divisor_count(n, t), n
        if x == 510510:
            assert counts[x] == 7  # 2*3*5*7*11*13*17


class TestRankinSum:
    def test_hand_example(self):
        assert rankin_sum(4, 2, 2) == 6  # 1 + 2 + 1 + 2

    def test_gamma_one(self):
        assert rankin_sum(F(35, 2), 10, 1) == 17

    def test_t_below_two(self):
        assert rankin_sum(9, 1, 5) == 9

    def test_against_termwise(self):
        got = rankin_sum(60, 5, F(3, 2))
        want = sum(F(3, 2) ** small_prime_divisor_count(n, 5) for n in range(1, 61))
        assert got == want


class TestDivisorSums:
    def test_hand_example(self):
        assert divisor_anatomy_sum(12, 10, 1, TOTIENT) == 8

    def test_condition_unsatisfiable(self):
        assert divisor_anatomy_sum(12, 10, 3, TOTIENT) == 0

    def test_zero_function_counts_m_equals_M(self):
        f0 = MultiplicativeFunction({(2, 1): 0, (2, 2): 0, (3, 1): 0})
        assert divisor_anatomy_sum(12, 10, 1, f0) == 1

    def test_factorization_identity(self):
        """sum_{mn=M} gamma^omega_t(m) f(n) equals the prime-power product."""
        rng = random.Random(6)
        for M in list(range(1, 200)) + [rng.randint(200, 5000) for _ in range(60)]:
            for t, gamma in ((2, F(3, 2)), (10, F(2)), (100, F(4))):
                lhs = rankin_divisor_sum(M, t, gamma, TOTIENT)
                rhs = rankin_divisor_product(M, t, gamma, TOTIENT)
                assert lhs == rhs, (M, t, gamma)

    def test_bound_hand_example(self):
        assert divisor_anatomy_bound(12, 10, 1, 2) == 12

    def test_bound_trivial_cases(self):
        assert divisor_anatomy_bound(1, 10, 3, 2) == F(1, 8)
        assert divisor_anatomy_bound(12, F(3, 2), 1, 2) == 6  # no primes <= 3/2

    def test_bound_noninteger_K_is_interval(self):
        out = divisor_anatomy_bound(12, 10, F(1, 2), 2)
        assert isinstance(out, Interval)
        # oracle: 12 * 2^(-1/2) * 2 = 24/sqrt(2)
        assert _oracle_inside(out, 24 / mpmath.sqrt(2))

    def test_chain_on_random_inputs(self):
        rng = random.Random(8)
        for _ in range(80):
            M = rng.randint(1, 4000)
            t = rng.choice([2, 10, 100])
            K = rng.randint(0, 6)
            gamma = rng.choice([F(3, 2), F(2), F(4)])
            rep = divisor_chain_report(M, t, K, gamma, TOTIENT)
            assert rep.chain_holds, (M, t, K, gamma)


class TestCountChain:
    def test_report_fields(self):
        rep = count_chain_report(100, 10, 2, 2)
        assert isinstance(rep, AnatomyReport)
        assert rep.exact_value <= rep.rankin_bound <= rep.mertens_bound

    def test_chain_on_grid_sample(self):
        for x in (1, 10, 97, 500):
            for t in (2, 10, 100):
                for K in range(0, 7):
                    for gamma in (F(3, 2), F(2), F(4)):
                        rep = count_chain_report(x, t, K, gamma)
                        assert rep.chain_holds, (x, t, K, gamma)

    def test_integer_K_required(self):
        with pytest.raises(InvalidParameter):
            count_chain_report(10, 10, F(1, 2), 2)

    def test_to_json_past_the_int_str_limit(self):
        rep = count_chain_report(1000, 10**5, 2, 2)
        doc = rep.to_json()
        assert doc["chain_holds"] is True
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = {
                "exact": str(rep.exact_value),
                "rankin_bound": str(rep.rankin_bound),
                "mertens_bound": str(rep.mertens_bound),
            }
        finally:
            sys.set_int_max_str_digits(old)
        assert len(want["mertens_bound"]) > old
        assert {k: doc[k] for k in want} == want


class TestMertens:
    def test_empty_product(self):
        assert mertens_product(1, 2) == 1

    def test_two_primes(self):
        assert mertens_product(3, 2) == 2

    def test_gamma_one(self):
        assert mertens_product(1000, 1) == 1

    def test_matches_naive_product(self):
        got = mertens_product(50, F(5, 2))
        want = F(1)
        for p in primes_upto(50):
            want *= 1 + F(3, 2) / p
        assert got == want

    @pytest.mark.parametrize("t", [1, 2, 3, 300, 10**4])
    @pytest.mark.parametrize("gamma", [1, F(3, 2), 2, F(5, 2), F(7, 3), 4])
    def test_reduced_by_construction(self, t, gamma):
        gamma = F(gamma)
        a, b = gamma.numerator, gamma.denominator
        num = den = 1
        for p in primes_upto(t):
            num *= p * b + a - b
            den *= p * b
        got = mertens_product(t, gamma)
        assert got == F(num, den)
        assert math.gcd(got.numerator, got.denominator) == 1

    def test_ratio_interval_against_oracle(self):
        iv = ratio_to_log_power(100, 2, 192)
        prod = mertens_product(100, 2)
        ref = mpmath.mpf(prod.numerator) / prod.denominator / mpmath.log(100)
        assert _oracle_inside(iv, ref)

    def test_ratio_at_t_one_is_exact(self):
        iv = ratio_to_log_power(1, 2, 64)
        assert iv.is_point() and iv.contains(1)


def test_coprime_fraction():
    for n, d in ((0, 1), (1, 1), (-3, 4), (7, 2), (2**521 - 1, 3**300), (-(5**200), 2**700)):
        got = coprime_fraction(n, d)
        want = F(n, d)
        assert got == want and hash(got) == hash(want)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert str(got) == str(want)
