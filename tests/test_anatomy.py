"""Exact anatomy chains: Rankin step, divisor chains, Mertens products."""

import functools
import math
import random
import shutil
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

from paircert import anatomy, arith
from paircert.anatomy import (
    AnatomyReport,
    _mertens_point,
    _omega_counts,
    _omega_histogram,
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
from paircert.arith import (
    Interval,
    coprime_fraction,
    divisors,
    factorize,
    int_str,
    interval_eval,
    log_of,
    primes_upto,
)
from paircert.errors import IncompleteDefinition, InvalidParameter, ResourceLimit
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
        # omega_t(n) <= 7 up to the cap, which the byte sieve and the three
        # bit planes of the histogram rely on
        assert anatomy.ENUMERATION_CAP < math.prod(primes_upto(19))

    @pytest.mark.parametrize(
        "fn, args",
        [
            (small_prime_divisor_count, (6, True)),
            (small_prime_divisor_count, (6, 10.0)),
            (count_many_small_primes, (100.5, 10, 2)),
            (count_many_small_primes, (100, 10.0, 2)),
            (count_many_small_primes, (100, 10, 1.5)),
            (count_many_small_primes, (True, 10, 2)),
            (rankin_sum, (100, 10, True)),
            (rankin_sum, (100, 10, 1.5)),
            (rankin_sum, (100.0, 10, 2)),
            (count_chain_report, (100, 10, 2, 1.5)),
            (count_chain_report, (100, 10, True, 2)),
            (count_chain_report, (100, 10.5, 2, 2)),
            (divisor_chain_report, (12, 10.5, 2, 2, TOTIENT)),
            (divisor_chain_report, (12, 10, 2.0, 2, TOTIENT)),
            (divisor_chain_report, (12, 10, 2, True, TOTIENT)),
        ],
    )
    def test_float_and_bool_arguments(self, fn, args):
        """x, t, K and gamma are exact rationals; a float or a bool is not."""
        with pytest.raises(InvalidParameter, match="not an exact rational"):
            fn(*args)

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
        """One byte per odd n <= x, index i for n = 2 i + 1."""
        counts = _omega_counts(x, t)
        assert len(counts) == (x + 1) // 2
        assert list(counts) == [small_prime_divisor_count(n, t) for n in range(1, x + 1, 2)]
        if x == 510510:
            assert counts[255255 // 2] == 6  # 3*5*7*11*13*17

    @pytest.mark.parametrize(
        "x, t",
        [(30027, 10**4), (30029, 10**4), (30030, 10**4), (30031, 10**4), (70001, 10**4)]
        + [(30031, t) for t in (1, 2, 3, 12, 13, 14)],
    )
    def test_wheel_sieve_matches_every_n(self, x, t):
        """x below, at and above the wheel's period of 15015 odd numbers (the
        odd n <= 30029 or 30030); t giving an empty, a partial and a full
        wheel of the primes 3..13."""
        counts = _omega_counts(x, t)
        assert list(counts) == [small_prime_divisor_count(n, t) for n in range(1, x + 1, 2)]

    @pytest.mark.parametrize("x, t", [(1, 1), (2000, 7), (4001, 30), (3000, 10**4)])
    def test_omega_histogram_matches_per_n_loop(self, x, t):
        hist = _omega_histogram(x, t)
        tally = Counter(small_prime_divisor_count(n, t) for n in range(1, x + 1))
        assert isinstance(hist, tuple)
        assert hist == tuple(tally[c] for c in range(max(tally) + 1))

    def test_one_sieve_per_count_chain(self, monkeypatch):
        calls = []
        sieve = anatomy._omega_counts

        def counted(x, t):
            counts = sieve(x, t)
            calls.append((x, t, len(counts)))
            return counts

        monkeypatch.setattr(anatomy, "_omega_counts", counted)
        report = count_chain_report(F(25001, 2), 1000, 3, F(5, 2))
        assert report.chain_holds
        assert calls == [(12500, 1000, 6250)]  # one byte per odd n <= x

    def test_one_histogram_per_count_chain(self, monkeypatch):
        """The exact count and the Rankin sum of one chain are read off one
        _omega_histogram call, and agree with the standalone functions."""
        calls = []
        histogram = anatomy._omega_histogram

        def counted(x, t):
            calls.append((x, t))
            return histogram(x, t)

        monkeypatch.setattr(anatomy, "_omega_histogram", counted)
        report = count_chain_report(F(25001, 2), F(1001, 1), 3, F(5, 2))
        assert calls == [(12500, 1001)]
        monkeypatch.undo()
        assert report.exact_value == count_many_small_primes(12500, 1001, 3)
        assert report.rankin_bound == rankin_sum(12500, 1001, F(5, 2)) / F(5, 2) ** 3


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

    def test_sum_against_per_divisor_loop(self):
        """The sum built from M's factorization equals the per-divisor
        definition, for fractional t, K and f values."""
        rng = random.Random(12)
        table = {
            (p, a): F(rng.randint(0, 9), rng.randint(1, 6))
            for p in (2, 3, 5, 7)
            for a in range(1, 8)
        }
        Ms = [1, 2, 12, 360, 420, 2**7, 3**4 * 5 * 7] + [rng.randint(1, 5000) for _ in range(40)]
        for f in (TOTIENT, MultiplicativeFunction(table)):
            for M in Ms:
                if f is not TOTIENT and max((p for p, _ in factorize(M)), default=2) > 7:
                    continue
                for t in (1, F(5, 2), 3, 10, 100):
                    for K in (-1, 0, F(1, 2), 1, 2, F(5, 2), 3):
                        ms = [m for m in divisors(M) if small_prime_divisor_count(m, t) >= K]
                        want = sum((f(M // m) for m in ms), F(0))
                        assert divisor_anatomy_sum(M, t, K, f) == want, (M, t, K)

    def test_sum_at_k_at_most_zero_is_one_star_f(self):
        """At K <= 0 every divisor counts, so the sum is the divisor sum
        (1 * f)(M) = prod over p^e || M of (1 * f)(p^e): M for the totient.
        For each M and t of the anatomy benchmark's grid, the totient and a
        random table f."""
        rng = random.Random(20261022)
        table = {
            (p, a): F(rng.randint(0, 9), rng.randint(1, 6))
            for p in (2, 3, 5, 7, 11, 13, 17, 19)
            for a in range(1, 7)
        }
        ts = (300, 10**3, 3 * 10**3, 10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6)
        for f in (TOTIENT, MultiplicativeFunction(table)):
            for M in (720720, 8648640, 9699690):
                want = math.prod((f.one_star_prime_power(p, e) for p, e in factorize(M)), start=F(1))
                if f is TOTIENT:
                    assert want == M
                for t in ts:
                    for K in (0, -1, F(-5, 2)):
                        assert divisor_anatomy_sum(M, t, K, f) == want, (M, t, K)

    def test_sum_asks_f_only_where_needed(self):
        # f is undefined at 3; only m = 2, with omega_t(m) = 1, needs f(3)
        f = MultiplicativeFunction({(2, 1): F(1, 2)})
        assert divisor_anatomy_sum(6, 10, 2, f) == 1
        with pytest.raises(IncompleteDefinition):
            divisor_anatomy_sum(6, 10, 1, f)
        # the first value missing is the one the ascending per-divisor loop
        # meets first: m = 2 needs f(15) = f(3) f(5)
        with pytest.raises(IncompleteDefinition, match=r"undefined at 3\^1"):
            divisor_anatomy_sum(30, 10, 1, MultiplicativeFunction({}))

    def test_bound_against_fraction_formula(self):
        rng = random.Random(13)
        for _ in range(300):
            M = rng.randint(1, 5000)
            t = rng.choice([1, F(5, 2), 10, 100])
            K = rng.randint(-3, 4)
            gamma = rng.choice([F(3, 2), F(2), F(7, 3), F(4)])
            want = F(M) * gamma ** (-K)
            for p, _ in factorize(M):
                if p <= t:
                    want *= 1 + (gamma - 1) / p
            assert divisor_anatomy_bound(M, t, K, gamma) == want, (M, t, K, gamma)

    def test_bound_hand_example(self):
        assert divisor_anatomy_bound(12, 10, 1, 2) == 12

    @pytest.mark.parametrize("M", [12.0, True, F(12), "12"], ids=["float", "bool", "fraction", "str"])
    @pytest.mark.parametrize(
        "fn, rest",
        [
            (divisor_anatomy_sum, (10, 1, TOTIENT)),
            (rankin_divisor_sum, (10, 2, TOTIENT)),
            (rankin_divisor_product, (10, 2, TOTIENT)),
            (divisor_anatomy_bound, (10, 1, 2)),
            (divisor_chain_report, (10, 1, 2, TOTIENT)),
        ],
    )
    def test_M_must_be_an_int(self, fn, rest, M):
        """M = True is not read as 1, and M = 12.0 fails before factorize."""
        with pytest.raises(InvalidParameter, match="M must be an integer"):
            fn(M, *rest)

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



_BRACKET_TS = sorted(
    {1, 2, F(5, 2), 3, F(7, 2), 4, 5, 10, F(100, 3), 97, 100, F(1001, 3), 1000, F(9999, 4)}
    | {2999, 3000}
    | {random.Random(11).randint(1, 3000) for _ in range(10)}
)
_BRACKET_GAMMAS = [1, F(3, 2), 2, F(5, 2), F(7, 3), 4]


def _same(a: Interval, b: Interval) -> bool:
    return (a.lo, a.hi, a.precision_bits) == (b.lo, b.hi, b.precision_bits)


class TestMertensBracket:
    """ratio_to_log_power rounds the Mertens product from a fixed-point
    bracket; every result must be the one the exact product gives."""

    @pytest.mark.parametrize("gamma", _BRACKET_GAMMAS)
    def test_point_rounding_is_exact(self, gamma):
        gamma = F(gamma)
        for t in _BRACKET_TS:
            exact = mertens_product(t, gamma)
            for bits in (16, 64, 256, 1024, 4096):
                got = _mertens_point(t, gamma, bits)
                assert _same(got, Interval.from_fraction(exact, bits)), (t, gamma, bits)

    @pytest.mark.parametrize("margin", [-4, 0, 1, 2, 4])
    def test_point_rounding_is_exact_at_any_margin(self, monkeypatch, margin):
        """A narrow bracket falls back more often and decides closer to a
        rounding boundary; a bracket that failed to hold the product would
        show up here as a wrong rounding."""
        monkeypatch.setattr(anatomy, "_BRACKET_MARGIN", margin)
        for gamma in map(F, _BRACKET_GAMMAS):
            for t in _BRACKET_TS:
                exact = mertens_product(t, gamma)
                for bits in (16, 64):
                    got = _mertens_point(t, gamma, bits)
                    assert _same(got, Interval.from_fraction(exact, bits)), (t, gamma, bits)

    @pytest.mark.parametrize("gamma", _BRACKET_GAMMAS)
    def test_ratio_matches_exact_interval_eval(self, gamma):
        gamma = F(gamma)
        for t in _BRACKET_TS:
            for bits in (16, 64, 256) + ((1024,) if t in (3, 1000, 3000) else ()):
                want = interval_eval(mertens_product(t, gamma), [(log_of(t), 1 - gamma)], bits)
                assert _same(ratio_to_log_power(t, gamma, bits), want), (t, gamma, bits)

    @staticmethod
    def _count_products(monkeypatch) -> list:
        calls = []
        exact = anatomy.mertens_product

        def counted(t, gamma):
            calls.append((t, gamma))
            return exact(t, gamma)

        monkeypatch.setattr(anatomy, "mertens_product", counted)
        return calls

    @pytest.mark.parametrize("bits", [16, 64, 256])
    def test_fallback_when_bracket_cannot_decide(self, monkeypatch, bits):
        keys = [(t, g) for t in (5, 1000, 3000) for g in (F(3, 2), F(7, 3))] + [(5, 4)]
        want = {key: ratio_to_log_power(*key, bits) for key in keys}
        calls = self._count_products(monkeypatch)
        # a bracket narrower than the precision asked rounds to itself, so it
        # decides only a product it holds exactly
        monkeypatch.setattr(anatomy, "_BRACKET_MARGIN", -8)
        for (t, g), iv in want.items():
            del calls[:]
            assert _same(ratio_to_log_power(t, g, bits), iv), (t, g)
            exact = (t, g) == (5, 4)  # the product is (5/2)(6/3)(8/5) = 8
            assert calls == ([] if exact else [(t, g)]), (t, g)

    def test_bracket_path_builds_no_exact_product(self, monkeypatch):
        calls = self._count_products(monkeypatch)
        for t in (3, 1000, 10**4):
            for g in (F(3, 2), 2, F(5, 2)):
                ratio_to_log_power(t, g)
        for t, g in ((1, 2), (2, F(3, 2)), (F(5, 2), 4), (1000, 1)):
            want = interval_eval(mertens_product(t, g), [(log_of(t), 1 - g)], 256)
            assert _same(ratio_to_log_power(t, g), want), (t, g)
        assert calls == []

    def test_exact_products_per_anatomy_point(self, monkeypatch):
        """One point of the anatomy grid (product, ratio, count chain and
        divisor chain) builds the exact product twice."""
        calls = self._count_products(monkeypatch)
        t, gamma = 10**4, F(3, 2)
        anatomy.mertens_product(t, gamma)
        ratio_to_log_power(t, gamma)
        count_chain_report(2 * 10**4, t, 3, gamma)
        divisor_chain_report(720720, t, 2, gamma, TOTIENT)
        assert len(calls) == 2

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameter, match="t must be >= 1"):
            ratio_to_log_power(F(1, 2), 2)
        with pytest.raises(InvalidParameter, match="gamma must be >= 1"):
            ratio_to_log_power(100, F(1, 2))
        # a float is read as its dyadic value, a bool as 0 or 1: neither is
        # the rational it stands for
        for t, gamma in ((10, 1.1), (10.1, 2), (10, True), (True, 2), (100.0, F(3, 2))):
            for fn in (mertens_product, ratio_to_log_power):
                with pytest.raises(InvalidParameter, match="not an exact rational"):
                    fn(t, gamma)


# The Mertens product as it stood with a prime indicator filled one prime at
# a time, a modular inverse and a progression scan per prime, and a product
# tree multiplied pair by pair; the omega_t histogram as it stood with one
# bytes.count pass per value; and the divisor sum as it stood with a walk
# over every divisor of M, ascending. Kept verbatim (the histogram without
# its cache) as the reference that the kernels must match integer for
# integer, and the divisor sum call for call of f.


def _ref_tree_prod(values: list[int]) -> int:
    if not values:
        return 1
    while len(values) > 1:
        values = [
            values[i] * values[i + 1] if i + 1 < len(values) else values[i]
            for i in range(0, len(values), 2)
        ]
    return values[0]


def _ref_mertens_product(t, gamma):
    gamma = F(gamma)  # the arguments are checked by the kernel under test
    ps = primes_upto(t)
    a, b = gamma.numerator, gamma.denominator
    c = a - b
    nums = [p * b + c for p in ps]  # indexed like ps
    is_p = bytearray(ps[-1] + 1 if ps else 0)
    for p in ps:
        is_p[p] = 1
    kept = []
    for q in ps:
        if b % q:
            r = -c * pow(b, -1, q) % q
            k = is_p[r::q].find(1)
            if k >= 0:
                nums[bisect_left(ps, r + k * q)] //= q
                continue
        kept.append(q)
    return coprime_fraction(_ref_tree_prod(nums), b ** len(ps) * _ref_tree_prod(kept))


def _ref_omega_histogram(x: int, t: int) -> tuple[int, ...]:
    """By a plain sieve of every n <= x: one slice per prime p <= t."""
    counts = bytearray(x + 1)
    inc = bytes(range(1, 256)) + b"\x00"
    for p in primes_upto(min(t, x)):
        counts[p::p] = counts[p::p].translate(inc)
    hist = [0]
    while reps := counts.count(len(hist)):
        hist.append(reps)
    hist[0] = x - sum(hist)
    return tuple(hist)


def _ref_divisor_anatomy_sum(M, t, K, f):
    arith._integer(M, "M", 1)
    need = math.ceil(arith._rational(K))  # an integer count is >= K iff >= ceil(K)
    bound = math.floor(arith._rational(t))
    fac = factorize(M)
    divs = [(1, 0, ())]  # (m, omega_t(m), exponents of m along fac)
    for p, e in fac:
        small = p <= bound
        divs = [
            (m * p**k, c + (small and k > 0), ks + (k,))
            for m, c, ks in divs
            for k in range(e + 1)
        ]
    values: dict[tuple[int, int], F] = {}
    sums: dict[int, int] = {}  # denominator -> sum of the numerators over it
    for _, c, ks in sorted(divs):
        if c < need:
            continue
        num = den = 1
        for (p, e), k in zip(fac, ks):
            if k < e:
                v = values.get((p, e - k))
                if v is None:
                    v = values[p, e - k] = f.prime_power(p, e - k)
                num *= v.numerator
                den *= v.denominator
        sums[den] = sums.get(den, 0) + num
    return sum((F(n, d) for d, n in sums.items()), F(0))


class _AskLog:
    """f, with every prime_power asked of it logged, the failing ones too."""

    def __init__(self, f: MultiplicativeFunction):
        self.f, self.asked = f, []

    def prime_power(self, p: int, a: int) -> F:
        self.asked.append((p, a))
        return self.f.prime_power(p, a)


def _divisor_sum_outcome(fn, M, t, K, f):
    """(reduced value or the IncompleteDefinition message, the asks of f)."""
    log = _AskLog(f)
    try:
        v = fn(M, t, K, log)
        out = (v.numerator, v.denominator)
    except IncompleteDefinition as exc:
        out = str(exc)
    return out, log.asked


_DEFAULT_GMP_CUT = anatomy._GMP_CUT  # read before any test sets it to 0


def _band_start(T: int, b: int, c: int) -> tuple[int, int, int, int]:
    """The terms of mertens_product's band start, whose max made odd (| 1)
    is q0: 3, c + 1, isqrt(T) + 1 and the count term ceil((b T + 1 + c)/(K
    + 1)), K = _BAND_K. The earlier start was max(2, c + 1, the count term)."""
    return 3, c + 1, math.isqrt(T) + 1, -(-(b * T + 1 + c) // (anatomy._BAND_K + 1))


def _earlier_band_start(T: int, b: int, c: int) -> int:
    _, above_c, _, count = _band_start(T, b, c)
    return max(2, above_c, count)


def _at_leaf_bits(n: int, bits: int, rng: random.Random) -> list[int]:
    """n values, the last a power of two, whose leaves under _tree_prod
    (math.prod over runs of _GMP_LEAF) have bits bits in all: a leaf L times
    2^m has the bits of L plus m."""
    values = [rng.getrandbits(rng.randint(1, 40)) + 1 for _ in range(n - 1)]
    leaf = anatomy._GMP_LEAF
    have = sum(math.prod(values[i : i + leaf]).bit_length() for i in range(0, n, leaf))
    assert have <= bits, (n, bits)
    return values + [1 << (bits - have)]


class _ProductKernel:
    """mertens_product and _tree_prod against the references above, and
    _power_prod against math.prod, integer for integer, on the product path
    that in_gmp names."""

    in_gmp = False  # GMP off, or GMP for every product the kernel routes

    @pytest.fixture(autouse=True)
    def _product_path(self, monkeypatch):
        if not self.in_gmp:
            monkeypatch.setattr(anatomy, "_gmp", False)
            return
        monkeypatch.setattr(anatomy, "_gmp", anatomy._gmp)  # restored after the test
        if not anatomy._load_gmp():
            pytest.skip("libgmp.so.10 does not load")
        monkeypatch.setattr(anatomy, "_GMP_CUT", 0)

    _TS = [1, 2, F(5, 2), 3, F(21, 2), 300, 10**4, 10**5]
    # c = 0 (gamma 1), b = 1, and primes dividing b (2, 3, 2 and 3)
    _GAMMAS = [1, F(3, 2), 2, F(5, 2), F(7, 3), F(11, 6), 4]

    def test_mertens_product(self):
        rng = random.Random(20251019)
        ts = self._TS + [rng.randint(4, 5000) for _ in range(6)] + [F(rng.randint(8, 9000), 3)]
        gammas = self._GAMMAS + [F(rng.randint(7, 40), rng.randint(2, 6)) for _ in range(3)]
        # b at and past the value sieve's bound, a large b, and a large c
        gammas += [F(17, 4), F(21, 5), F(10**6 + 3, 10**6), F(10**9 + 1, 2)]
        compared = 0
        for t in ts:
            for gamma in gammas:
                if F(gamma) < 1:
                    continue
                got = mertens_product(t, gamma)
                want = _ref_mertens_product(t, gamma)
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
                compared += 1
        assert compared >= len(ts) * len(self._GAMMAS)

    def test_mertens_product_at_the_boundaries(self):
        """Every t <= 300, and past it: floor(t) equal to some p b + c, floor(t)
        a prime power, c >= floor(t), non-integer t, and b = 1..5 and 10^6."""
        gammas = [F(3, 2), 2, F(5, 2), F(7, 3), F(13, 4), F(17, 5), F(10**6 + 3, 10**6)]
        assert sorted(F(g).denominator for g in gammas) == [1, 2, 2, 3, 4, 5, 10**6]
        cases = [(t, g) for t in range(1, 301) for g in gammas]
        on_a_value = []
        for g in map(F, gammas[:-1]):  # b <= 5: p b + c stays small
            a, b = g.numerator, g.denominator
            for p in (2, 3, 97, 1999, 4999):
                value = p * b + a - b
                on_a_value += [(value, g), (value + F(1, 3), g), (value - 1, g)]
        powers = [2**10, 2**12, 3**6, 5**4, 7**4, 101**2]
        cases += on_a_value
        cases += [(q, g) for q in powers for g in gammas]
        cases += [(F(2 * q + 1, 2), g) for q in powers[:3] for g in gammas]
        # c >= floor(t): the cut below which p b + c stays within t is empty
        cases += [(6, 11), (6, 7), (7, 8), (F(13, 2), F(15, 2)), (1000, F(10**9 + 1, 2))]
        cases += [(1000, 1001), (1000, F(2003, 2))]
        for t, g in cases:
            got = mertens_product(t, g)
            want = _ref_mertens_product(t, g)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator), (t, g)

    def test_mertens_product_at_the_band_edges(self):
        """The band [q0, T] whose odd primes the value sieve decides in bulk,
        q0 the least odd number >= max(3, c + 1, isqrt(T) + 1, ceil((b T + 1
        + c)/(K + 1))), for b = 1..4: an odd prime at q0 - 2, q0 and q0 + 2;
        q0 clamped to 3 or to c + 1; q0 > T. Beside these, the cases of the
        earlier start max(2, c + 1, ceil((b T + 1 + c)/(K + 1))): a prime at
        that start - 1, + 0 and + 1; that start clamped to c + 1 or to 2 and
        past T; a prime just below it whose one marked index m q - c is its
        (K + 1)-th, and a prime past it whose one marked index is its K-th.

        m q - c = p b with p odd needs m q - c = b (mod 2): for K = 16 and q
        odd, the (K + 1)-th index has no such prime when b and c are both
        odd, and the K-th none when b and c differ in parity (so for every
        even b). c = 0 (gamma = 1) marks every prime's first index."""
        K = anatomy._BAND_K
        assert K == 16  # the parities above
        is_p = arith.prime_flags(10**5)  # T and p stay below 17 * 5000 / b
        gammas = [1, 2, 3, 4, F(3, 2), F(7, 2), F(4, 3), F(5, 3), F(8, 3), F(5, 4), F(9, 4)]
        lasts, kths = set(), set()
        assert sorted({F(g).denominator for g in gammas}) == [1, 2, 3, 4]
        for g in map(F, gammas):
            a, b = g.numerator, g.denominator
            c = a - b

            def q0(T):
                return _earlier_band_start(T, b, c)

            def marks(q, T):  # the m whose index m q - c marks a prime p <= T
                return [m for m in range(1, K + 2) if 0 <= m * q - c <= b * T
                        and (m * q - c) % b == 0 and is_p[(m * q - c) // b]]

            def edge_cases(start_of, is_clamped, offsets, least):
                """T with a prime at the start + d, the start clamped, or past T."""
                near = {d: [] for d in offsets}
                clamped, empty = [], []
                for T in range(1, 3000):
                    q = start_of(T)
                    if q > T:
                        empty.append(T)
                        continue
                    if is_clamped(T):
                        clamped.append(T)
                    for d in near:
                        if least <= q + d <= T and is_p[q + d]:
                            near[d].append(T)
                assert clamped and empty and all(near.values()), g
                cases = clamped[:3] + clamped[-2:] + empty[:1] + empty[-1:]
                for Ts in near.values():
                    cases += Ts[:2] + Ts[-2:]
                return cases

            def clamped_start(T):  # 3 or c + 1 sets the start
                start = _band_start(T, b, c)
                return max(start[:2]) > max(start[2:])

            cases = edge_cases(q0, lambda T: q0(T) == max(2, c + 1), (-1, 0, 1), 2)
            cases += edge_cases(lambda T: max(_band_start(T, b, c)) | 1, clamped_start, (-2, 0, 2), 3)
            last = kth = None
            for q in range(3, 5000):
                if None not in (last, kth):
                    break
                if not is_p[q] or b % q == 0:
                    continue
                T = ((K + 1) * (q + 1) - c - 1) // b  # the largest T with q0 = q + 1
                if last is None and q0(T) == q + 1 and marks(q, T) == [K + 1]:
                    last = T
                if kth is None and (K * q - c) % b == 0:
                    T = (K * q - c) // b  # the p of the K-th index
                    if q0(T) <= q and marks(q, T) == [K]:
                        kth = T
            if last is not None:
                lasts.add(g)
                cases.append(last)
            if kth is not None:
                kths.add(g)
                cases.append(kth)
            for T in cases:
                got = mertens_product(T, g)
                want = _ref_mertens_product(T, g)
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator), (T, g)
        assert lasts == {3, F(3, 2), F(7, 2), F(5, 3), F(5, 4), F(9, 4)}
        assert kths == {2, 4, F(4, 3), F(8, 3)}

    def test_mertens_product_on_both_sides_of_the_tally_guard(self):
        """The band starts at q0, the max of _band_start's terms made odd, so
        q0^2 > T and every flagged prime takes one count. Cases, for b = 1..4
        and for gamma = 1 (c = 0): T either side of each T at which q0^2 > T
        flipped under the earlier start (_earlier_band_start), with its band
        scanned one by one when q0^2 <= T (T near 289/b^2); T = q^2 - 1, q^2
        and q^2 + 1 where isqrt(T) + 1 sets the start; T where the count term
        sets it and is even, before it is made odd; every T < 9, where 3 or
        c + 1 sets it; and T = q0^2 with q0 a prime of that earlier band that
        divides some p b + c <= T twice."""
        is_p = arith.prime_flags(2000)
        gammas = [1, 2, 3, F(3, 2), F(7, 2), F(4, 3), F(5, 3), F(7, 3), F(5, 4), F(7, 4)]
        assert sorted({F(g).denominator for g in gammas}) == [1, 2, 3, 4]
        squares = []
        for g in map(F, gammas):
            a, b = g.numerator, g.denominator
            c = a - b

            def tallied(T):
                return _earlier_band_start(T, b, c) ** 2 > T

            def start(T):
                return _band_start(T, b, c)

            flips = [T for T in range(2, 2000) if tallied(T) != tallied(T - 1)]
            assert flips, g
            cases = {T + d for T in flips for d in (-2, -1, 0, 1) if T + d >= 1}
            near_squares = [T for q in range(2, 45) for T in (q * q - 1, q * q, q * q + 1)]
            by_root = [T for T in near_squares if start(T)[2] == max(start(T))]
            even = [T for T in range(1, 2000) if start(T)[3] == max(start(T)) and start(T)[3] % 2 == 0]
            assert by_root and even, g
            cases.update(by_root + even[:3] + even[-3:] + list(range(1, 9)))
            for T in range(1, 2000):
                q0 = _earlier_band_start(T, b, c)
                if q0 * q0 == T and is_p[q0] and any(
                    is_p[p] and (p * b + c) % T == 0 for p in range(2, (T - c) // b + 1)
                ):
                    squares.append((T, g))
                    cases.add(T)
            for T in sorted(cases):
                got = mertens_product(T, g)
                want = _ref_mertens_product(T, g)
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator), (T, g)
        assert (25, F(7, 3)) in squares  # 25 | 3 * 7 + 4, with 5 = q0 in the band

    def test_mertens_product_with_band_primes_marked_past_t(self):
        """Band primes flagged only by values p b + c > T (a count of 0 up to
        T, so the per-prime scan divides the smallest value above T), for
        b = 2, 3 and 4 at T from 10^4 to 10^5, beside band primes counted
        twice or more."""
        K = anatomy._BAND_K
        is_p = arith.prime_flags(10**5)
        cases = [(10**4, F(3, 2)), (3 * 10**4, F(5, 2)), (2 * 10**4, F(4, 3))]
        cases += [(5 * 10**4, F(5, 3)), (10**5, F(7, 4)), (12345, F(9, 4))]
        twice = 0
        for T, g in cases:
            a, b = g.numerator, g.denominator
            c = a - b
            q0 = max(2, c + 1, -(-(b * T + 1 + c) // (K + 1)))
            past = 0
            for q in range(q0, T + 1):
                if not is_p[q] or b % q == 0:
                    continue
                ps = [(m * q - c) // b for m in range(1, K + 1) if (m * q - c) % b == 0]
                ps = [p for p in ps if 0 < p <= T and is_p[p]]
                small = sum(p * b + c <= T for p in ps)
                past += bool(ps) and small == 0
                twice += small >= 2
            assert past, (T, g)
            got = mertens_product(T, g)
            want = _ref_mertens_product(T, g)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator), (T, g)
        assert twice

    def test_tree_prod(self):
        rng = random.Random(20251020)
        lengths = [0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 100, 257, 1000]
        lengths += [2047, 2048, 2049, 2207, 2208, 2209]
        for n in lengths:
            values = [rng.getrandbits(rng.randint(1, 80)) + 1 for _ in range(n)]
            assert anatomy._tree_prod(list(values)) == _ref_tree_prod(values), n
        # leaves whose bits add up to one under, at and one over the default cut
        leaf = anatomy._GMP_LEAF
        for n in (leaf + 1, 2 * leaf, 2 * leaf + 1, 5 * leaf + 7):
            for d in (-1, 0, 1):
                values = _at_leaf_bits(n, _DEFAULT_GMP_CUT + d, rng)
                assert anatomy._tree_prod(list(values)) == _ref_tree_prod(values), (n, d)

    def test_power_prod(self):
        rng = random.Random(20251022)
        cases = [{}, {0: [2, 3]}, {1: [5]}, {0: [7], 1: [11, 13]}, {1: [], 3: [2]}, {2: [1]}]
        cases += [{2: [0], 1: [5]}, {1: [0, 3]}]  # a zero base: Horner's acc reaches 0
        for _ in range(30):
            powers: dict = {}
            for _ in range(rng.randint(1, 8)):
                e = rng.choice([0, 1, 2, 3, 5, 8, 64, rng.randint(0, 1000)])
                bases = [rng.getrandbits(rng.randint(1, 30)) + 1 for _ in range(rng.randint(0, 20))]
                powers.setdefault(e, []).extend(bases)
            cases.append(powers)
        for powers in cases:
            want = math.prod(q**e for e, qs in powers.items() for q in qs)
            assert anatomy._power_prod(powers) == want, powers


class TestProductKernelInGmp(_ProductKernel):
    in_gmp = True


class _CountedGmp:
    """A libgmp handle that counts __gmpz_init against __gmpz_clear, and
    whose __gmpz_mul raises on its call number fail_at."""

    def __init__(self, lib, fail_at=None):
        self._lib, self.fail_at = lib, fail_at
        self.inits = self.clears = self.muls = 0

    def __getattr__(self, name):
        fn = getattr(self._lib, name)

        def counted(*args):
            if name == "__gmpz_init":
                self.inits += 1
            elif name == "__gmpz_clear":
                self.clears += 1
            elif name == "__gmpz_mul":
                self.muls += 1
                if self.muls == self.fail_at:
                    raise RuntimeError("mpz_mul failed")
            return fn(*args)

        return counted


class TestGmpLoading:
    """When and how the product kernel reaches libgmp."""

    _POWERS = {1: list(range(2, 400)), 3: [5, 7], 70: [11]}

    def test_falls_back_when_libgmp_does_not_load(self, monkeypatch):
        import ctypes

        tries = []

        def refuse(name, *args, **kwargs):
            tries.append(name)
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", refuse)
        monkeypatch.setattr(anatomy, "_gmp", None)
        monkeypatch.setattr(anatomy, "_GMP_CUT", 0)
        want = math.prod(q**e for e, qs in self._POWERS.items() for q in qs)
        assert anatomy._power_prod(self._POWERS) == want
        for t, gamma in ((2, F(3, 2)), (10**4, F(5, 2))):
            got, ref = mertens_product(t, gamma), _ref_mertens_product(t, gamma)
            assert (got.numerator, got.denominator) == (ref.numerator, ref.denominator)
        assert tries == ["libgmp.so.10"] and anatomy._gmp is False

    def test_import_leaves_ctypes_unloaded(self):
        src = Path(anatomy.__file__).resolve().parents[1]
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); import paircert, paircert.cli; "
            "print('ctypes' in sys.modules)"
        )
        run = subprocess.run(
            [sys.executable, "-I", "-B", "-c", script, str(src)], capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["False"]

    def test_a_small_grid_point_never_loads_libgmp(self, monkeypatch):
        """The four reports of an anatomy grid point at t = 10^4: no operand
        reaches the cut."""
        monkeypatch.setattr(anatomy, "_gmp", None)
        t = 10**4
        for gamma in (F(3, 2), F(2), F(5, 2)):
            mertens_product(t, gamma)
            ratio_to_log_power(t, gamma)
            count_chain_report(int(10**5 * gamma), t, 3, gamma)
            divisor_chain_report(720720, t, 2, gamma, TOTIENT)
        assert anatomy._gmp is None

    def test_the_cut_decides_whether_libgmp_loads(self, monkeypatch):
        """With libgmp not yet tried, a _tree_prod whose leaves have one bit
        under _GMP_CUT in all is multiplied in int and leaves it untried;
        one whose leaves reach the cut tries it."""
        rng = random.Random(20261021)
        monkeypatch.setattr(anatomy, "_gmp", None)
        n = 2 * anatomy._GMP_LEAF + 5
        under = _at_leaf_bits(n, anatomy._GMP_CUT - 1, rng)
        assert anatomy._tree_prod(list(under)) == math.prod(under)
        assert anatomy._gmp is None
        at = _at_leaf_bits(n, anatomy._GMP_CUT, rng)
        assert anatomy._tree_prod(list(at)) == math.prod(at)
        assert anatomy._gmp is not None

    def test_one_round_trip_per_level(self, monkeypatch):
        """Horner's first level becomes acc as it is, with no step: a product
        whose exponents are all <= 1 crosses into GMP once, as one tree. A
        later level crosses for its tree, when it has two leaves or more, and
        for its step, [acc, acc, tree]."""
        monkeypatch.setattr(anatomy, "_gmp", anatomy._gmp)
        if not anatomy._load_gmp():
            pytest.skip("libgmp.so.10 does not load")
        monkeypatch.setattr(anatomy, "_GMP_CUT", 0)
        calls = []
        gmp_prod = anatomy._gmp_prod
        monkeypatch.setattr(anatomy, "_gmp_prod", lambda values: calls.append(len(values)) or gmp_prod(values))
        leaf = anatomy._GMP_LEAF
        bases = list(range(2, 5 * leaf))
        assert anatomy._power_prod({1: bases}) == math.prod(bases)
        assert calls == [5]
        calls.clear()
        assert anatomy._power_prod({1: bases, 6: [7]}) == math.prod(bases) * 7**6
        assert calls == [3, 5, 3]  # 6 = 110 in binary: the bits 2 and 1 take the one leaf [7]

    @pytest.mark.parametrize("fail_at", [None, 1, 4])
    def test_every_mpz_is_cleared(self, monkeypatch, fail_at):
        """As many __gmpz_clear as __gmpz_init, after a normal return and
        after a __gmpz_mul that raises partway through. An operand stays in
        GMP from its import to the root's export, so the inits need not
        pair with the multiplications."""
        monkeypatch.setattr(anatomy, "_gmp", anatomy._gmp)
        gmp = anatomy._load_gmp()
        if not gmp:
            pytest.skip("libgmp.so.10 does not load")
        counted = _CountedGmp(gmp[0], fail_at)
        monkeypatch.setattr(anatomy, "_gmp", (counted, gmp[1]))
        monkeypatch.setattr(anatomy, "_GMP_CUT", 0)
        want = math.prod(q**e for e, qs in self._POWERS.items() for q in qs)
        if fail_at is None:
            assert anatomy._power_prod(self._POWERS) == want
            assert counted.muls > 4
        else:
            with pytest.raises(RuntimeError, match="mpz_mul failed"):
                anatomy._power_prod(self._POWERS)
            assert counted.muls == fail_at
        assert counted.muls >= 1 and counted.inits == counted.clears


class TestAnatomyKernelReference(_ProductKernel):
    """The product kernel with GMP off, and _omega_histogram and
    divisor_anatomy_sum against the references above."""

    def test_omega_histogram(self):
        cap = anatomy.ENUMERATION_CAP
        rng = random.Random(20251021)
        pairs = [(1, 1), (1, 10), (2, 2), (30, 5), (4001, 30), (30031, 13), (250000, 300)]
        pairs += [(250000, 10**4), (510509, 17), (510510, 16), (510510, 17), (510510, 10**5)]
        pairs += [(cap, 17), (cap, 10**5)]
        pairs += [(rng.randint(1, cap), rng.choice([1, 2, 7, 17, 300, 10**4])) for _ in range(6)]
        block = 1 << 15  # bytes per block of the tally
        pairs += [(x, t) for x in (block - 1, block, block + 1, 3 * block + 5) for t in (13, 10**4)]
        # the tally's cuts ((x >> k) + 1) // 2 between the odd m <= x/2^k and the rest
        pairs += [(x, t) for k in (2, 10, 17) for x in (2**k - 1, 2**k, 2**k + 1) for t in (2, 10**4)]
        # the band's first prime x // (2 K + 1) + 1 at a prime p and either side of it, and t
        # either side of p
        band = 2 * anatomy._SIEVE_BAND_K + 1
        pairs += [
            (band * p + d, t) for p in (211, 6053) for d in (-1, 0, 1) for t in (p - 1, p, p + 1, 10**4)
        ]
        pairs += [(2, 1), (1, 2), (2, 3), (30031, 1)]  # t < 2, and x = 1 or 2
        sevens = 0
        for x, t in pairs:
            want = _ref_omega_histogram(x, t)
            assert _omega_histogram(x, t) == want, (x, t)
            sevens += len(want) == 8
        assert sevens >= 3  # the omega = 7 bucket is filled

    def test_divisor_anatomy_sum(self):
        """The value, reduced, and the prime powers asked of f, in order, or
        the IncompleteDefinition raised, against the divisor walk: the
        anatomy grid's M, random M <= 5000, the totient and random tables
        with entries deleted."""
        rng = random.Random(20251024)
        Ms = [720720, 8648640, 9699690, 1, 2, 30] + [rng.randint(1, 5000) for _ in range(50)]
        ts = [1, F(5, 2), 3, 10, 100, 10**6]
        Ks = [-1, 0, F(1, 2), 1, 2, F(5, 2), 3, 7]
        outcomes = Counter()
        for M in Ms:
            fac = factorize(M)
            fs = [TOTIENT]
            for drop in (0, 0.1, 0.3):
                table = {
                    (p, a): F(rng.randint(0, 9), rng.randint(1, 6))
                    for p, e in fac
                    for a in range(1, e + 1)
                    if rng.random() >= drop
                }
                fs.append(MultiplicativeFunction(table))
            for f in fs:
                for t in ts:
                    for K in Ks:
                        want = _divisor_sum_outcome(_ref_divisor_anatomy_sum, M, t, K, f)
                        got = _divisor_sum_outcome(divisor_anatomy_sum, M, t, K, f)
                        assert got == want, (M, t, K, f)
                        outcomes[type(want[0]), bool(want[1])] += 1
        # values and failures both, with and without asks of f
        assert set(outcomes) == {(tuple, True), (tuple, False), (str, True)}


# ---------------------------------------------------------------------------
# Algebraic checks of the exact kernels at the anatomy grid's scale
# ---------------------------------------------------------------------------

# the anatomy benchmark's 21 points (t, gamma), each counting n <= 10^5 gamma
_GRID = [(t, g) for t in (300, 10**3, 3 * 10**3, 10**4, 3 * 10**4, 10**5) for g in (F(3, 2), F(2), F(5, 2))]
_GRID += [(3 * 10**5, F(3, 2)), (3 * 10**5, F(2)), (10**6, F(2))]


def _omega_moments(x: int, t: int) -> tuple[int, int, int]:
    """(x, sum_{p <= t} floor(x/p), sum_{p < q <= t} floor(x/(p q))) over
    primes p, q: the number of n <= x, of pairs (n, p) with p | n, and of
    (n, {p, q}) with p q | n."""
    ps = primes_upto(max(1, min(t, x)))
    pairs = 0
    for i, p in enumerate(ps):
        m = x // p  # floor(x/(p q)) = floor(m/q)
        if m <= p:
            break
        pairs += sum(m // q for q in ps[i + 1 : bisect_right(ps, m)])
    return x, sum(x // p for p in ps), pairs


def test_omega_histogram_moments():
    """sum hist[c] = x, sum c hist[c] = sum floor(x/p) and sum C(c, 2)
    hist[c] = sum floor(x/(p q)), the moments behind Turan's proof of
    Hardy-Ramanujan, at every grid (x, t), at x = ENUMERATION_CAP and at
    x = 2^k +- 1."""
    cap = anatomy.ENUMERATION_CAP
    cases = [(int(10**5 * g), t) for t, g in _GRID] + [(cap, 2), (cap, cap)]
    cases += [(2**k + d, t) for k in range(1, 21) for d in (-1, 1) for t in (2, 2**k + d)]
    for x, t in cases:
        hist = _omega_histogram(x, t)
        moments = [sum(math.comb(c, j) * n for c, n in enumerate(hist)) for j in range(3)]
        assert tuple(moments) == _omega_moments(x, t), (x, t)


_FINGERPRINT_PRIMES = (2**61 - 1, 2**89 - 1)


@functools.lru_cache(maxsize=None)
def _mertens_fingerprint(t: int, gamma: F) -> tuple[int, int]:
    """(prod p b, prod (p b + c)) over the primes p <= t, gamma = a/b and
    c = a - b, mod the product of _FINGERPRINT_PRIMES (so mod each)."""
    q = math.prod(_FINGERPRINT_PRIMES)
    a, b = gamma.numerator, gamma.denominator
    ps = primes_upto(t)
    num = 1
    for p in ps:
        num = num * (p * b + a - b) % q
    return pow(b, len(ps), q) * _primorial(t, q) % q, num


@functools.lru_cache(maxsize=None)
def _primorial(t: int, q: int) -> int:
    """prod_{p <= t} p mod q."""
    out = 1
    for p in primes_upto(t):
        out = out * p % q
    return out


@pytest.mark.parametrize("in_gmp", [False, True], ids=["int", "gmp"])
def test_mertens_product_fingerprints(in_gmp, monkeypatch):
    """mertens_product(t, gamma) = N/D has N prod p b = D prod (p b + c),
    checked mod the primes 2^61 - 1 and 2^89 - 1 (a Karp-Rabin
    fingerprint) at every grid point, with GMP off and with every product
    in GMP."""
    monkeypatch.setattr(anatomy, "_gmp", anatomy._gmp if in_gmp else False)  # restored after the test
    if in_gmp:
        if not anatomy._load_gmp():
            pytest.skip("libgmp.so.10 does not load")
        monkeypatch.setattr(anatomy, "_GMP_CUT", 0)
    for t, gamma in _GRID:
        got = mertens_product(t, gamma)
        den, num = _mertens_fingerprint(t, gamma)
        for q in _FINGERPRINT_PRIMES:
            assert got.numerator % q * den % q == got.denominator % q * num % q, (t, gamma, q)


class _RemainderTree:
    """A product tree over ints, and the remainders of an int down it: n mod
    each leaf from n mod the root, each node's remainder reduced by its
    children (Bernstein, "Fast multiplication and its applications",
    Algorithmic Number Theory, MSRI Publ. 44, 2008). The nodes are held in
    libgmp through a ctypes handle of this module's own, so no megabit
    division runs in CPython's quadratic int division; where libgmp does not
    load they are ints. Use as a context manager: every mpz is cleared on
    the way out."""

    _lib = None  # ({name: mpz function}, mpz_t) once loaded; False where it does not load

    def __init__(self, leaves: list[int]):
        self.zs = []  # every mpz made
        self.loads()
        self.leaves = leaves
        level = [self._in(v) for v in leaves]
        self.levels = [level]
        while len(level) > 1:
            level = [
                self._mul(level[i], level[i + 1]) if i + 1 < len(level) else level[i]
                for i in range(0, len(level), 2)
            ]
            self.levels.append(level)

    @staticmethod
    def _load():
        import ctypes

        class Mpz(ctypes.Structure):  # __mpz_struct of gmp.h
            _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("d", ctypes.c_void_p)]

        mpz, size, c_int = ctypes.POINTER(Mpz), ctypes.c_size_t, ctypes.c_int
        signatures = {
            "__gmpz_init": [mpz],
            "__gmpz_clear": [mpz],
            "__gmpz_mul": [mpz, mpz, mpz],
            "__gmpz_tdiv_r": [mpz, mpz, mpz],
            "__gmpz_tdiv_qr": [mpz, mpz, mpz, mpz],
            "__gmpz_import": [mpz, size, c_int, size, c_int, size, ctypes.c_char_p],
            "__gmpz_export": [ctypes.c_void_p, ctypes.c_void_p, c_int, size, c_int, size, mpz],
            "__gmpz_sizeinbase": [mpz, c_int],
        }
        try:
            lib = ctypes.CDLL("libgmp.so.10")
            fns = {name[len("__gmpz_") :]: getattr(lib, name) for name in signatures}
        except (OSError, AttributeError):
            return False
        for name, args in signatures.items():
            fns[name[len("__gmpz_") :]].argtypes = args
        fns["sizeinbase"].restype = size
        return fns, Mpz

    def _new(self):
        fns, Mpz = self._lib
        z = Mpz()
        fns["init"](z)
        self.zs.append(z)
        return z

    def _in(self, v: int):
        if not self._lib:
            return v
        z, words = self._new(), (v.bit_length() + 63) // 64
        self._lib[0]["import"](z, words, -1, 8, -1, 0, v.to_bytes(8 * words, "little"))
        return z

    def _out(self, z) -> int:
        if not self._lib:
            return z
        import ctypes

        out = bytearray((self._lib[0]["sizeinbase"](z, 2) + 63) // 64 * 8)
        self._lib[0]["export"]((ctypes.c_char * len(out)).from_buffer(out), None, -1, 8, -1, 0, z)
        return int.from_bytes(out, "little")

    def _mul(self, x, y):
        if not self._lib:
            return x * y
        z = self._new()
        self._lib[0]["mul"](z, x, y)
        return z

    def _mod(self, x, y):
        if not self._lib:
            return x % y
        z = self._new()
        self._lib[0]["tdiv_r"](z, x, y)
        return z

    @classmethod
    def loads(cls) -> bool:
        """Whether the nodes are held in libgmp."""
        if cls._lib is None:
            cls._lib = cls._load()
        return bool(cls._lib)

    def product(self) -> int:
        return self._out(self.levels[-1][0])

    def divmod(self, n: int, d: int) -> tuple[int, int]:
        """divmod(n, d) for n >= 0 and d > 0."""
        if not self._lib:
            return divmod(n, d)
        q, r = self._new(), self._new()
        self._lib[0]["tdiv_qr"](q, r, self._in(n), self._in(d))
        return self._out(q), self._out(r)

    def residues(self, n: int) -> list[int]:
        """n mod each leaf, for n >= 0."""
        rs = [self._mod(self._in(n), self.levels[-1][0])]
        for level in reversed(self.levels[:-1]):
            rs = [self._mod(rs[i // 2], m) for i, m in enumerate(level)]
        return [self._out(r) for r in rs]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for z in self.zs:
            self._lib[0]["clear"](z)
        self.zs.clear()


def _assert_reduced(points: list[tuple[int, F]]) -> int:
    """Asserts that mertens_product(t, gamma) = N/D is in lowest terms at
    each (t, gamma) of points, and returns how many it checked: all of them
    where libgmp loads, those with t <= 10^5 elsewhere.

    With gamma = a/b and P the product of the primes up to t: D = b^pi(t) E
    with E dividing P, so E is squarefree and D has no prime but E's and
    b's; b's do not divide N; and N mod q != 0 for each q | E. A remainder
    tree over the products of runs of 64 primes up to t gives N and P/E mod
    each run's product m. The run's primes that divide E are those that do
    not divide P/E, whose product is k = m / gcd(P/E mod m, m), and N mod q
    != 0 for each of them exactly when gcd(N mod k, k) = 1 (gcds of about
    1,300 bits). P/E is the smaller to reduce (0.2 against 1.3 Mbit at t =
    10^6, gamma = 2). In int, whose division is quadratic, one descent at
    t = 10^6 took 3 s; so without libgmp the points past t = 10^5 are left
    out."""
    checked = 0
    for t in sorted({t for t, _ in points}):
        if t > 10**5 and not _RemainderTree.loads():
            continue
        ps = primes_upto(t)
        with _RemainderTree([math.prod(ps[i : i + 64]) for i in range(0, len(ps), 64)]) as tree:
            primorial = tree.product()
            for gamma in [g for s, g in points if s == t]:
                got = mertens_product(t, gamma)
                kept, rest = tree.divmod(got.denominator, gamma.denominator ** len(ps))
                assert rest == 0 and kept > 1, (t, gamma)
                dropped, rest = tree.divmod(primorial, kept)
                assert rest == 0, (t, gamma)  # E = kept divides P
                for m, rd, rn in zip(tree.leaves, tree.residues(dropped), tree.residues(got.numerator)):
                    k = m // math.gcd(rd, m)
                    assert math.gcd(rn % k, k) == 1, (t, gamma, k)
                for q, _ in factorize(gamma.denominator):
                    assert got.numerator % q, (t, gamma, q)
                checked += 1
    return checked


@pytest.mark.parametrize("in_gmp", [False, True], ids=["int", "gmp"])
def test_mertens_product_is_reduced(in_gmp, monkeypatch):
    """mertens_product(t, gamma) = N/D is in lowest terms at every grid
    point below t = 10^6, with GMP off and with every product in GMP: N mod
    q != 0 for every prime q of D, each kept q <= t and each q | b (see
    _assert_reduced). The point t = 10^6 would add about 0.6 s over the two
    modes, so tier-1 leaves it out; _assert_reduced([(10**6, F(2))]) checks
    it by hand."""
    monkeypatch.setattr(anatomy, "_gmp", anatomy._gmp if in_gmp else False)  # restored after the test
    if in_gmp:
        if not anatomy._load_gmp():
            pytest.skip("libgmp.so.10 does not load")
        monkeypatch.setattr(anatomy, "_GMP_CUT", 0)
    assert _assert_reduced([(t, g) for t, g in _GRID if t < 10**6]) >= 18


@pytest.mark.parametrize("gamma", [F(3, 2), F(5, 2), F(17, 4), F(1), F(2)])
def test_mertens_product_under_a_tiny_sieve_cap(gamma, monkeypatch):
    """The exact product sieves to floor(t) and no further: b t + c lies
    past the cap of 100 (at it for gamma = 1), and the product at t = 100 is
    still built."""
    monkeypatch.setattr(arith, "_SIEVE_CAP", 100)
    for name, value in (("_sieve_limit", 0), ("_is_prime", bytearray()), ("_primes", [])):
        monkeypatch.setattr(arith, name, value)
    a, b = gamma.numerator, gamma.denominator
    assert b * 100 + a - b > 100 or gamma == 1
    want = F(1)
    for p in primes_upto(100):
        want *= 1 + (gamma - 1) / p
    assert mertens_product(100, gamma) == want
    assert arith._sieve_limit == 100
    with pytest.raises(ResourceLimit):
        mertens_product(101, gamma)


@pytest.mark.parametrize("bits", [True, 0, 15, 2**14 + 1, 1.5])
@pytest.mark.parametrize(
    "fn",
    [
        lambda bits: divisor_anatomy_bound(12, 10, F(1, 2), 2, precision_bits=bits),
        lambda bits: ratio_to_log_power(30, 2, bits),
    ],
    ids=["divisor_anatomy_bound", "ratio_to_log_power"],
)
def test_precision_bits_outside_its_range_rejected(fn, bits):
    """precision_bits is an int, not a bool, in [16, 2^14], as in Params."""
    with pytest.raises(InvalidParameter, match="^precision_bits "):
        fn(bits)
    assert fn(16).precision_bits == 16


def test_coprime_fraction():
    for n, d in ((0, 1), (1, 1), (-3, 4), (7, 2), (2**521 - 1, 3**300), (-(5**200), 2**700)):
        got = coprime_fraction(n, d)
        want = F(n, d)
        assert got == want and hash(got) == hash(want)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert str(got) == str(want)


# Run under a newer interpreter than the suite's: 3.12 removed the
# _normalize keyword that coprime_fraction uses before 3.12.
_NEWER_PYTHON_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from paircert.anatomy import mertens_product
from paircert.arith import int_str
assert hasattr(Fraction, "_from_coprime_ints")
x = mertens_product(10**4, Fraction(5, 2))
print(f"{x.numerator:x}/{x.denominator:x}", hash(x), int_str(x.numerator * x.denominator))
"""


def _newer_python():
    """The path of a python3.12 or python3.13 on PATH that starts, or None."""
    for name in ("python3.12", "python3.13"):
        exe = shutil.which(name)
        if exe is None:
            continue
        probe = [exe, "-I", "-c", "import sys; sys.exit(sys.version_info < (3, 12))"]
        if subprocess.run(probe, capture_output=True, timeout=60).returncode == 0:
            return exe
    return None


def test_coprime_fraction_on_python_3_12_or_later():
    """The Fraction._from_coprime_ints branch gives the same Mertens product
    (hex digits and hash) and the same int_str past the 4300-digit limit."""
    exe = _newer_python()
    if exe is None:
        pytest.skip("no python3.12 or python3.13 on PATH")
    src = Path(anatomy.__file__).resolve().parents[1]
    run = subprocess.run(
        [exe, "-I", "-B", "-c", _NEWER_PYTHON_SCRIPT, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    x = mertens_product(10**4, F(5, 2))
    big = x.numerator * x.denominator
    assert len(int_str(big)) > 4300
    want = [f"{x.numerator:x}/{x.denominator:x}", str(hash(x)), int_str(big)]
    assert run.stdout.split() == want
