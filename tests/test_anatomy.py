"""Exact anatomy chains: Rankin step, divisor chains, Mertens products."""

import math
import random
import shutil
import subprocess
import sys
from bisect import bisect_left
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

from paircert import anatomy
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
        counts = _omega_counts(x, t)
        assert len(counts) == x + 1 and counts[0] == 0
        for n in sorted({1, x, *range(1, x + 1, max(1, x // 997))}):
            assert counts[n] == small_prime_divisor_count(n, t), n
        if x == 510510:
            assert counts[x] == 7  # 2*3*5*7*11*13*17

    @pytest.mark.parametrize(
        "x, t",
        [(30029, 10**4), (30030, 10**4), (30031, 10**4), (70001, 10**4)]
        + [(30031, t) for t in (1, 2, 3, 12, 13, 14)],
    )
    def test_wheel_sieve_matches_every_n(self, x, t):
        """x below, at and above the 30030 wheel period; t giving an empty,
        a partial and a full wheel of the primes 2..13."""
        counts = _omega_counts(x, t)
        assert counts[0] == 0
        assert list(counts[1:]) == [small_prime_divisor_count(n, t) for n in range(1, x + 1)]

    @pytest.mark.parametrize("x, t", [(1, 1), (2000, 7), (4001, 30), (3000, 10**4)])
    def test_omega_histogram_matches_per_n_loop(self, x, t):
        hist = _omega_histogram(x, t)
        tally = Counter(small_prime_divisor_count(n, t) for n in range(1, x + 1))
        assert isinstance(hist, tuple)  # the cached value is shared by every caller
        assert hist == tuple(tally[c] for c in range(max(tally) + 1))

    def test_one_sieve_per_count_chain(self, monkeypatch):
        calls = []
        sieve = anatomy._omega_counts

        def counted(x, t):
            calls.append((x, t))
            return sieve(x, t)

        monkeypatch.setattr(anatomy, "_omega_counts", counted)
        _omega_histogram.cache_clear()
        report = count_chain_report(F(25001, 2), 1000, 3, F(5, 2))
        assert report.chain_holds
        assert calls == [(12500, 1000)]


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
        with pytest.raises(InvalidParameter, match="t >= 1"):
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
# tree multiplied pair by pair; and the omega_t histogram as it stood with
# one bytes.count pass per value. Kept verbatim (the histogram without its
# cache) as the reference that the kernels must match integer for integer.


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
    counts = _omega_counts(x, t)
    hist = [0]
    while reps := counts.count(len(hist)):
        hist.append(reps)
    hist[0] = x - sum(hist)
    return tuple(hist)


class TestAnatomyKernelReference:
    """mertens_product, _tree_prod and _omega_histogram against the
    references above, integer for integer."""

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

    def test_tree_prod(self):
        rng = random.Random(20251020)
        lengths = [0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 100, 257, 1000]
        for n in lengths:
            values = [rng.getrandbits(rng.randint(1, 80)) + 1 for _ in range(n)]
            assert anatomy._tree_prod(list(values)) == _ref_tree_prod(values), n

    def test_omega_histogram(self):
        cap = anatomy.ENUMERATION_CAP
        rng = random.Random(20251021)
        pairs = [(1, 1), (1, 10), (2, 2), (30, 5), (4001, 30), (30031, 13), (250000, 300)]
        pairs += [(250000, 10**4), (510509, 17), (510510, 16), (510510, 17), (510510, 10**5)]
        pairs += [(cap, 17), (cap, 10**5)]
        pairs += [(rng.randint(1, cap), rng.choice([1, 2, 7, 17, 300, 10**4])) for _ in range(6)]
        sevens = 0
        for x, t in pairs:
            want = _ref_omega_histogram(x, t)
            assert _omega_histogram.__wrapped__(x, t) == want, (x, t)
            sevens += len(want) == 8
        assert sevens >= 3  # the omega = 7 bucket is filled


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
