"""Exact inequality chains for the anatomy of integers.

Counting integers with many small prime factors, the Rankin majorization
with weight gamma^(number of small primes), divisor-convolution sums under
the same condition, and Mertens-type products.  Parameterizing by a rational
gamma (standing for e^C) keeps every chain step bit-exact; the bridge to
e^C itself happens only in interval arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .arith import (
    Interval,
    Rational,
    const,
    divisors,
    factorize,
    fraction_str,
    interval_eval,
    log_of,
    primes_upto,
)
from .errors import InvalidParameter, ResourceLimit
from .model import MultiplicativeFunction

ENUMERATION_CAP = 2_000_000

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _floor(x: Rational) -> int:
    x = Fraction(x)
    return x.numerator // x.denominator


def small_prime_divisor_count(n: int, t: Rational) -> int:
    """omega_t(n) = #{p <= t : p | n} (the single-integer anatomy count)."""
    bound = _floor(Fraction(t))
    if bound < 2:
        return 0
    return sum(1 for p, _ in factorize(n) if p <= bound)


@lru_cache(maxsize=8)
def _omega_counts(x: int, t: int) -> bytes:
    """counts[n] = #{p <= t : p | n} for 0 <= n <= x, by a sieve pass."""
    counts = bytearray(x + 1)
    for p in primes_upto(max(t, 1)):
        if p > x:
            break
        for m in range(p, x + 1, p):
            counts[m] += 1
    return bytes(counts)


def count_many_small_primes(x: Rational, t: Rational, K: Rational) -> int:
    """#{n <= x : omega_t(n) >= K}, by exact enumeration."""
    if x < 1:
        raise InvalidParameter(f"count requires x >= 1, got {x}")
    if t < 1:
        raise InvalidParameter(f"count requires t >= 1, got {t}")
    xi = _floor(x)
    if xi > ENUMERATION_CAP:
        raise ResourceLimit(f"enumeration bound {xi} exceeds cap {ENUMERATION_CAP}")
    K = Fraction(K)
    if K <= 0:
        return xi
    counts = _omega_counts(xi, _floor(Fraction(t)))
    return sum(1 for n in range(1, xi + 1) if counts[n] >= K)


def rankin_sum(x: Rational, t: Rational, gamma: Rational) -> Fraction:
    """sum_{n <= x} gamma^(omega_t(n)), exactly."""
    if x < 1:
        raise InvalidParameter(f"rankin_sum requires x >= 1, got {x}")
    if t < 1:
        raise InvalidParameter(f"rankin_sum requires t >= 1, got {t}")
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise InvalidParameter(f"gamma must be positive, got {gamma}")
    xi = _floor(x)
    if xi > ENUMERATION_CAP:
        raise ResourceLimit(f"enumeration bound {xi} exceeds cap {ENUMERATION_CAP}")
    counts = _omega_counts(xi, _floor(Fraction(t)))
    hist: dict[int, int] = {}
    for n in range(1, xi + 1):
        c = counts[n]
        hist[c] = hist.get(c, 0) + 1
    total = _ZERO
    for c, reps in hist.items():
        total += reps * gamma**c
    return total


def divisor_anatomy_sum(
    M: int, t: Rational, K: Rational, f: MultiplicativeFunction
) -> Fraction:
    """sum over mn = M with omega_t(m) >= K of f(n), exactly."""
    if M < 1:
        raise InvalidParameter(f"M must be >= 1, got {M}")
    K = Fraction(K)
    total = _ZERO
    for m in divisors(M):
        if small_prime_divisor_count(m, t) >= K:
            total += f(M // m)
    return total


def rankin_divisor_sum(
    M: int, t: Rational, gamma: Rational, f: MultiplicativeFunction
) -> Fraction:
    """sum over mn = M of gamma^(omega_t(m)) f(n), by divisor enumeration."""
    gamma = Fraction(gamma)
    total = _ZERO
    for m in divisors(M):
        total += gamma ** small_prime_divisor_count(m, t) * f(M // m)
    return total


def rankin_divisor_product(
    M: int, t: Rational, gamma: Rational, f: MultiplicativeFunction
) -> Fraction:
    """The same sum as a product over p | M of prime-power factors:

        p <= t:  (1*f)(p^v) + (gamma - 1) (1*f)(p^(v-1))
        p >  t:  (1*f)(p^v)
    """
    gamma = Fraction(gamma)
    bound = _floor(Fraction(t))
    out = _ONE
    for p, e in factorize(M):
        full = f.one_star_prime_power(p, e)
        if p <= bound:
            out *= full + (gamma - 1) * f.one_star_prime_power(p, e - 1)
        else:
            out *= full
    return out


def divisor_anatomy_bound(
    M: int, t: Rational, K: Rational, gamma: Rational, precision_bits: int = 256
) -> Union[Fraction, Interval]:
    """The pre-Mertens majorant M gamma^(-K) prod_{p<=t, p|M} (1 + (gamma-1)/p).

    Exact rational for integer K; non-integer K falls back to a certified
    interval (flagged by the return type).
    """
    if M < 1:
        raise InvalidParameter(f"M must be >= 1, got {M}")
    gamma = Fraction(gamma)
    if gamma <= 1:
        raise InvalidParameter(f"gamma must exceed 1, got {gamma}")
    K = Fraction(K)
    bound = _floor(Fraction(t))
    prod = Fraction(M)
    for p, _ in factorize(M):
        if p <= bound:
            prod *= 1 + (gamma - 1) / p
    if K.denominator == 1:
        return prod * gamma ** (-K.numerator)
    return interval_eval(prod, [(const(gamma), -K)], precision_bits)


def _tree_prod(values: list[int]) -> int:
    if not values:
        return 1
    while len(values) > 1:
        values = [
            values[i] * values[i + 1] if i + 1 < len(values) else values[i]
            for i in range(0, len(values), 2)
        ]
    return values[0]


def mertens_product(t: Rational, gamma: Rational) -> Fraction:
    """prod_{p <= t} (1 + (gamma - 1)/p), exactly (balanced product tree)."""
    if t < 1:
        raise InvalidParameter(f"mertens_product requires t >= 1, got {t}")
    gamma = Fraction(gamma)
    if gamma < 1:
        raise InvalidParameter(f"gamma must be >= 1, got {gamma}")
    ps = primes_upto(t)
    a, b = gamma.numerator, gamma.denominator
    # 1 + (gamma-1)/p = (p b + a - b) / (p b)
    num = _tree_prod([p * b + a - b for p in ps])
    den = _tree_prod([p * b for p in ps])
    return Fraction(num, den)


def ratio_to_log_power(
    t: Rational, gamma: Rational, precision_bits: int = 256
) -> Interval:
    """Diagnostic ratio prod_{p<=t}(1 + (gamma-1)/p) / (Log t)^(gamma-1)."""
    exact = mertens_product(t, gamma)
    gamma = Fraction(gamma)
    return interval_eval(exact, [(log_of(t), 1 - gamma)], precision_bits)


@dataclass(frozen=True)
class AnatomyReport:
    """One exact chain exact_value <= rankin_bound <= mertens_bound."""

    exact_value: Fraction
    rankin_bound: Fraction
    mertens_bound: Fraction
    gamma: Fraction

    @property
    def chain_holds(self) -> bool:
        return self.exact_value <= self.rankin_bound <= self.mertens_bound

    def to_json(self) -> dict:
        return {
            "exact": fraction_str(self.exact_value),
            "rankin_bound": fraction_str(self.rankin_bound),
            "mertens_bound": fraction_str(self.mertens_bound),
            "gamma": fraction_str(self.gamma),
            "chain_holds": self.chain_holds,
        }


def count_chain_report(
    x: Rational, t: Rational, K: Rational, gamma: Rational
) -> AnatomyReport:
    """Rankin chain for the unweighted count (integer K for exactness)."""
    K = Fraction(K)
    gamma = Fraction(gamma)
    if K.denominator != 1:
        raise InvalidParameter("exact chain reports need integer K")
    if gamma < 1:
        raise InvalidParameter(f"gamma must be >= 1, got {gamma}")
    exact = Fraction(count_many_small_primes(x, t, K))
    scale = gamma ** (-K.numerator)
    rank = scale * rankin_sum(x, t, gamma)
    mert = scale * _floor(Fraction(x)) * mertens_product(t, gamma)
    return AnatomyReport(exact, rank, mert, gamma)


def divisor_chain_report(
    M: int, t: Rational, K: Rational, gamma: Rational, f: MultiplicativeFunction
) -> AnatomyReport:
    """Divisor chain sum <= gamma^-K (factorized product) <= pre-Mertens bound."""
    K = Fraction(K)
    gamma = Fraction(gamma)
    if K.denominator != 1:
        raise InvalidParameter("exact chain reports need integer K")
    if gamma <= 1:
        raise InvalidParameter(f"gamma must exceed 1, got {gamma}")
    exact = divisor_anatomy_sum(M, t, K, f)
    scale = gamma ** (-K.numerator)
    rank = scale * rankin_divisor_product(M, t, gamma, f)
    mert = divisor_anatomy_bound(M, t, K, gamma)
    return AnatomyReport(exact, rank, mert, gamma)
