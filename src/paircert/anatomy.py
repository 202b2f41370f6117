"""Exact inequality chains for the anatomy of integers.

Counting integers with many small prime factors, the Rankin majorization
with weight gamma^(number of small primes), divisor-convolution sums under
the same condition, and Mertens-type products.  Parameterizing by a rational
gamma (standing for e^C) keeps every chain step bit-exact; the bridge to
e^C itself happens only in interval arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .arith import (
    Interval,
    Rational,
    _bracket_point,
    _interval_eval,
    const,
    coprime_fraction,
    divisors,
    factorize,
    fraction_str,
    interval_eval,
    log_of,
    prime_flags,
    primes_upto,
)
from .errors import InvalidParameter, ResourceLimit
from .model import MultiplicativeFunction, _check_precision, _rational

ENUMERATION_CAP = 2_000_000
# omega_t(n) <= 7 below 2*3*5*7*11*13*17*19: the sieve's bytes and the
# histogram's three bit planes rely on it
assert ENUMERATION_CAP < 9_699_690

_ZERO = Fraction(0)
_ONE = Fraction(1)


def small_prime_bound(t: Rational) -> int:
    """floor(t), for a caller that counts omega_t of many integers to floor t
    once. No Fraction is made of t: a float or bool t raises InvalidParameter."""
    if isinstance(t, (bool, float)):
        raise InvalidParameter(f"{t!r} is not an exact rational")
    return math.floor(t)


def _check_M(M) -> None:
    """InvalidParameter unless M is an int >= 1 (a bool is no int here)."""
    if type(M) is not int:
        raise InvalidParameter(f"M must be an integer, got {M!r}")
    if M < 1:
        raise InvalidParameter(f"M must be >= 1, got {M}")


def small_prime_divisor_count(n: int, t: Rational) -> int:
    """omega_t(n) = #{p <= t : p | n} (the single-integer anatomy count),
    with t read through small_prime_bound."""
    bound = small_prime_bound(t)
    if bound < 2:
        return 0
    return sum(1 for p, _ in factorize(n) if p <= bound)


_INC = bytes(range(1, 256)) + b"\x00"  # byte n -> n + 1
_WHEEL = (2, 3, 5, 7, 11, 13)  # period 30030


def _omega_counts(x: int, t: int) -> bytes:
    """counts[n] = #{p <= t : p | n} for 0 <= n <= x, by a sieve pass.

    The counts of the wheel primes 2..13 that are <= min(t, x) repeat with
    their product as period (at most 30030 bytes). So one period is sieved
    and repeated to length x + 1, counts[0] is reset to 0, and only the
    primes above 13 are sieved over the whole range. A byte cannot
    overflow: omega_t(n) <= 7 for n <= ENUMERATION_CAP.
    """
    bound = min(t, x)
    wheel = [p for p in _WHEEL if p <= bound]
    period = bytearray(math.prod(wheel))
    for p in wheel:
        period[::p] = period[::p].translate(_INC)
    counts = period * (x // len(period) + 1)
    del counts[x + 1 :]
    counts[0] = 0
    for p in primes_upto(max(1, bound))[len(wheel) :]:
        counts[p::p] = counts[p::p].translate(_INC)
    return bytes(counts)


@lru_cache(maxsize=8)
def _omega_histogram(x: int, t: int) -> tuple[int, ...]:
    """hist[c] = #{1 <= n <= x : omega_t(n) = c}, up to the largest c taken.

    The c taken are 0, 1, ..., max: c of the small primes of n multiply to
    at most n. So the histogram ends at its last nonempty bucket. It is
    cached on (x, t) rather than the x + 1 byte sieve behind it, so the
    count and the Rankin sum of one chain share a single sieve and a single
    tally, and the cache holds a few ints per entry.

    The tally reads the sieve as one integer, one byte per n. Every byte is
    at most 7 (omega_t(n) <= 7 for n <= ENUMERATION_CAP), so its bits 0, 1
    and 2 hold it, and three bit planes, each masked to one bit per byte,
    describe the whole sieve. The popcount of the AND of the planes of the
    bits in s counts the n whose byte has every bit of s set; inclusion-
    exclusion over the bits outside a value v turns these superset counts
    into the exact count of v. Seven popcounts of big integers replace one
    bytes.count pass per value, whose per-byte compare loop branches on the
    data, and these data make that branch unpredictable.
    """
    counts = _omega_counts(x, t)
    whole = int.from_bytes(counts, "little")
    ones = int.from_bytes(b"\x01" * len(counts), "little")
    p0, p1, p2 = (whole >> bit & ones for bit in range(3))
    p01 = p0 & p1
    # superset[s] = #{0 <= n <= x : every bit of s is set in counts[n]}
    superset = [len(counts)]
    superset += [m.bit_count() for m in (p0, p1, p01, p2, p0 & p2, p1 & p2, p01 & p2)]
    hist = [
        sum((-1) ** (s ^ v).bit_count() * superset[s] for s in range(v, 8) if s & v == v)
        for v in range(8)
    ]
    while hist[-1] == 0:
        hist.pop()
    hist[0] -= 1  # n = 0
    return tuple(hist)


def count_many_small_primes(x: Rational, t: Rational, K: Rational) -> int:
    """#{n <= x : omega_t(n) >= K}, by exact enumeration."""
    x, t, K = _rational(x), _rational(t), _rational(K)
    if x < 1:
        raise InvalidParameter(f"count requires x >= 1, got {x}")
    if t < 1:
        raise InvalidParameter(f"count requires t >= 1, got {t}")
    xi = math.floor(x)
    if xi > ENUMERATION_CAP:
        raise ResourceLimit(f"enumeration bound {xi} exceeds cap {ENUMERATION_CAP}")
    if K <= 0:
        return xi
    return sum(_omega_histogram(xi, math.floor(t))[math.ceil(K) :])


def rankin_sum(x: Rational, t: Rational, gamma: Rational) -> Fraction:
    """sum_{n <= x} gamma^(omega_t(n)), exactly."""
    x, t, gamma = _rational(x), _rational(t), _rational(gamma)
    if x < 1:
        raise InvalidParameter(f"rankin_sum requires x >= 1, got {x}")
    if t < 1:
        raise InvalidParameter(f"rankin_sum requires t >= 1, got {t}")
    if gamma <= 0:
        raise InvalidParameter(f"gamma must be positive, got {gamma}")
    xi = math.floor(x)
    if xi > ENUMERATION_CAP:
        raise ResourceLimit(f"enumeration bound {xi} exceeds cap {ENUMERATION_CAP}")
    total = _ZERO
    for c, reps in enumerate(_omega_histogram(xi, math.floor(t))):
        total += reps * gamma**c
    return total


def divisor_anatomy_sum(
    M: int, t: Rational, K: Rational, f: MultiplicativeFunction
) -> Fraction:
    """sum over mn = M with omega_t(m) >= K of f(n), exactly.

    The divisors m are built from factorize(M) with their exponents, so
    omega_t(m) is an integer count against floor(t), and f(n) is a product
    of values f(p^j), each asked of f once, in the order that the divisors,
    taken ascending, need them. The sum runs over integer numerators, one
    running sum per denominator.
    """
    _check_M(M)
    need = math.ceil(_rational(K))  # an integer count is >= K iff >= ceil(K)
    bound = math.floor(_rational(t))
    fac = factorize(M)
    divs = [(1, 0, ())]  # (m, omega_t(m), exponents of m along fac)
    for p, e in fac:
        small = p <= bound
        divs = [
            (m * p**k, c + (small and k > 0), ks + (k,))
            for m, c, ks in divs
            for k in range(e + 1)
        ]
    values: dict[tuple[int, int], Fraction] = {}
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
    return sum((Fraction(n, d) for d, n in sums.items()), _ZERO)


def rankin_divisor_sum(
    M: int, t: Rational, gamma: Rational, f: MultiplicativeFunction
) -> Fraction:
    """sum over mn = M of gamma^(omega_t(m)) f(n), by divisor enumeration."""
    _check_M(M)
    t, gamma = _rational(t), _rational(gamma)
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
    _check_M(M)
    gamma = _rational(gamma)
    bound = math.floor(_rational(t))
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
    _check_precision(precision_bits, "precision_bits")
    _check_M(M)
    gamma = _rational(gamma)
    if gamma <= 1:
        raise InvalidParameter(f"gamma must exceed 1, got {gamma}")
    K = _rational(K)
    bound = math.floor(_rational(t))
    a, b = gamma.numerator, gamma.denominator
    num, den = M, 1  # 1 + (gamma - 1)/p = (p b + a - b)/(p b)
    for p, _ in factorize(M):
        if p <= bound:
            num *= p * b + a - b
            den *= p * b
    if K.denominator == 1:
        k = K.numerator
        if k >= 0:
            return Fraction(num * b**k, den * a**k)
        return Fraction(num * a**-k, den * b**-k)
    return interval_eval(Fraction(num, den), [(const(gamma), -K)], precision_bits)


def _tree_prod(values: list[int]) -> int:
    """The product of values as a balanced tree: math.prod over runs of 16,
    then pairs, so the large multiplications have operands of like size."""
    values = [math.prod(values[i : i + 16]) for i in range(0, len(values), 16)] or [1]
    while len(values) > 1:
        values = [
            values[i] * values[i + 1] if i + 1 < len(values) else values[i]
            for i in range(0, len(values), 2)
        ]
    return values[0]


# The value sieve holds b bytes per integer up to t. Per exact product
# (Python 3.11, 2 vCPUs), against the modular inverse scan, it was 0-37%
# faster for every b <= 4 at t = 10^3 to 10^6; at t = 10^6 it was within 9%
# either way for b = 5..12, and for b >= 16 at t >= 3 * 10^5 it was 8-32%
# slower.
_VALUE_SIEVE_MAX_B = 4


def _mertens_args(t: Rational, gamma: Rational) -> tuple[Fraction, Fraction]:
    """Check the arguments of a Mertens product; both as Fractions."""
    t, gamma = _rational(t), _rational(gamma)
    if t < 1:
        raise InvalidParameter(f"mertens_product requires t >= 1, got {t}")
    if gamma < 1:
        raise InvalidParameter(f"gamma must be >= 1, got {gamma}")
    return t, gamma


def mertens_product(t: Rational, gamma: Rational) -> Fraction:
    """prod_{p <= t} (1 + (gamma - 1)/p), exactly, reduced by construction.

    With gamma = a/b in lowest terms and c = a - b, each factor is
    (p b + c)/(p b), and the denominator is b^pi(t) prod p. A prime q | b
    divides no p b + c, since p b + c = a (mod q), so it never cancels. A
    prime q <= t with q not dividing b divides the denominator exactly once
    (from p = q), so it cancels if and only if it divides some p b + c, that
    is if some prime p <= t has p b = -c (mod q): then the factor of the
    smallest such p is divided by q, and otherwise q is kept in the
    denominator. The reduced numerator and b^pi(t) prod(kept q) are coprime;
    both are balanced product trees, and the Fraction is built without a gcd.

    The smallest such p is found by one scan of a progression mod q. For
    b <= _VALUE_SIEVE_MAX_B the scan runs over is_v, which marks p b at
    index p b for every prime p <= t (the prime sieve laid out with stride
    b): the marked indices j = -c (mod q) are the p b with q | p b + c, and
    since p b grows with p, the first one found is the smallest p b, so
    p = j / b is the smallest p. No modular inverse is needed. For a larger
    b, is_v would be b times the sieve and slower to scan than one modular
    inverse per prime, so the scan runs over the sieve itself, from
    p = -c b^-1 (mod q).
    """
    t, gamma = _mertens_args(t, gamma)
    ps = primes_upto(t)
    a, b = gamma.numerator, gamma.denominator
    c = a - b
    nums = [p * b + c for p in ps]  # indexed like ps
    flags = prime_flags(t)
    by_value = b <= _VALUE_SIEVE_MAX_B
    if by_value:
        is_v = bytearray(b * (len(flags) - 1) + 1)
        is_v[::b] = flags
    kept = []
    for q in ps:
        if b % q:
            if by_value:
                j = -c % q
                p = (j + q * is_v[j::q].find(1)) // b
            else:
                r = -c * pow(b, -1, q) % q
                p = r + q * flags[r::q].find(1)
            if p > 0:  # find gave -1 when no p <= t fits, so p < 0
                nums[bisect_left(ps, p)] //= q
                continue
        kept.append(q)
    return coprime_fraction(_tree_prod(nums), b ** len(ps) * _tree_prod(kept))


_BRACKET_MARGIN = 64  # bits of the Mertens bracket beyond the precision asked
_BRACKET_CHUNK = 12  # factors multiplied exactly per step of the bracket


def _mertens_point(t: Rational, gamma: Fraction, bits: int) -> Interval:
    """Interval.from_fraction(mertens_product(t, gamma), bits), bit for bit.

    With gamma = a/b and c = a - b, a fixed-point bracket
    lo 2^e <= prod (p b + c)/(p b) <= hi 2^e of W = bits + _BRACKET_MARGIN
    bits takes the factors in exact chunks of _BRACKET_CHUNK, flooring lo
    and ceiling hi after each chunk and shifting both back to W + 1 bits.
    Each step costs at most 2^-W relative, so the
    bracket decides the rounding at bits unless the product lies within
    about pi(t) 2^-W of a rounding boundary; then the exact product does.
    """
    ps = primes_upto(t)
    a, b = gamma.numerator, gamma.denominator
    w = bits + _BRACKET_MARGIN
    lo = hi = 1 << w
    exp = -w
    for i in range(0, len(ps), _BRACKET_CHUNK):
        chunk = ps[i : i + _BRACKET_CHUNK]
        num = math.prod([p * b + a - b for p in chunk])
        den = math.prod(chunk) * b ** len(chunk)
        lo = lo * num // den
        hi = -(-hi * num // den)
        extra = lo.bit_length() - w - 1  # every factor is >= 1: lo only grows
        if extra > 0:
            lo >>= extra
            hi = -(-hi >> extra)
            exp += extra
    point = _bracket_point(lo, hi, exp, bits)
    if point is None:
        return Interval.from_fraction(mertens_product(t, gamma), bits)
    return point


def ratio_to_log_power(
    t: Rational, gamma: Rational, precision_bits: int = 256
) -> Interval:
    """Diagnostic ratio prod_{p<=t}(1 + (gamma-1)/p) / (Log t)^(gamma-1).

    Bit for bit interval_eval(mertens_product(t, gamma), [(log_of(t),
    1 - gamma)], precision_bits), whose exact base reaches the result only
    through its point rounding at the working precision. That rounding comes
    from a two-sided fixed-point bracket of the product (_mertens_point):
    rounding down and up are monotone, so when both ends of the bracket
    round alike, the product rounds as they do. When they do not, the exact
    product is built and rounded instead.
    """
    _check_precision(precision_bits, "precision_bits")
    t, gamma = _mertens_args(t, gamma)
    # Log t is the only factor, and one equal to 1 is skipped, so the scale
    # that point is asked at stays 1
    return _interval_eval(
        _ONE,
        [(log_of(t), 1 - gamma)],
        precision_bits,
        lambda _, bits: _mertens_point(t, gamma, bits),
    )


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
    K, gamma = _rational(K), _rational(gamma)
    if K.denominator != 1:
        raise InvalidParameter("exact chain reports need integer K")
    if gamma < 1:
        raise InvalidParameter(f"gamma must be >= 1, got {gamma}")
    exact = Fraction(count_many_small_primes(x, t, K))
    scale = gamma ** (-K.numerator)
    rank = scale * rankin_sum(x, t, gamma)
    mert = scale * math.floor(x) * mertens_product(t, gamma)
    return AnatomyReport(exact, rank, mert, gamma)


def divisor_chain_report(
    M: int, t: Rational, K: Rational, gamma: Rational, f: MultiplicativeFunction
) -> AnatomyReport:
    """Divisor chain sum <= gamma^-K (factorized product) <= pre-Mertens bound."""
    K, gamma = _rational(K), _rational(gamma)
    if K.denominator != 1:
        raise InvalidParameter("exact chain reports need integer K")
    if gamma <= 1:
        raise InvalidParameter(f"gamma must exceed 1, got {gamma}")
    exact = divisor_anatomy_sum(M, t, K, f)
    scale = gamma ** (-K.numerator)
    rank = scale * rankin_divisor_product(M, t, gamma, f)
    mert = divisor_anatomy_bound(M, t, K, gamma)
    return AnatomyReport(exact, rank, mert, gamma)
