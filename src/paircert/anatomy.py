"""Exact inequality chains for the anatomy of integers.

Counting integers with many small prime factors, the Rankin majorization
with weight gamma^(number of small primes), divisor-convolution sums under
the same condition, and Mertens-type products.  Parameterizing by a rational
gamma (standing for e^C) keeps every chain step bit-exact; the bridge to
e^C itself happens only in interval arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Union

from .arith import (
    DEFAULT_PRECISION,
    Interval,
    Rational,
    _bracket_point,
    _integer,
    _interval_eval,
    _power,
    _precision,
    _rational,
    _rational_above,
    _t_floor,
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
from .model import MultiplicativeFunction

ENUMERATION_CAP = 2_000_000
# omega_t(n) <= 7 below 2*3*5*7*11*13*17*19: the sieve's bytes, the band's
# carry-free additions and the histogram's three bit planes rely on it
assert ENUMERATION_CAP < 9_699_690

_ZERO = Fraction(0)
_ONE = Fraction(1)


def small_prime_divisor_count(n: int, t: Rational) -> int:
    """omega_t(n) = #{p <= t : p | n} (the single-integer anatomy count)."""
    bound = _t_floor(t)
    if bound < 2:
        return 0
    return sum(1 for p, _ in factorize(n) if p <= bound)


_INC = bytes(range(1, 256)) + b"\x00"  # byte n -> n + 1
_WHEEL = (3, 5, 7, 11, 13)  # period 15015 on the odd numbers
_SIEVE_BAND_K = 16  # the odd multiples (2 j + 1) p, j < K, of a large prime p


def _omega_counts(x: int, t: int) -> bytes:
    """counts[i] = #{odd p <= t : p | 2 i + 1} for the odd 2 i + 1 <= x.

    The (x + 1) // 2 bytes stand for the odd m <= x, index i for m = 2 i + 1,
    so an odd prime p marks the indices = (p - 1)/2 (mod p), the slice
    [(p - 1) // 2 :: p]. The counts of the wheel primes 3..13 that are <=
    min(t, x) repeat with their product as period (at most 15015 bytes). So
    one period is sieved and repeated to length (x + 1) // 2.

    A prime p > x/(2 K + 1), K = _SIEVE_BAND_K, has its odd multiples <= x
    among p (2 j + 1), j < K. With p = 2 u + 1, p (2 j + 1) sits at index
    (2 j + 1) u + j, so for the primes of the band, u >= u0, these indices
    form the one slice [(2 j + 1) u0 + j :: 2 j + 1], whose k-th byte stands
    for u = u0 + k. Adding the flags "2 u + 1 is a prime <= t" there, as
    integers of one byte per number, adds 1 at exactly the multiples of the
    band's primes: no byte carries into the next, since every count ends
    <= 7 (omega_t(n) <= 7 for n <= ENUMERATION_CAP). So K slices replace
    one slice per prime of the band; the primes from 17 to the band are
    sieved one by one.
    """
    bound = min(t, x)
    size = (x + 1) // 2
    wheel = [p for p in _WHEEL if p <= bound]
    period = bytearray(math.prod(wheel))
    for p in wheel:
        period[p // 2 :: p] = period[p // 2 :: p].translate(_INC)
    counts = period * (size // len(period) + 1)
    del counts[size:]
    p0 = max(_WHEEL[-1] + 1, x // (2 * _SIEVE_BAND_K + 1) + 1)  # the band's first
    ps = primes_upto(max(1, bound))
    for p in ps[bisect_right(ps, _WHEEL[-1]) : bisect_left(ps, p0)]:
        counts[p // 2 :: p] = counts[p // 2 :: p].translate(_INC)
    if p0 <= bound:
        u0 = p0 // 2  # 2 u0 + 1 is the first odd number >= p0
        flags = prime_flags(bound)[2 * u0 + 1 :: 2]
        for j in range(_SIEVE_BAND_K):
            band = slice((2 * j + 1) * u0 + j, (2 * j + 1) * (u0 + len(flags)) + j, 2 * j + 1)
            run = counts[band]
            if not run:
                break
            total = int.from_bytes(run, "little") + int.from_bytes(flags[: len(run)], "little")
            counts[band] = total.to_bytes(len(run), "little")
    return bytes(counts)


_TALLY_BLOCK = 1 << 15  # bytes of the sieve per block of the histogram's tally


def _from_supersets(superset: list[int]) -> list[int]:
    """The count of each value v in 0..7 from the counts superset[s] of the
    bytes with every bit of s set, by inclusion-exclusion over the bits
    outside v."""
    return [
        sum((-1) ** (s ^ v).bit_count() * superset[s] for s in range(v, 8) if s & v == v)
        for v in range(8)
    ]


def _omega_histogram(x: int, t: int) -> tuple[int, ...]:
    """hist[c] = #{1 <= n <= x : omega_t(n) = c}, up to the largest c taken.

    The c taken are 0, 1, ..., max: c of the small primes of n multiply to
    at most n. So the histogram ends at its last nonempty bucket.

    Every n <= x is 2^j m for exactly one odd m and one j >= 0, and
    omega_t(2^j m) is omega_t(m), plus 1 when j >= 1 and t >= 2. An odd m
    in (x/2^(k+1), x/2^k] stands for the n = 2^j m with j = 0..k. So the
    tally of the odd sieve (_omega_counts) counts each odd m once for j = 0
    and k times for j >= 1, and the j >= 1 histogram moves up by one when
    t >= 2. The odd m <= x/2^k are the indices below ((x >> k) + 1) // 2,
    and the blocks of the tally are split at these cuts, so that each block
    has one k.

    The tally reads the sieve as integers, one byte per m. Every byte is
    at most 7, so its bits 0, 1 and 2 hold it, and three bit planes, each
    masked to one bit per byte, describe the sieve. The popcount of the AND
    of the planes of the bits in s counts the m whose byte has every bit of
    s set (_from_supersets turns these counts into the count of each
    value). Seven popcounts of big integers replace one bytes.count pass
    per value, whose per-byte compare loop branches on the data, and these
    data make that branch unpredictable. The planes are built one block of
    at most _TALLY_BLOCK bytes at a time, and the superset counts of the
    blocks added up, weighted by k for j >= 1. A block's integer and its
    planes (32 KB each) stay in the CPU's caches; blocks of 2^13 to 2^16
    bytes came within 5% of 2^15 on the whole n <= x sieve, and 2^17 lost
    half the gain over whole-sieve planes or more.

    Against a sieve of every n <= x, wheel 2..13 and no band (Python 3.11,
    2 vCPUs, medians of 60 interleaved runs, two rounds), the histogram
    took 0.61-0.67 of its time at t = 10^4 and x = 1.5, 2 and 2.5 * 10^5
    (1.3-1.8 ms against 2.1-2.8 ms at 2 * 10^5), and at x = 2 * 10^5 0.54
    at t = 300, 0.62 at t = 3 * 10^4 and 0.42 at t = 10^6.
    """
    counts = _omega_counts(x, t)
    ones = int.from_bytes(b"\x01" * _TALLY_BLOCK, "little")
    # once[s], more[s]: the n with j = 0, j >= 1 whose byte has every bit of s
    once, more = [0] * 8, [0] * 8
    cuts = [((x >> k) + 1) // 2 for k in range(x.bit_length() + 1)]
    for k in range(x.bit_length()):  # the odd m in (x/2^(k+1), x/2^k]
        for i in range(cuts[k + 1], cuts[k], _TALLY_BLOCK):
            chunk = counts[i : min(i + _TALLY_BLOCK, cuts[k])]
            block = int.from_bytes(chunk, "little")
            p0, p1, p2 = (block >> bit & ones for bit in range(3))
            p01 = p0 & p1
            planes = (p0, p1, p01, p2, p0 & p2, p1 & p2, p01 & p2)
            for s, reps in enumerate([len(chunk)] + [m.bit_count() for m in planes]):
                once[s] += reps
                more[s] += k * reps
    hist = _from_supersets(once) + [0]
    for c, reps in enumerate(_from_supersets(more), 1 if t >= 2 else 0):
        hist[c] += reps
    while hist[-1] == 0:
        hist.pop()
    return tuple(hist)


def _enumeration_bound(x: Rational) -> int:
    """floor(x) for the bound x >= 1 of an enumeration of n <= x, x read by
    _rational_above; ResourceLimit past ENUMERATION_CAP."""
    xi = math.floor(_rational_above(x, "x", 1, or_equal=True))
    if xi > ENUMERATION_CAP:
        raise ResourceLimit(f"enumeration bound {xi} exceeds cap {ENUMERATION_CAP}")
    return xi


def count_many_small_primes(x: Rational, t: Rational, K: Rational) -> int:
    """#{n <= x : omega_t(n) >= K}, by exact enumeration."""
    xi, bound, K = _enumeration_bound(x), _t_floor(t), _rational(K)
    if K <= 0:
        return xi
    return sum(_omega_histogram(xi, bound)[math.ceil(K) :])


def rankin_sum(x: Rational, t: Rational, gamma: Rational) -> Fraction:
    """sum_{n <= x} gamma^(omega_t(n)), exactly."""
    xi, bound, gamma = _enumeration_bound(x), _t_floor(t), _rational_above(gamma, "gamma", 0)
    return _rankin_total(_omega_histogram(xi, bound), gamma)


def _rankin_total(hist: tuple[int, ...], gamma: Fraction) -> Fraction:
    """sum_c hist[c] gamma^c, the Rankin sum read off an omega histogram."""
    return sum((reps * gamma**c for c, reps in enumerate(hist)), _ZERO)


def divisor_anatomy_sum(
    M: int, t: Rational, K: Rational, f: MultiplicativeFunction
) -> Fraction:
    """sum over mn = M with omega_t(m) >= K of f(n), exactly.

    With M = prod p^e, a divisor m = prod p^k has omega_t(m) = #{p <= t :
    k > 0} and n = M/m = prod p^(e-k), so the sum adds the coefficients of
    y^c, c >= ceil(K), in the polynomial

        prod_{p <= t} (f(p^e) + y sum_{k >= 1} f(p^(e-k)))
            * prod_{p > t} sum_{k >= 0} f(p^(e-k)),

    of degree at most the number of small primes of M (8 below 10^7). Each
    factor is taken over the lcm of its values' denominators, so the
    product runs on integer coefficients and one Fraction is made at the
    end.

    f is asked the values that the sum over the divisors m, ascending, with
    f(n) as a product of values f(p^j), each asked once, would ask, and in
    the same order, so that a value f lacks raises the same
    IncompleteDefinition. With k = e - j, the first divisor to need f(p^j)
    is p^k times the r smallest other primes <= t of M, r = max(0, ceil(K)
    - [p <= t and k > 0]), since every m with p^k || m and omega_t(m) >= K
    has at least r other prime factors <= t. Values first needed at the
    same m are asked in the order of factorize(M). A value that no m with
    omega_t(m) >= K needs (M has fewer than r other small primes) feeds
    only the coefficients below ceil(K); it is never asked, and taken as 0.
    """
    _integer(M, "M", 1)
    need = math.ceil(_rational(K))  # an integer count is >= K iff >= ceil(K)
    bound = _t_floor(t)
    fac = factorize(M)
    small = [p for p, _ in fac if p <= bound]
    asks = []  # (the first m that needs f(p^j), the index of p in fac, p, j)
    for i, (p, e) in enumerate(fac):
        for k in range(e):
            r = max(0, need - (p <= bound and k > 0))
            others = [q for q in small if q != p][:r]
            if len(others) == r:
                asks.append((p**k * math.prod(others), i, p, e - k))
    values = {(p, j): f.prime_power(p, j) for _, _, p, j in sorted(asks)}
    poly, den = [1], 1  # the coefficients of y^0, y^1, ... times den
    for p, e in fac:
        vs = [values.get((p, j), _ZERO) for j in range(1, e + 1)]  # f(p^1..p^e)
        d = math.lcm(*(v.denominator for v in vs))
        ns = [d] + [v.numerator * (d // v.denominator) for v in vs]  # d f(p^0..p^e)
        den *= d
        low, high = (ns[e], sum(ns[:e])) if p <= bound else (sum(ns), 0)
        poly = [a * low + b * high for a, b in zip(poly + [0], [0] + poly)]
    return Fraction(sum(poly[max(0, need) :]), den)


def rankin_divisor_sum(
    M: int, t: Rational, gamma: Rational, f: MultiplicativeFunction
) -> Fraction:
    """sum over mn = M of gamma^(omega_t(m)) f(n), by divisor enumeration."""
    _integer(M, "M", 1)
    bound, gamma = _t_floor(t), _rational(gamma)
    total = _ZERO
    for m in divisors(M):
        total += gamma ** small_prime_divisor_count(m, bound) * f(M // m)
    return total


def rankin_divisor_product(
    M: int, t: Rational, gamma: Rational, f: MultiplicativeFunction
) -> Fraction:
    """The same sum as a product over p | M of prime-power factors:

        p <= t:  (1*f)(p^v) + (gamma - 1) (1*f)(p^(v-1))
        p >  t:  (1*f)(p^v)
    """
    _integer(M, "M", 1)
    bound, gamma = _t_floor(t), _rational(gamma)
    out = _ONE
    for p, e in factorize(M):
        full = f.one_star_prime_power(p, e)
        if p <= bound:
            out *= full + (gamma - 1) * f.one_star_prime_power(p, e - 1)
        else:
            out *= full
    return out


def divisor_anatomy_bound(
    M: int, t: Rational, K: Rational, gamma: Rational, precision_bits: int = DEFAULT_PRECISION
) -> Union[Fraction, Interval]:
    """The pre-Mertens majorant M gamma^(-K) prod_{p<=t, p|M} (1 + (gamma-1)/p).

    Exact rational for integer K; non-integer K falls back to a certified
    interval (flagged by the return type).
    """
    _precision(precision_bits)
    _integer(M, "M", 1)
    gamma = _rational_above(gamma, "gamma", 1)
    K = _rational(K)
    bound = _t_floor(t)
    a, b = gamma.numerator, gamma.denominator
    num, den = M, 1  # 1 + (gamma - 1)/p = (p b + a - b)/(p b)
    for p, _ in factorize(M):
        if p <= bound:
            num *= p * b + a - b
            den *= p * b
    if K.denominator == 1:
        return Fraction(num, den) * _power(gamma, -K.numerator, "divisor_anatomy_bound")
    return interval_eval(Fraction(num, den), [(const(gamma), -K)], precision_bits)


_GMP_CUT = 1 << 14  # bits of a product's values from which _prod multiplies it in GMP
_GMP_LEAF = 96  # values per math.prod leaf of _tree_prod
_gmp = None  # (libgmp, its mpz_t) once loaded; False where it does not load


def _load_gmp():
    """(libgmp, mpz_t) on the first call that loads it, False where it does
    not load; either is recorded, so the library is tried once."""
    global _gmp
    if _gmp is None:
        import ctypes

        class Mpz(ctypes.Structure):  # __mpz_struct of gmp.h
            _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("d", ctypes.c_void_p)]

        mpz, ptr, size, c_int = ctypes.POINTER(Mpz), ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int
        signatures = {  # name: (argtypes, restype), as gmp.h declares them
            "__gmpz_init": ([mpz], None),
            "__gmpz_clear": ([mpz], None),
            "__gmpz_mul": ([mpz, mpz, mpz], None),
            "__gmpz_import": ([mpz, size, c_int, size, c_int, size, ctypes.c_char_p], None),
            "__gmpz_export": ([ptr, ptr, c_int, size, c_int, size, mpz], ptr),
            "__gmpz_sizeinbase": ([mpz, c_int], size),
        }
        try:
            lib = ctypes.CDLL("libgmp.so.10")
            for name, (args, res) in signatures.items():
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = args, res
        except (OSError, AttributeError):
            _gmp = False
        else:
            _gmp = lib, Mpz
    return _gmp


def _gmp_prod(values: list[int]) -> int:
    """The product of ints values >= 0, at least two, multiplied in GMP
    (_gmp loaded) as a balanced tree of pairs, the one that _prod's int
    path multiplies: each value is imported once, each level of pairs is
    multiplied in place with mpz_mul, and the root is exported once. A
    value at an odd index that is the same int object as the one before it
    shares that one's mpz, so that mpz_mul squares: [x, x, y] is x^2 y.

    Each int crosses as little-endian bytes in words of 8, least
    significant word first (mpz_import), and comes back through a buffer of
    sizeinbase(z, 2) bits (mpz_export); on a little-endian machine with
    64-bit limbs both are copies. Every mpz is cleared on the way out,
    whether the product returns or raises.
    """
    import ctypes

    lib, Mpz = _gmp
    zs, level = [], []  # every mpz made; the operands of the current level
    try:
        for i, v in enumerate(values):
            if i % 2 and v is values[i - 1]:
                level.append(level[-1])
                continue
            z = Mpz()
            lib.__gmpz_init(z)
            zs.append(z)
            words = (v.bit_length() + 63) // 64
            lib.__gmpz_import(z, words, -1, 8, -1, 0, v.to_bytes(8 * words, "little"))
            level.append(z)
        while len(level) > 1:
            for i in range(0, len(level) - 1, 2):
                lib.__gmpz_mul(level[i], level[i], level[i + 1])
            level = level[::2]
        root = level[0]
        out = bytearray((lib.__gmpz_sizeinbase(root, 2) + 63) // 64 * 8)
        lib.__gmpz_export((ctypes.c_char * len(out)).from_buffer(out), None, -1, 8, -1, 0, root)
        return int.from_bytes(out, "little")
    finally:
        for z in zs:
            lib.__gmpz_clear(z)


def _prod(values: list[int]) -> int:
    """The product of values, by one size rule: when there are at least two
    and their bits add up to at least _GMP_CUT, a balanced tree of pairs,
    in GMP (_gmp_prod) where libgmp loads and in int where it does not;
    otherwise one math.prod.

    CPython's int multiplies by Karatsuba, GMP by Toom and FFT. One Horner
    step [acc, acc, level] of X bits in all took 5.7 us in int and 11.3 us
    in GMP, round trip included, at X = 2^12, 18.5 and 13.9 us at 2^13, 61
    and 21 us at 2^14, and 45 and 3.0 ms at 2^20 (Python 3.11.7, GMP 6.2.1,
    2 vCPUs, best of 7). Over the anatomy benchmark's 21 grid builds the
    cut came level from 2^12 to 2^14 bits (110.6-111.6 ms, medians of 15
    interleaved rounds) and lost at 2^15 and 2^16 (116.1 and 118.9 ms); at
    2^10, and with no cut, every small product paid the round trip (106.3
    and 108.1 ms against 104.2 ms, 9 rounds). 2^14 lies above the largest
    product that any report at a grid point up to t = 10^4 makes (11,573
    bits, at t = 10^4), so those points and the campaign never load the
    library. Where it does not load, one math.prod over the leaves of a
    large tree, in place of the pairs, took the build at t = 10^6, gamma =
    2 from 217 to 734 ms (medians of 5 interleaved runs).

    Nothing is vendored and nothing is a dependency: where libgmp does not
    load, every product is the same integer, multiplied in int.
    """
    if len(values) > 1 and sum(map(int.bit_length, values)) >= _GMP_CUT:
        if _load_gmp():
            return _gmp_prod(values)
        while len(values) > 1:  # the same pairs in int
            values = [math.prod(values[i : i + 2]) for i in range(0, len(values), 2)]
    return math.prod(values)


def _tree_prod(values: list[int]) -> int:
    """The product of values as a balanced tree (Bernstein, "Fast
    multiplication and its applications", MSRI Publ. 44, 2008): math.prod
    over runs of _GMP_LEAF, then one _prod over these leaves, so that a
    large tree crosses into GMP once, from its leaves, and only its root
    comes back. Over the grid's 21 builds, leaves of 64 to 192 came level
    (104.7 ms at 96, 105.7-108.3 ms), and 16, 32 and 384 lost (129.9, 117.0
    and 114.2 ms; medians of 11 interleaved rounds)."""
    return _prod([math.prod(values[i : i + _GMP_LEAF]) for i in range(0, len(values), _GMP_LEAF)])


def _power_prod(powers: dict[int, list[int]]) -> int:
    """prod over e of (prod powers[e])^e, for exponents e >= 0 and bases >= 0.

    Horner over the bits of the exponents: from the top bit down, acc =
    acc^2 * (the _tree_prod of the bases whose exponent has that bit set),
    one _prod a step. A base enters once per set bit of its exponent, and
    squaring does the rest, as in computing n! from its prime factorization
    (Borwein, "On the complexity of calculating factorials", J. Algorithms
    6, 1985). While acc is 1, the level's tree becomes acc with no step:
    sending [1, 1, tree] through _prod would take the largest tree into GMP
    and back once more (1.2 Mbit at t = 10^6). So a product whose exponents
    are all <= 1 is one _tree_prod. Each step makes its own round trip;
    keeping acc inside GMP from one step to the next took the grid's 21
    builds from 126.7 to 124.3 ms only.
    """
    acc = 1
    for j in reversed(range(max(powers, default=0).bit_length())):
        level = _tree_prod([q for e, qs in powers.items() if e >> j & 1 for q in qs])
        acc = _prod([acc, acc, level]) if acc != 1 else level
    return acc


# The value sieve holds b bytes per integer up to t. Per exact product
# (Python 3.11, 2 vCPUs, medians of 7 alternating runs at gamma = (b + 1)/b
# and (2b + 1)/b), against the modular inverse scan, it was 12-16% faster
# for b = 4, 5 and 8 at t = 10^5, and 4% faster for b = 4 at t = 10^6. At
# t = 10^6 it was within 5% either way for b = 5 and 8, and 14-16% slower
# for b = 16. A larger bound would gain only below t = 10^6, for b times
# the sieve's memory.
_VALUE_SIEVE_MAX_B = 4
_BAND_K = 16  # progression indices m q - c, m <= _BAND_K, flagged in bulk
# a band prime's mark, 2 | hit, as the selector of a miss or of a hit
_BAND_MISS = bytes.maketrans(b"\2\3", b"\1\0")
_BAND_HIT = bytes.maketrans(b"\2\3", b"\0\1")


def mertens_product(t: Rational, gamma: Rational) -> Fraction:
    """prod_{p <= t} (1 + (gamma - 1)/p), exactly, reduced by construction.

    With gamma = a/b in lowest terms and c = a - b, each factor is
    (p b + c)/(p b), and the denominator is b^pi(t) prod p. A prime q | b
    divides no p b + c, since p b + c = a (mod q), so it never cancels. A
    prime q <= t with q not dividing b divides the denominator exactly once
    (from p = q), so it cancels if and only if it divides some p b + c.

    The numerator is built from prime exponents. With T = floor(t), a value
    p b + c <= T has only prime factors q <= T, none of them dividing b, so
    the values up to T multiply to prod q^e_q, where e_q counts the pairs
    (p, k) with q^k | p b + c; only q^k <= T can divide such a value. The
    values above T are kept whole. The reduction is exponent arithmetic: if
    e_q > 0, q cancels by taking 1 from e_q; otherwise it cancels against
    the smallest value above T that it divides, which is divided by q; if
    there is none, q is kept in the denominator. So the numerator loses one
    factor q exactly when q divides it, and the reduced numerator, prod
    q^e_q (by _power_prod) times the values above T, is coprime to
    b^pi(t) prod(kept q): the Fraction is built without a gcd. Nothing is
    sieved past T.

    Each q scans one progression mod q, whose entries, in increasing p, are
    the p with q | p b + c. Its first entry gives the smallest such value.
    If that value is at most T, a count over the entries up to T is the
    first term of e_q, and each q^k <= T with k >= 2 counts one more
    progression. For b <= _VALUE_SIEVE_MAX_B the scan runs over is_v, which
    marks p b at index p b for every prime p <= t (the prime sieve laid out
    with stride b): the marked indices = -c (mod q^k) are the p b with
    q^k | p b + c, and no modular inverse is needed. For a larger b, is_v
    would be b times the sieve and slower to scan than one modular inverse
    per prime, so the scan runs over the sieve itself, from
    p = -c b^-1 (mod q^k).

    On is_v the odd primes of a band [q0, T] are decided in bulk first.
    is_v has b T + 1 indices, and for q > c the progression of q holds the
    indices m q - c with m >= 1 (and, when c = 0, index 0, which marks no
    prime). With K = _BAND_K and q0 the least odd number >= max(3, c + 1,
    isqrt(T) + 1, ceil((b T + 1 + c)/(K + 1))), a q >= q0 has q^2 > T and
    (K + 1) q - c >= b T + 1, past the end, so at most K such indices. Only
    odd q can be band primes, so the band reads them alone: is_v[b q0 :: 2 b]
    flags the odd primes of [q0, T], and the slice
    is_v[m q0 - c : m (T + 1) - c : 2 m] holds index m q - c at position
    (q - q0)/2, so the OR of the slices for m = 1..K flags each odd q of the
    band with a marked index. Only an m prime to b can mark one, since
    m q - c = p b needs gcd(m, b) | c, and gcd(b, c) = gcd(b, a) = 1; the
    other slices are skipped. So is the slice of an odd m when b and c are
    odd and 2 b + c < m q0: at every odd q, m q - c is even, and so is p b
    only for p = 2, whose index 2 b = m q - c needs q < q0. A prime without
    a flag is exactly one whose scan finds no mark (i < 0 below), and it is
    kept unscanned; the primes below q0, 2 always among them, are scanned as
    above. A q <= c lies below the band, so every slice starts at
    m (c + 1) - c >= 1. A q | b can lie in the band only for T small; it
    has no flag, since the marked p b are = 0 and -c is not (mod q), as q
    does not divide a, so it is kept either way, and the tally below never
    meets one. kept then comes out in another order, which does not change
    its product. For b > _VALUE_SIEVE_MAX_B every prime is scanned.

    As q0^2 > T, no q^2 <= T lies in the band, so a flagged q needs one
    count: n, the marks of is_v[q - c : T - c + 1 : q], its values p b + c
    <= T. One comprehension takes n for every flagged prime. n >= 2 puts q
    at exponent n - 1; n = 1 leaves nothing; n = 0, a first mark past
    T - c, sends q to the scan, which divides the smallest value above T.
    At the grid's points q0 lies far above sqrt(T); the bound isqrt(T) + 1
    sets q0 only for T below about 289/b^2. At t = 10^6 the tally decides
    all 7,635 flagged primes for gamma = 2, and 5,963 of 11,162 for gamma =
    3/2 (5,199 go on to the scan); a build at gamma = 2 took 54.1 ms against
    58.5 ms with every flagged prime scanned (Python 3.11.7, 2 vCPUs,
    medians of 21 interleaved runs). Reading the odd q alone took the grid's
    21 builds from 114.3 to 107.4 ms (medians of 15 interleaved rounds,
    faster in 13).

    Both products are _power_prod calls, whose large multiplications run
    in GMP where libgmp loads: the numerator with the values above T as
    bases of exponent 1, the denominator as kept at exponent 1 and, when
    b > 1, b at exponent pi(t) (one list when pi(t) = 1). For b = 1 every
    exponent of the denominator is 1, so its one Horner level is the whole
    product: one _tree_prod. Past t = 10^5 these multiplications are most
    of a build in int: t = 10^6 at gamma = 2 took 229 ms in int and 52 ms
    with GMP (medians of 5 interleaved runs).
    """
    T, gamma = _t_floor(t), _rational_above(gamma, "gamma", 1, or_equal=True)
    ps = primes_upto(T)
    a, b = gamma.numerator, gamma.denominator
    c = a - b
    cut = bisect_right(ps, (T - c) // b)  # ps[:cut] have the small values
    large = [p * b + c for p in ps[cut:]]
    by_value = b <= _VALUE_SIEVE_MAX_B
    kept = []
    powers: dict[int, list[int]] = {}
    decide = ps  # the primes whose progression is scanned one by one
    if by_value:  # index p b; a small value has p b <= T - c
        scan = bytearray(b * T + 1)
        scan[::b] = prime_flags(T)
        stride, top = b, T - c
        q0 = max(3, c + 1, math.isqrt(T) + 1, -(-(len(scan) + c) // (_BAND_K + 1))) | 1
        if q0 <= T:  # per odd q in [q0, T]: 2 if q is prime, | 1 if some m q - c is marked
            marks = int.from_bytes(scan[b * q0 :: 2 * b], "little") << 1
            for m in range(1, _BAND_K + 1):
                if math.gcd(m, b) == 1 and not (b & c & m & 1 and 2 * b + c < m * q0):
                    marks |= int.from_bytes(scan[m * q0 - c : m * (T + 1) - c : 2 * m], "little")
            marks = marks.to_bytes((T - q0) // 2 + 1, "little").translate(None, b"\0\1")
            lo = bisect_left(ps, q0)
            kept += compress(ps[lo:], marks.translate(_BAND_MISS))
            hits = list(compress(ps[lo:], marks.translate(_BAND_HIT)))
            decide = ps[:lo]
            for q, n in zip(hits, [scan[q - c : top + 1 : q].count(1) for q in hits]):
                if n > 1:
                    powers.setdefault(n - 1, []).append(q)
                elif n == 0:  # the first mark lies past top
                    decide.append(q)
    else:  # index p; a small value has p <= (T - c) / b
        scan, stride, top = prime_flags(T), 1, (T - c) // b
    for q in decide:
        if b % q == 0:
            kept.append(q)
            continue
        r = -c % q if by_value else -c * pow(b, -1, q) % q
        run = scan[r::q]  # entry i marks a prime, at index r + q i, whose value q divides
        i = run.find(1)
        if i < 0:
            kept.append(q)
        elif r + q * i > top:  # no small value: divide the smallest above T
            large[bisect_left(ps, (r + q * i) // stride) - cut] //= q
        else:  # take 1 from e_q
            e = run.count(1, i, (top - r) // q + 1) - 1
            qk = q * q
            while qk <= T:
                rk = -c % qk if by_value else -c * pow(b, -1, qk) % qk
                e += scan[rk : top + 1 : qk].count(1)
                qk *= q
            if e:
                powers.setdefault(e, []).append(q)
    del scan
    powers.setdefault(1, []).extend(large)
    den = {1: kept}
    if b > 1:
        den.setdefault(len(ps), []).append(b)  # pi(t) = 1 puts b beside kept
    return coprime_fraction(_power_prod(powers), _power_prod(den))


_BRACKET_MARGIN = 64  # bits of the Mertens bracket beyond the precision asked
# Factors multiplied exactly per step of the bracket. One ratio_to_log_power
# at 256 bits (Python 3.11, 2 vCPUs, medians of 15 alternating runs) took
# 2.0-3.5 ms at t = 10^5 and 17.5 ms at t = 10^6 with 48, against 2.7-4.7
# and 22.8 ms with 12; 24, 32 and 96 lay between, and 64 was level with 48.
# Below t = 10^5 (21 runs) 48 was level or faster. A chunk cannot move a bit:
# a bracket that does not decide falls back to the exact product.
_BRACKET_CHUNK = 48


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
    t: Rational, gamma: Rational, precision_bits: int = DEFAULT_PRECISION
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
    _precision(precision_bits)
    T, gamma = _t_floor(t), _rational_above(gamma, "gamma", 1, or_equal=True)
    # Log t is the only factor, and it has an exact value only when it is
    # 1, which is skipped, so the scale that point is asked at stays 1
    return _interval_eval(
        _ONE,
        [(log_of(t), 1 - gamma)],
        precision_bits,
        lambda _, bits: _mertens_point(T, gamma, bits),
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


def _chain_K(K: Rational) -> int:
    """K read by _rational, as the int that an exact chain report needs."""
    K = _rational(K)
    if K.denominator != 1:
        raise InvalidParameter("exact chain reports need integer K")
    return K.numerator


def count_chain_report(
    x: Rational, t: Rational, K: Rational, gamma: Rational
) -> AnatomyReport:
    """Rankin chain for the unweighted count (integer K for exactness)."""
    K = _chain_K(K)
    T, gamma = _t_floor(t), _rational_above(gamma, "gamma", 1, or_equal=True)
    xi = _enumeration_bound(x)
    scale = _power(gamma, -K, "count_chain_report")
    hist = _omega_histogram(xi, T)
    exact = Fraction(sum(hist[max(0, K) :]))
    rank = scale * _rankin_total(hist, gamma)
    mert = scale * xi * mertens_product(T, gamma)
    return AnatomyReport(exact, rank, mert, gamma)


def divisor_chain_report(
    M: int, t: Rational, K: Rational, gamma: Rational, f: MultiplicativeFunction
) -> AnatomyReport:
    """Divisor chain sum <= gamma^-K (factorized product) <= pre-Mertens bound."""
    K = _chain_K(K)
    mert = divisor_anatomy_bound(M, t, K, gamma)  # M, t and gamma > 1 checked there
    gamma = _rational(gamma)
    exact = divisor_anatomy_sum(M, t, K, f)
    rank = _power(gamma, -K, "divisor_chain_report") * rankin_divisor_product(M, t, gamma, f)
    return AnatomyReport(exact, rank, mert, gamma)
