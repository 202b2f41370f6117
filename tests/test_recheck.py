"""An independent recheck of the certified enclosures that the pipeline
emits. Each right side is evaluated again with mpmath.iv (interval
arithmetic with directed rounding) straight from its formula, at
4 * bits + 128 bits, sharing no code with paircert.arith; Log t is
max(1, ln t). Every emitted end must contain the mpmath interval, and a
verdict must follow from lhs and the emitted ends.

All comparisons stay inside mpmath on exact raw mpf values: the ends of the
t = 100 main bounds lie near 2^(5 * 10^8) and beyond, and as Fractions they
would exhaust memory.
"""

import math
from fractions import Fraction as F

import mpmath
import pytest
from mpmath.libmp import from_int, from_man_exp, mpf_cmp, mpf_mul

from paircert.anatomy import ratio_to_log_power
from paircert.harness import GeneratorConfig, generate_instance
from paircert.quality import HOLDS, VIOLATED, main_bound_check

iv = mpmath.iv

# the criterion-7 mix: blocks of 7 totient then 3 random-f instances
CAMPAIGN = [(GeneratorConfig(seed=20250809), i) for i in range(140)] + [
    (GeneratorConfig(seed=20250810, f_mode="random"), i) for i in range(60)
]
# the anatomy grid's points with t <= 10^5, at the default precision
ANATOMY = [
    (t, g)
    for t in (300, 10**3, 3 * 10**3, 10**4, 3 * 10**4, 10**5)
    for g in (F(3, 2), F(2), F(5, 2))
]


@pytest.fixture
def iv_prec():
    """Sets iv.prec for one test and restores it afterwards."""
    saved = iv.prec

    def set_bits(bits: int) -> None:
        iv.prec = 4 * bits + 128

    yield set_bits
    iv.prec = saved


def _q(x: F):
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def _log_t(t: F):
    """max(1, ln t) as an mpmath interval, end by end."""
    ln = iv.log(_q(t))
    return iv.mpf([max(1, ln.a), max(1, ln.b)])


def _primes_upto(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    return [p for p in range(n + 1) if flags[p]]


def _raw(d):
    """A Dyadic as an exact raw mpf."""
    return from_man_exp(d.man, d.exp)


def _contains(emitted, ref) -> bool:
    lo, hi = ref._mpi_
    return mpf_cmp(_raw(emitted.lo), lo) <= 0 <= mpf_cmp(_raw(emitted.hi), hi)


def _cmp(x: F, d) -> int:
    """The exact sign of x - d for a Fraction x and a Dyadic d."""
    return mpf_cmp(from_int(x.numerator), mpf_mul(from_int(x.denominator), _raw(d)))


def _main_bound_rhs(system, params):
    """(100 e^C)^P (Log t)^((e^(40C) - 1)/2) (mu(V) mu(W) e^(-CK))^(1/2 + eps),
    from the definitions: P = p0 + #{primes p <= p0 dividing a support
    vertex}, mu(V) = sum of f(v) psi(v) / v over the support of psi."""
    vertices = [*system.psi.support(), *system.theta.support()]
    P = params.p0 + sum(1 for p in _primes_upto(params.p0) if any(v % p == 0 for v in vertices))
    mu_v = sum(system.f(v) * w / v for v, w in system.psi.items())
    mu_w = sum(system.g(v) * w / v for v, w in system.theta.items())
    C, K, eps = _q(params.C), _q(params.K), _q(params.epsilon)
    log_rhs = (
        P * (iv.log(100) + C)
        + (iv.exp(40 * C) - 1) / 2 * iv.log(_log_t(params.t))
        + (iv.mpf(1) / 2 + eps) * (iv.log(_q(mu_v * mu_w)) - C * K)
    )
    return iv.exp(log_rhs)


def test_main_bound_on_the_campaign(iv_prec):
    for config, index in CAMPAIGN:
        system, params = generate_instance(config, index)
        report = main_bound_check(system, params)
        lhs, rhs = report.lhs, report.rhs
        iv_prec(report.precision_bits)
        assert _contains(rhs, _main_bound_rhs(system, params)), (config.seed, index)
        assert (report.verdict == HOLDS) == (_cmp(lhs, rhs.lo) <= 0), (config.seed, index)
        assert (report.verdict == VIOLATED) == (_cmp(lhs, rhs.hi) > 0), (config.seed, index)


def test_ratio_to_log_power_on_the_anatomy_grid(iv_prec):
    iv_prec(256)
    for t, gamma in ANATOMY:
        a, b = gamma.numerator, gamma.denominator
        ps = _primes_upto(t)
        num, den = math.prod(p * b + a - b for p in ps), math.prod(p * b for p in ps)
        product = iv.mpf(num) / iv.mpf(den)
        ref = product * iv.exp((1 - _q(gamma)) * iv.log(_log_t(F(t))))
        assert _contains(ratio_to_log_power(t, gamma, 256), ref), (t, gamma)
