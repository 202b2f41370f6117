"""Quality conditions D(v,w) <= 1 and omega_t(v,w) >= K, edge-set
construction, neighborhoods, and certified evaluation of the main bound

    mu(E) <= (100 e^C)^P (Log t)^{(e^{40C}-1)/2} (mu(V) mu(W) e^{-CK})^{1/2+eps}.

The left side is an exact rational; the right side is a certified interval.
certify_le decides every such comparison in the package; it is the
package's only loop that raises a precision. It starts at a precision_bits
in [16, DEFAULT_PRECISION_CAP = 2^14], the domain of every precision_bits
(arith._precision), and doubles it until conclusive or until the next
doubling would pass the cap.
Every verdict string of the package is defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, gcd
from typing import Iterable, Optional

from .anatomy import small_prime_divisor_count
from .arith import (
    DEFAULT_PRECISION,
    DEFAULT_PRECISION_CAP,
    Interval,
    Rational,
    _integer,
    _precision,
    _rational_above,
    _t_floor,
    const,
    exp_of,
    factorize,
    fraction_str,
    int_str,
    interval_eval,
    interval_json,
    log_of,
    primes_upto,
    valuation,
)
from .errors import InvalidParameter
from .model import (
    PairSystem, WeightFunction, _malformed, _rational, check_fields,
    fields_to_json, mu_pairs, prime_support, validate_multiplicative,
)

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
FAILED = "failed"
VACUOUS = "vacuous"
DEGENERATE_EMPTY = "degenerate-empty"
PRECONDITION_FAILED = "precondition-failed"


def certify_le(
    lhs: Rational, base: Rational, factors, precision_bits: int
) -> tuple[str, Interval, int]:
    """Certified comparison lhs <= base * prod(expr^exponent) of factors.

    Returns (verdict, enclosure, bits): HOLDS iff lhs <= enclosure.lo,
    VIOLATED iff lhs > enclosure.hi, both at `bits`; otherwise the precision
    doubles while it stays within DEFAULT_PRECISION_CAP, and the verdict is
    INCONCLUSIVE at the last precision tried. InvalidParameter (from
    interval_eval) unless precision_bits is in [16, DEFAULT_PRECISION_CAP].
    """
    prec = precision_bits
    while True:
        enclosure = interval_eval(base, factors, prec)
        if enclosure.lo_cmp(lhs) >= 0:
            return HOLDS, enclosure, prec
        if enclosure.hi_cmp(lhs) < 0:
            return VIOLATED, enclosure, prec
        if 2 * prec > DEFAULT_PRECISION_CAP:
            return INCONCLUSIVE, enclosure, prec
        prec *= 2


@dataclass(frozen=True)
class Params:
    """epsilon in (0, 2/5], C > 0, t >= 1, rational K, prime floor p0,
    precision_bits in [16, DEFAULT_PRECISION_CAP]."""

    epsilon: Fraction
    C: Fraction
    t: Fraction
    K: Fraction
    p0: int = field(default=100, metadata={"least": 1})
    precision_bits: int = DEFAULT_PRECISION

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.epsilon <= Fraction(2, 5):
            raise InvalidParameter(f"epsilon {fraction_str(self.epsilon)} outside (0, 2/5]")
        _rational_above(self.C, "C", 0)
        _t_floor(self.t)
        _precision(self.precision_bits)

    @property
    def q(self) -> Fraction:
        return 2 / (1 - 2 * self.epsilon)

    @property
    def q_prime(self) -> Fraction:
        return 2 / (1 + 2 * self.epsilon)

    def to_json(self) -> dict:
        return fields_to_json(self)

    @classmethod
    def from_json(cls, doc: dict) -> "Params":
        """The params a document describes; InvalidParameter for a malformed
        one (not an object, a missing or unknown key, a bad rational, a float
        or bool rational, a non-int p0 or precision_bits) or a value outside
        its domain."""
        with _malformed("params"):
            return cls(**doc)


def _d_ratio(v: int, w: int, psi: WeightFunction, theta: WeightFunction) -> tuple[int, int]:
    """D(v,w) as an unreduced (numerator, positive denominator) pair, the
    max of w psi(v) and v theta(w) taken by cross-multiplication."""
    a, b = psi.value(v), theta.value(w)
    an, ad = w * a.numerator, a.denominator
    bn, bd = v * b.numerator, b.denominator
    g = gcd(v, w)
    return (an, ad * g) if an * bd >= bn * ad else (bn, bd * g)


def d_value(v: int, w: int, psi: WeightFunction, theta: WeightFunction) -> Fraction:
    """Quality D(v,w) = max(w psi(v), v theta(w)) / gcd(v,w), exactly, for
    ints v, w >= 1 (_integer)."""
    return Fraction(*_d_ratio(_integer(v, "v", 1), _integer(w, "w", 1), psi, theta))


def omega_t(v: int, w: int, t: Rational, literal_lcm: bool = False) -> int:
    """Number of primes p <= t at which v and w have different valuations,
    for ints v, w >= 1 (_integer).

    Equivalently p | vw/gcd(v,w)^2.  With literal_lcm=True counts the
    displayed-definition variant p | vw/gcd(v,w) (= p | lcm(v,w)) instead;
    the two differ exactly at primes dividing both v and w to equal order.
    """
    return _omega_t(_integer(v, "v", 1), _integer(w, "w", 1), _t_floor(t), literal_lcm)


def _omega_t(v: int, w: int, bound: int, literal_lcm: bool = False) -> int:
    """omega_t(v, w) with t floored to bound, v and w unread: the kernel of
    the edge tests, which run once per pair."""
    g = gcd(v, w)
    count = small_prime_divisor_count
    if literal_lcm:
        # the primes of lcm(v, w) are those of v or of w, and those of both
        # divide g; lcm itself can be past what factorize accepts
        return count(v, bound) + count(w, bound) - count(g, bound)
    return count(v // g, bound) + count(w // g, bound)


def build_edge_set(
    psi: WeightFunction,
    theta: WeightFunction,
    t: Rational,
    K: Rational,
    literal_lcm: bool = False,
) -> frozenset[tuple[int, int]]:
    """All (v,w) in supp(psi) x supp(theta) with D <= 1 and omega_t >= K,
    by _quality_pairs over the whole support product."""
    thetas = [(w, *b.as_integer_ratio()) for w, b in theta.items()]
    return frozenset(_quality_pairs(((v, a, thetas) for v, a in psi.items()), t, K, literal_lcm))


def stray_edges(
    psi: WeightFunction, theta: WeightFunction, edges: Iterable[tuple[int, int]], t: Rational, K: Rational
) -> frozenset[tuple[int, int]]:
    """The edges outside build_edge_set(psi, theta, t, K): those off the
    supports and those failing its test, which runs on these edges only."""
    E = frozenset(edges)
    rows = (
        (v, psi.value(v), [(w, *theta.value(w).as_integer_ratio())])
        for v, w in E
        if v in psi and w in theta
    )
    return E - frozenset(_quality_pairs(rows, t, K))


def _quality_pairs(rows, t: Rational, K: Rational, literal_lcm: bool = False):
    """The (v, w) with D <= 1 and omega_t >= K among the rows (v, psi(v),
    [(w, theta(w) as an integer ratio), ...]) of positive weights.

    D is rejected early by integer cross-multiplication (w psi(v) <=
    gcd(v,w) and v theta(w) <= gcd(v,w)); omega is only computed for pairs
    passing it, and only when K > 0 (omega >= 0 always), with t floored once
    per call (_t_floor); when K > 0 and t < 2 omega_t is 0, so no pair is
    tested. t < 1, or a float or bool t or K, raises InvalidParameter for
    every K, as omega_t does.
    """
    t_floor = _t_floor(t)
    k_min = ceil(_rational(K))  # omega is an integer: omega >= K iff omega >= ceil(K)
    if k_min > 0 and t_floor < 2:
        return []
    out = []
    for v, a, thetas in rows:
        an, ad = a.numerator, a.denominator
        for w, bn, bd in thetas:
            g = gcd(v, w)
            if w * an > g * ad or v * bn > g * bd:
                continue
            if k_min > 0 and _omega_t(v, w, t_floor, literal_lcm) < k_min:
                continue
            out.append((v, w))
    return out


def build_edge_set_bruteforce(
    psi: WeightFunction,
    theta: WeightFunction,
    t: Rational,
    K: Rational,
    literal_lcm: bool = False,
) -> frozenset[tuple[int, int]]:
    """Unoptimized double-loop oracle: evaluates every definition literally."""
    K = _rational(K)
    small_primes = primes_upto(t)
    out = []
    for v in psi.support():
        for w in theta.support():
            if d_value(v, w, psi, theta) > 1:
                continue
            if literal_lcm:
                count = sum(
                    1
                    for p in small_primes
                    if valuation(p, v) > 0 or valuation(p, w) > 0
                )
            else:
                count = sum(
                    1 for p in small_primes if valuation(p, v) != valuation(p, w)
                )
            if count >= K:
                out.append((v, w))
    return frozenset(out)


def restrict(edges: Iterable[tuple[int, int]]) -> tuple[frozenset[int], frozenset[int]]:
    """Projections (E|_V, E|_W): vertices with nonempty neighborhoods."""
    vs, ws = set(), set()
    for v, w in edges:
        vs.add(v)
        ws.add(w)
    return frozenset(vs), frozenset(ws)


def _p_exponent(primes: Iterable[int], p0: int) -> int:
    return p0 + sum(1 for p in primes if p <= p0)


@dataclass
class BoundReport:
    """Certified comparison lhs <= rhs of the main inequality (certify_le).

    verdict == HOLDS    iff lhs <= rhs.lo   (certified true)
    verdict == VIOLATED iff lhs >  rhs.hi   (certified false)
    otherwise INCONCLUSIVE at the last precision within DEFAULT_PRECISION_CAP
    (2^14 bits).  precision_bits is the precision at which the verdict settled.
    """

    lhs: Fraction
    rhs: Interval
    verdict: str
    precision_bits: int
    p_exponent: int

    def to_json(self) -> dict:
        rhs_lo, rhs_hi = interval_json(self.rhs)
        return {
            "lhs": fraction_str(self.lhs),
            "rhs_lo": rhs_lo,
            "rhs_hi": rhs_hi,
            "rhs_lo_dyadic": {"man": int_str(self.rhs.lo.man), "exp": self.rhs.lo.exp},
            "rhs_hi_dyadic": {"man": int_str(self.rhs.hi.man), "exp": self.rhs.hi.exp},
            "verdict": self.verdict,
            "precision_bits": self.precision_bits,
            "p_exponent": self.p_exponent,
        }


def main_bound_factors(system: PairSystem, params: Params):
    """The three bound factors as (expression, exponent) pairs, plus lhs data."""
    V, W = system.masses
    p_exp = _p_exponent(system.primes, params.p0)
    product = V.measure() * W.measure()
    factors = [
        (const(100) * exp_of(params.C), Fraction(p_exp)),
        (log_of(params.t), (exp_of(40 * params.C) - 1) / 2),
        (
            const(product) * exp_of(-params.C * params.K),
            Fraction(1, 2) + params.epsilon,
        ),
    ]
    return factors, product, p_exp


def main_bound_check(
    system: PairSystem,
    params: Params,
    edges: Optional[frozenset] = None,
    *,
    verify_preconditions: bool = False,
) -> BoundReport:
    """Certified check of the main inequality for E inside the edge set."""
    E = system.edges if edges is None else frozenset(edges)
    if verify_preconditions:
        stray = stray_edges(system.psi, system.theta, E, params.t, params.K)
        if stray:
            raise InvalidParameter(
                f"{len(stray)} edges outside the (t, K) edge set, e.g. {sorted(stray)[0]}"
            )
        needed = sorted(
            {
                (p, e)
                for n in (*system.psi.support(), *system.theta.support())
                for p, e in factorize(n)
            }
        )
        for func, tag in ((system.f, "f"), (system.g, "g")):
            res = validate_multiplicative(func, needed)
            if not res.accepted:
                raise InvalidParameter(f"{tag} violates (1*f)(p^a) <= p^a: {res.failures[:3]}")
    lhs = mu_pairs(system, E)
    factors, product, p_exp = main_bound_factors(system, params)
    if product == 0:
        # mu(V) mu(W) = 0 forces lhs = 0; the bound degenerates to 0 <= 0
        rhs = Interval.exact_zero(params.precision_bits)
        verdict = HOLDS if lhs <= 0 else VIOLATED
        return BoundReport(lhs, rhs, verdict, params.precision_bits, p_exp)
    verdict, rhs, bits = certify_le(lhs, 1, factors, params.precision_bits)
    return BoundReport(lhs, rhs, verdict, bits, p_exp)
