"""Quality conditions D(v,w) <= 1 and omega_t(v,w) >= K, edge-set
construction, neighborhoods, and certified evaluation of the main bound

    mu(E) <= (100 e^C)^P (Log t)^{(e^{40C}-1)/2} (mu(V) mu(W) e^{-CK})^{1/2+eps}.

The left side is an exact rational; the right side is a certified interval,
and the verdict escalates precision until conclusive or a cap is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Iterable, Optional

from .arith import (
    Interval,
    Rational,
    const,
    exp_of,
    factorize,
    interval_eval,
    log_of,
    primes_upto,
    prime_divisors,
    valuation,
)
from .errors import InvalidParameter
from .model import PairSystem, WeightFunction, mu_pairs, prime_support

DEFAULT_PRECISION_CAP = 1 << 14

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Params:
    """epsilon in (0, 2/5], C > 0, t >= 1, rational K, prime floor p0."""

    epsilon: Fraction
    C: Fraction
    t: Fraction
    K: Fraction
    p0: int = 100
    precision_bits: int = 256

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "C", Fraction(self.C))
        object.__setattr__(self, "t", Fraction(self.t))
        object.__setattr__(self, "K", Fraction(self.K))
        if not 0 < self.epsilon <= Fraction(2, 5):
            raise InvalidParameter(f"epsilon {self.epsilon} outside (0, 2/5]")
        if self.C <= 0:
            raise InvalidParameter(f"C must be positive, got {self.C}")
        if self.t < 1:
            raise InvalidParameter(f"t must be >= 1, got {self.t}")
        if self.p0 < 1:
            raise InvalidParameter(f"p0 must be >= 1, got {self.p0}")
        if self.precision_bits < 16:
            raise InvalidParameter("precision_bits must be >= 16")

    @property
    def q(self) -> Fraction:
        return 2 / (1 - 2 * self.epsilon)

    @property
    def q_prime(self) -> Fraction:
        return 2 / (1 + 2 * self.epsilon)

    def to_json(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "C": str(self.C),
            "t": str(self.t),
            "K": str(self.K),
            "p0": self.p0,
            "precision_bits": self.precision_bits,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Params":
        return cls(
            epsilon=Fraction(doc["epsilon"]),
            C=Fraction(doc["C"]),
            t=Fraction(doc["t"]),
            K=Fraction(doc["K"]),
            p0=int(doc.get("p0", 100)),
            precision_bits=int(doc.get("precision_bits", 256)),
        )


def d_value(v: int, w: int, psi: WeightFunction, theta: WeightFunction) -> Fraction:
    """Quality D(v,w) = max(w psi(v), v theta(w)) / gcd(v,w), exactly."""
    a = w * psi.value(v)
    b = v * theta.value(w)
    return max(a, b) / gcd(v, w)


def omega_t(v: int, w: int, t: Rational, literal_lcm: bool = False) -> int:
    """Number of primes p <= t at which v and w have different valuations.

    Equivalently p | vw/gcd(v,w)^2.  With literal_lcm=True counts the
    displayed-definition variant p | vw/gcd(v,w) (= p | lcm(v,w)) instead;
    the two differ exactly at primes dividing both v and w to equal order.
    """
    if t < 1:
        raise InvalidParameter(f"omega_t requires t >= 1, got {t}")
    bound = floor(t)
    if bound < 2:
        return 0
    if literal_lcm:
        ps = set(prime_divisors(v)) | set(prime_divisors(w))
        return sum(1 for p in ps if p <= bound)
    g = gcd(v, w)
    a, b = v // g, w // g  # coprime
    count = sum(1 for p in prime_divisors(a) if p <= bound)
    count += sum(1 for p in prime_divisors(b) if p <= bound)
    return count


def build_edge_set(
    psi: WeightFunction,
    theta: WeightFunction,
    t: Rational,
    K: Rational,
    literal_lcm: bool = False,
) -> frozenset[tuple[int, int]]:
    """All (v,w) in supp(psi) x supp(theta) with D <= 1 and omega_t >= K.

    Exhaustive over the support product with early D-rejection by integer
    cross-multiplication (w psi(v) <= gcd(v,w) and v theta(w) <= gcd(v,w));
    omega is only computed for pairs passing the quality filter, and only
    when K > 0 (omega >= 0 always, so K <= 0 never filters), with t floored
    once per call.
    """
    K = Fraction(K)
    k_min = ceil(K)  # omega is an integer: omega >= K iff omega >= ceil(K)
    t_floor = floor(t) if t >= 1 else t  # omega_t rejects t < 1
    thetas = [(w, b.numerator, b.denominator) for w, b in theta.items()]
    out = []
    for v, a in psi.items():
        an, ad = a.numerator, a.denominator
        for w, bn, bd in thetas:
            g = gcd(v, w)
            if w * an > g * ad or v * bn > g * bd:
                continue
            if k_min > 0 and omega_t(v, w, t_floor, literal_lcm) < k_min:
                continue
            out.append((v, w))
    return frozenset(out)


def build_edge_set_bruteforce(
    psi: WeightFunction,
    theta: WeightFunction,
    t: Rational,
    K: Rational,
    literal_lcm: bool = False,
) -> frozenset[tuple[int, int]]:
    """Unoptimized double-loop oracle: evaluates every definition literally."""
    K = Fraction(K)
    small_primes = primes_upto(t) if t >= 1 else []
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


def neighborhood(edges: Iterable[tuple[int, int]], v: int) -> frozenset[int]:
    """Gamma_E(v) = {w : (v,w) in E}."""
    return frozenset(w for a, w in edges if a == v)


def w_neighborhood(edges: Iterable[tuple[int, int]], w: int) -> frozenset[int]:
    """Gamma_E(w) = {v : (v,w) in E}."""
    return frozenset(v for v, b in edges if b == w)


def restrict(edges: Iterable[tuple[int, int]]) -> tuple[frozenset[int], frozenset[int]]:
    """Projections (E|_V, E|_W): vertices with nonempty neighborhoods."""
    vs = frozenset(v for v, _ in edges)
    ws = frozenset(w for _, w in edges)
    return vs, ws


def p_value(psi: WeightFunction, theta: WeightFunction, p0: int) -> int:
    """P = p0 + #(prime support inside [1, p0])."""
    if p0 < 1:
        raise InvalidParameter(f"p0 must be >= 1, got {p0}")
    return _p_exponent(prime_support(psi, theta), p0)


def _p_exponent(primes: Iterable[int], p0: int) -> int:
    return p0 + sum(1 for p in primes if p <= p0)


@dataclass
class BoundReport:
    """Certified comparison lhs <= rhs of the main inequality.

    verdict == holds    iff lhs <= rhs.lo   (certified true)
    verdict == violated iff lhs >  rhs.hi   (certified false)
    otherwise inconclusive at the precision cap.
    """

    lhs: Fraction
    rhs: Interval
    verdict: str
    precision_bits: int
    p_exponent: int
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        from .arith import dyadic_str

        return {
            "lhs": str(self.lhs),
            "rhs_lo": dyadic_str(self.rhs.lo, 20),
            "rhs_hi": dyadic_str(self.rhs.hi, 20),
            "rhs_lo_dyadic": {"man": str(self.rhs.lo.man), "exp": self.rhs.lo.exp},
            "rhs_hi_dyadic": {"man": str(self.rhs.hi.man), "exp": self.rhs.hi.exp},
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
    precision_cap: int = DEFAULT_PRECISION_CAP,
    verify_preconditions: bool = False,
    witness: Optional[dict] = None,
) -> BoundReport:
    """Certified check of the main inequality for E inside the edge set."""
    E = system.edges if edges is None else frozenset(edges)
    if verify_preconditions:
        legal = build_edge_set(system.psi, system.theta, params.t, params.K)
        stray = E - legal
        if stray:
            raise InvalidParameter(
                f"{len(stray)} edges outside the (t, K) edge set, e.g. {sorted(stray)[0]}"
            )
        from .model import validate_multiplicative

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
        return BoundReport(lhs, rhs, verdict, params.precision_bits, p_exp, witness)
    prec = params.precision_bits
    while True:
        rhs = interval_eval(Fraction(1), factors, prec)
        if rhs.lo_cmp(lhs) >= 0:
            return BoundReport(lhs, rhs, HOLDS, prec, p_exp, witness)
        if rhs.hi_cmp(lhs) < 0:
            return BoundReport(lhs, rhs, VIOLATED, prec, p_exp, witness)
        if prec * 2 > precision_cap:
            return BoundReport(lhs, rhs, INCONCLUSIVE, prec, p_exp, witness)
        prec *= 2
