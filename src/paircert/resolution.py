"""The endgame decomposition machinery: writing each vertex of an
arithmetically structured edge set as v = N v+/v-, the extremal selections
w0 and v0(w), the four exact sums S1..S4 splitting the small-prime condition
across the parts, and the exact squared form of the splitting inequality

    mu(E')^2 <= (q')^2 (S1 + S2 + S3 + S4) mu(V') mu(W').
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Union

from .anatomy import mertens_product, small_prime_divisor_count
from .arith import (
    Interval,
    Rational,
    const,
    exp_of,
    interval_eval,
    log_of,
    prime_divisors,
    primes_upto,
    valuation,
)
from .errors import InvalidParameter, NotStructured
from .model import PairSystem, mu_pairs
from .quality import Params, d_value, omega_t, restrict
from .diagonal import adjacency, property_two_report

_ZERO = Fraction(0)
_ONE = Fraction(1)


def decompose(v: int, N: int) -> tuple[int, int]:
    """(v_minus, v_plus): products of primes with nu_p(v/N) = -1 / +1.

    Requires |nu_p(v/N)| <= 1 at every prime; the reconstruction
    v = N v_plus / v_minus then holds exactly.
    """
    if v < 1 or N < 1:
        raise InvalidParameter("decompose needs positive integers")
    minus = plus = 1
    for p in sorted(set(prime_divisors(v)) | set(prime_divisors(N))):
        d = valuation(p, v) - valuation(p, N)
        if d == 0:
            continue
        if d == 1:
            plus *= p
        elif d == -1:
            minus *= p
        else:
            raise NotStructured(f"|nu_{p}({v}/{N})| = {abs(d)} > 1")
    return minus, plus


def coprime_part(N: int, x: int) -> int:
    """N_x = prod over p | N with p coprime to x of p^(nu_p(N))."""
    out = 1
    for p in prime_divisors(N):
        if x % p != 0:
            out *= p ** valuation(p, N)
    return out


def check_structured(
    edges: Iterable[tuple[int, int]], N: int
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """True iff |nu_p(v/N)| + |nu_p(w/N)| <= 1 on every edge and prime.

    Returns (ok, witness) with witness = (v, w, p) on the first failure.
    """
    for v, w in sorted(edges):
        ps = set(prime_divisors(v)) | set(prime_divisors(w)) | set(prime_divisors(N))
        for p in sorted(ps):
            nv = valuation(p, v) - valuation(p, N)
            nw = valuation(p, w) - valuation(p, N)
            if abs(nv) + abs(nw) > 1:
                return False, (v, w, p)
    return True, None


@dataclass(frozen=True)
class Decomposition:
    N: int
    v_parts: dict[int, tuple[int, int]]  # v -> (v_minus, v_plus)
    w_parts: dict[int, tuple[int, int]]
    n_coprime_v: dict[int, int]  # v -> N_{v+}
    n_coprime_w: dict[int, int]


def build_decomposition(edges: Iterable[tuple[int, int]], N: int) -> Decomposition:
    vs, ws = restrict(edges)
    v_parts = {v: decompose(v, N) for v in vs}
    w_parts = {w: decompose(w, N) for w in ws}
    n_co_v = {v: coprime_part(N, plus) for v, (_, plus) in v_parts.items()}
    n_co_w = {w: coprime_part(N, plus) for w, (_, plus) in w_parts.items()}
    return Decomposition(N, v_parts, w_parts, n_co_v, n_co_w)


@dataclass
class SSums:
    """The four split sums with their extremal selections.

    w0 maximises w+ over W' (ties to the smallest integer); v0[w] maximises
    v+ over Gamma(w).  Empty edge sets are degenerate: w0 is None and all
    sums vanish.
    """

    s1: Fraction
    s2: Fraction
    s3: Fraction
    s4: Fraction
    w0: Optional[int]
    v0: dict[int, int] = field(default_factory=dict)

    @property
    def total(self) -> Fraction:
        return self.s1 + self.s2 + self.s3 + self.s4

    @property
    def degenerate(self) -> bool:
        return self.w0 is None


def s_sums(
    system: PairSystem,
    edges: Iterable[tuple[int, int]],
    N: int,
    t: Rational,
    K: Rational,
) -> SSums:
    """Exact S1..S4: the anatomy condition omega_t(.) >= K/4 placed on
    v-, v+, w-, w+ respectively (inner v-sum for S1/S2, outer w-sum for
    S3/S4)."""
    E = frozenset(edges)
    if not E:
        return SSums(_ZERO, _ZERO, _ZERO, _ZERO, None)
    dec = build_decomposition(E, N)
    quarter = Fraction(K) / 4
    w_adj = adjacency(E)[1]

    def passes(part: int) -> bool:
        return small_prime_divisor_count(part, t) >= quarter

    w0 = min(w_adj, key=lambda w: (-dec.w_parts[w][1], w))
    w0_plus = dec.w_parts[w0][1]
    v0 = {
        w: min(vs, key=lambda v: (-dec.v_parts[v][1], v)) for w, vs in w_adj.items()
    }

    s1 = s2 = s3 = s4 = _ZERO
    for w in sorted(w_adj):
        w_minus, w_plus = dec.w_parts[w]
        outer = system.g(w) * Fraction(1, w * w_minus)
        v0_plus = dec.v_parts[v0[w]][1]
        inner_all = _ZERO
        inner_minus = _ZERO
        inner_plus = _ZERO
        for v in sorted(w_adj[w]):
            v_minus, v_plus = dec.v_parts[v]
            term = system.f(v) * Fraction(1, v * v_minus)
            inner_all += term
            if passes(v_minus):
                inner_minus += term
            if passes(v_plus):
                inner_plus += term
        s1 += outer * inner_minus / v0_plus
        s2 += outer * inner_plus / v0_plus
        if passes(w_minus):
            s3 += outer * inner_all / v0_plus
        if passes(w_plus):
            s4 += outer * inner_all / v0_plus
    return SSums(s1 / w0_plus, s2 / w0_plus, s3 / w0_plus, s4 / w0_plus, w0, v0)


def s_majorant(
    t: Rational, K: Rational, gamma: Rational, precision_bits: int = 256
) -> Union[Fraction, Interval]:
    """Shared pre-Mertens majorant gamma^(-K/4) prod_{p<=t}(1 + (gamma-1)/p).

    Every one of S1..S4 is bounded by this for every rational gamma > 1
    (constant 1, exactly); exact when K/4 is an integer, else an interval.
    """
    gamma = Fraction(gamma)
    if gamma <= 1:
        raise InvalidParameter(f"gamma must exceed 1, got {gamma}")
    quarter = Fraction(K) / 4
    prod = mertens_product(t, gamma)
    if quarter.denominator == 1:
        return prod * gamma ** (-quarter.numerator)
    return interval_eval(prod, [(const(gamma), -quarter)], precision_bits)


def s_majorant_bridged(
    t: Rational, K: Rational, C: Rational, precision_bits: int = 256
) -> Interval:
    """The same majorant at gamma = e^(40C): e^(-10CK) prod(1 + (e^(40C)-1)/p)."""
    C = Fraction(C)
    K = Fraction(K)
    factors = [(exp_of(-10 * C * K), Fraction(1))]
    for p in primes_upto(t):
        factors.append(((exp_of(40 * C) - 1) / p + 1, Fraction(1)))
    return interval_eval(Fraction(1), factors, precision_bits)


@dataclass
class ResolutionReport:
    """Outcome of the structured-set resolution checks.

    verdict: holds | violated | precondition-failed | degenerate-empty.
    The squared inequality is a pure rational comparison; the majorant and
    the headline ratio are diagnostics.
    """

    verdict: str
    preconditions: dict[str, object]
    ssums: Optional[SSums]
    lhs_squared: Fraction
    rhs_exact: Fraction
    four_factor_ok: bool
    coprime_ok: bool
    reconstruction_ok: bool
    pointwise_ok: bool
    witnesses: dict[str, object] = field(default_factory=dict)
    majorant: object = None  # Fraction | Interval | None
    headline_ratio: Optional[Interval] = None

    @property
    def inequality_holds(self) -> bool:
        return self.lhs_squared <= self.rhs_exact

    def to_json(self) -> dict:
        from .arith import dyadic_str

        def enc(x):
            if isinstance(x, Interval):
                return [dyadic_str(x.lo, 20), dyadic_str(x.hi, 20)]
            if x is None:
                return None
            return str(x)

        doc = {
            "verdict": self.verdict,
            "preconditions": {k: str(v) for k, v in self.preconditions.items()},
            "lhs_squared": str(self.lhs_squared),
            "rhs_exact": str(self.rhs_exact),
            "four_factor_ok": self.four_factor_ok,
            "coprime_ok": self.coprime_ok,
            "reconstruction_ok": self.reconstruction_ok,
            "pointwise_ok": self.pointwise_ok,
            "majorant": enc(self.majorant),
            "headline_ratio": enc(self.headline_ratio),
            "witnesses": {k: str(v) for k, v in self.witnesses.items()},
        }
        if self.ssums is not None and not self.ssums.degenerate:
            doc.update(
                {
                    "S1": str(self.ssums.s1),
                    "S2": str(self.ssums.s2),
                    "S3": str(self.ssums.s3),
                    "S4": str(self.ssums.s4),
                    "w0": self.ssums.w0,
                }
            )
        return doc


def resolution_check(
    system: PairSystem,
    edges: Iterable[tuple[int, int]],
    N: int,
    params: Params,
    *,
    majorant_gamma: Optional[Rational] = None,
    compute_bridged: bool = False,
    compute_ratio: bool = False,
) -> ResolutionReport:
    """Exact verification of the splitting inequality on a structured set.

    Preconditions (each reported with a witness on failure): the shape
    condition at every prime, the proportional-neighborhood property at
    every vertex, and containment in the (t, K) edge set.  With these in
    place the squared inequality is a theorem; a violation would be a
    reportable mathematical event, not a tolerance issue.
    """
    E = frozenset(edges)
    pre: dict[str, object] = {}
    witnesses: dict[str, object] = {}
    if not E:
        return ResolutionReport(
            "degenerate-empty", {}, SSums(_ZERO, _ZERO, _ZERO, _ZERO, None),
            _ZERO, _ZERO, True, True, True, True,
        )

    ok_struct, wit = check_structured(E, N)
    pre["structured"] = ok_struct
    if not ok_struct:
        witnesses["structured"] = wit

    # rows are (side, vertex, mass, threshold, ok)
    p2 = property_two_report(system, E, params)
    bad_p2 = [(r[0], r[1]) for r in p2 if not r[4]]
    pre["combinatorial"] = not bad_p2
    if bad_p2:
        witnesses["combinatorial"] = bad_p2[0]

    containment_wit = None
    for v, w in sorted(E):
        if d_value(v, w, system.psi, system.theta) > 1 or omega_t(
            v, w, params.t
        ) < params.K:
            containment_wit = (v, w)
            break
    pre["containment"] = containment_wit is None
    if containment_wit:
        witnesses["containment"] = containment_wit

    if not all(pre.values()):
        return ResolutionReport(
            "precondition-failed", pre, None, _ZERO, _ZERO,
            False, False, False, False, witnesses,
        )

    dec = build_decomposition(E, N)

    reconstruction_ok = True
    for parts, side in ((dec.v_parts, "v"), (dec.w_parts, "w")):
        for x, (minus, plus) in parts.items():
            if x * minus != N * plus:
                reconstruction_ok = False
                witnesses["reconstruction"] = (side, x)
                break

    coprime_ok = True
    four_factor_ok = True
    pointwise_ok = True
    for v, w in sorted(E):
        vm, vp = dec.v_parts[v]
        wm, wp = dec.w_parts[w]
        quad = (vm, vp, wm, wp)
        for a in range(4):
            for b in range(a + 1, 4):
                if gcd(quad[a], quad[b]) != 1:
                    coprime_ok = False
                    witnesses.setdefault("coprime", (v, w, quad[a], quad[b]))
        g = gcd(v, w)
        if vm * vp * wm * wp != (v * w) // (g * g):
            four_factor_ok = False
            witnesses.setdefault("four_factor", (v, w))
        if system.psi.value(v) * vm * wp > 1 or system.theta.value(w) * vp * wm > 1:
            pointwise_ok = False
            witnesses.setdefault("pointwise", (v, w))

    sums = s_sums(system, E, N, params.t, params.K)
    w_adj = adjacency(E)[1]
    # extremal pointwise bounds: psi(v) <= 1/(v- w0+) on Gamma(w0),
    # theta(w) <= 1/(v0+(w) w-) on all of W'
    w0 = sums.w0
    w0_plus = dec.w_parts[w0][1]
    for v in sorted(w_adj[w0]):
        vm, _ = dec.v_parts[v]
        if system.psi.value(v) * vm * w0_plus > 1:
            pointwise_ok = False
            witnesses.setdefault("pointwise_extremal", ("v", v))
    for w in sorted(w_adj):
        wm = dec.w_parts[w][0]
        v0p = dec.v_parts[sums.v0[w]][1]
        if system.theta.value(w) * v0p * wm > 1:
            pointwise_ok = False
            witnesses.setdefault("pointwise_extremal", ("w", w))

    mu_e = mu_pairs(system, E)
    vs, ws = restrict(E)
    V, W = system.masses
    mu_v, mu_w = V.measure(vs), W.measure(ws)
    lhs_sq = mu_e * mu_e
    rhs = params.q_prime**2 * sums.total * mu_v * mu_w

    majorant = None
    if majorant_gamma is not None:
        majorant = s_majorant(params.t, params.K, majorant_gamma, params.precision_bits)
    elif compute_bridged:
        majorant = s_majorant_bridged(
            params.t, params.K, params.C, params.precision_bits
        )

    ratio = None
    if compute_ratio and mu_v * mu_w > 0 and mu_e > 0:
        w = params.precision_bits + 16
        denom = interval_eval(
            Fraction(1),
            [
                (log_of(params.t), (exp_of(40 * params.C) - 1) / 2),
                (
                    const(mu_v * mu_w) * exp_of(-10 * params.C * params.K),
                    Fraction(1, 2),
                ),
            ],
            w,
        )
        ratio = (
            Interval.from_fraction(mu_e, w).div(denom, w).round(params.precision_bits)
        )

    structural_ok = (
        reconstruction_ok and coprime_ok and four_factor_ok and pointwise_ok
    )
    if not structural_ok:
        verdict = "violated"
    else:
        verdict = "holds" if lhs_sq <= rhs else "violated"
    return ResolutionReport(
        verdict, pre, sums, lhs_sq, rhs,
        four_factor_ok, coprime_ok, reconstruction_ok, pointwise_ok,
        witnesses, majorant, ratio,
    )
