"""The endgame decomposition machinery: writing each vertex of an
arithmetically structured edge set as v = N v+/v-, the extremal selections
w0 and v0(w), the four exact sums S1..S4 splitting the small-prime condition
across the parts, and the exact squared form of the splitting inequality

    mu(E')^2 <= (q')^2 (S1 + S2 + S3 + S4) mu(V') mu(W').
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, gcd, lcm, prod
from typing import Iterable, Optional, Union

from .anatomy import mertens_product, small_prime_bound, small_prime_divisor_count
from .arith import (
    Interval,
    Rational,
    const,
    exp_of,
    factorize,
    fraction_str,
    interval_eval,
    interval_json,
    log_of,
    primes_upto,
)
from .errors import InvalidParameter, NotStructured
from .model import PairSystem, _check_precision, _f_ratio
from .quality import (
    DEGENERATE_EMPTY,
    HOLDS,
    PRECONDITION_FAILED,
    VIOLATED,
    Params,
    restrict,
    stray_edges,
)
from .diagonal import _neighborhood_masses, _offsets, _property_two_violators, _shape_violation, adjacency

_ZERO = Fraction(0)


def decompose(v: int, N: int) -> tuple[int, int]:
    """(v_minus, v_plus): products of primes with nu_p(v/N) = -1 / +1.

    Requires |nu_p(v/N)| <= 1 at every prime; the reconstruction
    v = N v_plus / v_minus then holds exactly.
    """
    if v < 1 or N < 1:
        raise InvalidParameter("decompose needs positive integers")
    return _parts(v, N, _offset_map([v], N)[v])


def _offset_map(xs: Iterable[int], N: int) -> dict[int, dict[int, int]]:
    """x -> {p: nu_p(x/N)} at the primes where it is nonzero."""
    nu_n = dict(factorize(N))
    return {x: _offsets(dict(factorize(x)), nu_n) for x in xs}


def _parts(x: int, N: int, off: dict[int, int]) -> tuple[int, int]:
    """decompose(x, N) read off the offsets of x."""
    p = _shape_violation(off, {})
    if p is not None:
        raise NotStructured(f"|nu_{p}({x}/{N})| = {abs(off[p])} > 1")
    minus = prod(p for p, d in off.items() if d < 0)
    return minus, prod(p for p, d in off.items() if d > 0)


def coprime_part(N: int, x: int) -> int:
    """N_x = prod over p | N with p coprime to x of p^(nu_p(N))."""
    out = 1
    for p, e in factorize(N):
        if x % p != 0:
            out *= p**e
    return out


def check_structured(
    edges: Iterable[tuple[int, int]], N: int
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """True iff |nu_p(v/N)| + |nu_p(w/N)| <= 1 on every edge and prime.

    Returns (ok, witness) with witness = (v, w, p) on the first failure.
    """
    E = sorted(edges)
    off = _offset_map({x for e in E for x in e}, N)
    for v, w in E:
        p = _shape_violation(off[v], off[w])
        if p is not None:
            return False, (v, w, p)
    return True, None


@dataclass(frozen=True)
class Decomposition:
    N: int
    v_parts: dict[int, tuple[int, int]]  # v -> (v_minus, v_plus)
    w_parts: dict[int, tuple[int, int]]


def build_decomposition(edges: Iterable[tuple[int, int]], N: int) -> Decomposition:
    vs, ws = restrict(edges)
    off = _offset_map(vs | ws, N)
    return Decomposition(
        N,
        {v: _parts(v, N, off[v]) for v in vs},
        {w: _parts(w, N, off[w]) for w in ws},
    )


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
    return _s_sums(system, build_decomposition(E, N), adjacency(E)[1], t, K)


def _s_sums(
    system: PairSystem, dec: Decomposition, w_adj: dict, t: Rational, K: Rational
) -> SSums:
    """s_sums from a nonempty edge set's decomposition and w -> Gamma(w)
    map, in integers: f(v)/(v v-) over one common denominator, g(w)/(w w-
    v0+(w)) over another, and one Fraction per S_k at the end."""
    bound, k4 = small_prime_bound(t), ceil(Fraction(K) / 4)

    def passes(part: int) -> bool:
        return small_prime_divisor_count(part, bound) >= k4

    w0 = min(w_adj, key=lambda w: (-dec.w_parts[w][1], w))
    v0 = {
        w: min(vs, key=lambda v: (-dec.v_parts[v][1], v)) for w, vs in w_adj.items()
    }
    f_num, f_den = _over_lcm(system.f, {v: v * m for v, (m, _) in dec.v_parts.items()})
    g_num, g_den = _over_lcm(
        system.g,
        {w: w * m * dec.v_parts[v0[w]][1] for w, (m, _) in dec.w_parts.items()},
    )
    v_passes = {v: (passes(m), passes(p)) for v, (m, p) in dec.v_parts.items()}

    s1 = s2 = s3 = s4 = 0
    for w, vs in w_adj.items():
        w_minus, w_plus = dec.w_parts[w]
        outer = g_num[w]
        s1 += outer * sum(f_num[v] for v in vs if v_passes[v][0])
        s2 += outer * sum(f_num[v] for v in vs if v_passes[v][1])
        whole = outer * sum(f_num[v] for v in vs)
        if passes(w_minus):
            s3 += whole
        if passes(w_plus):
            s4 += whole
    den = f_den * g_den * dec.w_parts[w0][1]
    return SSums(*(Fraction(x, den) for x in (s1, s2, s3, s4)), w0, v0)


def _over_lcm(f, scales: dict[int, int]) -> tuple[dict[int, int], int]:
    """x -> f(x) / scales[x] as integers over one common denominator."""
    ratios = {x: _f_ratio(f, factorize(x)) for x in scales}
    dens = {x: d * scales[x] for x, (_, d) in ratios.items()}
    den = lcm(*dens.values())
    return {x: n * (den // dens[x]) for x, (n, _) in ratios.items()}, den


def _exceeds_one(x: Fraction, m: int) -> bool:
    """x m > 1, by cross-multiplication."""
    return x.numerator * m > x.denominator


def s_majorant(
    t: Rational, K: Rational, gamma: Rational, precision_bits: int = 256
) -> Union[Fraction, Interval]:
    """Shared pre-Mertens majorant gamma^(-K/4) prod_{p<=t}(1 + (gamma-1)/p).

    Every one of S1..S4 is bounded by this for every rational gamma > 1
    (constant 1, exactly); exact when K/4 is an integer, else an interval.
    """
    _check_precision(precision_bits, "precision_bits")
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
    _check_precision(precision_bits, "precision_bits")
    C = Fraction(C)
    K = Fraction(K)
    factors = [(exp_of(-10 * C * K), Fraction(1))]
    for p in primes_upto(t):
        factors.append(((exp_of(40 * C) - 1) / p + 1, Fraction(1)))
    return interval_eval(Fraction(1), factors, precision_bits)


@dataclass
class ResolutionReport:
    """Outcome of the structured-set resolution checks.

    verdict: quality.HOLDS, VIOLATED, PRECONDITION_FAILED or DEGENERATE_EMPTY.
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
        def enc(x):
            if isinstance(x, Interval):
                return interval_json(x)
            if x is None:
                return None
            return fraction_str(x)

        doc = {
            "verdict": self.verdict,
            "preconditions": {k: str(v) for k, v in self.preconditions.items()},
            "lhs_squared": fraction_str(self.lhs_squared),
            "rhs_exact": fraction_str(self.rhs_exact),
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
                    "S1": fraction_str(self.ssums.s1),
                    "S2": fraction_str(self.ssums.s2),
                    "S3": fraction_str(self.ssums.s3),
                    "S4": fraction_str(self.ssums.s4),
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
    every vertex, and containment in build_edge_set's (t, K) edge set (the
    test of main_bound_check(verify_preconditions=True); the witness is the
    least stray edge).  With these in
    place the squared inequality is a theorem; a violation would be a
    reportable mathematical event, not a tolerance issue.

    One _neighborhood_masses call gives the adjacency, property two
    (decided by _below_share, as in peel) and mu(E), mu(V'), mu(W') as
    integers; containment tests each edge of E by build_edge_set's own
    test (stray_edges); the pointwise bounds are cross-multiplied.
    """
    E = frozenset(edges)
    pre: dict[str, object] = {}
    witnesses: dict[str, object] = {}
    if not E:
        return ResolutionReport(
            DEGENERATE_EMPTY, {}, SSums(_ZERO, _ZERO, _ZERO, _ZERO, None),
            _ZERO, _ZERO, True, True, True, True,
        )

    ok_struct, wit = check_structured(E, N)
    pre["structured"] = ok_struct
    if not ok_struct:
        witnesses["structured"] = wit

    V, W = system.masses
    nbhd = _neighborhood_masses((V, W), E)
    adj, _, own, mu_e_num = nbhd

    bad_p2 = next(_property_two_violators(nbhd, 1 / params.q_prime), None)
    pre["combinatorial"] = bad_p2 is None
    if bad_p2:
        witnesses["combinatorial"] = bad_p2

    stray = stray_edges(system.psi, system.theta, E, params.t, params.K)
    pre["containment"] = not stray
    if stray:
        witnesses["containment"] = min(stray)

    if not all(pre.values()):
        return ResolutionReport(
            PRECONDITION_FAILED, pre, None, _ZERO, _ZERO,
            False, False, False, False, witnesses,
        )

    dec = build_decomposition(E, N)
    w_adj = adj[1]
    psi, theta = system.psi.value, system.theta.value

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
        if _exceeds_one(psi(v), vm * wp) or _exceeds_one(theta(w), vp * wm):
            pointwise_ok = False
            witnesses.setdefault("pointwise", (v, w))

    sums = _s_sums(system, dec, w_adj, params.t, params.K)
    # extremal pointwise bounds: psi(v) <= 1/(v- w0+) on Gamma(w0),
    # theta(w) <= 1/(v0+(w) w-) on all of W'
    w0 = sums.w0
    w0_plus = dec.w_parts[w0][1]
    for v in sorted(w_adj[w0]):
        if _exceeds_one(psi(v), dec.v_parts[v][0] * w0_plus):
            pointwise_ok = False
            witnesses.setdefault("pointwise_extremal", ("v", v))
    for w in sorted(w_adj):
        if _exceeds_one(theta(w), dec.v_parts[sums.v0[w]][1] * dec.w_parts[w][0]):
            pointwise_ok = False
            witnesses.setdefault("pointwise_extremal", ("w", w))

    mu_e = Fraction(mu_e_num, V.den * W.den)
    mu_v, mu_w = Fraction(own[0], V.den), Fraction(own[1], W.den)
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

    structural_ok = reconstruction_ok and coprime_ok and four_factor_ok and pointwise_ok
    verdict = HOLDS if structural_ok and lhs_sq <= rhs else VIOLATED
    return ResolutionReport(
        verdict, pre, sums, lhs_sq, rhs,
        four_factor_ok, coprime_ok, reconstruction_ok, pointwise_ok,
        witnesses, majorant, ratio,
    )
