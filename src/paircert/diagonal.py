"""Diagonal concentration: the normalized cell measure m(i,j) of an edge set
at a prime p, the bilinear-bound cell checker, the exhaustive center search,
assembly of the concentrated edge set E*, and measure-respecting peeling to
an edge set whose every vertex carries a proportional share of the mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

from .arith import (
    Interval,
    compare_power,
    const,
    exp_of,
    fraction_str,
    interval_eval,
    interval_json,
    is_prime,
)
from .errors import DegenerateMeasure, InvalidParameter, InvariantBroken
from .model import PairSystem, SideMasses, edge_mass
from .quality import (
    FAILED,
    HOLDS,
    INCONCLUSIVE,
    VACUOUS,
    VIOLATED,
    Params,
    certify_le,
    restrict,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class DiagonalMeasure:
    """m(i,j) = mu(E cap (V_i x W_j)) / mu(E) with vertex marginals.

    alpha_i = mu_psi^f(V_i)/mu_psi^f(V), beta_j likewise; cells and both
    marginals each sum to exactly 1 (only nonzero entries stored).
    """

    p: int
    cells: dict[tuple[int, int], Fraction]
    alpha: dict[int, Fraction]
    beta: dict[int, Fraction]
    total: Fraction

    def __post_init__(self):
        if self.total <= 0:
            raise DegenerateMeasure("diagonal measure needs mu(E) > 0")
        for name, mapping in (("cells", self.cells), ("alpha", self.alpha), ("beta", self.beta)):
            s = sum(mapping.values(), _ZERO)
            if s != 1:
                raise InvalidParameter(f"{name} sums to {s}, not 1")
            if any(v < 0 for v in mapping.values()):
                raise InvalidParameter(f"{name} has a negative entry")

    def support_indices(self) -> list[int]:
        idx = {i for i, _ in self.cells} | {j for _, j in self.cells}
        return sorted(idx)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "total": fraction_str(self.total),
            "cells": {f"{i},{j}": fraction_str(v) for (i, j), v in sorted(self.cells.items())},
            "alpha": {str(i): fraction_str(v) for i, v in sorted(self.alpha.items())},
            "beta": {str(j): fraction_str(v) for j, v in sorted(self.beta.items())},
        }


@dataclass(frozen=True)
class CenterResult:
    k: int
    tail_mass: Fraction


def _edge_cells(V: SideMasses, W: SideMasses, E: frozenset[tuple[int, int]]):
    """One pass over E: mu(E) and, at each prime p dividing some vw, the
    mass of every cell (nu_p(v), nu_p(w)) other than (0, 0), all as
    integers over V.den * W.den.  Zero-mass edges add nothing."""
    total = 0
    cells: dict[int, dict[tuple[int, int], int]] = {}
    for v, w in E:
        mass = V.num.get(v, 0) * W.num.get(w, 0)
        if not mass:
            continue
        total += mass
        nv, nw = V.exponents(v), W.exponents(w)
        for p in nv.keys() | nw.keys():
            key = (nv.get(p, 0), nw.get(p, 0))
            at_p = cells.setdefault(p, {})
            at_p[key] = at_p.get(key, 0) + mass
    return total, cells


def _marginal_cells(side: SideMasses):
    """mu(side) and, at each prime p, the mass at every valuation i != 0,
    as integers over side.den."""
    total = 0
    cells: dict[int, dict[int, int]] = {}
    for x, mass in side.num.items():
        if not mass:
            continue
        total += mass
        for p, i in side.nu[x].items():
            at_p = cells.setdefault(p, {})
            at_p[i] = at_p.get(i, 0) + mass
    return total, cells


def _with_origin(others: dict[object, int], total: int, origin) -> dict[object, int]:
    """others plus the origin's mass total - sum(others), stored only when
    positive; InvalidParameter when a mass or that remainder is negative."""
    rest = total - sum(others.values())
    if rest < 0 or any(m < 0 for m in others.values()):
        raise InvalidParameter(f"cell masses {others} do not fit in the total {total}")
    return {**others, origin: rest} if rest else dict(others)


def _shares(masses: dict, total: int) -> dict:
    return {key: Fraction(mass, total) for key, mass in masses.items()}


class _MassTable:
    """The cell and marginal masses of E at every prime, from one pass, as
    integers: cells over V.den * W.den, alpha over V.den, beta over W.den."""

    def __init__(self, system: PairSystem, E: frozenset[tuple[int, int]]):
        self.V, self.W = system.masses
        self.total, self.cells = _edge_cells(self.V, self.W, E)
        self.mu_v, self.alpha = _marginal_cells(self.V)
        self.mu_w, self.beta = _marginal_cells(self.W)

    def masses(self, p: int):
        """The cells, alpha and beta at p with their (0, 0) / 0 entries,
        checked nonnegative."""
        return (
            _with_origin(self.cells.get(p, {}), self.total, (0, 0)),
            _with_origin(self.alpha.get(p, {}), self.mu_v, 0),
            _with_origin(self.beta.get(p, {}), self.mu_w, 0),
        )

    def measure(self, p: int) -> DiagonalMeasure:
        cells, alpha, beta = self.masses(p)
        return DiagonalMeasure(
            p,
            _shares(cells, self.total),
            _shares(alpha, self.mu_v),
            _shares(beta, self.mu_w),
            Fraction(self.total, self.V.den * self.W.den),
        )


def diagonal_measure(
    system: PairSystem, edges: Iterable[tuple[int, int]], p: int
) -> DiagonalMeasure:
    """Exact partition of the edge mass by the valuation pair at p.

    One pass over E adds each edge's mass mu(v) mu(w) to mu(E) and to the
    cell (nu_p(v), nu_p(w)) of every prime p dividing vw; the (0, 0) cell is
    then mu(E) minus the other cells.  alpha and beta come the same way
    from the vertex masses.
    """
    table = _MassTable(system, frozenset(edges))
    if table.total == 0:
        raise DegenerateMeasure("mu(E) = 0: m(i,j) is undefined")
    if p < 2 or not is_prime(p):
        raise InvalidParameter(f"valuation base {p} is not prime")
    return table.measure(p)


def find_center(dm: DiagonalMeasure) -> CenterResult:
    """The integer k minimizing the off-center tail, ties to the smallest k.

    tail(k) = sum of m(i,j) over |i-k| + |j-k| >= 2, scanned exhaustively
    over [min support - 1, max support + 1] in integers over the cells'
    common denominator, as the total less the near mass (see _center_scan).
    """
    den = lcm(*(m.denominator for m in dm.cells.values()))
    k, tail = _center_scan(
        {cell: m.numerator * (den // m.denominator) for cell, m in dm.cells.items()}
    )
    return CenterResult(k, Fraction(tail, den))


def _center_scan(cells: dict[tuple[int, int], int]) -> tuple[int, int]:
    """(k, tail(k)) for integer cell masses: the exhaustive tail scan of
    find_center, which any positive common scale of the masses leaves
    unchanged.

    One pass fills near(k), the mass of the cells with |i-k| + |j-k| <= 1:
    a cell (i, i) is near k = i only, a cell with |i-j| = 1 is near k = i
    and k = j, and any other cell is near no k.  So tail(k) = total -
    near(k), and the first maximum of near over the scan range is the
    first minimum of tail.
    """
    near: dict[int, int] = {}
    for (i, j), m in cells.items():
        if i == j:
            near[i] = near.get(i, 0) + m
        elif abs(i - j) == 1:
            near[i] = near.get(i, 0) + m
            near[j] = near.get(j, 0) + m
    idx = {i for i, _ in cells} | {j for _, j in cells}
    k, best = min(idx) - 1, 0  # no cell is near min(idx) - 1
    for c in range(k + 1, max(idx) + 2):
        if near.get(c, 0) > best:  # the first maximum
            k, best = c, near[c]
    return k, sum(cells.values()) - best


@dataclass
class CellCheck:
    i: int
    j: int
    mass: Fraction
    bound: object  # Interval or Fraction
    verdict: str


def _cell_checks(dm: DiagonalMeasure, bits: int, bound_factors) -> list[CellCheck]:
    """certify_le of every cell m(i,j) against the bound whose factors are
    bound_factors(i, j, alpha_i, beta_j), from bits of precision; a cell
    with alpha_i beta_j = 0 is held against the exact bound 0."""
    out = []
    for (i, j), mass in sorted(dm.cells.items()):
        a, b = dm.alpha.get(i, _ZERO), dm.beta.get(j, _ZERO)
        if a * b == 0:
            out.append(CellCheck(i, j, mass, _ZERO, HOLDS if mass <= 0 else VIOLATED))
            continue
        verdict, bound, _ = certify_le(mass, 1, bound_factors(i, j, a, b), bits)
        out.append(CellCheck(i, j, mass, bound, verdict))
    return out


def bilinear_check(dm: DiagonalMeasure, params: Params) -> list[CellCheck]:
    """Certified per-cell comparison against the bilinear bound

        m(i,j) <= (100 e^C)^(-[p <= p0]) p^(-|i-j|/q) (a_i b_j e^([i!=j] C))^(1/q')

    Diagnostic only: the bound is a statement about minimal counterexamples.
    """
    p = dm.p
    below_p0 = p <= params.p0

    def factors(i, j, a, b):
        return [
            (const(100) * exp_of(params.C), Fraction(-1 if below_p0 else 0)),
            (const(p), Fraction(-abs(i - j)) / params.q),
            (
                const(a * b) * exp_of(params.C if i != j else 0),
                1 / params.q_prime,
            ),
        ]

    return _cell_checks(dm, params.precision_bits, factors)


@dataclass
class DecayReport:
    """Lemma-shaped decay diagnostics at one prime with the preset
    c1 = (100 e^C)^(-[p<=p0]), c2 = 1 - 2^(-1/10), C3 = e^C,
    lambda = p^(eps - 1/2), x_i = alpha_i^(1/2+eps), y_j = beta_j^(1/2+eps).

    Both hypotheses on the constants are decided exactly, for the Params
    domain 0 < eps <= 2/5, C > 0 and an integer p >= 1: lambda <= 1 - c2 iff
    p^(5 - 10 eps) >= 2, and c1 >= c2 / (1 + (2 C3 - 1) lambda) iff p > p0.
    """

    p: int
    center: CenterResult
    lambda_in_range: str  # lambda <= 1 - c2: HOLDS iff p^(5 - 10 eps) >= 2
    c1_lower_ok: str  # c1 >= c2 / (1 + (2 C3 - 1) lambda): HOLDS iff p > p0
    cell_checks: list[CellCheck]
    tail_ratio: Optional[Interval]  # tail / (p^(-1-2eps) + p^(-(3-2eps)/2))

    @property
    def hypothesis_holds(self) -> bool:
        return all(c.verdict == HOLDS for c in self.cell_checks)


def decay_hypothesis_report(dm: DiagonalMeasure, params: Params) -> DecayReport:
    p = dm.p
    eps = params.epsilon
    below_p0 = p <= params.p0
    center = find_center(dm)

    # lambda <= 1 - c2  <=>  p^(1/2 - eps) >= 2^(1/10)  <=>  p^(5-10eps) >= 2
    lam_ok = compare_power(Fraction(p), 5 - 10 * eps, Fraction(2)) >= 0
    lambda_in_range = HOLDS if lam_ok else VIOLATED

    # c1 >= c2 / (1 + (2 C3 - 1) lambda) iff p > p0.  Above p0, c1 = 1 > c2
    # > the right side.  At or below it, lambda <= 1 (p >= 1, as
    # compare_power has checked, and eps < 1/2) and C3 > 1 give
    # c1 (1 + (2 C3 - 1) lambda) <= 2 C3 / (100 C3) = 1/50 < c2, since
    # 2 * 49^10 > 50^10
    c1_lower_ok = VIOLATED if below_p0 else HOLDS

    # cell hypothesis m(i,j) <= c1 [C3 lambda^|i-j|] x_i y_j
    def factors(i, j, a, b):
        return [
            (const(100) * exp_of(params.C), Fraction(-1 if below_p0 else 0)),
            (exp_of(params.C), Fraction(1 if i != j else 0)),
            (const(p), (eps - Fraction(1, 2)) * abs(i - j)),
            (const(a), Fraction(1, 2) + eps),
            (const(b), Fraction(1, 2) + eps),
        ]

    cell_checks = _cell_checks(dm, params.precision_bits, factors)

    # empirical tail ratio against p^(-1-2eps) + p^(-(3-2eps)/2)
    if center.tail_mass == 0:
        ratio = Interval.exact_zero(params.precision_bits)
    else:
        w = params.precision_bits + 16
        denom = interval_eval(
            Fraction(1), [(const(p), -1 - 2 * eps)], w
        ).add(
            interval_eval(Fraction(1), [(const(p), -(3 - 2 * eps) / 2)], w), w
        )
        ratio = (
            Interval.from_fraction(center.tail_mass, w)
            .div(denom, w)
            .round(params.precision_bits)
        )
    return DecayReport(p, center, lambda_in_range, c1_lower_ok, cell_checks, ratio)


@dataclass
class ConcentrateResult:
    N: int
    edges_star: frozenset[tuple[int, int]]
    removed_fraction: Fraction  # mu(E minus E*) / mu(E), exactly
    centers: dict[int, int]

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "centers": {str(p): k for p, k in sorted(self.centers.items())},
            "removed_fraction": fraction_str(self.removed_fraction),
            "edges_star": sorted(self.edges_star),
        }


def concentrate(
    system: PairSystem, edges: Iterable[tuple[int, int]], params: Params
) -> ConcentrateResult:
    """Center N = prod p^{k_p} and the filtered set E*.

    One pass over E fills the valuation cells of every prime at once (see
    diagonal_measure: the (0, 0) cell is mu(E) minus the other cells), as
    integers over the vertex-mass denominators.  At each prime of the
    support, the cells and marginals are checked nonnegative in those
    integers, and the center is find_center's exhaustive tail scan run on
    the integer cells themselves, with no DiagonalMeasure built; a tied
    k = -1 is clamped to 0 (same tail, keeps N integral).  E* keeps the
    edges with |nu_p(v/N)| + |nu_p(w/N)| <= 1 at every prime, off the
    support too, read off the vertex factorizations, and removed_fraction
    is (mu(E) - mu(E*)) / mu(E) in exact integers.

    That shape test is _shape_violation(off_v, off_w) is None, decided from
    one summary per vertex (_unit_primes).  For integers a and b,
    |a| + |b| <= 1 holds iff |a| <= 1, |b| <= 1 and not both are nonzero.
    The offsets hold only nonzero nu_p(x/N), so a pair has the shape iff
    neither vertex has an offset of size >= 2 and the key sets of their
    offsets are disjoint (isdisjoint).
    """
    E = frozenset(edges)
    table = _MassTable(system, E)
    if table.total == 0:
        raise DegenerateMeasure("mu(E) = 0: nothing to concentrate")
    centers: dict[int, int] = {}
    N = 1
    for p in system.primes:
        cells, _, _ = table.masses(p)
        k = max(0, _center_scan(cells)[0])
        centers[p] = k
        N *= p**k
    V, W = table.V, table.W
    nu_n = {p: k for p, k in centers.items() if k}
    vs, ws = restrict(E)
    unit_v, unit_w = _unit_primes(V, vs, nu_n), _unit_primes(W, ws, nu_n)
    star = frozenset(
        (v, w)
        for v, w in E
        if v in unit_v and w in unit_w and unit_v[v].isdisjoint(unit_w[w])
    )
    removed = Fraction(table.total - edge_mass(V, W, star), table.total)
    return ConcentrateResult(N, star, removed, centers)


def _offsets(nu: dict[int, int], nu_n: dict[int, int]) -> dict[int, int]:
    """{p: nu_p(x/N)} at the primes where it is nonzero, from the
    factorizations nu of x and nu_n of N."""
    out = {p: e - nu_n.get(p, 0) for p, e in nu.items()}
    out.update((p, -k) for p, k in nu_n.items() if p not in nu)
    return {p: d for p, d in out.items() if d}


def _unit_primes(side: SideMasses, xs: Iterable[int], nu_n: dict[int, int]) -> dict:
    """{x: the primes p with nu_p(x/N) != 0} over the x in xs with every
    |nu_p(x/N)| <= 1; an x with some |nu_p(x/N)| >= 2 is left out."""
    out = {}
    for x in xs:
        off = _offsets(side.exponents(x), nu_n)
        if all(-1 <= d <= 1 for d in off.values()):
            out[x] = off.keys()
    return out


def _shape_violation(off_v: dict[int, int], off_w: dict[int, int]) -> Optional[int]:
    """The least prime p with |nu_p(v/N)| + |nu_p(w/N)| > 1, from the
    offsets of v and w, or None when the pair has the shape at every
    prime.  With an empty off_w it tests |nu_p(v/N)| <= 1 alone."""
    bad = (
        p
        for p in off_v.keys() | off_w.keys()
        if abs(off_v.get(p, 0)) + abs(off_w.get(p, 0)) > 1
    )
    return min(bad, default=None)


@dataclass
class PeelStep:
    step: int
    side: str  # "v" or "w"
    vertex: int
    mu_edges_before: Fraction
    mu_edges_after: Fraction
    mu_side_before: Fraction
    mu_side_after: Fraction
    cert_verdict: str  # quality.HOLDS, FAILED, VACUOUS or INCONCLUSIVE
    cert_rhs: object = None  # Interval (or None when vacuous)

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "side": self.side,
            "vertex": self.vertex,
            "mu_edges_before": fraction_str(self.mu_edges_before),
            "mu_edges_after": fraction_str(self.mu_edges_after),
            "mu_side_before": fraction_str(self.mu_side_before),
            "mu_side_after": fraction_str(self.mu_side_after),
            "cert_verdict": self.cert_verdict,
            "cert_rhs": interval_json(self.cert_rhs) if self.cert_rhs else None,
        }


@dataclass
class PeelResult:
    edges: frozenset[tuple[int, int]]
    trace: list[PeelStep] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.trace)


def adjacency(E: frozenset[tuple[int, int]]):
    """The maps v -> Gamma(v) and w -> Gamma(w) of E."""
    v_adj: dict[int, set[int]] = {}
    w_adj: dict[int, set[int]] = {}
    for v, w in E:
        v_adj.setdefault(v, set()).add(w)
        w_adj.setdefault(w, set()).add(v)
    return v_adj, w_adj


def _neighborhood_masses(sides: tuple[SideMasses, SideMasses], E):
    """The adjacency maps of E and, as integers, per side s: gamma[s][x] =
    mu(Gamma(x)) times the other side's den and own[s] = mu(side-s
    vertices with an edge) times side s's den; then mu(E) times both
    dens."""
    adj = adjacency(E)
    gamma = [
        {x: sum(sides[1 - s].num.get(y, 0) for y in ys) for x, ys in adj[s].items()}
        for s in (0, 1)
    ]
    own = [sum(sides[s].num.get(x, 0) for x in adj[s]) for s in (0, 1)]
    mu_e = sum(sides[0].num.get(v, 0) * g for v, g in gamma[0].items())
    return adj, gamma, own, mu_e


def _below_share(gamma: int, own: int, mu_e: int, inv_qp: Fraction) -> bool:
    """Whether x violates property two, mu(Gamma(x)) < (1/q') mu(E) /
    mu(own side), on the integers of _neighborhood_masses: b gamma own <
    a mu_e with 1/q' = a/b (never when mu(E) = 0)."""
    return inv_qp.denominator * gamma * own < inv_qp.numerator * mu_e


def property_two_report(
    system: PairSystem, edges: Iterable[tuple[int, int]], params: Params
) -> list[tuple[str, int, Fraction, Fraction, bool]]:
    """Exact (side, vertex, neighborhood mass, threshold, ok) rows.

    ok means mu(Gamma(x)) >= (1/q') mu(E) / mu(own side), decided by
    _below_share, the test peel removes vertices by.
    """
    E = frozenset(edges)
    rows = []
    if not E:
        return rows
    sides = system.masses
    adj, gamma, own, mu_e = _neighborhood_masses(sides, E)
    inv_qp = 1 / params.q_prime
    thr_e = inv_qp * Fraction(mu_e, sides[0].den * sides[1].den)
    for s in (0, 1):
        mu_own = Fraction(own[s], sides[s].den)
        thr = thr_e / mu_own if mu_own > 0 else _ZERO
        for x in sorted(adj[s]):
            g = gamma[s][x]
            ok = not _below_share(g, own[s], mu_e, inv_qp)
            rows.append(("vw"[s], x, Fraction(g, sides[1 - s].den), thr, ok))
    return rows


def _property_two_violators(nbhd, inv_qp: Fraction):
    """The (side, vertex) pairs that fail property two, from the
    _neighborhood_masses tuple nbhd, in property_two_report's row order."""
    adj, gamma, own, mu_e = nbhd
    return (
        ("vw"[s], x)
        for s in (0, 1)
        for x in sorted(adj[s])
        if _below_share(gamma[s][x], own[s], mu_e, inv_qp)
    )


def property_two_holds(
    system: PairSystem, edges: Iterable[tuple[int, int]], params: Params
) -> bool:
    """Whether no vertex of E fails property two, with no rows built."""
    E = frozenset(edges)
    if not E:
        return True
    nbhd = _neighborhood_masses(system.masses, E)
    return next(_property_two_violators(nbhd, 1 / params.q_prime), None) is None


# peel certifies mu_after > rhs, the negation of certify_le(mu_after, rhs)
_DROP_VERDICTS = {VIOLATED: HOLDS, HOLDS: FAILED, INCONCLUSIVE: INCONCLUSIVE}


def peel(
    system: PairSystem, edges: Iterable[tuple[int, int]], params: Params
) -> PeelResult:
    """Remove vertices violating the proportional-neighborhood property
    until none remains.

    At each step the violating vertex with the smallest ratio
    mu(Gamma(x)) mu(own side) / mu(E) is removed (ties: v side first, then
    the smaller integer).  Each removal's trace row certifies the measure
    drop inequality mu(E_new) > mu(E_old) (mu(side_new)/mu(side_old))^(1/q')
    by interval arithmetic; steps that remove a zero-mass vertex leave the
    measures unchanged and are marked vacuous.

    The masses are kept as integers over the vertex-mass denominators and
    updated along the adjacency maps as vertices go.
    """
    E = frozenset(edges)
    trace: list[PeelStep] = []
    if not E:
        return PeelResult(E, trace)
    inv_qp = 1 / params.q_prime
    sides = system.masses
    den_e = sides[0].den * sides[1].den
    adj, gamma, own, mu_e = _neighborhood_masses(sides, E)
    max_steps = len(adj[0]) + len(adj[1])
    step = 0
    while adj[0]:
        # the ratio to rank by is gamma own / mu_e; mu(E) = 0 leaves none
        candidates = [
            (g * own[s], s, x)
            for s in (0, 1)
            for x, g in gamma[s].items()
            if _below_share(g, own[s], mu_e, inv_qp)
        ]
        if not candidates:
            break
        _, s, vertex = min(candidates)
        mass = sides[s].num.get(vertex, 0)
        e_after = mu_e - mass * gamma[s].pop(vertex)
        own_before = own[s]
        own[s] -= mass
        for y in adj[s].pop(vertex):
            nbrs = adj[1 - s][y]
            nbrs.discard(vertex)
            gamma[1 - s][y] -= mass
            if not nbrs:  # y has no edge left and leaves its side
                del adj[1 - s][y], gamma[1 - s][y]
                own[1 - s] -= sides[1 - s].num.get(y, 0)
        mu_before = Fraction(mu_e, den_e)
        mu_after = Fraction(e_after, den_e)
        ratio = Fraction(own[s], own_before)
        if ratio == 1:
            verdict, rhs = VACUOUS, None
        elif ratio == 0:
            verdict = HOLDS if mu_after > 0 else FAILED
            rhs = Interval.exact_zero(params.precision_bits)
        else:
            drop, rhs, _ = certify_le(
                mu_after, mu_before, [(const(ratio), inv_qp)], params.precision_bits
            )
            verdict = _DROP_VERDICTS[drop]
        trace.append(
            PeelStep(
                step,
                "vw"[s],
                vertex,
                mu_before,
                mu_after,
                Fraction(own_before, sides[s].den),
                Fraction(own[s], sides[s].den),
                verdict,
                rhs,
            )
        )
        mu_e = e_after
        step += 1
        if step > max_steps:
            raise InvariantBroken("peel exceeded the vertex-count step bound")
    return PeelResult(frozenset((v, w) for v, ws in adj[0].items() for w in ws), trace)
