"""Prime-slice compression: remove one prime p from a pair system by fixing
the valuation cell (i, j) and rescaling the weights, then machine-check every
exact identity the rescaling is supposed to satisfy.

For p coprime v, w:

    psi~(v)  = p^(j - min(i,j)) psi(p^i v)
    theta~(w) = p^(i - min(i,j)) theta(p^j w)
    E~ = {(v, w) : (p^i v, p^j w) in E  and  nu_p = (i, j)}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import Rational, _int_valuation, _integer, _power, _t_floor, fraction_str, is_prime
from .errors import InvalidParameter
from .model import PairSystem, WeightFunction, edge_mass, mu_pairs
from .quality import FAILED, HOLDS, VACUOUS, _d_ratio, _omega_t


@dataclass(frozen=True)
class Slice:
    """The rescaled system at prime p and valuation cell (i, j)."""

    p: int
    i: int
    j: int
    tilde: PairSystem
    v_cell: frozenset[int]  # V_i = {v in supp psi : nu_p(v) = i}
    w_cell: frozenset[int]


@dataclass
class IdentityCheck:
    name: str
    status: str  # quality.HOLDS, FAILED or VACUOUS
    lhs: object = None
    rhs: object = None
    detail: str = ""


@dataclass
class SliceIdentityReport:
    p: int
    i: int
    j: int
    checks: list[IdentityCheck] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(c.status != FAILED for c in self.checks)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "i": self.i,
            "j": self.j,
            "all_hold": self.all_hold,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "lhs": _side_str(c.lhs),
                    "rhs": _side_str(c.rhs),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _side_str(x) -> str | None:
    """A check side in JSON: exact for numbers, str for witness lists."""
    if x is None:
        return None
    return fraction_str(x) if isinstance(x, (int, Fraction)) else str(x)


def slice_system(system: PairSystem, p: int, i: int, j: int) -> Slice:
    """Build the (p, i, j) slice; empty cells yield an empty slice."""
    if not is_prime(p):
        raise InvalidParameter(f"slice prime {fraction_str(p)} is not prime")
    _integer(i, "i", 0)
    _integer(j, "j", 0)
    pi, pj = _power(p, i, "slice_system"), _power(p, j, "slice_system")
    # the measure identities consult f(p^i), g(p^j); fail fast if undefined
    system.f.prime_power(p, i)
    system.g.prime_power(p, j)
    pm = min(pi, pj)  # p^min(i, j)
    # p was checked above; supports hold positive integers
    v_cell = frozenset(v for v in system.psi.support() if _int_valuation(p, v) == i)
    w_cell = frozenset(w for w in system.theta.support() if _int_valuation(p, w) == j)
    # the source validated its weights: rescaled by p^k they stay positive
    psi_t = WeightFunction._scaled(
        ((v // pi, a) for v, a in system.psi.items() if v in v_cell), pj // pm
    )
    theta_t = WeightFunction._scaled(
        ((w // pj, b) for w, b in system.theta.items() if w in w_cell), pi // pm
    )
    edges = frozenset(
        (v // pi, w // pj)
        for v, w in system.edges
        if v in v_cell and w in w_cell
    )
    tilde = PairSystem(psi_t, theta_t, system.f, system.g, edges)
    return Slice(p, i, j, tilde, v_cell, w_cell)


def _edgewise(name, edges, mismatch) -> IdentityCheck:
    """HOLDS iff mismatch(v, w) is None on every edge, else FAILED with the
    two sides it returns at the first mismatching edge in sorted order."""
    for v, w in sorted(edges):
        sides = mismatch(v, w)
        if sides is not None:
            return IdentityCheck(name, FAILED, *sides, f"at slice edge ({v},{w})")
    return IdentityCheck(name, HOLDS)


def verify_slice_identities(
    source: PairSystem, s: Slice, t: Rational
) -> SliceIdentityReport:
    """Check the slice identities as exact rational equalities.

    (a) mu_{psi~}^f(V~) = p^(j-min) (p^i / f(p^i)) mu_psi^f(V_i)
    (b) mu_{theta~}^g(W~) = p^(i-min) (p^j / g(p^j)) mu_theta^g(W_j)
    (c) mu(E~) = (p^(i+j) / (f(p^i) g(p^j))) p^|i-j| mu(E cap (V_i x W_j))
    (d) D_tilde(v,w) = D(p^i v, p^j w) on every slice edge
    (e) omega_t(v,w) = omega_t(p^i v, p^j w) - [i != j and p <= t]
    (f) prime support of the slice inside (source prime support) minus {p}

    Identities whose scaling factor divides by f(p^i) = 0 or g(p^j) = 0 are
    reported as vacuous rather than failed.

    The measures come from the integer mass views (PairSystem.masses): the
    left sides of (a), (b) and (c) from the slice's own view, built from its
    rescaled weights, and the right sides from the source's view summed
    over V_i, W_j and E cap (V_i x W_j), so each side is still computed
    independently.  (d) compares the two D-ratios as integer pairs by
    cross-multiplication and builds their d_value Fractions only for the
    report of a mismatch; (e) floors t once.  (f) compares the two systems'
    PairSystem.primes.
    """
    t_floor = _t_floor(t)
    p, i, j = s.p, s.i, s.j
    pi, pj = _power(p, i, "verify_slice_identities"), _power(p, j, "verify_slice_identities")
    pm = min(pi, pj)  # p^min(i, j)
    fpi = source.f.prime_power(p, i)
    gpj = source.g.prime_power(p, j)
    report = SliceIdentityReport(p, i, j)

    # (a), (b): the slice's own masses against the source's masses on the
    # cells V_i and W_j, each read from its system's integer view
    V_t, W_t = s.tilde.masses
    V, W = source.masses
    sides = (
        ("a:psi-measure", V_t, fpi, pj // pm * pi, V, s.v_cell, "zero multiplier f(p^i)"),
        ("b:theta-measure", W_t, gpj, pi // pm * pj, W, s.w_cell, "zero multiplier g(p^j)"),
    )
    for name, tilde_side, mult, scale, side, cell, why in sides:
        lhs = tilde_side.measure()
        if mult == 0:
            report.checks.append(IdentityCheck(name, VACUOUS, lhs, None, why))
            continue
        cell_num = sum(side.num.get(x, 0) for x in cell)
        rhs = Fraction(scale * mult.denominator * cell_num, mult.numerator * side.den)
        report.checks.append(IdentityCheck(name, HOLDS if lhs == rhs else FAILED, lhs, rhs))

    # (c) pair-measure identity
    lhs_c = mu_pairs(s.tilde)
    if fpi == 0 or gpj == 0:
        report.checks.append(
            IdentityCheck("c:pair-measure", VACUOUS, lhs_c, None, "zero multiplier f(p^i) g(p^j)")
        )
    else:
        cell_edges = (
            (v, w) for v, w in source.edges if v in s.v_cell and w in s.w_cell
        )
        rhs_c = Fraction(
            pi * pj * (max(pi, pj) // pm) * fpi.denominator * gpj.denominator
            * edge_mass(V, W, cell_edges),
            fpi.numerator * gpj.numerator * V.den * W.den,
        )
        ok = lhs_c == rhs_c
        report.checks.append(
            IdentityCheck("c:pair-measure", HOLDS if ok else FAILED, lhs_c, rhs_c)
        )

    # (d) quality preserved edgewise, D-ratios compared by cross-multiplication
    def d_mismatch(v, w):
        ln, ld = _d_ratio(v, w, s.tilde.psi, s.tilde.theta)
        rn, rd = _d_ratio(pi * v, pj * w, source.psi, source.theta)
        return None if ln * rd == rn * ld else (Fraction(ln, ld), Fraction(rn, rd))

    report.checks.append(_edgewise("d:quality", s.tilde.edges, d_mismatch))

    # (e) omega bookkeeping: drop of exactly [i != j and p <= t]
    drop = slice_k_shift(s, t_floor)

    def e_mismatch(v, w):
        lhs, rhs = _omega_t(v, w, t_floor), _omega_t(pi * v, pj * w, t_floor) - drop
        return None if lhs == rhs else (lhs, rhs)

    report.checks.append(_edgewise("e:omega-shift", s.tilde.edges, e_mismatch))

    # (f) slice prime support avoids p and stays inside the source support
    ps_slice = set(s.tilde.primes)
    allowed = set(source.primes) - {p}
    if ps_slice <= allowed:
        report.checks.append(IdentityCheck("f:prime-support", HOLDS))
    else:
        extra = sorted(ps_slice - allowed)
        report.checks.append(
            IdentityCheck("f:prime-support", FAILED, extra, sorted(allowed)[:8])
        )
    return report


def slice_k_shift(s: Slice, t: Rational) -> int:
    """The K decrement carried by this slice: 1 iff i != j and p <= t."""
    return 1 if (s.p <= _t_floor(t) and s.i != s.j) else 0
