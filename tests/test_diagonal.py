"""Diagonal measures, center search, concentration, and peeling."""

import random
from fractions import Fraction as F
from itertools import product

import pytest

from paircert.diagonal import (
    CenterResult,
    DiagonalMeasure,
    _center_scan,
    _edge_cells,
    _with_origin,
    bilinear_check,
    concentrate,
    decay_hypothesis_report,
    diagonal_measure,
    find_center,
    peel,
    property_two_holds,
    property_two_report,
)
from paircert import arith
from paircert.arith import Interval, const, exp_of, interval_eval
from paircert.errors import DegenerateMeasure, InvalidParameter, InvariantBroken, PaircertError
from paircert.model import MultiplicativeFunction, PairSystem, TOTIENT, WeightFunction, mu_pairs, mu_set
from paircert.quality import (
    DEFAULT_PRECISION_CAP,
    FAILED,
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    build_edge_set,
    restrict,
)
from conftest import make_corpus, small_params


def _make_dm(cells, alpha, beta, p=2, total=F(1)):
    return DiagonalMeasure(
        p,
        {k: F(v) for k, v in cells.items()},
        {k: F(v) for k, v in alpha.items()},
        {k: F(v) for k, v in beta.items()},
        F(total),
    )


class TestDiagonalMeasure:
    def test_single_valuation_pair(self):
        psi = WeightFunction({3: F(1, 3)})
        theta = WeightFunction({9: F(1, 9)})
        sys_ = PairSystem(psi, theta, TOTIENT, TOTIENT, {(3, 9)})
        dm = diagonal_measure(sys_, sys_.edges, 3)
        assert dm.cells == {(1, 2): F(1)}
        assert dm.alpha == {1: F(1)} and dm.beta == {2: F(1)}

    def test_coprime_prime_concentrates_at_origin(self):
        psi = WeightFunction({3: F(1, 3), 9: F(1, 9)})
        E = {(3, 3), (9, 9), (3, 9)}
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, E)
        dm = diagonal_measure(sys_, sys_.edges, 7)
        assert dm.cells == {(0, 0): F(1)}

    def test_equal_mass_split(self):
        psi = WeightFunction({1: F(1), 2: F(2)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, {(1, 1), (2, 2)})
        dm = diagonal_measure(sys_, sys_.edges, 2)
        assert dm.cells == {(0, 0): F(1, 2), (1, 1): F(1, 2)}

    def test_degenerate_rejected(self):
        psi = WeightFunction({2: F(1, 2)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, frozenset())
        with pytest.raises(DegenerateMeasure):
            diagonal_measure(sys_, sys_.edges, 2)

    def test_sums_exact_on_corpus(self):
        for system, _ in make_corpus(71, 20):
            if mu_pairs(system) == 0:
                continue
            for p in (2, 3, 5):
                dm = diagonal_measure(system, system.edges, p)
                assert sum(dm.cells.values()) == 1
                assert sum(dm.alpha.values()) == 1
                assert sum(dm.beta.values()) == 1

    def test_invariant_enforced(self):
        with pytest.raises(InvalidParameter):
            _make_dm({(0, 0): F(1, 2)}, {0: 1}, {0: 1})


class TestFindCenter:
    def test_point_mass_on_diagonal(self):
        dm = _make_dm({(3, 3): 1}, {3: 1}, {3: 1})
        c = find_center(dm)
        assert c == CenterResult(3, F(0))

    def test_two_diagonal_atoms(self):
        dm = _make_dm({(0, 0): F(1, 2), (1, 1): F(1, 2)}, {0: F(1, 2), 1: F(1, 2)}, {0: F(1, 2), 1: F(1, 2)})
        c = find_center(dm)
        assert c.k == 0 and c.tail_mass == F(1, 2)

    def test_cross_within_distance_one(self):
        k0 = 4
        cells = {
            (k0, k0): F(1, 5),
            (k0 + 1, k0): F(1, 5),
            (k0 - 1, k0): F(1, 5),
            (k0, k0 + 1): F(1, 5),
            (k0, k0 - 1): F(1, 5),
        }
        alpha = {k0 - 1: F(1, 5), k0: F(3, 5), k0 + 1: F(1, 5)}
        dm = _make_dm(cells, alpha, alpha, p=3)
        c = find_center(dm)
        assert c.k == k0 and c.tail_mass == 0

    def test_tie_breaks_to_smallest_even_negative(self):
        dm = _make_dm({(2, 0): 1}, {2: 1}, {0: 1})
        assert find_center(dm).k == -1

    def test_optimality_against_extended_scan(self, rng):
        for _ in range(60):
            n = rng.randint(1, 6)
            raw = [
                ((rng.randint(0, 6), rng.randint(0, 6)), F(rng.randint(1, 9)))
                for _ in range(n)
            ]
            cells: dict = {}
            for key, mass in raw:
                cells[key] = cells.get(key, F(0)) + mass
            total = sum(cells.values())
            cells = {k: v / total for k, v in cells.items()}
            alpha = {0: F(1)}
            dm = _make_dm(cells, alpha, alpha, p=5)
            c = find_center(dm)
            idx = sorted({i for i, _ in dm.cells} | {j for _, j in dm.cells})
            for k in range(min(idx) - 6, max(idx) + 7):
                tail = sum(
                    (m for (i, j), m in cells.items() if abs(i - k) + abs(j - k) >= 2),
                    F(0),
                )
                assert tail >= c.tail_mass
                # ties break to the smallest k inside the scan window
                if tail == c.tail_mass and min(idx) - 1 <= k <= max(idx) + 1:
                    assert c.k <= k


class TestBilinear:
    def test_origin_cell_with_full_marginals(self):
        # p = 101 > p0: the leading factor is 1 and the bound is exactly 1
        dm = _make_dm({(0, 0): 1}, {0: 1}, {0: 1}, p=101)
        checks = bilinear_check(dm, small_params(p0=100))
        assert len(checks) == 1 and checks[0].verdict == HOLDS

    def test_off_diagonal_violation(self):
        dm = _make_dm({(0, 1): 1}, {0: 1}, {1: 1}, p=2)
        checks = bilinear_check(dm, small_params(C=F(1, 10)))
        assert checks[0].verdict == VIOLATED

    def test_zero_marginal_cell(self):
        # cell with alpha mass but zero beta mass at that index is impossible
        # from real systems; synthesize directly
        dm = _make_dm({(0, 0): F(1)}, {0: 1}, {0: 1}, p=3)
        object.__setattr__(dm, "beta", {1: F(1)})
        checks = bilinear_check(dm, small_params())
        assert checks[0].verdict == VIOLATED


class TestDecay:
    def test_lambda_range_exact(self):
        dm = _make_dm({(0, 0): 1}, {0: 1}, {0: 1}, p=2)
        rep = decay_hypothesis_report(dm, small_params(epsilon=F(2, 5)))
        # p = 2, eps = 2/5: lambda = 2^(-1/10) = 1 - c2 exactly
        assert rep.lambda_in_range == HOLDS
        rep2 = decay_hypothesis_report(dm, small_params(epsilon=F(1, 10)))
        assert rep2.lambda_in_range == HOLDS

    def test_tail_ratio_zero_when_concentrated(self):
        dm = _make_dm({(2, 2): 1}, {2: 1}, {2: 1}, p=3)
        rep = decay_hypothesis_report(dm, small_params())
        assert rep.center.tail_mass == 0
        assert rep.tail_ratio.is_point() and rep.tail_ratio.contains(0)

    def test_reports_on_corpus(self):
        for system, params in make_corpus(73, 6):
            if mu_pairs(system) == 0:
                continue
            dm = diagonal_measure(system, system.edges, 2)
            rep = decay_hypothesis_report(dm, params)
            assert rep.c1_lower_ok in (HOLDS, VIOLATED, "inconclusive")
            assert len(rep.cell_checks) == len(dm.cells)


def _ref_c1_lower_ok(p, params):
    """c1 >= c2 / (1 + (2 C3 - 1) lambda) decided by precision doubling: the
    interval loop decay_hypothesis_report once ran, verbatim but for
    Interval.scale, certified_ge and certified_lt written out."""
    eps = params.epsilon
    below_p0 = p <= params.p0
    prec = params.precision_bits
    c1_verdict = INCONCLUSIVE
    while True:
        w = prec + 16
        lam = interval_eval(F(1), [(const(p), eps - F(1, 2))], w)
        c3 = exp_of(params.C).enclosure(w)
        c2 = Interval.from_fraction(1, w).sub(
            interval_eval(F(1), [(const(2), F(-1, 10))], w), w
        )
        denom = Interval.from_fraction(1, w).add(
            c3.mul(Interval.from_fraction(2, w + 4), w).sub(Interval.from_fraction(1, w), w).mul(lam, w), w
        )
        rhs = c2.div(denom, w)
        if below_p0:
            c1 = interval_eval(F(1), [(const(100) * exp_of(params.C), F(-1))], w)
        else:
            c1 = Interval.from_fraction(1, w)
        if arith._dy_cmp(c1.lo, rhs.hi) >= 0:
            c1_verdict = HOLDS
            break
        if arith._dy_cmp(c1.hi, rhs.lo) < 0:
            c1_verdict = VIOLATED
            break
        if prec * 2 > DEFAULT_PRECISION_CAP:
            break
        prec *= 2
    return c1_verdict


class TestC1Reference:
    def test_c1_verdict_equals_the_interval_loop(self):
        dm_at = {p: _make_dm({(0, 0): 1}, {0: 1}, {0: 1}, p=p) for p in (1, 2, 3, 97, 101, 1009)}
        seen = set()
        for p, p0, eps, C, bits in product(
            dm_at, (1, 2, 100, 10**6), (F(1, 1000), F(1, 10), F(2, 5)),
            (F(1, 1000), F(1, 2), F(5), F(40)), (16, 256),
        ):
            params = small_params(epsilon=eps, C=C, p0=p0, precision_bits=bits)
            got = decay_hypothesis_report(dm_at[p], params).c1_lower_ok
            assert got == _ref_c1_lower_ok(p, params), (p, p0, eps, C, bits)
            seen.add((p > p0, got))
        assert seen == {(True, HOLDS), (False, VIOLATED)}


class TestConcentrate:
    def test_single_diagonal_edge_keeps_everything(self):
        psi = WeightFunction({12: F(1, 12)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, {(12, 12)})
        res = concentrate(sys_, sys_.edges, small_params())
        assert res.N == 12 and res.edges_star == {(12, 12)}
        assert res.removed_fraction == 0

    def test_spec_example_three_nine(self):
        psi = WeightFunction({3: F(1, 3)})
        theta = WeightFunction({9: F(1, 9)})
        sys_ = PairSystem(psi, theta, TOTIENT, TOTIENT, {(3, 9)})
        res = concentrate(sys_, sys_.edges, small_params())
        assert res.N == 3
        assert res.edges_star == {(3, 9)}

    def test_distance_two_edge_excluded(self):
        psi = WeightFunction({1: F(1), 4: F(1, 100)})
        theta = WeightFunction({1: F(1)})
        sys_ = PairSystem(psi, theta, TOTIENT, TOTIENT, {(1, 1), (4, 1)})
        res = concentrate(sys_, sys_.edges, small_params())
        assert res.N == 1
        assert (4, 1) not in res.edges_star
        assert (1, 1) in res.edges_star

    def test_off_support_edge_is_tested_at_the_center_primes_only(self):
        # 15 lies outside supp(theta), so 3 and 5 are not center primes
        psi = WeightFunction({2: F(1, 2)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, {(2, 2)})
        res = concentrate(sys_, {(2, 2), (2, 15)}, small_params())
        assert res.centers == {2: 1} and res.N == 2
        assert res.edges_star == {(2, 2), (2, 15)}
        assert res.removed_fraction == 0

    def test_off_support_edge_keeps_the_shape_at_every_prime(self):
        # 45 = 3^2 5 lies outside supp(theta), and nu_3(45/N) = 2
        from paircert.resolution import check_structured

        psi = WeightFunction({2: F(1, 2)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, {(2, 2)})
        E = {(2, 2), (2, 45)}
        res = concentrate(sys_, E, small_params())
        assert res.N == 2 and (2, 45) not in res.edges_star
        for e in E:
            assert (e in res.edges_star) == check_structured({e}, res.N)[0]

    def test_mass_conservation(self):
        for system, params in make_corpus(79, 15):
            total = mu_pairs(system)
            if total == 0:
                continue
            res = concentrate(system, system.edges, params)
            kept = mu_pairs(system, res.edges_star)
            dropped = mu_pairs(system, system.edges - res.edges_star)
            assert kept + dropped == total
            assert res.removed_fraction == dropped / total

    def test_retained_edges_satisfy_shape(self):
        from paircert.resolution import check_structured

        for system, params in make_corpus(83, 15):
            if mu_pairs(system) == 0:
                continue
            res = concentrate(system, system.edges, params)
            if res.edges_star:
                ok, _ = check_structured(res.edges_star, res.N)
                assert ok


# concentrate's center scan and E* filter as they were before the one-pass
# forms, kept verbatim as the reference that the current code must match on
# every input: the scan recomputes tail(k) over all cells at each k, and the
# filter keeps a pair when _shape_violation finds no prime.
def _ref_center_scan(cells):
    idx = {i for i, _ in cells} | {j for _, j in cells}

    def tail(k: int) -> int:
        return sum(m for (i, j), m in cells.items() if abs(i - k) + abs(j - k) >= 2)

    k = min(range(min(idx) - 1, max(idx) + 2), key=tail)  # the first minimum
    return k, tail(k)


def _ref_offsets(nu, nu_n):
    out = {p: e - nu_n.get(p, 0) for p, e in nu.items()}
    out.update((p, -k) for p, k in nu_n.items() if p not in nu)
    return {p: d for p, d in out.items() if d}


def _ref_shape_violation(off_v, off_w):
    bad = (
        p
        for p in off_v.keys() | off_w.keys()
        if abs(off_v.get(p, 0)) + abs(off_w.get(p, 0)) > 1
    )
    return min(bad, default=None)


def _ref_star(system, E, centers):
    V, W = system.masses
    nu_n = {p: k for p, k in centers.items() if k}
    vs, ws = restrict(E)
    off_v = {v: _ref_offsets(V.exponents(v), nu_n) for v in vs}
    off_w = {w: _ref_offsets(W.exponents(w), nu_n) for w in ws}
    return frozenset(
        (v, w) for v, w in E if _ref_shape_violation(off_v[v], off_w[w]) is None
    )


def _cell_grid(rng):
    """Seeded cell maps: ties between two k, one cell, only cells with
    |i - j| = 1, only cells with |i - j| >= 2, and masses past 2^64."""
    big = 1 << 64
    grid = []
    for _ in range(40):
        m = rng.randint(1, 9)
        a, b = sorted(rng.sample(range(-2, 8), 2))
        grid.append({(a, a): m, (b, b): m})  # a tie between a and b
        grid.append({(a, a + 1): m})  # a tie between a and a + 1
        grid.append({(b, b): m, (a, a + 1): m})  # a tie between a and b
        grid.append({(rng.randint(-2, 8), rng.randint(-2, 8)): rng.randint(1, 9)})
        grid.append({(i, i + rng.choice((-1, 1))): rng.randint(1, big) for i in range(a, b + 1)})
        grid.append({(i, i + rng.choice((-3, -2, 2, 5))): rng.randint(1, 9) for i in range(a, b + 1)})
        grid.append({(rng.randint(0, 6), rng.randint(0, 6)): rng.randint(big, big << 20) for _ in range(6)})
        tied = rng.randint(big, big << 8)
        grid.append({(a, a): tied, (b, b + 1): tied, (b + 3, b): rng.randint(1, big)})
    return grid


# the center N = 2^3 3^3 5^2 of a one-vertex system with all its mass on (N, N)
_N_EXP = {2: 3, 3: 3, 5: 2}
_SHAPE_PRIMES = (2, 3, 5, 7, 11)


def _vertex(off):
    """N prod p^d over the offsets d = nu_p(x/N) in off."""
    x = 1
    for p in _SHAPE_PRIMES:
        x *= p ** (_N_EXP.get(p, 0) + off.get(p, 0))
    return x


def _offset_grid(rng):
    """Seeded (category, off_v, off_w) triples: |d| >= 2 on one side, one
    shared prime, disjoint primes, and empty offsets."""

    def units(primes):  # a -1 needs p | N
        return {p: rng.choice((-1, 1)) if p in _N_EXP else 1 for p in primes}

    def low(p):
        return -_N_EXP.get(p, 0)

    out = []
    for _ in range(60):
        primes = rng.sample(_SHAPE_PRIMES, rng.randint(1, 4))
        big = units(primes)
        p = rng.choice(primes)
        big[p] = rng.choice([d for d in (-3, -2, 2, 3) if d >= low(p)])
        other = units(rng.sample(_SHAPE_PRIMES, rng.randint(0, 3)))
        out.append(("wide", big, other) if rng.random() < 0.5 else ("wide", other, big))
        shared = rng.choice(_SHAPE_PRIMES)
        rest = [q for q in _SHAPE_PRIMES if q != shared]
        a, b = units([shared] + rng.sample(rest, 1)), units([shared] + rng.sample(rest, 1))
        out.append(("shared", a, b))
        split = rng.sample(_SHAPE_PRIMES, rng.randint(1, 5))
        cut = rng.randint(0, len(split))
        out.append(("disjoint", units(split[:cut]), units(split[cut:])))
        out.append(("empty", {}, units(rng.sample(_SHAPE_PRIMES, rng.randint(0, 2)))))
        out.append(("empty", units(rng.sample(_SHAPE_PRIMES, rng.randint(0, 2))), {}))
    out.append(("empty", {}, {}))
    return out


class TestConcentrateReference:
    """_center_scan and concentrate's E* filter against the verbatim
    references above, on seeded grids."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_center_scan_matches_the_reference(self, seed):
        for cells in _cell_grid(random.Random(seed)):
            assert _center_scan(cells) == _ref_center_scan(cells), cells

    def test_center_scan_breaks_ties_to_the_smallest_k(self):
        assert _center_scan({(0, 0): 5, (3, 3): 5}) == (0, 5)
        assert _center_scan({(1, 2): 1 << 70}) == (1, 0)
        assert _center_scan({(4, 0): 7}) == (-1, 7)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_star_filter_matches_the_reference_on_offset_pairs(self, seed):
        N = _vertex({})
        psi = WeightFunction({N: F(1)})
        system = PairSystem(psi, psi, TOTIENT, TOTIENT, {(N, N)})
        grid = _offset_grid(random.Random(seed))
        # every other pair lies off the supports, so it has no mass and
        # leaves the center where the pair (N, N) puts it
        E = {(N, N)} | {(_vertex(a), _vertex(b)) for _, a, b in grid}
        res = concentrate(system, E, small_params())
        assert res.centers == _N_EXP and res.N == N
        assert res.edges_star == _ref_star(system, frozenset(E), res.centers)
        kept = {"wide": False, "shared": False, "disjoint": True, "empty": True}
        for category, a, b in grid:
            assert ((_vertex(a), _vertex(b)) in res.edges_star) is kept[category]

    def test_concentrate_matches_the_reference_on_a_corpus(self):
        compared = 0
        for system, params in make_corpus(97, 30) + make_corpus(98, 30, f_mode="random"):
            if mu_pairs(system) == 0:
                continue
            E = system.edges
            res = concentrate(system, E, params)
            total, cells = _edge_cells(*system.masses, E)
            want = {
                p: max(0, _ref_center_scan(_with_origin(cells.get(p, {}), total, (0, 0)))[0])
                for p in system.primes
            }
            assert res.centers == want
            assert res.edges_star == _ref_star(system, E, res.centers)
            compared += 1
        assert compared >= 20


class TestPeel:
    def test_fixed_point_returned_unchanged(self):
        # complete bipartite sets always satisfy the proportionality property
        psi = WeightFunction({2: F(1, 2), 3: F(1, 3)})
        theta = WeightFunction({5: F(1, 5)})
        E = frozenset({(2, 5), (3, 5)})
        sys_ = PairSystem(psi, theta, TOTIENT, TOTIENT, E)
        res = peel(sys_, E, small_params())
        assert res.edges == E and res.trace == []

    def test_single_edge_satisfies(self):
        psi = WeightFunction({6: F(1, 6)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, {(6, 6)})
        res = peel(sys_, sys_.edges, small_params())
        assert res.edges == {(6, 6)} and res.steps == 0

    def test_starved_vertex_peels_first(self):
        psi = WeightFunction({2: F(1, 2), 3: F(1, 3)})
        theta = WeightFunction({5: F(1, 5000), 7: F(1, 7)})
        E = frozenset({(2, 5), (2, 7), (3, 5)})
        sys_ = PairSystem(psi, theta, TOTIENT, TOTIENT, E)
        params = small_params()
        # hand oracle: v = 3 violates its degree inequality, v = 2 does not
        mu_e = mu_pairs(sys_, E)
        mu_v = mu_set(TOTIENT, psi, [2, 3])
        thr = (1 / params.q_prime) * mu_e / mu_v
        assert mu_set(TOTIENT, theta, [5]) < thr
        assert mu_set(TOTIENT, theta, [5, 7]) >= thr
        res = peel(sys_, E, params)
        assert res.trace[0].side == "v" and res.trace[0].vertex == 3
        assert res.edges == {(2, 5), (2, 7)}
        assert property_two_holds(sys_, res.edges, params)

    def test_empty_input(self):
        psi = WeightFunction({2: F(1, 2)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, frozenset())
        res = peel(sys_, frozenset(), small_params())
        assert res.edges == frozenset() and res.trace == []

    def test_contract_on_corpus(self):
        checked = 0
        for system, params in make_corpus(89, 40):
            E = system.edges
            if not E:
                continue
            res = peel(system, E, params)
            vs = {v for v, _ in E}
            ws = {w for _, w in E}
            assert res.steps <= len(vs) + len(ws)
            assert property_two_holds(system, res.edges, params)
            inv_qp = 1 / params.q_prime
            a, b = inv_qp.numerator, inv_qp.denominator
            for st in res.trace:
                if st.cert_verdict == "vacuous":
                    assert st.mu_side_after == st.mu_side_before
                    continue
                assert st.cert_verdict == HOLDS
                # independent exact oracle: (mu_new/mu_old)^b > ratio^a
                lhs = (st.mu_edges_after / st.mu_edges_before) ** b
                rhs = (st.mu_side_after / st.mu_side_before) ** a
                assert lhs > rhs
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize(
        "comparison, verdict",
        [(VIOLATED, HOLDS), (HOLDS, FAILED), (INCONCLUSIVE, INCONCLUSIVE)],
    )
    def test_drop_verdict_negates_the_comparison(self, monkeypatch, comparison, verdict):
        """A step certifies mu_after > rhs, so certify_le(mu_after, ...)
        answering VIOLATED means the drop holds, and HOLDS means it failed."""
        import paircert.diagonal as diagonal

        real = diagonal.certify_le
        monkeypatch.setattr(
            diagonal, "certify_le", lambda *args: (comparison, *real(*args)[1:])
        )
        system, params = make_corpus(89, 2)[1]
        trace = peel(system, system.edges, params).trace
        assert trace and all(0 < st.mu_side_after < st.mu_side_before for st in trace)
        assert {st.cert_verdict for st in trace} == {verdict}

    def test_zero_mass_vertex_steps_are_vacuous(self):
        f = MultiplicativeFunction(
            {(2, 1): 0, (3, 1): F(2), (5, 1): F(4), (7, 1): F(6)}
        )
        psi = WeightFunction({3: F(1, 3), 2: F(1, 2)})
        theta = WeightFunction({5: F(1, 5000), 7: F(1, 7)})
        E = frozenset({(3, 5), (3, 7), (2, 5)})
        sys_ = PairSystem(psi, theta, f, TOTIENT, E)
        res = peel(sys_, E, small_params())
        for st in res.trace:
            if st.mu_side_after == st.mu_side_before:
                assert st.cert_verdict == "vacuous"
        assert property_two_holds(sys_, res.edges, small_params())


def _zero_mass_system():
    """v = 2 carries no mass (f(2) = 0), and its only neighbour w = 5 keeps
    an edge to v = 3: removing v = 2 changes no mass."""
    f = MultiplicativeFunction({(2, 1): 0, (3, 1): F(2), (5, 1): F(4), (7, 1): F(6)})
    psi = WeightFunction({3: F(1, 3), 2: F(1, 2)})
    theta = WeightFunction({5: F(1, 5000), 7: F(1, 7)})
    return PairSystem(psi, theta, f, TOTIENT, {(3, 5), (3, 7), (2, 5)})


def test_peel_step_guard_raises_a_typed_error(monkeypatch):
    """A peel whose maps never lose the removed vertex repeats the same
    vacuous step; one step past the vertex count it raises InvariantBroken,
    a PaircertError that is still a RuntimeError."""
    import paircert.diagonal as diagonal

    pops = []

    class Sticky(dict):
        def pop(self, key):  # hands the entry out but keeps it
            pops.append(key)
            return self[key]

    real = diagonal._neighborhood_masses

    def sticky(sides, E):
        adj, gamma, own, mu_e = real(sides, E)
        return [Sticky(m) for m in adj], [Sticky(m) for m in gamma], own, mu_e

    monkeypatch.setattr(diagonal, "_neighborhood_masses", sticky)
    system = _zero_mass_system()
    with pytest.raises(InvariantBroken, match="step bound") as info:
        peel(system, system.edges, small_params())
    assert isinstance(info.value, RuntimeError) and isinstance(info.value, PaircertError)
    # two pops (adjacency and gamma) per step; 2 + 2 vertices, so 5 steps
    assert pops == [2] * 10


def test_peel_step_emptying_a_side_fails(monkeypatch):
    """A step that takes the last mass off its side (ratio 0) breaks peel's
    invariant.  _below_share never picks such a vertex, since it holds all
    of its side's mass, so gamma own = mu(E) > mu(E) / q'; the test makes
    every vertex with a neighbourhood of positive mass a violator while
    mu(E) > 0.  v = 3 carries all of V's mass (f(2) = 0) and ranks first."""
    import paircert.diagonal as diagonal

    monkeypatch.setattr(diagonal, "_below_share", lambda gamma, own, mu_e, inv_qp: gamma * mu_e > 0)
    f = MultiplicativeFunction({(2, 1): 0, (3, 1): F(2), (5, 1): F(4), (7, 1): F(6)})
    psi = WeightFunction({3: F(1, 3), 2: F(1, 2)})
    theta = WeightFunction({5: F(1, 5000), 7: F(1, 7)})
    system = PairSystem(psi, theta, f, TOTIENT, {(3, 5), (2, 7)})
    with pytest.raises(InvariantBroken, match="last mass off a side"):
        peel(system, system.edges, small_params())


class TestPropertyTwoBoundary:
    """v = 4 has neighbourhood mass exactly its threshold 1/2, and property
    two only fails strictly below it (_below_share's strict <)."""

    psi = WeightFunction({4: F(2, 3), 6: F(1)})
    theta = WeightFunction({1: F(1, 2), 4: F(4, 3), 6: F(3, 2)})
    system = PairSystem(psi, theta, TOTIENT, TOTIENT, {(4, 6), (6, 1), (6, 4)})
    params = small_params(epsilon=F(1, 10), t=F(1), K=F(0))

    def test_the_row_sits_on_the_threshold(self):
        rows = property_two_report(self.system, self.system.edges, self.params)
        assert rows[0] == ("v", 4, F(1, 2), F(1, 2), True)
        assert all(ok for *_, ok in rows)

    def test_property_two_holds_and_peel_takes_no_step(self):
        assert property_two_holds(self.system, self.system.edges, self.params)
        assert peel(self.system, self.system.edges, self.params).steps == 0

    def test_resolution_reports_it_as_met(self):
        from paircert.resolution import resolution_check

        rep = resolution_check(self.system, self.system.edges, 1, self.params)
        assert rep.preconditions["combinatorial"] is True
