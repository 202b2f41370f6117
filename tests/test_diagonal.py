"""Diagonal measures, center search, concentration, and peeling."""

import random
from fractions import Fraction as F

import pytest

from paircert.diagonal import (
    CenterResult,
    DiagonalMeasure,
    bilinear_check,
    concentrate,
    decay_hypothesis_report,
    diagonal_measure,
    find_center,
    peel,
    property_two_holds,
    property_two_report,
)
from paircert.errors import DegenerateMeasure, InvalidParameter
from paircert.model import MultiplicativeFunction, PairSystem, TOTIENT, WeightFunction, mu_pairs, mu_set
from paircert.quality import HOLDS, VIOLATED, build_edge_set
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
            idx = dm.support_indices()
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
