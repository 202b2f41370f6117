"""Weight functions, multiplicative functions, and exact measures."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircert.arith import factorize
from paircert.errors import IncompleteDefinition, InvalidParameter
from paircert.model import (
    MultiplicativeFunction,
    PairSystem,
    TOTIENT,
    WeightFunction,
    mu_pairs,
    mu_point,
    mu_set,
    validate_multiplicative,
    vertex_masses,
)


class TestWeightFunction:
    def test_zero_values_mean_absent(self):
        w = WeightFunction({2: F(1, 2), 3: 0})
        assert w.support() == (2,)
        assert w.value(3) == 0

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameter):
            WeightFunction({2: F(-1, 2)})

    def test_nonpositive_key_rejected(self):
        with pytest.raises(InvalidParameter):
            WeightFunction({0: F(1)})

    def test_support_is_key_set(self):
        w = WeightFunction({6: F(1, 6), 2: F(1, 2)})
        assert w.support() == (2, 6)
        assert 6 in w and 5 not in w

    def test_json_round_trip(self):
        w = WeightFunction({10: F(3, 7), 2: F(1, 2)})
        assert WeightFunction.from_json(w.to_json()) == w


class TestMultiplicative:
    def test_totient_accepts(self):
        res = validate_multiplicative(TOTIENT, [(2, 1), (2, 2), (3, 1)])
        assert res.accepted

    def test_zero_function_accepts(self):
        f = MultiplicativeFunction({(2, 1): 0, (2, 2): 0, (3, 1): 0})
        assert validate_multiplicative(f, [(2, 1), (2, 2), (3, 1)]).accepted

    def test_overweight_rejects(self):
        f = MultiplicativeFunction({(2, 1): 2})
        res = validate_multiplicative(f, [(2, 1)])
        assert not res.accepted
        assert res.failures[0][:2] == (2, 1) and res.failures[0][2] == 3

    def test_totient_prime_powers(self):
        assert TOTIENT.prime_power(2, 3) == 4
        assert TOTIENT(1) == 1
        assert TOTIENT(12) == 4

    def test_missing_entry_raises(self):
        f = MultiplicativeFunction({(2, 1): 1})
        with pytest.raises(IncompleteDefinition):
            f(6)

    def test_multiplicativity_against_brute_force(self):
        rng = random.Random(2)
        primes = [2, 3, 5, 7, 11]
        table = {}
        for p in primes:
            for a in range(1, 5):
                table[(p, a)] = F(rng.randint(0, p**a - p ** (a - 1)))
        f = MultiplicativeFunction(table)
        for _ in range(1000):
            n = 1
            expected = F(1)
            for p in rng.sample(primes, rng.randint(0, 3)):
                a = rng.randint(1, 4)
                if n * p**a > 10**7:  # stay inside the factorization cap
                    continue
                n *= p**a
                expected *= table[(p, a)]
            assert f(n) == expected

    def test_json_round_trip(self):
        assert MultiplicativeFunction.from_json("totient") == TOTIENT
        f = MultiplicativeFunction({(2, 1): F(1, 3), (3, 2): F(5)})
        assert MultiplicativeFunction.from_json(f.to_json()) == f


class TestMeasures:
    def test_mu_point_example(self):
        psi = WeightFunction({6: F(1, 2)})
        assert mu_point(TOTIENT, psi, 6) == F(1, 6)

    def test_mu_point_off_support(self):
        psi = WeightFunction({6: F(1, 2)})
        assert mu_point(TOTIENT, psi, 5) == 0

    def test_mu_point_zero_function(self):
        f0 = MultiplicativeFunction({(2, 1): 0})
        psi = WeightFunction({2: F(1, 2)})
        assert mu_point(f0, psi, 2) == 0

    def test_mu_set_example(self):
        psi = WeightFunction({2: F(1, 2), 3: F(1, 3)})
        assert mu_set(TOTIENT, psi, [2, 3]) == F(17, 36)

    def test_mu_set_empty_and_singleton(self):
        psi = WeightFunction({2: F(1, 2)})
        assert mu_set(TOTIENT, psi, []) == 0
        assert mu_set(TOTIENT, psi, [2]) == mu_point(TOTIENT, psi, 2)

    def test_mu_pairs_empty_and_singleton(self):
        psi = WeightFunction({2: F(1, 2)})
        theta = WeightFunction({3: F(1, 3)})
        sys_ = PairSystem(psi, theta, TOTIENT, TOTIENT, frozenset())
        assert mu_pairs(sys_) == 0
        assert mu_pairs(sys_, {(2, 3)}) == mu_point(TOTIENT, psi, 2) * mu_point(
            TOTIENT, theta, 3
        )

    def test_full_product_factorizes(self):
        rng = random.Random(4)
        for _ in range(30):
            vs = rng.sample(range(1, 60), rng.randint(1, 8))
            ws = rng.sample(range(1, 60), rng.randint(1, 8))
            psi = WeightFunction({v: F(rng.randint(1, 9), 10) for v in vs})
            theta = WeightFunction({w: F(rng.randint(1, 9), 10) for w in ws})
            sys_ = PairSystem(psi, theta, TOTIENT, TOTIENT, frozenset())
            full = {(v, w) for v in vs for w in ws}
            lhs = mu_pairs(sys_, full)
            rhs = mu_set(TOTIENT, psi, vs) * mu_set(TOTIENT, theta, ws)
            assert lhs == rhs

    def test_product_bound_for_subsets(self):
        rng = random.Random(9)
        for _ in range(30):
            vs = rng.sample(range(1, 80), 6)
            ws = rng.sample(range(1, 80), 6)
            psi = WeightFunction({v: F(rng.randint(1, 9), 10) for v in vs})
            theta = WeightFunction({w: F(rng.randint(1, 9), 10) for w in ws})
            sys_ = PairSystem(psi, theta, TOTIENT, TOTIENT, frozenset())
            full = [(v, w) for v in vs for w in ws]
            sub = frozenset(rng.sample(full, rng.randint(0, len(full))))
            bound = mu_set(TOTIENT, psi, vs) * mu_set(TOTIENT, theta, ws)
            assert mu_pairs(sys_, sub) <= bound

    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=0, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_additivity_over_partitions(self, elems):
        elems = sorted(set(elems))
        psi = WeightFunction({v: F(1, v) for v in elems})
        half = elems[::2]
        other = elems[1::2]
        total = mu_set(TOTIENT, psi, elems)
        assert total == mu_set(TOTIENT, psi, half) + mu_set(TOTIENT, psi, other)

    def test_vertex_masses_match_mu_point(self):
        rng = random.Random(12)
        f0 = MultiplicativeFunction({(2, 1): 0, (3, 1): F(1), (5, 1): F(3)})
        for f in (TOTIENT, f0):
            vs = rng.sample([1, 2, 3, 5, 6, 10, 15, 30], 5)
            psi = WeightFunction({v: F(rng.randint(1, 9), rng.randint(1, 40)) for v in vs})
            theta = WeightFunction({9: F(1, 9), 25: F(2, 7)})
            V, W = vertex_masses(PairSystem(psi, theta, f, TOTIENT, frozenset()))
            for side, weight, g in ((V, psi, f), (W, theta, TOTIENT)):
                masses = {x: mu_point(g, weight, x) for x in weight.support()}
                assert {x: F(n, side.den) for x, n in side.num.items()} == masses
                assert side.den == math.lcm(*(m.denominator for m in masses.values()))
                assert side.nu == {x: dict(factorize(x)) for x in weight.support()}
            assert V.exponents(12) == {2: 2, 3: 1}


class TestPairSystem:
    def test_edges_must_live_in_supports(self):
        psi = WeightFunction({2: F(1, 2)})
        theta = WeightFunction({3: F(1, 3)})
        with pytest.raises(InvalidParameter):
            PairSystem(psi, theta, TOTIENT, TOTIENT, {(2, 5)})

    def test_canonical_edges_sorted(self):
        psi = WeightFunction({2: F(1, 2), 4: F(1, 8)})
        theta = WeightFunction({3: F(1, 3), 9: F(1, 81)})
        sys_ = PairSystem(psi, theta, TOTIENT, TOTIENT, {(4, 3), (2, 9), (2, 3)})
        assert sys_.canonical_edges() == [(2, 3), (2, 9), (4, 3)]
