"""Weight functions, multiplicative functions, and exact measures."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircert.arith import factorize
from paircert.errors import IncompleteDefinition, InvalidParameter, ResourceLimit
from paircert.model import (
    MultiplicativeFunction,
    PairSystem,
    TOTIENT,
    WeightFunction,
    _f_ratio,
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

    @pytest.mark.parametrize("zero", [0, F(0)], ids=["int", "fraction"])
    def test_zero_value_of_either_type_means_absent(self, zero):
        w = WeightFunction({2: F(1, 2), 3: zero})
        assert w.support() == (2,) and 3 not in w

    @pytest.mark.parametrize("value", [-1, F(-1, 2)], ids=["int", "fraction"])
    @pytest.mark.parametrize(
        "build",
        [lambda v: WeightFunction({2: v}), lambda v: MultiplicativeFunction({(2, 1): v})],
        ids=["weight", "multiplicative"],
    )
    def test_negative_value_of_either_type_rejected(self, build, value):
        with pytest.raises(InvalidParameter, match="negative"):
            build(value)

    def test_fraction_value_is_stored_as_given(self):
        x = F(2, 3)
        assert WeightFunction({5: x}).value(5) is x
        assert MultiplicativeFunction({(5, 1): x}).prime_power(5, 1) is x

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

    @pytest.mark.parametrize("table", [{"2": F(1, 2)}, {2.0: F(1, 2)}, {True: F(1)}])
    def test_non_int_key_rejected(self, table):
        with pytest.raises(InvalidParameter, match="is not an integer"):
            WeightFunction(table)

    @pytest.mark.parametrize("value", [0.5, True])
    def test_float_or_bool_weight_rejected(self, value):
        with pytest.raises(InvalidParameter, match="not an exact rational"):
            WeightFunction({2: value})

    @pytest.mark.parametrize("key", ["1_0", " 3 ", "+4", "03", "-0", "x", ""])
    def test_non_canonical_json_key_rejected(self, key):
        with pytest.raises(InvalidParameter, match="is not an integer numeral"):
            WeightFunction.from_json({key: "1/2"})


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

    def test_totient_ratio_is_phi(self):
        """_f_ratio reads the totient as integers: (phi(x), 1) for x <= 10^4,
        phi from a sieve of its own."""
        n = 10**4
        phi = list(range(n + 1))
        for p in range(2, n + 1):
            if phi[p] == p:  # p is prime
                for m in range(p, n + 1, p):
                    phi[m] -= phi[m] // p
        for x in range(1, n + 1):
            assert _f_ratio(TOTIENT, factorize(x)) == (phi[x], 1), x

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

    @pytest.mark.parametrize("key", ["2^1_0", "2^ 1", "+2^1", "02^1", "2^x"])
    def test_non_canonical_json_key_rejected(self, key):
        with pytest.raises(InvalidParameter, match="is not an integer numeral"):
            MultiplicativeFunction.from_json({key: "1"})

    @pytest.mark.parametrize(
        "table", [{(2, 1): 1.0}, {(2, 1): False}, {("2", 1): 1}, {(2, 1.0): 1}]
    )
    def test_malformed_table_rejected(self, table):
        with pytest.raises(InvalidParameter):
            MultiplicativeFunction(table)

    @pytest.mark.parametrize("p", [4, -3, 1, 0, 91, 10**6])
    def test_non_prime_base_rejected(self, p):
        with pytest.raises(InvalidParameter, match=f"base {p} is not prime"):
            MultiplicativeFunction({(2, 1): 1, (p, 1): 2})

    @pytest.mark.parametrize("key", ["4^1", "-3^1", "1^2"])
    def test_non_prime_json_base_rejected(self, key):
        with pytest.raises(InvalidParameter, match="is not prime"):
            MultiplicativeFunction.from_json({"2^1": "1", key: "1"})

    def test_base_past_the_sieve_cap_is_a_resource_limit(self, monkeypatch):
        # no cached prime reaches sqrt(2^127 - 1), a prime
        monkeypatch.setenv("PAIRCERT_SIEVE_CAP", "100")
        with pytest.raises(ResourceLimit):
            MultiplicativeFunction({(2**127 - 1, 1): 1})


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
