"""Quality conditions, edge sets, neighborhoods, and the certified bound."""

import json
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import paircert

from paircert.arith import Dyadic, Interval, const, exp_of, interval_eval
from paircert.diagonal import adjacency
from paircert.errors import InvalidParameter
from paircert.model import MultiplicativeFunction, PairSystem, TOTIENT, WeightFunction, mu_pairs
from paircert.quality import (
    BoundReport,
    DEFAULT_PRECISION_CAP,
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    Params,
    _p_exponent,
    build_edge_set,
    build_edge_set_bruteforce,
    certify_le,
    d_value,
    main_bound_check,
    omega_t,
    prime_support,
    restrict,
    stray_edges,
)
from conftest import make_corpus, small_params


_NEAR_E_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction as F
import mpmath
from paircert.errors import ResourceLimit
from paircert.model import PairSystem, TOTIENT, WeightFunction
from paircert.quality import Params, main_bound_check
k = int(sys.argv[2])
mpmath.mp.prec = k + 64
t = F(int(mpmath.floor(mpmath.e * 2**k)), 2**k)
psi = WeightFunction({3: F(1, 3)})
system = PairSystem(psi, psi, TOTIENT, TOTIENT, {(3, 3)})
params = Params(epsilon=F(1, 4), C=F(10**5), t=t, K=F(0), p0=2, precision_bits=16)
try:
    print(main_bound_check(system, params).verdict)
except ResourceLimit:
    print("ResourceLimit")
"""


class TestParams:
    def test_conjugate_identities_exact(self):
        for eps in (F(1, 10), F(1, 4), F(2, 5), F(3, 1000)):
            p = small_params(epsilon=eps)
            assert 1 / p.q + 1 / p.q_prime == 1
            assert 1 / p.q_prime == F(1, 2) + eps

    def test_epsilon_range(self):
        with pytest.raises(InvalidParameter):
            small_params(epsilon=F(1, 2))
        with pytest.raises(InvalidParameter):
            small_params(epsilon=F(0))

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            small_params(C=F(0))
        with pytest.raises(InvalidParameter):
            small_params(t=F(1, 2))
        with pytest.raises(InvalidParameter):
            small_params(p0=100.5)

    def test_precision_range(self):
        for bits in (15, DEFAULT_PRECISION_CAP + 1):
            with pytest.raises(InvalidParameter):
                small_params(precision_bits=bits)
        for bits in (16, DEFAULT_PRECISION_CAP):
            assert small_params(precision_bits=bits).precision_bits == bits

    def test_json_round_trip(self):
        p = small_params(K=F(7, 2))
        assert Params.from_json(p.to_json()) == p

    @pytest.mark.parametrize(
        "field, value", [("epsilon", 0.1), ("C", True), ("t", 10.0), ("K", False)]
    )
    def test_float_or_bool_rational_rejected(self, field, value):
        with pytest.raises(InvalidParameter, match="is not an exact rational"):
            small_params(**{field: value})
        doc = {**small_params().to_json(), field: value}
        with pytest.raises(InvalidParameter, match="is not an exact rational"):
            Params.from_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"epsilon": "1/x", "C": "1", "t": "10", "K": "0"},
            {"epsilon": "1/4"},
            {"epsilon": "1/4", "C": "1", "t": "10", "K": "0", "k": "1"},
            [1],
        ],
        ids=["bad-rational", "missing-keys", "unknown-key", "not-an-object"],
    )
    def test_from_json_reports_a_malformed_document(self, doc):
        with pytest.raises(InvalidParameter, match="^malformed params: "):
            Params.from_json(doc)


class TestDValue:
    def test_zero_weights(self):
        psi = WeightFunction({})
        assert d_value(3, 4, psi, psi) == 0

    def test_equal_diagonal(self):
        psi = WeightFunction({5: F(2, 7)})
        assert d_value(5, 5, psi, psi) == F(2, 7)

    def test_hand_example(self):
        psi = WeightFunction({6: F(1, 8)})
        theta = WeightFunction({4: F(1, 9)})
        assert d_value(6, 4, psi, theta) == F(1, 3)

    def test_symmetry(self, rng):
        for _ in range(100):
            v = rng.randint(1, 300)
            w = rng.randint(1, 300)
            psi = WeightFunction({v: F(rng.randint(1, 9), 10)})
            theta = WeightFunction({w: F(rng.randint(1, 9), 10)})
            assert d_value(v, w, psi, theta) == d_value(w, v, theta, psi)


class TestOmega:
    def test_equal_arguments(self):
        assert omega_t(12, 12, 100) == 0

    def test_hand_example(self):
        assert omega_t(12, 18, 10) == 2
        assert omega_t(12, 18, 2) == 1

    def test_symmetry(self, rng):
        for _ in range(200):
            v, w = rng.randint(1, 500), rng.randint(1, 500)
            t = rng.choice([1, 2, 7, 50])
            assert omega_t(v, w, t) == omega_t(w, v, t)

    def test_rational_threshold(self):
        # primes <= 5/2 means just p = 2
        assert omega_t(2, 3, F(5, 2)) == 1

    def test_literal_variant_differs_on_shared_prime(self):
        # nu_2(2) = nu_2(2): no defect; but 2 | lcm(2, 2)
        assert omega_t(2, 2, 10) == 0
        assert omega_t(2, 2, 10, literal_lcm=True) == 1

    def test_matches_quotient_definition(self, rng):
        from math import gcd

        from paircert.arith import prime_divisors

        for _ in range(200):
            v, w = rng.randint(1, 400), rng.randint(1, 400)
            g = gcd(v, w)
            z = (v // g) * (w // g)  # vw / gcd^2
            expected = sum(1 for p in prime_divisors(z) if p <= 50)
            assert omega_t(v, w, 50) == expected


class TestEdgeSets:
    def test_hand_example(self):
        psi = WeightFunction({2: F(1, 2), 3: F(1, 3)})
        theta = WeightFunction({2: F(1, 2), 9: F(1, 9)})
        assert build_edge_set(psi, theta, 10, 0) == {(2, 2), (3, 9)}
        assert build_edge_set(psi, theta, 10, 2) == frozenset()

    def test_d_filter_alone(self):
        psi = WeightFunction({2: F(3), 3: F(2)})
        theta = WeightFunction({5: F(4)})
        assert build_edge_set(psi, theta, 10, -1) == frozenset()

    @pytest.mark.parametrize("K", [0, 1])
    def test_t_below_one_rejected(self, K):
        """Rejected for every K, also when no pair reaches the omega test."""
        psi = WeightFunction({2: F(3), 3: F(2)})
        theta = WeightFunction({5: F(4)})
        with pytest.raises(InvalidParameter, match="t must be >= 1"):
            build_edge_set(psi, theta, F(1, 2), K)

    @pytest.mark.parametrize("t, K", [(True, 0), (1.5, 0), (10, 0.5), (10, True)])
    def test_float_or_bool_t_or_k_rejected(self, t, K):
        """Not read as the rational it rounds to: True is not t = 1."""
        psi = WeightFunction({2: F(1, 2), 3: F(1, 3)})
        with pytest.raises(InvalidParameter, match="is not an exact rational"):
            build_edge_set(psi, psi, t, K)
        with pytest.raises(InvalidParameter, match="is not an exact rational"):
            stray_edges(psi, psi, {(2, 2)}, t, K)

    def test_monotone_in_k_and_t(self):
        for system, params in make_corpus(101, 12):
            base = build_edge_set(system.psi, system.theta, params.t, params.K)
            tighter = build_edge_set(system.psi, system.theta, params.t, params.K + 1)
            assert tighter <= base
            smaller_t = build_edge_set(
                system.psi, system.theta, max(F(1), params.t / 2), params.K
            )
            assert smaller_t <= base

    def test_matches_bruteforce_oracle(self):
        for system, params in make_corpus(77, 25):
            fast = build_edge_set(system.psi, system.theta, params.t, params.K)
            slow = build_edge_set_bruteforce(
                system.psi, system.theta, params.t, params.K
            )
            assert fast == slow
            fast_l = build_edge_set(
                system.psi, system.theta, params.t, params.K, literal_lcm=True
            )
            slow_l = build_edge_set_bruteforce(
                system.psi, system.theta, params.t, params.K, literal_lcm=True
            )
            assert fast_l == slow_l

    @pytest.mark.parametrize("literal_lcm", [False, True])
    def test_no_omega_test_when_t_is_below_two(self, monkeypatch, literal_lcm):
        """With floor(t) < 2 and K > 0, omega_t is 0 for every pair: the edge
        set is empty, as the oracle says, and no pair's omega is computed."""
        import paircert.quality as quality

        corpus = make_corpus(83, 6)
        calls = []
        real = quality.omega_t
        monkeypatch.setattr(quality, "omega_t", lambda *a: calls.append(a) or real(*a))
        for system, _ in corpus:
            for t in (F(1), F(3, 2)):
                for K in (F(1, 2), F(1), F(2)):
                    got = build_edge_set(system.psi, system.theta, t, K, literal_lcm)
                    oracle = build_edge_set_bruteforce(system.psi, system.theta, t, K, literal_lcm)
                    assert got == oracle == frozenset()
                assert build_edge_set(system.psi, system.theta, t, 0, literal_lcm) == (
                    build_edge_set_bruteforce(system.psi, system.theta, t, 0, literal_lcm)
                )
        assert calls == []

    @pytest.mark.parametrize("literal_lcm", [False, True])
    @pytest.mark.parametrize("K", [0, 1])
    def test_oracle_rejects_t_below_one(self, K, literal_lcm):
        """t < 1 is outside the domain of both edge sets; the oracle does not
        answer {(2, 2), (3, 9)} for it."""
        psi = WeightFunction({2: F(1, 2), 3: F(1, 3)})
        theta = WeightFunction({2: F(1, 2), 9: F(1, 9)})
        for build in (build_edge_set, build_edge_set_bruteforce):
            with pytest.raises(InvalidParameter, match=r"t must be >= 1, got 1/2"):
                build(psi, theta, F(1, 2), K, literal_lcm)
        assert build_edge_set_bruteforce(psi, theta, 1, K, literal_lcm) == (
            {(2, 2), (3, 9)} if K == 0 else frozenset()
        )

    def test_stray_edges_are_those_outside_the_edge_set(self):
        """stray_edges tests the given pairs only, off the supports too, and
        agrees with the difference to the whole edge set."""
        for system, params in make_corpus(79, 12):
            legal = build_edge_set(system.psi, system.theta, params.t, params.K)
            vs = [*system.psi.support()[:8], 10**6 + 3]
            ws = [*system.theta.support()[:8], 10**6 + 3]
            box = {(v, w) for v in vs for w in ws}
            got = stray_edges(system.psi, system.theta, box, params.t, params.K)
            assert got == box - legal


class TestNeighborhoods:
    def test_empty(self):
        assert adjacency(frozenset()) == ({}, {})
        assert restrict(frozenset()) == (frozenset(), frozenset())

    def test_lookup_and_projection(self):
        E = {(2, 2), (3, 9)}
        v_adj, w_adj = adjacency(E)
        assert v_adj[3] == {9}
        assert w_adj[9] == {3}
        assert restrict(E) == ({2, 3}, {2, 9})

    def test_projection_reads_a_one_shot_iterator_once(self):
        assert restrict(iter([(2, 3), (4, 9)])) == ({2, 4}, {3, 9})

    def test_projection_consistency(self):
        for system, _ in make_corpus(55, 10):
            vs, ws = restrict(system.edges)
            v_adj, w_adj = adjacency(system.edges)
            for v, w in system.edges:
                assert v in vs and w in ws
                assert w in v_adj[v]
                assert v in w_adj[w]


class TestPValue:
    def test_empty_supports(self):
        psi = WeightFunction({})
        assert _p_exponent(prime_support(psi, psi), 100) == 100

    def test_counting(self):
        psi = WeightFunction({2: F(1, 2), 101: F(1, 101)})
        theta = WeightFunction({3: F(1, 3)})
        assert prime_support(psi, theta) == (2, 3, 101)
        assert _p_exponent(prime_support(psi, theta), 100) == 102

    def test_none_below(self):
        psi = WeightFunction({101: F(1, 101)})
        theta = WeightFunction({101: F(1, 101)})
        assert _p_exponent(prime_support(psi, theta), 100) == 100


class TestMainBound:
    def test_empty_edges_hold(self):
        psi = WeightFunction({2: F(1, 2)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, frozenset())
        rep = main_bound_check(sys_, small_params())
        assert rep.verdict == HOLDS and rep.lhs == 0

    def test_empty_support_degenerate(self):
        sys_ = PairSystem(
            WeightFunction({}), WeightFunction({}), TOTIENT, TOTIENT, frozenset()
        )
        rep = main_bound_check(sys_, small_params())
        assert rep.verdict == HOLDS and rep.lhs == 0

    def test_large_negative_k_holds(self):
        psi = WeightFunction({2: F(1, 2), 6: F(1, 6)})
        E = build_edge_set(psi, psi, 10, -100)
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, E)
        rep = main_bound_check(sys_, small_params(K=F(-100), C=F(1)))
        assert rep.verdict == HOLDS

    def test_single_edge_reproducible(self):
        psi = WeightFunction({3: F(1, 3)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, {(3, 3)})
        params = Params(
            epsilon=F(2, 5), C=F(1), t=F(1), K=F(0), p0=2, precision_bits=256
        )
        rep1 = main_bound_check(sys_, params)
        rep2 = main_bound_check(sys_, params)
        assert json.dumps(rep1.to_json()) == json.dumps(rep2.to_json())
        assert rep1.verdict == HOLDS
        assert rep1.lhs == mu_pairs(sys_)

    def test_log_factor_below_e_with_a_huge_c(self):
        """For 2 < t < e the Log t factor is exactly 1, so with C = 10^5 the
        right side is the one at t = 2 bit for bit, and it comes at once."""
        psi = WeightFunction({3: F(1, 3)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, {(3, 3)})
        for bits in (16, 256):
            params = dict(epsilon=F(1, 4), C=F(10**5), K=F(0), p0=2, precision_bits=bits)
            at_two = main_bound_check(sys_, Params(t=F(2), **params))
            for t in (F(5, 2), F(534625820200, 196677847971)):
                rep = main_bound_check(sys_, Params(t=t, **params))
                assert rep.verdict == at_two.verdict == HOLDS, t
                assert (rep.rhs.lo, rep.rhs.hi) == (at_two.rhs.lo, at_two.rhs.hi), t

    @pytest.mark.parametrize("k, outcome", [(16000, "holds"), (17000, "ResourceLimit")])
    def test_log_factor_within_the_magnitude_cap_of_e(self, k, outcome):
        """t = floor(e 2^k)/2^k, C = 10^5, 16 bits: Log t encloses as [1, hi]
        even past the magnitude cap's extra bits for k = 17000, which is
        refused, while k = 16000 decides. Run in a subprocess under a timeout,
        so that a regression fails rather than hangs."""
        src = Path(paircert.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-I", "-B", "-c", _NEAR_E_SCRIPT, str(src), str(k)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == [outcome]

    def test_corpus_holds(self):
        for system, params in make_corpus(31, 20):
            rep = main_bound_check(system, params)
            assert rep.verdict == HOLDS, (params, rep.to_json())

    def test_precondition_verification(self):
        psi = WeightFunction({2: F(1, 2), 3: F(2)})
        theta = WeightFunction({2: F(1, 2)})
        sys_ = PairSystem(psi, theta, TOTIENT, TOTIENT, {(3, 2)})
        with pytest.raises(InvalidParameter):
            main_bound_check(sys_, small_params(), verify_preconditions=True)

    @pytest.mark.parametrize("side", ["f", "g"])
    def test_precondition_rejects_f_or_g_above_the_divisor_bound(self, side):
        """f(2) = 2 gives (1*f)(2) = 3 > 2 on an edge inside the edge set."""
        psi = WeightFunction({2: F(1, 2)})
        bad = MultiplicativeFunction({(2, 1): 2})
        f, g = (bad, TOTIENT) if side == "f" else (TOTIENT, bad)
        sys_ = PairSystem(psi, psi, f, g, {(2, 2)})
        assert main_bound_check(sys_, small_params()).verdict == HOLDS
        with pytest.raises(
            InvalidParameter,
            match=rf"^{side} violates \(1\*f\)\(p\^a\) <= p\^a: \(\(2, 1, Fraction\(3, 1\)\),\)$",
        ):
            main_bound_check(sys_, small_params(), verify_preconditions=True)

    def test_verdict_matches_endpoints(self):
        for system, params in make_corpus(13, 8):
            rep = main_bound_check(system, params)
            if rep.verdict == HOLDS:
                assert rep.rhs.lo_cmp(rep.lhs) >= 0
            elif rep.verdict == "violated":
                assert rep.rhs.hi_cmp(rep.lhs) < 0

    def test_json_exact_at_the_precision_cap(self):
        """A verdict that settles at the cap carries 2^14-bit mantissas
        (about 4,930 digits), past Python's default int -> str limit.  The
        report is built directly: a real bound at the cap takes seconds."""
        import sys

        rng = random.Random(14)
        man = rng.getrandbits(DEFAULT_PRECISION_CAP) | (1 << (DEFAULT_PRECISION_CAP - 1)) | 1
        exp = 100 - DEFAULT_PRECISION_CAP
        rhs = Interval(Dyadic(man, exp), Dyadic(man + 2, exp), DEFAULT_PRECISION_CAP)
        lhs = F(man + 1, 1 << -exp)
        rep = BoundReport(lhs, rhs, INCONCLUSIVE, DEFAULT_PRECISION_CAP, 100)
        doc = json.loads(json.dumps(rep.to_json()))
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = (str(lhs), str(man), str(man + 2))
        finally:
            sys.set_int_max_str_digits(old)
        assert len(want[1]) > old
        assert (doc["lhs"], doc["rhs_lo_dyadic"]["man"], doc["rhs_hi_dyadic"]["man"]) == want
        assert doc["rhs_lo_dyadic"]["exp"] == exp and doc["verdict"] == INCONCLUSIVE


class TestCertifyLe:
    """lhs against sqrt(4): its enclosure never collapses to the point 2, so
    a left side near 2 settles only once the enclosure is narrow enough."""

    SQRT_FOUR = [(const(4), F(1, 2))]

    @pytest.mark.parametrize(
        "lhs, verdict, bits",
        [
            (F(1), HOLDS, 256),
            (2 - F(1, 2**400), HOLDS, 512),
            (2 + F(1, 2**3000), VIOLATED, 4096),
        ],
        ids=["far-below", "just-below", "just-above"],
    )
    def test_escalates_until_conclusive(self, lhs, verdict, bits):
        got, enclosure, got_bits = certify_le(lhs, 1, self.SQRT_FOUR, 256)
        assert (got, got_bits) == (verdict, bits)
        if verdict == HOLDS:
            assert enclosure.lo_cmp(lhs) >= 0
        else:
            assert enclosure.hi_cmp(lhs) < 0

    def test_inconclusive_at_the_cap(self):
        got, enclosure, bits = certify_le(F(2), 1, self.SQRT_FOUR, 256)
        assert (got, bits) == (INCONCLUSIVE, DEFAULT_PRECISION_CAP)
        assert enclosure.lo_cmp(2) < 0 < enclosure.hi_cmp(2)

    @pytest.mark.parametrize("bits", [0, -5, 256.0, True, DEFAULT_PRECISION_CAP + 1])
    def test_start_precision_outside_the_domain_is_rejected(self, bits):
        """A start precision outside [16, 2^14], or not an int, raises at once;
        doubling from 0 would never end."""
        with pytest.raises(InvalidParameter):
            certify_le(2, 1, [(exp_of(1), 1)], bits)

    def test_base_scales_the_product(self):
        assert certify_le(F(3), 2, self.SQRT_FOUR, 256)[0] == HOLDS
        assert certify_le(F(5), 2, self.SQRT_FOUR, 256)[0] == VIOLATED

    def test_lhs_on_the_upper_end_does_not_settle(self):
        """lhs equal to the upper end of a non-point enclosure of sqrt(2) is
        not certified above the value at that precision: sqrt(2) is
        irrational, so only a narrower enclosure shows lhs > sqrt(2)."""
        sqrt_two = [(const(2), F(1, 2))]
        start = interval_eval(1, sqrt_two, 256)
        assert not start.is_point()
        lhs = start.hi.as_fraction()
        got, enclosure, bits = certify_le(lhs, 1, sqrt_two, 256)
        assert (got, bits) == (VIOLATED, 512)
        assert enclosure.hi_cmp(lhs) < 0


class TestScalingCovariance:
    def test_rescaled_quality_rule(self, rng):
        """D_{psi/y, theta}(v, w) = max(w psi(v)/y, v theta(w)) / gcd."""
        from math import gcd

        from paircert.harness import rescale_kmy

        for _ in range(50):
            v = rng.randint(1, 200)
            w = rng.randint(1, 200)
            psi = WeightFunction({v: F(rng.randint(1, 30), 7)})
            theta = WeightFunction({w: F(rng.randint(1, 30), 11)})
            y = F(rng.randint(1, 20), rng.randint(1, 4))
            if y < 1:
                y = 1 / y
            scaled = rescale_kmy(psi, y, 10**6)
            got = d_value(v, w, scaled, theta)
            expected = max(w * psi.value(v) / y, v * theta.value(w)) / gcd(v, w)
            assert got == expected
