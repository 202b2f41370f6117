"""Structured decomposition, S sums, and the exact splitting inequality."""

import random
from fractions import Fraction as F
from math import gcd

import mpmath
import pytest

from paircert.anatomy import small_prime_divisor_count
from paircert.arith import Interval
from paircert.diagonal import concentrate, peel
from paircert.errors import InvalidParameter, NotStructured
from paircert.model import PairSystem, TOTIENT, WeightFunction, mu_pairs
from paircert.quality import build_edge_set, main_bound_check, omega_t, restrict
from paircert.resolution import (
    SSums,
    build_decomposition,
    check_structured,
    coprime_part,
    decompose,
    resolution_check,
    s_majorant,
    s_majorant_bridged,
    s_sums,
)
from conftest import make_corpus, small_params

mpmath.mp.dps = 80


def _structured_cases(seed: int, count: int, **overrides):
    """Peeled structured sets: (system, params, N, edges), nonempty only."""
    out = []
    for system, params in make_corpus(seed, count, **overrides):
        if mu_pairs(system) == 0:
            continue
        conc = concentrate(system, system.edges, params)
        peeled = peel(system, conc.edges_star, params)
        if peeled.edges:
            out.append((system, params, conc.N, peeled.edges))
    return out


class TestDecompose:
    def test_trivial(self):
        assert decompose(6, 6) == (1, 1)

    def test_hand_example(self):
        assert decompose(4, 6) == (3, 2)

    def test_not_structured(self):
        with pytest.raises(NotStructured):
            decompose(24, 6)

    def test_reconstruction_randomized(self, rng):
        for _ in range(200):
            N = rng.choice([1, 2, 6, 12, 30, 210])
            v = rng.randint(1, 400)
            try:
                minus, plus = decompose(v, N)
            except NotStructured:
                continue
            assert v * minus == N * plus
            assert gcd(minus, plus) == 1

    def test_coprime_part(self):
        assert coprime_part(12, 2) == 3
        assert coprime_part(12, 5) == 12
        assert coprime_part(1, 7) == 1


class TestCheckStructured:
    def test_diagonal_edge(self):
        assert check_structured({(6, 6)}, 6) == (True, None)

    def test_single_shift(self):
        ok, _ = check_structured({(12, 6)}, 6)
        assert ok

    def test_double_shift_fails(self):
        ok, wit = check_structured({(12, 12)}, 6)
        assert not ok and wit == (12, 12, 2)


class TestSSums:
    def test_singleton_unit(self):
        psi = WeightFunction({1: F(1)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, {(1, 1)})
        ss = s_sums(sys_, sys_.edges, 1, 1, 0)
        assert (ss.s1, ss.s2, ss.s3, ss.s4) == (1, 1, 1, 1)
        assert ss.w0 == 1 and ss.v0 == {1: 1}

    def test_unsatisfiable_condition_zeroes_everything(self):
        psi = WeightFunction({1: F(1)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, {(1, 1)})
        # K/4 larger than the number of primes <= t
        ss = s_sums(sys_, sys_.edges, 1, 10, 100)
        assert ss.total == 0

    def test_empty_is_degenerate(self):
        psi = WeightFunction({1: F(1)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, frozenset())
        ss = s_sums(sys_, frozenset(), 1, 10, 0)
        assert ss.degenerate and ss.total == 0

    def test_extremal_selection_ties_to_smallest(self):
        # both w = 10 and w = 15 have w+ = product of one new prime; craft
        # equal pluses to exercise the tie
        psi = WeightFunction({6: F(1, 6)})
        theta = WeightFunction({12: F(1, 144), 18: F(1, 324)})
        E = frozenset({(6, 12), (6, 18)})
        sys_ = PairSystem(psi, theta, TOTIENT, TOTIENT, E)
        ss = s_sums(sys_, E, 6, 10, 0)
        # w+ = 2 for 12 and 3 for 18: max is 18; no tie here
        assert ss.w0 == 18
        theta2 = WeightFunction({12: F(1, 144), 12 * 25: F(1, 10**6)})
        # skip: different prime sets; tie case below via equal w+
        psi3 = WeightFunction({1: F(1)})
        theta3 = WeightFunction({2: F(1, 4), 3: F(1, 9)})
        E3 = frozenset({(1, 2), (1, 3)})
        sys3 = PairSystem(psi3, theta3, TOTIENT, TOTIENT, E3)
        ss3 = s_sums(sys3, E3, 1, 1, 0)
        # w+ = 2 vs 3: max 3 -> w0 = 3
        assert ss3.w0 == 3


def _s_sums_reference(system, edges, N, t, K):
    """S1..S4 summed term by term in Fractions, as the definition reads:
    g(w) f(v) / (w w- v v- v0+(w) w0+) over the edges whose v-, v+, w- or
    w+ has omega_t >= K/4."""
    dec = build_decomposition(edges, N)
    gamma = {}
    for v, w in edges:
        gamma.setdefault(w, []).append(v)
    w0_plus = max(plus for _, plus in dec.w_parts.values())
    sums = [F(0)] * 4
    for w, vs in gamma.items():
        w_minus, w_plus = dec.w_parts[w]
        v0_plus = max(dec.v_parts[v][1] for v in vs)
        for v in vs:
            v_minus, v_plus = dec.v_parts[v]
            term = system.g(w) * system.f(v) / (w * w_minus * v * v_minus * v0_plus * w0_plus)
            for k, part in enumerate((v_minus, v_plus, w_minus, w_plus)):
                if small_prime_divisor_count(part, t) >= F(K) / 4:
                    sums[k] += term
    return sums


class TestSSumsReference:
    @pytest.mark.parametrize("f_mode", ["totient", "random"])
    def test_integer_sums_equal_the_fraction_reference(self, f_mode):
        cases = _structured_cases(241, 30, f_mode=f_mode)
        assert len(cases) >= 10
        for system, params, N, edges in cases:
            for K in (params.K, F(4), F(6)):
                ss = s_sums(system, edges, N, params.t, K)
                ref = _s_sums_reference(system, edges, N, params.t, K)
                assert [ss.s1, ss.s2, ss.s3, ss.s4] == ref


class TestCaseSplitSoundness:
    def test_omega_splits_across_parts(self):
        """On a structured edge with omega_t(v,w) >= K, at least one of the
        four parts carries >= K/4 small primes."""
        for system, params, N, edges in _structured_cases(211, 30):
            dec = build_decomposition(edges, N)
            for v, w in edges:
                total = omega_t(v, w, params.t)
                if total < params.K:
                    continue
                vm, vp = dec.v_parts[v]
                wm, wp = dec.w_parts[w]
                best = max(
                    small_prime_divisor_count(x, params.t) for x in (vm, vp, wm, wp)
                )
                assert best >= params.K / 4

    def test_four_factor_identity(self):
        for system, params, N, edges in _structured_cases(223, 30):
            dec = build_decomposition(edges, N)
            for v, w in edges:
                vm, vp = dec.v_parts[v]
                wm, wp = dec.w_parts[w]
                g = gcd(v, w)
                assert vm * vp * wm * wp == (v * w) // (g * g)

    def test_decomposition_of_a_one_shot_iterator(self):
        dec = build_decomposition(iter([(2, 3)]), 6)
        assert dec == build_decomposition(frozenset({(2, 3)}), 6)
        assert set(dec.v_parts) == {2} and set(dec.w_parts) == {3}


class TestResolutionCheck:
    def test_singleton_holds(self):
        psi = WeightFunction({1: F(1)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, {(1, 1)})
        rep = resolution_check(sys_, sys_.edges, 1, small_params(t=F(1)))
        assert rep.verdict == "holds"
        assert rep.lhs_squared == 1
        assert rep.inequality_holds

    def test_empty_is_degenerate(self):
        psi = WeightFunction({1: F(1)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, frozenset())
        rep = resolution_check(sys_, frozenset(), 1, small_params())
        assert rep.verdict == "degenerate-empty"

    def test_unstructured_precondition_reported(self):
        psi = WeightFunction({12: F(1, 24)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT, {(12, 12)})
        rep = resolution_check(sys_, sys_.edges, 6, small_params())
        assert rep.verdict == "precondition-failed"
        assert rep.preconditions["structured"] is False
        assert rep.witnesses["structured"] == (12, 12, 2)

    def test_property_two_precondition_reported(self):
        # v = 3 is starved: property 2 fails before any sums are computed
        psi = WeightFunction({2: F(1, 2), 3: F(1, 3)})
        theta = WeightFunction({5: F(1, 5000), 7: F(1, 7)})
        E = frozenset({(2, 5), (2, 7), (3, 5)})
        sys_ = PairSystem(psi, theta, TOTIENT, TOTIENT, E)
        rep = resolution_check(sys_, E, 1, small_params())
        assert rep.verdict == "precondition-failed"
        assert rep.preconditions["combinatorial"] is False

    def test_off_support_edge_fails_containment(self):
        # 4 is outside supp psi, so build_edge_set never returns (4, 2)
        psi = WeightFunction({2: F(1, 2)})
        sys_ = PairSystem(psi, psi, TOTIENT, TOTIENT)
        params = small_params(t=F(1), K=F(0))
        E = frozenset({(4, 2)})
        assert build_edge_set(psi, psi, params.t, params.K) == {(2, 2)}
        rep = resolution_check(sys_, E, 2, params)
        assert rep.verdict == "precondition-failed"
        assert rep.preconditions["containment"] is False
        assert rep.witnesses["containment"] == (4, 2)
        with pytest.raises(InvalidParameter, match=r"e\.g\. \(4, 2\)"):
            main_bound_check(sys_, params, E, verify_preconditions=True)

    def test_containment_agrees_with_main_bound(self):
        """containment fails exactly when main_bound_check's verified
        preconditions reject the edge set, on corpus subsets mixed with
        pairs off the supports and pairs failing the quality filter."""
        rng = random.Random(20251018)
        outcomes = set()
        for system, params in make_corpus(231, 12) + make_corpus(233, 6, f_mode="random"):
            vs, ws = sorted(system.psi.support()), sorted(system.theta.support())
            edges = sorted(system.edges)
            for _ in range(6):
                E = set(rng.sample(edges, rng.randint(0, len(edges))))
                for _ in range(rng.randint(0, 2)):
                    v, w = rng.choice(vs), rng.choice(ws)
                    E.add(rng.choice([(v, w), (2 * v, w), (v, 3 * w)]))
                if not E:
                    continue
                rep = resolution_check(system, E, 1, params)
                try:
                    main_bound_check(system, params, E, verify_preconditions=True)
                    rejected = False
                except InvalidParameter as exc:
                    assert "outside the (t, K) edge set" in str(exc)
                    rejected = True
                assert rep.preconditions["containment"] is not rejected, sorted(E)
                outcomes.add(rejected)
        assert outcomes == {True, False}

    def test_corpus_holds(self):
        checked = 0
        for system, params, N, edges in _structured_cases(227, 50):
            rep = resolution_check(system, edges, N, params)
            assert rep.verdict == "holds", rep.to_json()
            assert rep.four_factor_ok and rep.coprime_ok and rep.reconstruction_ok
            assert rep.pointwise_ok
            checked += 1
        assert checked >= 15

    def test_corpus_holds_random_f(self):
        checked = 0
        for system, params, N, edges in _structured_cases(229, 40, f_mode="random"):
            rep = resolution_check(system, edges, N, params)
            assert rep.verdict == "holds", rep.to_json()
            checked += 1
        assert checked >= 10


class TestMajorant:
    def test_exact_when_quarter_integer(self):
        out = s_majorant(10, 8, 2)  # K/4 = 2
        from paircert.anatomy import mertens_product

        assert out == mertens_product(10, 2) / 4

    def test_interval_otherwise(self):
        out = s_majorant(10, 1, 2)  # K/4 = 1/4
        assert isinstance(out, Interval)

    def test_bounds_every_sum_exactly(self):
        """S_i <= gamma^(-K/4) prod_{p<=t}(1 + (gamma-1)/p) for rational
        gamma > 1, as derived from the exact reparametrization chain."""
        for system, params, N, edges in _structured_cases(233, 40):
            if params.K % 4 != 0:
                continue
            ss = s_sums(system, edges, N, params.t, params.K)
            for gamma in (F(3, 2), F(2), F(4)):
                maj = s_majorant(params.t, params.K, gamma)
                for s in (ss.s1, ss.s2, ss.s3, ss.s4):
                    assert s <= maj, (params, gamma, s, maj)

    def test_bounds_with_interval_majorant(self):
        for system, params, N, edges in _structured_cases(239, 25):
            if params.K % 4 == 0:
                continue
            ss = s_sums(system, edges, N, params.t, params.K)
            maj = s_majorant(params.t, params.K, F(2), 512)
            for s in (ss.s1, ss.s2, ss.s3, ss.s4):
                # certified: the sum sits at or below the majorant's window
                assert maj.hi_cmp(s) >= 0

    @pytest.mark.parametrize("bits", [True, 0, 15, 2**14 + 1, 1.5])
    @pytest.mark.parametrize(
        "fn",
        [lambda bits: s_majorant(10, 1, 2, bits), lambda bits: s_majorant_bridged(10, 1, 1, bits)],
        ids=["s_majorant", "s_majorant_bridged"],
    )
    def test_precision_bits_outside_its_range_rejected(self, fn, bits):
        """precision_bits is an int, not a bool, in [16, 2^14], as in Params."""
        with pytest.raises(InvalidParameter, match="^precision_bits "):
            fn(bits)
        assert fn(16).precision_bits == 16

    def test_bridged_majorant_oracle(self):
        iv = s_majorant_bridged(10, 4, F(1, 2), 192)
        # e^(-10 * 1/2 * 4) * prod_{p<=10} (1 + (e^20 - 1)/p)
        ref = mpmath.exp(-20)
        for p in (2, 3, 5, 7):
            ref *= 1 + (mpmath.exp(20) - 1) / p
        lo = mpmath.mpf(iv.lo.man) * mpmath.power(2, iv.lo.exp)
        hi = mpmath.mpf(iv.hi.man) * mpmath.power(2, iv.hi.exp)
        slack = ref * mpmath.power(2, -180)
        assert lo - slack <= ref <= hi + slack
