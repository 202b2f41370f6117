"""Prime-slice compression and its exact identity suite."""

import random
from fractions import Fraction as F

import pytest

from paircert.compress import Slice, slice_k_shift, slice_system, verify_slice_identities
from paircert.errors import IncompleteDefinition, InvalidParameter
from paircert.model import MultiplicativeFunction, PairSystem, TOTIENT, WeightFunction, mu_set
from paircert.quality import FAILED, build_edge_set, omega_t
from conftest import make_corpus


def _slice_corpus(seed: int, count: int, **overrides):
    """(system, params, slice) triples with random (p, i, j), i, j <= 3."""
    rng = random.Random(seed)
    out = []
    for system, params in make_corpus(seed, count, **overrides):
        from paircert.quality import prime_support

        ps = prime_support(system.psi, system.theta)
        if not ps:
            continue
        p = rng.choice(ps)
        i, j = rng.randint(0, 3), rng.randint(0, 3)
        out.append((system, params, slice_system(system, p, i, j)))
    return out


class TestSliceConstruction:
    def test_hand_example(self):
        psi = WeightFunction({3: F(1, 4)})
        theta = WeightFunction({5: F(1, 5), 15: F(1, 20)})
        system = PairSystem(psi, theta, TOTIENT, TOTIENT, frozenset())
        s = slice_system(system, 3, 1, 0)
        assert s.v_cell == {3} and s.tilde.psi.value(1) == F(1, 4)
        # theta~(w) = 3 theta(w) on 3-coprime w
        assert s.tilde.theta.value(5) == F(3, 5)
        assert 15 not in s.tilde.theta.support()

    def test_diagonal_slice_has_unit_factors(self):
        psi = WeightFunction({2: F(1, 2), 4: F(1, 8)})
        system = PairSystem(psi, psi, TOTIENT, TOTIENT, frozenset())
        s = slice_system(system, 2, 1, 1)
        # min(i, i) = i: both scalings are p^0 = 1
        assert s.tilde.psi.value(1) == psi.value(2)
        assert s.tilde.theta.value(1) == psi.value(2)

    def test_empty_cell_yields_empty_slice(self):
        psi = WeightFunction({2: F(1, 2)})
        system = PairSystem(psi, psi, TOTIENT, TOTIENT, frozenset())
        s = slice_system(system, 5, 2, 0)
        assert len(s.tilde.psi) == 0 and s.tilde.edges == frozenset()

    def test_supports_avoid_p(self):
        for _, _, s in _slice_corpus(41, 12):
            for v in s.tilde.psi.support():
                assert v % s.p != 0
            for w in s.tilde.theta.support():
                assert w % s.p != 0

    def test_nonprime_rejected(self):
        psi = WeightFunction({2: F(1, 2)})
        system = PairSystem(psi, psi, TOTIENT, TOTIENT, frozenset())
        with pytest.raises(InvalidParameter):
            slice_system(system, 4, 1, 0)

    def test_undefined_prime_power_rejected(self):
        f = MultiplicativeFunction({(2, 1): F(1)})
        psi = WeightFunction({2: F(1, 2)})
        system = PairSystem(psi, psi, f, f, frozenset())
        with pytest.raises(IncompleteDefinition):
            slice_system(system, 2, 2, 0)

    def test_edge_membership_iff_source_cell_edge(self):
        for system, _, s in _slice_corpus(43, 15):
            pi, pj = s.p**s.i, s.p**s.j
            expected = {
                (v // pi, w // pj)
                for v, w in system.edges
                if v in s.v_cell and w in s.w_cell
            }
            assert s.tilde.edges == expected


class TestIdentities:
    def test_hand_identity_a(self):
        psi = WeightFunction({3: F(1, 4)})
        theta = WeightFunction({5: F(1, 5)})
        system = PairSystem(psi, theta, TOTIENT, TOTIENT, frozenset())
        s = slice_system(system, 3, 1, 0)
        lhs = mu_set(TOTIENT, s.tilde.psi, s.tilde.psi.support())
        assert lhs == F(1, 4)
        assert F(3) / TOTIENT.prime_power(3, 1) * mu_set(TOTIENT, psi, [3]) == F(1, 4)
        rep = verify_slice_identities(system, s, 10)
        assert rep.all_hold

    def test_randomized_suite(self):
        checked = 0
        for system, params, s in _slice_corpus(47, 60, f_mode="random"):
            rep = verify_slice_identities(system, s, params.t)
            assert rep.all_hold, rep.to_json()
            checked += 1
        for system, params, s in _slice_corpus(53, 60):
            rep = verify_slice_identities(system, s, params.t)
            assert rep.all_hold, rep.to_json()
            checked += 1
        assert checked >= 100

    def test_zero_multiplier_reported_vacuous(self):
        f = MultiplicativeFunction({(2, 1): 0, (2, 2): 0, (3, 1): 1})
        psi = WeightFunction({2: F(1, 2), 3: F(1, 3)})
        system = PairSystem(psi, psi, f, f, frozenset())
        s = slice_system(system, 2, 1, 0)
        rep = verify_slice_identities(system, s, 10)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["a:psi-measure"].status == "vacuous"
        assert by_name["c:pair-measure"].status == "vacuous"
        assert rep.all_hold

    def test_omega_unchanged_when_p_exceeds_t(self):
        # p > t: the slice never sheds an omega count
        psi = WeightFunction({7: F(1, 7), 14: F(1, 49)})
        theta = WeightFunction({7: F(1, 7), 35: F(1, 49)})
        E = build_edge_set(psi, theta, 5, 0)
        system = PairSystem(psi, theta, TOTIENT, TOTIENT, E)
        s = slice_system(system, 7, 1, 1)
        assert slice_k_shift(s, 5) == 0
        rep = verify_slice_identities(system, s, 5)
        assert rep.all_hold

    def test_literal_lcm_breaks_omega_bookkeeping(self):
        """Under the literal vw/gcd reading the slice's omega drop is wrong
        exactly on diagonal cells i = j >= 1 with p <= t."""
        psi = WeightFunction({2: F(1, 2), 6: F(1, 6)})
        system = PairSystem(psi, psi, TOTIENT, TOTIENT, {(2, 2), (6, 6)})
        s = slice_system(system, 2, 1, 1)
        # default reading: omega is preserved on the diagonal slice
        for (v, w) in s.tilde.edges:
            assert omega_t(v, w, 10) == omega_t(2 * v, 2 * w, 10)
        # literal reading loses the prime p even though i = j
        broken = [
            (v, w)
            for (v, w) in s.tilde.edges
            if omega_t(v, w, 10, literal_lcm=True)
            != omega_t(2 * v, 2 * w, 10, literal_lcm=True)
        ]
        assert broken


class TestContainmentAndCommutation:
    def test_sliced_edges_inside_shifted_edge_set(self):
        for system, params, s in _slice_corpus(59, 40):
            shift = slice_k_shift(s, params.t)
            target = build_edge_set(
                s.tilde.psi, s.tilde.theta, params.t, params.K - shift
            )
            assert s.tilde.edges <= target, (s.p, s.i, s.j)

    def test_slice_of_slice_commutes(self):
        rng = random.Random(61)
        done = 0
        for system, params in make_corpus(61, 30):
            from paircert.quality import prime_support

            ps = prime_support(system.psi, system.theta)
            if len(ps) < 2:
                continue
            p1, p2 = rng.sample(ps, 2)
            i1, j1 = rng.randint(0, 2), rng.randint(0, 2)
            i2, j2 = rng.randint(0, 2), rng.randint(0, 2)
            a = slice_system(slice_system(system, p1, i1, j1).tilde, p2, i2, j2)
            b = slice_system(slice_system(system, p2, i2, j2).tilde, p1, i1, j1)
            assert sorted(a.tilde.edges) == sorted(b.tilde.edges)
            assert dict(a.tilde.psi.items()) == dict(b.tilde.psi.items())
            assert dict(a.tilde.theta.items()) == dict(b.tilde.theta.items())
            done += 1
        assert done >= 10


def test_edgewise_checks_report_the_mismatching_edge():
    """A slice that is not the source's: (d) and (e) fail at its edge."""
    half = WeightFunction({2: F(1, 2)})
    source = PairSystem(half, half, TOTIENT, TOTIENT, {(2, 2)})
    tilde = PairSystem(half, WeightFunction({1: F(1)}), TOTIENT, TOTIENT, {(2, 1)})
    rep = verify_slice_identities(source, Slice(2, 0, 1, tilde, frozenset(), frozenset()), 10)
    checks = {c.name: c for c in rep.checks if c.status == FAILED}
    assert (checks["d:quality"].lhs, checks["d:quality"].rhs) == (2, F(1, 2))
    # omega_10(2, 1) = 1, omega_10(2, 2) - 1 = -1
    assert (checks["e:omega-shift"].lhs, checks["e:omega-shift"].rhs) == (1, -1)
    assert checks["d:quality"].detail == checks["e:omega-shift"].detail == "at slice edge (2,1)"


def test_slice_weights_are_not_validated_again(monkeypatch):
    """slice_system rescales the source's validated weights without one
    model._rational call; the public constructor still makes them."""
    import paircert.model as model

    corpus = _slice_corpus(47, 10)
    calls = []
    real = model._rational
    monkeypatch.setattr(model, "_rational", lambda value: calls.append(value) or real(value))
    for system, _, s in corpus:
        for i, j in ((s.i, s.j), (0, 0), (1, 0), (0, 2)):
            slice_system(system, s.p, i, j)
    assert calls == []
    WeightFunction({1: F(1, 2)})
    assert calls == [F(1, 2)]


def test_an_extra_factor_p_in_the_slice_weights_fails_a_and_b():
    """The measure identities catch a slice whose psi~ and theta~ were both
    scaled by one p too many."""
    caught = 0
    for system, params, s in _slice_corpus(53, 60):
        good = {c.name: c for c in verify_slice_identities(system, s, params.t).checks}
        if not (good["a:psi-measure"].lhs and good["b:theta-measure"].lhs):
            continue  # zero or vacuous masses cannot show a scale
        assert good["a:psi-measure"].status == good["b:theta-measure"].status == "holds"
        tilde = PairSystem(
            WeightFunction({v: s.p * a for v, a in s.tilde.psi.items()}),
            WeightFunction({w: s.p * b for w, b in s.tilde.theta.items()}),
            s.tilde.f,
            s.tilde.g,
            s.tilde.edges,
        )
        bad = Slice(s.p, s.i, s.j, tilde, s.v_cell, s.w_cell)
        rep = verify_slice_identities(system, bad, params.t)
        failed = {c.name for c in rep.checks if c.status == FAILED}
        assert {"a:psi-measure", "b:theta-measure"} <= failed
        caught += 1
    assert caught >= 8
