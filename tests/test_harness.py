"""Generator determinism, persistence, rescaling, and campaigns."""

import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import paircert.harness as harness_mod
from paircert import arith
from paircert.diagonal import PeelResult
from paircert.errors import DegenerateMeasure, IncompleteDefinition, InvalidParameter, ResourceLimit
from paircert.harness import (
    CampaignReport,
    GeneratorConfig,
    canonical_json,
    certify_campaign,
    certify_instance,
    corollary_bound_check,
    document_to_instance,
    generate_instance,
    instance_document,
    load_instance,
    rescale_kmy,
    save_instance,
)
from paircert.model import MultiplicativeFunction, PairSystem, TOTIENT, WeightFunction, mu_pairs, mu_point
from paircert.quality import (
    FAILED,
    HOLDS,
    INCONCLUSIVE,
    PRECONDITION_FAILED,
    VIOLATED,
    Params,
    build_edge_set,
    d_value,
    main_bound_check,
    main_bound_factors,
    omega_t,
)
from conftest import make_corpus, small_params


class TestGenerator:
    def test_byte_identical_replay(self):
        cfg = GeneratorConfig(seed=42)
        docs = []
        for _ in range(2):
            system, params = generate_instance(cfg, 7)
            docs.append(canonical_json(instance_document(system, params)))
        assert docs[0] == docs[1]

    def test_different_indices_differ(self):
        cfg = GeneratorConfig(seed=42)
        a = instance_document(*generate_instance(cfg, 0))
        b = instance_document(*generate_instance(cfg, 1))
        assert a != b

    def test_empty_supports(self):
        cfg = GeneratorConfig(seed=1, support_min=0, support_max=0)
        system, _ = generate_instance(cfg)
        assert len(system.psi) == 0 and len(system.edges) == 0

    def test_density_one_gives_full_quality_grid(self):
        cfg = GeneratorConfig(seed=5, density=F(1), support_min=4, support_max=8)
        system, params = generate_instance(cfg, 3)
        full = {
            (v, w) for v in system.psi.support() for w in system.theta.support()
        }
        assert build_edge_set(system.psi, system.theta, params.t, F(-10)) == full
        for v, w in full:
            assert d_value(v, w, system.psi, system.theta) <= 1

    def test_generated_edges_match_params(self):
        cfg = GeneratorConfig(seed=9)
        system, params = generate_instance(cfg, 2)
        assert system.edges == build_edge_set(
            system.psi, system.theta, params.t, params.K
        )

    def test_config_round_trip(self):
        cfg = GeneratorConfig(seed=3, density=F(2, 3), f_mode="random")
        assert GeneratorConfig.from_json(cfg.to_json()) == cfg

    def test_density_validation(self):
        with pytest.raises(InvalidParameter):
            GeneratorConfig(density=F(3, 2))

    def test_int_field_validation(self):
        with pytest.raises(InvalidParameter, match="seed must be an integer"):
            GeneratorConfig(seed=1.5)

    @pytest.mark.parametrize("name", ["max_exponent", "value_numerator_bound", "element_bound"])
    def test_bound_below_one_rejected(self, name):
        with pytest.raises(InvalidParameter, match=f"^{name} must be >= 1, got 0$"):
            GeneratorConfig(**{name: 0})

    @pytest.mark.parametrize("value", [0, 1, -5])
    def test_prime_pool_bound_below_two_rejected(self, value):
        """A pool bound below 2 holds no prime; it is refused when the
        config is built, not later in generate_instance."""
        with pytest.raises(InvalidParameter, match=rf"^prime_pool_bound must be >= 2, got {value}$"):
            GeneratorConfig(prime_pool_bound=value)

    def test_round_trip_with_params(self):
        """A config that carries Params writes them through their own
        to_json and reads them back."""
        cfg = GeneratorConfig(seed=5, params=small_params(t=F(7, 2), K=F(3)))
        doc = cfg.to_json()
        assert doc["params"] == cfg.params.to_json()
        assert GeneratorConfig.from_json(json.loads(json.dumps(doc))) == cfg

    @pytest.mark.parametrize("value", [0.5, True])
    def test_float_or_bool_density_rejected(self, value):
        with pytest.raises(InvalidParameter, match="is not an exact rational"):
            GeneratorConfig(density=value)

    def test_support_max_capped(self):
        GeneratorConfig(support_max=harness_mod.SUPPORT_CAP)
        with pytest.raises(ResourceLimit, match="support_max 1001 exceeds cap 1000"):
            GeneratorConfig(support_min=1001, support_max=harness_mod.SUPPORT_CAP + 1)


CAMPAIGN_STREAMS = (GeneratorConfig(seed=20250809), GeneratorConfig(seed=20250810, f_mode="random"))


class TestDrawnTables:
    """The weights and f tables the generator draws on the two campaign
    streams are what the public constructors build from their entries:
    exact Fractions, a sorted support, nothing dropped or converted."""

    def test_public_constructors_rebuild_each_table(self):
        random_fs = 0
        for config in CAMPAIGN_STREAMS:
            for index in range(40):
                system, _ = generate_instance(config, index)
                for weight in (system.psi, system.theta):
                    table = dict(weight.items())
                    assert all(type(v) is F and v > 0 for v in table.values())
                    rebuilt = WeightFunction(table)
                    assert rebuilt == weight and rebuilt.support() == weight.support()
                for f in (system.f, system.g):
                    if f.is_totient():
                        continue
                    random_fs += 1
                    table = {(p, a): f.prime_power(p, a) for p in arith.primes_upto(50) for a in range(1, 7)}
                    assert all(type(v) is F for v in table.values())
                    assert MultiplicativeFunction(table) == f
                    assert f.to_json() == MultiplicativeFunction(table).to_json()
        assert random_fs == 80


class TestBelow:
    """harness._below against Random.randint and Random.choice: the same
    draws and the same generator state after them."""

    WIDTHS = [1, 2, 3, 5, 47**6 - 47**5] + [2**k + d for k in (1, 2, 7, 31, 32, 53, 64, 100) for d in (-1, 0, 1)]

    def test_randint(self):
        for seed in range(30):
            for n in self.WIDTHS:
                ours, ref = random.Random(seed), random.Random(seed)
                for a in (0, 1, -5, 10**20):
                    assert a + harness_mod._below(ours, n) == ref.randint(a, a + n - 1), (seed, n, a)
                assert ours.getstate() == ref.getstate()

    def test_choice(self):
        pool = arith.primes_upto(50)
        for seed in range(30):
            for seq in [pool, (3,), "ab", range(47**6 - 47**5), range(2**62 + 1)]:
                ours, ref = random.Random(seed), random.Random(seed)
                for _ in range(4):
                    assert seq[harness_mod._below(ours, len(seq))] == ref.choice(seq), (seed, seq)
                assert ours.getstate() == ref.getstate()


def test_generator_private_constructors_match_the_public_ones(monkeypatch):
    """generate_instance builds its weights and random f through the private
    constructors; through the public ones it builds the same objects, with
    the same support order and the same exact entry types."""

    def tables(system):
        return [
            (w.support(), [(k, v, type(v)) for k, v in w.items()]) for w in (system.psi, system.theta)
        ] + [sorted((k, v, type(v)) for k, v in (f._table or {}).items()) for f in (system.f, system.g)]

    def corpus():
        return [generate_instance(config, index) for config in CAMPAIGN_STREAMS for index in range(40)]

    fast = corpus()
    monkeypatch.setattr(
        WeightFunction, "_scaled", classmethod(lambda cls, items, scale: cls({x: v * scale for x, v in items}))
    )
    monkeypatch.setattr(MultiplicativeFunction, "_of_table", classmethod(lambda cls, table: cls(table)))
    public = corpus()
    for (s1, p1), (s2, p2) in zip(fast, public):
        assert s1 == s2 and p1 == p2
        assert tables(s1) == tables(s2)
        assert instance_document(s1, p1) == instance_document(s2, p2)


class TestRescale:
    def test_identity(self):
        psi = WeightFunction({2: F(1, 2), 5: F(3)})
        assert rescale_kmy(psi, 1, 100) == psi

    def test_division(self):
        psi = WeightFunction({5: F(3)})
        assert rescale_kmy(psi, 6, 10).value(5) == F(1, 2)

    def test_truncation(self):
        psi = WeightFunction({5: F(3), 50: F(1)})
        out = rescale_kmy(psi, 2, 10)
        assert out.support() == (5,)
        assert len(rescale_kmy(psi, 1, 4)) == 0

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidParameter):
            rescale_kmy(WeightFunction({}), 0, 10)

    @pytest.mark.parametrize("y, Q", [(0.1, 10), (True, 10), (2, 10.0), (2, True)])
    def test_float_or_bool_argument_rejected(self, y, Q):
        """y = 0.1 would give dyadic weights and y = True would be read as 1."""
        with pytest.raises(InvalidParameter):
            rescale_kmy(WeightFunction({2: F(1, 2)}), y, Q)

    def test_pipeline_equivalence(self):
        """Edge measure of the rescaled symmetric system equals the direct
        double sum over [Q]^2 with D <= y divided by y^2, exactly."""
        rng = random.Random(17)
        for _ in range(10):
            Q = rng.randint(8, 40)
            psi = WeightFunction(
                {
                    n: F(rng.randint(1, 12), rng.randint(1, 24))
                    for n in rng.sample(range(1, 60), rng.randint(3, 10))
                }
            )
            y = F(rng.randint(1, 8))
            t = F(rng.choice([1, 10]))
            K = F(rng.choice([0, 1]))
            scaled = rescale_kmy(psi, y, Q)
            edges = build_edge_set(scaled, scaled, t, K)
            sys_scaled = PairSystem(scaled, scaled, TOTIENT, TOTIENT, edges)
            lhs = mu_pairs(sys_scaled)
            direct = F(0)
            for q in psi.support():
                if q > Q:
                    continue
                for r in psi.support():
                    if r > Q:
                        continue
                    if max(r * psi.value(q), q * psi.value(r)) > y * __import__(
                        "math"
                    ).gcd(q, r):
                        continue
                    if omega_t(q, r, t) < K:
                        continue
                    direct += (
                        mu_point(TOTIENT, psi, q) * mu_point(TOTIENT, psi, r)
                    )
            assert lhs == direct / (y * y)


class TestCorollaryPreset:
    def test_accepts_wide_epsilon(self):
        psi = WeightFunction({2: F(1, 2), 3: F(1, 3)})
        rep = corollary_bound_check(psi, F(3, 5), F(1), F(10), F(0))
        assert rep.verdict == HOLDS

    def test_epsilon_range(self):
        with pytest.raises(InvalidParameter):
            corollary_bound_check(WeightFunction({}), F(9, 10), F(1), F(1), F(0))

    @pytest.mark.parametrize("epsilon", [0.1, True])
    def test_float_or_bool_epsilon_rejected(self, epsilon):
        """A dyadic 0.1 is no exact epsilon, so no verdict is certified on it."""
        psi = WeightFunction({2: F(1, 2), 3: F(1, 3)})
        with pytest.raises(InvalidParameter, match="not an exact rational"):
            corollary_bound_check(psi, epsilon, 1, 10, 0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        system, params = generate_instance(GeneratorConfig(seed=11), 0)
        path = tmp_path / "instance.json"
        save_instance(path, system, params)
        system2, params2 = load_instance(path)
        assert params2 == params
        assert system2.psi == system.psi and system2.theta == system.theta
        assert system2.edges == system.edges
        assert system2.f == system.f and system2.g == system.g

    def test_auto_edges_rebuild(self, tmp_path):
        system, params = generate_instance(GeneratorConfig(seed=13), 1)
        path = tmp_path / "auto.json"
        save_instance(path, system, params, auto_edges=True)
        assert json.loads(path.read_text())["edges"] == "auto"
        system2, _ = load_instance(path)
        assert system2.edges == system.edges

    def test_round_trip_past_the_int_str_digit_limit(self, tmp_path):
        """A t of 5,001 digits and a weight, a support key, an f value and an
        f exponent of 4,401 digits (Python's str <-> int limit is 4,300) save
        and load back equal."""
        huge = F(10**4400 + 1, 3)
        psi = WeightFunction({3: huge, 5: F(1, 5), huge.numerator: 1})
        f = MultiplicativeFunction({(3, 1): huge, (5, 1): 4, (3, huge.numerator): 1})
        system = PairSystem(psi, psi, f, TOTIENT, {(3, 5)})
        params = Params(epsilon=F(1, 4), C=F(1), t=F(10**5000 + 7), K=F(-(10**4400)))
        path = tmp_path / "huge.json"
        save_instance(path, system, params)
        system2, params2 = load_instance(path)
        assert params2 == params
        assert (system2.psi, system2.f, system2.g, system2.edges) == (psi, f, TOTIENT, system.edges)

    @pytest.mark.parametrize("extra, loads", [(0, True), (1, False)], ids=["at-cap", "past-cap"])
    def test_numeral_cap_on_load(self, tmp_path, extra, loads):
        """A t written in _NUMERAL_CAP characters saves and loads back; one
        more is refused by save_instance, and a document holding it, written
        by hand, raises ResourceLimit on load before the numeral is read."""
        length = arith._NUMERAL_CAP + extra
        psi = WeightFunction({3: F(1, 3)})
        system = PairSystem(psi, psi, TOTIENT, TOTIENT, {(3, 3)})
        params = Params(epsilon=F(1, 4), C=F(1), t=F(10 ** (length - 2) - 1, 2), K=F(0))
        path = tmp_path / "cap.json"
        if loads:
            assert len(instance_document(system, params)["params"]["t"]) == length
            save_instance(path, system, params)
            assert load_instance(path)[1] == params
        else:
            with pytest.raises(ResourceLimit, match="a numeral of more than"):
                save_instance(path, system, params)
            assert not path.exists()
            doc = instance_document(system, replace(params, t=F(1)))
            doc["params"]["t"] = arith.fraction_str(params.t)
            assert len(doc["params"]["t"]) == length
            path.write_text(json.dumps(doc))
            with pytest.raises(ResourceLimit, match=f"a numeral of {length} characters exceeds the cap"):
                load_instance(path)

    @pytest.mark.parametrize("slot", ["t", "K", "psi", "f", "psi key", "theta key", "f exponent"])
    @pytest.mark.parametrize("extra", [0, 1], ids=["at-cap", "past-cap"])
    def test_numeral_cap_on_save(self, tmp_path, slot, extra):
        """A rational whose numeral has _NUMERAL_CAP characters (an int for t,
        a support key and an f exponent, -n/d for K, n/d for a weight and an
        f value) round-trips; at one more, save_instance raises ResourceLimit
        and writes nothing."""
        length = arith._NUMERAL_CAP + extra
        if slot in ("t", "psi key", "theta key", "f exponent"):
            value = F(10**length - 1)
        else:  # [-]n/d, n of half the digits and d of the rest
            sign = -1 if slot == "K" else 1
            digits = (length - 1 - (sign < 0)) // 2
            value = sign * F(10**digits - 1, 10 ** (length - 2 - (sign < 0) - digits))
        assert len(arith.fraction_str(value)) == length
        weights = {3: value if slot == "psi" else F(1, 3)}
        psi = WeightFunction({**weights, value.numerator: 1} if slot == "psi key" else weights)
        theta = WeightFunction({**weights, value.numerator: 1} if slot == "theta key" else weights)
        table = {(3, 1): value} if slot == "f" else {(3, value.numerator): 1} if slot == "f exponent" else None
        f = MultiplicativeFunction(table) if table else TOTIENT
        system = PairSystem(psi, theta, f, TOTIENT, {(3, 3)})
        params = Params(
            epsilon=F(1, 4), C=F(1), t=value if slot == "t" else F(10), K=value if slot == "K" else F(0)
        )
        path = tmp_path / "slot.json"
        if extra == 0:
            save_instance(path, system, params)
            system2, params2 = load_instance(path)
            assert (params2, system2.psi, system2.theta, system2.f) == (params, psi, theta, f)
        else:
            with pytest.raises(ResourceLimit, match="a numeral of more than"):
                save_instance(path, system, params)
            assert not path.exists()

    def test_near_e_past_the_numeral_cap_fails_fast_at_save(self, tmp_path):
        """t = floor(e 2^k)/2^k, the near-e instance of the magnitude cap's
        test at k = 2^18 (157,827 characters): save_instance refuses it in
        well under a second, without writing its digits."""
        import time

        import mpmath

        k = 1 << 18
        with mpmath.workprec(k + 64):
            t = F(int(mpmath.floor(mpmath.e * 2**k)), 2**k)
        psi = WeightFunction({3: F(1, 3)})
        params = Params(epsilon=F(1, 4), C=F(10**5), t=t, K=F(0), p0=2, precision_bits=16)
        path = tmp_path / "near_e.json"
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="a numeral of more than"):
            save_instance(path, PairSystem(psi, psi, TOTIENT, TOTIENT, {(3, 3)}), params)
        assert time.perf_counter() - start < 1
        assert not path.exists()

    def test_rationals_as_strings(self):
        system, params = generate_instance(GeneratorConfig(seed=15), 0)
        doc = instance_document(system, params)
        for v in doc["psi"].values():
            assert isinstance(v, str) and "." not in v


class TestCampaign:
    def test_tallies_and_cleanliness(self):
        report = certify_campaign(GeneratorConfig(seed=2), 25)
        assert report.count == 25
        assert report.holds + report.violated + report.inconclusive == report.count
        assert report.clean, report.to_json()

    def test_determinism(self):
        r1 = certify_campaign(GeneratorConfig(seed=6), 10)
        r2 = certify_campaign(GeneratorConfig(seed=6), 10)
        assert r1.to_json()["holds"] == r2.to_json()["holds"]
        assert r1.rows == r2.rows

    def test_random_f_campaign(self):
        report = certify_campaign(GeneratorConfig(seed=8, f_mode="random"), 15)
        assert report.clean, report.to_json()

    def test_witness_dumped_on_failure(self, tmp_path, monkeypatch):
        from paircert.quality import BoundReport, VIOLATED
        from paircert.harness import InstanceOutcome

        real = certify_instance

        def fake(system, params, **kw):
            out = real(system, params, **kw)
            if kw.get("index", 0) == 1:
                out.verdict = VIOLATED
            return out

        monkeypatch.setattr(harness_mod, "certify_instance", fake)
        report = harness_mod.certify_campaign(
            GeneratorConfig(seed=3), 3, out_dir=tmp_path
        )
        assert report.violated == 1
        assert len(report.witness_paths) == 1
        # witness replays to the same instance
        system, params = load_instance(report.witness_paths[0])
        regen, rparams = generate_instance(GeneratorConfig(seed=3), 1)
        assert system.edges == regen.edges and params == rparams

    def test_refused_witness_is_counted(self, tmp_path, monkeypatch):
        """A non-clean instance whose K is a numeral past the cap cannot be
        saved: the campaign counts it in witnesses_refused and goes on."""
        from paircert.quality import VIOLATED

        real = certify_instance

        def fake(system, params, **kw):
            out = real(system, params, **kw)
            out.verdict = VIOLATED
            return out

        monkeypatch.setattr(harness_mod, "certify_instance", fake)
        params = Params(epsilon=F(1, 4), C=F(1), t=F(10), K=F(1, 3 * 10**arith._NUMERAL_CAP))
        report = harness_mod.certify_campaign(GeneratorConfig(seed=3, params=params), 2, out_dir=tmp_path)
        assert (report.violated, report.witnesses_refused, report.witness_paths) == (2, 2, [])
        assert report.to_json()["witnesses_refused"] == 2
        assert list(tmp_path.iterdir()) == []

    def test_count_validation(self):
        with pytest.raises(InvalidParameter):
            certify_campaign(GeneratorConfig(seed=1), 0)

    def test_csv_rows(self, tmp_path):
        report = certify_campaign(GeneratorConfig(seed=4), 5)
        out = tmp_path / "rows.csv"
        harness_mod.write_campaign_csv(report, out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 rows
        assert "verdict" in lines[0]


class TestCertifyInstanceFailures:
    """Each failure branch of certify_instance, reached by replacing one
    stage in harness.  The instance peels one vertex off E*, so E* itself
    fails property two, and its peeled set resolves."""

    system, params = make_corpus(7, 1)[0]

    def _certify(self):
        return certify_instance(self.system, self.params, rng=random.Random(5))

    def test_unpatched_instance_is_clean(self):
        out = self._certify()
        assert out.clean and out.note == ""

    def test_slice_error_counts_each_spot(self, monkeypatch):
        """A PaircertError from slice_system, here one that is a KeyError
        and no ValueError, is a failed spot."""

        def broken(*args):
            raise IncompleteDefinition("no slice")

        monkeypatch.setattr(harness_mod, "slice_system", broken)
        out = self._certify()
        assert out.slice_failures == 3 and out.peel_ok and out.resolution_ok

    def test_slice_programming_error_propagates(self, monkeypatch):
        """Any other exception from slice_system is a fault, not a failed
        identity, and propagates as it does from every other stage."""

        def broken(*args):
            raise TypeError("no slice")

        monkeypatch.setattr(harness_mod, "slice_system", broken)
        with pytest.raises(TypeError, match="no slice"):
            self._certify()

    def test_slice_identity_failure_counts_each_spot(self, monkeypatch):
        real = harness_mod.verify_slice_identities

        def failing(*args):
            rep = real(*args)
            return replace(rep, checks=[replace(rep.checks[0], status=FAILED), *rep.checks[1:]])

        monkeypatch.setattr(harness_mod, "verify_slice_identities", failing)
        out = self._certify()
        assert out.slice_failures == 3 and out.peel_ok and out.resolution_ok

    @pytest.mark.parametrize("verdict", [FAILED, INCONCLUSIVE])
    def test_peel_step_not_certified(self, monkeypatch, verdict):
        real = harness_mod.peel

        def uncertified(*args):
            res = real(*args)
            return PeelResult(res.edges, [replace(st, cert_verdict=verdict) for st in res.trace])

        monkeypatch.setattr(harness_mod, "peel", uncertified)
        out = self._certify()
        assert not out.peel_ok and out.resolution_ok and out.note == ""

    def test_property_two_failing_on_the_peeled_set(self, monkeypatch):
        monkeypatch.setattr(harness_mod, "peel", lambda system, E, params: PeelResult(E, []))
        out = self._certify()
        assert not out.peel_ok and not out.resolution_ok
        assert out.note == f"resolution: {PRECONDITION_FAILED}"

    def test_resolution_verdict_other_than_holds(self, monkeypatch):
        real = harness_mod.resolution_check
        monkeypatch.setattr(
            harness_mod, "resolution_check", lambda *a: replace(real(*a), verdict=VIOLATED)
        )
        out = self._certify()
        assert out.peel_ok and not out.resolution_ok and out.note == f"resolution: {VIOLATED}"

    def test_degenerate_measure_is_not_a_failure(self, monkeypatch):
        def degenerate(*args):
            raise DegenerateMeasure("mu(E) = 0")

        monkeypatch.setattr(harness_mod, "concentrate", degenerate)
        out = self._certify()
        assert out.clean and out.note == ""


def test_campaign_counts_inconclusive_peel_and_resolution_failures(tmp_path, monkeypatch):
    real = certify_instance
    change = {
        0: dict(verdict=INCONCLUSIVE),
        1: dict(peel_ok=False),
        2: dict(resolution_ok=False),
        3: dict(peel_ok=False, resolution_ok=False),
    }

    def fake(system, params, **kw):
        return replace(real(system, params, **kw), **change.get(kw["index"], {}))

    monkeypatch.setattr(harness_mod, "certify_instance", fake)
    report = certify_campaign(GeneratorConfig(seed=3), 5, out_dir=tmp_path)
    assert (report.holds, report.violated, report.inconclusive) == (4, 0, 1)
    assert (report.peel_contract_failures, report.resolution_failures) == (2, 2)
    assert [r["peel_ok"] for r in report.rows] == [True, False, True, False, True]
    assert len(report.witness_paths) == 4 and not report.clean


class TestGridMemo:
    """interval_eval's memo after a campaign: bounded, keyed only on
    parameter-grid values, and bit-identical to fresh computation."""

    COUNT = 200

    @staticmethod
    def _const_leaves(key):
        if key[0] == "const":
            return [key[1]]
        if key[0] in "+-*/":
            return TestGridMemo._const_leaves(key[1]) + TestGridMemo._const_leaves(key[2])
        return []

    @staticmethod
    def _recompute(key):
        if len(key) == 2:
            leaf, prec = key
            return leaf._enclose(prec)
        expr, expo, w = key
        return arith._power_enclosure(expr, expr.exact_rational(), expo, expo.exact_rational(), w)

    @staticmethod
    def _bits(value):
        if isinstance(value, arith.Interval):
            return (value.lo, value.hi, value.precision_bits)
        return value

    def test_memo_after_campaign(self):
        arith._MEMO.clear()
        config = GeneratorConfig(seed=77)
        report = certify_campaign(config, self.COUNT)
        assert report.holds == self.COUNT
        instances = [generate_instance(config, i) for i in range(self.COUNT)]
        for system, params in instances:
            main_bound_check(system, replace(params, precision_bits=1024))
        entries = dict(arith._MEMO.entries)
        assert 0 < len(entries) <= 128

        measures = {main_bound_factors(system, params)[1] for system, params in instances}
        pieces = [key for key in entries if len(key) == 3]
        assert {w for *_, w in pieces} == {256 + 32, 1024 + 32}
        for key in entries:
            exprs = [part for part in key if isinstance(part, arith.BoundExpr)]
            assert exprs
            for expr in exprs:
                leaves = self._const_leaves(expr.key)
                assert expr.integral_consts
                assert all(q.denominator == 1 and q not in measures for q in leaves)

        for key, value in entries.items():
            arith._MEMO.clear()
            assert self._bits(self._recompute(key)) == self._bits(value), key
