"""Generator determinism, persistence, rescaling, and campaigns."""

import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import paircert.harness as harness_mod
from paircert import arith
from paircert.diagonal import PeelResult
from paircert.errors import DegenerateMeasure, InvalidParameter, ResourceLimit
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
from paircert.model import PairSystem, TOTIENT, WeightFunction, mu_pairs, mu_point
from paircert.quality import (
    FAILED,
    HOLDS,
    INCONCLUSIVE,
    PRECONDITION_FAILED,
    VIOLATED,
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
        with pytest.raises(InvalidParameter, match=f"{name} 0 is below 1"):
            GeneratorConfig(**{name: 0})

    @pytest.mark.parametrize("value", [0.5, True])
    def test_float_or_bool_density_rejected(self, value):
        with pytest.raises(InvalidParameter, match="is not an exact rational"):
            GeneratorConfig(density=value)

    def test_support_max_capped(self):
        GeneratorConfig(support_max=harness_mod.SUPPORT_CAP)
        with pytest.raises(ResourceLimit, match="support_max 1001 exceeds cap 1000"):
            GeneratorConfig(support_min=1001, support_max=harness_mod.SUPPORT_CAP + 1)


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

    def test_rationals_as_strings(self):
        system, params = generate_instance(GeneratorConfig(seed=15), 0)
        doc = instance_document(system, params)
        for v in doc["psi"].values():
            assert isinstance(v, str) and "." not in v


class TestCampaign:
    def test_tallies_and_cleanliness(self):
        report = certify_campaign(GeneratorConfig(seed=2), 25)
        assert report.count == 25
        assert report.tallies_consistent
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
        def broken(*args):
            raise ValueError("no slice")

        monkeypatch.setattr(harness_mod, "slice_system", broken)
        out = self._certify()
        assert out.slice_failures == 3 and out.peel_ok and out.resolution_ok

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
        if key[0] == "below_e":
            return arith.log_of(key[1])._compare_e()
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
            assert exprs or key[0] == "below_e"
            for expr in exprs:
                leaves = self._const_leaves(expr.key)
                assert expr.integral_consts
                assert all(q.denominator == 1 and q not in measures for q in leaves)

        for key, value in entries.items():
            arith._MEMO.clear()
            assert self._bits(self._recompute(key)) == self._bits(value), key
