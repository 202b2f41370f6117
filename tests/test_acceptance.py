"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every comparison here is
either bit-exact rational arithmetic or a certified interval verdict; there
are no tolerances to tune.
"""

import json
import random
import time
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from paircert.anatomy import (
    count_many_small_primes,
    divisor_anatomy_bound,
    divisor_anatomy_sum,
    mertens_product,
    rankin_sum,
    ratio_to_log_power,
)
from paircert.compress import slice_system, verify_slice_identities
from paircert.diagonal import (
    DiagonalMeasure,
    concentrate,
    diagonal_measure,
    find_center,
    peel,
    property_two_report,
)
from paircert.harness import GeneratorConfig, certify_campaign, generate_instance
from paircert.model import PairSystem, TOTIENT, WeightFunction, mu_pairs
from paircert.quality import (
    HOLDS,
    build_edge_set,
    build_edge_set_bruteforce,
    prime_support,
    restrict,
)
from paircert.resolution import build_decomposition, check_structured, resolution_check

DATA_DIR = Path(__file__).parent / "data"


def _passline(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: {text} ... PASS")


def test_criterion_1_slice_identity_suite():
    """Identities (a)-(f) hold exactly on >= 1000 randomized slices
    (supports <= 200, i, j <= 3); zero failures; < 60 s."""
    t0 = time.monotonic()
    rng = random.Random(1001)
    slices = 0
    failures = 0
    index = 0
    while slices < 1000:
        index += 1
        big = index % 25 == 0
        cfg = GeneratorConfig(
            seed=52 + index,
            support_min=80 if big else 4,
            support_max=200 if big else 40,
            f_mode="random" if index % 3 == 0 else "totient",
        )
        system, params = generate_instance(cfg, 0)
        ps = prime_support(system.psi, system.theta)
        if not ps:
            continue
        for _ in range(5):
            p = rng.choice(ps)
            i, j = rng.randint(0, 3), rng.randint(0, 3)
            s = slice_system(system, p, i, j)
            rep = verify_slice_identities(system, s, params.t)
            if not rep.all_hold:
                failures += 1
                print(rep.to_json())
            slices += 1
    elapsed = time.monotonic() - t0
    assert failures == 0
    assert slices >= 1000
    assert elapsed < 60, f"slice suite took {elapsed:.1f}s"
    _passline(1, f"slice identity suite ({slices} slices, {elapsed:.1f}s, 0 failures)")


def test_criterion_2_anatomy_exact_chains():
    """Rankin count chain on the grid and the divisor chain for all
    M <= 5000 with f = totient; zero failures; < 5 min."""
    t0 = time.monotonic()
    ts = (2, 10, 100)
    ks = range(0, 7)
    gammas = (F(3, 2), F(2), F(4))
    xs = (1, 9, 10, 99, 100, 463, 1000, 4096, 9999, 10_000)
    checks = 0
    for x in xs:
        for t in ts:
            rs = {g: rankin_sum(x, t, g) for g in gammas}
            for K in ks:
                cnt = count_many_small_primes(x, t, K)
                for g in gammas:
                    assert cnt <= g ** (-K) * rs[g], (x, t, K, g)
                    checks += 1
    for M in range(1, 5001):
        for t in ts:
            for K in ks:
                exact = divisor_anatomy_sum(M, t, K, TOTIENT)
                for g in gammas:
                    bound = divisor_anatomy_bound(M, t, K, g)
                    assert exact <= bound, (M, t, K, g)
                    checks += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"anatomy grid took {elapsed:.1f}s"
    _passline(2, f"anatomy exact chains ({checks} comparisons, {elapsed:.1f}s)")


def test_criterion_3_spot_values():
    """divisor_anatomy_sum(12,10,1,phi) = 8 and bound(12,10,1,2) = 12."""
    assert divisor_anatomy_sum(12, 10, 1, TOTIENT) == 8
    assert divisor_anatomy_bound(12, 10, 1, 2) == 12
    _passline(3, "spot values 8 and 12, exact")


def test_criterion_4_bruteforce_equivalence():
    """build_edge_set equals the unoptimized double-loop oracle on 200
    random instances with |V|, |W| <= 200; byte-identical serializations."""
    t0 = time.monotonic()
    for index in range(200):
        big = index % 10 == 0
        cfg = GeneratorConfig(
            seed=4000 + index,
            support_min=100 if big else 5,
            support_max=200 if big else 80,
            density=F(1, 2) if index % 2 else F(4, 5),
        )
        system, params = generate_instance(cfg, 0)
        fast = build_edge_set(system.psi, system.theta, params.t, params.K)
        slow = build_edge_set_bruteforce(system.psi, system.theta, params.t, params.K)
        fast_bytes = json.dumps(sorted(fast)).encode()
        slow_bytes = json.dumps(sorted(slow)).encode()
        assert fast_bytes == slow_bytes, index
    elapsed = time.monotonic() - t0
    _passline(4, f"brute-force edge-set equivalence (200 instances, {elapsed:.1f}s)")


def test_criterion_5_peeling_contract():
    """Peel output satisfies both degree inequalities at every vertex,
    terminates within |V| + |W| steps, and every removal certificate is
    conclusive."""
    t0 = time.monotonic()
    instances = 0
    index = 0
    while instances < 200:
        index += 1
        cfg = GeneratorConfig(
            seed=7000 + index,
            f_mode="random" if index % 4 == 0 else "totient",
            support_min=3,
            support_max=16,
        )
        system, params = generate_instance(cfg, 0)
        E = system.edges
        if not E:
            continue
        vs, ws = restrict(E)
        result = peel(system, E, params)
        assert result.steps <= len(vs) + len(ws)
        rows = property_two_report(system, result.edges, params)
        assert all(ok for *_, ok in rows), (index, rows)
        inv_qp = 1 / params.q_prime
        a, b = inv_qp.numerator, inv_qp.denominator
        for st in result.trace:
            if st.cert_verdict == "vacuous":
                assert st.mu_side_after == st.mu_side_before
                continue
            assert st.cert_verdict == HOLDS, st
            # independent exact route for the same strict inequality
            assert (st.mu_edges_after / st.mu_edges_before) ** b > (
                st.mu_side_after / st.mu_side_before
            ) ** a
        instances += 1
    elapsed = time.monotonic() - t0
    _passline(5, f"peeling contract (200 instances, {elapsed:.1f}s)")


def test_criterion_6_structure_suite():
    """Reconstruction, pairwise coprimality, the four-factor identity
    edge-by-edge, and the exact squared splitting inequality on every
    instance passing peel + the shape check."""
    t0 = time.monotonic()
    structured = 0
    edges_checked = 0
    index = 0
    while structured < 60:
        index += 1
        cfg = GeneratorConfig(
            seed=9000 + index,
            f_mode="random" if index % 3 == 0 else "totient",
        )
        system, params = generate_instance(cfg, 0)
        if mu_pairs(system) == 0:
            continue
        conc = concentrate(system, system.edges, params)
        peeled = peel(system, conc.edges_star, params)
        if not peeled.edges:
            continue
        ok, wit = check_structured(peeled.edges, conc.N)
        assert ok, wit
        dec = build_decomposition(peeled.edges, conc.N)
        for v, w in peeled.edges:
            vm, vp = dec.v_parts[v]
            wm, wp = dec.w_parts[w]
            assert v * vm == conc.N * vp
            assert w * wm == conc.N * wp
            quad = (vm, vp, wm, wp)
            for x in range(4):
                for y in range(x + 1, 4):
                    assert gcd(quad[x], quad[y]) == 1
            g = gcd(v, w)
            assert vm * vp * wm * wp == (v * w) // (g * g)
            edges_checked += 1
        rep = resolution_check(system, peeled.edges, conc.N, params)
        assert rep.verdict == "holds", rep.to_json()
        structured += 1
    elapsed = time.monotonic() - t0
    _passline(
        6,
        f"structure suite ({structured} structured sets, "
        f"{edges_checked} edges, {elapsed:.1f}s)",
    )


def test_criterion_7_certification_campaign(tmp_path):
    """10^4 generated instances at default parameters (p0 = 100, 256-bit):
    zero violated, zero residual inconclusive; <= 30 min."""
    t0 = time.monotonic()
    rep_tot = certify_campaign(GeneratorConfig(seed=20250809), 7000, out_dir=tmp_path)
    rep_rand = certify_campaign(
        GeneratorConfig(seed=20250810, f_mode="random"), 3000, out_dir=tmp_path
    )
    elapsed = time.monotonic() - t0
    total = rep_tot.count + rep_rand.count
    assert total == 10_000
    for rep in (rep_tot, rep_rand):
        assert rep.holds + rep.violated + rep.inconclusive == rep.count
        assert rep.violated == 0, rep.to_json()
        assert rep.inconclusive == 0, rep.to_json()
        assert rep.slice_identity_failures == 0
        assert rep.peel_contract_failures == 0
        assert rep.resolution_failures == 0
        assert rep.witness_paths == []
    assert rep_tot.holds + rep_rand.holds == 10_000
    assert elapsed < 1800, f"campaign took {elapsed:.1f}s"
    _passline(7, f"certification campaign (10000 instances, {elapsed:.1f}s, all hold)")


def test_criterion_8_diagonal_optimality():
    """find_center is exactly minimal under a +-5 extended scan on 500
    random measures; cells and marginals each sum to exactly 1."""
    t0 = time.monotonic()
    rng = random.Random(8080)
    measures = []
    index = 0
    while len(measures) < 250:
        index += 1
        system, params = generate_instance(GeneratorConfig(seed=11000 + index), 0)
        if mu_pairs(system) == 0:
            continue
        ps = prime_support(system.psi, system.theta)
        measures.append(diagonal_measure(system, system.edges, rng.choice(ps)))
    while len(measures) < 500:
        n = rng.randint(1, 7)
        cells: dict = {}
        for _ in range(n):
            key = (rng.randint(0, 6), rng.randint(0, 6))
            cells[key] = cells.get(key, F(0)) + F(rng.randint(1, 9))
        total = sum(cells.values())
        cells = {k: v / total for k, v in cells.items()}
        measures.append(
            DiagonalMeasure(rng.choice([2, 3, 5]), cells, {0: F(1)}, {0: F(1)}, F(1))
        )
    for dm in measures:
        assert sum(dm.cells.values()) == 1
        assert sum(dm.alpha.values()) == 1
        assert sum(dm.beta.values()) == 1
        res = find_center(dm)
        idx = sorted({i for i, _ in dm.cells} | {j for _, j in dm.cells})
        for k in range(min(idx) - 6, max(idx) + 7):
            tail = sum(
                (m for (i, j), m in dm.cells.items() if abs(i - k) + abs(j - k) >= 2),
                F(0),
            )
            assert tail >= res.tail_mass, (dm.cells, k)
    elapsed = time.monotonic() - t0
    _passline(8, f"diagonal center optimality (500 measures, {elapsed:.1f}s)")


def test_criterion_9_mertens_regression():
    """The deterministic ratio prod/(Log t)^(gamma-1) at gamma = 2 matches
    the committed band bit-for-bit."""
    band_file = DATA_DIR / "mertens_band.json"
    assert band_file.exists(), f"missing committed band {band_file}"
    stored = json.loads(band_file.read_text())
    for t in (100, 10_000, 1_000_000):
        iv = ratio_to_log_power(t, 2, 256)
        got = {"lo_man": iv.lo.man, "lo_exp": iv.lo.exp, "hi_man": iv.hi.man, "hi_exp": iv.hi.exp}
        ref = stored[str(t)]
        for key in ("lo_man", "lo_exp", "hi_man", "hi_exp"):
            assert str(got[key]) == str(ref[key]), (t, key)
    _passline(9, "mertens diagnostic matches the stored band exactly")
