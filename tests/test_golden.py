"""Golden digests of the main bound and the concentration branch over a
fixed corpus.

The digests pin the canonical JSON of `main_bound_check` at 256 and 1024
bits (with the exact dyadic endpoints of the right side), `concentrate`, the
`peel` trace (with the exact dyadic endpoints of every `cert_rhs`), the
`property_two_report` rows and `resolution_check` on 32 generated instances
per generator mode plus a few hand-built edge cases. `diagonal_measure` is
compared at every prime against `_reference_diagonal_measure`, a direct
per-prime transcription of the definition kept here as the oracle, and
`mu_pairs`/`mu_set` against sums of `_reference_mu_point`, and the integer
center scan of `concentrate` against `find_center`. The corpus itself is
pinned by its canonical instance documents, and the prime-slice identity
reports by `SliceIdentityReport.to_json()` at every prime of the support
and every cell (i, j) in 0..2 x 0..2. The anatomy chains are pinned on the
(t, gamma) grid for t <= 10^5: `mertens_product`, the dyadic enclosure of
`ratio_to_log_power` and the count and divisor chain reports, with every
rational in hex (str() refuses integers past 4300 digits). The cell checks
of `bilinear_check` and `decay_hypothesis_report` (with their exact dyadic
bounds) and the decay report's lambda, c1 and tail-ratio verdicts are
pinned at every prime of the support of the hand cases and of the first
`CELL_CHECK_INSTANCES` instances of each generated mode. `resolution_check`
is also pinned on each instance's full edge set and on its concentrated E*,
where it mostly stops at a failed precondition: those digests cover the
structured, combinatorial and containment witnesses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from fractions import Fraction as F

import pytest

from paircert.anatomy import (
    count_chain_report,
    divisor_chain_report,
    mertens_product,
    ratio_to_log_power,
)
from paircert.arith import Interval, valuation
from paircert.compress import VACUOUS, slice_system, verify_slice_identities
from paircert.diagonal import (
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
from paircert.errors import DegenerateMeasure, PaircertError
from paircert.harness import GeneratorConfig, generate_instance, instance_document
from paircert.model import (
    MultiplicativeFunction,
    PairSystem,
    TOTIENT,
    WeightFunction,
    mu_pairs,
    mu_point,
    mu_set,
)
from paircert.quality import main_bound_check, prime_support, restrict
from paircert.resolution import resolution_check

from conftest import small_params

CORPUS_SIZE = 32
SEEDS = {"totient": 4242, "random": 4243}

GOLDEN = {
    "totient": {
        "concentrate": "a4d8bb015f4511d030a70a8a6ec264438d08fbd19a0ad74784854b87c6af4d66",
        "peel": "90bae2855e00e6edf5a9bf87332d11ec7413663695daabc8ab43a06a76e76524",
        "property_two": "579d09eae0dbee31a02ceb00c7a47e44f65fb3d1dcc71d3c16d28e1b30fd47f1",
        "resolution": "726398bb156754420aa07dd36234ea6f728a303f594ac937b0f3e2e558f8711d",
    },
    "random": {
        "concentrate": "6b1ac44825b6fd7b5d92df075cb52b967dbf4fc69d823dceb8d0084953a3062c",
        "peel": "5fd0544225e13655c50103b9f14f6df1928031ce2d316eed2bc3e59839849473",
        "property_two": "089a7042b994f6dfdfacdd4d1585d08105c2fc6910124cdfa0d27c83b36ccf84",
        "resolution": "90998d2178df117436d85f00c5d8c0c73c5f593a13869a20a4325aaf02db5be4",
    },
    "hand": {
        "concentrate": "1684f308b8ffacce44fe193759ca9fe1e57cd65a7df430eaa4d519b5b70c0ca8",
        "peel": "bf343d792047a34e75c1fb3ae1918c0c785d5cb40ee1f2b7ad47b4ecf206d6ea",
        "property_two": "330f1abfbdc3104f209d2e67948981dec5d4ff02308ef62a36ef08c403e58ea7",
        "resolution": "5e6f7cee3ff848ac7184501a052d47ac78f4446474495255bd0e7dd74842c622",
    },
}

MAIN_BOUND_BITS = (256, 1024)
GOLDEN_MAIN_BOUND = {
    "totient": "ba7ae179ed2b5472a80b8bfbf543ad922b8edbf3c5d0f8bb44e31483244c55ee",
    "random": "f18f902a2964df72b91ea3f6a79c15878ee3bb48b931894208e9cbe7e372264e",
    "hand": "97f698c2fd1bedceabb6be13b70d1bdd588657e52c32d5be9933e3f7b898f175",
}

GOLDEN_INSTANCES = {
    "totient": "aef59a00c49fd65b5bd95a0250e1dded3540edaaf3fc058ead2e6833cc9d420d",
    "random": "599807e12a7b858f0ff5f5653b56afeddb78f9b84ca3358766bf075ca7e5e339",
    "hand": "d30fea1eda4dd64af322c5401f299f1ee5c91209832b5c82e55da55eb4c2dd4e",
}

SLICE_EXPONENTS = range(3)
GOLDEN_SLICE_REPORTS = {
    "totient": "d3c0f2f1f5ee56ce9b6c29ebabeff41097ce3a732c1408f916943d9b513893d7",
    "random": "d33fb70f52fb30ec18c9dd1cd95f4d7f20a085a33f104613d89ab6b112cf9d0b",
    "hand": "adca7e51fe33189294abb61264e8d2726d75751df66e55fb319d6f18a35df3d0",
}

CELL_CHECK_INSTANCES = 8
GOLDEN_CELL_CHECKS = {
    "totient": "80a8a9dacf9fe9ff62d2455f27d9f285c60adeabb24d52c568629cd61da2ca82",
    "random": "85f2f6c679feddc5a339c4508bf187fd26146167ecf6d1a6f16fb22ae8d2ece3",
    "hand": "58f64ff08972bca1721cbe419740c9ab29d979e72493f2bf6d5df7ae8d5a6088",
}

GOLDEN_RESOLUTION_PRECONDITIONS = {
    "totient": "005b5157d8f85bd65835ea4fad7d1975ab84c10cc7e48c9e06de2fde297ec301",
    "random": "3bb8fd8047470aab02913190b6747088edbe6a0503f0ce72a418b5fb3e299bd9",
    "hand": "73f107b6669c70663067571a993a27f97c09f871b90974cee3d78708f0b40c8f",
}

# The anatomy grid: t, then per gamma the count chain's x and the divisor
# chain's M (highly composite, under the 10^7 factorization cap).
ANATOMY_TS = (300, 10**3, 3 * 10**3, 10**4, 3 * 10**4, 10**5)
ANATOMY_GAMMAS = (
    (F(3, 2), 150_000, 720720),
    (F(2), 200_000, 8648640),
    (F(5, 2), 250_000, 9699690),
)
ANATOMY_COUNT_K = 3
ANATOMY_DIVISOR_K = 2
GOLDEN_ANATOMY = {
    "mertens_product": "c044191599ebc5e729db7c94a2952589708bdcf2ebf3bfb6026ab5649da2f64b",
    "ratio_to_log_power": "70f804f67155c85c68864121e4b27c491c09139060bf791f79cd81d799c9f81f",
    "count_chain": "c67330eb9294e74b636e91d638b4aaf04432d3eddb06afeeb2648fcc41f482ed",
    "divisor_chain": "53ba28642cbccc6069d2d3bb3e2b051a65907759c1dc435110e2972d54c5b077",
    "mertens_product_3e5": "677ce7c92aa3c20fdc7271f4fb328ca84b6f0a0a601c1c22534ac0bbec61c245",
}


def _reference_mu_point(f, weight, x):
    """mu(x) = f(x) weight(x) / x, zero off the support."""
    return f(x) * weight.value(x) / x


def _reference_diagonal_measure(system, edges, p):
    """The per-prime definition: cells, alpha and beta summed point by point."""
    E = frozenset(edges)
    total = F(0)
    cells = {}
    for v, w in E:
        mass = mu_point(system.f, system.psi, v) * mu_point(system.g, system.theta, w)
        total += mass
        if mass == 0:
            continue
        key = (valuation(p, v), valuation(p, w))
        cells[key] = cells.get(key, F(0)) + mass
    if total == 0:
        raise DegenerateMeasure("mu(E) = 0")
    cells = {k: m / total for k, m in cells.items()}

    def marginal(f, weight):
        masses = {x: mu_point(f, weight, x) for x in weight.support()}
        whole = sum(masses.values(), F(0))
        out = {}
        for x, m in masses.items():
            if m:
                i = valuation(p, x)
                out[i] = out.get(i, F(0)) + m / whole
        return out

    alpha = marginal(system.f, system.psi)
    beta = marginal(system.g, system.theta)
    return DiagonalMeasure(p, cells, alpha, beta, total)


def _hand_cases():
    params = small_params()
    zero_f = MultiplicativeFunction({(2, 1): 0, (3, 1): F(2), (5, 1): F(4), (7, 1): F(6)})
    cases = [
        PairSystem(
            WeightFunction({3: F(1, 3), 2: F(1, 2)}),
            WeightFunction({5: F(1, 5000), 7: F(1, 7)}),
            zero_f,
            TOTIENT,
            {(3, 5), (3, 7), (2, 5)},
        ),
        PairSystem(
            WeightFunction({2: F(1, 2), 3: F(1, 3)}),
            WeightFunction({5: F(1, 5000), 7: F(1, 7)}),
            TOTIENT,
            TOTIENT,
            {(2, 5), (2, 7), (3, 5)},
        ),
        PairSystem(
            WeightFunction({4: F(1, 4), 12: F(1, 6), 9: F(1, 9), 1: F(1)}),
            WeightFunction({2: F(1, 2), 8: F(1, 8), 27: F(1, 27), 6: F(1, 3)}),
            TOTIENT,
            TOTIENT,
            {(4, 2), (4, 8), (12, 6), (9, 27), (1, 2), (12, 8), (9, 6), (1, 27)},
        ),
    ]
    return [(system, params) for system in cases]


def _corpus(mode, size=CORPUS_SIZE):
    if mode == "hand":
        return _hand_cases()
    cfg = GeneratorConfig(seed=SEEDS[mode], f_mode=mode)
    return [generate_instance(cfg, i) for i in range(size)]


def _exact_interval(iv):
    if not isinstance(iv, Interval):
        return None
    return [[format(iv.lo.man, "x"), iv.lo.exp], [format(iv.hi.man, "x"), iv.hi.exp]]


def _peel_doc(res):
    return {
        "edges": sorted(res.edges),
        "trace": [
            dict(st.to_json(), cert_rhs_exact=_exact_interval(st.cert_rhs))
            for st in res.trace
        ],
    }


def _rows_doc(rows):
    return [[side, x, str(mass), str(thr), ok] for side, x, mass, thr, ok in rows]


def _resolution_doc(rep):
    doc = rep.to_json()
    doc["majorant_exact"] = _exact_interval(rep.majorant)
    doc["headline_ratio_exact"] = _exact_interval(rep.headline_ratio)
    return doc


def _stage_documents(mode):
    """Per stage, one canonical document for each corpus instance."""
    docs = {"concentrate": [], "peel": [], "property_two": [], "resolution": []}
    for system, params in _corpus(mode):
        try:
            conc = concentrate(system, system.edges, params)
        except DegenerateMeasure:
            for stage in docs:
                docs[stage].append("degenerate")
            continue
        docs["concentrate"].append(conc.to_json())
        peeled_star = peel(system, conc.edges_star, params)
        peeled_full = peel(system, system.edges, params)
        docs["peel"].append([_peel_doc(peeled_star), _peel_doc(peeled_full)])
        docs["property_two"].append(
            [
                _rows_doc(property_two_report(system, system.edges, params)),
                _rows_doc(property_two_report(system, conc.edges_star, params)),
                _rows_doc(property_two_report(system, peeled_star.edges, params)),
            ]
        )
        docs["resolution"].append(
            _resolution_doc(
                resolution_check(
                    system, peeled_star.edges, conc.N, params, compute_ratio=True
                )
            )
            if peeled_star.edges
            else None
        )
    return docs


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_golden_digests(mode):
    docs = _stage_documents(mode)
    assert {stage: _digest(doc) for stage, doc in docs.items()} == GOLDEN[mode]


def _precondition_documents(mode):
    """resolution_check on E and on E*, or "degenerate" when mu(E) = 0."""
    docs = []
    for system, params in _corpus(mode):
        try:
            conc = concentrate(system, system.edges, params)
        except DegenerateMeasure:
            docs.append("degenerate")
            continue
        docs.append(
            [
                resolution_check(system, edges, conc.N, params).to_json()
                for edges in (system.edges, conc.edges_star)
            ]
        )
    return docs


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_resolution_precondition_digests(mode):
    docs = _precondition_documents(mode)
    assert _digest(docs) == GOLDEN_RESOLUTION_PRECONDITIONS[mode]


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_property_two_holds_iff_peel_takes_no_step(mode):
    """property_two_report and peel decide property two by one inequality,
    so E and E* pass it exactly when peel removes nothing."""
    for system, params in _corpus(mode):
        try:
            star = concentrate(system, system.edges, params).edges_star
        except DegenerateMeasure:
            star = frozenset()
        for edges in (system.edges, star):
            holds = property_two_holds(system, edges, params)
            assert holds == (peel(system, edges, params).steps == 0)


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_diagonal_measure_matches_reference(mode):
    compared = 0
    for system, params in _corpus(mode):
        if not system.edges:
            continue
        conc = None
        try:
            conc = concentrate(system, system.edges, params)
        except DegenerateMeasure:
            pass
        edge_sets = [system.edges] + ([conc.edges_star] if conc else [])
        primes = prime_support(system.psi, system.theta) + (53,)
        for edges in edge_sets:
            for p in primes:
                try:
                    want = _reference_diagonal_measure(system, edges, p)
                except DegenerateMeasure:
                    with pytest.raises(DegenerateMeasure):
                        diagonal_measure(system, edges, p)
                    continue
                got = diagonal_measure(system, edges, p)
                assert got == want
                assert got.to_json() == want.to_json()
                compared += 1
    assert compared >= 20


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_main_bound_digests(mode):
    docs = [
        [
            main_bound_check(system, replace(params, precision_bits=bits)).to_json()
            for bits in MAIN_BOUND_BITS
        ]
        for system, params in _corpus(mode)
    ]
    assert _digest(docs) == GOLDEN_MAIN_BOUND[mode]


def _cells_doc(checks):
    return [
        [c.i, c.j, str(c.mass), c.verdict, _exact_interval(c.bound) or str(c.bound)]
        for c in checks
    ]


def _cell_check_documents(system, params):
    """Per prime of the support, the bilinear and decay cell checks and the
    decay report's verdicts, or "degenerate" when mu(E) = 0."""
    out = []
    for p in system.primes:
        try:
            dm = diagonal_measure(system, system.edges, p)
        except DegenerateMeasure:
            out.append("degenerate")
            continue
        decay = decay_hypothesis_report(dm, params)
        out.append(
            {
                "bilinear": _cells_doc(bilinear_check(dm, params)),
                "decay": _cells_doc(decay.cell_checks),
                "lambda_in_range": decay.lambda_in_range,
                "c1_lower_ok": decay.c1_lower_ok,
                "tail_ratio": _exact_interval(decay.tail_ratio),
            }
        )
    return out


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_cell_check_digests(mode):
    docs = [
        _cell_check_documents(system, params)
        for system, params in _corpus(mode, CELL_CHECK_INSTANCES)
    ]
    assert _digest(docs) == GOLDEN_CELL_CHECKS[mode]


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_measures_match_reference(mode):
    for system, _ in _corpus(mode):
        def mass_v(v):
            return _reference_mu_point(system.f, system.psi, v)

        def mass_w(w):
            return _reference_mu_point(system.g, system.theta, w)

        edges = sorted(system.edges)
        for E in (edges, edges[::2], []):
            assert mu_pairs(system, E) == sum((mass_v(v) * mass_w(w) for v, w in E), F(0))
        assert mu_pairs(system) == mu_pairs(system, edges)
        vs, ws = restrict(edges)
        for S in (system.psi.support(), vs):
            assert mu_set(system.f, system.psi, S) == sum(map(mass_v, S), F(0))
        for S in (system.theta.support(), ws):
            assert mu_set(system.g, system.theta, S) == sum(map(mass_w, S), F(0))


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_instance_digests(mode):
    docs = [instance_document(system, params) for system, params in _corpus(mode)]
    assert _digest(docs) == GOLDEN_INSTANCES[mode]


def _slice_reports(system, params):
    """The identity report of every (p, i, j) slice, or the error's type."""
    out = []
    for p in prime_support(system.psi, system.theta):
        for i in SLICE_EXPONENTS:
            for j in SLICE_EXPONENTS:
                try:
                    s = slice_system(system, p, i, j)
                except PaircertError as exc:
                    out.append(type(exc).__name__)
                    continue
                out.append(verify_slice_identities(system, s, params.t).to_json())
    return out


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_slice_report_digests(mode):
    docs = [_slice_reports(system, params) for system, params in _corpus(mode)]
    assert _digest(docs) == GOLDEN_SLICE_REPORTS[mode]
    if mode == "hand":
        # the zero f(2) of the first hand case makes (a) and (c) vacuous
        statuses = {c["status"] for rep in docs[0] if isinstance(rep, dict) for c in rep["checks"]}
        assert VACUOUS in statuses


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_center_scans_agree(mode):
    """concentrate's integer center at every prime, on E and on E*, is
    find_center's on the validated DiagonalMeasure, tail included."""
    compared = 0
    for system, params in _corpus(mode):
        try:
            conc = concentrate(system, system.edges, params)
        except DegenerateMeasure:
            continue
        for edges in (system.edges, conc.edges_star):
            total, cells = _edge_cells(*system.masses, frozenset(edges))
            if total == 0:
                continue
            for p in system.primes:
                k, tail = _center_scan(_with_origin(cells.get(p, {}), total, (0, 0)))
                want = find_center(diagonal_measure(system, edges, p))
                assert (k, F(tail, total)) == (want.k, want.tail_mass)
                if edges is system.edges:
                    assert conc.centers[p] == max(0, k)
                compared += 1
    assert compared >= 20


def test_primes_with_an_empty_side():
    psi = WeightFunction({6: F(1, 6), 35: F(1, 35)})
    empty = WeightFunction({})
    for a, b in ((psi, empty), (empty, psi), (empty, empty)):
        system = PairSystem(a, b, TOTIENT, TOTIENT)
        assert system.primes == ()
    system = PairSystem(psi, WeightFunction({11: F(1, 11)}), TOTIENT, TOTIENT)
    assert system.primes == (2, 3, 5, 7, 11)


def _frac_hex(x):
    return f"{x.numerator:x}/{x.denominator:x}"


def _anatomy_doc(rep):
    mert = rep.mertens_bound
    return [
        _frac_hex(rep.exact_value),
        _frac_hex(rep.rankin_bound),
        _frac_hex(mert) if isinstance(mert, F) else _exact_interval(mert),
        _frac_hex(rep.gamma),
        rep.chain_holds,
    ]


def test_anatomy_digests():
    docs = {stage: [] for stage in GOLDEN_ANATOMY if stage != "mertens_product_3e5"}
    for t in ANATOMY_TS:
        for gamma, x, M in ANATOMY_GAMMAS:
            docs["mertens_product"].append(_frac_hex(mertens_product(t, gamma)))
            docs["ratio_to_log_power"].append(_exact_interval(ratio_to_log_power(t, gamma)))
            count = count_chain_report(x, t, ANATOMY_COUNT_K, gamma)
            divisor = divisor_chain_report(M, t, ANATOMY_DIVISOR_K, gamma, TOTIENT)
            assert count.chain_holds and divisor.chain_holds, (t, gamma)
            docs["count_chain"].append(_anatomy_doc(count))
            docs["divisor_chain"].append(_anatomy_doc(divisor))
    got = {stage: _digest(doc) for stage, doc in docs.items()}
    got["mertens_product_3e5"] = _digest(_frac_hex(mertens_product(3 * 10**5, F(3, 2))))
    assert got == GOLDEN_ANATOMY
