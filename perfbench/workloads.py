"""The benchmark's workloads: fixed corpora of verdicts over paircert's public API.

Each workload is a fixed, ordered corpus of keys (the benchmark's --seed only
permutes the order), so that every verdict's canonical document can be pinned
by digest and every run does the same work. For one key a workload can

- ``run`` it untraced, the way a user would: the timed verdict;
- ``check`` that result outside the timed region, returning the canonical
  document whose digest is pinned and the reason the verdict is not clean, if
  it is not (``deep=False`` leaves out what only a recomputation can give);
- ``run_traced`` it stage by stage, each public call wrapped in a span, which
  returns the same document plus per-layer counts.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from paircert import (
    GeneratorConfig,
    Interval,
    MultiplicativeFunction,
    certify_instance,
    concentrate,
    count_chain_report,
    divisor_chain_report,
    generate_instance,
    main_bound_check,
    mertens_product,
    mu_pairs,
    peel,
    prime_support,
    property_two_holds,
    ratio_to_log_power,
    resolution_check,
    slice_system,
    verify_slice_identities,
)
from paircert.errors import DegenerateMeasure
from paircert.harness import InstanceOutcome
from paircert.quality import HOLDS

# The criterion-7 campaign streams.
TOTIENT_SEED = 20250809
RANDOM_SEED = 20250810

SLICE_SPOTS = 3  # certify_instance's default

STREAMS = {
    "totient": GeneratorConfig(seed=TOTIENT_SEED),
    "random": GeneratorConfig(seed=RANDOM_SEED, f_mode="random"),
}


def direct(_name, fn, *args):
    """The untraced stand-in for Tracer.call."""
    return fn(*args)


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def key_str(key: tuple) -> str:
    return "/".join(str(part) for part in key)


def _interval_doc(iv: Optional[Interval]):
    """Exact dyadic endpoints, as (mantissa hex, exponent) pairs."""
    if not isinstance(iv, Interval):
        return None
    return [[format(iv.lo.man, "x"), iv.lo.exp], [format(iv.hi.man, "x"), iv.hi.exp]]


def _frac_doc(x: Fraction) -> str:
    # hex, because str() of an integer past 4300 digits raises ValueError
    return f"{x.numerator:x}/{x.denominator:x}"


# ---------------------------------------------------------------------------
# Pair-system workload: campaign
# ---------------------------------------------------------------------------


@dataclass
class Deep:
    """The concentrate -> peel -> property two -> resolution branch of
    certify_instance, with every intermediate result kept."""

    conc: object = None
    peeled: object = None
    property_two: Optional[bool] = None
    resolution: object = None
    degenerate: bool = False
    peel_ok: bool = True
    resolution_ok: bool = True
    note: str = ""

    def doc(self) -> dict:
        peeled = None
        if self.peeled is not None:
            peeled = _peel_doc(self.peeled)
        return {
            "concentrate": self.conc.to_json() if self.conc is not None else None,
            "peel": peeled,
            "property_two": self.property_two,
            "resolution": self.resolution.to_json() if self.resolution is not None else None,
            "degenerate": self.degenerate,
        }


def _peel_doc(result) -> dict:
    steps = []
    for st in result.trace:
        row = st.to_json()
        row["cert_rhs_dyadic"] = _interval_doc(st.cert_rhs)
        steps.append(row)
    return {"edges": sorted(result.edges), "steps": steps}


def deep_stages(system, params, call: Callable) -> Deep:
    """Stage-by-stage copy of certify_instance's concentration branch: same
    calls, same order, same tests for peel_ok and resolution_ok."""
    d = Deep()
    if call("model.mu_pairs", mu_pairs, system) <= 0:
        return d
    try:
        d.conc = call("diagonal.concentrate", concentrate, system, system.edges, params)
        d.peeled = call("diagonal.peel", peel, system, d.conc.edges_star, params)
        vs = {v for v, _ in d.conc.edges_star}
        ws = {w for _, w in d.conc.edges_star}
        if d.peeled.steps > len(vs) + len(ws):
            d.peel_ok = False
        d.property_two = call(
            "diagonal.property_two", property_two_holds, system, d.peeled.edges, params
        )
        if not d.property_two:
            d.peel_ok = False
        for st in d.peeled.trace:
            if st.cert_verdict not in (HOLDS, "vacuous"):
                d.peel_ok = False
        if d.peeled.edges:
            d.resolution = call(
                "resolution.check",
                resolution_check,
                system,
                d.peeled.edges,
                d.conc.N,
                params,
            )
            if d.resolution.verdict != "holds":
                d.resolution_ok = False
                d.note = f"resolution: {d.resolution.verdict}"
    except DegenerateMeasure:
        d.degenerate = True
    return d


@dataclass(frozen=True)
class PairWorkload:
    name: str
    why: str
    keys: tuple  # (stream, index) pairs
    root_span: str = "harness.certify_instance"

    @property
    def seeds(self) -> dict:
        return {s: STREAMS[s].seed for s in sorted({k[0] for k in self.keys})}

    @property
    def sieve_t(self) -> int:
        # generate_instance sieves its prime pool; factorize extends that
        # sieve to sqrt(n) lazily, inside the verdicts
        return max(STREAMS[s].prime_pool_bound for s, _ in self.keys)

    @staticmethod
    def instance(key):
        return generate_instance(STREAMS[key[0]], key[1])

    @staticmethod
    def slice_rng(key) -> random.Random:
        # certify_campaign's per-instance slice seed
        return random.Random((STREAMS[key[0]].seed << 32) + (key[1] << 8) + 1)

    def run(self, key):
        system, params = self.instance(key)
        outcome = certify_instance(
            system, params, rng=self.slice_rng(key), slice_spots=SLICE_SPOTS, index=key[1]
        )
        return system, params, outcome

    def check(self, key, result, deep: bool = True):
        """The verdict document. With deep, the concentration branch is
        recomputed stage by stage (certify_instance keeps its intermediate
        results to itself), must agree with the outcome, and is included."""
        system, params, outcome = result
        problem = None if outcome.clean else "not-clean"
        if not deep:
            return self._doc(key, outcome, None), problem
        branch = deep_stages(system, params, direct)
        if (branch.peel_ok, branch.resolution_ok, branch.note) != (
            outcome.peel_ok,
            outcome.resolution_ok,
            outcome.note,
        ):
            problem = "pipeline-mismatch"
        return self._doc(key, outcome, branch), problem

    def run_traced(self, key, call: Callable):
        """certify_instance stage by stage, then the document and counts."""
        system, params = call("harness.generate", self.instance, key)
        bound = call("quality.main_bound", main_bound_check, system, params)
        rng = self.slice_rng(key)
        slice_failures = 0
        ps = call("quality.prime_support", prime_support, system.psi, system.theta)
        if ps:
            for _ in range(SLICE_SPOTS):
                p = rng.choice(ps)
                i = rng.randint(0, 3)
                j = rng.randint(0, 3)
                try:
                    s = call("compress.slice", slice_system, system, p, i, j)
                except Exception:  # certify_instance counts any slice error
                    slice_failures += 1
                    continue
                rep = call("compress.verify_slice", verify_slice_identities, system, s, params.t)
                if not rep.all_hold:
                    slice_failures += 1
        deep = deep_stages(system, params, call)
        outcome = InstanceOutcome(
            key[1], bound.verdict, bound, slice_failures,
            deep.peel_ok, deep.resolution_ok, deep.note,
        )
        counts = {
            "diagonal.concentrate_edges_in": len(system.edges) if deep.conc else 0,
            "diagonal.concentrate_edges_kept": len(deep.conc.edges_star) if deep.conc else 0,
            "diagonal.peel_steps": deep.peeled.steps if deep.peeled else 0,
            "quality.main_bound_escalations": int(bound.precision_bits > params.precision_bits),
            "compress.identity_failures": slice_failures,
            "resolution.non_holds": int(
                deep.resolution is not None and deep.resolution.verdict != "holds"
            ),
        }
        maxima = {"quality.main_bound_bits_max": bound.precision_bits}
        problem = None if outcome.clean else "not-clean"
        return self._doc(key, outcome, deep), problem, counts, maxima

    @staticmethod
    def _doc(key, outcome, deep: Optional[Deep]) -> dict:
        return {
            "key": key_str(key),
            "verdict": outcome.verdict,
            "clean": outcome.clean,
            "slice_failures": outcome.slice_failures,
            "peel_ok": outcome.peel_ok,
            "resolution_ok": outcome.resolution_ok,
            "note": outcome.note,
            "bound": outcome.bound.to_json(),
            **(deep.doc() if deep is not None else {}),
        }


def _campaign_keys(blocks: int) -> tuple:
    """The criterion-7 mix: blocks of 7 totient then 3 random-f instances."""
    keys = []
    for b in range(blocks):
        keys += [("totient", 7 * b + i) for i in range(7)]
        keys += [("random", 3 * b + i) for i in range(3)]
    return tuple(keys)


# ---------------------------------------------------------------------------
# Anatomy workload
# ---------------------------------------------------------------------------

_GAMMAS = (Fraction(3, 2), Fraction(2), Fraction(5, 2))
_DIVISOR_M = (720720, 8648640, 9699690)  # highly composite, under the 10^7 factorization cap
_COUNT_K = 3
_DIVISOR_K = 2


def _anatomy_keys() -> tuple:
    """(t, gamma) points up to t = 10^6. The count chain's x depends on gamma
    so that no two points share an _omega_counts sieve: the grid measures the
    sieve every time, whatever order the seed puts it in."""
    grid = [(t, g) for t in (300, 10**3, 3 * 10**3, 10**4, 3 * 10**4, 10**5) for g in _GAMMAS]
    grid += [(3 * 10**5, _GAMMAS[0]), (3 * 10**5, _GAMMAS[1]), (10**6, _GAMMAS[1])]
    keys = []
    for t, g in grid:
        gi = _GAMMAS.index(g)
        keys.append((t, str(g), int(10**5 * g), _DIVISOR_M[gi]))
    return tuple(keys)


@dataclass(frozen=True)
class AnatomyWorkload:
    name: str
    why: str
    keys: tuple  # (t, gamma, x, M)
    root_span: str = "anatomy.grid_point"

    @property
    def seeds(self) -> dict:
        return {}

    @property
    def sieve_t(self) -> int:
        return max(k[0] for k in self.keys)

    def _reports(self, key, call: Callable):
        t, gamma, x, M = key
        gamma = Fraction(gamma)
        tot = MultiplicativeFunction.totient()
        return (
            call("anatomy.mertens_product", mertens_product, t, gamma),
            call("anatomy.ratio_to_log_power", ratio_to_log_power, t, gamma),
            call("anatomy.count_chain", count_chain_report, x, t, _COUNT_K, gamma),
            call("anatomy.divisor_chain", divisor_chain_report, M, t, _DIVISOR_K, gamma, tot),
        )

    def run(self, key):
        return self._reports(key, direct)

    def check(self, key, result, deep: bool = True):
        product, ratio, count, divisor = result
        doc = {
            "key": key_str(key),
            "mertens_product": _frac_doc(product),
            "ratio_to_log_power": _interval_doc(ratio),
            "count_chain": _anatomy_doc(count),
            "divisor_chain": _anatomy_doc(divisor),
        }
        clean = count.chain_holds and divisor.chain_holds
        return doc, (None if clean else "not-clean")

    def run_traced(self, key, call: Callable):
        doc, problem = self.check(key, self._reports(key, call))
        return doc, problem, {}, {}


def _anatomy_doc(rep) -> dict:
    # AnatomyReport.to_json() uses str(), which refuses integers past 4300 digits
    return {
        "exact": _frac_doc(rep.exact_value),
        "rankin_bound": _frac_doc(rep.rankin_bound),
        "mertens_bound": _frac_doc(rep.mertens_bound)
        if isinstance(rep.mertens_bound, Fraction)
        else _interval_doc(rep.mertens_bound),
        "gamma": str(rep.gamma),
        "chain_holds": rep.chain_holds,
    }


WORKLOADS = {
    w.name: w
    for w in (
        PairWorkload(
            "campaign",
            "criterion-7 traffic: 7 totient + 3 random-f default instances at 256 bits; "
            "diagonal.concentrate dominates",
            _campaign_keys(20),
        ),
        AnatomyWorkload(
            "anatomy",
            "(t, gamma) grid of Mertens products and anatomy chains up to t = 10^6: "
            "big-integer product trees and sieving, no pair systems",
            _anatomy_keys(),
        ),
    )
}
