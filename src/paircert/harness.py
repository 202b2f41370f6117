"""Instance generation, persistence, the KMY-style rescaling reduction,
and certification campaigns over generated corpora.

Instances serialize to a single JSON document with rationals as "p/q"
strings; identical generator config and seed reproduce identical bytes.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .arith import DEFAULT_PRECISION, Rational, _check_numeral, _integer, _rational_above, fraction_str, primes_upto
from .compress import slice_system, verify_slice_identities
from .diagonal import concentrate, peel
from .errors import DegenerateMeasure, InvalidParameter, PaircertError, ResourceLimit
from .model import MultiplicativeFunction, PairSystem, WeightFunction, _malformed, _rational, check_fields, fields_to_json
from .quality import (
    HOLDS,
    INCONCLUSIVE,
    VACUOUS,
    VIOLATED,
    BoundReport,
    Params,
    build_edge_set,
    main_bound_check,
)
from .resolution import resolution_check

from math import gcd

DEFAULT_EPSILONS = (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5))
DEFAULT_CS = (Fraction(1, 2), Fraction(1))
DEFAULT_TS = (Fraction(1), Fraction(10), Fraction(100))
DEFAULT_KS = (Fraction(0), Fraction(1), Fraction(2), Fraction(4))

# Largest support_max a GeneratorConfig takes (arith's cap table). The default
# pool and element_bound hold only a few thousand distinct elements anyway.
SUPPORT_CAP = 1000


def read_json(path: Union[str, Path]):
    """The JSON document in path; InvalidParameter when the file cannot be
    read (missing, a directory, no permission, not UTF-8) or is not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise InvalidParameter(f"cannot read JSON from {path}: {exc}") from exc


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic instance generator settings (same config + seed =>
    byte-identical instances)."""

    seed: int = field(default=0, metadata={"least": 0})  # Random(-s) is Random(s)
    support_min: int = field(default=3, metadata={"least": 0})
    support_max: int = 12
    value_numerator_bound: int = field(default=8, metadata={"least": 1})
    prime_pool_bound: int = field(default=50, metadata={"least": 2})
    max_exponent: int = field(default=2, metadata={"least": 1})
    element_bound: int = field(default=100_000, metadata={"least": 1})
    density: Fraction = Fraction(1, 2)
    f_mode: str = "totient"  # "totient" | "random"
    params: Optional[Params] = None  # None: draw from the default grid

    def __post_init__(self):
        check_fields(self)
        if not 0 <= self.density <= 1:
            raise InvalidParameter(f"density {fraction_str(self.density)} outside [0, 1]")
        if self.f_mode not in ("totient", "random"):
            raise InvalidParameter(f"unknown f_mode {self.f_mode!r}")
        if self.support_min > self.support_max:
            raise InvalidParameter("bad support size bounds")
        if self.support_max > SUPPORT_CAP:
            raise ResourceLimit(f"support_max {fraction_str(self.support_max)} exceeds cap {SUPPORT_CAP}")

    def to_json(self) -> dict:
        return fields_to_json(self)

    @classmethod
    def from_json(cls, doc: dict) -> "GeneratorConfig":
        """The config a document describes, an absent key taking its default.
        InvalidParameter for a malformed one: not an object, a key that is no
        field name, a bad rational, an int field holding a non-int (a bool,
        a float, a numeral string), a bad f_mode, or a malformed params;
        ResourceLimit for a support_max above SUPPORT_CAP."""
        with _malformed("generator config"):
            if "params" in doc:
                doc = {**doc, "params": Params.from_json(doc["params"])}
            return cls(**doc)


def _below(rng: random.Random, n: int) -> int:
    """A draw in [0, n) for n >= 1, the draw of Random._randbelow made from
    the same getrandbits calls: randint(a, b) is a + _below(rng, b - a + 1)
    and choice(s) is s[_below(rng, len(s))], without their argument checks."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _draw_params(rng: random.Random) -> Params:
    return Params(
        epsilon=DEFAULT_EPSILONS[_below(rng, len(DEFAULT_EPSILONS))],
        C=DEFAULT_CS[_below(rng, len(DEFAULT_CS))],
        t=DEFAULT_TS[_below(rng, len(DEFAULT_TS))],
        K=DEFAULT_KS[_below(rng, len(DEFAULT_KS))],
    )


def _draw_support(rng: random.Random, config: GeneratorConfig, pool: list[int]) -> list[int]:
    size = config.support_min + _below(rng, config.support_max - config.support_min + 1)
    out: set[int] = set()
    attempts = 0
    while len(out) < size and attempts < 50 * (size + 1):
        attempts += 1
        n = 1
        for _ in range(1 + _below(rng, 3)):
            p = pool[_below(rng, len(pool))]
            e = 1 + _below(rng, config.max_exponent)
            if n * p**e > config.element_bound:
                continue
            n *= p**e
        out.add(n)
    return sorted(out)


def _draw_multiplicative(
    rng: random.Random, config: GeneratorConfig, pool: list[int]
) -> MultiplicativeFunction:
    if config.f_mode == "totient":
        return MultiplicativeFunction.totient()
    table = {}
    # cover every prime power a support element can carry (elements multiply
    # up to three pool draws), plus slice exponents up to 3
    top = max(3, 3 * config.max_exponent)
    for p in pool:
        for a in range(1, top + 1):
            # any value in (0, p^a - p^(a-1)] keeps (1*f)(p^a) <= p^a
            cap = p**a - p ** (a - 1)
            table[(p, a)] = Fraction(1 + _below(rng, cap))
    return MultiplicativeFunction._of_table(table)


def generate_instance(
    config: GeneratorConfig, index: int = 0
) -> tuple[PairSystem, Params]:
    """Draw a pair system whose weights are capped so a target fraction of
    support pairs satisfies the quality condition.

    For each targeted pair, psi(v) is set at or below min over sampled w of
    gcd(v,w)/w (and symmetrically for theta), which forces D(v,w) <= 1 on
    the target; at density 1 the caps are hit exactly so every pair
    qualifies. index is an int slot in [0, 2^32), where no two (seed, index)
    pairs share the rng seed (seed << 32) + index.
    """
    rng = random.Random((config.seed << 32) + _integer(index, "index", 0, (1 << 32) - 1))
    params = config.params or _draw_params(rng)
    pool = primes_upto(config.prime_pool_bound)
    v_support = _draw_support(rng, config, pool)
    w_support = _draw_support(rng, config, pool)
    if not v_support or not w_support:
        psi = WeightFunction({})
        theta = WeightFunction({})
        f = _draw_multiplicative(rng, config, pool)
        g = _draw_multiplicative(rng, config, pool)
        return PairSystem(psi, theta, f, g, frozenset()), params
    dens = float(config.density)
    full = config.density == 1
    v_targets: dict[int, list[int]] = {v: [] for v in v_support}
    w_targets: dict[int, list[int]] = {w: [] for w in w_support}
    for v in v_support:
        for w in w_support:
            if full or rng.random() < dens:
                v_targets[v].append(w)
                w_targets[w].append(v)
    bound = config.value_numerator_bound

    def draw_weight(x: int, partners: list[int]) -> Fraction:
        # the cap min over partners y of gcd(x, y) / y, compared in
        # integers; every ratio is <= 1, so 1 without partners
        n, d = 1, 1
        for y in partners:
            g = gcd(x, y)
            if g * d < n * y:
                n, d = g, y
        if full:
            return Fraction(n, d)
        return Fraction(n * (1 + _below(rng, bound)), d * bound)

    # every drawn weight is a positive Fraction on a positive int
    psi = WeightFunction._scaled([(v, draw_weight(v, ws)) for v, ws in v_targets.items()], 1)
    theta = WeightFunction._scaled([(w, draw_weight(w, vs)) for w, vs in w_targets.items()], 1)
    f = _draw_multiplicative(rng, config, pool)
    g = _draw_multiplicative(rng, config, pool)
    edges = build_edge_set(psi, theta, params.t, params.K)
    return PairSystem(psi, theta, f, g, edges), params


def rescale_kmy(psi: WeightFunction, y: Rational, Q: int) -> WeightFunction:
    """Pointwise division by y > 0 with the support truncated to [1, Q]; y
    is read by _rational_above and Q by _integer."""
    y = _rational_above(y, "y", 0)
    _integer(Q, "Q")
    return WeightFunction({n: val / y for n, val in psi.items() if n <= Q})


def corollary_bound_check(
    psi: WeightFunction,
    epsilon: Rational,
    C: Rational,
    t: Rational,
    K: Rational,
    p0: int = 100,
    precision_bits: int = DEFAULT_PRECISION,
) -> BoundReport:
    """The symmetric totient preset: psi = theta, f = g = totient, with
    epsilon/2 substituted so epsilon may range over (0, 4/5]; epsilon is
    read through _rational."""
    epsilon = _rational(epsilon)
    if not 0 < epsilon <= Fraction(4, 5):
        raise InvalidParameter(f"corollary epsilon {fraction_str(epsilon)} outside (0, 4/5]")
    params = Params(
        epsilon=epsilon / 2, C=C, t=t, K=K, p0=p0, precision_bits=precision_bits
    )
    tot = MultiplicativeFunction.totient()
    edges = build_edge_set(psi, psi, params.t, params.K)
    system = PairSystem(psi, psi, tot, tot, edges)
    return main_bound_check(system, params)


# ---------------------------------------------------------------------------
# Instance persistence
# ---------------------------------------------------------------------------


def instance_document(
    system: PairSystem, params: Params, auto_edges: bool = False
) -> dict:
    """The instance as a JSON document. ResourceLimit, before a digit is
    written, when one of its rationals or table keys would be a numeral
    past _NUMERAL_CAP characters, which document_to_instance refuses: every
    document made here loads again."""
    values = [params.epsilon, params.C, params.t, params.K]
    values += [x for w in (system.psi, system.theta) for k, v in w.items() for x in (k, v)]
    values += [x for f in (system.f, system.g) if not f.is_totient() for key, v in f._table.items() for x in (*key, v)]
    for v in values:
        _check_numeral(v)
    return {
        "psi": system.psi.to_json(),
        "theta": system.theta.to_json(),
        "f": system.f.to_json(),
        "g": system.g.to_json(),
        "edges": "auto" if auto_edges else [list(e) for e in system.canonical_edges()],
        "params": params.to_json(),
    }


def document_to_instance(doc: dict) -> tuple[PairSystem, Params]:
    """The instance a document describes; a malformed document (not an
    object, a missing key or one outside psi, theta, f, g, edges and
    params, a bad number literal, a value of the wrong type, an edge
    vertex that is not an integer) raises InvalidParameter."""
    with _malformed("instance document"):
        unknown = doc.keys() - {"psi", "theta", "f", "g", "edges", "params"}
        if unknown:
            raise InvalidParameter(f"unknown keys in instance document: {sorted(unknown)}")
        params = Params.from_json(doc["params"])
        psi = WeightFunction.from_json(doc["psi"])
        theta = WeightFunction.from_json(doc["theta"])
        f = MultiplicativeFunction.from_json(doc["f"])
        g = MultiplicativeFunction.from_json(doc["g"])
        edges = doc.get("edges", "auto")
        if edges == "auto":
            edges = build_edge_set(psi, theta, params.t, params.K)
        return PairSystem(psi, theta, f, g, edges), params


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def save_instance(
    path: Union[str, Path],
    system: PairSystem,
    params: Params,
    auto_edges: bool = False,
) -> None:
    """Write instance_document to path; nothing is written when it raises."""
    Path(path).write_text(canonical_json(instance_document(system, params, auto_edges)))


def load_instance(path: Union[str, Path]) -> tuple[PairSystem, Params]:
    return document_to_instance(read_json(path))


# ---------------------------------------------------------------------------
# Certification campaigns
# ---------------------------------------------------------------------------


@dataclass
class InstanceOutcome:
    index: int
    verdict: str  # quality.HOLDS, VIOLATED or INCONCLUSIVE
    bound: BoundReport
    slice_failures: int = 0
    peel_ok: bool = True
    resolution_ok: bool = True
    note: str = ""

    @property
    def clean(self) -> bool:
        return (
            self.verdict == HOLDS
            and self.slice_failures == 0
            and self.peel_ok
            and self.resolution_ok
        )


def certify_instance(
    system: PairSystem,
    params: Params,
    *,
    rng: Optional[random.Random] = None,
    slice_spots: int = 3,
    index: int = 0,
) -> InstanceOutcome:
    """Full pipeline on one instance: the certified main bound, slice
    identity spot checks, concentration + peeling, and the resolution
    inequality on the peeled structured set."""
    _integer(slice_spots, "slice_spots", 0)
    _integer(index, "index", 0)
    bound = main_bound_check(system, params)
    outcome = InstanceOutcome(index, bound.verdict, bound)
    rng = rng or random.Random(index)

    ps = system.primes
    if ps and slice_spots > 0:
        for _ in range(slice_spots):
            p = ps[_below(rng, len(ps))]
            i = _below(rng, 4)
            j = _below(rng, 4)
            try:
                s = slice_system(system, p, i, j)
            except PaircertError:
                outcome.slice_failures += 1
                continue
            rep = verify_slice_identities(system, s, params.t)
            if not rep.all_hold:
                outcome.slice_failures += 1

    if bound.lhs > 0:
        try:
            conc = concentrate(system, system.edges, params)
            peeled = peel(system, conc.edges_star, params)
            for st in peeled.trace:
                if st.cert_verdict not in (HOLDS, VACUOUS):
                    outcome.peel_ok = False
            # property two on the peeled set holds when it is empty and is
            # otherwise resolution_check's "combinatorial" precondition
            if peeled.edges:
                rep = resolution_check(system, peeled.edges, conc.N, params)
                if not rep.preconditions["combinatorial"]:
                    outcome.peel_ok = False
                if rep.verdict != HOLDS:
                    outcome.resolution_ok = False
                    outcome.note = f"resolution: {rep.verdict}"
        except DegenerateMeasure:
            pass
    return outcome


@dataclass
class CampaignReport:
    count: int
    holds: int = 0
    violated: int = 0
    inconclusive: int = 0
    slice_identity_failures: int = 0
    peel_contract_failures: int = 0
    resolution_failures: int = 0
    witness_paths: list[str] = field(default_factory=list)
    witnesses_refused: int = 0  # non-clean instances save_instance could not write
    rows: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return (
            self.violated == 0
            and self.inconclusive == 0
            and self.slice_identity_failures == 0
            and self.peel_contract_failures == 0
            and self.resolution_failures == 0
        )

    def to_json(self) -> dict:
        return {
            "count": self.count,
            HOLDS: self.holds,
            VIOLATED: self.violated,
            INCONCLUSIVE: self.inconclusive,
            "slice_identity_failures": self.slice_identity_failures,
            "peel_contract_failures": self.peel_contract_failures,
            "resolution_failures": self.resolution_failures,
            "witnesses": self.witness_paths,
            "witnesses_refused": self.witnesses_refused,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


def certify_campaign(
    config: GeneratorConfig,
    count: int,
    out_dir: Optional[Union[str, Path]] = None,
) -> CampaignReport:
    """Generate `count` instances and certify each; any non-clean outcome
    dumps a replayable witness instance file into out_dir, or is counted in
    witnesses_refused when save_instance refuses it.

    count is at most 2^24: instance index's slice rng is seeded with
    (seed << 32) + (index << 8) + 1, which from index 2^24 on repeats the
    next seed's."""
    _integer(count, "count", 1, 1 << 24)
    t0 = time.monotonic()
    report = CampaignReport(count)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    for index in range(count):
        system, params = generate_instance(config, index)
        rng = random.Random((config.seed << 32) + (index << 8) + 1)
        outcome = certify_instance(system, params, rng=rng, index=index)
        if outcome.verdict == HOLDS:
            report.holds += 1
        elif outcome.verdict == VIOLATED:
            report.violated += 1
        else:
            report.inconclusive += 1
        report.slice_identity_failures += outcome.slice_failures
        if not outcome.peel_ok:
            report.peel_contract_failures += 1
        if not outcome.resolution_ok:
            report.resolution_failures += 1
        report.rows.append(
            {
                "index": index,
                "epsilon": fraction_str(params.epsilon),
                "C": fraction_str(params.C),
                "t": fraction_str(params.t),
                "K": fraction_str(params.K),
                "edges": len(system.edges),
                "lhs": fraction_str(outcome.bound.lhs),
                "verdict": outcome.verdict,
                "slice_failures": outcome.slice_failures,
                "peel_ok": outcome.peel_ok,
                "resolution_ok": outcome.resolution_ok,
            }
        )
        if not outcome.clean and out_path is not None:
            witness_file = out_path / f"witness_{index:06d}.json"
            try:
                save_instance(witness_file, system, params)
            except ResourceLimit:
                report.witnesses_refused += 1
            else:
                report.witness_paths.append(str(witness_file))
    report.elapsed_seconds = time.monotonic() - t0
    return report


def write_campaign_csv(report: CampaignReport, path: Union[str, Path]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(report.rows[0].keys()))
        writer.writeheader()
        writer.writerows(report.rows)
