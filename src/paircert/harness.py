"""Instance generation, persistence, the KMY-style rescaling reduction,
and certification campaigns over generated corpora.

Instances serialize to a single JSON document with rationals as "p/q"
strings; identical generator config and seed reproduce identical bytes.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .arith import Rational, fraction_str, primes_upto
from .compress import slice_system, verify_slice_identities
from .diagonal import concentrate, peel
from .errors import DegenerateMeasure, InvalidParameter, PaircertError, ResourceLimit
from .model import MultiplicativeFunction, PairSystem, WeightFunction, _rational, check_fields, fields_to_json
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

# Largest support_max a GeneratorConfig takes. Generation tests every pair of
# support elements, so its time grows as the square of the support size:
# about 4 s for one instance with 1000 elements on each side (Python 3.11,
# 2 vCPUs). The default pool and element_bound hold only a few thousand
# distinct elements anyway.
SUPPORT_CAP = 1000


@contextmanager
def _malformed(what: str):
    """Report a malformed document (a missing key, a bad number literal, a
    value of the wrong type) as InvalidParameter; PaircertErrors pass."""
    try:
        yield
    except PaircertError:
        raise
    except (KeyError, ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise InvalidParameter(f"malformed {what}: {exc!r}") from exc


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

    seed: int = 0
    support_min: int = 3
    support_max: int = 12
    value_numerator_bound: int = 8
    prime_pool_bound: int = 50
    max_exponent: int = 2
    element_bound: int = 100_000
    density: Fraction = Fraction(1, 2)
    f_mode: str = "totient"  # "totient" | "random"
    params: Optional[Params] = None  # None: draw from the default grid

    def __post_init__(self):
        check_fields(self)
        if not 0 <= self.density <= 1:
            raise InvalidParameter(f"density {self.density} outside [0, 1]")
        if self.f_mode not in ("totient", "random"):
            raise InvalidParameter(f"unknown f_mode {self.f_mode!r}")
        if self.support_min > self.support_max or self.support_min < 0:
            raise InvalidParameter("bad support size bounds")
        if self.support_max > SUPPORT_CAP:
            raise ResourceLimit(f"support_max {self.support_max} exceeds cap {SUPPORT_CAP}")
        for name in ("value_numerator_bound", "max_exponent", "element_bound"):
            if getattr(self, name) < 1:
                raise InvalidParameter(f"{name} {getattr(self, name)} is below 1")

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


def _instance_rng(config: GeneratorConfig, index: int) -> random.Random:
    return random.Random((config.seed << 32) + index)


def _draw_params(rng: random.Random) -> Params:
    return Params(
        epsilon=rng.choice(DEFAULT_EPSILONS),
        C=rng.choice(DEFAULT_CS),
        t=rng.choice(DEFAULT_TS),
        K=rng.choice(DEFAULT_KS),
    )


def _draw_support(rng: random.Random, config: GeneratorConfig, pool: list[int]) -> list[int]:
    size = rng.randint(config.support_min, config.support_max)
    out: set[int] = set()
    attempts = 0
    while len(out) < size and attempts < 50 * (size + 1):
        attempts += 1
        n = 1
        for _ in range(rng.randint(1, 3)):
            p = rng.choice(pool)
            e = rng.randint(1, config.max_exponent)
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
            table[(p, a)] = rng.randint(1, cap)
    return MultiplicativeFunction(table)


def generate_instance(
    config: GeneratorConfig, index: int = 0
) -> tuple[PairSystem, Params]:
    """Draw a pair system whose weights are capped so a target fraction of
    support pairs satisfies the quality condition.

    For each targeted pair, psi(v) is set at or below min over sampled w of
    gcd(v,w)/w (and symmetrically for theta), which forces D(v,w) <= 1 on
    the target; at density 1 the caps are hit exactly so every pair
    qualifies.
    """
    rng = _instance_rng(config, index)
    params = config.params or _draw_params(rng)
    pool = primes_upto(config.prime_pool_bound)
    if not pool:
        raise InvalidParameter("prime pool is empty")
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
        return Fraction(n * rng.randint(1, bound), d * bound)

    psi_table = {v: draw_weight(v, ws) for v, ws in v_targets.items()}
    theta_table = {w: draw_weight(w, vs) for w, vs in w_targets.items()}
    psi = WeightFunction(psi_table)
    theta = WeightFunction(theta_table)
    f = _draw_multiplicative(rng, config, pool)
    g = _draw_multiplicative(rng, config, pool)
    edges = build_edge_set(psi, theta, params.t, params.K)
    return PairSystem(psi, theta, f, g, edges), params


def rescale_kmy(psi: WeightFunction, y: Rational, Q: int) -> WeightFunction:
    """Pointwise division by y with the support truncated to [1, Q]; y is
    read through _rational and Q must be an int, not a bool."""
    y = _rational(y)
    if type(Q) is not int:
        raise InvalidParameter(f"truncation bound Q must be an integer, got {Q!r}")
    if y <= 0:
        raise InvalidParameter(f"rescale factor must be positive, got {y}")
    return WeightFunction({n: val / y for n, val in psi.items() if n <= Q})


def corollary_bound_check(
    psi: WeightFunction,
    epsilon: Rational,
    C: Rational,
    t: Rational,
    K: Rational,
    p0: int = 100,
    precision_bits: int = 256,
) -> BoundReport:
    """The symmetric totient preset: psi = theta, f = g = totient, with
    epsilon/2 substituted so epsilon may range over (0, 4/5]; epsilon is
    read through _rational."""
    epsilon = _rational(epsilon)
    if not 0 < epsilon <= Fraction(4, 5):
        raise InvalidParameter(f"corollary epsilon {epsilon} outside (0, 4/5]")
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
    bound = main_bound_check(system, params)
    outcome = InstanceOutcome(index, bound.verdict, bound)
    rng = rng or random.Random(index)

    ps = system.primes
    if ps and slice_spots > 0:
        for _ in range(slice_spots):
            p = rng.choice(ps)
            i = rng.randint(0, 3)
            j = rng.randint(0, 3)
            try:
                s = slice_system(system, p, i, j)
            except Exception:
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
    rows: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def tallies_consistent(self) -> bool:
        return self.holds + self.violated + self.inconclusive == self.count

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
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


def certify_campaign(
    config: GeneratorConfig,
    count: int,
    out_dir: Optional[Union[str, Path]] = None,
) -> CampaignReport:
    """Generate `count` instances and certify each; any non-clean outcome
    dumps a replayable witness instance file into out_dir."""
    if count < 1:
        raise InvalidParameter("campaign count must be >= 1")
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
            save_instance(witness_file, system, params)
            report.witness_paths.append(str(witness_file))
    report.elapsed_seconds = time.monotonic() - t0
    return report


def write_campaign_csv(report: CampaignReport, path: Union[str, Path]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(report.rows[0].keys()))
        writer.writeheader()
        writer.writerows(report.rows)
