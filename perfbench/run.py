"""paircert benchmark: certified-verdict throughput and latency per workload.

From the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --pin [--workload NAME]   # re-pin verdict digests

A run makes whole passes over the workload's corpus, in an order drawn from
--seed, until --seconds have gone by. With --trace 0 each verdict is timed
with no tracing, scaled to a nominal machine speed (see REF_NOMINAL_S), and
the end-to-end metrics are printed; with --trace 1 every pass is followed by
a traced pass and the per-layer metrics are printed.
Every verdict is checked outside its timed region: it must be clean, and the
first time a key runs its full canonical document must match the digest
pinned in pinned.json (later passes compare the outcome part with that run).

The last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the environment and the details behind the metrics.
Reports and spans go to .perfbench-out/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import Tracer, layer_totals, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pinned.json"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(SRC))
try:
    import paircert
    from paircert.quality import main_bound_factors
    from workloads import STREAMS, WORKLOADS, digest, direct, key_str
except ImportError as exc:
    sys.exit(f"perfbench: cannot import paircert from {SRC}: {exc}")

SETUP_REPEATS = 9
PROBE_BITS = (256, 1024, 4096)
PROBE_BUDGET_S = 0.25
PROBE_MIN_REPS = 3
LADDER = (50, 75, 90, 95, 98, 99, 99.5, 99.8, 99.9)
MIN_BEYOND = 10
MIN_PASSES = 2  # an untraced run makes at least this many; it fixes the tail percentile

# A shared VM's speed can drift by half within a minute, so verdict times are
# scaled to a nominal machine speed. Between verdicts, a fixed piece of
# reference arithmetic is timed once per REF_EVERY_S gone by (at most
# REF_BATCH times in a row), and each verdict time is multiplied by
# REF_NOMINAL_S over the median reference time around the verdict: the
# samples within REF_SPAN times its duration before its start and after its
# end, and at least REF_WINDOW on each side. REF_NOMINAL_S is a typical
# reference time on a 2-vCPU x86-64 VM.
REF_ITERS = 5000
REF_MODULUS = (1 << 521) - 1
REF_X, REF_Y = 3**20000, 7**17000
REF_NOMINAL_S = 3.0e-3
REF_EVERY_S = 0.1
REF_BATCH = 10
REF_WINDOW = 5
REF_SPAN = 2

END_TO_END = {
    "verdicts_per_s": ("1/s", "higher"),
    "verdict_p50_ms": ("ms", "lower"),
    "verdict_tail_ms": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# per-layer self time of each span, in seconds per pass over the corpus
SPAN_METRICS = (
    "harness.generate",
    "quality.main_bound",
    "quality.prime_support",
    "compress.slice",
    "compress.verify_slice",
    "model.mu_pairs",
    "diagonal.concentrate",
    "diagonal.peel",
    "diagonal.property_two",
    "resolution.check",
    "anatomy.mertens_product",
    "anatomy.ratio_to_log_power",
    "anatomy.count_chain",
    "anatomy.divisor_chain",
)
LAYERS = ("harness", "quality", "compress", "model", "diagonal", "resolution", "anatomy")
COUNT_METRICS = {
    "diagonal.concentrate_edges_in": ("count", "lower"),
    "diagonal.concentrate_edges_kept": ("count", "higher"),
    "diagonal.peel_steps": ("count", "lower"),
    "quality.main_bound_escalations": ("count", "lower"),
    "quality.main_bound_bits_max": ("bits", "lower"),
    "compress.identity_failures": ("count", "lower"),
    "resolution.non_holds": ("count", "lower"),
    "arith.factorize_hits": ("count", "higher"),
    "arith.factorize_misses": ("count", "lower"),
    "arith.factorize_hit_ratio": ("ratio", "higher"),
}


def per_layer_table() -> dict:
    table = {f"{stem}_s": ("s", "lower") for stem in SPAN_METRICS}
    table.update(COUNT_METRICS)
    for kernel in ("exp", "log", "interval_eval"):
        for bits in PROBE_BITS:
            table[f"arith.{kernel}_s.b{bits}"] = ("s", "lower")
    table["arith.sieve_s"] = ("s", "lower")
    for layer in LAYERS:
        table[f"layer.{layer}_s"] = ("s", "lower")
    for name in ("trace.traced_s", "trace.untraced_s", "trace.overhead_s"):
        table[name] = ("s", "lower")
    return table


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def reference_loop() -> float:
    """Seconds taken by fixed arithmetic: a loop of small- and 521-bit
    integer steps, then one product of two 30k- to 50k-bit integers. It makes
    no container objects, so it never triggers the cyclic GC and its time
    does not depend on the size of paircert's heap."""
    t0 = perf_counter()
    acc, big = 0, 3**300
    for i in range(REF_ITERS):
        acc += i * i % 7
        big = (big * 1103515245 + i) % REF_MODULUS
    REF_X * REF_Y
    return perf_counter() - t0


def scaled_times(spans, refs) -> list[float]:
    """Each verdict's (start, end) span as seconds at nominal speed, from
    the (time, seconds) reference samples around it. No sample falls inside
    a verdict, so the window is one slice of refs."""
    at = [t for t, _ in refs]
    out = []
    for start, end in spans:
        d = end - start
        lo = min(bisect_left(at, start) - REF_WINDOW, bisect_left(at, start - REF_SPAN * d))
        hi = max(bisect_right(at, end) + REF_WINDOW, bisect_right(at, end + REF_SPAN * d))
        window = refs[max(0, lo) : hi]
        out.append(d * REF_NOMINAL_S / statistics.median(s for _, s in window))
    return out


def measure_setup(sieve_t: int) -> float:
    """Median seconds from process start until import and sieve are done."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(sieve_t)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            fail(f"set-up probe exited with code {code}")
    return statistics.median(samples)


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Tally:
    """Attempted verdicts, and failures by type."""

    def __init__(self, digest):
        self.digest = digest
        self.attempted = 0
        self.errors: Counter = Counter()

    def error(self, kind: str) -> None:
        self.attempted += 1
        self.errors[kind] += 1

    def judge(self, doc, problem, expected: str) -> bool:
        """Count one verdict; true if it passed."""
        self.attempted += 1
        if problem is None and self.digest(doc) != expected:
            problem = "digest-mismatch"
        if problem is not None:
            self.errors[problem] += 1
        return problem is None

    @property
    def failed(self) -> int:
        return sum(self.errors.values())


def untraced_pass(w, order, tally, pinned, outcome_pins):
    """Each verdict timed alone, then checked outside its timed region;
    returns the verdicts' (start, end) spans, the (time, seconds) reference
    samples taken between verdicts, and the factorize cache hits and misses.

    A key's first check is deep and compared with its pinned digest; after
    that its outcome-only document is compared with the one that first
    check produced, which keeps later passes cheap.
    """
    spans, refs = [], []
    last_ref = perf_counter() - REF_BATCH * REF_EVERY_S  # a full batch before the first verdict
    fact = Counter()
    paircert.factorize.cache_clear()  # every pass is a cold-cache campaign
    for key in order:
        for _ in range(min(REF_BATCH, int((perf_counter() - last_ref) / REF_EVERY_S))):
            refs.append((perf_counter(), reference_loop()))
            last_ref = perf_counter()
        before = paircert.factorize.cache_info()
        t0 = perf_counter()
        try:
            result = w.run(key)
        except Exception as exc:  # one bad verdict must not abort the run
            spans.append((t0, perf_counter()))
            tally.error(type(exc).__name__)
            continue
        spans.append((t0, perf_counter()))
        after = paircert.factorize.cache_info()
        fact["hits"] += after.hits - before.hits
        fact["misses"] += after.misses - before.misses
        try:
            if key in outcome_pins:
                doc, problem = w.check(key, result, deep=False)
                tally.judge(doc, problem, outcome_pins[key])
                continue
            doc, problem = w.check(key, result)
            if tally.judge(doc, problem, pinned[key]):
                outcome_pins[key] = tally.digest(w.check(key, result, deep=False)[0])
        except Exception as exc:
            tally.error(type(exc).__name__)
    return spans, refs, fact


def traced_pass(w, order, tally, pinned):
    tracer = Tracer()
    counts: Counter = Counter()
    maxima: dict = {}
    paircert.factorize.cache_clear()
    for n, key in enumerate(order):
        tracer.verdict = n
        try:
            doc, problem, c, m = tracer.call(w.root_span, w.run_traced, key, tracer.call)
        except Exception as exc:
            tally.error(type(exc).__name__)
            continue
        tally.judge(doc, problem, pinned[key])
        counts.update(c)
        for name, value in m.items():
            maxima[name] = max(maxima.get(name, 0), value)
    return tracer, counts, maxima


def quantile(sorted_xs: list[float], p: float) -> float:
    """Nearest-rank p-th percentile."""
    k = max(0, math.ceil(p * len(sorted_xs) / 100) - 1)
    return sorted_xs[k]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND of n samples above
    it; 100 (the maximum) when n is too small for any."""
    for p in reversed(LADDER):
        if n - math.ceil(p * n / 100) >= MIN_BEYOND:
            return p
    return 100


def kernel_probes() -> dict:
    """Median seconds per call of the interval kernels at each precision, on
    the arguments the main bound uses: e^(40C) at C = 1/2, Log 100, and the
    main-bound factors of the first totient campaign instance."""
    system, params = paircert.generate_instance(STREAMS["totient"], 0)
    factors = main_bound_factors(system, params)[0]
    out = {}
    for bits in PROBE_BITS:
        x_exp = paircert.Interval.from_fraction(Fraction(20), bits)
        x_log = paircert.Interval.from_fraction(Fraction(100), bits)
        kernels = {
            "exp": lambda: x_exp.exp(bits),
            "log": lambda: x_log.log(bits),
            "interval_eval": lambda: paircert.interval_eval(1, factors, bits),
        }
        for name, fn in kernels.items():
            samples = []
            t_start = perf_counter()
            while len(samples) < PROBE_MIN_REPS or perf_counter() - t_start < PROBE_BUDGET_S:
                t0 = perf_counter()
                fn()
                samples.append(perf_counter() - t0)
            out[f"arith.{name}_s.b{bits}"] = statistics.median(samples)
    return out


def run(args) -> tuple[dict, dict]:
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    if not PINS.is_file():
        fail(f"missing {PINS}")
    pins = json.loads(PINS.read_text()).get(w.name, {})
    missing = [key_str(k) for k in w.keys if key_str(k) not in pins]
    if missing:
        fail(f"no pinned digest for {w.name} {missing[:3]}")
    pinned = {k: pins[key_str(k)] for k in w.keys}

    setup_s = measure_setup(w.sieve_t)
    t0 = perf_counter()
    paircert.primes_upto(w.sieve_t)
    sieve_s = perf_counter() - t0

    order = list(w.keys)
    random.Random(args.seed).shuffle(order)
    tally = Tally(digest)
    outcome_pins: dict = {}
    spans: list[tuple] = []
    refs: list[tuple] = []
    untraced_totals: list[float] = []
    traced_runs = []
    first_fact = None
    passes = 0
    min_passes = 1 if args.trace else MIN_PASSES
    start = perf_counter()
    while True:
        pass_spans, pass_refs, fact = untraced_pass(w, order, tally, pinned, outcome_pins)
        spans += pass_spans
        refs += pass_refs
        untraced_totals.append(sum(t1 - t0 for t0, t1 in pass_spans))
        if first_fact is None:
            first_fact = fact
        if args.trace:
            traced_runs.append(traced_pass(w, order, tally, pinned))
        passes += 1
        if passes >= min_passes and perf_counter() - start >= args.seconds:
            break
    wall_s = perf_counter() - start

    tail_p = tail_percentile(MIN_PASSES * len(w.keys))
    ok = tally.attempted - tally.failed
    times = scaled_times(spans, refs)

    def timing(xs):
        xs = sorted(xs)
        return {
            "verdicts_per_s": ok / sum(xs),
            "verdict_p50_ms": 1000 * quantile(xs, 50),
            "verdict_tail_ms": 1000 * quantile(xs, tail_p),
        }

    details = {
        "workload": w.name,
        "seed": args.seed,
        "passes": passes,
        "corpus": len(w.keys),
        "wall_s": wall_s,
        "failed_ratio": tally.failed / tally.attempted,
        "errors": dict(tally.errors),
        "tail_percentile": tail_p,
        "tail_samples": len(times),
        "tail_beyond": len(times) - max(1, math.ceil(tail_p * len(times) / 100)),
        "reference_samples": len(refs),
        "speed_factor": REF_NOMINAL_S / statistics.median(s for _, s in refs),
        "unscaled": timing([t1 - t0 for t0, t1 in spans]),
    }
    if not args.trace:
        metrics = {
            **timing(times),
            "ok_ratio": ok / tally.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        table = END_TO_END
    else:
        metrics = layer_metrics(traced_runs, untraced_totals, first_fact)
        metrics["arith.sieve_s"] = sieve_s
        metrics.update(kernel_probes())
        table = per_layer_table()
        write_spans(w, args, order, traced_runs)
    details["environment"] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload_seeds": w.seeds,
        "sieve_cap": paircert.arith.sieve_cap(),
        "factorize_cache_info": paircert.factorize.cache_info()._asdict(),
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in table.items()},
    }
    return details, result


def layer_metrics(traced_runs, untraced_totals, first_fact) -> dict:
    """Medians over the run's traced passes; counts from the first pass, as
    they repeat exactly."""
    by_pass = [self_times(tracer.spans) for tracer, _, _ in traced_runs]
    out = {}
    for stem in SPAN_METRICS:
        out[f"{stem}_s"] = statistics.median(p.get(stem, 0.0) for p in by_pass)
    layers = [layer_totals(p) for p in by_pass]
    for layer in LAYERS:
        out[f"layer.{layer}_s"] = statistics.median(p.get(layer, 0.0) for p in layers)
    _, counts, maxima = traced_runs[0]
    hits, misses = first_fact["hits"], first_fact["misses"]
    counted = {
        **counts,
        **maxima,
        "arith.factorize_hits": hits,
        "arith.factorize_misses": misses,
        "arith.factorize_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
    for name in COUNT_METRICS:
        out[name] = counted.get(name, 0)
    traced = statistics.median(
        sum(end - start for _, parent, start, end, _ in tracer.spans if parent < 0)
        for tracer, _, _ in traced_runs
    )
    untraced = statistics.median(untraced_totals)
    out["trace.traced_s"] = traced
    out["trace.untraced_s"] = untraced
    out["trace.overhead_s"] = traced - untraced
    return out


def write_spans(w, args, order, traced_runs) -> None:
    OUT.mkdir(exist_ok=True)
    doc = {
        "workload": w.name,
        "seed": args.seed,
        "verdicts": [key_str(k) for k in order],
        "span_fields": ["name", "parent", "start", "end", "verdict"],
        "passes": [tracer.spans for tracer, _, _ in traced_runs],
    }
    path = OUT / f"{w.name}-seed{args.seed}-spans.json"
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def pin(names) -> None:
    """Digest every verdict of the named workloads (default: all), checking
    that the traced pipeline gives the same document."""
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    for name in names or WORKLOADS:
        w = WORKLOADS[name]
        out = {}
        for key in w.keys:
            doc, problem = w.check(key, w.run(key))
            tdoc, tproblem, _, _ = w.run_traced(key, direct)
            if digest(doc) != digest(tdoc):
                fail(f"{name} {key_str(key)}: traced and untraced verdicts differ")
            if problem or tproblem:
                print(f"perfbench: {name} {key_str(key)}: {problem or tproblem}", file=sys.stderr)
            out[key_str(key)] = digest(doc)
        pins[name] = out
        print(f"pinned {len(out)} verdicts of {name}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="re-pin verdict digests and exit")
    args = parser.parse_args()
    if Path(paircert.__file__).resolve().parent != SRC / "paircert":
        fail(f"imported paircert from {paircert.__file__}, not from {SRC}")
    if "PAIRCERT_SIEVE_CAP" in os.environ:
        fail("PAIRCERT_SIEVE_CAP is set; it changes which inputs raise ResourceLimit")
    if args.pin:
        pin([args.workload] if args.workload else None)
        return
    if args.workload is None:
        fail("--workload is required")
    details, result = run(args)
    OUT.mkdir(exist_ok=True)
    report = {"details": details, **result}
    name = f"{details['workload']}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
