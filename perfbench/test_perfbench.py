"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer, layer_totals, self_times  # noqa: E402
from workloads import WORKLOADS, digest, key_str  # noqa: E402

PINNED = json.loads((HERE / "pinned.json").read_text())

# a few keys per workload, cheapest first where cost varies a lot
SAMPLES = {
    "campaign": WORKLOADS["campaign"].keys[:4] + WORKLOADS["campaign"].keys[7:9],
    "anatomy": WORKLOADS["anatomy"].keys[:2],
}


@pytest.mark.parametrize(
    "name,key", [(name, key) for name, keys in SAMPLES.items() for key in keys]
)
def test_decomposed_run_matches_public_pipeline(name, key):
    """The traced, stage-by-stage verdict equals the one certify_instance (or
    the anatomy calls) gives untraced, and both match the pinned digest."""
    w = WORKLOADS[name]
    doc, problem = w.check(key, w.run(key))
    tracer = Tracer()
    tdoc, tproblem, _, _ = tracer.call(w.root_span, w.run_traced, key, tracer.call)
    assert problem is None and tproblem is None
    assert tdoc == doc
    assert digest(doc) == PINNED[name][key_str(key)]
    assert {s[0] for s in tracer.spans} <= set(run.SPAN_METRICS) | {w.root_span}


def test_every_corpus_key_is_pinned():
    for name, w in WORKLOADS.items():
        assert set(PINNED[name]) == {key_str(k) for k in w.keys}


def test_self_times_subtract_children():
    spans = [
        ["harness.root", -1, 0.0, 10.0, 0],
        ["diagonal.a", 0, 1.0, 4.0, 0],
        ["quality.b", 0, 5.0, 6.0, 0],
        ["model.c", 1, 2.0, 3.0, 0],
    ]
    by_name = self_times(spans)
    assert by_name == {"harness.root": 6.0, "diagonal.a": 2.0, "quality.b": 1.0, "model.c": 1.0}
    assert sum(by_name.values()) == 10.0
    assert layer_totals(by_name)["diagonal"] == 2.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(run.MIN_PASSES * len(WORKLOADS["campaign"].keys)) == 95
    assert run.tail_percentile(run.MIN_PASSES * len(WORKLOADS["anatomy"].keys)) == 75
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(3) == 100
    xs = sorted(float(i) for i in range(200))
    assert sum(x > run.quantile(xs, 95) for x in xs) == 10


def test_benchmark_json_lists_the_printed_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]}.items() <= {
        name: w.why for name, w in WORKLOADS.items()
    }.items()
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.per_layer_table()


def test_scaled_times_use_the_reference_samples_around_each_verdict():
    nominal = run.REF_NOMINAL_S
    # the machine runs at half speed until t = 6, then at nominal speed
    refs = [(float(t), nominal * (2 if t < 6 else 1)) for t in range(12)]
    scaled = run.scaled_times([(2.5, 3.5), (8.5, 9.5)], refs)
    assert scaled == [0.5, 1.0]


def test_a_long_verdict_is_scaled_by_the_samples_within_its_span():
    nominal = run.REF_NOMINAL_S
    refs = (
        [(float(t), 2 * nominal) for t in range(4)]
        + [(float(t), 4 * nominal) for t in range(15, 20)]
        + [(float(t), nominal) for t in range(20, 34)]
    )
    # the 10 s verdict's window reaches 20 s past its end, where the machine
    # ran at nominal speed for most of the time
    assert run.scaled_times([(4.0, 14.0)], refs) == [pytest.approx(10.0)]
