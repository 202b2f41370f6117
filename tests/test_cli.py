"""End-to-end CLI exercises over temp files."""

import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from paircert.cli import main
from paircert.compress import slice_system, verify_slice_identities
from paircert.diagonal import peel
from paircert.harness import (
    GeneratorConfig,
    canonical_json,
    generate_instance,
    instance_document,
    load_instance,
    save_instance,
)
from paircert.model import PairSystem, TOTIENT, WeightFunction
from paircert.quality import HOLDS, INCONCLUSIVE, VIOLATED, Params
from conftest import small_params


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(GeneratorConfig(seed=21).to_json()))
    return path


@pytest.fixture
def instance_file(tmp_path):
    psi = WeightFunction({2: F(1, 2), 3: F(1, 3)})
    theta = WeightFunction({2: F(1, 2), 9: F(1, 9)})
    params = Params(epsilon=F(1, 4), C=F(1), t=F(10), K=F(0))
    from paircert.quality import build_edge_set

    edges = build_edge_set(psi, theta, params.t, params.K)
    system = PairSystem(psi, theta, TOTIENT, TOTIENT, edges)
    path = tmp_path / "instance.json"
    save_instance(path, system, params)
    return path


def test_gen_then_edges(tmp_path, config_file, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--config", str(config_file), "--out", str(out)]) == 0
    assert out.exists()
    assert main(["edges", "--instance", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    system, _ = load_instance(out)
    assert doc["edges"] == [list(e) for e in system.canonical_edges()]


def test_gen_writes_the_precision_override(tmp_path, config_file):
    out = tmp_path / "inst.json"
    for argv, bits in ((["--precision", "512"], 512), ([], 256)):
        assert main([*argv, "gen", "--config", str(config_file), "--out", str(out)]) == 0
        assert load_instance(out)[1].precision_bits == bits


def test_gen_out_is_the_canonical_instance_document(tmp_path, config_file):
    out = tmp_path / "inst.json"
    for argv, auto_edges in (([], False), (["--auto-edges"], True)):
        assert main(["gen", "--config", str(config_file), "--out", str(out), "--index", "3", *argv]) == 0
        system, params = generate_instance(GeneratorConfig(seed=21), 3)
        assert out.read_bytes() == canonical_json(
            instance_document(system, params, auto_edges=auto_edges)
        ).encode()


def test_gen_refuses_an_index_that_would_alias(tmp_path, config_file, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--config", str(config_file), "--out", str(out), "--index", "-1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "paircert: InvalidParameter: index must be >= 0, got -1\n"


def test_certify_campaign_refuses_a_count_that_would_alias(monkeypatch, tmp_path, config_file, capsys):
    from paircert import harness

    def no_instance(*args, **kwargs):
        raise AssertionError("the campaign ran before its count was read")

    monkeypatch.setattr(harness, "generate_instance", no_instance)
    argv = ["certify", "--campaign", str(config_file), "--count", str(2**24 + 1)]
    assert main([*argv, "--out-dir", str(tmp_path / "wit")]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "wit").exists()
    assert captured.err == "paircert: InvalidParameter: count must be <= 16777216, got 16777217\n"


def test_certify_campaign_rejects_precision(tmp_path, config_file, capsys):
    argv = ["certify", "--campaign", str(config_file), "--count", "1"]
    assert main(["--precision", "512", *argv, "--out-dir", str(tmp_path / "wit")]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "wit").exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("paircert: InvalidParameter: ")
    assert "--precision" in lines[0]


def test_check_exit_code_and_document(instance_file, capsys):
    rc = main(["check", "--instance", str(instance_file), "--verify"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["verdict"] == "holds"
    assert set(doc) >= {"lhs", "rhs_lo", "rhs_hi", "verdict", "precision_bits"}


def test_precision_override(instance_file, capsys):
    rc = main(["--precision", "64", "check", "--instance", str(instance_file)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["precision_bits"] >= 64


@pytest.mark.parametrize("verdict, code", [(HOLDS, 0), (VIOLATED, 2), (INCONCLUSIVE, 3)])
@pytest.mark.parametrize("command", ["check", "certify"], ids=["check", "certify-instance"])
def test_single_verdict_exit_codes(monkeypatch, instance_file, capsys, command, verdict, code):
    from paircert import cli

    real = cli.main_bound_check
    monkeypatch.setattr(
        cli,
        "main_bound_check",
        lambda *args, **kwargs: replace(real(*args, **kwargs), verdict=verdict),
    )
    rc = main([command, "--instance", str(instance_file)])
    assert json.loads(capsys.readouterr().out)["verdict"] == verdict
    assert rc == code


@pytest.mark.parametrize("bits", ["0", "-5", "8", "15", "16385", "65536"])
@pytest.mark.parametrize(
    "argv",
    [["check", "--instance", "{instance}"], ["anatomy", "mertens", "--t", "30"]],
    ids=["check", "anatomy-mertens"],
)
def test_precision_below_16_exits_4_with_one_line(instance_file, capsys, bits, argv):
    """--precision outside [16, 2^14], below or above, exits 4 before any work."""
    rc = main(["--precision", bits, *(a.format(instance=instance_file) for a in argv)])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("paircert: InvalidParameter: ")


def test_anatomy_mertens_precision(capsys):
    for argv, bits in ((["--precision", "16"], 16), ([], 256)):
        assert main([*argv, "anatomy", "mertens", "--t", "30"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ratio_to_log_power"]["precision_bits"] == bits


def test_compress_verify(instance_file, capsys):
    rc = main(
        ["compress", "--instance", str(instance_file), "--p", "3", "--i", "1", "--j", "0", "--verify"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["identities"]["all_hold"]
    system, params = load_instance(instance_file)
    s = slice_system(system, 3, 1, 0)
    payload = {
        "slice": {"p": 3, "i": 1, "j": 0},
        "instance": instance_document(s.tilde, params),
        "identities": verify_slice_identities(system, s, params.t).to_json(),
    }
    assert out == json.dumps(payload, indent=2) + "\n"


def test_compress_out_writes_the_slice_instance(tmp_path, instance_file, capsys):
    out = tmp_path / "slice.json"
    argv = ["compress", "--instance", str(instance_file), "--p", "3", "--i", "1", "--j", "0"]
    assert main([*argv, "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert out.read_text() == canonical_json(doc["instance"])
    assert "identities" not in doc


def test_compress_verify_failure_exits_2(monkeypatch, instance_file, capsys):
    from paircert import cli
    from paircert.quality import FAILED

    real = cli.verify_slice_identities

    def failing(*args):
        rep = real(*args)
        return replace(rep, checks=[replace(rep.checks[0], status=FAILED), *rep.checks[1:]])

    monkeypatch.setattr(cli, "verify_slice_identities", failing)
    argv = ["compress", "--instance", str(instance_file), "--p", "3", "--i", "1", "--j", "0"]
    assert main([*argv, "--verify"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["identities"]["all_hold"] is False


def test_diagonal_and_concentrate(instance_file, capsys):
    assert main(["diagonal", "--instance", str(instance_file), "--p", "3", "--decay"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "center" in doc and "bilinear" in doc and "decay" in doc
    assert main(["concentrate", "--instance", str(instance_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "N" in doc and "edges_star" in doc


def test_diagonal_decay_past_the_power_cap(tmp_path, capsys):
    """epsilon = 10^-30 asks compare_power for 3^(5 - 10 epsilon) against 2,
    that is 3^(5 10^29 - 1) against 2^(10^29): refused by its cap, one line."""
    psi = WeightFunction({2: F(1, 2), 3: F(1, 3)})
    theta = WeightFunction({2: F(1, 2), 9: F(1, 9)})
    params = Params(epsilon=F(1, 10**30), C=F(1), t=F(10), K=F(0))
    path = tmp_path / "instance.json"
    save_instance(path, PairSystem(psi, theta, TOTIENT, TOTIENT, {(2, 2), (3, 9)}), params)
    assert main(["diagonal", "--instance", str(path), "--p", "3", "--decay"]) == 4
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("paircert: ResourceLimit: compare_power")


def test_check_near_e_past_the_magnitude_cap_exits_4(tmp_path):
    """t = floor(e 2^17000)/2^17000 (5,118 digits), C = 10^5, 16 bits: the
    instance loads, and check refuses its main bound with one ResourceLimit
    line. Run in a subprocess under a timeout, so that a regression fails
    rather than hangs."""
    import subprocess
    import sys

    import mpmath

    import paircert

    k = 17000
    with mpmath.workprec(k + 64):
        t = F(int(mpmath.floor(mpmath.e * 2**k)), 2**k)
    psi = WeightFunction({3: F(1, 3)})
    params = Params(epsilon=F(1, 4), C=F(10**5), t=t, K=F(0), p0=2, precision_bits=16)
    path = tmp_path / "near_e.json"
    save_instance(path, PairSystem(psi, psi, TOTIENT, TOTIENT, {(3, 3)}), params)
    src = Path(paircert.__file__).resolve().parents[1]
    script = "import sys; sys.path.insert(0, sys.argv[1]); from paircert.cli import main; sys.exit(main(sys.argv[2:]))"
    run = subprocess.run(
        [sys.executable, "-I", "-B", "-c", script, str(src), "check", "--instance", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    lines = run.stderr.splitlines()
    assert (run.returncode, run.stdout, len(lines)) == (4, "", 1), run.stderr
    assert lines[0].startswith("paircert: ResourceLimit: a base within 2^-")


def test_rational_option_past_the_numeral_cap_exits_4(capsys):
    """A rational option is read by arith._rational: a numeral past its
    cap is a ResourceLimit, one line, before any work."""
    from paircert.arith import _NUMERAL_CAP

    t = "1" * (_NUMERAL_CAP + 1)
    assert main(["anatomy", "mertens", "--t", t]) == 4
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith(f"paircert: ResourceLimit: a numeral of {_NUMERAL_CAP + 1} characters")


def test_peel_trace(tmp_path, capsys):
    """--trace writes the steps' documents, indented; v = 3 is peeled."""
    psi = WeightFunction({2: F(1, 2), 3: F(1, 3)})
    theta = WeightFunction({5: F(1, 5000), 7: F(1, 7)})
    path = tmp_path / "peel.json"
    system = PairSystem(psi, theta, TOTIENT, TOTIENT, {(2, 5), (2, 7), (3, 5)})
    save_instance(path, system, small_params())
    trace = tmp_path / "trace.json"
    assert main(["peel", "--instance", str(path), "--trace", str(trace)]) == 0
    doc = json.loads(capsys.readouterr().out)
    system, params = load_instance(path)
    result = peel(system, system.edges, params)
    assert result.steps >= 1 and doc["steps"] == result.steps
    assert trace.read_text() == json.dumps([st.to_json() for st in result.trace], indent=2) + "\n"
    assert doc["edges"] == sorted(list(e) for e in result.edges)


def test_resolve(tmp_path, capsys):
    psi = WeightFunction({1: F(1)})
    params = Params(epsilon=F(1, 4), C=F(1), t=F(1), K=F(0))
    system = PairSystem(psi, psi, TOTIENT, TOTIENT, {(1, 1)})
    path = tmp_path / "unit.json"
    save_instance(path, system, params)
    rc = main(["resolve", "--instance", str(path), "--N", "1", "--gamma", "2", "--ratio"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["verdict"] == "holds"
    assert doc["S1"] == "1"


def test_resolve_bridged_majorant(tmp_path, capsys):
    from paircert.arith import interval_json
    from paircert.resolution import s_majorant_bridged

    psi = WeightFunction({1: F(1)})
    params = Params(epsilon=F(1, 4), C=F(1), t=F(3), K=F(0))
    path = tmp_path / "unit.json"
    save_instance(path, PairSystem(psi, psi, TOTIENT, TOTIENT, {(1, 1)}), params)
    assert main(["resolve", "--instance", str(path), "--N", "1", "--bridged"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["majorant"] == interval_json(s_majorant_bridged(F(3), F(0), F(1), 256))
    assert doc["headline_ratio"] is None


def test_anatomy_rankin(capsys):
    from paircert.anatomy import rankin_sum

    assert main(["anatomy", "rankin", "--x", "100", "--t", "10", "--gamma", "3/2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"x": "100", "t": "10", "gamma": "3/2", "rankin_sum": str(rankin_sum(100, 10, F(3, 2)))}


def test_anatomy_rankin_writes_a_long_gamma_in_full(capsys):
    """gamma past Python's 4,300-digit int -> str limit is echoed through
    fraction_str, in full."""
    gamma = "3" * 5000
    assert main(["anatomy", "rankin", "--x", "2", "--t", "2", "--gamma", gamma]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"x": "2", "t": "2", "gamma": gamma, "rankin_sum": "3" * 4999 + "4"}  # 1 + gamma


def test_anatomy_count_past_the_power_cap_exits_4(capsys):
    """gamma^K for gamma = 2 (2 + 1 bits) passes _POWER_BITS_CAP = 2^22 at
    K = floor(2^22 / 3) + 1: refused before it is built, in one line."""
    assert main(["anatomy", "count", "--gamma", "2", "--K", "1398102"]) == 4
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0] == "paircert: ResourceLimit: count_chain_report needs a power past the cap of 4194304 bits"


def test_anatomy_commands(capsys):
    assert main(["anatomy", "count", "--x", "10", "--t", "10", "--K", "2", "--gamma", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"] == "2" and doc["chain_holds"]
    assert main(["anatomy", "divisor", "--M", "12", "--t", "10", "--K", "1", "--gamma", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"] == "8" and doc["mertens_bound"] == "12"
    assert main(["anatomy", "mertens", "--t", "3", "--gamma", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["product"] == "2"


def test_certify_campaign_cli(tmp_path, config_file, capsys):
    csv_path = tmp_path / "rows.csv"
    rc = main(
        [
            "certify",
            "--campaign",
            str(config_file),
            "--count",
            "5",
            "--out-dir",
            str(tmp_path / "wit"),
            "--csv",
            str(csv_path),
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["holds"] == 5 and doc["violated"] == 0
    assert csv_path.exists()


def test_certify_campaign_peel_failure_exits_2(monkeypatch, config_file, capsys):
    from paircert import cli
    from paircert.harness import CampaignReport

    def fake_campaign(config, count, out_dir=None):
        return CampaignReport(count, holds=count, peel_contract_failures=1)

    monkeypatch.setattr(cli, "certify_campaign", fake_campaign)
    rc = main(["certify", "--campaign", str(config_file), "--count", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["peel_contract_failures"] == 1 and doc["violated"] == 0
    assert rc == 2


def test_certify_campaign_inconclusive_exits_3(monkeypatch, config_file, capsys):
    from paircert import cli
    from paircert.harness import CampaignReport

    def fake_campaign(config, count, out_dir=None):
        return CampaignReport(count, holds=count - 1, inconclusive=1)

    monkeypatch.setattr(cli, "certify_campaign", fake_campaign)
    rc = main(["certify", "--campaign", str(config_file), "--count", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["inconclusive"] == 1 and doc["violated"] == 0
    assert rc == 3


def test_certify_requires_target():
    with pytest.raises(SystemExit):
        main(["certify"])


USAGE_ERROR_ARGV = {
    "compress-p-word": [
        "compress", "--instance", "{instance}", "--p", "abc", "--i", "0", "--j", "0"
    ],
    "precision-word": ["--precision", "x", "check", "--instance", "{instance}"],
    "certify-without-target": ["certify"],
}


@pytest.mark.parametrize("argv", list(USAGE_ERROR_ARGV.values()), ids=list(USAGE_ERROR_ARGV))
def test_usage_error_exits_4(instance_file, capsys, argv):
    """A usage error is an input error (4), not a found violation (2)."""
    with pytest.raises(SystemExit) as exc:
        main([a.format(instance=instance_file) for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 4
    assert captured.out == ""
    assert captured.err.startswith("usage: paircert")
    assert ": error: " in captured.err.splitlines()[-1]


# the totient at every prime power that instance_file's supports consult
F_TABLE = {"2^1": "1", "2^2": "2", "3^1": "2", "3^2": "6"}


@pytest.mark.parametrize(
    "breakage",
    [
        lambda doc: doc["psi"].update({"2": "1/x"}),
        lambda doc: doc.pop("params"),
        lambda doc: doc.update(edges=[[2.9, 3]], theta={"3": "1/3"}),
        lambda doc: doc.update(edge=doc.pop("edges")),
        lambda doc: doc["psi"].update({"1_0": "1/10"}),
        lambda doc: doc["psi"].update({" 3 ": doc["psi"].pop("3")}),
        lambda doc: doc["psi"].update({"+4": "1/4"}),
        lambda doc: doc.update(f={**F_TABLE, "2^1_0": "1"}),
        lambda doc: doc["psi"].update({"2": 0.1}),
        lambda doc: doc["psi"].update({"2": True}),
        lambda doc: doc.update(f={**F_TABLE, "3^1": 2.0}),
        lambda doc: doc.update(g={**F_TABLE, "3^2": True}),
        lambda doc: doc["params"].update(epsilon=0.25),
        lambda doc: doc["params"].update(t=True),
        lambda doc: doc.update(f={**F_TABLE, "4^1": "2"}),
        lambda doc: doc.update(g={**F_TABLE, "-3^1": "1"}),
    ],
    ids=[
        "bad-fraction",
        "missing-params",
        "float-edge-vertex",
        "edges-key-typo",
        "underscore-weight-key",
        "padded-weight-key",
        "plus-weight-key",
        "underscore-f-exponent",
        "float-weight",
        "bool-weight",
        "float-f-value",
        "bool-g-value",
        "float-epsilon",
        "bool-t",
        "composite-f-base",
        "negative-g-base",
    ],
)
def test_malformed_instance_exits_4_with_one_line(tmp_path, instance_file, capsys, breakage):
    doc = json.loads(instance_file.read_text())
    breakage(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    rc = main(["check", "--instance", str(path)])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("paircert: InvalidParameter: ")


PARAMS_DOC = {"epsilon": "1/4", "C": "1", "t": "10", "K": "0"}


@pytest.mark.parametrize(
    "config_doc",
    [
        {"density": "1/x"},
        {"seed": "s"},
        {"params": {"epsilon": "1/4"}},
        [1, 2],
        "not json",
        {"params": {**PARAMS_DOC, "precison_bits": 512}},
        {"f-mode": "random"},
        {"seed": 1.9},
        {"params": {**PARAMS_DOC, "precision_bits": 300.5}},
        {"max_exponent": True},
        {"seed": "5"},
        {"max_exponent": 0},
        {"value_numerator_bound": 0},
        {"element_bound": 0},
        {"prime_pool_bound": 0},
        {"prime_pool_bound": 1},
        {"prime_pool_bound": -5},
        {"support_min": 10**6, "support_max": 10**6},
        {"params": {**PARAMS_DOC, "epsilon": 0.1}},
        {"params": {**PARAMS_DOC, "K": True}},
        {"density": 0.5},
    ],
    ids=[
        "bad-fraction",
        "bad-int",
        "params-missing-key",
        "not-an-object",
        "not-json",
        "params-key-typo",
        "key-typo",
        "float-seed",
        "float-precision-bits",
        "bool-max-exponent",
        "numeral-string-seed",
        "zero-max-exponent",
        "zero-value-numerator-bound",
        "zero-element-bound",
        "zero-prime-pool-bound",
        "one-prime-pool-bound",
        "negative-prime-pool-bound",
        "support-max-past-cap",
        "float-epsilon",
        "bool-k",
        "float-density",
    ],
)
@pytest.mark.parametrize(
    "argv",
    [["gen", "--config", "{path}", "--out", "{out}"], ["certify", "--campaign", "{path}"]],
    ids=["gen", "certify-campaign"],
)
def test_malformed_config_exits_4_with_one_line(tmp_path, capsys, config_doc, argv):
    path = tmp_path / "config.json"
    out = tmp_path / "inst.json"
    text = config_doc if isinstance(config_doc, str) else json.dumps(config_doc)
    path.write_text(text)
    rc = main([a.format(path=path, out=out) for a in argv])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == "" and not out.exists()
    lines = captured.err.splitlines()
    error = "ResourceLimit" if "support_max" in config_doc else "InvalidParameter"
    assert len(lines) == 1 and lines[0].startswith(f"paircert: {error}: ")


UNREADABLE_ARGV = {
    "certify-instance-missing": ["certify", "--instance", "{missing}"],
    "check-instance-directory": ["check", "--instance", "{directory}"],
    "gen-config-directory": ["gen", "--config", "{directory}", "--out", "{out}"],
    "certify-campaign-missing": ["certify", "--campaign", "{missing}"],
    "certify-campaign-not-utf8": ["certify", "--campaign", "{latin1}"],
    "certify-instance-no-permission": ["certify", "--instance", "{locked}"],
}


@pytest.mark.parametrize("argv", list(UNREADABLE_ARGV.values()), ids=list(UNREADABLE_ARGV))
def test_unreadable_path_exits_4_with_one_line(tmp_path, capsys, monkeypatch, argv):
    paths = {
        "missing": tmp_path / "missing.json",
        "directory": tmp_path,
        "out": tmp_path / "inst.json",
        "latin1": tmp_path / "latin1.json",
        "locked": tmp_path / "locked.json",
    }
    paths["latin1"].write_bytes(b'{"seed": "\xff"}')
    paths["locked"].write_text("{}")
    read_text = Path.read_text

    def guarded(self, *args, **kwargs):
        # chmod cannot deny a superuser, so the denial is simulated
        if self == paths["locked"]:
            raise PermissionError(13, "Permission denied", str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", guarded)
    rc = main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == "" and not paths["out"].exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("paircert: InvalidParameter: cannot read")


UNWRITABLE_ARGV = {
    "check-out": ["check", "--instance", "{instance}", "--out", "{missing}/x.json"],
    "gen-out": ["gen", "--config", "{config}", "--out", "{missing}/x.json"],
    "peel-trace": ["peel", "--instance", "{instance}", "--trace", "{missing}/t.json"],
    "certify-campaign-out-dir": ["certify", "--campaign", "{config}", "--out-dir", "{config}"],
}


@pytest.mark.parametrize("argv", list(UNWRITABLE_ARGV.values()), ids=list(UNWRITABLE_ARGV))
def test_unwritable_output_exits_4_with_one_line(
    tmp_path, instance_file, config_file, capsys, argv
):
    paths = {"instance": instance_file, "config": config_file, "missing": tmp_path / "missing"}
    rc = main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == "" and not paths["missing"].exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(("paircert: FileNotFoundError: ", "paircert: FileExistsError: "))


def test_memory_error_exits_4_with_one_line(monkeypatch, capsys):
    """A build that runs out of memory is reported like a cap, not as a
    traceback."""
    from paircert import cli

    def out_of_memory(t, gamma):
        raise MemoryError

    monkeypatch.setattr(cli, "mertens_product", out_of_memory)
    assert main(["anatomy", "mertens", "--t", "1000", "--gamma", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "paircert: MemoryError: out of memory\n"


def test_check_writes_exact_json_past_the_int_str_limit(tmp_path, capsys):
    """mu(E) over the 300 largest primes below 20000 has a denominator of
    about 5,100 digits, past Python's default int -> str limit."""
    from paircert.arith import fraction_str, primes_upto
    from paircert.model import mu_pairs

    qs = primes_upto(20000)[-300:]
    psi = WeightFunction({q: F(1, q) for q in qs})
    system = PairSystem(psi, psi, TOTIENT, TOTIENT, frozenset((q, q) for q in qs))
    params = Params(epsilon=F(1, 4), C=F(1, 2), t=F(1), K=F(0))
    path = tmp_path / "big.json"
    save_instance(path, system, params)
    assert main(["check", "--instance", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["lhs"]) > 5000
    assert doc["lhs"] == fraction_str(mu_pairs(system))


MALFORMED_OPTION_ARGV = {
    "divisor-M-zero": ["anatomy", "divisor", "--M", "0"],
    "count-empty-t": ["anatomy", "count", "--t="],
    "count-empty-x": ["anatomy", "count", "--x="],
    "count-empty-gamma": ["anatomy", "count", "--gamma="],
    "count-x-word": ["anatomy", "count", "--x", "abc"],
    "count-gamma-zero-denominator": ["anatomy", "count", "--gamma", "1/0"],
    "edges-t-word": ["edges", "--instance", "{instance}", "--t", "abc"],
    "edges-K-zero-denominator": ["edges", "--instance", "{instance}", "--K", "1/0"],
    "resolve-gamma-word": ["resolve", "--instance", "{instance}", "--N", "1", "--gamma", "x/y"],
}


@pytest.mark.parametrize(
    "argv", list(MALFORMED_OPTION_ARGV.values()), ids=list(MALFORMED_OPTION_ARGV)
)
def test_malformed_option_exits_4_with_one_line(instance_file, capsys, argv):
    """A malformed or empty rational option, or M = 0, is an input error,
    never a traceback or a silent fall-back to the default."""
    rc = main([a.format(instance=instance_file) for a in argv])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("paircert: InvalidParameter: ")


@pytest.mark.parametrize("option", ["--csv", "--out"])
def test_certify_campaign_checks_output_dirs_first(
    monkeypatch, tmp_path, config_file, capsys, option
):
    from paircert import cli

    def no_campaign(*args, **kwargs):
        raise AssertionError("the campaign ran before the output path was checked")

    monkeypatch.setattr(cli, "certify_campaign", no_campaign)
    missing = tmp_path / "missing"
    argv = ["certify", "--campaign", str(config_file), "--count", "300"]
    rc = main([*argv, option, str(missing / "x")])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == "" and not missing.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("paircert: FileNotFoundError: ")
