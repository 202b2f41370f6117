"""End-to-end CLI exercises over temp files."""

import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from paircert.cli import main
from paircert.harness import GeneratorConfig, canonical_json, load_instance, save_instance
from paircert.model import PairSystem, TOTIENT, WeightFunction
from paircert.quality import HOLDS, INCONCLUSIVE, VIOLATED, Params


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
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["identities"]["all_hold"]


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


def test_peel_trace(tmp_path, instance_file, capsys):
    trace = tmp_path / "trace.json"
    assert main(["peel", "--instance", str(instance_file), "--trace", str(trace)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert trace.exists()
    assert isinstance(json.loads(trace.read_text()), list)
    assert "edges" in doc


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
