"""End-to-end CLI exercises over temp files."""

import json
from fractions import Fraction as F

import pytest

from paircert.cli import main
from paircert.harness import GeneratorConfig, canonical_json, load_instance, save_instance
from paircert.model import PairSystem, TOTIENT, WeightFunction
from paircert.quality import Params


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


def test_compress_verify(instance_file, capsys):
    rc = main(
        ["compress", "--instance", str(instance_file), "--p", "3", "--i", "1", "--j", "0", "--verify"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["identities"]["all_hold"]


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


def test_certify_requires_target():
    with pytest.raises(SystemExit):
        main(["certify"])


@pytest.mark.parametrize(
    "breakage",
    [
        lambda doc: doc["psi"].update({"2": "1/x"}),
        lambda doc: doc.pop("params"),
    ],
    ids=["bad-fraction", "missing-params"],
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


@pytest.mark.parametrize(
    "config_doc",
    [{"density": "1/x"}, {"seed": "s"}, {"params": {"epsilon": "1/4"}}, [1, 2], "not json"],
    ids=["bad-fraction", "bad-int", "params-missing-key", "not-an-object", "not-json"],
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
    assert len(lines) == 1 and lines[0].startswith("paircert: InvalidParameter: ")
