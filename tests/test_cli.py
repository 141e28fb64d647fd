import json
import math

import numpy as np
import pytest

from qifkit.cli import main
from qifkit.verify import VerificationResult


@pytest.fixture
def files(tmp_path):
    channel = tmp_path / "bsc01.csv"
    channel.write_text("0.9,0.1\n0.1,0.9\n")
    prior = tmp_path / "u2.csv"
    prior.write_text("0.5,0.5\n")
    ni = tmp_path / "ni.csv"
    ni.write_text("1\n1\n")
    ident = tmp_path / "ident.csv"
    ident.write_text("1,0\n0,1\n")
    return {"channel": channel, "prior": prior, "ni": ni, "ident": ident, "dir": tmp_path}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_bayes_capacity_report(files, capsys):
    code, report = run_json(
        capsys, ["compute", "bayes-capacity", "--channel", str(files["channel"])]
    )
    assert code == 0
    assert report["schema"] == 1
    assert report["unit"] == "nats"
    assert report["value"] == pytest.approx(math.log(1.8))
    assert report["provenance"]["inputs"]["channel"].startswith("sha256:")


def test_bits_is_exact_division(files, capsys):
    _, nats = run_json(
        capsys, ["compute", "bayes-capacity", "--channel", str(files["channel"])]
    )
    _, bits = run_json(
        capsys, ["compute", "bayes-capacity", "--channel", str(files["channel"]), "--bits"]
    )
    assert bits["value"] == nats["value"] / math.log(2.0)
    assert bits["unit"] == "bits"
    assert bits["value"] == pytest.approx(0.8480, abs=1e-4)


def test_bits_rejected_for_probability_valued_measure(files, capsys):
    code = main(
        ["compute", "prior-v", "--prior", str(files["prior"]), "--gain", "identity", "--bits"]
    )
    assert code == 2


def test_arimoto_ni_channel_is_zero(files, capsys):
    code, report = run_json(
        capsys,
        [
            "compute", "arimoto-mi", "--alpha", "1",
            "--channel", str(files["ni"]), "--prior", str(files["prior"]),
        ],
    )
    assert code == 0
    assert report["value"] == pytest.approx(0.0, abs=1e-12)


def test_infinite_value_serialized_with_reason(files, capsys):
    code, report = run_json(
        capsys, ["compute", "ldp", "--channel", str(files["ident"])]
    )
    assert code == 0
    assert report["value"] == "inf"
    assert report["reason"] == "zero_channel_entry"


def test_leakage_mult_diagnostics(files, capsys):
    code, report = run_json(
        capsys,
        [
            "compute", "leakage-mult", "--prior", str(files["prior"]),
            "--channel", str(files["channel"]), "--gain", "identity",
        ],
    )
    assert code == 0
    assert report["value"] == pytest.approx(math.log(1.8))
    assert report["diagnostics"]["prior_vulnerability"] == pytest.approx(0.5)
    assert report["diagnostics"]["posterior_avg"] == pytest.approx(0.9)


def test_reports_byte_identical(files, capsys):
    out1 = files["dir"] / "a.json"
    out2 = files["dir"] / "b.json"
    for out in (out1, out2):
        assert (
            main(
                [
                    "compute", "max-alpha-capacity", "--alpha", "2",
                    "--channel", str(files["channel"]), "--seed", "7",
                    "--grid-resolution", "30", "--restarts", "4", "--out", str(out),
                ]
            )
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_from_environment(files, capsys, monkeypatch):
    monkeypatch.setenv("QIFKIT_SEED", "99")
    _, report = run_json(
        capsys, ["compute", "bayes-capacity", "--channel", str(files["channel"])]
    )
    assert report["provenance"]["seed"] == 99


def test_validation_errors_exit_2(files, capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.7,0.2\n0.5,0.5\n")
    assert main(["compute", "bayes-capacity", "--channel", str(bad)]) == 2
    missing = main(["compute", "bayes-capacity", "--channel", str(tmp_path / "nope.csv")])
    assert missing == 2
    assert main(["compute", "renyi-entropy", "--prior", str(files["prior"])]) == 2
    assert (
        main(
            [
                "compute", "renyi-ldp", "--alpha", "0.5",
                "--channel", str(files["channel"]),
            ]
        )
        == 2
    )
    channel = str(files["channel"])
    for argv in (
        ["compute", "mult-f-capacity", "--f", "power:abc", "--channel", channel],
        ["verify", "equivalence", "--channel", channel, "--u-max", "0"],
        ["verify", "equivalence", "--channel", channel, "--u-max", "1"],
        ["verify", "axioms", "--instances", "0"],
        ["verify", "dual", "--instances", "0"],
        ["verify", "dual", "--instances", "-3"],
    ):
        assert main(argv) == 2, argv
    assert "Traceback" not in capsys.readouterr().err


def test_gain_matrix_from_csv(files, capsys, tmp_path):
    gain = tmp_path / "gain.csv"
    gain.write_text("2,0\n0,1\n")
    code, report = run_json(
        capsys,
        ["compute", "prior-v", "--prior", str(files["prior"]), "--gain", str(gain)],
    )
    assert code == 0
    assert report["value"] == pytest.approx(1.0)


def test_renyi_divergence_requires_reference(files, capsys, tmp_path):
    skew = tmp_path / "skew.csv"
    skew.write_text("0.9,0.1\n")
    code, report = run_json(
        capsys,
        [
            "compute", "renyi-divergence", "--alpha", "2",
            "--prior", str(skew), "--reference", str(files["prior"]),
        ],
    )
    assert code == 0
    assert report["value"] == pytest.approx(math.log(1.64))


def test_verify_dual_cli(files, capsys):
    code, report = run_json(capsys, ["verify", "dual", "--instances", "20", "--seed", "3"])
    assert code == 0
    assert report["all_passed"] is True
    assert len(report["results"]) == 4


def test_verify_equivalence_cli(files, capsys):
    code, report = run_json(
        capsys,
        [
            "verify", "equivalence", "--channel", str(files["channel"]),
            "--grid-resolution", "50", "--seed", "1",
        ],
    )
    assert code == 0
    assert report["all_passed"] is True


def test_verify_failure_exits_3(files, capsys, monkeypatch):
    import qifkit.cli as cli_module

    def failing(instances, seed):
        return [VerificationResult("dual:forced-failure", instances, 1.0, 1e-9)]

    monkeypatch.setattr(cli_module, "verify_dual_formulas", failing)
    code, report = run_json(capsys, ["verify", "dual", "--instances", "5"])
    assert code == 3
    assert report["all_passed"] is False
