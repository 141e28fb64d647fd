import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qifkit.cli import _MEASURES, CliError, _parse_fmean, main
from qifkit.verify import VerificationResult

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_order_zero_simplex_measures_exit_0(files, capsys):
    argv = ["--prior", str(files["prior"]), "--channel", str(files["channel"]),
            "--gain", "simplex", "--f", "alpha:0"]
    for measure in ("post-avg", "post-max", "leakage-mult"):
        code, report = run_json(capsys, ["compute", measure, *argv])
        assert code == 0
        assert report["value"] == (0.0 if measure == "leakage-mult" else 0.5)


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


def test_max_alpha_capacity_report_records_its_search_options(files, capsys):
    argv = ["compute", "max-alpha-capacity", "--alpha", "2", "--channel", str(files["channel"])]
    _, default = run_json(capsys, argv)
    _, coarse = run_json(capsys, argv + ["--grid-resolution", "3", "--restarts", "2"])
    assert default["params"] == {"alpha": 2.0, "grid_resolution": 60, "restarts": 12}
    assert coarse["params"] == {"alpha": 2.0, "grid_resolution": 3, "restarts": 2}
    # other measures record no search options
    _, other = run_json(capsys, ["compute", "bayes-capacity", "--channel", str(files["channel"])])
    assert other["params"] == {}


def test_seed_from_environment(files, capsys, monkeypatch):
    monkeypatch.setenv("QIFKIT_SEED", "99")
    _, report = run_json(
        capsys, ["compute", "bayes-capacity", "--channel", str(files["channel"])]
    )
    assert report["provenance"]["seed"] == 99


def test_validation_errors_exit_2(files, capsys, tmp_path, monkeypatch):
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
    four = tmp_path / "c4.csv"  # on 4 secrets the search skips its grid: only the config refuses
    four.write_text("0.25,0.25,0.25,0.25\n" * 4)
    utf16 = tmp_path / "utf16.csv"
    utf16.write_bytes(b"\xff\xfe0\x00.\x005\x00")
    for argv in (
        ["compute", "bayes-capacity", "--channel", str(utf16)],
        ["compute", "ldp", "--channel", channel, "--out", str(tmp_path)],
        ["compute", "mult-f-capacity", "--f", "power:abc", "--channel", channel],
        ["verify", "equivalence", "--channel", channel, "--u-max", "0"],
        ["verify", "equivalence", "--channel", channel, "--u-max", "1"],
        ["verify", "axioms", "--instances", "0"],
        ["verify", "dual", "--instances", "0"],
        ["verify", "dual", "--instances", "-3"],
        ["compute", "max-alpha-capacity", "--alpha", "2", "--channel", channel, "--seed", "-1"],
        ["compute", "max-alpha-capacity", "--alpha", "2", "--channel", str(four),
         "--grid-resolution", "-5"],
        ["verify", "dual", "--instances", "5", "--seed", "-1"],
    ):
        assert main(argv) == 2, argv
    # the provenance block reads the seed, so every compute command checks it
    for seed in ("abc", "1.5", "-2"):
        monkeypatch.setenv("QIFKIT_SEED", seed)
        for measure in sorted(_MEASURES):
            argv = ["compute", measure, "--restarts", "1", "--grid-resolution", "5"]
            assert main(argv + sum(_full_argv(measure, files), [])) == 2, (seed, measure)
            assert "must be a non-negative integer" in capsys.readouterr().err
    assert "Traceback" not in capsys.readouterr().err


def test_nan_power_exponent_names_the_power_option(files, capsys):
    with pytest.raises(CliError, match="power exponent must be nonzero and < 1"):
        _parse_fmean("power:nan")
    argv = ["compute", "mult-f-capacity", "--f", "power:nan", "--channel", str(files["channel"])]
    assert main(argv) == 2
    assert "power exponent" in capsys.readouterr().err


def test_gain_matrix_from_csv(files, capsys, tmp_path):
    gain = tmp_path / "gain.csv"
    gain.write_text("2,0\n0,1\n")
    code, report = run_json(
        capsys,
        ["compute", "prior-v", "--prior", str(files["prior"]), "--gain", str(gain)],
    )
    assert code == 0
    assert report["value"] == pytest.approx(1.0)


def test_power_means_report_finite_values_at_extreme_gains(files, capsys, tmp_path):
    # t^-99 of a 1e-8 gain overflows, and t^5 of a 2e70 one: both means stay in the log domain
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("1e-8,1e-8\n")
    code, report = run_json(capsys, ["compute", "prior-v", "--prior", str(files["prior"]),
                                     "--gain", str(tiny), "--f", "alpha:0.01"])
    assert code == 0 and report["reason"] is None
    assert report["value"] == pytest.approx(1e-8, rel=1e-13)
    channel, huge = tmp_path / "channel.csv", tmp_path / "huge.csv"
    channel.write_text("0.9,0.1\n0.2,0.8\n")
    huge.write_text("1e70,2e70\n2e70,1e70\n")
    code, report = run_json(capsys, ["compute", "post-avg", "--prior", str(files["prior"]),
                                     "--channel", str(channel), "--gain", str(huge),
                                     "--f", "alpha:2", "--hmean", "ab:2,10"])
    assert code == 0 and report["reason"] is None
    assert report["value"] == pytest.approx(1.8300432440132e70, rel=1e-12)


def test_mult_f_capacity_refuses_a_decreasing_inverse(files, capsys):
    # power:-1 is f_alpha(0.5), t^-1; the --max-case bound still serves both
    for spec in ("alpha:0.5", "power:-1"):
        argv = ["compute", "mult-f-capacity", "--f", spec, "--channel", str(files["channel"])]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: f_alpha[0.5] has a decreasing inverse"), err
        assert run_json(capsys, argv + ["--max-case"])[0] == 0


def test_max_case_capacity_reports_an_upper_bound(files, capsys):
    from qifkit import Channel, f_alpha, max_case_capacity_bound

    argv = ["compute", "mult-f-capacity", "--f", "alpha:2", "--channel", str(files["channel"])]
    code, report = run_json(capsys, argv + ["--max-case"])
    assert code == 0
    assert report["diagnostics"] == {"bound_kind": "upper_bound"}
    channel = Channel([[0.9, 0.1], [0.1, 0.9]])
    assert report["value"] == max_case_capacity_bound(channel, f_alpha(2.0))


def test_power_one_is_the_identity_mean(files, capsys):
    argv = ["compute", "leakage-mult", "--prior", str(files["prior"]),
            "--channel", str(files["channel"]), "--gain", "identity", "--f"]
    _, power = run_json(capsys, argv + ["power:1"])
    _, identity = run_json(capsys, argv + ["identity"])
    assert power["value"] == identity["value"] == pytest.approx(math.log(1.8))
    assert power["diagnostics"] == identity["diagnostics"]


def test_prior_csv_with_a_header_row_or_one_column(files, capsys, tmp_path):
    header, column = tmp_path / "header.csv", tmp_path / "column.csv"
    header.write_text("x0,x1\n0.8,0.2\n")
    column.write_text("0.8\n0.2\n")
    for prior in (header, column):
        code, report = run_json(capsys, ["compute", "prior-v", "--prior", str(prior),
                                         "--gain", "identity"])
        assert code == 0
        assert report["value"] == 0.8


def test_input_and_option_errors_exit_2_with_their_message(files, capsys, tmp_path):
    empty, gain = tmp_path / "empty.csv", tmp_path / "gain3.csv"
    empty.write_text("\n ,\n")
    gain.write_text("1,0,0\n0,1,0\n")
    prior, channel = str(files["prior"]), str(files["channel"])
    for argv, message in (
        (["compute", "bayes-capacity", "--channel", str(empty)], "is empty"),
        (["compute", "prior-v", "--prior", prior, "--gain", str(gain)],
         "gain matrix has 3 columns, expected 2"),
        (["compute", "mult-f-capacity", "--f", "ab:2", "--channel", channel],
         "ab f-mean needs two orders"),
        (["compute", "prior-v", "--prior", channel, "--gain", "identity"],
         "a prior must be a single CSV row"),
        (["verify", "equivalence"], "verify equivalence requires --channel"),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, (argv, err)


def test_infinite_order_spellings_give_one_report(files, capsys):
    from qifkit import Prior, renyi_entropy

    reports = [run_json(capsys, ["compute", "renyi-entropy", "--prior", str(files["prior"]),
                                 "--alpha", spelling])[1]
               for spelling in ("inf", "Infinity", "INF")]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["params"] == {"alpha": "inf"}
    assert reports[0]["value"] == renyi_entropy(Prior([0.5, 0.5]), math.inf)


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
    assert report["params"] == {"instances": 20}


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
    # the options that set the result, not the ignored --instances
    assert report["params"] == {"grid_resolution": 50, "restarts": 12, "u_max": 4}
    # 52 priors (51 grid points and the uniform one) and 40 draws: every map
    # is covered, one per partition of the 2 secrets is scored
    for result in report["results"]:
        assert result["instances_checked"] == 52 * 16 + 40
        assert result["worst_instance"]["systems_scored"] == 52 * 2 + 40


def test_compute_help_names_every_f_mean_form(capsys):
    forms = {
        "identity": "identity", "alpha:A": "alpha:2", "ab:A,B": "ab:2,3", "power:P": "power:0.5",
    }
    for example in forms.values():
        _parse_fmean(example)
    with pytest.raises(CliError) as rejected:
        _parse_fmean("beta:2")
    with pytest.raises(SystemExit):
        main(["compute", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    # the --f and --hmean help run up to the next flag
    helps = [text.rsplit(flag, 1)[1].split(" --", 1)[0] for flag in ("--f F", "--hmean HMEAN")]
    for named in [str(rejected.value)] + helps:
        assert all(form in named for form in forms), named


def test_verify_failure_exits_3(files, capsys, monkeypatch):
    import qifkit.verify as verify_module

    worst = {"instance": 2, "prior": [0.25, 0.75], "alpha": 2.0, "beta": math.inf}

    def failing(instances, seed):
        return [VerificationResult("dual:forced-failure", instances, 1.0, 1e-9, worst)]

    monkeypatch.setattr(verify_module, "verify_dual_formulas", failing)
    code, report = run_json(capsys, ["verify", "dual", "--instances", "5"])
    assert code == 3
    assert report["all_passed"] is False
    assert report["results"][0]["worst_instance"] == {**worst, "beta": "inf"}


def _full_argv(measure, files):
    flags = {
        "prior": str(files["prior"]),
        "channel": str(files["channel"]),
        "reference": str(files["prior"]),
        "posterior": str(files["prior"]),
        "gain": "identity",
        "alpha": "2",
        "beta": "2",
        "f": "alpha:2",
    }
    return [["--" + name, flags[name]] for name in _MEASURES[measure].inputs]


@pytest.mark.parametrize("measure", sorted(_MEASURES))
def test_every_measure_required_inputs_and_bits(measure, files, capsys):
    pairs = _full_argv(measure, files)
    base = ["compute", measure, "--restarts", "1", "--grid-resolution", "5"]
    assert main(base + sum(pairs, [])) == 0
    assert main(base + sum(pairs, []) + ["--bits"]) == (0 if _MEASURES[measure].log_valued else 2)
    for dropped in range(len(pairs)):
        kept = sum(pairs[:dropped] + pairs[dropped + 1:], [])
        assert main(base + kept) == 2
        err = capsys.readouterr().err
        assert f"error: {measure} requires {pairs[dropped][0]}\n" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [
        "nan,0.5\n0.5,0.5\n",
        "-0.1,1.1\n0.5,0.5\n",
        "0.5,0.5\n1\n",
        "0.5,0.5\nx,y\n",
        b"\xff\xfe0\x00.\x005\x00",
        None,
    ],
    ids=["nan", "negative", "ragged", "non-numeric", "non-utf8", "directory"],
)
def test_malformed_channel_exits_2(content, capsys, tmp_path):
    channel = tmp_path / "channel.csv"
    if content is None:
        channel.mkdir()
    elif isinstance(content, bytes):
        channel.write_bytes(content)
    else:
        channel.write_text(content)
    assert main(["compute", "bayes-capacity", "--channel", str(channel)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_readme_measure_table_matches_registry():
    text = README.read_text()
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*?) \| (yes|no) \|$", text, re.MULTILINE)
    assert sorted(name for name, _, _ in rows) == sorted(_MEASURES)
    for name, inputs, log_valued in rows:
        assert re.findall(r"`--([a-z]+)`", inputs) == list(_MEASURES[name].inputs), name
        assert (log_valued == "yes") == _MEASURES[name].log_valued, name
