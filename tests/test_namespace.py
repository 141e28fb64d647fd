"""The public ``qifkit`` namespace, and what importing it and running a CLI
command load."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qifkit

SRC = Path(__file__).resolve().parents[1] / "src"

# every public name of the package, by the submodule that defines it
PUBLIC = {
    "alpha": ("AlphaOrder", "alpha_loss", "arimoto_conditional_entropy", "arimoto_mi",
              "min_expected_alpha_loss", "pointwise_alpha_leakage", "renyi_divergence",
              "renyi_entropy", "sibson_mi", "sibson_via_pointwise"),
    "capacity": ("SimplexOptimizerConfig", "alpha_beta_capacity_objective", "alpha_beta_leakage",
                 "bayes_capacity", "ldp_leakage", "max_case_capacity_bound",
                 "maximal_alpha_beta_leakage", "maximal_alpha_leakage",
                 "multiplicative_f_capacity", "renyi_ldp", "sup_over_prior"),
    "core": ("Channel", "Hyper", "Prior", "compose", "ni_channel", "push"),
    "errors": ("DimensionMismatch", "ParameterError", "QifError", "ValidationError"),
    "fmeans": ("FMeanSpec", "FMeanValidityWarning", "custom_fmean", "ell_alpha", "f_alpha",
               "h_alpha_beta", "identity_fmean"),
    "gains": ("FiniteMatrixGain", "GainSpec", "IdentityGain", "PointwiseInfoGain", "SimplexGain"),
    "vulnerability": ("ADDITIVE", "MULTIPLICATIVE", "LeakageReport", "argmax_action",
                      "gen_posterior_vulnerability_avg", "gen_posterior_vulnerability_max",
                      "gen_prior_vulnerability", "leakage", "posterior_vulnerability_avg",
                      "posterior_vulnerability_max", "prior_vulnerability"),
}
NAMES = {name for names in PUBLIC.values() for name in names}
HEAVY = ("qifkit.gains", "qifkit.verify", "qifkit.vulnerability")


def _fresh(code: str, *argv: str) -> tuple:
    """Run ``code`` in a new interpreter importing qifkit from this checkout;
    its last stdout line is JSON.  Returns (exit code, that JSON value)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert done.stdout, done.stderr
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


def test_every_public_name_is_its_submodule_attribute():
    assert len(NAMES) == 54
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"qifkit.{module}")
        for name in names:
            assert getattr(qifkit, name) is getattr(defining, name), name


def test_star_import_and_dir_list_exactly_the_public_names():
    namespace: dict = {}
    exec("from qifkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES
    assert NAMES <= set(dir(qifkit))
    assert qifkit.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_measure"):
        qifkit.no_such_measure
    with pytest.raises(ImportError, match="no_such_measure"):
        exec("from qifkit import no_such_measure", {})


def test_submodules_import_by_name():
    code = ("import json, types, qifkit; from qifkit import capacity, simplex; "
            "print(json.dumps([isinstance(m, types.ModuleType) and m.__name__ "
            "for m in (capacity, simplex, qifkit.core)]))")
    assert _fresh(code) == (0, ["qifkit.capacity", "qifkit.simplex", "qifkit.core"])


# ---------------------------------------------------------------- start-up

_LOADED = "sorted(m for m in sys.modules if m == 'qifkit' or m.startswith('qifkit.'))"
_RUN_MAIN = ("import json, sys; from qifkit.cli import main; code = main(sys.argv[1:]); "
             f"print(json.dumps([code, {_LOADED}]))")


def test_constructors_load_only_core_and_errors():
    code = f"import json, sys; from qifkit import Channel, Prior; print(json.dumps({_LOADED}))"
    assert _fresh(code) == (0, ["qifkit", "qifkit.core", "qifkit.errors"])


def test_compute_loads_no_verification_or_vulnerability_module(tmp_path):
    channel = tmp_path / "channel.csv"
    channel.write_text("0.9,0.1\n0.1,0.9\n")
    _, (code, loaded) = _fresh(_RUN_MAIN, "compute", "bayes-capacity", "--channel", str(channel))
    assert code == 0
    assert not set(HEAVY) & set(loaded), loaded


def test_verify_axioms_loads_what_it_calls():
    _, (code, loaded) = _fresh(_RUN_MAIN, "verify", "axioms", "--instances", "5")
    assert code == 0
    assert set(HEAVY) <= set(loaded), loaded
