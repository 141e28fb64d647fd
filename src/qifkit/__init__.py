"""Quantitative information flow over finite channels.

Classical and Kolmogorov-Nagumo-generalized vulnerabilities, leakages and
capacities, the order-alpha information measures they recover, and a
numerical harness that checks the governing theorems and axioms at desk
scale.

Each public name is imported from its submodule on first access (PEP 562),
so ``from qifkit import Channel, Prior`` loads only ``core`` and ``errors``.
"""

import importlib

# each public name, by the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "alpha": "AlphaOrder alpha_loss arimoto_conditional_entropy arimoto_mi"
             " min_expected_alpha_loss pointwise_alpha_leakage renyi_divergence renyi_entropy"
             " sibson_mi sibson_via_pointwise",
    "capacity": "SimplexOptimizerConfig alpha_beta_capacity_objective alpha_beta_leakage"
                " bayes_capacity ldp_leakage max_case_capacity_bound maximal_alpha_beta_leakage"
                " maximal_alpha_leakage multiplicative_f_capacity renyi_ldp sup_over_prior",
    "core": "Channel Hyper Prior compose ni_channel push",
    "errors": "DimensionMismatch ParameterError QifError ValidationError",
    "fmeans": "FMeanSpec FMeanValidityWarning custom_fmean ell_alpha f_alpha h_alpha_beta"
              " identity_fmean",
    "gains": "FiniteMatrixGain GainSpec IdentityGain PointwiseInfoGain SimplexGain",
    "vulnerability": "ADDITIVE MULTIPLICATIVE LeakageReport argmax_action"
                     " gen_posterior_vulnerability_avg gen_posterior_vulnerability_max"
                     " gen_prior_vulnerability leakage posterior_vulnerability_avg"
                     " posterior_vulnerability_max prior_vulnerability",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS.values():  # ``qifkit.core`` works after a bare ``import qifkit``
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})
