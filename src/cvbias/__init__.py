"""Selection-induced bias estimation and correction for LOO-CV model selection."""

import importlib

__version__ = "0.1.0"

# Every public name, by the submodule that defines it. The submodules load
# numpy, so ``import cvbias`` imports none of them: a name's module is
# imported when the name is first used (PEP 562). This also lets the CLI
# set its thread settings before numpy loads under ``python -m cvbias.cli``.
_EXPORTS = {
    "conjlm": (
        "Dataset",
        "NigPrior",
        "PosteriorFit",
        "draw_posterior",
        "elpd_loo_exact",
        "fit",
        "log_pred",
        "pointwise_loglik",
    ),
    "gpd": ("GpdFit", "fit_gpd", "gpd_quantile", "khat_threshold", "tail_cutoff"),
    "orderstats": (
        "ElpdComparison",
        "blom_max",
        "build_comparison",
        "diagnose_tail",
        "halfnormal_sigma",
        "median_baseline",
        "threshold",
    ),
    "psisloo": (
        "ElpdDiff",
        "ElpdEstimate",
        "elpd_diff",
        "elpd_loo_psis",
        "elpd_se",
        "from_pointwise",
        "mlpd",
    ),
    "search": (
        "SearchPath",
        "SearchStep",
        "StopVerdicts",
        "correct_path",
        "forward_search",
        "stopping_rules",
    ),
    "sim": (
        "BlockDgpSpec",
        "NestedDgpSpec",
        "gen_block",
        "gen_nested",
        "run_forward_experiment",
        "run_many_k",
        "summarize_many_k",
    ),
    "weights": (
        "WeightReport",
        "prob_better_normal",
        "pseudo_bma",
        "pseudo_bma_plus",
        "rule_of_four",
        "weight_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
