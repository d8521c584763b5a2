"""TOPSIS ranking over randomized per-criterion weight bands.

Entropy and CRITIC weights (plus optional custom sets) span a weight band
per criterion; t weight vectors are sampled from the bands, each is ranked
with TOPSIS, and the per-iteration ranks are aggregated into a final order
by the mode of each alternative's scores.

Public names load on first access, so `import bandtopsis` imports no
numpy until a name that needs it is used.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_SOURCES = {
    "aggregate": ("build_rank_matrix", "final_ranking", "rank_frequency"),
    "base": ("DEFAULT_ITERATIONS", "DEFAULT_SEED", "ComputationError", "ProblemFormatError",
             "ValidationError"),
    "charts": ("charts_from_summary",),
    "io": ("build_summary", "emit_rwm", "emit_tables", "parse_problem"),
    "model": ("CriterionSpec", "DecisionMatrix", "Direction", "FinalRanking", "NamedWeightSet",
              "RankMatrix", "RunConfig", "TopsisResult", "WeightBounds", "problem_violations",
              "validate_problem"),
    "pipeline": ("RunReport", "collect_weight_sets", "run_pipeline"),
    "sampling": ("RandomWeightMatrix", "compute_bounds", "sample_weight_matrix"),
    "summary": ("load_summary",),
    "topsis": ("IdealPair", "batch_topsis", "ideal_solutions", "topsis_run", "vector_normalize"),
    "weighting": ("CriticReport", "EntropyReport", "critic_weights", "entropy_weights",
                  "minmax_normalize", "normalize_custom_set"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule that defines a public name and cache the name
    here (PEP 562). Other names, such as submodules not yet imported,
    raise AttributeError, which lets `from bandtopsis import kernels`
    fall back to importing the submodule."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
