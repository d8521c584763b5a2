"""TOPSIS ranking over randomized per-criterion weight bands.

Entropy and CRITIC weights (plus optional custom sets) span a weight band
per criterion; t weight vectors are sampled from the bands, each is ranked
with TOPSIS, and the per-iteration ranks are aggregated into a final order
by the mode of each alternative's scores.
"""

from .aggregate import build_rank_matrix, final_ranking, modal_score, rank_frequency
from .charts import charts_from_summary, emit_charts
from .io import (
    ProblemFormatError,
    build_summary,
    emit_tables,
    final_ranking_from_summary,
    load_summary,
    parse_problem,
)
from .model import (
    DEFAULT_ITERATIONS,
    DEFAULT_SEED,
    ComputationError,
    CriterionSpec,
    DecisionMatrix,
    Direction,
    FinalRanking,
    NamedWeightSet,
    RandomWeightMatrix,
    RankMatrix,
    RunConfig,
    TopsisResult,
    ValidationError,
    WeightBounds,
    problem_violations,
    validate_problem,
)
from .pipeline import RunReport, collect_weight_sets, run_pipeline
from .sampling import compute_bounds, sample_rows, sample_weight_matrix
from .topsis import (
    DistancePair,
    IdealPair,
    batch_topsis,
    closeness,
    distances,
    ideal_solutions,
    rank_alternatives,
    topsis_run,
    vector_normalize,
)
from .weighting import (
    CriticReport,
    EntropyReport,
    critic_weights,
    entropy_weights,
    minmax_normalize,
    normalize_custom_set,
    pearson,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ITERATIONS",
    "DEFAULT_SEED",
    "ComputationError",
    "CriticReport",
    "CriterionSpec",
    "DecisionMatrix",
    "Direction",
    "DistancePair",
    "EntropyReport",
    "FinalRanking",
    "IdealPair",
    "NamedWeightSet",
    "ProblemFormatError",
    "RandomWeightMatrix",
    "RankMatrix",
    "RunConfig",
    "RunReport",
    "TopsisResult",
    "ValidationError",
    "WeightBounds",
    "batch_topsis",
    "build_rank_matrix",
    "build_summary",
    "charts_from_summary",
    "closeness",
    "collect_weight_sets",
    "compute_bounds",
    "critic_weights",
    "distances",
    "emit_charts",
    "emit_tables",
    "entropy_weights",
    "final_ranking",
    "final_ranking_from_summary",
    "ideal_solutions",
    "load_summary",
    "minmax_normalize",
    "modal_score",
    "normalize_custom_set",
    "parse_problem",
    "pearson",
    "problem_violations",
    "rank_alternatives",
    "rank_frequency",
    "run_pipeline",
    "sample_rows",
    "sample_weight_matrix",
    "topsis_run",
    "validate_problem",
    "vector_normalize",
]
