"""Rank-choose-rank experiments: exact expected spreads and simulations.

A subject ranks n objects, chooses between two of them, and ranks again;
the spread measures how much the chosen object rose and the rejected
object fell between the two rankings. This package computes expected
spreads exactly under a ranking-noise null model (and a two-weight
deliberation model), simulates the classic design and its variants under
pluggable subject models, and estimates design power.
"""

from .core import (
    Choice,
    ObjectPair,
    PositionPair,
    Ranking,
    all_position_pairs,
    spread,
    spread_simplified,
)
from .designs import (
    DESIGN_KINDS,
    DesignConfig,
    DissonanceShiftModel,
    MemoryModel,
    NullModel,
    SubjectModel,
    TrialRecord,
    TwoParamModel,
    iter_experiment,
    pair_count,
    run_experiment,
    run_subject,
)
from .exact import (
    CapacityError,
    ExpectedSpreadTable,
    RankingDistribution,
    brute_force_expected_spread,
    expected_spread_conditional,
    expected_spread_oracle,
    expected_spread_positions,
    expected_spread_table,
    expected_spread_two_param,
    round_half_away,
)
from .noise import (
    build_M,
    build_Q,
    stage_weights,
    state_row,
)
from .stats import (
    DegenerateComparisonError,
    GroupComparison,
    SpreadSummary,
    bootstrap_se,
    compare,
    power_estimate,
    power_report,
    summarize,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CheckResult",
    "Choice",
    "DESIGN_KINDS",
    "DegenerateComparisonError",
    "DesignConfig",
    "DissonanceShiftModel",
    "ExpectedSpreadTable",
    "GroupComparison",
    "MemoryModel",
    "NullModel",
    "ObjectPair",
    "PositionPair",
    "Ranking",
    "RankingDistribution",
    "SpreadSummary",
    "SubjectModel",
    "TrialRecord",
    "TwoParamModel",
    "all_position_pairs",
    "bootstrap_se",
    "brute_force_expected_spread",
    "build_M",
    "build_Q",
    "compare",
    "expected_spread_conditional",
    "expected_spread_oracle",
    "expected_spread_positions",
    "expected_spread_table",
    "expected_spread_two_param",
    "iter_experiment",
    "pair_count",
    "power_estimate",
    "power_report",
    "round_half_away",
    "run_checks",
    "run_experiment",
    "run_subject",
    "spread",
    "spread_simplified",
    "stage_weights",
    "state_row",
    "summarize",
    "__version__",
]
