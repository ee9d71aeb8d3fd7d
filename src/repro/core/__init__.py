"""Matching algorithms: the paper's SB plus both baselines and references."""

from .analysis import (
    MatchingReport,
    assignment_ranks,
    score_regrets,
    summarize,
)
from .base import Matcher
from .brute_force import BruteForceMatcher
from .capacity import expand_capacities
from .chain import ChainMatcher
from .generic import GenericSkylineMatcher, greedy_monotone_reference
from .trace import RoundRecorder, RoundTrace
from .gale_shapley import (
    GaleShapleyMatcher,
    gale_shapley,
    greedy_reference_matching,
    preference_lists_from_scores,
)
from .problem import MatchingProblem
from .result import Matching, MatchPair
from .skyline_matching import SkylineMatcher
from .verify import (
    STABILITY_MARGIN,
    BlockingPair,
    find_blocking_pairs,
    verify_stable_matching,
)

__all__ = [
    "MatchingReport",
    "assignment_ranks",
    "score_regrets",
    "summarize",
    "expand_capacities",
    "GenericSkylineMatcher",
    "greedy_monotone_reference",
    "RoundRecorder",
    "RoundTrace",
    "Matcher",
    "BruteForceMatcher",
    "ChainMatcher",
    "GaleShapleyMatcher",
    "gale_shapley",
    "greedy_reference_matching",
    "preference_lists_from_scores",
    "MatchingProblem",
    "Matching",
    "MatchPair",
    "SkylineMatcher",
    "STABILITY_MARGIN",
    "BlockingPair",
    "find_blocking_pairs",
    "verify_stable_matching",
]
