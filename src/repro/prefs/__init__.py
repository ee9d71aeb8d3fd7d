"""Preference functions and the TA-based reverse top-1 index."""

from .functions import (
    WEIGHT_SUM_TOLERANCE,
    LinearPreference,
    canonical_score,
    canonical_score_matrix,
    generate_preferences,
    generate_segmented_preferences,
    weights_matrix,
)
from .index import FunctionIndex, tight_threshold
from .monotone import (
    CobbDouglasPreference,
    MinPreference,
    MonotonePreference,
    QuadraticPreference,
    is_monotone_on_sample,
)

__all__ = [
    "CobbDouglasPreference",
    "MinPreference",
    "MonotonePreference",
    "QuadraticPreference",
    "is_monotone_on_sample",
    "WEIGHT_SUM_TOLERANCE",
    "LinearPreference",
    "canonical_score",
    "canonical_score_matrix",
    "generate_preferences",
    "generate_segmented_preferences",
    "weights_matrix",
    "FunctionIndex",
    "tight_threshold",
]
