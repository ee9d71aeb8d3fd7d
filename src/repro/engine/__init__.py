"""Unified matching engine: one pipeline over algorithms and storage.

The package ties the library's pieces behind a single coherent API:

* :class:`MatchingConfig` — every tunable of a run in one dataclass;
* the **algorithm registry** (:func:`register_matcher`,
  :func:`available_algorithms`, :func:`create_matcher`) with SB, Brute
  Force, Chain, Gale-Shapley, and the monotone generic-SB
  pre-registered;
* **pluggable storage backends** (:func:`register_backend`,
  :func:`available_backends`, :func:`get_backend`): the paper's
  simulated disk stack and a zero-I/O in-memory backend for serving
  workloads;
* the **pipeline** (:func:`plan` → :class:`MatchingPlan` →
  :class:`PreparedMatching`, fronted by :class:`MatchingService`):
  compile a config once, stage an object set once, then answer repeated
  preference workloads against warm state with a keyed LRU result
  cache and a persistent shard worker pool;
* the one-shot :func:`match` and :func:`open_session`, which compile a
  plan and run through it, returning a unified :class:`MatchResult` for
  both 1-1 and capacitated runs.
"""

from .backends import (
    DiskBackend,
    InMemoryProblem,
    MemoryBackend,
    StorageBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .cache import ResultCache, config_fingerprint, prefs_digest
from .config import MatchingConfig
from .facade import match, open_session
# MatchingPlan/PreparedMatching are re-exported here; the plan()
# factory deliberately is NOT (import it as repro.plan or from
# repro.engine.plan) — re-binding it here would shadow the
# repro.engine.plan submodule attribute.
from .plan import MatchingPlan, PreparedMatching
from .request import MatchingRequest
from .service import MatchingService, ServiceStats
from .async_service import AsyncMatchingService
from .registry import (
    algorithm_aliases,
    algorithm_supports_repair,
    available_algorithms,
    create_matcher,
    register_matcher,
    unregister_matcher,
)
from .result import MatchResult

# Importing the adapters registers the built-in algorithms.
from .adapters import GenericSkylineAdapter

__all__ = [
    "DiskBackend",
    "InMemoryProblem",
    "MemoryBackend",
    "StorageBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "AsyncMatchingService",
    "MatchingConfig",
    "MatchingPlan",
    "MatchingRequest",
    "MatchingService",
    "ServiceStats",
    "PreparedMatching",
    "ResultCache",
    "config_fingerprint",
    "prefs_digest",
    "match",
    "open_session",
    "algorithm_aliases",
    "algorithm_supports_repair",
    "available_algorithms",
    "create_matcher",
    "register_matcher",
    "unregister_matcher",
    "MatchResult",
    "GenericSkylineAdapter",
]
