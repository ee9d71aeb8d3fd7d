"""repro — reproduction of *Efficient Evaluation of Multiple Preference
Queries* (Leong Hou U, Nikos Mamoulis, Kyriakos Mouratidis; ICDE 2009).

The library computes the stable 1-1 matching between a set of linear
preference functions (queries) and a set of multidimensional objects,
using the paper's skyline-based SB algorithm, with the Brute Force and
Chain baselines, a simulated disk + LRU buffer cost model, and a full
benchmark harness reproducing the paper's figures.

Quickstart (``repro.match``, the one-shot front door):

    >>> import repro
    >>> objects = repro.generate_independent(n=300, dims=3, seed=7)
    >>> prefs = repro.generate_preferences(n=8, dims=3, seed=11)
    >>> result = repro.match(objects, prefs)          # SB on the paper's
    >>> len(result.pairs)                             # simulated disk
    8
    >>> result.io_accesses > 0
    True

The serving fast path (same pairs, zero simulated I/O) and the sharded
multi-core path (same pairs, many workers) are single keywords away:

    >>> fast = repro.match(objects, prefs, backend="memory")
    >>> fast.as_set() == result.as_set()
    True
    >>> wide = repro.match(objects, prefs, backend="memory",
    ...                    shards=2, executor="serial")
    >>> wide.as_set() == result.as_set()
    True

Sustained traffic goes through the serving pipeline — compile a plan
once, stage the objects once, answer repeated workloads from warm
state with a keyed result cache:

    >>> service = repro.MatchingService(objects, backend="memory")
    >>> service.submit(prefs).as_set() == result.as_set()
    True
    >>> service.submit(prefs) is service.submit(prefs)  # cached repeats
    True

Batches of requests share work — duplicates are computed once and
linear misses are scored in one vectorized pass (``repro.plan`` and
``MatchingRequest`` expose the lower-level knobs):

    >>> batch = service.submit_many([prefs, prefs])
    >>> batch[0] is batch[1]                # fanned-out, not recomputed
    True

``repro.match`` accepts any registered algorithm
(:func:`repro.available_algorithms`) and storage backend
(:func:`repro.available_backends`), and runs through the same
``repro.plan`` pipeline; the lower-level classes
(:class:`MatchingProblem`, :class:`SkylineMatcher`, ...) stay available
for streaming pairs and custom instrumentation, and
:func:`repro.open_session` keeps a matching alive under streaming
updates. The same serving stack crosses machine boundaries through
:mod:`repro.net`: :class:`MatchingServer`/:class:`MatchingClient` put
the service behind a socket, and ``executor="remote"`` fans shard
tasks out to :class:`ShardWorkerServer` processes.
:mod:`repro.replay` exercises all of the above as one system: it
replays time-stamped churn + request traces against the serving stack
(:class:`ReplayDriver`), verifies every served result against a
ground-truth recompute, and can rewind the whole system to any earlier
clock, bit-identically. The full documentation site lives in ``docs/``
(build it with ``mkdocs build`` after ``pip install -e .[docs]``).
"""

from .core import (
    BruteForceMatcher,
    ChainMatcher,
    GaleShapleyMatcher,
    GenericSkylineMatcher,
    Matcher,
    Matching,
    MatchingProblem,
    MatchPair,
    SkylineMatcher,
    find_blocking_pairs,
    greedy_reference_matching,
    verify_stable_matching,
)
from .engine import (
    AsyncMatchingService,
    MatchingConfig,
    MatchingPlan,
    MatchingRequest,
    MatchingService,
    MatchResult,
    PreparedMatching,
    ServiceStats,
    algorithm_supports_repair,
    available_algorithms,
    available_backends,
    match,
    open_session,
    register_backend,
    register_matcher,
)
from .engine.plan import plan
from .dynamic import (
    DynamicMatcher,
    RecomputeSession,
    UpdateMix,
    apply_events,
    generate_events,
)

# The parallel package builds on the engine, so it imports after it.
from .parallel import ShardedMatcher, available_executors

# The network layer sits on top of both the engine and the parallel
# package, so it imports last.
from .net import (
    MatchingClient,
    MatchingServer,
    RemoteExecutor,
    ShardWorkerServer,
)

# The replay harness drives the whole stack (engine + dynamic + net)
# under a simulated clock, so it imports after all of them.
from .replay import (
    ReplayDriver,
    ScenarioReport,
    Trace,
    TraceRecorder,
    scenario_trace,
)
from .data import (
    Dataset,
    generate_anticorrelated,
    generate_clustered,
    generate_correlated,
    generate_independent,
    generate_zillow,
    load_dataset_csv,
    save_dataset_csv,
)
from .errors import ReproError
from .prefs import FunctionIndex, LinearPreference, generate_preferences
from .skyline import bnl_skyline, compute_skyline, sfs_skyline
from .storage import IOStats, SearchStats

__version__ = "1.0.0"

__all__ = [
    "BruteForceMatcher",
    "ChainMatcher",
    "GaleShapleyMatcher",
    "GenericSkylineMatcher",
    "AsyncMatchingService",
    "MatchingConfig",
    "MatchingPlan",
    "MatchingRequest",
    "MatchingService",
    "MatchResult",
    "PreparedMatching",
    "ServiceStats",
    "algorithm_supports_repair",
    "available_algorithms",
    "available_backends",
    "match",
    "open_session",
    "plan",
    "register_backend",
    "register_matcher",
    "DynamicMatcher",
    "RecomputeSession",
    "UpdateMix",
    "apply_events",
    "generate_events",
    "ShardedMatcher",
    "available_executors",
    "MatchingServer",
    "MatchingClient",
    "ShardWorkerServer",
    "RemoteExecutor",
    "ReplayDriver",
    "ScenarioReport",
    "Trace",
    "TraceRecorder",
    "scenario_trace",
    "Matcher",
    "Matching",
    "MatchingProblem",
    "MatchPair",
    "SkylineMatcher",
    "find_blocking_pairs",
    "greedy_reference_matching",
    "verify_stable_matching",
    "Dataset",
    "generate_anticorrelated",
    "generate_clustered",
    "generate_correlated",
    "generate_independent",
    "generate_zillow",
    "load_dataset_csv",
    "save_dataset_csv",
    "ReproError",
    "FunctionIndex",
    "LinearPreference",
    "generate_preferences",
    "bnl_skyline",
    "compute_skyline",
    "sfs_skyline",
    "IOStats",
    "SearchStats",
    "__version__",
]
