"""Engine configuration: one dataclass for every tunable of a run.

:class:`MatchingConfig` captures everything a
:class:`~repro.engine.plan.MatchingPlan` needs to turn a workload into
a matching: algorithm choice, storage backend, page size, buffer
policy and sizing, deletion mode, per-object capacities, SB's ablation
switches, and the seed recorded with the result. It is a frozen
dataclass, so configs can be shared freely and derived from each other
with :meth:`MatchingConfig.replace`. (Note: a config carrying a
``capacities`` mapping is not hashable — the mapping itself is mutable.)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from ..core.skyline_matching import MAINTENANCE_MODES
from ..errors import MatchingError
from ..prefs.index import THRESHOLDS
from ..storage import DEFAULT_PAGE_SIZE

#: Buffer replacement policies understood by the storage layer.
BUFFER_POLICIES = ("lru", "clock")

#: Deletion modes understood by the tree-mutating matchers.
DELETION_MODES = ("delete", "filter")

#: Executors understood by the sharded parallel layer (kept here, not in
#: ``repro.parallel``, so config validation needs no circular import).
#: ``"remote"`` dispatches shard tasks to :mod:`repro.net` shard worker
#: servers over sockets.
EXECUTORS = ("process", "thread", "serial", "remote")

#: Admission policies understood by the serving layer.
ADMISSION_POLICIES = ("block", "reject")


@dataclass(frozen=True)
class MatchingConfig:
    """Full specification of one matching run.

    Parameters
    ----------
    algorithm:
        Registered algorithm name (see
        :func:`~repro.engine.registry.available_algorithms`).
    backend:
        Registered storage backend name (see
        :func:`~repro.engine.backends.available_backends`).
    page_size:
        Simulated disk page size in bytes (disk backend only).
    buffer_policy:
        Page replacement policy, ``"lru"`` (the paper's) or ``"clock"``.
    buffer_fraction:
        Buffer size as a fraction of the tree (the paper's 2% default).
    buffer_capacity:
        Absolute frame count; overrides ``buffer_fraction`` when set.
    fill:
        Bulk-load fill factor of the R-tree.
    memory_fanout:
        Node fanout of the in-memory backend's R-tree.
    deletion_mode:
        ``"delete"`` (paper-faithful physical deletes) or ``"filter"``
        for the matchers that remove assigned objects from the tree.
    capacities:
        Optional ``{object_id: units}`` for many-to-one matching via
        virtual-object expansion (missing ids default to 1).
    seed:
        Workload seed recorded on the result (informational; the engine
        itself is deterministic).
    multi_pair / maintenance / threshold / cache_best:
        SB design switches (Sections IV-A/B/C and their ablations).
    restart / function_fanout:
        Chain walk restart behaviour and its memory R-tree fanout.
    batch_size:
        Dynamic sessions: how many submitted events may accumulate
        before a flush applies them (1 = apply immediately).
    repair_threshold:
        Dynamic sessions: when one batch carries at least
        ``repair_threshold * |F|`` events, the session recomputes the
        matching from scratch instead of running per-event repair
        chains. Raise it to force incremental repair always.
    compact_fraction:
        Dynamic sessions: physical R-tree churn (tombstoned deletes,
        buffered inserts) is applied once the backlog exceeds this
        fraction of the surviving objects.
    shards:
        Partition the object set into this many Hilbert-order spatial
        shards and match them concurrently (see :mod:`repro.parallel`).
        ``1`` (the default) keeps the classic single-process path; any
        larger value routes :meth:`PreparedMatching.run
        <repro.engine.plan.PreparedMatching.run>` through the sharded
        layer, whose result is pair-for-pair identical.
    executor:
        How shard matchings run: ``"process"`` (a
        :class:`concurrent.futures.ProcessPoolExecutor`, the true
        multi-core path), ``"thread"``, ``"serial"`` (in-line, for
        debugging and deterministic tests), or ``"remote"`` (shard
        tasks shipped to :class:`~repro.net.ShardWorkerServer`
        processes over sockets — the cross-node path; results are
        pair-identical to every other executor).
    max_workers:
        Worker cap for the process/thread executors and the remote
        executor's concurrent connections (default: one per shard,
        bounded by the scheduler's own limits).
    remote_workers:
        ``"host:port"`` addresses of shard worker servers for
        ``executor="remote"`` (falls back to the
        ``REPRO_REMOTE_WORKERS`` environment variable, comma-separated,
        when unset). Ignored by the local executors.
    cache_size:
        Serving path: how many results a
        :class:`~repro.engine.plan.PreparedMatching` keeps in its keyed
        LRU cache (``0`` disables result caching entirely). One-shot
        :func:`repro.match` calls never observe the cache; only
        repeated runs against the same prepared state do.
    max_inflight:
        Serving path: admission bound of a
        :class:`~repro.engine.service.MatchingService` — at most this
        many requests may be concurrently admitted (queued batches wait
        or are rejected per ``admission``). ``None`` (the default)
        disables admission control.
    admission:
        What happens to requests beyond ``max_inflight``: ``"block"``
        (wait for capacity, bounded by each request's ``timeout``) or
        ``"reject"`` (raise
        :class:`~repro.errors.ServiceOverloadedError` immediately).

    Examples
    --------
    Configs are frozen; derive variants with :meth:`replace`::

        >>> from repro import MatchingConfig
        >>> config = MatchingConfig(algorithm="sb", backend="memory")
        >>> config.replace(shards=4, executor="serial").shards
        4
        >>> config.shards  # the original is untouched
        1
    """

    algorithm: str = "sb"
    backend: str = "disk"
    page_size: int = DEFAULT_PAGE_SIZE
    buffer_policy: str = "lru"
    buffer_fraction: float = 0.02
    buffer_capacity: Optional[int] = None
    fill: float = 0.9
    memory_fanout: int = 64
    deletion_mode: str = "delete"
    capacities: Optional[Mapping[int, int]] = None
    seed: Optional[int] = None
    # SB switches.
    multi_pair: bool = True
    maintenance: str = "plist"
    threshold: str = "tight"
    cache_best: bool = True
    # Chain switches.
    restart: bool = True
    function_fanout: int = 32
    # Dynamic-session switches.
    batch_size: int = 1
    repair_threshold: float = 0.5
    compact_fraction: float = 0.25
    # Sharded-execution switches.
    shards: int = 1
    executor: str = "process"
    max_workers: Optional[int] = None
    remote_workers: Optional[Tuple[str, ...]] = None
    # Serving-path switches.
    cache_size: int = 128
    max_inflight: Optional[int] = None
    admission: str = "block"

    def __post_init__(self) -> None:
        for name, allowed in (
            ("buffer_policy", BUFFER_POLICIES),
            ("deletion_mode", DELETION_MODES),
            ("maintenance", MAINTENANCE_MODES),
            ("threshold", THRESHOLDS),
            ("executor", EXECUTORS),
            ("admission", ADMISSION_POLICIES),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise MatchingError(
                    f"{name} must be one of {allowed}, got {value!r}"
                )
        if self.page_size < 128:
            raise MatchingError(
                f"page_size must be >= 128 bytes, got {self.page_size}"
            )
        if not 0.0 < self.buffer_fraction <= 1.0:
            raise MatchingError(
                f"buffer_fraction must be in (0, 1], "
                f"got {self.buffer_fraction}"
            )
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise MatchingError(
                f"buffer_capacity must be >= 1, got {self.buffer_capacity}"
            )
        if self.memory_fanout < 4:
            raise MatchingError(
                f"memory_fanout must be >= 4, got {self.memory_fanout}"
            )
        if self.batch_size < 1:
            raise MatchingError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.repair_threshold <= 0:
            raise MatchingError(
                f"repair_threshold must be > 0, got {self.repair_threshold}"
            )
        if self.compact_fraction <= 0:
            raise MatchingError(
                f"compact_fraction must be > 0, got {self.compact_fraction}"
            )
        if self.shards < 1:
            raise MatchingError(
                f"shards must be >= 1, got {self.shards}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise MatchingError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if self.remote_workers is not None:
            addresses = tuple(str(a) for a in self.remote_workers)
            if not addresses:
                raise MatchingError(
                    "remote_workers must name at least one "
                    "'host:port' address (or be None)"
                )
            for address in addresses:
                host, _, port = address.rpartition(":")
                if not host or not port.isdigit():
                    raise MatchingError(
                        f"remote_workers entries must look like "
                        f"'host:port', got {address!r}"
                    )
            object.__setattr__(self, "remote_workers", addresses)
        if self.cache_size < 0:
            raise MatchingError(
                f"cache_size must be >= 0, got {self.cache_size}"
            )
        if self.max_inflight is not None and self.max_inflight < 1:
            raise MatchingError(
                f"max_inflight must be >= 1 (or None to disable "
                f"admission control), got {self.max_inflight}"
            )

    def replace(self, **overrides) -> "MatchingConfig":
        """A new config with the given fields changed."""
        return dataclasses.replace(self, **overrides)

    def matcher_kwargs(self) -> dict:
        """Every config field a matcher constructor might accept.

        The registry intersects this with each matcher's actual
        ``__init__`` signature, so algorithms receive exactly the
        switches they understand.
        """
        return {
            "deletion_mode": self.deletion_mode,
            "multi_pair": self.multi_pair,
            "maintenance": self.maintenance,
            "threshold": self.threshold,
            "cache_best": self.cache_best,
            "restart": self.restart,
            "function_fanout": self.function_fanout,
        }
