"""The JSON wire codec: requests and results, bit-exact both ways.

The network protocol mirrors the in-process serving types —
:class:`~repro.engine.request.MatchingRequest` out,
:class:`~repro.engine.result.MatchResult` back — as JSON objects.
The encoding is *exact*, not approximate: Python's ``repr``-based JSON
float serialization round-trips every finite double bit-for-bit, so a
decoded result compares equal to the in-process original down to each
pair's score, and a decoded request produces the identical cache key on
the server that the same workload would produce locally.

Exactness has a price: only :class:`~repro.prefs.LinearPreference`
workloads have a faithful wire form (an id and a weight tuple). Any
other preference type — monotone functions, ad-hoc callables, even a
``LinearPreference`` subclass with extra scoring state — is rejected
with a :class:`~repro.errors.CodecError` instead of being silently
flattened into something that scores differently.

Examples
--------
>>> from repro.net.codec import (decode_request, decode_result,
...                              encode_request, encode_result)
>>> import repro
>>> prefs = repro.generate_preferences(n=3, dims=2, seed=9)
>>> request = repro.MatchingRequest(prefs, tags=("tenant-a",),
...                                 priority=2)
>>> decode_request(encode_request(request)) == request
True
>>> objects = repro.generate_independent(n=50, dims=2, seed=8)
>>> result = repro.match(objects, prefs, backend="memory")
>>> clone = decode_result(encode_result(result))
>>> clone.as_set() == result.as_set()
True
>>> [pair.score for pair in clone] == [pair.score for pair in result]
True
>>> from repro.prefs import MinPreference
>>> encode_request(
...     repro.MatchingRequest([MinPreference(0, (0.5, 0.5))])
... )  # doctest: +ELLIPSIS
Traceback (most recent call last):
    ...
repro.errors.CodecError: request function 0 is not an exact ...
"""

from __future__ import annotations

import sys
from itertools import starmap
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..engine.request import MatchingRequest
from ..engine.result import PAIR_RECORD, MatchResult
from ..errors import CodecError
from ..prefs import LinearPreference
from ..storage import IOSnapshot

__all__ = [
    "encode_request",
    "decode_request",
    "encode_result",
    "decode_result",
]

_IO_FIELDS = ("page_reads", "page_writes", "buffer_hits",
              "buffer_evictions", "pages_allocated", "pages_freed")


def _require(payload: Dict[str, Any], key: str, what: str) -> Any:
    try:
        return payload[key]
    except (KeyError, TypeError):
        raise CodecError(f"malformed {what} payload: missing {key!r}")


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def encode_request(request: MatchingRequest  # lint: encodes=MatchingRequest
                   ) -> Dict[str, Any]:
    """A :class:`MatchingRequest` as a JSON-serializable dict.

    Raises :class:`~repro.errors.CodecError` when any workload function
    is not an exact :class:`~repro.prefs.LinearPreference` (subclasses
    included: their scoring may depend on state the wire form drops).
    """
    request = MatchingRequest.of(request)
    functions: List[List[Any]] = []
    for position, fn in enumerate(request.functions):
        if type(fn) is not LinearPreference:
            raise CodecError(
                f"request function {position} is not an exact "
                f"LinearPreference (got {type(fn).__name__}); only "
                f"linear workloads have a faithful wire form"
            )
        functions.append([fn.fid, list(fn.weights)])
    return {
        "functions": functions,
        "tags": list(request.tags),
        "priority": request.priority,
        "timeout": request.timeout,
        "use_cache": request.use_cache,
    }


def decode_request(payload: Dict[str, Any]  # lint: decodes=MatchingRequest
                   ) -> MatchingRequest:
    """The inverse of :func:`encode_request` (identity round trip)."""
    raw = _require(payload, "functions", "request")
    try:
        functions = tuple(
            LinearPreference(int(fid), [float(w) for w in weights])
            for fid, weights in raw
        )
        return MatchingRequest(
            functions=functions,
            tags=tuple(payload.get("tags", ())),
            priority=int(payload.get("priority", 0)),
            timeout=payload.get("timeout"),
            use_cache=bool(payload.get("use_cache", True)),
        )
    except CodecError:
        raise
    except Exception as error:
        raise CodecError(f"malformed request payload: {error}")


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def encode_result(result: MatchResult  # lint: encodes=MatchResult
                  ) -> Dict[str, Any]:
    """A :class:`MatchResult` as a JSON-serializable dict.

    Each pair travels as ``[function_id, object_id, score, round,
    rank]``, read straight off the result's packed records;
    ``capacities`` as a list of pairs (JSON objects would stringify the
    integer object ids); the I/O snapshot as a flat dict of its six
    counters.
    """
    return {
        "pairs": list(PAIR_RECORD.iter_unpack(result.packed)),
        "unmatched_functions": list(result.unmatched_functions),
        "unmatched_objects_count": result.unmatched_objects_count,
        "algorithm": result.algorithm,
        "backend": result.backend,
        "capacities": (
            None if result.capacities is None
            else [[oid, units]
                  for oid, units in sorted(result.capacities.items())]
        ),
        "io": (
            None if result.io is None
            else {name: getattr(result.io, name) for name in _IO_FIELDS}
        ),
        "cpu_seconds": result.cpu_seconds,
        "seed": result.seed,
        "stats": dict(result.stats),
    }


#: Equal values that decoded results share, so a client that keeps
#: thousands of replies holds one copy of each: packed pair buffers and
#: read-only stats views (keyed by each name and value ``repr``, so
#: ``0``, ``0.0`` and ``-0.0`` stay apart). Both are immutable, so no
#: result can change another's. A table is emptied when it holds
#: :data:`_SHARED_LIMIT` entries.
_SHARED_PAIRS: Dict[bytes, bytes] = {}
_STATS_VIEWS: Dict[Tuple[Tuple[str, str], ...], Mapping[str, Any]] = {}
_SHARED_LIMIT = 256


def _shared(table: Dict[Any, Any], key: Any, value: Any) -> Any:
    """``table``'s value for ``key``, after storing ``value`` if none."""
    shared = table.get(key)
    if shared is None:
        if len(table) >= _SHARED_LIMIT:
            table.clear()
        shared = table[key] = value
    return shared


def decode_result(payload: Dict[str, Any]  # lint: decodes=MatchResult
                  ) -> MatchResult:
    """The inverse of :func:`encode_result` (identity round trip).

    Each pair is packed straight into the result's records, so it must
    hold exactly five numbers: ids that fit int64, a score, and a round
    and rank that fit int32. The provenance strings are interned, and
    equal pair buffers and stats are shared (see :data:`_SHARED_PAIRS`),
    so a client that keeps many results holds one copy of each.
    """
    raw_pairs = _require(payload, "pairs", "result")
    try:
        pairs = b"".join(starmap(PAIR_RECORD.pack, raw_pairs))
        pairs = _shared(_SHARED_PAIRS, pairs, pairs)
        capacities: Optional[Dict[int, int]] = None
        if payload.get("capacities") is not None:
            capacities = {
                int(oid): int(units)
                for oid, units in payload["capacities"]
            }
        stats = {sys.intern(str(name)): value
                 for name, value in dict(payload.get("stats") or {}).items()}
        io: Optional[IOSnapshot] = None
        if payload.get("io") is not None:
            io = IOSnapshot(
                **{name: int(payload["io"][name]) for name in _IO_FIELDS}
            )
        return MatchResult(
            pairs,
            unmatched_functions=[
                int(fid) for fid in payload.get("unmatched_functions", ())
            ],
            unmatched_objects_count=int(
                payload.get("unmatched_objects_count", 0)
            ),
            algorithm=sys.intern(str(payload.get("algorithm", ""))),
            backend=sys.intern(str(payload.get("backend", ""))),
            capacities=capacities,
            io=io,
            cpu_seconds=float(payload.get("cpu_seconds", 0.0)),
            seed=payload.get("seed"),
            stats=_shared(_STATS_VIEWS,
                          tuple((name, repr(value))
                                for name, value in stats.items()),
                          MappingProxyType(stats)),
        )
    except CodecError:
        raise
    except Exception as error:
        raise CodecError(f"malformed result payload: {error}")
