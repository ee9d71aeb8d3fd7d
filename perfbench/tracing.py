"""Spans around calls into the library, for the traced run.

A :class:`Tracer` patches timing wrappers over public functions at the
name their caller binds (``compute_skyline`` inside
``repro.core.skyline_matching``, ``RTree.read_node`` on its class, the
``json`` module the net client and server serialize with). Each span
records its name, start, end, thread, parent span and request id; spans
stay in memory until the run ends. Untraced runs use :data:`NULL`, which
records nothing and patches nothing.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import os
import pickle
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

# Span record layout (lists, so they serialize as-is).
SID, NAME, START, END, THREAD, PARENT, RID, EXTRA = range(8)


class Tracer:
    """In-memory span recorder with call wrappers."""

    enabled = True

    def __init__(self, spans: Optional[List[list]] = None) -> None:
        #: Finished spans: ``[sid, name, start, end, thread, parent, rid, extra]``
        #: (pass another process's spans to read them back).
        self.spans: List[list] = [] if spans is None else spans
        #: Request id stamped on new spans. One caller keeps one request
        #: in flight, so helper threads (the service's scorer threads, the
        #: server's executor thread) inherit the id through this field.
        self.request_id: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, nest: bool = True) -> list:
        stack = self._stack()
        span = [next(self._ids), name, time.perf_counter(), 0.0,
                threading.get_ident(), stack[-1] if stack else None,
                self.request_id, None]
        if nest:
            stack.append(span[SID])
        return span

    def _close(self, span: list, nest: bool = True) -> list:
        span[END] = time.perf_counter()
        if nest:
            stack = self._stack()
            if span[SID] in stack:
                stack.remove(span[SID])
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a span."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``after(span, args, result)`` may annotate the finished span.
        Generator functions are timed from the first step to exhaustion;
        coroutines are timed without nesting (tasks interleave on a loop).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        function = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def timed(*args, **kwargs):
                span = tracer._open(name, nest=False)
                try:
                    result = await function(*args, **kwargs)
                finally:
                    tracer._close(span, nest=False)
                return result
        elif inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def timed(*args, **kwargs):
                if os.getpid() != tracer._pid:
                    return (yield from function(*args, **kwargs))
                span = tracer._open(name)
                try:
                    return (yield from function(*args, **kwargs))
                finally:
                    tracer._close(span)
        else:
            @functools.wraps(function)
            def timed(*args, **kwargs):
                # Forked pool workers inherit the patch; they record nothing.
                if os.getpid() != tracer._pid:
                    return function(*args, **kwargs)
                span = tracer._open(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer._close(span)
                if after is not None:
                    after(span, args, result)
                return result

        setattr(owner, attr,
                classmethod(timed) if isinstance(raw, classmethod) else timed)
        self._patches.append((owner, attr, raw))

    def wrap_json(self, module, prefix: str, take_id: bool) -> None:
        """Time the ``json`` calls a net module serializes frames with.

        With ``take_id`` (server side) a decoded message's ``id`` becomes
        the current request id; otherwise (client side) the id of each
        encoded message is kept on its span.
        """
        tracer = self
        real = module.json

        class TimedJson:
            @staticmethod
            def dumps(obj, *args, **kwargs):
                with tracer.span(prefix + ".json_dumps") as span:
                    text = real.dumps(obj, *args, **kwargs)
                if not take_id and isinstance(obj, dict):
                    span[EXTRA] = {"wire_id": obj.get("id")}
                return text

            @staticmethod
            def loads(text, *args, **kwargs):
                with tracer.span(prefix + ".json_loads") as span:
                    obj = real.loads(text, *args, **kwargs)
                if take_id and isinstance(obj, dict):
                    tracer.request_id = obj.get("id")
                    span[RID] = tracer.request_id
                return obj

        module.json = TimedJson
        self._patches.append((module, "json", real))

    def uninstall(self) -> None:
        """Restore every patched name."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Reading spans back
    # ------------------------------------------------------------------
    def select(self, names: Iterable[str], rids=None) -> List[list]:
        """Spans with one of ``names`` (of the given request ids)."""
        wanted = set(names)
        return [span for span in self.spans if span[NAME] in wanted
                and (rids is None or span[RID] in rids)]

    def total_ms(self, names: Iterable[str], rids=None) -> float:
        return sum(s[END] - s[START] for s in self.select(names, rids)) * 1e3

    def count(self, names: Iterable[str], rids=None) -> int:
        return len(self.select(names, rids))

    def self_ms(self, name: str, rids=None) -> float:
        """Summed self time: duration minus same-thread children."""
        spans = self.select([name], rids)
        ids = {span[SID] for span in spans}
        children: Dict[int, float] = {}
        for span in self.spans:
            if span[PARENT] in ids:
                children[span[PARENT]] = (children.get(span[PARENT], 0.0)
                                          + span[END] - span[START])
        return sum(span[END] - span[START] - children.get(span[SID], 0.0)
                   for span in spans) * 1e3


class _NullTracer:
    """The untraced run's tracer: no spans, no patches."""

    enabled = False
    request_id = None
    spans: List[list] = []

    def span(self, name: str):
        return contextlib.nullcontext()

    def uninstall(self) -> None:
        pass


NULL = _NullTracer()


# ----------------------------------------------------------------------
# The wrappers each process installs
# ----------------------------------------------------------------------
def install_library(tracer: Tracer) -> None:
    """Wrap the in-process layers: engine, core, skyline, prefs, rtree,
    parallel and dynamic."""
    import repro.core.skyline_matching as sb
    import repro.dynamic.repair as repair
    import repro.engine.backends as backends
    import repro.engine.batch as batch
    import repro.parallel.matcher as sharded
    from repro.dynamic import DynamicMatcher
    from repro.engine.plan import PreparedMatching
    from repro.engine.service import MatchingService
    from repro.parallel import ShardWorkerPool
    from repro.prefs import FunctionIndex
    from repro.rtree import RTree

    for module in (sb, repair):
        tracer.wrap(module, "compute_skyline", "skyline.bbs")
        tracer.wrap(module, "update_after_removal", "skyline.maintenance")
    tracer.wrap(sb.SkylineMatcher, "pairs", "core.match")
    tracer.wrap(FunctionIndex, "reverse_top1", "prefs.reverse_top1")
    tracer.wrap(RTree, "read_node", "rtree.read")
    tracer.wrap(RTree, "bulk_load", "rtree.bulk_load")
    tracer.wrap(backends.MemoryBackend, "build_problem", "engine.build_problem")
    tracer.wrap(backends.DiskBackend, "build_problem", "engine.build_problem")
    tracer.wrap(PreparedMatching, "request_key", "engine.request_key")
    tracer.wrap(PreparedMatching, "run_miss", "engine.tree_miss")
    tracer.wrap(PreparedMatching, "run_vectorized_batch", "engine.vector_batch")
    tracer.wrap(batch, "canonical_score_matrix", "engine.score")
    tracer.wrap(batch, "greedy_pairs_from_scores", "engine.greedy")
    tracer.wrap(MatchingService, "submit_many", "engine.submit_many")
    tracer.wrap(DynamicMatcher, "flush", "dynamic.flush")
    tracer.wrap(ShardWorkerPool, "run", "parallel.fanout", after=_shard_outcomes)
    tracer.wrap(sharded, "merge_shard_pairs", "parallel.merge")
    tracer.wrap(sharded, "cross_shard_repair", "parallel.repair")


def _shard_outcomes(span: list, args: Sequence, outcomes) -> None:
    tasks = args[1]
    span[EXTRA] = {
        "shard_s": [outcome.seconds for outcome in outcomes],
        "task_bytes": sum(len(pickle.dumps(task)) for task in tasks),
    }


def install_client(tracer: Tracer) -> None:
    """Wrap the net client's codec and frame calls."""
    import repro.net.client as client

    tracer.wrap(client, "encode_request", "net.client.encode")
    tracer.wrap(client, "decode_result", "net.client.decode")
    tracer.wrap(client, "send_frame", "net.client.send", after=_sent_bytes)
    tracer.wrap(client, "recv_frame", "net.client.recv", after=_received_bytes)
    tracer.wrap_json(client, "net.client", take_id=False)


def _sent_bytes(span: list, args: Sequence, result) -> None:
    span[EXTRA] = {"bytes": len(args[1]) + 4}


def _received_bytes(span: list, args: Sequence, frame) -> None:
    span[EXTRA] = {"bytes": len(frame) + 4 if frame is not None else 0}


def install_server(tracer: Tracer) -> None:
    """Wrap the server side of serve-net: codec, coalescing and the
    layers below it."""
    import repro.net.server as server
    from repro.engine.async_service import AsyncMatchingService

    tracer.wrap(server, "decode_request", "net.server.decode")
    tracer.wrap(server, "encode_result", "net.server.encode")
    tracer.wrap_json(server, "net.server", take_id=True)
    tracer.wrap(AsyncMatchingService, "submit", "engine.async_submit")
    install_library(tracer)
