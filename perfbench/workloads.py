"""The four workloads: set-up, a timed closed loop, verification.

Each workload is one caller keeping one operation in flight, so the
request path is the same on every run of a seed: fixed batch
composition, one request at a time on the socket, a process pool warmed
before timing. Every answer is checked after the timed phase against a
code path other than the one that served it.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import repro
from repro.engine.batch import linear_batch_results
from repro.errors import (
    CodecError,
    RemoteError,
    ReproError,
    ServiceOverloadedError,
)

from . import inputs, measure, tracing
from .tracing import END, EXTRA, NAME, RID, START

#: Tail percentile per workload: the highest one that keeps at least
#: ten samples beyond it at the full size.
TAIL = {"paper-disk": 0.90, "serve-net": 0.99, "churn-serve": 0.90,
        "sharded": 0.90}

#: serve-net reads the server's counters every this many requests of a
#: catalog.
CHECKPOINT = 64

#: Requests per reference batch when verifying serve-net.
VERIFY_BATCH = 32

#: Matchings per call of the canonical vectorized scorer when verifying.
VERIFY_CHUNK = 8

#: sharded gives up when the pool has not staged every shard in every
#: worker after this many warm-up matchings.
MAX_WARMUPS = 200

#: churn-serve generates object events for this many cycles per second
#: of the run: about ten times today's cycle rate.
EVENT_CYCLES_PER_S = 100


@dataclass
class Context:
    """What a workload run is given."""

    workload: str
    seed: int
    seconds: float
    size: str
    tracer: object

    @property
    def sizes(self) -> inputs.Sizes:
        return inputs.SIZES[self.size][self.workload]


@dataclass
class Outcome:
    """What a workload run measured."""

    setup_s: List[float] = field(default_factory=list)
    #: Per-operation latency in seconds, as the caller saw it.
    latencies: List[float] = field(default_factory=list)
    #: The samples behind the tail percentile (churn-serve: batches).
    tail_samples: List[float] = field(default_factory=list)
    #: Wall seconds of the timed phase (bookkeeping pauses excluded).
    phase_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Counters that must repeat exactly for one seed: one list per
    #: stream of operations, an entry per operation.
    counters: Dict[str, list] = field(default_factory=dict)
    #: Per-layer metrics (counts in every run, times when traced).
    layer: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: Calibration slices run between the timed operations.
    host: measure.HostSpeed = field(default_factory=measure.HostSpeed)
    #: Run metadata that is not a metric (warm-up runs, ...).
    notes: Dict[str, object] = field(default_factory=dict)
    #: Span lists by process, for the traced run's span file.
    spans: Dict[str, list] = field(default_factory=dict)

    def fail(self, problem: str, operations: int = 1) -> None:
        self.failed += operations
        if len(self.problems) < 20:
            self.problems.append(problem)


def _answer(result) -> tuple:
    """A result's pairs (scores bit for bit) and unmatched functions."""
    pairs = sorted((pair.function_id, pair.object_id, pair.score)
                   for pair in result.pairs)
    return pairs, sorted(result.unmatched_functions)


def _verify_canonical(catalogs, served, out: Outcome) -> None:
    """Check tree-path answers against the canonical vectorized scorer.

    ``served`` holds ``(operation, catalog index, functions, result)``.
    """
    for number, objects in enumerate(catalogs):
        mine = [entry for entry in served if entry[1] == number]
        for start in range(0, len(mine), VERIFY_CHUNK):
            chunk = mine[start:start + VERIFY_CHUNK]
            references = linear_batch_results(
                objects, [functions for _, _, functions, _ in chunk])
            for (index, _, _, result), reference in zip(chunk, references):
                if _answer(result) != _answer(reference):
                    out.fail(f"operation {index}: answer differs from the "
                             f"canonical vectorized scorer")


def _per_op(out: Outcome, total: float) -> float:
    return total / out.attempted if out.attempted else 0.0


def _tree_stats(out: Outcome, results) -> None:
    """core.* counts: mean per distinct tree-path matching served."""
    tree = [r for r in results if not r.algorithm.startswith("batched")]
    if tree:
        out.layer["core.rounds"] = sum(
            r.stats.get("rounds", 0) for r in tree) / len(tree)
        out.layer["core.reverse_top1_queries"] = sum(
            r.stats.get("reverse_top1_queries", 0) for r in tree) / len(tree)


#: The ServiceStats counters the engine.* counts are taken from.
SERVICE_COUNTERS = ("requests", "batches", "cache_hits", "misses",
                    "vectorized_requests", "rejected", "stagings")


def _service_delta(before: dict, after: dict) -> Dict[str, int]:
    """Counter deltas between two ServiceStats dicts."""
    delta = {key: after[key] - before[key] for key in SERVICE_COUNTERS}
    delta["evictions"] = after["cache"]["evictions"] - before["cache"]["evictions"]
    return delta


def _service_counters(out: Outcome, delta: Dict[str, int]) -> None:
    """engine.* counts from ServiceStats deltas over the timed phase."""
    layer = out.layer
    layer["engine.requests_per_batch"] = (
        delta["requests"] / delta["batches"] if delta["batches"] else 0.0)
    layer["engine.cache_hit_ratio"] = (
        delta["cache_hits"] / delta["requests"] if delta["requests"] else 0.0)
    layer["engine.vectorized_share"] = (
        delta["vectorized_requests"] / delta["misses"]
        if delta["misses"] else 0.0)
    layer["engine.cache_evictions"] = _per_op(out, delta["evictions"])
    layer["engine.rejected"] = _per_op(out, delta["rejected"])
    layer["engine.stagings"] = _per_op(out, delta["stagings"])


def _span_metrics(out: Outcome, tracer, rids: set) -> None:
    """Per-operation span times of the in-process layers.

    ``rids`` are the timed operations' request ids; set-up and warm-up
    spans carry none.
    """
    if not tracer.enabled:
        return
    layer = out.layer
    for metric, names in (
        ("engine.request_key_ms", ["engine.request_key"]),
        ("engine.restage_ms", ["engine.build_problem"]),
        ("engine.tree_miss_ms", ["engine.tree_miss"]),
        ("engine.vector_batch_ms", ["engine.vector_batch"]),
        ("engine.score_ms", ["engine.score"]),
        ("engine.greedy_ms", ["engine.greedy"]),
        ("core.match_ms", ["core.match"]),
        ("skyline.bbs_ms", ["skyline.bbs"]),
        ("skyline.maintenance_ms", ["skyline.maintenance"]),
        ("prefs.reverse_top1_ms", ["prefs.reverse_top1"]),
        ("rtree.read_ms", ["rtree.read"]),
        ("parallel.fanout_ms", ["parallel.fanout"]),
        ("parallel.merge_repair_ms", ["parallel.merge", "parallel.repair"]),
        ("dynamic.flush_ms", ["dynamic.flush"]),
    ):
        layer[metric] = _per_op(out, tracer.total_ms(names, rids))
    layer["engine.service_ms"] = _per_op(
        out, tracer.self_ms("engine.submit_many", rids))
    for metric, name in (("skyline.bbs_calls", "skyline.bbs"),
                         ("skyline.maintenance_calls", "skyline.maintenance"),
                         ("rtree.node_reads", "rtree.read")):
        layer[metric] = _per_op(out, tracer.count([name], rids))
    fanouts = tracer.select(["parallel.fanout"], rids)
    if fanouts:
        layer["parallel.task_bytes"] = _per_op(
            out, sum(span[EXTRA]["task_bytes"] for span in fanouts))
        layer["parallel.shard_ms_max"] = 1e3 * sum(
            max(span[EXTRA]["shard_s"]) for span in fanouts) / len(fanouts)
        layer["parallel.shard_ms_min"] = 1e3 * sum(
            min(span[EXTRA]["shard_s"]) for span in fanouts) / len(fanouts)
    loads = tracer.select(["rtree.bulk_load"])
    if loads:
        layer["rtree.bulk_load_ms"] = tracer.total_ms(
            ["rtree.bulk_load"]) / len(loads)
    generates = tracer.select(["data.generate"])
    if generates:
        layer["data.generate_ms"] = tracer.total_ms(
            ["data.generate"]) / len(generates)


def _timed(seconds: float, op: Callable[[int], Optional[float]],
           out: Outcome, first: int = 0) -> None:
    """Closed loop: ``op(i)`` back to back for ``seconds``, from ``first``.

    ``op`` returns the seconds of bookkeeping it did outside the
    operation, which the phase time leaves out, as it does the
    calibration slices run between operations. The phase time is kept
    when ``op`` ends the loop early by raising.
    """
    pause = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    index = first
    try:
        while time.perf_counter() < deadline:
            pause += op(index) or 0.0
            pause += out.host.tick()
            index += 1
    finally:
        out.phase_s += time.perf_counter() - start - pause


def _tree_op(prepared, functions, index: int, number: int, served: list,
             tracer, out: Outcome):
    """One timed ``prepared.run()``; returns its result or ``None``."""
    tracer.request_id = index
    out.attempted += 1
    start = time.perf_counter()
    try:
        result = prepared.run(functions)
    except ReproError as error:
        out.fail(f"operation {index}: {error!r}")
        return None
    finally:
        tracer.request_id = None
    out.latencies.append(time.perf_counter() - start)
    served.append((index, number, functions, result))
    return result


# ----------------------------------------------------------------------
# paper-disk
# ----------------------------------------------------------------------
def paper_disk(ctx: Context) -> Outcome:
    """SB on the paper's disk R-tree behind a 2% LRU buffer. Every
    operation is a distinct function set, so every one misses. The
    timed phase is split over the catalogs: each is set up, timed for
    its share of the run, and closed."""
    sizes, seed, tracer = ctx.sizes, ctx.seed, ctx.tracer
    out = Outcome()
    plan = repro.plan(algorithm="sb", backend="disk")
    catalogs: list = []
    served: list = []
    for number in range(sizes.setups):
        start = time.perf_counter()
        with tracer.span("data.generate"):
            catalogs.append(inputs.catalog(seed, sizes, number))
        prepared = plan.prepare(catalogs[-1])
        out.setup_s.append(time.perf_counter() - start)
        if number == 0:  # the process's first-call costs, untimed
            prepared.run(inputs.functions(seed, inputs.WARMUP, 0,
                                          sizes.functions))

        def op(index: int) -> None:
            functions = inputs.functions(seed, inputs.OPS, index,
                                         sizes.functions)
            _tree_op(prepared, functions, index, number, served, tracer, out)

        _timed(ctx.seconds / sizes.setups, op, out,
               first=number * inputs.STRIDE)
        prepared.close()
    out.peak_rss_mb = measure.peak_rss_mb()
    out.tail_samples = out.latencies

    _verify_canonical(catalogs, served, out)
    results = [result for *_, result in served]
    for _, number, _, r in served:
        out.counters.setdefault(f"catalog{number}", []).append(
            [r.io.page_reads + r.io.page_writes, r.io.buffer_hits,
             r.stats["rounds"], r.stats["reverse_top1_queries"]])
    layer = out.layer
    reads = sum(r.io.page_reads for r in results)
    writes = sum(r.io.page_writes for r in results)
    hits = sum(r.io.buffer_hits for r in results)
    layer["storage.io_per_match"] = _per_op(out, reads + writes)
    layer["storage.page_reads"] = _per_op(out, reads)
    layer["storage.page_writes"] = _per_op(out, writes)
    layer["storage.buffer_hits"] = _per_op(out, hits)
    layer["storage.buffer_hit_ratio"] = hits / (hits + reads) if hits + reads else 0.0
    _tree_stats(out, results)
    _span_metrics(out, tracer, rids={index for index, *_ in served})
    return out


# ----------------------------------------------------------------------
# sharded
# ----------------------------------------------------------------------
def sharded(ctx: Context) -> Outcome:
    """SB over two Hilbert shards on a warmed two-worker process pool;
    every operation is a distinct function set. The timed phase is split
    over the catalogs: each is set up, its pool warmed, timed for its
    share of the run, and closed.

    Set-up is fixed work: generate, prepare, and one single-function
    matching that spawns the pool and stages each shard once. The pool
    has no task-to-worker affinity, so the warm-up that follows (until
    every worker has staged every shard) takes a varying number of
    matchings; it is neither set-up nor timed.
    """
    sizes, seed, tracer = ctx.sizes, ctx.seed, ctx.tracer
    out = Outcome()
    plan = repro.plan(algorithm="sb", backend="memory", shards=2,
                      executor="process")
    catalogs: list = []
    served: list = []
    warmups: List[int] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for number in range(sizes.setups):
            start = time.perf_counter()
            with tracer.span("data.generate"):
                catalogs.append(inputs.catalog(seed, sizes, number))
            prepared = plan.prepare(catalogs[-1])
            first = prepared.run(inputs.functions(seed, inputs.WARMUP, 0, 1))
            out.setup_s.append(time.perf_counter() - start)
            workers = prepared.pool.max_workers or plan.shards
            staged = first.stats["shard_stagings"]
            runs = 1
            while staged < workers * plan.shards:
                if runs == MAX_WARMUPS:
                    raise RuntimeError("the shard pool did not warm up")
                warm = prepared.run(inputs.functions(seed, inputs.WARMUP,
                                                     runs, 1))
                staged += warm.stats["shard_stagings"]
                runs += 1
            warmups.append(runs)
            warned = len(caught)

            def op(index: int) -> None:
                nonlocal warned
                functions = inputs.functions(seed, inputs.OPS, index,
                                             sizes.functions)
                if _tree_op(prepared, functions, index, number, served,
                            tracer, out) is None:
                    return
                fell_back = any(issubclass(w.category, RuntimeWarning)
                                for w in caught[warned:])
                warned = len(caught)
                if fell_back or prepared.pool.executor != "process":
                    out.fail(f"operation {index}: the process pool fell "
                             f"back to serial execution")

            _timed(ctx.seconds / sizes.setups, op, out,
                   first=number * inputs.STRIDE)
            prepared.close()  # joins the pool's workers
    out.peak_rss_mb = measure.peak_rss_mb(children=workers)
    out.notes["warmup_runs"] = warmups
    out.tail_samples = out.latencies

    _verify_canonical(catalogs, served, out)
    results = [result for *_, result in served]
    for _, number, _, result in served:
        stats = result.stats
        out.counters.setdefault(f"catalog{number}", []).append(
            [stats["rounds"], stats["reverse_top1_queries"],
             stats["merge_displaced"], stats["repair_chains"],
             stats["repair_steals"], stats["shard_stagings"]])
    layer = out.layer
    displaced = sum(r.stats["merge_displaced"] for r in results)
    layer["parallel.merge_displaced"] = _per_op(out, displaced)
    layer["parallel.repair_chains"] = _per_op(
        out, sum(r.stats["repair_chains"] for r in results))
    layer["parallel.shard_stagings"] = _per_op(
        out, sum(r.stats["shard_stagings"] for r in results))
    functions = sizes.functions * len(results)
    layer["parallel.kept_share"] = 1 - displaced / functions if functions else 0.0
    _tree_stats(out, results)
    _span_metrics(out, tracer, rids={index for index, *_ in served})
    return out


# ----------------------------------------------------------------------
# churn-serve
# ----------------------------------------------------------------------
def churn_serve(ctx: Context) -> Outcome:
    """Object churn beside reads: each cycle applies object events to a
    bound session, then submits one batch of distinct hot-set workloads,
    which all miss, restage and run the vectorized scorer. The timed
    phase is split over the catalogs: each is set up, timed for its share
    of the run, and closed."""
    sizes, seed, tracer = ctx.sizes, ctx.seed, ctx.tracer
    out = Outcome()
    session_functions = inputs.session_functions(seed, sizes)
    hot = inputs.hot_set(seed, sizes)
    seconds = ctx.seconds / sizes.setups
    max_cycles = int(seconds * EVENT_CYCLES_PER_S) + 10
    per_cycle = sizes.events_per_cycle
    cycles: list = []
    delta: Dict[str, int] = {}
    for number in range(sizes.setups):
        events = inputs.churn_events(seed, inputs.catalog(seed, sizes, number),
                                     session_functions, sizes, max_cycles,
                                     number)
        start = time.perf_counter()
        with tracer.span("data.generate"):
            objects = inputs.catalog(seed, sizes, number)
        service = repro.MatchingService(objects, algorithm="sb",
                                        backend="memory",
                                        deletion_mode="filter")
        session = service.open_session(session_functions)
        out.setup_s.append(time.perf_counter() - start)
        service.submit_many(hot[:sizes.batch])  # starts the scorer threads
        before = service.snapshot().as_dict()
        session_before = session.stats
        first = number * inputs.STRIDE

        def op(index: int) -> float:
            cycle = index - first
            if cycle == max_cycles:
                raise _InputsExhausted
            cycle_events = events[cycle * per_cycle:(cycle + 1) * per_cycle]
            workloads = [hot[k] for k in inputs.churn_picks(seed, index, sizes)]
            tracer.request_id = index
            out.attempted += len(workloads)
            start = time.perf_counter()
            try:
                for event in cycle_events:
                    session.submit(event)
                results = service.submit_many(workloads)
            except ReproError as error:
                out.fail(f"cycle {index}: {error!r}", len(workloads))
                results = None
            elapsed = time.perf_counter() - start
            tracer.request_id = None
            if results is not None:
                out.latencies.extend([elapsed] * len(workloads))
                out.tail_samples.append(elapsed)
            cycles.append((index, number, cycle_events, workloads, results))
            mark = time.perf_counter()
            stats = service.snapshot()
            out.counters.setdefault(f"catalog{number}", []).append(
                [stats.misses, stats.vectorized_requests,
                 stats.fallback_requests, stats.stagings,
                 session.stats["events_applied"], session.stats["chains"]])
            return time.perf_counter() - mark

        try:
            _timed(seconds, op, out, first=first)
        except _InputsExhausted:
            out.notes["inputs_exhausted"] = True
        after = service.snapshot().as_dict()
        for key, value in _service_delta(before, after).items():
            delta[key] = delta.get(key, 0) + value
        for key in ("events_applied", "chains"):
            delta[key] = (delta.get(key, 0) + session.stats[key]
                          - session_before[key])
        service.close()
    out.peak_rss_mb = measure.peak_rss_mb()

    survivors: dict = {}
    for index, number, cycle_events, workloads, results in cycles:
        if number not in survivors:
            survivors[number] = inputs.catalog(seed, sizes, number)
        survivors[number], _ = repro.apply_events(
            survivors[number], session_functions, cycle_events)
        for functions, result in zip(workloads, results or ()):
            if not repro.verify_stable_matching(result.to_matching(),
                                                survivors[number], functions):
                out.fail(f"cycle {index}: unstable matching")
    _service_counters(out, delta)
    out.layer["dynamic.events_applied"] = _per_op(out, delta["events_applied"])
    out.layer["dynamic.repair_chains"] = _per_op(out, delta["chains"])
    _span_metrics(out, tracer, rids={index for index, *_ in cycles})
    return out


class _InputsExhausted(Exception):
    """churn-serve ran through every generated event before time was up."""


# ----------------------------------------------------------------------
# serve-net
# ----------------------------------------------------------------------
def serve_net(ctx: Context) -> Outcome:
    """The deployed read path: one client connection with one request in
    flight against a MatchingServer in its own process; Zipf draws from
    a warmed hot set, with a share of never-seen workloads. The timed
    phase is split over the catalogs: each gets its own server process,
    set up, served for its share of the run, and stopped."""
    from .launcher import Launcher

    sizes, seed, tracer = ctx.sizes, ctx.seed, ctx.tracer
    out = Outcome()
    hot = inputs.hot_set(seed, sizes)
    served: list = []
    checkpoints: Dict[int, list] = {}
    delta: Dict[str, int] = {}
    server_spans: List[list] = []
    # One client for every server, so wire message ids never repeat.
    client = repro.MatchingClient("127.0.0.1", 0, timeout=60.0)
    for number in range(sizes.setups):
        launcher = Launcher(ctx, number)
        try:
            out.setup_s.append(launcher.go())
            out.host.remote = launcher.slice  # the server does most work
            client.host, client.port = launcher.address
            client.health()  # connects, outside the timed phase
            before = client.stats()
            schedule = inputs.serve_schedule(seed, sizes, number)

            def op(index: int) -> float:
                kind, fresh = next(schedule)
                functions = (hot[fresh] if kind == "hot" else inputs.functions(
                    seed, inputs.FRESH, fresh, sizes.functions))
                tracer.request_id = index
                out.attempted += 1
                start = time.perf_counter()
                try:
                    result = client.submit(functions)
                except (ServiceOverloadedError, RemoteError,
                        CodecError) as error:
                    out.fail(f"request {index}: {error!r}")
                    result = None
                elapsed = time.perf_counter() - start
                if result is not None:
                    out.latencies.append(elapsed)
                served.append((index, number, kind, fresh, functions, result,
                               elapsed))
                if (index % inputs.STRIDE + 1) % CHECKPOINT:
                    return 0.0
                mark = time.perf_counter()
                tracer.request_id = None
                stats = _service_delta(before, client.stats())
                checkpoints[index] = ["stats"] + [
                    stats[key] for key in ("requests", "cache_hits", "misses",
                                           "evictions", "batches")]
                return time.perf_counter() - mark

            _timed(ctx.seconds / sizes.setups, op, out,
                   first=number * inputs.STRIDE)
            for key, value in _service_delta(before, client.stats()).items():
                delta[key] = delta.get(key, 0) + value
        finally:
            out.host.remote = None
            client.close()
            server = launcher.stop()
        out.peak_rss_mb = max(out.peak_rss_mb, server["peak_rss_mb"])
        # Span ids restart in every server process.
        offset = number * inputs.STRIDE
        for span in server["spans"]:
            span[tracing.SID] += offset
            if span[tracing.PARENT] is not None:
                span[tracing.PARENT] += offset
        server_spans.extend(server["spans"])
    out.tail_samples = out.latencies

    _verify_served(seed, sizes, hot, served, checkpoints, out)
    _service_counters(out, delta)
    _tree_stats(out, {(number, kind, fresh): result
                      for _, number, kind, fresh, _, result, _ in served
                      if result is not None}.values())
    if tracer.enabled:
        _net_metrics(out, tracer, server_spans, served)
    out.spans["servers"] = server_spans
    return out


def _verify_served(seed: int, sizes: inputs.Sizes, hot: list, served: list,
                   checkpoints: Dict[int, list], out: Outcome) -> None:
    """Check serve-net's answers, pair for pair and score for score,
    against an in-process service on each catalog; record the payload
    sizes (without the timing field, which varies by run) as counters.

    The server answers a fresh miss alone, through the SB tree path; the
    reference computes it in a vectorized batch. A hit is the server's
    cached answer from the vectorized batch that warmed the hot set,
    which the reference repeats, so each distinct hit is also checked
    for stability on the catalog.
    """
    from repro.net.codec import encode_request, encode_result

    for number in range(sizes.setups):
        mine = [entry for entry in served if entry[1] == number]
        objects = inputs.catalog(seed, sizes, number)
        reference = repro.MatchingService(objects, algorithm="sb",
                                          backend="memory",
                                          deletion_mode="filter")
        try:
            expected = {("hot", k): r for k, r in
                        enumerate(reference.submit_many(hot))}
            misses = sorted({entry[3] for entry in mine
                             if entry[2] == "fresh"})
            for start in range(0, len(misses), VERIFY_BATCH):
                numbers = misses[start:start + VERIFY_BATCH]
                results = reference.submit_many([
                    inputs.functions(seed, inputs.FRESH, n, sizes.functions)
                    for n in numbers])
                expected.update({("fresh", n): r
                                 for n, r in zip(numbers, results)})
        finally:
            reference.close()
        stable = set()
        counters = out.counters.setdefault(f"catalog{number}", [])
        for index, _, kind, fresh, functions, result, _ in mine:
            if result is None:
                continue
            if _answer(result) != _answer(expected[(kind, fresh)]):
                out.fail(f"request {index}: answer differs from the "
                         f"in-process service")
            elif kind == "hot" and fresh not in stable:
                if not repro.verify_stable_matching(result.to_matching(),
                                                    objects, functions):
                    out.fail(f"request {index}: unstable matching")
                stable.add(fresh)
            counters.append([
                kind, fresh,
                len(json.dumps(encode_request(repro.MatchingRequest(functions)))),
                len(json.dumps(encode_result(result)))
                - len(repr(result.cpu_seconds))])
            if index in checkpoints:
                counters.append(checkpoints[index])


def _net_metrics(out: Outcome, tracer, server_spans: List[list],
                 served: list) -> None:
    """serve-net's per-layer times: client spans here, server spans
    from the server process, joined by wire message id."""
    client = tracer.select(
        ["net.client.encode", "net.client.decode", "net.client.json_dumps",
         "net.client.json_loads", "net.client.send", "net.client.recv"],
        rids={index for index, *_ in served})
    wire_ids = {span[RID]: span[EXTRA]["wire_id"] for span in client
                if span[NAME] == "net.client.json_dumps"}
    layer = out.layer
    layer["net.client_codec_ms"] = _per_op(out, 1e3 * sum(
        span[END] - span[START] for span in client
        if span[NAME] not in ("net.client.send", "net.client.recv")))
    layer["net.request_bytes"] = _per_op(out, sum(
        span[EXTRA]["bytes"] for span in client
        if span[NAME] == "net.client.send"))
    layer["net.response_bytes"] = _per_op(out, sum(
        span[EXTRA]["bytes"] for span in client
        if span[NAME] == "net.client.recv"))

    server = tracing.Tracer(server_spans)
    on_wire = set(wire_ids.values())
    layer["net.server_codec_ms"] = _per_op(out, server.total_ms(
        ["net.server.decode", "net.server.encode", "net.server.json_loads",
         "net.server.json_dumps"], rids=on_wire))
    first: Dict[int, float] = {}
    last: Dict[int, float] = {}
    for span in server.select(["net.server.json_loads", "net.server.json_dumps"],
                              rids=on_wire):
        first[span[RID]] = min(first.get(span[RID], span[START]), span[START])
        last[span[RID]] = max(last.get(span[RID], span[END]), span[END])
    wire = [elapsed - (last[wire_ids[index]] - first[wire_ids[index]])
            for index, *_, elapsed in served
            if wire_ids.get(index) in first]
    layer["net.wire_ms"] = 1e3 * sum(wire) / len(wire) if wire else 0.0
    entered = {span[RID]: span[START]
               for span in server.select(["engine.async_submit"], rids=on_wire)}
    waits = [span[START] - entered[span[RID]]
             for span in server.select(["engine.submit_many"], rids=on_wire)
             if span[RID] in entered]
    layer["engine.coalesce_wait_ms"] = 1e3 * sum(waits) / len(waits) if waits else 0.0
    _span_metrics(out, server, rids=on_wire)


WORKLOADS = {
    "paper-disk": paper_disk,
    "serve-net": serve_net,
    "churn-serve": churn_serve,
    "sharded": sharded,
}
