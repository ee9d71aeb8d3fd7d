"""Run the repository benchmark.

One workload, as the command in ``BENCHMARK.json`` runs it::

    python3 perfbench/run.py --workload paper-disk --seed 1 --seconds 20 --trace 0

prints a report and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``. End-to-end times are stated at a reference host speed
(``measure.HostSpeed``); the report prints them as measured too. The
exit code is 0 only when every answer was verified and the exact
counters agree with earlier runs of the same seed.

``--workload all`` runs every workload, each in a fresh interpreter,
untraced and then traced. ``--runs N`` runs N seeds (``--seed`` upwards)
of the selected workloads and prints each end-to-end metric's median
and quartiles, with the host probe of every run beside them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("paper-disk", "serve-net", "churn-serve", "sharded")


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    that ``BENCHMARK.json`` lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's "
                             "own tests")
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds per workload (fresh interpreter each)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}; run the "
              f"benchmark from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all" or args.runs > 1:
        return _orchestrate(args)
    return _run_one(args)


# ----------------------------------------------------------------------
# One workload, in this interpreter
# ----------------------------------------------------------------------
def _run_one(args) -> int:
    from perfbench import measure, tracing, workloads

    tracer = tracing.Tracer() if args.trace else tracing.NULL
    if args.trace:
        tracing.install_library(tracer)
        if args.workload == "serve-net":
            tracing.install_client(tracer)
    ctx = workloads.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        size=args.size, tracer=tracer,
    )
    probe_before = measure.host_probe()
    out = workloads.WORKLOADS[args.workload](ctx)
    probe_after = measure.host_probe()
    tracer.uninstall()

    mismatch = measure.check_counters(args.workload, args.seed, args.size,
                                      out.counters)
    if mismatch is not None:
        out.problems.append(f"exact counters changed: {mismatch}")
    correct = out.failed == 0 and mismatch is None and out.attempted > 0
    e2e, measured, samples = _end_to_end(args.workload, out)
    end_to_end = metric_units("end_to_end")

    print(f"== {args.workload}  seed={args.seed}  size={args.size}  "
        f"trace={args.trace}  seconds={args.seconds:g}")
    print(f"   operations: attempted={out.attempted} "
        f"succeeded={out.attempted - out.failed} failed={out.failed} "
        f"in {out.phase_s:.2f} s; set-ups: {len(out.setup_s)}")
    print(f"   host speed: {len(out.host.slices_ms)} calibration slices, "
        f"mean {statistics.fmean(out.host.slices_ms):.3f} ms, scale "
        f"{out.host.scale:.4f}; host probe {probe_before:.3f} ms before, "
        f"{probe_after:.3f} ms after")
    for name, unit in end_to_end.items():
        print(f"   {name:<16} {e2e[name]:12.4f} {unit:<6} (measured "
            f"{measured[name]:.4f}) {samples[name]}")
    for key, value in sorted(out.notes.items()):
        print(f"   {key}: {value}")
    for problem in out.problems:
        print(f"   PROBLEM: {problem}")

    record = measure.STATE_DIR / "runs" / (
        f"{args.workload}-{args.size}-seed{args.seed}-"
        f"{measure.source_digest()}.json")
    if args.trace:
        metrics = {name: {"value": float(out.layer.get(name, 0.0)),
                          "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
        for name, entry in metrics.items():
            print(f"   {name:<28} {entry['value']:14.4f} {entry['unit']}")
        spans = {"benchmark": tracer.spans, **out.spans}
        path = measure.write_spans(f"{args.workload}-{args.size}-seed{args.seed}",
                                   spans)
        print(f"   spans: {sum(map(len, spans.values()))} written to {path}")
        if record.exists():
            untraced = json.loads(record.read_text())
            for name in end_to_end:
                base = untraced[name]
                overhead = (e2e[name] / base - 1) * 100 if base else 0.0
                print(f"   tracing overhead {name:<16} {e2e[name]:12.4f} "
                    f"traced vs {base:12.4f} untraced ({overhead:+.1f}%)")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in end_to_end.items()}
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(e2e))
    print(json.dumps({"meta": {"probe_ms": [probe_before, probe_after],
                             "scale": out.host.scale, "measured": measured,
                             "workload": args.workload, "seed": args.seed}}))
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


def _end_to_end(workload: str, out):
    """The end-to-end metrics at the reference host speed, the same as
    measured, and the sample count behind each."""
    from perfbench import measure, workloads

    tail, beyond = measure.percentile(out.tail_samples,
                                      workloads.TAIL[workload])
    succeeded = out.attempted - out.failed
    measured = {
        "setup_s": measure.median(out.setup_s),
        "ops_per_s": succeeded / out.phase_s if out.phase_s else 0.0,
        "latency_p50_ms": measure.median(out.latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": out.peak_rss_mb,
    }
    # Times scale with the host speed, rates inversely, memory not at all.
    power = {"setup_s": 1, "ops_per_s": -1, "latency_p50_ms": 1,
             "latency_tail_ms": 1, "peak_rss_mb": 0}
    e2e = {name: value * out.host.scale ** power[name]
           for name, value in measured.items()}
    percent = round(workloads.TAIL[workload] * 100)
    samples = {
        "setup_s": f"median of {len(out.setup_s)} set-ups",
        "ops_per_s": f"{succeeded} verified operations",
        "latency_p50_ms": f"p50 of {len(out.latencies)} operations",
        "latency_tail_ms": f"p{percent} of {len(out.tail_samples)} samples, "
                           f"{beyond} beyond it",
        "peak_rss_mb": "serving processes",
    }
    if beyond < measure.TAIL_MIN_BEYOND:
        samples["latency_tail_ms"] += " (fewer than 10: too few samples)"
    return e2e, measured, samples


# ----------------------------------------------------------------------
# Several workloads or seeds, each in a fresh interpreter
# ----------------------------------------------------------------------
def _orchestrate(args) -> int:
    from perfbench import measure

    names = NAMES if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.runs == 1 else (0,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    table: dict = {}
    measured: dict = {}
    probes: dict = {}
    for name in names:
        for offset in range(args.runs):
            for trace in traces:
                command = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", name,
                           "--seed", str(args.seed + offset),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace), "--size", args.size]
                start = time.perf_counter()
                done = subprocess.run(command, capture_output=True, text=True,
                                      cwd=str(ROOT), timeout=900)
                lines = done.stdout.strip().splitlines()
                print("\n".join(lines[:-1]), flush=True)
                print(f"   wall time of the run: "
                      f"{time.perf_counter() - start:.1f} s")
                if done.returncode not in (0, 1) or not lines:
                    print(done.stderr, file=sys.stderr)
                    return done.returncode or 1
                result = json.loads(lines[-1])
                meta = json.loads(lines[-2])["meta"]
                correct = correct and result["correct"]
                attempted += result["attempted"]
                failed += result["failed"]
                if trace == 0:
                    probes.setdefault(name, []).append(
                        [*meta["probe_ms"], meta["scale"]])
                    for metric, entry in result["metrics"].items():
                        table.setdefault((name, metric, entry["unit"]),
                                         []).append(entry["value"])
                        measured.setdefault((name, metric), []).append(
                            meta["measured"][metric])
                        metrics[f"{name}.{metric}"] = entry
    if args.runs > 1:
        print(f"== {args.runs} seeds from {args.seed}: median [Q1, Q3] "
              f"and (Q3 - Q1) / median, at the reference speed and as "
              f"measured")
        for (name, metric, unit), values in table.items():
            q1, q2, q3 = measure.quartiles(values)
            metrics[f"{name}.{metric}"] = {"value": q2, "unit": unit}
            print(f"   {name:<12} {metric:<16} {q2:12.4f} "
                  f"[{q1:.4f}, {q3:.4f}] spread {_spread(values):.3f} "
                  f"(measured {_spread(measured[(name, metric)]):.3f})  "
                  f"runs: " + " ".join(f"{v:.4g}" for v in values))
        for name in names:
            print(f"   {name:<12} host probe ms before/after, scale: "
                  + " ".join(f"{a:.2f}/{b:.2f},{c:.3f}"
                             for a, b, c in probes[name]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _spread(values) -> float:
    """``(Q3 - Q1) / median`` of a metric's values over runs."""
    from perfbench import measure

    q1, q2, q3 = measure.quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


if __name__ == "__main__":
    sys.exit(main())
