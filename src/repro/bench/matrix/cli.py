# lint: replay-root
"""Command-line front-end: ``python -m repro.bench.matrix``.

``python -m repro.bench`` is the same command.

``run`` executes a named (or file-based) config, writes validated
artifacts, and optionally records or checks a trajectory::

    python -m repro.bench.matrix run --config smoke --out bench-matrix
    python -m repro.bench.matrix run --config smoke --check BENCH_26_smoke.json
    python -m repro.bench.matrix run --config smoke \\
        --write-trajectory BENCH_11.json --pr 11

``list`` prints the configs shipped in-package.

Exit status: 0 — everything passed; 1 — an identity assertion, gate,
or trajectory check failed; 2 — the config or trajectory file itself
is invalid.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, TextIO

from ...errors import BenchError
from .config import (
    MatrixConfig,
    available_configs,
    bench_scale,
    expand_cells,
    load_config,
    load_named_config,
)
from .runner import run_matrix, write_artifacts
from .trajectory import (
    build_trajectory,
    check_trajectory,
    load_trajectory,
    write_trajectory,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run a declarative benchmark/ablation matrix.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="execute a matrix config and write its artifacts",
    )
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--config", metavar="NAME",
        help="a config shipped in-package (see 'list')",
    )
    source.add_argument(
        "--config-file", metavar="PATH",
        help="a JSON/TOML matrix config file",
    )
    run.add_argument(
        "--scale", type=float, default=None, metavar="FACTOR",
        help="workload scale factor (default: REPRO_BENCH_SCALE or 1.0)",
    )
    run.add_argument(
        "--out", metavar="DIR", default=None,
        help="artifact directory (default: bench-matrix/<config>)",
    )
    run.add_argument(
        "--check", metavar="TRAJECTORY", default=None,
        help="compare the fresh run against this committed trajectory "
             "and fail on regression",
    )
    run.add_argument(
        "--write-trajectory", metavar="PATH", default=None,
        help="record this run as a trajectory file",
    )
    run.add_argument(
        "--pr", default="dev", metavar="LABEL",
        help="PR label stamped into --write-trajectory (default: dev)",
    )
    run.add_argument(
        "--quiet", action="store_true",
        help="suppress per-cell progress lines",
    )

    commands.add_parser(
        "list", help="print the configs shipped in-package",
    )
    return parser


def _load(args: argparse.Namespace) -> MatrixConfig:
    if args.config is not None:
        return load_named_config(args.config)
    return load_config(args.config_file)


def _run(args: argparse.Namespace, out: TextIO) -> int:
    config = _load(args)
    scale = bench_scale(default=1.0) if args.scale is None else args.scale

    def progress(index: int, total: int, spec) -> None:
        if not args.quiet:
            print(f"[{index + 1}/{total}] {spec.cell_id}", file=out,
                  flush=True)

    result = run_matrix(config, scale=scale, progress=progress)

    out_dir = args.out if args.out is not None \
        else f"bench-matrix/{config.name}"
    written = write_artifacts(result, out_dir)
    print(result.to_text(), file=out)
    print(f"wrote {len(written)} artifact(s) under {out_dir}", file=out)

    status = 0 if result.ok else 1
    cells = [result.cell_payload(cell) for cell in result.cells]

    if args.write_trajectory is not None:
        trajectory = build_trajectory(config, scale, str(args.pr), cells)
        write_trajectory(trajectory, args.write_trajectory)
        print(f"recorded trajectory {args.write_trajectory} "
              f"(pr={args.pr})", file=out)

    if args.check is not None:
        trajectory = load_trajectory(args.check)
        report = check_trajectory(trajectory, config, scale, cells,
                                  path=args.check)
        print(report.format(), file=out)
        if not report.ok:
            status = max(status, 1)
    return status


def _list(out: TextIO) -> int:
    names = available_configs()
    if not names:
        print("no configs shipped", file=out)
        return 0
    for name in names:
        config = load_named_config(name)
        cells = len(expand_cells(config))
        print(f"{name:18} {cells:3d} cell(s)  {config.description}",
              file=out)
    return 0


def main(argv: Optional[List[str]] = None,
         out: Optional[TextIO] = None) -> int:
    """Entry point; returns the process exit status."""
    out = sys.stdout if out is None else out
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _list(out)
        return _run(args, out)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
