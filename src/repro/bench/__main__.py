"""``python -m repro.bench`` — the benchmark matrix CLI.

The same command as ``python -m repro.bench.matrix``; see
:mod:`repro.bench.matrix.cli`.
"""

from .matrix.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
