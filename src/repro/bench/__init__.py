"""Benchmarks reproducing the paper's evaluation section.

Every measurement is a cell of the declarative benchmark matrix,
:mod:`repro.bench.matrix`: the paper's Figures 2-3, the Section IV
design ablations and each subsystem's acceptance bar are shipped
configs, run with ``python -m repro.bench run --config <name>``
(``python -m repro.bench list`` names them). :mod:`repro.bench.net`
holds the subprocess plumbing of the socket-serving cells.
"""

__all__: list = []
