"""The library's front door: the one-shot :func:`match` and :func:`open_session`.

Pick an algorithm by name, a storage backend by name, optionally
per-object capacities — everything else has the paper's defaults::

    import repro

    result = repro.match(objects, prefs)                     # SB on disk
    result = repro.match(objects, prefs, backend="memory")   # serving path
    result = repro.match(objects, prefs, algorithm="chain",
                         capacities={0: 3, 1: 2})

Both functions compile a :class:`~repro.engine.plan.MatchingPlan` and
run through it, so they return exactly what the compile → prepare →
serve pipeline of :mod:`repro.engine.plan` returns. Callers that need
streaming pairs or custom instrumentation drop one level down to
:meth:`StorageBackend.build_problem
<repro.engine.backends.StorageBackend.build_problem>` and
:func:`~repro.engine.registry.create_matcher`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..data import Dataset
from .config import MatchingConfig
from .plan import MatchingPlan
from .result import MatchResult

#: Sentinel distinguishing "argument not passed" from an explicit value,
#: so keyword defaults never clobber the fields of a passed ``config=``.
_UNSET = object()


def _config(config: Optional[MatchingConfig], options: dict,
            **named) -> MatchingConfig:
    """``config`` (or the defaults) with every explicitly passed field."""
    overrides = dict(options)
    overrides.update(
        (name, value) for name, value in named.items() if value is not _UNSET
    )
    return (config if config is not None else MatchingConfig()).replace(
        **overrides
    )


def match(objects: Dataset, functions: Sequence, *,
          algorithm: str = _UNSET, backend: str = _UNSET,
          capacities=_UNSET, config: Optional[MatchingConfig] = None,
          **options) -> MatchResult:
    """One-shot stable matching — the library's front door.

    Prepares ``objects`` under the compiled plan, runs ``functions``
    once, and releases the prepared state (a sharded run's worker pool
    included) before returning.

    Parameters
    ----------
    objects:
        The object set ``O`` (a :class:`~repro.data.Dataset`).
    functions:
        The preference functions ``F`` (linear, or any monotone
        functions when ``algorithm="generic-sb"``).
    algorithm:
        Registered algorithm name (``"sb"``, ``"bf"``, ``"chain"``,
        ``"gs"``, ``"generic-sb"``, or anything you registered).
        Default ``"sb"``.
    backend:
        Registered storage backend (``"disk"`` for the paper's simulated
        cost model, ``"memory"`` for the serving fast path).
        Default ``"disk"``.
    capacities:
        Optional ``{object_id: units}`` for many-to-one matching.
    config:
        A full :class:`MatchingConfig` to start from; only keyword
        arguments that are *explicitly passed* override its fields.
    options:
        Any further :class:`MatchingConfig` field (``page_size``,
        ``buffer_policy``, ``deletion_mode``, ``seed``, ...).

    Returns
    -------
    MatchResult
        The stable pairs with provenance and costs.

    Examples
    --------
    >>> import repro
    >>> objects = repro.generate_independent(n=120, dims=2, seed=1)
    >>> prefs = repro.generate_preferences(n=5, dims=2, seed=2)
    >>> result = repro.match(objects, prefs, backend="memory")
    >>> (len(result), result.algorithm)
    (5, 'skyline')

    Every registered algorithm returns the identical stable pairs —
    here the index-free Gale-Shapley reference, sharded four ways:

    >>> again = repro.match(objects, prefs, algorithm="gs",
    ...                     backend="memory", shards=4,
    ...                     executor="serial")
    >>> again.as_set() == result.as_set()
    True

    Capacitated (many-to-one) runs return the same unified result type:

    >>> booked = repro.match(objects, prefs, backend="memory",
    ...                      capacities={3: 2})
    >>> booked.is_capacitated
    True
    """
    config = _config(config, options, algorithm=algorithm, backend=backend,
                     capacities=capacities)
    with MatchingPlan(config).prepare(objects) as prepared:
        return prepared.run(functions)


def open_session(objects: Dataset, functions: Sequence, *,
                 algorithm: str = _UNSET, backend: str = _UNSET,
                 config: Optional[MatchingConfig] = None, **options):
    """Open a dynamic matching session — ``match``'s streaming sibling.

    Stages the workload once, computes the initial matching, and returns
    a :class:`~repro.dynamic.DynamicMatcher` that keeps the matching
    valid under object/function arrivals and departures::

        session = repro.open_session(objects, prefs, backend="memory",
                                     batch_size=8)
        session.delete_object(42)
        session.matching()   # == repro.match() on the surviving data

    Accepts the same configuration surface as :func:`match` (minus
    ``capacities`` — sessions are 1-1 — and ``shards`` — sessions are
    single-process), including the dynamic knobs ``batch_size``
    (default 1: every event applies immediately), ``repair_threshold``
    and ``compact_fraction``. Delegates to
    :meth:`~repro.engine.plan.MatchingPlan.open_session`.

    Examples
    --------
    >>> import repro
    >>> objects = repro.generate_independent(n=80, dims=2, seed=3)
    >>> prefs = repro.generate_preferences(n=6, dims=2, seed=4)
    >>> session = repro.open_session(objects, prefs, backend="memory")
    >>> best = session.pairs[0]
    >>> session.delete_object(best.object_id)       # best object sold
    >>> session.partner_of(best.function_id) != best.object_id
    True
    >>> snapshot = session.matching()               # == a fresh match()
    >>> (len(snapshot), snapshot.algorithm)
    (6, 'dynamic-sb')
    """
    config = _config(config, options, algorithm=algorithm, backend=backend)
    return MatchingPlan(config).open_session(objects, functions)
