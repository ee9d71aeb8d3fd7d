"""Algorithm registry: names to matcher factories.

Every matching algorithm — the paper's SB, both baselines, the
reference matchers, and any user-defined one — registers under a short
name (plus optional aliases) with the :func:`register_matcher`
decorator. A :class:`~repro.engine.plan.MatchingPlan` resolves
``config.algorithm`` here, and :func:`create_matcher` constructs the
matcher with exactly the configuration switches its ``__init__``
accepts (signature intersection), so registering a new algorithm
requires no engine changes::

    @register_matcher("my-alg", aliases=("ma",))
    class MyMatcher(Matcher):
        ...

A plain factory ``f(problem, config) -> matcher`` can be registered the
same way when construction needs more than keyword filtering.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..core.base import Matcher
from ..core.problem import MatchingProblem
from ..errors import MatchingError
from ..storage.stats import SearchStats
from .config import MatchingConfig

#: A factory building a ready-to-run matcher for one problem.
MatcherFactory = Callable[..., object]

#: name (canonical or alias) -> (canonical name, factory).
_REGISTRY: Dict[str, Tuple[str, MatcherFactory]] = {}


def _normalize(name: str) -> str:
    return name.strip().lower()


def _class_factory(cls) -> MatcherFactory:
    """Construct ``cls`` with the config switches its signature accepts."""
    parameters = inspect.signature(cls.__init__).parameters
    accepted = frozenset(parameters) - {"self", "problem"}
    takes_stats = "search_stats" in accepted

    def build(problem: MatchingProblem, config: MatchingConfig,
              search_stats: Optional[SearchStats] = None, **overrides):
        kwargs = {
            key: value
            for key, value in config.matcher_kwargs().items()
            if key in accepted
        }
        kwargs.update(overrides)
        if takes_stats and search_stats is not None:
            kwargs["search_stats"] = search_stats
        return cls(problem, **kwargs)

    build.matcher_class = cls
    return build


def register_matcher(name: str, *, aliases: Iterable[str] = (),
                     replace: bool = False):
    """Class/factory decorator adding an algorithm to the registry.

    ``name`` is the canonical name returned by
    :func:`available_algorithms`; ``aliases`` resolve to the same entry.
    Registering an existing name raises unless ``replace=True``.
    """

    def decorate(target):
        if inspect.isclass(target):
            if not issubclass(target, Matcher):
                raise MatchingError(
                    f"{target.__name__} must subclass Matcher to be "
                    f"registered as an algorithm"
                )
            factory = _class_factory(target)
        else:
            factory = target
        canonical = _normalize(name)
        for key in (canonical, *map(_normalize, aliases)):
            if not replace and key in _REGISTRY:
                raise MatchingError(
                    f"algorithm name {key!r} is already registered "
                    f"(to {_REGISTRY[key][0]!r}); pass replace=True to "
                    f"override"
                )
            _REGISTRY[key] = (canonical, factory)
        return target

    return decorate


def unregister_matcher(name: str) -> None:
    """Remove an algorithm (canonical name and all its aliases)."""
    canonical, _ = _resolve(name)
    for key in [k for k, (c, _) in _REGISTRY.items() if c == canonical]:
        del _REGISTRY[key]


def available_algorithms() -> Tuple[str, ...]:
    """Sorted canonical names of every registered algorithm."""
    return tuple(sorted({canonical for canonical, _ in _REGISTRY.values()}))


def algorithm_aliases() -> Dict[str, str]:
    """``{alias or name: canonical name}`` for every registered key."""
    return {key: canonical for key, (canonical, _) in _REGISTRY.items()}


def algorithm_supports_repair(name: str) -> bool:
    """Whether dynamic sessions can repair this algorithm's matching.

    Reads the registered matcher class's ``supports_repair`` flag; plain
    factories without an attached class default to ``False``.
    """
    _, factory = _resolve(name)
    matcher_class = getattr(factory, "matcher_class", None)
    return bool(getattr(matcher_class, "supports_repair", False))


def _resolve(name: str) -> Tuple[str, MatcherFactory]:
    try:
        return _REGISTRY[_normalize(name)]
    except KeyError:
        raise MatchingError(
            f"unknown algorithm {name!r}; available algorithms: "
            f"{', '.join(available_algorithms())}"
        ) from None


def create_matcher(name: str, problem: MatchingProblem,
                   config: Optional[MatchingConfig] = None,
                   search_stats: Optional[SearchStats] = None,
                   **overrides):
    """Instantiate the registered algorithm ``name`` for ``problem``.

    ``overrides`` are passed straight to the matcher constructor and win
    over config-derived keywords (e.g. ``on_round=...`` for SB tracing).
    """
    canonical, factory = _resolve(name)
    if config is None:
        config = MatchingConfig(algorithm=canonical)
    return factory(problem, config, search_stats=search_stats, **overrides)
