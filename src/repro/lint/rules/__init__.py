"""Rule registry: every project-specific checker, by name.

Adding a rule is three steps (see ``docs/guides/static-analysis.md``):
subclass :class:`~repro.lint.rules.base.Rule` in a new module here,
decorate it with :func:`register_rule`, and import the module below so
registration runs. Fixture coverage in ``tests/lint_fixtures/`` is the
fourth, non-optional step.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

from ...errors import MatchingError
from .base import ProjectRule, Rule

_RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a checker to the registry."""
    if not cls.name:
        raise MatchingError(
            f"rule class {cls.__name__} must set a non-empty name"
        )
    if cls.name in _RULES:
        raise MatchingError(f"lint rule {cls.name!r} already registered")
    _RULES[cls.name] = cls
    return cls


def available_rules() -> Tuple[str, ...]:
    """Sorted names of every registered rule."""
    return tuple(sorted(_RULES))


def rule_descriptions() -> Dict[str, str]:
    """``{rule name: one-line description}`` for the catalog."""
    return {name: cls.description for name, cls in sorted(_RULES.items())}


def create_rules(names: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the named rules (all of them by default)."""
    if names is None:
        names = available_rules()
    rules = []
    for name in names:
        try:
            cls = _RULES[name]
        except KeyError:
            raise MatchingError(
                f"unknown lint rule {name!r}; available rules: "
                f"{', '.join(available_rules())}"
            ) from None
        rules.append(cls())
    return rules


from .api_surface import ApiSurfaceRule
from .async_safety import AsyncSafetyRule
from .determinism import DeterminismRule
from .exception_contract import ExceptionContractRule
from .frozen_mutation import FrozenMutationRule
from .lock_cycle import LockCycleRule
from .lock_guard import LockGuardRule
from .lock_order import LockOrderRule
from .picklability import PicklabilityRule
from .unreachable_module import UnreachableModuleRule
from .wire_schema import WireSchemaRule

for _cls in (
    ApiSurfaceRule,
    AsyncSafetyRule,
    DeterminismRule,
    ExceptionContractRule,
    FrozenMutationRule,
    LockCycleRule,
    LockGuardRule,
    LockOrderRule,
    PicklabilityRule,
    UnreachableModuleRule,
    WireSchemaRule,
):
    register_rule(_cls)

__all__ = [
    "Rule",
    "ProjectRule",
    "register_rule",
    "available_rules",
    "rule_descriptions",
    "create_rules",
    "ApiSurfaceRule",
    "AsyncSafetyRule",
    "DeterminismRule",
    "ExceptionContractRule",
    "FrozenMutationRule",
    "LockCycleRule",
    "LockGuardRule",
    "LockOrderRule",
    "PicklabilityRule",
    "UnreachableModuleRule",
    "WireSchemaRule",
]
