"""Fixture package for unreachable-module (parsed, never imported).

Re-exporting a name here is not a use of its module; running code
with it (the ``register_hook`` call below) is.
"""

from .attr_target import scale
from .hooks import on_start, register_hook
from .orphan import orphan_helper
from .sub import deep_thing

register_hook(on_start)

__all__ = ["scale", "orphan_helper", "deep_thing"]
