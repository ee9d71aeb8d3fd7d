"""A subpackage whose re-export is re-exported again, and unused."""

from .deep import deep_thing

__all__ = ["deep_thing"]
