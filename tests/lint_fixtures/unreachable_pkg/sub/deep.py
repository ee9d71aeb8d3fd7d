# EXPECT: unreachable-module
"""Positive: reached only through re-exports that nothing uses."""


def deep_thing():
    return 42
