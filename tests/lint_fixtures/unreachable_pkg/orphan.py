# EXPECT: unreachable-module
"""Positive: only the package ``__init__`` imports this module."""


def orphan_helper(value):
    return value + 1
