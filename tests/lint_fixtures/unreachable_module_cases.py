"""A top-level script, not a package module: unreachable-module never
reports it, and its attribute read is what keeps
``unreachable_pkg/attr_target.py`` in use."""

import unreachable_pkg


def double(value):
    return unreachable_pkg.scale(value)
