"""Negative: ``unreachable_module_cases`` reads ``unreachable_pkg.scale``,
which the package ``__init__`` re-exports from here."""


def scale(value):
    return 2 * value
