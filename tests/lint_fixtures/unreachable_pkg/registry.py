"""Negative: ``plugins`` imports the decorator defined here."""

PLUGINS = {}


def register_plugin(cls):
    PLUGINS[cls.__name__] = cls
    return cls
