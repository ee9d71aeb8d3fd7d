"""Negative: importing this module registers a plugin, so nothing needs
to import a name from it."""

from .helpers import normalize
from .registry import register_plugin


@register_plugin
class CsvPlugin:
    def key(self, text):
        return normalize(text)
