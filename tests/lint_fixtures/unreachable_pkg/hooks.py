"""Negative: the package ``__init__`` calls ``register_hook(on_start)``."""

_HOOKS = []


def register_hook(hook):
    _HOOKS.append(hook)
    return hook


def on_start():
    return len(_HOOKS)
