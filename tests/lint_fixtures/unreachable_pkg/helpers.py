"""Negative: a sibling module (``plugins``) imports this one."""


def normalize(text):
    return text.strip().lower()
