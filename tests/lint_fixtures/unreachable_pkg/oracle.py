"""Negative: a test oracle, kept on purpose although nothing imports it."""

# lint: reference — tests compare ``scale`` against this loop.


def slow_scale(value):
    total = 0
    for _ in range(2):
        total += value
    return total
