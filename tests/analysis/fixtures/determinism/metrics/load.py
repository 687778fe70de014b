"""Load tracker with a seeded violation (fixture tree): ``metrics/`` is in
scope."""

import time


def stamp_load():
    return time.perf_counter()  # VIOLATION: wall clock in sim accounting
