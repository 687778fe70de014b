"""Seeded determinism-purity violations (fixture tree, never imported)."""

import random
import time


def wall_clock_now():
    return time.time()  # VIOLATION: wall clock inside the simulated core


def global_random_draw():
    return random.random()  # VIOLATION: interpreter-global RNG state


def unseeded_rng():
    return random.Random()  # VIOLATION: Random() without a seed


def iterate_unordered(items):
    seen = set()
    for item in items:
        seen.add(item)
    order = []
    for value in seen:  # VIOLATION: unordered-set iteration order
        order.append(value)
    return order


def iterate_sorted(items):
    seen = set(items)
    return [value for value in sorted(seen)]  # fine: sorted() pins the order

