"""Store with a seeded violation (fixture tree): ``data/`` is in scope."""


def expire_order(keys):
    stale = set(keys)
    return [key for key in stale]  # VIOLATION: unordered-set iteration order
