"""Fixture raise sites for the exception-discipline rule."""


class FixtureError(Exception):
    """Stand-in for a repro.errors subclass (subclassing is not raising)."""


def reject(value):
    if value < 0:
        raise ValueError("negative")  # VIOLATION: bare builtin raise
    return value


def explode():
    raise RuntimeError  # VIOLATION: bare builtin raise (no call)


def lookup(name):
    raise AttributeError(name)  # VIOLATION: only __getattr__ may raise this


class Proxy:
    def __getattr__(self, name):
        raise AttributeError(name)  # VIOLATION: a method is not PEP 562's hook


def fine(value):
    if value < 0:
        raise FixtureError("negative")
    return value


def reraise(value):
    try:
        return fine(value)
    except FixtureError:
        raise  # bare re-raise is always fine


def __getattr__(name):
    # PEP 562: a module-level __getattr__ must raise AttributeError.
    raise AttributeError(f"module has no attribute {name!r}")
