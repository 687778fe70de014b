"""Span timing (fixture tree): ``obs/`` is outside the scope, so reading
``perf_counter`` here is silent."""

import time


def span_start():
    return time.perf_counter()  # out of scope: timing feeds no decision
