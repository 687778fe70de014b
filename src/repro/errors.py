"""Exception hierarchy shared by every subpackage of :mod:`repro`.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch a single base class.  Sub-hierarchies mirror the layered
architecture of the system (DHT substrate, SQL front-end, query engine,
experiment harness).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied by the caller."""


# ---------------------------------------------------------------------------
# DHT / network substrate
# ---------------------------------------------------------------------------


class DHTError(ReproError):
    """Base class for errors raised by the DHT substrate."""


class EmptyRingError(DHTError):
    """An operation required at least one node but the ring is empty."""


class UnknownNodeError(DHTError):
    """A node id or address does not correspond to a live node."""


class DuplicateNodeError(DHTError):
    """A node with the same identifier already participates in the ring."""


class RoutingError(DHTError):
    """A message could not be routed to its destination."""


class NetworkError(ReproError):
    """Base class for errors raised by the discrete event simulator."""


class SimulationError(NetworkError):
    """The simulation kernel was driven into an invalid state."""


# ---------------------------------------------------------------------------
# Data / SQL front-end
# ---------------------------------------------------------------------------


class SchemaError(ReproError):
    """A relation schema is invalid or a tuple does not match its schema."""


class UnknownRelationError(SchemaError):
    """A query or a tuple refers to a relation that is not in the catalog."""


class UnknownAttributeError(SchemaError):
    """A query refers to an attribute that is not part of the relation."""


class CodecError(SchemaError):
    """A stored payload could not be decoded (corrupt or unknown encoding)."""


class SQLError(ReproError):
    """Base class for SQL front-end errors."""


class SQLSyntaxError(SQLError):
    """The query text could not be parsed."""


class UnsupportedQueryError(SQLError):
    """The query parses but falls outside the supported equi-join subset."""


class PredicateBindingError(SQLError):
    """A predicate was evaluated against a relation it does not reference."""


# ---------------------------------------------------------------------------
# Query engine
# ---------------------------------------------------------------------------


class EngineError(ReproError):
    """Base class for errors raised by the RJoin engine."""


class QueryRegistrationError(EngineError):
    """A continuous query could not be registered with the engine."""


class RewriteError(EngineError):
    """A query rewrite step was applied to an incompatible tuple."""


class AnswerIndexError(EngineError, IndexError):
    """An answer was asked for by a position the handle does not hold."""


class ExperimentError(ReproError):
    """An experiment configuration or run is invalid."""


# ---------------------------------------------------------------------------
# Metrics / tooling
# ---------------------------------------------------------------------------


class MetricsError(ReproError):
    """A metrics report or aggregation was requested with invalid inputs."""


class AnalysisError(ReproError):
    """The static-analysis suite was driven with invalid inputs."""


class ObservabilityError(ReproError):
    """The tracing/metrics layer was configured or driven with invalid inputs."""
