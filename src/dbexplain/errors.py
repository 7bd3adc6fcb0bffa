"""Exception hierarchy shared across the library and the CLI."""

from __future__ import annotations

__all__ = [
    "ExplainError", "InstanceFormatError", "UnknownTupleId", "UnknownPredicate",
    "QuerySyntaxError", "QueryNotSatisfied", "BoundExceeded",
    "OracleBoundExceeded", "PathBoundExceeded", "UnsupportedQuery",
    "RepairNotFound", "ExplanationInvalid", "ChaseSeedError", "ChaseDefect",
]


class ExplainError(Exception):
    """Base class for all semantic errors raised by this package."""


class InstanceFormatError(ExplainError):
    """Malformed instance document: bad schema, duplicate tid, arity
    mismatch, or duplicate value list within a predicate."""


class UnknownTupleId(ExplainError):
    """A tuple identifier does not occur in the instance."""


class UnknownPredicate(ExplainError):
    """A query mentions a predicate absent from the instance schema."""


class QuerySyntaxError(ExplainError):
    """The query text does not conform to the grammar."""


class QueryNotSatisfied(ExplainError):
    """An operation that presupposes a true query answer was called on an
    instance where the query is false."""


class BoundExceeded(ExplainError):
    """An enumeration exceeded its configured size bound."""


class OracleBoundExceeded(BoundExceeded):
    """A listing of minimal hitting sets, a minimum-size search, or a check
    on one, passed its cap on tests or on tuples held, or a repair request
    has more deletable tuples than its bound; the message names the
    quantity and its value."""


class PathBoundExceeded(BoundExceeded):
    """The simple-path walk of a reachability query passed its cap on
    paths kept, on nodes entered or on tuples in the paths kept; the
    message names the quantity and its value."""


class UnsupportedQuery(ExplainError):
    """The operation is only defined for Boolean conjunctive queries."""


class RepairNotFound(ExplainError):
    """No repair exists when deletions are restricted to endogenous
    tuples (some violation is witnessed by exogenous tuples alone)."""


class ExplanationInvalid(ExplainError):
    """A candidate explanation set failed its kind-specific check."""


class ChaseSeedError(ExplainError):
    """The chase was started from an ineligible seed tuple."""


class ChaseDefect(ExplainError):
    """The chase has no subset-minimal sufficient set to return through
    the seed: the seed occurs in satisfying combinations but in no member
    of the witness antichain W (it lies in the repair core), or a supplied
    repair keeps no member of W through it."""
