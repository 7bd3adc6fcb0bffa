"""Sufficiency- and necessity-based explanations for Boolean monotone
query answers over small relational instances.

The library computes, for a query that is true in an instance split into
endogenous and exogenous tuples: minimal sufficient and minimal necessary
tuple sets, exact necessity/sufficiency/responsibility degrees, actual
causes with contingency sets, subset- and cardinality-repairs of the
query's denial constraint, the repair core (both by repair intersection
and in polynomial time), chase-style construction of a minimal sufficient
set through a given tuple, and the monotone-DNF lineage with minimal-model
enumeration.  The sufficiency and necessity families, degrees, causes and
the polynomial core are all derived from one object, the antichain W of
endogenous witness projections: its members are the minimal sufficient
sets, its minimal transversals the minimal necessary sets, and the
instance minus the union of its members is the repair core.
"""

from . import errors
from .errors import *  # noqa: F401,F403 - stable exception surface
from .explanations import (
    DEFAULT_MAX_ENDO,
    ContingencyReport,
    DegreeReport,
    ExplanationSet,
    TupleDegrees,
    is_necessary,
    is_sufficient,
    verify_explanation,
)
from .fastpath import (
    MinMssResult,
    ParticipatingSets,
    chase_mss,
    core_fast,
    min_mss_sjf,
    participating_sets,
    sufficient_set_from,
)
from .lineage import LineageFormula, eliminate_exogenous, lineage_of, minimal_models
from .model import Fact, Instance, load_instance, load_instance_csv
from .oracle import (
    CorrespondenceResult,
    DualityResult,
    actual_causes,
    cause_repair_correspondence,
    check_duality,
    degrees,
    enumerate_mns,
    enumerate_mss,
)
from .query import (
    DEFAULT_MAX_PATHS,
    Atom,
    BooleanCQ,
    Const,
    DenialConstraint,
    Query,
    ReachabilityQuery,
    Var,
    Witness,
    denial_constraint_of,
    enumerate_witnesses,
    evaluate,
    parse_query,
)
from .repairs import (
    CoreResult,
    Repair,
    core_naive,
    enumerate_c_repairs,
    enumerate_s_repairs,
    minimal_hitting_sets,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """The join engine in use: there is one, in pure Python.  Kept, with
    ``available_backends``, because ``perfbench/run.py`` records both in
    the machine description of every benchmark result."""
    return "python"


def available_backends() -> tuple[str, ...]:
    """All join engines; see ``backend_name``."""
    return ("python",)


__all__ = [
    "__version__",
    # model
    "Fact", "Instance", "load_instance", "load_instance_csv",
    # query engine
    "Var", "Const", "Atom", "BooleanCQ", "ReachabilityQuery", "Query",
    "Witness", "DenialConstraint", "parse_query", "evaluate",
    "enumerate_witnesses", "denial_constraint_of", "DEFAULT_MAX_PATHS",
    # explanations
    "ExplanationSet", "DegreeReport", "TupleDegrees", "ContingencyReport",
    "verify_explanation", "is_sufficient", "is_necessary", "DEFAULT_MAX_ENDO",
    # oracle
    "enumerate_mss", "enumerate_mns", "degrees", "actual_causes",
    "check_duality", "cause_repair_correspondence", "DualityResult",
    "CorrespondenceResult",
    # repairs
    "Repair", "CoreResult", "enumerate_s_repairs", "enumerate_c_repairs",
    "core_naive", "minimal_hitting_sets",
    # fast path
    "ParticipatingSets", "MinMssResult", "participating_sets", "core_fast",
    "sufficient_set_from", "chase_mss", "min_mss_sjf",
    # lineage
    "LineageFormula", "lineage_of", "eliminate_exogenous", "minimal_models",
    # engine
    "backend_name", "available_backends",
    "errors",
] + list(errors.__all__)
