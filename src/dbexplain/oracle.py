"""Necessity and sufficiency families, derived from the witness antichain.

Every family here is a function of one object: the antichain W of the
endogenous projections of the minimal witnesses, built once per instance
and query.

* A set is sufficient (it satisfies the query together with all exogenous
  tuples) exactly when it contains a member of W, so the minimal
  sufficient sets (MSS) are the members of W.
* A set is necessary (its removal falsifies the query) exactly when it
  meets every member of W, so the minimal necessary sets (MNS) are the
  minimal transversals of W.  When W holds the empty set, the exogenous
  part alone satisfies the query: the MSS family is the empty set alone
  and there is no MNS.
* Degrees: eta(t) = 1/min{|N| : N an MNS, t in N} (0 when t is in no MNS)
  and sigma(t) likewise over the MSS.  An MNS is the union of one minimal
  transversal per connected component of W, so eta is read off the
  components' transversals without listing the MNS.  The responsibility
  rho(t) = 1/(1+|G|) for the smallest contingency set G equals eta(t).
  The subset-minimal contingency sets of t are the sets N - {t} for the
  MNS N through t (Bertossi & Salimi, "From causes for database queries
  to repairs and model-based diagnosis and back", 2017).  All values are
  exact rationals.

The returned sets are re-verified through the definition-level checkers
in :mod:`dbexplain.explanations`, and the test suite compares every
family with an exhaustive subset scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    OracleBoundExceeded,
    QueryNotSatisfied,
    RepairNotFound,
    UnsupportedQuery,
)
from .explanations import (
    DEFAULT_MAX_ENDO,
    ContingencyReport,
    DegreeReport,
    ExplanationSet,
    TupleDegrees,
)
from .model import Instance
from .query import (
    DEFAULT_MAX_PATHS,
    BooleanCQ,
    Query,
    _antichain,
    _witness_index,
    denial_constraint_of,
    enumerate_witnesses,
    evaluate,
)
from .repairs import _component_transversals, enumerate_s_repairs, minimal_hitting_sets

__all__ = [
    "enumerate_mss", "enumerate_mns", "degrees", "actual_causes",
    "check_duality", "cause_repair_correspondence",
    "DualityResult", "CorrespondenceResult",
]


# ---------------------------------------------------------------------------
# the witness antichain and its transversals

def _by_tids(s: frozenset[str]) -> tuple[str, ...]:
    return tuple(sorted(s))


def _mss(instance: Instance, query: Query, max_endo: int | None,
         max_paths: int) -> list[frozenset[str]]:
    """The witness antichain W, i.e. the MSS family, ordered by tids."""
    if not evaluate(query, instance):
        raise QueryNotSatisfied("the query is false in the instance")
    endo = instance.endogenous_part()
    bound = DEFAULT_MAX_ENDO if max_endo is None else max_endo
    if len(endo) > bound:
        raise OracleBoundExceeded(
            f"{len(endo)} endogenous tuples exceed the oracle bound {bound}")
    if isinstance(query, BooleanCQ):
        return sorted(_witness_index(query, instance).antichain, key=_by_tids)
    witnesses = enumerate_witnesses(query, instance, max_paths=max_paths)
    return sorted(_antichain(w.tuples & endo for w in witnesses), key=_by_tids)


def _mns(mss: list[frozenset[str]]) -> list[frozenset[str]]:
    """The minimal transversals of W, i.e. the MNS family, ordered by
    tids; none when W holds the empty set."""
    if frozenset() in mss:
        return []
    return sorted(minimal_hitting_sets(mss), key=_by_tids)


# ---------------------------------------------------------------------------
# families

def enumerate_mss(instance: Instance, query: Query, *,
                  max_endo: int | None = None,
                  max_paths: int = DEFAULT_MAX_PATHS) -> tuple[ExplanationSet, ...]:
    """All minimal sufficient sets (subsets of the endogenous part)."""
    return tuple(ExplanationSet.checked("MSS", s, instance, query)
                 for s in _mss(instance, query, max_endo, max_paths))


def enumerate_mns(instance: Instance, query: Query, *,
                  max_endo: int | None = None,
                  max_paths: int = DEFAULT_MAX_PATHS) -> tuple[ExplanationSet, ...]:
    """All minimal necessary sets; empty when no endogenous deletion can
    falsify the query (e.g. the exogenous part alone satisfies it)."""
    return tuple(ExplanationSet.checked("MNS", s, instance, query)
                 for s in _mns(_mss(instance, query, max_endo, max_paths)))


# ---------------------------------------------------------------------------
# degrees

def _inverse_min_size(family: list[frozenset[str]], tid: str) -> Fraction:
    sizes = [len(s) for s in family if tid in s]
    return Fraction(1, min(sizes)) if sizes else Fraction(0)


def degrees(instance: Instance, query: Query, *,
            max_endo: int | None = None,
            max_paths: int = DEFAULT_MAX_PATHS) -> DegreeReport:
    """Exact necessity/sufficiency/responsibility degrees per tuple.

    Exogenous tuples get zero degrees: they are members of no necessary or
    sufficient set by definition.  Strong flags mean membership in every
    MNS (resp. every MSS), with an empty family counting as not strong.
    eta and strong necessity come from the minimal transversals of each
    connected component of W, without listing the MNS: an MNS joins one
    per component, so the smallest through t takes the smallest through t
    in t's component and the other components' minima.
    """
    mss = _mss(instance, query, max_endo, max_paths)
    parts = [] if frozenset() in mss else _component_transversals(mss)
    least = sum(len(p[0]) for p in parts)
    eta_of: dict[str, Fraction] = {}
    for part in parts:
        for s in part:  # ascending size: the first set through t is smallest
            for tid in s:
                eta_of.setdefault(tid, Fraction(1, least - len(part[0]) + len(s)))
    strong = set().union(*(frozenset.intersection(*p) for p in parts))
    per: dict[str, TupleDegrees] = {}
    for tid in sorted(instance.endogenous_part()):
        eta = eta_of.get(tid, Fraction(0))
        per[tid] = TupleDegrees(
            eta=eta,
            sigma=_inverse_min_size(mss, tid),
            rho=eta,
            strong_necessary=tid in strong,
            strong_sufficient=bool(mss) and all(tid in s for s in mss),
        )
    zero = TupleDegrees(Fraction(0), Fraction(0), Fraction(0), False, False)
    for tid in instance.exogenous_part():
        per[tid] = zero
    return DegreeReport(per_tuple=per)


def _contingencies(mns: list[frozenset[str]]) -> dict[str, tuple[frozenset[str], ...]]:
    """Each actual cause t mapped to its minimal contingency sets N - {t},
    for the MNS N through t."""
    return {
        tid: tuple(sorted((s - {tid} for s in mns if tid in s), key=_by_tids))
        for tid in sorted(set().union(*mns))
    }


def actual_causes(instance: Instance, query: Query, *,
                  max_endo: int | None = None,
                  max_paths: int = DEFAULT_MAX_PATHS) -> ContingencyReport:
    """Actual causes with their subset-minimal contingency sets.

    t is an actual cause when some contingency set G (endogenous, t not in
    G) leaves the query true but removing t on top falsifies it.
    """
    mns = _mns(_mss(instance, query, max_endo, max_paths))
    return ContingencyReport(contingencies=_contingencies(mns))


# ---------------------------------------------------------------------------
# structural cross-checks

@dataclass(frozen=True)
class DualityResult:
    holds: bool
    violations: tuple[tuple[str, tuple[str, ...], str], ...]


def _is_minimal_hitting_set(s: frozenset[str], family: list[frozenset[str]]) -> str | None:
    for f in family:
        if not (f & s):
            return f"misses {sorted(f)}"
    for t in sorted(s):
        if all(f & (s - {t}) for f in family):
            return f"not minimal: {t} is redundant"
    if not family and s:
        return "not minimal: the empty set already hits an empty family"
    return None


def check_duality(instance: Instance, query: Query, *,
                  max_endo: int | None = None,
                  max_paths: int = DEFAULT_MAX_PATHS) -> DualityResult:
    """Each MSS must be a minimal hitting set of the MNS family and vice
    versa; on failure the certificate names the offending set."""
    mss = _mss(instance, query, max_endo, max_paths)
    mns = _mns(mss)
    violations: list[tuple[str, tuple[str, ...], str]] = []
    for s in mss:
        reason = _is_minimal_hitting_set(s, mns)
        if reason:
            violations.append(("MSS", tuple(sorted(s)), reason))
    for nset in mns:
        reason = _is_minimal_hitting_set(nset, mss)
        if reason:
            violations.append(("MNS", tuple(sorted(nset)), reason))
    return DualityResult(holds=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class CorrespondenceResult:
    holds: bool
    detail: dict


def cause_repair_correspondence(instance: Instance, query: Query, *,
                                max_endo: int | None = None,
                                max_paths: int = DEFAULT_MAX_PATHS) -> CorrespondenceResult:
    """Cross-check causes against endogenous-deletion repairs.

    (a) {G + {t} : t actual cause, G minimal contingency} must equal the
        family of repair removal sets, which equals the MNS family;
    (b) the minimum-cardinality members of that family must equal the
        cardinality-repair removal sets.

    When no repair exists within the endogenous part both sides are empty
    and the correspondence holds vacuously.
    """
    if not isinstance(query, BooleanCQ):
        raise UnsupportedQuery("repairs are defined via the denial constraint "
                               "of a Boolean conjunctive query")
    mns = _mns(_mss(instance, query, max_endo, max_paths))
    cause_sets = sorted(
        {frozenset(g | {t}) for t, gs in _contingencies(mns).items() for g in gs},
        key=_by_tids)
    try:
        reps = enumerate_s_repairs(instance, denial_constraint_of(query),
                                   endogenous_only=True, max_deletable=max_endo)
        removals = sorted((r.removed for r in reps), key=_by_tids)
        c_removals = sorted((r.removed for r in reps if r.cardinality_minimal),
                            key=_by_tids)
    except RepairNotFound:
        removals, c_removals = [], []
    least = min(map(len, mns), default=0)
    min_mns = [s for s in mns if len(s) == least]
    holds_a = mns == removals == cause_sets
    holds_b = min_mns == c_removals
    detail = {
        "mns": [sorted(s) for s in mns],
        "cause_sets": [sorted(s) for s in cause_sets],
        "s_repair_removals": [sorted(s) for s in removals],
        "minimum_mns": [sorted(s) for s in min_mns],
        "c_repair_removals": [sorted(s) for s in c_removals],
    }
    return CorrespondenceResult(holds=holds_a and holds_b, detail=detail)
