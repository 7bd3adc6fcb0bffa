"""Necessity and sufficiency families, derived from the witness antichain.

Every family here is a function of one object: the antichain W of the
endogenous projections of the minimal witnesses.  An instance keeps the
W of the latest conjunctive query asked of it for as long as it lives,
in tid order (by sorted tids), and its connected components once they
are first needed; a pickled instance leaves it out.  Every family read
off W comes in that order, and no reader sorts it again: deleting a
tuple two sets hold keeps what fixes their order, the least tuple of
their symmetric difference and whether one holds the other, so each
cause's contingency sets N - {t} come in order too.

* A set is sufficient (it satisfies the query together with all exogenous
  tuples) exactly when it contains a member of W, so the minimal
  sufficient sets (MSS) are the members of W.
* A set is necessary (its removal falsifies the query) exactly when it
  meets every member of W, so the minimal necessary sets (MNS) are the
  minimal transversals of W, which one depth-first search of
  :mod:`dbexplain.repairs` lists per connected component of W.  When W
  holds the empty set, the exogenous part alone satisfies the query: the
  MSS family is the empty set alone and there is no MNS.
* Degrees: eta(t) = 1/min{|N| : N an MNS, t in N} (0 when t is in no MNS)
  and sigma(t) likewise over the MSS.  An MNS is the union of one minimal
  transversal per connected component of W, so eta needs only the least
  size of each component's transversals and of those through t in t's
  component, which the same search, bounded by a size, finds without
  listing any transversal family.  The responsibility rho(t) =
  1/(1+|G|) for the smallest contingency set G equals eta(t).
  The subset-minimal contingency sets of t are the sets N - {t} for the
  MNS N through t (Bertossi & Salimi, "From causes for database queries
  to repairs and model-based diagnosis and back", 2017).  All values are
  exact rationals.

No family is bounded by the size of the instance.  The minimal
transversals, the search for eta and the duality check, which can take
time exponential in |W|, run under the caps of :mod:`dbexplain.repairs`;
the actual causes' contingency sets under a cap on the tuples they hold;
the join and the simple-path walk that build W under the caps of
:mod:`dbexplain.query`.

The families are right by construction, so they are returned as read
off W; the test suite compares every family with an exhaustive subset
scan and checks its sets with the definition-level checkers of
:mod:`dbexplain.explanations`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import OracleBoundExceeded, QueryNotSatisfied, RepairNotFound
from .explanations import (
    ContingencyReport,
    DegreeReport,
    ExplanationSet,
    TupleDegrees,
)
from .model import Instance
from .query import (
    MAX_HELD_TUPLES,
    BooleanCQ,
    Query,
    _check_schema,
    _minimal_members,
    _simple_paths,
    _witness_index,
    denial_constraint_of,
)
from .repairs import (MAX_TRANSVERSAL_TESTS, _bitmask_components, _component_transversals,
                      _Components, _conflicts, _kept_components, _least_transversals_through,
                      _unions)

__all__ = [
    "enumerate_mss", "enumerate_mns", "degrees", "actual_causes",
    "check_duality", "cause_repair_correspondence",
    "DualityResult", "CorrespondenceResult",
]


# ---------------------------------------------------------------------------
# the witness antichain and its transversals

def _mss(instance: Instance,
         query: Query) -> tuple[Sequence[frozenset[str]], Callable[[], _Components]]:
    """The witness antichain W, i.e. the MSS family, ordered by tids, and a
    function that gives its connected components; W is empty iff the query
    is false.  The witness index of a conjunctive query keeps both.  A
    reachability query has no index: W is read off the paths' endogenous
    parts at each call, and so are its components; the simple-path walk
    enters no node when the target is unreachable, so no reachability
    test comes first."""
    if isinstance(query, BooleanCQ):
        index = _witness_index(query, instance)
        mss, components = index.antichain, partial(_kept_components, index, index.antichain)
    else:
        _check_schema(query, instance._arities)
        endo = instance.endogenous_part()
        paths = _simple_paths(instance, query)
        mss = sorted(_minimal_members({endo.intersection(p) for p in paths}), key=sorted)
        components = partial(_bitmask_components, mss)
    if not mss:
        raise QueryNotSatisfied("the query is false in the instance")
    return mss, components


def _mns(mss: Sequence[frozenset[str]],
         components: Callable[[], _Components]) -> list[frozenset[str]]:
    """The minimal transversals of W, i.e. the MNS family, ordered by
    tids, joined from those of its components; none when W holds the
    empty set, which is then its only member."""
    if not mss[0]:
        return []
    return _unions(_component_transversals(components()), by_size=False)


# ---------------------------------------------------------------------------
# families

def enumerate_mss(instance: Instance, query: Query) -> tuple[ExplanationSet, ...]:
    """All minimal sufficient sets (subsets of the endogenous part)."""
    return tuple(ExplanationSet("MSS", s) for s in _mss(instance, query)[0])


def enumerate_mns(instance: Instance, query: Query) -> tuple[ExplanationSet, ...]:
    """All minimal necessary sets; empty when no endogenous deletion can
    falsify the query (e.g. the exogenous part alone satisfies it)."""
    return tuple(ExplanationSet("MNS", s) for s in _mns(*_mss(instance, query)))


# ---------------------------------------------------------------------------
# degrees

def degrees(instance: Instance, query: Query) -> DegreeReport:
    """Exact necessity/sufficiency/responsibility degrees per tuple.

    Exogenous tuples get zero degrees: they are members of no necessary or
    sufficient set by definition.  Strong flags mean membership in every
    MNS (resp. every MSS), with an empty family counting as not strong.
    eta comes from least transversal sizes per connected component of W,
    without listing the MNS: an MNS joins one per component, so the
    smallest through t takes the smallest through t in t's component and
    the other components' minima.  Both strong flags are read off W: t is
    in every MNS exactly when {t} is a member (see :mod:`dbexplain.repairs`),
    that is, when sigma(t) = 1.
    """
    mss, components = _mss(instance, query)
    parts = _least_transversals_through(components()) if mss[0] else []
    least = sum(size for size, _ in parts)
    eta_of = {tid: Fraction(1, least - size + through)
              for size, part in parts for tid, through in part.items()}
    # each tuple's least member size: the smallest member through it is written last
    size_of = {tid: len(s) for s in sorted(mss, key=len, reverse=True) for tid in s}
    in_every_mss = frozenset.intersection(*mss) if mss else frozenset()
    per: dict[str, TupleDegrees] = {}
    for tid in sorted(instance.endogenous_part()):
        eta = eta_of.get(tid, Fraction(0))
        sigma = Fraction(1, size_of[tid]) if tid in size_of else Fraction(0)
        per[tid] = TupleDegrees(eta=eta, sigma=sigma, rho=eta, strong_necessary=sigma == 1,
                                strong_sufficient=tid in in_every_mss)
    zero = TupleDegrees(Fraction(0), Fraction(0), Fraction(0), False, False)
    for tid in instance.exogenous_part():
        per[tid] = zero
    return DegreeReport(per_tuple=per)


def _contingencies(mns: list[frozenset[str]]) -> dict[str, tuple[frozenset[str], ...]]:
    """Each actual cause t mapped to its minimal contingency sets N - {t},
    for the MNS N through t in order; none is built past MAX_HELD_TUPLES."""
    held = sum(len(s) * (len(s) - 1) for s in mns)
    if held > MAX_HELD_TUPLES:
        raise OracleBoundExceeded(f"the contingency sets of {len(mns):,} MNS would hold "
                                  f"{held:,} tuples, past {MAX_HELD_TUPLES:,}")
    through: dict[str, list[frozenset[str]]] = {}
    for s in mns:
        for tid in s:
            through.setdefault(tid, []).append(s - {tid})
    return {tid: tuple(through[tid]) for tid in sorted(through)}


def actual_causes(instance: Instance, query: Query) -> ContingencyReport:
    """Actual causes with their subset-minimal contingency sets.

    t is an actual cause when some contingency set G (endogenous, t not in
    G) leaves the query true but removing t on top falsifies it.
    """
    mns = _mns(*_mss(instance, query))
    return ContingencyReport(contingencies=_contingencies(mns))


# ---------------------------------------------------------------------------
# structural cross-checks

@dataclass(frozen=True)
class DualityResult:
    holds: bool
    violations: tuple[tuple[str, tuple[str, ...], str], ...]


def _is_minimal_hitting_set(s: frozenset[str], family: list[frozenset[str]]) -> str | None:
    """One pass: s meets every member, each tuple of s alone in some member."""
    private: set[str] = set()
    for f in family:
        met = f & s
        if not met:
            return f"misses {sorted(f)}"
        if len(met) == 1:
            private |= met
    redundant = sorted(s - private)
    return f"not minimal: {redundant[0]} is redundant" if redundant else None


def check_duality(instance: Instance, query: Query) -> DualityResult:
    """Each MSS must be a minimal hitting set of the MNS family and vice versa;
    the certificate names each offending set.  Past MAX_TRANSVERSAL_TESTS
    intersections of a set with a member of the other family, none is made."""
    mss, components = _mss(instance, query)
    mns = _mns(mss, components)
    if (tests := 2 * len(mss) * len(mns)) > MAX_TRANSVERSAL_TESTS:
        raise OracleBoundExceeded(f"{tests:,} intersection tests of the duality check "
                                  f"exceed the cap {MAX_TRANSVERSAL_TESTS:,}")
    violations = [(kind, tuple(sorted(s)), why)
                  for kind, family, other in (("MSS", mss, mns), ("MNS", mns, mss))
                  for s in family if (why := _is_minimal_hitting_set(s, other))]
    return DualityResult(holds=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class CorrespondenceResult:
    holds: bool
    detail: dict


def cause_repair_correspondence(instance: Instance,
                                query: Query) -> CorrespondenceResult:
    """Cross-check causes against endogenous-deletion repairs.

    (a) {G + {t} : t actual cause, G minimal contingency} must equal the
        family of repair removal sets, which equals the MNS family;
    (b) the minimum-cardinality members of that family must equal the
        cardinality-repair removal sets.

    The minimal contingency sets of t are N - {t} for the MNS N through t,
    so every nonempty MNS is G + {t} for each t in it, and the cause side
    of (a) is the MNS family itself: no contingency set is built.  When
    no repair exists within the endogenous part both sides are empty
    and the correspondence holds vacuously.  A path query has no denial
    constraint, so it is refused.
    """
    dc = denial_constraint_of(query)
    mns = _mns(*_mss(instance, query))
    try:  # the s-repair removals, with no Repair (and no kept set) built
        removals = _unions(_component_transversals(_kept_components(
            *_conflicts(instance, dc, True, len(instance.endogenous_part())))), by_size=False)
    except RepairNotFound:
        removals = []
    least = min(map(len, removals), default=0)
    c_removals = [r for r in removals if len(r) == least]
    least = min(map(len, mns), default=0)
    min_mns = [s for s in mns if len(s) == least]
    listed = [sorted(s) for s in mns]
    detail = {
        "mns": listed,
        "cause_sets": listed,
        "s_repair_removals": [sorted(s) for s in removals],
        "minimum_mns": [sorted(s) for s in min_mns],
        "c_repair_removals": [sorted(s) for s in c_removals],
    }
    return CorrespondenceResult(holds=mns == removals and min_mns == c_removals, detail=detail)
