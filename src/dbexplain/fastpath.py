"""Polynomial-time repair core and chase-style minimal sufficient sets.

Both read the witness index of :mod:`dbexplain.query`, which an instance
keeps for the latest conjunctive query asked of it: one enumeration of
the satisfying combinations, by a join in which
each atom probes a hash index of its extension on the positions that
earlier atoms bind.  It builds the indexes in time linear in the atoms'
extensions and then tries only the partial combinations that agree on
those positions, so it reaches |D|^k steps only when that many partial
combinations join.  Its antichain W holds the minimal endogenous
projections of the images, and the index keeps the union of W once it
is first read, so ``core_fast``, ``sufficient_set_from`` and
``min_mss_sjf`` build it once per index.  The members of W are the
minimal sufficient sets, and the removal sets of the repairs that delete
endogenous tuples only are their minimal transversals (Bertossi & Salimi,
"From causes for database queries to repairs and model-based diagnosis and
back", 2017).  Every tuple of a member of W lies in some minimal
transversal, so the repair core, the tuples every such repair keeps, is
the instance minus the union of W.  This holds under self-joins and for
any split of the tuples into endogenous and exogenous ones, a predicate's
extension mixing both included; when every tuple is endogenous it is the
core of all repairs.  Finding W compares each image only with the smaller
images filed under one of its own tuples, polynomial in data complexity.

The chase reads the same index.  The minimal sufficient sets through a
seed are the members of W that contain it, so ``chase_mss`` returns the
least of them by (size, sorted tids), among those whose other tuples a
given repair keeps, and ``min_mss_sjf`` the least member through its tuple
or, without one, the least member of W.  Neither needs the predicates'
extensions to be wholly endogenous or wholly exogenous.  Only a
conjunctive query has a witness index, so every function here refuses
any other query with ``UnsupportedQuery``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    ChaseDefect,
    ChaseSeedError,
    ExplanationInvalid,
    QueryNotSatisfied,
    UnknownTupleId,
)
from .explanations import ExplanationSet, verify_explanation
from .model import Instance
from .query import Query, _witness_index
from .repairs import CoreResult, Repair

__all__ = [
    "ParticipatingSets", "MinMssResult", "participating_sets", "core_fast",
    "sufficient_set_from", "chase_mss", "min_mss_sjf",
]


@dataclass(frozen=True)
class ParticipatingSets:
    """Per atom position, the tuples occurring in some full satisfying
    combination pinned at that position."""

    per_atom: tuple[frozenset[str], ...]

    def union(self) -> frozenset[str]:
        return frozenset().union(*self.per_atom)


@dataclass(frozen=True)
class MinMssResult:
    """A minimum-size minimal sufficient set plus the sufficiency degree.

    ``mss`` is None when the requested tuple lies in no minimal sufficient
    set (then sigma is 0).  ``sigma`` is None when the minimum
    sufficient set is empty (the exogenous part alone satisfies the query).
    """

    mss: Optional[ExplanationSet]
    sigma: Optional[Fraction]


def participating_sets(instance: Instance, query: Query) -> ParticipatingSets:
    """The R_i sets: the per-atom projection of the satisfying
    combinations, enumerated once by the indexed join."""
    return ParticipatingSets(per_atom=_witness_index(query, instance).per_atom)


def core_fast(instance: Instance, query: Query) -> CoreResult:
    """Repair core as D minus the union of W, read off one enumeration of
    the indexed join.

    Exact for the repairs that delete endogenous tuples only, and so for
    all repairs when every tuple is endogenous; all of D when the
    exogenous part alone satisfies the query.
    """
    core = instance.tids() - _witness_index(query, instance).union()
    return CoreResult(tuples=core, method="lemma1")


def sufficient_set_from(instance: Instance, query: Query, repair: Repair,
                        tid: str) -> ExplanationSet:
    """The tuples the repair keeps in the union of W, plus the removed
    tuple t, is a sufficient set; for t in the kept part it provably is
    not, so that is an error.  The set rests on the caller's repair, not
    on W alone, so it is checked."""
    union = _witness_index(query, instance).union()
    if tid not in instance:
        raise UnknownTupleId(f"unknown tid {tid!r}")
    if tid not in repair.removed:
        raise ExplanationInvalid(
            f"{tid!r} is kept by the repair; the construction yields a "
            "sufficient set exactly for removed tuples")
    tids = (repair.kept & union) | {tid}
    verify_explanation(instance, query, "SS", tids)
    return ExplanationSet("SS", tids)


def _least(family) -> frozenset[str]:
    """The least set by (size, sorted tids)."""
    return min(family, key=lambda s: (len(s), sorted(s)))


def chase_mss(instance: Instance, query: Query, tid: str,
              repair: Repair | None = None) -> ExplanationSet:
    """The least minimal sufficient set by (size, sorted tids) that
    contains the seed and whose other tuples the repair keeps (any
    tuples, without a repair), read off the witness antichain W.

    ``ChaseSeedError`` refuses an exogenous seed, a seed the repair does
    not remove, and a seed in no satisfying combination.  ``ChaseDefect``
    refuses a seed that occurs in satisfying combinations but lies in no
    member of W (it lies in the repair core), and a repair that keeps no
    member of W through the seed.
    """
    index = _witness_index(query, instance)
    if not instance.fact(tid).endo:
        raise ChaseSeedError(f"seed {tid!r} is exogenous")
    if repair is not None and tid not in repair.removed:
        raise ChaseSeedError(f"seed {tid!r} is not removed by the repair")
    if not any(tid in r_i for r_i in index.per_atom):
        raise ChaseSeedError(
            f"seed {tid!r} lies in the repair core: it participates in no "
            "satisfying combination")
    through = [s for s in index.antichain if tid in s]
    if not through:
        raise ChaseDefect(
            f"seed {tid!r} lies in no minimal sufficient set, although "
            "it occurs in satisfying combinations")
    if repair is not None:
        through = [s for s in through if s - {tid} <= repair.kept]
        if not through:
            raise ChaseDefect(
                f"the repair keeps no minimal sufficient set through seed {tid!r}")
    return ExplanationSet("MSS", _least(through))


def min_mss_sjf(instance: Instance, query: Query,
                tid: str | None = None) -> MinMssResult:
    """Minimum-size minimal sufficient set (optionally through a given
    tuple), plus the sufficiency degree.

    The answer is the least member of W by (size, sorted tids), through
    the tuple when one is given.  Every member of W is a minimal
    sufficient set, so this is a minimum one for any conjunctive query,
    self-joins included; the name keeps the self-join-free case that
    first had a polynomial shortcut.
    """
    index = _witness_index(query, instance)
    if not index.images:
        raise QueryNotSatisfied("the query is false in the instance")
    if tid is None:
        mss = ExplanationSet("MSS", _least(index.antichain))
    elif tid not in instance:
        raise UnknownTupleId(f"unknown tid {tid!r}")
    elif tid not in index.union():
        return MinMssResult(mss=None, sigma=Fraction(0))
    else:
        mss = ExplanationSet("MSS", _least(s for s in index.antichain if tid in s))
    return MinMssResult(mss=mss, sigma=Fraction(1, len(mss)) if len(mss) else None)
