"""Polynomial-time repair core and chase-style minimal sufficient sets.

Both read the witness index of :mod:`dbexplain.query`: one enumeration of
the satisfying combinations per call, by a join in which each atom probes
a hash index of its extension on the positions that earlier atoms bind.  It
builds the indexes in time linear in the atoms' extensions and then tries
only the partial combinations that agree on those positions, so it reaches
|D|^k steps only when that many partial combinations join.  Its antichain W
holds the minimal endogenous projections of the images.  These are the
minimal sufficient sets, and the removal sets of the repairs that delete
endogenous tuples only are their minimal transversals (Bertossi & Salimi,
"From causes for database queries to repairs and model-based diagnosis and
back", 2017).  Every tuple of a member of W lies in some minimal
transversal, so the repair core, the tuples every such repair keeps, is
the instance minus the union of W.  This holds under self-joins and over
predicate-exogenous inputs alike; when every tuple is endogenous it is the
core of all repairs.  Finding W costs at most 2^k subset lookups per set, a
constant in data complexity.

From the core, a chase-style construction extends a seed tuple with
join-compatible companions drawn outside the core, one atom position at a
time through the same join, and minimizes the result.  For self-join-free
queries every minimal sufficient set carries exactly one tuple per
endogenous atom position, so the chase result is also minimum and yields
the sufficiency degree directly.  Predicates whose whole extension is
exogenous are skipped when minimizing: their tuples sit in every repair,
never appear in sufficient sets, and only serve as join partners.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    CallerMustUseOracle,
    ChaseDefect,
    ChaseSeedError,
    ExplanationInvalid,
    QueryNotSatisfied,
    UnknownTupleId,
    UnsupportedPartition,
    UnsupportedQuery,
)
from .explanations import ExplanationSet, is_sufficient
from .model import Fact, Instance
from .query import (
    BooleanCQ,
    Query,
    _join,
    _witness_index,
    _WitnessIndex,
    fact_matches_atom,
)
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

    ``mss`` is None when the requested tuple participates in no satisfying
    combination (then sigma is 0).  ``sigma`` is None when the minimum
    sufficient set is empty (the exogenous part alone satisfies the query).
    """

    mss: Optional[ExplanationSet]
    sigma: Optional[Fraction]


def _require_cq(query: Query) -> BooleanCQ:
    if not isinstance(query, BooleanCQ):
        raise UnsupportedQuery(
            "the fast path handles Boolean conjunctive queries only")
    return query


def _check_partition(instance: Instance, query: BooleanCQ) -> dict[str, bool]:
    """Map each query predicate to 'is endogenous'; reject mixed extensions."""
    out: dict[str, bool] = {}
    for atom in query.atoms:
        if atom.pred in out:
            continue
        flags = {f.endo for f in instance.relation(atom.pred)}
        if len(flags) > 1:
            raise UnsupportedPartition(
                f"predicate {atom.pred!r} mixes endogenous and exogenous tuples; "
                "use the exhaustive enumerators instead")
        out[atom.pred] = flags.pop() if flags else True
    return out


def participating_sets(instance: Instance, query: Query) -> ParticipatingSets:
    """The R_i sets: the per-atom projection of the satisfying
    combinations, enumerated once by the indexed join."""
    cq = _require_cq(query)
    return ParticipatingSets(per_atom=_witness_index(cq, instance).per_atom)


def core_fast(instance: Instance, query: Query) -> CoreResult:
    """Repair core as D minus the union of W, read off one enumeration of
    the indexed join.

    Exact for the repairs that delete endogenous tuples only, and so for
    all repairs when every tuple is endogenous; all of D when the
    exogenous part alone satisfies the query.
    """
    cq = _require_cq(query)
    _check_partition(instance, cq)
    core = instance.tids() - _witness_index(cq, instance).union()
    return CoreResult(tuples=core, method="lemma1")


def sufficient_set_from(instance: Instance, query: Query, repair: Repair,
                        tid: str) -> ExplanationSet:
    """(kept(repair) minus core) plus the removed tuple t is a sufficient
    set; for t in the kept part it provably is not, so that is an error."""
    cq = _require_cq(query)
    if tid not in instance:
        raise UnknownTupleId(f"unknown tid {tid!r}")
    if tid not in repair.removed:
        raise ExplanationInvalid(
            f"{tid!r} is kept by the repair; the construction yields a "
            "sufficient set exactly for removed tuples")
    core = core_fast(instance, cq).tuples
    return ExplanationSet.checked(
        "SS", (repair.kept - core) | {tid}, instance, query)


def _chase_candidates(instance: Instance, cq: BooleanCQ, seed: Fact,
                      base: frozenset[str],
                      endo_pred: dict[str, bool],
                      kept: frozenset[str] | None) -> list[list[Fact]]:
    """Per atom position, the tuples it may bind, in tid order.  Facts
    that miss the atom's constants or repeated variables stay in: the
    join rejects them."""
    pools: list[list[Fact]] = []
    for atom in cq.atoms:
        extension = instance.relation(atom.pred)
        if endo_pred[atom.pred]:
            pools.append([f for f in extension if f.tid in base or f.tid == seed.tid])
        else:
            # exogenous predicate: join partners only, drawn from the
            # whole extension (restricted to the repair when given)
            pools.append([f for f in extension if kept is None or f.tid in kept])
    return pools


def chase_mss(instance: Instance, query: Query, tid: str,
              repair: Repair | None = None) -> ExplanationSet:
    """A minimal sufficient set containing the seed, of size <= k, built by
    binding one atom position at a time to a join-compatible tuple outside
    the core (inside the repair's kept part when one is given).

    Seed atom positions are tried lowest-index first; within a position,
    candidates in tid order; dead ends backtrack.  The raw result is
    minimized (it can be non-minimal under self-joins) and re-verified.

    Without a repair, a seed inside the core lies in no minimal sufficient
    set and is refused up front: with ``ChaseDefect`` when it occurs in
    satisfying combinations, with ``ChaseSeedError`` when it occurs in
    none.  Every seed outside the core lies in a member of W, and the
    search reaches that member.
    """
    cq = _require_cq(query)
    endo_pred = _check_partition(instance, cq)
    return _chase(instance, cq, tid, repair, endo_pred, _witness_index(cq, instance))


def _chase(instance: Instance, cq: BooleanCQ, tid: str, repair: Repair | None,
           endo_pred: dict[str, bool], index: _WitnessIndex) -> ExplanationSet:
    seed = instance.fact(tid)
    if not seed.endo:
        raise ChaseSeedError(f"seed {tid!r} is exogenous")
    base, kept = index.union(), None
    if repair is not None:
        if tid not in repair.removed:
            raise ChaseSeedError(f"seed {tid!r} is not removed by the repair")
        base, kept = base & repair.kept, repair.kept
    elif tid not in base:
        if any(tid in r_i for r_i in index.per_atom):
            raise ChaseDefect(
                f"seed {tid!r} lies in no minimal sufficient set, although "
                "it occurs in satisfying combinations")
        raise ChaseSeedError(
            f"seed {tid!r} lies in the repair core: it participates in no "
            "satisfying combination")
    pools = _chase_candidates(instance, cq, seed, base, endo_pred, kept)
    seed_positions = [i for i, atom in enumerate(cq.atoms)
                      if atom.pred == seed.pred and fact_matches_atom(atom, seed)]
    if not seed_positions:
        raise ChaseSeedError(f"seed {tid!r} matches no atom of the query")

    # Under self-joins a completion can minimize to a set that drops the
    # seed (the seed then supports only a non-minimal combination on this
    # branch), so such completions are dead ends too: keep searching the
    # current and the remaining seed positions.
    for p in seed_positions:
        order = [j for j in range(cq.k) if j != p]
        atoms = [cq.atoms[p]] + [cq.atoms[j] for j in order]
        for _, complete in _join(atoms, [[seed]] + [pools[j] for j in order]):
            result = {f.tid for f in complete if f.endo}
            for u in sorted(result - {tid}):
                if is_sufficient(instance, cq, result - {u}):
                    result.discard(u)
            try:
                return ExplanationSet.checked("MSS", result, instance, cq)
            except ExplanationInvalid:
                continue
    # Without a repair this is unreachable: a member of W contains the
    # seed, and some completion binds a minimal image projecting onto it.
    raise ChaseDefect(
        f"no minimal sufficient set through seed {tid!r} is reachable")


def min_mss_sjf(instance: Instance, query: Query,
                tid: str | None = None) -> MinMssResult:
    """Minimum-size minimal sufficient set (optionally through a given
    tuple) for a self-join-free query, plus the sufficiency degree.

    Self-join freedom makes every chase result carry one tuple per
    endogenous atom position, so all minimal sufficient sets share one
    cardinality and any chase result is minimum.
    """
    cq = _require_cq(query)
    if not cq.self_join_free:
        raise CallerMustUseOracle(
            "minimum-size shortcut requires a self-join-free query")
    endo_pred = _check_partition(instance, cq)
    index = _witness_index(cq, instance)
    if not index.images:
        raise QueryNotSatisfied("the query is false in the instance")
    participating = index.union()
    if tid is None:
        if not participating:
            empty = ExplanationSet.checked("MSS", frozenset(), instance, query)
            return MinMssResult(mss=empty, sigma=None)
        tid = min(participating)
    elif tid not in instance:
        raise UnknownTupleId(f"unknown tid {tid!r}")
    elif tid not in participating:
        return MinMssResult(mss=None, sigma=Fraction(0))
    mss = _chase(instance, cq, tid, None, endo_pred, index)
    return MinMssResult(mss=mss, sigma=Fraction(1, len(mss)))
