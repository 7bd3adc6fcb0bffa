"""Subset- and cardinality-repairs for the denial constraint of a BCQ.

A repair is a subset-maximal consistent subinstance.  Rather than
searching all 2^|D| subinstances for maximality, repairs are computed as
complements of the minimal hitting sets of the minimal-witness family (the
conflict hypergraph of the constraint); the two views coincide for denial
constraints and the equivalence is exercised against a direct maximality
check in the test suite.

Every minimal hitting set is the union of one minimal hitting set per
connected component of the family (members sharing a tuple are
connected), so the search runs on each component alone, and the
cardinality repairs join the components' minimum-size ones.  Within a
component Berge's dualization (C. Berge, *Hypergraphs*, 1989; Eiter &
Gottlob, SIAM J. Comput. 1995) extends the minimal hitting sets of the
members seen so far by one member at a time.

Dualization can list exponentially many sets, so a listing raises
OracleBoundExceeded past MAX_TRANSVERSAL_TESTS tests or MAX_HELD_TUPLES
tuples held; every function here also refuses more than ``max_deletable``
deletable tuples (20 by default).

The core needs no search.  In an antichain of nonempty sets, a tuple t
of a member S lies in some minimal hitting set: the tuples outside S,
plus t, hit every member (no other member lies inside S) and meet S in t
alone, so every minimal hitting set among them holds t and no other
tuple of S.  So the minimal hitting sets cover exactly the union of the
members, and the core is D less that union.  And t lies in all of them
exactly when {t} is a member: else the one so built through another
tuple of a member through t misses t.

By default any tuple may be deleted.  The optional endogenous-only mode
restricts deletions to the endogenous part and raises RepairNotFound when
some violation is witnessed by exogenous tuples alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import OracleBoundExceeded, RepairNotFound
from .model import Instance
from .query import DenialConstraint, _antichain, _witness_index

__all__ = [
    "Repair", "CoreResult", "minimal_hitting_sets",
    "enumerate_s_repairs", "enumerate_c_repairs", "core_naive",
]

# Caps of one listing (with CPython 3.11 on x86-64, 10M tests take 0.3-3.5 s
# and 2M tuples in frozensets 50-200 MB), and the default deletable bound.
MAX_TRANSVERSAL_TESTS = 10_000_000
MAX_HELD_TUPLES = 2_000_000
DEFAULT_MAX_DELETABLE = 20


@dataclass(frozen=True)
class Repair:
    kept: frozenset[str]
    removed: frozenset[str]
    cardinality_minimal: bool


@dataclass(frozen=True)
class CoreResult:
    """Intersection of all subset-repairs (tuples kept by every repair)."""

    tuples: frozenset[str]
    method: str


def _components(family: list[frozenset[str]]) -> list[list[frozenset[str]]]:
    """The connected components of a family of nonempty sets, by a
    union-find over their elements, in order of first member."""
    parent: dict[str, str] = {}

    def find(t: str) -> str:
        while parent.setdefault(t, t) != t:
            parent[t] = t = parent[parent[t]]
        return t

    for s in family:
        for t in s:
            parent[find(t)] = find(min(s))
    groups: dict[str, list[frozenset[str]]] = {}
    for s in family:
        groups.setdefault(find(min(s)), []).append(s)
    return list(groups.values())


def _component_transversals(family: list[frozenset[str]]) -> list[list[frozenset[str]]]:
    """The minimal hitting sets of each connected component of the family,
    each list ordered by (size, tids).  Per component, Berge's dualization:
    starting from the empty set, take the members in turn, keep each
    hitting set that hits the member and grow each one that misses it by
    each of its tuples; a loop, so no recursion.  A kept set is never
    dominated, and grown sets are distinct and incomparable, so a grown
    h | {t} is dropped only when it contains a kept set through t.

    Before the sets that miss a member grow, the step is counted: a test
    per hitting set, per kept set and tuple of the member, and, per missed
    h, per set grown and per kept set through each tuple; and the tuples
    the kept and grown sets hold.  Past either cap the call raises, so no
    set is grown past a cap."""
    family = _antichain(family)
    if any(not s for s in family):
        raise ValueError("family contains the empty set; it cannot be hit")
    parts, tests = [], 0
    for component in _components(family):
        hitting = [frozenset()]
        for s in component:
            step = [h for h in hitting if h & s]
            through = {t: [k for k in step if t in k] for t in s}
            missed, kept = len(hitting) - len(step), sum(map(len, step))
            tests += (len(hitting) + len(s) * len(step)
                      + missed * (len(s) + sum(map(len, through.values()))))
            held = kept + len(s) * (sum(map(len, hitting)) - kept + missed)
            if tests > MAX_TRANSVERSAL_TESTS or held > MAX_HELD_TUPLES:
                raise OracleBoundExceeded(
                    f"{tests:,} intersection and subset tests and {held:,} tuples held, "
                    f"at a member of {len(s)} tuples and {len(hitting):,} hitting sets, "
                    f"pass the caps {MAX_TRANSVERSAL_TESTS:,} and {MAX_HELD_TUPLES:,}")
            for h in hitting:
                if not h & s:
                    for t in s:
                        grown = h | {t}
                        if not any(k <= grown for k in through[t]):
                            step.append(grown)
            hitting = step
        parts.append(sorted(hitting, key=lambda h: (len(h), sorted(h))))
    return parts


def _unions(parts: list[list[frozenset[str]]]) -> list[frozenset[str]]:
    """One member per part, joined; ordered by (size, tids).  A member of a
    part is in count / len(part) unions; none is built past MAX_HELD_TUPLES."""
    count = math.prod(map(len, parts))
    held = sum(count // len(p) * sum(map(len, p)) for p in parts)
    if held > MAX_HELD_TUPLES:
        raise OracleBoundExceeded(f"{count:,} unions of per-component minimal hitting sets "
                                  f"would hold {held:,} tuples, past {MAX_HELD_TUPLES:,}")
    return sorted((frozenset().union(*pick) for pick in itertools.product(*parts)),
                  key=lambda s: (len(s), sorted(s)))


def minimal_hitting_sets(family: list[frozenset[str]]) -> list[frozenset[str]]:
    """All subset-minimal hitting sets of a family of nonempty sets,
    ordered by (size, tids): the unions of one minimal hitting set per
    connected component.  The empty family has the empty set as its sole
    hitting set."""
    return _unions(_component_transversals(family))


def _conflicts(instance: Instance, dc: DenialConstraint, endogenous_only: bool,
               max_deletable: int) -> list[frozenset[str]]:
    """The minimal deletable parts of the violations, read off the witness
    index: W when only endogenous tuples may go, else the minimal
    witnesses; none for a consistent instance."""
    deletable = instance.endogenous_part() if endogenous_only else instance.tids()
    if len(deletable) > max_deletable:
        raise OracleBoundExceeded(
            f"{len(deletable)} deletable tuples exceed the bound {max_deletable}; "
            "raise max_deletable explicitly for larger inputs")
    index = _witness_index(dc.body, instance)
    conflicts = index.antichain if endogenous_only else index.minimal
    if frozenset() in conflicts:
        w = next(w for w in index.minimal if not w & deletable)
        raise RepairNotFound(f"violation {sorted(w)} cannot be resolved by deleting "
                             "endogenous tuples only")
    return list(conflicts)


def enumerate_s_repairs(instance: Instance, dc: DenialConstraint, *,
                        endogenous_only: bool = False,
                        max_deletable: int = DEFAULT_MAX_DELETABLE) -> tuple[Repair, ...]:
    """All subset-repairs, ordered by (removal size, removal tids).

    A consistent instance has itself as its sole repair.
    """
    removals = minimal_hitting_sets(
        _conflicts(instance, dc, endogenous_only, max_deletable))
    least = len(removals[0])  # the component minima, joined
    all_tids = instance.tids()
    return tuple(
        Repair(kept=all_tids - r, removed=r, cardinality_minimal=len(r) == least)
        for r in removals
    )


def enumerate_c_repairs(instance: Instance, dc: DenialConstraint, *,
                        endogenous_only: bool = False,
                        max_deletable: int = DEFAULT_MAX_DELETABLE) -> tuple[Repair, ...]:
    """The subset-repairs of minimum removal cardinality: one minimum-size
    removal per component, joined."""
    parts = _component_transversals(
        _conflicts(instance, dc, endogenous_only, max_deletable))
    all_tids = instance.tids()
    return tuple(Repair(kept=all_tids - r, removed=r, cardinality_minimal=True)
                 for r in _unions([[s for s in p if len(s) == len(p[0])]
                                   for p in parts]))


def core_naive(instance: Instance, dc: DenialConstraint, *,
               endogenous_only: bool = False,
               max_deletable: int = DEFAULT_MAX_DELETABLE) -> CoreResult:
    """Repair core, the intersection over all subset-repairs: D less the
    union of the minimal conflicts, which is the union of their minimal
    hitting sets, the repairs' removals."""
    conflicts = _conflicts(instance, dc, endogenous_only, max_deletable)
    return CoreResult(tuples=instance.tids() - frozenset().union(*conflicts),
                      method="naive-intersection")
