"""Subset- and cardinality-repairs for the denial constraint of a BCQ.

A repair is a subset-maximal consistent subinstance.  Rather than
searching all 2^|D| subinstances for maximality, repairs are computed as
complements of the minimal hitting sets of the minimal-witness family (the
conflict hypergraph of the constraint); the two views coincide for denial
constraints and the equivalence is exercised against a direct maximality
check in the test suite.

By default any tuple may be deleted.  The optional endogenous-only mode
restricts deletions to the endogenous part and raises RepairNotFound when
some violation is witnessed by exogenous tuples alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OracleBoundExceeded, RepairNotFound
from .explanations import DEFAULT_MAX_ENDO
from .model import Instance
from .query import DenialConstraint, _antichain, enumerate_witnesses

__all__ = [
    "Repair", "CoreResult", "minimal_hitting_sets",
    "enumerate_s_repairs", "enumerate_c_repairs", "core_naive",
]


@dataclass(frozen=True)
class Repair:
    kept: frozenset[str]
    removed: frozenset[str]
    cardinality_minimal: bool

    def sort_key(self) -> tuple[int, tuple[str, ...]]:
        return (len(self.removed), tuple(sorted(self.removed)))


@dataclass(frozen=True)
class CoreResult:
    """Intersection of all subset-repairs (tuples kept by every repair)."""

    tuples: frozenset[str]
    method: str


def minimal_hitting_sets(family: list[frozenset[str]]) -> list[frozenset[str]]:
    """All subset-minimal hitting sets of a family of nonempty sets.

    Branch on the elements of the first unhit set; prune branches already
    dominated by a recorded hitting set; keep the final antichain.  The
    search runs on an explicit stack, so a transversal's size is not
    bounded by the recursion limit.
    """
    family = _antichain(family)
    if any(not s for s in family):
        raise ValueError("family contains the empty set; it cannot be hit")
    found: list[frozenset[str]] = []
    stack = [frozenset()]
    while stack:
        current = stack.pop()
        if any(f <= current for f in found):
            continue
        unhit = next((s for s in family if not (s & current)), None)
        if unhit is None:
            found.append(current)
        else:
            # reversed, so that the smallest element is expanded first
            stack.extend(current | {t} for t in sorted(unhit, reverse=True))
    return _antichain(found)


def enumerate_s_repairs(instance: Instance, dc: DenialConstraint, *,
                        endogenous_only: bool = False,
                        max_deletable: int | None = None) -> tuple[Repair, ...]:
    """All subset-repairs, ordered by (removal size, removal tids).

    A consistent instance has itself as its sole repair.
    """
    bound = DEFAULT_MAX_ENDO if max_deletable is None else max_deletable
    deletable = instance.endogenous_part() if endogenous_only else instance.tids()
    if len(deletable) > bound:
        raise OracleBoundExceeded(
            f"{len(deletable)} deletable tuples exceed the bound {bound}; "
            "raise max_deletable explicitly for larger inputs")
    witnesses = enumerate_witnesses(dc.body, instance)
    all_tids = instance.tids()
    if not witnesses:
        return (Repair(kept=all_tids, removed=frozenset(), cardinality_minimal=True),)
    family = []
    for w in witnesses:
        hit = w.tuples & deletable
        if not hit:
            raise RepairNotFound(
                f"violation {sorted(w.tuples)} cannot be resolved by deleting "
                "endogenous tuples only")
        family.append(hit)
    removals = minimal_hitting_sets(family)
    min_size = min(len(r) for r in removals)
    return tuple(
        Repair(kept=all_tids - r, removed=r, cardinality_minimal=len(r) == min_size)
        for r in removals
    )


def enumerate_c_repairs(instance: Instance, dc: DenialConstraint, *,
                        endogenous_only: bool = False,
                        max_deletable: int | None = None) -> tuple[Repair, ...]:
    """The subset-repairs of minimum removal cardinality."""
    return tuple(r for r in enumerate_s_repairs(
        instance, dc, endogenous_only=endogenous_only, max_deletable=max_deletable)
        if r.cardinality_minimal)


def core_naive(instance: Instance, dc: DenialConstraint, *,
               endogenous_only: bool = False,
               max_deletable: int | None = None) -> CoreResult:
    """Repair core by direct intersection over all subset-repairs."""
    repairs = enumerate_s_repairs(
        instance, dc, endogenous_only=endogenous_only, max_deletable=max_deletable)
    core = instance.tids()
    for r in repairs:
        core &= r.kept
    return CoreResult(tuples=core, method="naive-intersection")
