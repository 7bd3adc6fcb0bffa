"""Monotone-DNF lineage of a Boolean conjunctive query over an instance.

The lineage is a positive propositional formula with one variable per
tuple, true under the valuation induced by a subinstance exactly when the
subinstance satisfies the query.  One clause per minimal witness keeps the
clause width at most the number of query atoms.  Variables of exogenous
tuples are fixed true and can be eliminated, after which the subset-minimal
models of the formula are exactly the minimal sufficient sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance
from .query import Query, _minimal_members, _witness_index

__all__ = ["LineageFormula", "lineage_of", "eliminate_exogenous", "minimal_models"]


@dataclass(frozen=True)
class LineageFormula:
    """A monotone DNF over tuple variables (named by tid).

    No clauses at all is constant false; a formula containing the empty
    clause is constant true.
    """

    clauses: frozenset[frozenset[str]]

    @property
    def is_false(self) -> bool:
        return not self.clauses

    @property
    def is_true(self) -> bool:
        return frozenset() in self.clauses

    def width(self) -> int:
        return max((len(c) for c in self.clauses), default=0)

    def evaluate(self, true_tids: set[str] | frozenset[str]) -> bool:
        return any(c <= true_tids for c in self.clauses)

    def to_dict(self) -> dict:
        return {"clauses": sorted((sorted(c) for c in self.clauses),
                                  key=lambda c: (len(c), c))}

    @staticmethod
    def from_dict(doc: dict) -> "LineageFormula":
        return LineageFormula(frozenset(frozenset(c) for c in doc["clauses"]))


def lineage_of(instance: Instance, query: Query) -> LineageFormula:
    """One clause per minimal witness; the empty disjunction when the query
    is false.  Clauses are tuple sets, so under self-joins a clause may
    have fewer variables than the query has atoms."""
    return LineageFormula(clauses=frozenset(_witness_index(query, instance).minimal))


def eliminate_exogenous(formula: LineageFormula, instance: Instance, *,
                        absorb: bool = True) -> LineageFormula:
    """Fix exogenous variables to true and drop them from every clause.

    Absorption (dropping clauses that became supersets of others) is on by
    default because minimal-model enumeration presumes an antichain; pass
    absorb=False to look at the raw eliminated form.
    """
    exo = instance.exogenous_part()
    reduced = frozenset(c if exo.isdisjoint(c) else c - exo for c in formula.clauses)
    if absorb:
        reduced = frozenset(_minimal_members(reduced))
    return LineageFormula(clauses=reduced)


def minimal_models(formula: LineageFormula) -> tuple[frozenset[str], ...]:
    """Subset-minimal true-sets of a monotone DNF: exactly the clauses,
    once absorbed to an antichain."""
    return tuple(sorted(_minimal_members(formula.clauses), key=sorted))
