"""Explanation-set containers and their definition-level checkers.

The checkers deliberately go through ``restrict`` + ``evaluate`` only, so
they are independent of both the witness-antichain enumerators and the
chase/rewriting fast path.  They are the judges of those answers, not a
step of them: the sets read off the witness antichain are right by
construction, and the test suite checks them against the definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Mapping

from .errors import ExplanationInvalid
from .model import Instance
from .query import Query, evaluate

__all__ = [
    "ExplanationKind", "ExplanationSet", "DegreeReport", "TupleDegrees",
    "ContingencyReport", "verify_explanation", "is_sufficient", "is_necessary",
]

ExplanationKind = Literal["SS", "MSS", "NS", "MNS", "witness", "repair-removal"]


def is_sufficient(instance: Instance, query: Query, tids: Iterable[str]) -> bool:
    """Does the set, together with all exogenous tuples, satisfy the query?"""
    keep = set(tids) | set(instance.exogenous_part())
    return evaluate(query, instance.restrict(keep))


def is_necessary(instance: Instance, query: Query, tids: Iterable[str]) -> bool:
    """Does removing the set falsify the query?"""
    keep = instance.tids() - set(tids)
    return not evaluate(query, instance.restrict(keep))


def verify_explanation(instance: Instance, query: Query,
                       kind: ExplanationKind, tids: Iterable[str]) -> None:
    """Raise ExplanationInvalid unless the set meets its kind's definition."""
    tids = frozenset(tids)
    endo = instance.endogenous_part()

    def fail(msg: str) -> None:
        raise ExplanationInvalid(f"{kind} {sorted(tids)}: {msg}")

    if kind in ("SS", "MSS", "NS", "MNS") and not tids <= endo:
        fail("contains non-endogenous tuples")
    if kind in ("SS", "MSS"):
        if not is_sufficient(instance, query, tids):
            fail("not sufficient")
        if kind == "MSS":
            for t in sorted(tids):
                if is_sufficient(instance, query, tids - {t}):
                    fail(f"not minimal: still sufficient without {t}")
    elif kind in ("NS", "MNS"):
        if not is_necessary(instance, query, tids):
            fail("removal does not falsify the query")
        if kind == "MNS":
            for t in sorted(tids):
                if is_necessary(instance, query, tids - {t}):
                    fail(f"not minimal: removal without {t} still falsifies")
    elif kind == "witness":
        if not evaluate(query, instance.restrict(tids)):
            fail("does not satisfy the query on its own")
        for t in sorted(tids):
            if evaluate(query, instance.restrict(tids - {t})):
                fail(f"not minimal: satisfies without {t}")
    elif kind == "repair-removal":
        if not is_necessary(instance, query, tids):
            fail("complement still violates the constraint")
        for t in sorted(tids):
            if is_necessary(instance, query, tids - {t}):
                fail(f"not maximal: {t} could be kept")
    else:
        raise ValueError(f"unknown explanation kind {kind!r}")


@dataclass(frozen=True)
class ExplanationSet:
    """A set of tuple identifiers with an explanation role attached."""

    kind: ExplanationKind
    tuples: frozenset[str]

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, tid: str) -> bool:
        return tid in self.tuples


@dataclass(frozen=True)
class TupleDegrees:
    eta: Fraction
    sigma: Fraction
    rho: Fraction
    strong_necessary: bool
    strong_sufficient: bool


@dataclass(frozen=True)
class DegreeReport:
    """Per-tuple necessity, sufficiency and responsibility degrees.

    Covers every tuple of the instance; exogenous tuples always carry zero
    degrees.  All values are exact rationals.
    """

    per_tuple: Mapping[str, TupleDegrees]

    def eta(self, tid: str) -> Fraction:
        return self.per_tuple[tid].eta

    def sigma(self, tid: str) -> Fraction:
        return self.per_tuple[tid].sigma

    def rho(self, tid: str) -> Fraction:
        return self.per_tuple[tid].rho

    def to_dict(self) -> dict:
        return {
            tid: {
                "eta": str(d.eta),
                "sigma": str(d.sigma),
                "rho": str(d.rho),
                "strong_necessary": d.strong_necessary,
                "strong_sufficient": d.strong_sufficient,
            }
            for tid, d in sorted(self.per_tuple.items())
        }


@dataclass(frozen=True)
class ContingencyReport:
    """Per actual cause, its subset-minimal contingency sets."""

    contingencies: Mapping[str, tuple[frozenset[str], ...]]

    @property
    def causes(self) -> tuple[str, ...]:
        return tuple(sorted(self.contingencies))

    def to_dict(self) -> dict:
        return {
            tid: [sorted(g) for g in gammas]
            for tid, gammas in sorted(self.contingencies.items())
        }
