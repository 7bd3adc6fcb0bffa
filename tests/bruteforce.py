"""Brute-force reference semantics for necessity and sufficiency.

The library derives every family from the antichain of endogenous witness
projections; this module keeps the exhaustive definition-level scans the
tests judge it by.  Everything here enumerates subsets of the endogenous
part by ascending cardinality, exactly as the definitions read:

* a sufficient set S satisfies the query together with all exogenous
  tuples; an MSS is a subset-minimal one;
* a necessary set N falsifies the query when removed; an MNS is a
  subset-minimal one;
* degrees: eta(t) = 1/min{|N| : N minimal necessary, t in N} (0 when t is
  in no MNS), sigma(t) likewise over minimal sufficient sets, and the
  responsibility rho(t) = 1/(1+|G|) for the smallest contingency set G
  with D\\G true but D\\(G+{t}) false.  All values are exact rationals.

Per-subset satisfaction is decided against the minimal-witness family
(bitmask containment), which is equivalent for monotone queries.  The
functions mirror the library's signatures and return types, so results
compare with ``==``; ``QueryNotSatisfied`` is reproduced, and the scans
refuse more than MAX_ENDO endogenous tuples.  ``participating_sets``
filters the full cartesian product of each atom's matching facts and
``assignments`` is a nested loop over each atom's whole extension; both
match terms to values through ``_bind``, so they share no code with the
library's join.  ``minimal_members`` compares every member of a family
with every other.  ``minimal_hitting_sets`` scans the subsets of a
family's elements by ascending cardinality, sharing no code with the
library's transversals, and ``berge_transversals`` lists them by
Berge's dualization, fast enough for families far past that scan;
``simple_paths`` scans the subsets of a graph's edges the same way,
deciding reachability by its own breadth-first search;
``depth_first_paths`` lists the same paths by a plain recursive search
that counts the nodes it enters; and ``chase`` picks the least set of
the scanned MSS family through the seed.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from typing import Sequence

from dbexplain import (
    BooleanCQ,
    ContingencyReport,
    DegreeReport,
    ExplanationSet,
    Instance,
    OracleBoundExceeded,
    ParticipatingSets,
    Query,
    Repair,
    QueryNotSatisfied,
    ReachabilityQuery,
    TupleDegrees,
    Var,
    enumerate_witnesses,
    evaluate,
)

__all__ = ["enumerate_mss", "enumerate_mns", "degrees", "actual_causes",
           "participating_sets", "minimal_hitting_sets", "berge_transversals",
           "simple_paths", "depth_first_paths", "assignments", "minimal_members", "chase"]

# The scans take 2^n steps in the n endogenous tuples.
MAX_ENDO = 20


def _require_satisfied(instance: Instance, query: Query) -> None:
    if not evaluate(query, instance):
        raise QueryNotSatisfied("the query is false in the instance")


def _endo_order(instance: Instance) -> list[str]:
    endo = sorted(instance.endogenous_part())
    if len(endo) > MAX_ENDO:
        raise OracleBoundExceeded(
            f"{len(endo)} endogenous tuples exceed the scan bound {MAX_ENDO}")
    return endo


def _witness_masks(instance: Instance, query: Query, endo: Sequence[str]) -> list[int]:
    """Endogenous projections of the minimal witnesses, as an antichain of
    bitmasks over the given tid order."""
    pos = {tid: i for i, tid in enumerate(endo)}
    masks = set()
    for w in enumerate_witnesses(query, instance):
        masks.add(sum(1 << pos[t] for t in w.tuples if t in pos))
    ordered = sorted(masks, key=lambda m: (bin(m).count("1"), m))
    kept: list[int] = []
    for m in ordered:
        if not any(p & m == p for p in kept):
            kept.append(m)
    return kept


def _sufficient(masks: list[int], subset: int) -> bool:
    return any(w & ~subset == 0 for w in masks)


def _necessary(masks: list[int], subset: int) -> bool:
    return bool(masks) and all(w & subset for w in masks)


def _scan_minimal(n: int, masks: list[int], mode: str) -> list[int]:
    """Subset-minimal satisfying subsets, by ascending-cardinality scan."""
    found: list[int] = []
    test = _sufficient if mode == "suff" else _necessary
    for card in range(n + 1):
        hits = []
        for combo in itertools.combinations(range(n), card):
            m = 0
            for i in combo:
                m |= 1 << i
            if test(masks, m):
                hits.append(m)
        for m in hits:
            if not any(f & m == f for f in found):
                found.append(m)
    return found


def _to_tids(mask: int, endo: Sequence[str]) -> frozenset[str]:
    return frozenset(endo[i] for i in range(len(endo)) if mask >> i & 1)


def _family(instance: Instance, query: Query,
            mode: str) -> tuple[list[str], list[frozenset[str]]]:
    _require_satisfied(instance, query)
    endo = _endo_order(instance)
    masks = _witness_masks(instance, query, endo)
    fam = [_to_tids(m, endo) for m in _scan_minimal(len(endo), masks, mode)]
    return endo, sorted(fam, key=lambda s: tuple(sorted(s)))


def enumerate_mss(instance: Instance, query: Query) -> tuple[ExplanationSet, ...]:
    _, fam = _family(instance, query, "suff")
    return tuple(ExplanationSet("MSS", s) for s in fam)


def enumerate_mns(instance: Instance, query: Query) -> tuple[ExplanationSet, ...]:
    _, fam = _family(instance, query, "nec")
    return tuple(ExplanationSet("MNS", s) for s in fam)


def _rho_single(masks: list[int], n: int, t: int) -> Fraction:
    tbit = 1 << t
    others = [i for i in range(n) if i != t]
    for card in range(len(others) + 1):
        for combo in itertools.combinations(others, card):
            gamma = 0
            for i in combo:
                gamma |= 1 << i
            if _sufficient(masks, ((1 << n) - 1) & ~gamma) and \
                    not _sufficient(masks, ((1 << n) - 1) & ~(gamma | tbit)):
                return Fraction(1, card + 1)
    return Fraction(0)


def degrees(instance: Instance, query: Query) -> DegreeReport:
    _require_satisfied(instance, query)
    endo = _endo_order(instance)
    masks = _witness_masks(instance, query, endo)
    n = len(endo)
    mss = _scan_minimal(n, masks, "suff")
    mns = _scan_minimal(n, masks, "nec")
    rho_by_idx = {t: _rho_single(masks, n, t) for t in range(n)}

    def min_size(families: list[int], bit: int) -> Fraction:
        sizes = [bin(m).count("1") for m in families if m >> bit & 1]
        return Fraction(1, min(sizes)) if sizes else Fraction(0)

    per: dict[str, TupleDegrees] = {}
    for i, tid in enumerate(endo):
        per[tid] = TupleDegrees(
            eta=min_size(mns, i),
            sigma=min_size(mss, i),
            rho=rho_by_idx[i],
            strong_necessary=bool(mns) and all(m >> i & 1 for m in mns),
            strong_sufficient=bool(mss) and all(m >> i & 1 for m in mss),
        )
    zero = TupleDegrees(Fraction(0), Fraction(0), Fraction(0), False, False)
    for tid in instance.exogenous_part():
        per[tid] = zero
    return DegreeReport(per_tuple=per)


def actual_causes(instance: Instance, query: Query) -> ContingencyReport:
    _require_satisfied(instance, query)
    endo = _endo_order(instance)
    masks = _witness_masks(instance, query, endo)
    n = len(endo)
    full = (1 << n) - 1
    report: dict[str, tuple[frozenset[str], ...]] = {}
    for t, tid in enumerate(endo):
        tbit = 1 << t
        others = [i for i in range(n) if i != t]
        found: list[int] = []
        for card in range(len(others) + 1):
            for combo in itertools.combinations(others, card):
                gamma = 0
                for i in combo:
                    gamma |= 1 << i
                if any(f & gamma == f for f in found):
                    continue
                if _sufficient(masks, full & ~gamma) and \
                        not _sufficient(masks, full & ~(gamma | tbit)):
                    found.append(gamma)
        if found:
            report[tid] = tuple(sorted((_to_tids(g, endo) for g in found),
                                       key=lambda s: tuple(sorted(s))))
    return ContingencyReport(contingencies=report)


def participating_sets(instance: Instance, query: Query) -> ParticipatingSets:
    """Per atom position, the tuples at that position in some satisfying
    combination: the full cartesian product of each atom's matching facts,
    kept when one environment binds every atom to its fact."""
    candidates = [[f for f in instance.relation(atom.pred)
                   if _bind(atom.args, f.vals, {}) is not None]
                  for atom in query.atoms]
    per_atom: list[set[str]] = [set() for _ in query.atoms]
    for combo in itertools.product(*candidates):
        env: dict[str, str] | None = {}
        for atom, f in zip(query.atoms, combo):
            env = _bind(atom.args, f.vals, env)
            if env is None:
                break
        if env is not None:
            for r_i, f in zip(per_atom, combo):
                r_i.add(f.tid)
    return ParticipatingSets(per_atom=tuple(frozenset(r_i) for r_i in per_atom))


def minimal_hitting_sets(family: Sequence[frozenset[str]]) -> list[frozenset[str]]:
    """The subset-minimal sets meeting every member, ordered by (size,
    tids): every subset of the family's elements, by ascending cardinality
    and then in tid order, kept when it hits the family and contains no
    hitting set kept before.  A family with an empty member has none."""
    universe = sorted(set().union(*family))
    found: list[frozenset[str]] = []
    for card in range(len(universe) + 1):
        for combo in itertools.combinations(universe, card):
            s = frozenset(combo)
            if all(s & f for f in family) and not any(h <= s for h in found):
                found.append(s)
    return found


def berge_transversals(family: Sequence[frozenset[str]]) -> list[frozenset[str]]:
    """The minimal hitting sets of a family of nonempty sets by Berge's
    dualization, ordered by (size, tids): from the empty set, take the
    members in turn, keep each set that meets the member and grow each
    other set by each tuple of the member.  A grown h | {t} is dropped
    when it contains a kept set, which then holds t; grown sets need no
    test against each other, since those from distinct minimal sets are
    incomparable."""
    hitting = [frozenset()]
    for member in family:
        kept = [h for h in hitting if h & member]
        through = {t: [k for k in kept if t in k] for t in member}
        hitting = kept + [h | {t} for h in hitting if not h & member for t in member
                          if not any(k <= h | {t} for k in through[t])]
    return sorted(hitting, key=lambda s: (len(s), sorted(s)))


def _reaches(edges: Sequence, source: str, target: str) -> bool:
    """Is the target reached from the source over one or more of the
    edges?  A breadth-first search from the source's successors."""
    seen: set[str] = set()
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for f in edges:
            if f.vals[0] == node and f.vals[1] not in seen:
                seen.add(f.vals[1])
                frontier.append(f.vals[1])
    return target in seen


def simple_paths(instance: Instance, query: ReachabilityQuery) -> list[frozenset[str]]:
    """The minimal witnesses of a reachability query, ordered by sorted
    tids: every subset of the edge predicate's facts, by ascending
    cardinality, kept when the target is reached over it and it contains
    no set kept before.  These are the edge sets of the simple paths from
    the source to the target, or of the cycles through the source when it
    is the target."""
    edges = instance.relation(query.edge_pred)
    found: list[frozenset[str]] = []
    for card in range(len(edges) + 1):
        for combo in itertools.combinations(edges, card):
            s = frozenset(f.tid for f in combo)
            if not any(p <= s for p in found) and \
                    _reaches(combo, query.source, query.target):
                found.append(s)
    return sorted(found, key=sorted)


def depth_first_paths(instance: Instance,
                      query: ReachabilityQuery) -> tuple[list[frozenset[str]], int]:
    """The edge sets of the simple source-to-target paths, ordered by
    sorted tids, and the nodes a plain recursive depth-first search for
    them enters.  The search follows only edges into nodes with a path of
    zero or more edges to the target (a fixpoint over the edges finds
    them), ends a path at each edge into the target, and enters every
    other node not on the path, counting each entry."""
    edges = instance.relation(query.edge_pred)
    live, grown = {query.target}, True
    while grown:
        grown = False
        for f in edges:
            if f.vals[1] in live and f.vals[0] not in live:
                live.add(f.vals[0])
                grown = True
    succ: dict[str, list[tuple[str, str]]] = {}
    for f in edges:
        if f.vals[1] in live:
            succ.setdefault(f.vals[0], []).append((f.tid, f.vals[1]))
    paths: list[frozenset[str]] = []
    entered = 0

    def enter(node: str, on_path: frozenset[str], tids: tuple[str, ...]) -> None:
        nonlocal entered
        for tid, nxt in succ.get(node, ()):
            if nxt == query.target:
                paths.append(frozenset(tids + (tid,)))
            elif nxt not in on_path:
                entered += 1
                enter(nxt, on_path | {nxt}, tids + (tid,))

    enter(query.source, frozenset([query.source]), ())
    return sorted(paths, key=sorted), entered


def _bind(args, vals, env: dict[str, str]) -> dict[str, str] | None:
    """env extended by matching the terms to the values, or None."""
    env = dict(env)
    for term, val in zip(args, vals):
        if not isinstance(term, Var):
            if term.value != val:
                return None
        elif env.setdefault(term.name, val) != val:
            return None
    return env


def assignments(query: BooleanCQ, instance: Instance) -> list:
    """Every satisfying assignment as (environment, per-atom facts): a
    nested loop over each atom's whole extension, atoms in textual order
    and facts in tid order."""
    out = []

    def rec(i: int, env: dict[str, str], bound: tuple) -> None:
        if i == len(query.atoms):
            out.append((env, bound))
            return
        atom = query.atoms[i]
        for fact in instance.relation(atom.pred):
            new = _bind(atom.args, fact.vals, env)
            if new is not None:
                rec(i + 1, new, bound + (fact,))

    rec(0, {}, ())
    return out


def minimal_members(family: Sequence[frozenset[str]]) -> list[frozenset[str]]:
    """The members with no proper subset in the family, in family order:
    every member compared with every other."""
    return [s for s in family if not any(f < s for f in family)]


def chase(instance: Instance, query: BooleanCQ, tid: str,
          repair: Repair | None = None) -> frozenset[str] | None:
    """The set the chase documents for a seed: the least minimal
    sufficient set by (size, sorted tids) that contains the seed and whose
    other tuples the repair keeps (any tuples, without a repair); None when
    there is none."""
    kept = instance.tids() if repair is None else repair.kept
    through = [s.tuples for s in enumerate_mss(instance, query)
               if tid in s.tuples and s.tuples - {tid} <= kept]
    return min(through, key=lambda s: (len(s), sorted(s)), default=None)
