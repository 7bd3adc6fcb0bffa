"""Subset- and cardinality-repairs for the denial constraint of a BCQ.

A repair is a subset-maximal consistent subinstance.  Rather than
searching all 2^|D| subinstances for maximality, repairs are computed as
complements of the minimal hitting sets of the minimal-witness family (the
conflict hypergraph of the constraint); the two views coincide for denial
constraints and the equivalence is exercised against a direct maximality
check in the test suite.

Every minimal hitting set is the union of one minimal hitting set per
connected component of the family (members sharing a tuple are
connected), so the search runs on each component alone, on bitmasks over
its own tuples.  The joined sets are sorted on integers: with the least
tid on the highest of n bits, the key (popcount << n) - mask orders
distinct sets by (size, tids), and a union of disjoint sets sums their
keys.  Within a component one depth-first search answers both kinds of
question.  Where the whole family is the answer (the subset-repairs, and
the MNS and causes of :mod:`dbexplain.oracle`), it lists the minimal
hitting sets with the critical test of MMCS (Murakami & Uno, *Discrete
Applied Mathematics* 170, 2014): every tuple chosen must keep a member
that it alone meets, so each node is a minimal partial set and each set
is found once, with no test against the sets found before; unlike
Berge's dualization it keeps no working family, which can outgrow the
answer (Eiter & Gottlob, SIAM J. Comput. 1995).  Minimum-size questions
need no list: the cardinality repairs join each component's minimum-size
hitting sets, and eta reads least sizes, both from the same search
bounded by a size and pruned by packing.  A hitting set of least size is
minimal, so the bounded search makes no critical test.

The search can take exponential time, so one call raises
OracleBoundExceeded past MAX_TRANSVERSAL_TESTS tests or MAX_HELD_TUPLES
tuples held (also by the repairs' kept sets); every function here also
refuses more than ``max_deletable`` deletable tuples (20 by default).

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

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import NamedTuple, NoReturn

from .errors import OracleBoundExceeded, RepairNotFound
from .model import Instance
from .query import MAX_HELD_TUPLES, DenialConstraint, _witness_index

__all__ = [
    "Repair", "CoreResult", "minimal_hitting_sets",
    "enumerate_s_repairs", "enumerate_c_repairs", "core_naive",
]

# The test cap of one request's searches (with CPython 3.11 on x86-64, the
# 5x6 and 6x6 grid path listings and eta on the 6x7 grid reach 10M tests in
# 0.65-1.15 s; the tuples held are capped by query.MAX_HELD_TUPLES), and the
# default deletable bound.
MAX_TRANSVERSAL_TESTS = 10_000_000
DEFAULT_MAX_DELETABLE = 20


class Repair(NamedTuple):
    """The tuples a repair keeps and removes, and whether its removal has
    the least size (an immutable named tuple)."""

    kept: frozenset[str]
    removed: frozenset[str]
    cardinality_minimal: bool


@dataclass(frozen=True)
class CoreResult:
    """Intersection of all subset-repairs (tuples kept by every repair)."""

    tuples: frozenset[str]
    method: str


def _refuse(tests: int, held: int, where: str) -> NoReturn:
    raise OracleBoundExceeded(
        f"{tests:,} intersection and subset tests and {held:,} tuples held, {where}, "
        f"pass the caps {MAX_TRANSVERSAL_TESTS:,} and {MAX_HELD_TUPLES:,}")


def _component_transversals(
        family: Sequence[frozenset[str]]) -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
    """The minimal hitting sets of each connected component of the family,
    as a tuple of masks over _bitmask_components' tuples (see there why
    not a list), listed by one search over all components."""
    if any(not s for s in family):
        raise ValueError("family contains the empty set; it cannot be hit")
    search = _Search()
    return [(tuples, tuple(search.hitting_sets(members)))
            for tuples, members in _bitmask_components(family)]


def _packing(members: Iterable[int], room: int) -> int:
    """How many of the members, taken in order, are disjoint from all those
    taken before (a lower bound on the size of a hitting set), counted up
    to room + 1."""
    cover = count = 0
    for m in members:
        if not m & cover:
            cover |= m
            count += 1
            if count > room:
                break
    return count


class _Search:
    """Depth-first search for hitting sets of families of bitmasks,
    counting the member tests of one request against MAX_TRANSVERSAL_TESTS."""

    def __init__(self) -> None:
        self.tests = 0

    def hitting_sets(self, members: Sequence[int], size: int | None = None,
                     first: bool = False) -> list[int]:
        """The minimal hitting sets, or with a size the hitting sets of at
        most size tuples, or the first one found.

        A node holds the tuples chosen, the members they miss and its
        candidates, the tuples not banned.  It branches on a missed member
        with the fewest candidates: the i-th child chooses its i-th and
        bans the ones before it, so each set is reached once.

        With a size, a node keeps its missed members masked by its
        candidates, and is pruned when its chosen tuples plus a packing of
        those members pass size.  Else it keeps them whole, so that a wide
        component holds its masks once, and also holds the members its
        tuples meet once; it is pruned when some chosen tuple lies in none
        of them (the critical test of MMCS, Murakami & Uno, DAM 170, 2014),
        as that tuple could go from every superset.  So each node is a
        minimal partial hitting set, and each minimal hitting set is found
        once with no test against those found before.  When the branch
        member has one candidate left, every missed member with one left
        is forced, and their tuples are chosen in one step, else a star of
        n members through one tuple would take n steps over n members.

        Each node counts a test per member of the lists it filters and per
        member it leaves missed; past the test cap, or when the sets found
        would hold more than MAX_HELD_TUPLES tuples, the call raises."""
        found: list[int] = []
        listing, held = size is None, 0
        tests, stack = self.tests, [(0, 0, members, [], 0, -1)]
        while stack:
            chosen, depth, missed, once, new, cand = stack.pop()
            tests += len(missed) + len(once)
            if listing:
                once = [m for m in once if not m & new]
                once += [m for m in missed if (hit := m & new) and not hit & (hit - 1)]
                if chosen & ~reduce(or_, once, 0):
                    continue
                missed = [m for m in missed if not m & new]
            else:
                missed = [m & cand for m in missed if not m & new]
            if not missed:
                found.append(chosen)
                if first:
                    break
                held += depth
                if held > MAX_HELD_TUPLES:
                    self.tests = tests
                    _refuse(tests, held, f"with {len(found):,} {self._what(size)} found "
                            f"among {len(members):,} members")
                continue
            tests += len(missed)
            if tests > MAX_TRANSVERSAL_TESTS:
                self.tests = tests
                _refuse(tests, held, f"in a search for {self._what(size)} "
                        f"among {len(members):,} members")
            if not listing and _packing(missed, size - depth) > size - depth:
                continue
            branch = min(map(cand.__and__, missed) if listing else missed, key=int.bit_count)
            if listing and branch.bit_count() == 1:
                branch = reduce(or_, (m for m in map(cand.__and__, missed) if m.bit_count() == 1))
                stack.append((chosen | branch, depth + branch.bit_count(), missed, once, branch,
                              cand))
                continue
            for low in _bits(branch):
                stack.append((chosen | low, depth + 1, missed, once, low, cand))
                cand ^= low
        self.tests = tests
        return found

    @staticmethod
    def _what(size: int | None) -> str:
        return "minimal hitting sets" if size is None else f"hitting sets of {size} tuples"

    def least(self, members: Sequence[int], first: bool) -> tuple[int, list[int]]:
        """The least size of a hitting set and the hitting sets of that size
        (or the first one found), deepening the size from a packing; a
        hitting set of the least size is minimal."""
        self.tests += len(members)
        size = _packing(members, len(members))
        while not (found := self.hitting_sets(members, size, first)):
            size += 1
        return size, found


def _bits(mask: int) -> Iterator[int]:
    """The one-bit masks of a bitmask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _bitmask_components(
        family: list[frozenset[str]]) -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
    """The connected components of a family of nonempty sets, in order of
    first member: each its own tuples, sorted, and its members as masks
    over them (bit i for tuples[i]), fewest tuples first (a stable sort).  A
    union-find links each member to the first member through each tuple.

    A lone member, one that shares no tuple, is its own component and is
    built at once, as tuples: the collector stops tracking a tuple of
    strings or ints at its first pass, where lists kept for each of
    thousands of lone members through the call would be promoted to its
    oldest generation and start a full collection, which scans the whole
    heap, so that the time would grow faster than the family."""
    root, first = list(range(len(family))), {}
    for i, s in enumerate(family):
        for t in s:
            j = first.setdefault(t, i)
            while root[j] != j:
                root[j] = j = root[root[j]]
            root[j] = i
    roots, size = [], {}
    for i in range(len(family)):
        while root[i] != i:
            root[i] = i = root[root[i]]
        roots.append(i)
        size[i] = size.get(i, 0) + 1
    components = {}
    for s, i in zip(family, roots):
        if i not in components:
            components[i] = ([], []) if size[i] > 1 else (tuple(sorted(s)), ((1 << len(s)) - 1,))
    at = {}  # positions, not one-bit masks: those would hold n^2/16 bytes
    for t in sorted(first):
        i = roots[first[t]]
        if size[i] > 1:
            tuples = components[i][0]
            at[t] = len(tuples)
            tuples.append(t)
    for s, i in zip(family, roots):
        if size[i] > 1:
            m = 0
            for t in s:
                m |= 1 << at[t]
            components[i][1].append(m)
    return [(tuple(tuples), tuple(sorted(masks, key=int.bit_count))) if size[i] > 1
            else (tuples, masks) for i, (tuples, masks) in components.items()]


def _minimum_transversals(
        family: list[frozenset[str]]) -> list[tuple[tuple[str, ...], list[int]]]:
    """The minimum-size hitting sets of each connected component of an
    antichain of distinct nonempty sets, as masks over its tuples."""
    search = _Search()
    return [(tuples, search.least(members, first=False)[1])
            for tuples, members in _bitmask_components(family)]


def _least_transversals_through(family: list[frozenset[str]]) -> list[tuple[int, dict[str, int]]]:
    """Per connected component C of an antichain of distinct nonempty sets:
    the least size m of a minimal hitting set of C, and for each tuple t
    of C the least size of a minimal hitting set of C through t.

    That size is 1 + g, for g the least size of a hitting set of
    {M - S : M in C, t not in M} over the members S through t.  A least
    such G meets no S, so G | {t} hits C, meets S in t alone, and meets
    some M without t in each tuple of G alone: it is minimal.  Conversely
    a minimal N through t meets some S in t alone, so N - {t} hits that
    family for S.  As 1 + g >= m, g starts at m - 1 and stops at the
    first size for which some S has a hitting set; the tuples of the
    first minimum-size set found need no search.  The sub-families count
    a test per member they filter or build."""
    search, parts = _Search(), []
    for tuples, members in _bitmask_components(family):
        least, (found,) = search.least(members, first=True)
        through = {tuples[b.bit_length() - 1]: least for b in _bits(found)}
        for bit in _bits((1 << len(tuples)) - 1 & ~found):
            t = tuples[bit.bit_length() - 1]
            others = [m for m in members if not m & bit]
            subs = [[m & ~s for m in others] for s in members if s & bit]
            search.tests += len(members) + len(subs) * len(others)
            if search.tests > MAX_TRANSVERSAL_TESTS:
                _refuse(search.tests, 0, f"building the families through {t}")
            g = least - 1
            while not any(search.hitting_sets(sub, g, first=True) for sub in subs):
                g += 1
            through[t] = 1 + g
        parts.append((least, through))
    return parts


def _unions(parts: Sequence[tuple[Sequence[str], Sequence[int]]], universe: int = 0,
            by_size: bool = True) -> list[frozenset[str]]:
    """One member per part (a component's tuples and masks over them),
    joined, in (size, tids) order, or in tids order when not by_size.

    None is built past MAX_HELD_TUPLES tuples, read off the parts' sizes
    alone: first those of the unions (a member of a part is in count /
    len(part) unions), then those that repairs of a universe of that many
    tuples would keep (count * universe less the unions').  One-member
    parts are in every union, so they join first, as one set, and change
    no comparison; the others' tuples get a bit each, the least tid the
    highest, and a union's key sums its members': (size << bits) - mask,
    or -mask alone, which orders an antichain by tids."""
    count = math.prod(len(masks) for _, masks in parts)
    held = sum(count // len(masks) * sum(map(int.bit_count, masks)) for _, masks in parts)
    if held > MAX_HELD_TUPLES:
        raise OracleBoundExceeded(f"{count:,} unions of per-component minimal hitting sets "
                                  f"would hold {held:,} tuples, past {MAX_HELD_TUPLES:,}")
    if (kept := count * universe - held) > MAX_HELD_TUPLES:
        raise OracleBoundExceeded(f"{count:,} repairs would keep {kept:,} tuples, "
                                  f"past {MAX_HELD_TUPLES:,}")
    many = sorted((p for p in parts if len(p[1]) > 1), key=lambda p: len(p[1]))
    at = {t: i for i, t in enumerate(sorted((t for p in many for t in p[0]), reverse=True))}
    unit = 1 << len(at) if by_size else 0  # the weight of a tuple in a key
    joined = {0: frozenset(tuples[b.bit_length() - 1] for tuples, masks in parts
                           if len(masks) == 1 for b in _bits(masks[0]))}
    for tuples, masks in many:
        part = [(len(s) * unit - sum(1 << at[t] for t in s), frozenset(s))
                for s in ([tuples[b.bit_length() - 1] for b in _bits(m)] for m in masks)]
        joined = {key + k: union | s for key, union in joined.items() for k, s in part}
    return [joined[key] for key in sorted(joined)]  # distinct keys: no union is dropped


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


def _repairs(instance: Instance,
             parts: Sequence[tuple[Sequence[str], Sequence[int]]]) -> tuple[Repair, ...]:
    """The repairs deleting the unions of the parts, in (size, tids) order;
    _unions refuses them before it joins any when their removals or kept
    sets would hold over MAX_HELD_TUPLES tuples."""
    all_tids = instance.tids()
    removals = _unions(parts, len(all_tids))
    least = len(removals[0])
    return tuple(Repair(all_tids - r, r, len(r) == least) for r in removals)


def enumerate_s_repairs(instance: Instance, dc: DenialConstraint, *,
                        endogenous_only: bool = False,
                        max_deletable: int = DEFAULT_MAX_DELETABLE) -> tuple[Repair, ...]:
    """All subset-repairs, ordered by (removal size, removal tids).

    A consistent instance has itself as its sole repair.
    """
    return _repairs(instance, _component_transversals(
        _conflicts(instance, dc, endogenous_only, max_deletable)))


def enumerate_c_repairs(instance: Instance, dc: DenialConstraint, *,
                        endogenous_only: bool = False,
                        max_deletable: int = DEFAULT_MAX_DELETABLE) -> tuple[Repair, ...]:
    """The subset-repairs of minimum removal cardinality: one minimum-size
    removal per component, joined."""
    return _repairs(instance, _minimum_transversals(
        _conflicts(instance, dc, endogenous_only, max_deletable)))


def core_naive(instance: Instance, dc: DenialConstraint, *,
               endogenous_only: bool = False,
               max_deletable: int = DEFAULT_MAX_DELETABLE) -> CoreResult:
    """Repair core, the intersection over all subset-repairs: D less the
    union of the minimal conflicts, which is the union of their minimal
    hitting sets, the repairs' removals."""
    conflicts = _conflicts(instance, dc, endogenous_only, max_deletable)
    return CoreResult(tuples=instance.tids() - frozenset().union(*conflicts),
                      method="naive-intersection")
