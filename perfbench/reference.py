"""Reference semantics the benchmark judges answers by.

Everything here follows the definitions directly and shares no code with
the library's join, scans, transversal search or fast path: only the data
classes (facts, atoms, terms) are read.

* The images of a Boolean CQ are the fact sets of its satisfying
  assignments; the minimal witnesses are the subset-minimal images.
* A minimal sufficient set (MSS) is a subset-minimal endogenous projection
  of an image; a minimal necessary set (MNS) is a minimal transversal of
  the MSS family (none when the exogenous part alone satisfies the query).
* eta(t) = 1/min |N| over MNS through t, sigma likewise over MSS, and the
  responsibility rho equals eta.  The minimal contingency sets of t are
  the minimal members of {N - t : t in N, N an MNS}.
* Subset-repairs of the query's denial constraint delete exactly the
  minimal transversals of the witness family; the repair core is the
  instance minus the union of the witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from dbexplain.query import BooleanCQ, Const, Var


def cq_images(query: BooleanCQ, instance) -> set[frozenset[str]]:
    """Fact sets of all satisfying assignments (hash join, atoms in order)."""
    bound: set[str] = set()
    plans = []
    for atom in query.atoms:
        keys = [p for p, t in enumerate(atom.args)
                if isinstance(t, Const) or t.name in bound]
        index: dict[tuple, list] = {}
        for fact in instance.relation(atom.pred):
            if _consistent(atom, fact):
                index.setdefault(tuple(fact.vals[p] for p in keys), []).append(fact)
        plans.append((atom, keys, index))
        bound.update(t.name for t in atom.args if isinstance(t, Var))

    images: set[frozenset[str]] = set()

    def rec(i: int, env: dict[str, str], tids: tuple[str, ...]) -> None:
        if i == len(plans):
            images.add(frozenset(tids))
            return
        atom, keys, index = plans[i]
        key = tuple(atom.args[p].value if isinstance(atom.args[p], Const)
                    else env[atom.args[p].name] for p in keys)
        for fact in index.get(key, ()):
            new = dict(env)
            for term, val in zip(atom.args, fact.vals):
                if isinstance(term, Var):
                    new[term.name] = val
            rec(i + 1, new, tids + (fact.tid,))

    rec(0, {}, ())
    return images


def _consistent(atom, fact) -> bool:
    seen: dict[str, str] = {}
    for term, val in zip(atom.args, fact.vals):
        if isinstance(term, Const):
            if term.value != val:
                return False
        elif seen.setdefault(term.name, val) != val:
            return False
    return True


def minimal(sets) -> list[frozenset[str]]:
    """The subset-minimal members, deduplicated, ordered by (size, tids)."""
    out: list[frozenset[str]] = []
    for s in sorted(set(sets), key=lambda s: (len(s), sorted(s))):
        if not any(t <= s for t in out):
            out.append(s)
    return out


def transversals(edges) -> list[frozenset[str]]:
    """Minimal transversals by Berge's edge-by-edge multiplication, on
    bitmasks.  An empty edge family has the empty set as sole transversal."""
    edges = minimal(edges)
    names = sorted({v for e in edges for v in e})
    bit = {v: 1 << i for i, v in enumerate(names)}
    masks = [sum(bit[v] for v in e) for e in edges]
    current = [0]
    for e in masks:
        grown = {t for t in current if t & e}
        rest = [t for t in current if not t & e]
        for t in rest:
            b = e
            while b:
                low = b & -b
                grown.add(t | low)
                b ^= low
        kept: list[int] = []
        for t in sorted(grown, key=lambda m: m.bit_count()):
            if not any(k & t == k for k in kept):
                kept.append(t)
        current = kept
    out = [frozenset(v for v in names if m & bit[v]) for m in current]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def union(sets) -> frozenset[str]:
    out: set[str] = set()
    for s in sets:
        out |= s
    return frozenset(out)


class CQReference:
    """Every family and degree of one (instance, Boolean CQ) pair."""

    def __init__(self, instance, query: BooleanCQ):
        self.instance = instance
        self.query = query
        self.tids = instance.tids()
        self.endo = instance.endogenous_part()
        self.exo = instance.exogenous_part()
        self.images = cq_images(query, instance)
        self.witnesses = minimal(self.images)
        self.mss = minimal(s & self.endo for s in self.images)
        self.exo_satisfies = frozenset() in self.mss
        self._mns = None
        self._repairs = None
        self.verified: set[tuple[str, frozenset[str]]] = set()

    @property
    def mns(self) -> list[frozenset[str]]:
        if self._mns is None:
            self._mns = [] if self.exo_satisfies else transversals(self.mss)
        return self._mns

    @property
    def repair_removals(self) -> list[frozenset[str]]:
        """Removal sets of the subset-repairs when every tuple is deletable."""
        if self._repairs is None:
            self._repairs = transversals(self.witnesses) if self.witnesses else [frozenset()]
        return self._repairs

    def mixed_predicate(self) -> bool:
        """Does some query predicate mix endogenous and exogenous tuples?"""
        for atom in self.query.atoms:
            if len({f.endo for f in self.instance.relation(atom.pred)}) > 1:
                return True
        return False

    def endo_predicate_tuples(self) -> frozenset[str]:
        preds = {a.pred for a in self.query.atoms
                 if all(f.endo for f in self.instance.relation(a.pred))}
        return frozenset(f.tid for f in self.instance.facts if f.pred in preds)

    def participating(self) -> frozenset[str]:
        return union(self.images)

    def naive_core(self) -> frozenset[str]:
        return self.tids - union(self.witnesses)

    def rewritten_core(self) -> frozenset[str]:
        """What the participation rewriting is documented to compute: the
        instance minus the participating tuples of endogenous predicates."""
        return self.tids - (self.participating() & self.endo_predicate_tuples())

    def repair_core(self) -> frozenset[str] | None:
        """The core of the repairs that delete endogenous tuples only; None
        when the exogenous part alone violates the constraint."""
        if self.exo_satisfies:
            return None
        return self.tids - union(self.mss)

    def eta(self, tid: str) -> Fraction:
        return _inverse_min(self.mns, tid)

    def sigma(self, tid: str) -> Fraction:
        return _inverse_min(self.mss, tid)

    def degrees(self) -> dict:
        out = {}
        for tid in sorted(self.tids):
            if tid in self.endo:
                eta, sigma = self.eta(tid), self.sigma(tid)
                strong_n = bool(self.mns) and all(tid in n for n in self.mns)
                strong_s = bool(self.mss) and all(tid in s for s in self.mss)
            else:
                eta = sigma = Fraction(0)
                strong_n = strong_s = False
            out[tid] = {"eta": str(eta), "sigma": str(sigma), "rho": str(eta),
                        "strong_necessary": strong_n, "strong_sufficient": strong_s}
        return out

    def causes(self) -> dict:
        out = {}
        for tid in sorted(self.endo):
            gammas = minimal(n - {tid} for n in self.mns if tid in n)
            if gammas:
                out[tid] = sorted(sorted(g) for g in gammas)
        return out


def _inverse_min(family, tid: str) -> Fraction:
    sizes = [len(s) for s in family if tid in s]
    return Fraction(1, min(sizes)) if sizes else Fraction(0)


def grid_path_count(rows: int, cols: int) -> int:
    """Paths from the top-left to the bottom-right node of a grid whose
    edges point right and down."""
    return comb(rows + cols - 2, rows - 1)


def is_simple_path(edges, source: str, target: str) -> bool:
    """Do the edges form one path from source to target that visits no
    node twice?  Such an edge set is a minimal witness of reachability."""
    step = dict(edges)
    if len(step) != len(edges):
        return False
    node, seen = source, {source}
    for _ in edges:
        node = step.get(node)
        if node is None or node in seen:
            return False
        seen.add(node)
    return node == target


def sorted_sets(family) -> list[list[str]]:
    return sorted(sorted(s) for s in family)
