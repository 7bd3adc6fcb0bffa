"""Boolean monotone queries: parsing, evaluation, witness enumeration.

Two query forms are supported:

* Boolean conjunctive queries, written ``q :- S(x), R(x,y), S(y).``
  Variables are lowercase identifiers; a term is a constant when it is
  quoted or when it occurs in the instance's active domain.
* a reachability built-in, written ``q :- path(E, a, b).`` asking whether
  node ``b`` is reachable from node ``a`` over the binary edge predicate
  ``E`` (one or more edges).

Both forms are monotone: adding facts never turns a true answer false.
Witnesses are the subset-minimal fact sets that already satisfy the query;
for conjunctive queries these are the minimized images of satisfying
assignments (under self-joins one fact may serve several atoms), for
reachability queries the edge sets of simple source-to-target paths.
"""

from __future__ import annotations

import itertools
import re
import weakref
from dataclasses import dataclass
from operator import itemgetter
from typing import (Callable, Collection, Iterable, Iterator, Mapping, NamedTuple,
                    Optional, Sequence, Union)

from .errors import (
    PathBoundExceeded,
    QuerySyntaxError,
    UnknownPredicate,
    UnsupportedQuery,
)
from .model import Fact, Instance

__all__ = [
    "Var", "Const", "Atom", "BooleanCQ", "ReachabilityQuery", "Query",
    "Witness", "DenialConstraint", "parse_query", "evaluate",
    "enumerate_witnesses", "denial_constraint_of", "DEFAULT_MAX_PATHS",
]

DEFAULT_MAX_PATHS = 100_000


class Var(NamedTuple):
    name: str


class Const(NamedTuple):
    value: str


Term = Union[Var, Const]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...]

    def variables(self) -> tuple[str, ...]:
        out, seen = [], set()
        for t in self.args:
            if isinstance(t, Var) and t.name not in seen:
                seen.add(t.name)
                out.append(t.name)
        return tuple(out)

    def __str__(self) -> str:
        parts = [t.name if isinstance(t, Var) else repr(t.value) for t in self.args]
        return f"{self.pred}({','.join(parts)})"


@dataclass(frozen=True)
class BooleanCQ:
    """A Boolean conjunctive query: every variable is existential."""

    atoms: tuple[Atom, ...]

    @property
    def k(self) -> int:
        return len(self.atoms)

    @property
    def self_join_free(self) -> bool:
        preds = [a.pred for a in self.atoms]
        return len(preds) == len(set(preds))

    def variables(self) -> tuple[str, ...]:
        out, seen = [], set()
        for a in self.atoms:
            for v in a.variables():
                if v not in seen:
                    seen.add(v)
                    out.append(v)
        return tuple(out)

    def __str__(self) -> str:
        return "q :- " + ", ".join(str(a) for a in self.atoms) + "."


@dataclass(frozen=True)
class ReachabilityQuery:
    """Is `target` reachable from `source` via >= 1 edges of `edge_pred`?"""

    edge_pred: str
    source: str
    target: str

    def __str__(self) -> str:
        return f"q :- path({self.edge_pred}, {self.source}, {self.target})."


Query = Union[BooleanCQ, ReachabilityQuery]


@dataclass(frozen=True)
class Witness:
    """A subset-minimal fact set satisfying the query.

    ``assignment`` is a representative satisfying assignment for
    conjunctive queries and None for reachability queries.
    """

    tuples: frozenset[str]
    assignment: Optional[Mapping[str, str]] = None

    def sort_key(self) -> tuple[str, ...]:
        return tuple(sorted(self.tuples))


@dataclass(frozen=True)
class DenialConstraint:
    """The negation of a Boolean CQ; violated exactly when the CQ holds."""

    body: BooleanCQ

    def __str__(self) -> str:
        return "not exists(" + ", ".join(str(a) for a in self.body.atoms) + ")"


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(
    r"\s*(?:(?P<entail>:-)|(?P<punct>[(),.])|"
    r"(?P<quoted>'[^']*'|\"[^\"]*\")|(?P<word>[A-Za-z0-9_]+))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens, pos = [], 0
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = _TOKEN.match(text, pos)
        if not m:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r} at offset {pos}")
        if m.lastgroup == "entail":
            tokens.append(("entail", ":-", m.start("entail")))
        elif m.lastgroup == "punct":
            tokens.append((m.group("punct"), m.group("punct"), m.start("punct")))
        elif m.lastgroup == "quoted":
            tokens.append(("const", m.group("quoted")[1:-1], m.start("quoted")))
        else:
            tokens.append(("word", m.group("word"), m.start("word")))
        pos = m.end()
    return tokens


_LOWER_IDENT = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], constants: frozenset[str]):
        self.tokens = tokens
        self.constants = constants
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        if self.i >= len(self.tokens):
            return ("eof", "", -1)
        return self.tokens[self.i]

    def expect(self, kind: str) -> str:
        k, text, pos = self.peek()
        if k != kind:
            raise QuerySyntaxError(f"expected {kind!r} but found {text or 'end of input'!r}"
                                   f"{'' if pos < 0 else f' at offset {pos}'}")
        self.i += 1
        return text

    def term(self) -> Term:
        k, text, pos = self.peek()
        if k == "const":
            self.i += 1
            return Const(text)
        if k == "word":
            self.i += 1
            if text in self.constants or not _LOWER_IDENT.match(text):
                return Const(text)
            return Var(text)
        raise QuerySyntaxError(f"expected a term at offset {pos}, found {text!r}")

    def atom(self) -> Atom:
        pred = self.expect("word")
        self.expect("(")
        args = [self.term()]
        while self.peek()[0] == ",":
            self.i += 1
            args.append(self.term())
        self.expect(")")
        return Atom(pred, tuple(args))


def parse_query(
    text: str,
    instance: Instance | None = None,
    *,
    schema: Mapping[str, int] | None = None,
    constants: frozenset[str] | None = None,
) -> Query:
    """Parse query text against an instance (or explicit schema/domain).

    The instance supplies the schema (for arity checking) and the active
    domain (for classifying unquoted tokens as constants).  Unquoted
    lowercase identifiers outside the domain become variables.
    """
    if instance is not None:
        if schema is None:
            schema = instance.schema
        if constants is None:
            constants = instance.domain()
    constants = constants or frozenset()

    tokens = _tokenize(text)
    p = _Parser(tokens, frozenset(constants))
    p.expect("word")  # query head name
    if p.peek()[0] == "(":
        raise QuerySyntaxError("free variables are not allowed: the query head "
                               "must be a bare name (Boolean query)")
    p.expect("entail")
    atoms = [p.atom()]
    while p.peek()[0] == ",":
        p.i += 1
        atoms.append(p.atom())
    p.expect(".")
    if p.peek()[0] != "eof":
        raise QuerySyntaxError(f"trailing input after '.': {p.peek()[1]!r}")

    if len(atoms) == 1 and atoms[0].pred == "path":
        a = atoms[0]
        if len(a.args) != 3:
            raise QuerySyntaxError("path/3 expects (EdgePred, source, target)")
        names = []
        for t in a.args:
            names.append(t.value if isinstance(t, Const) else t.name)
        edge_pred, source, target = names
        if schema is not None:
            if edge_pred not in schema:
                raise UnknownPredicate(f"unknown edge predicate {edge_pred!r}")
            if schema[edge_pred] != 2:
                raise QuerySyntaxError(f"edge predicate {edge_pred!r} must be binary")
        return ReachabilityQuery(edge_pred, source, target)

    if schema is not None:
        for a in atoms:
            if a.pred not in schema:
                raise UnknownPredicate(f"unknown predicate {a.pred!r}")
            if schema[a.pred] != len(a.args):
                raise QuerySyntaxError(
                    f"{a.pred} expects {schema[a.pred]} arguments, got {len(a.args)}")
    return BooleanCQ(tuple(atoms))


# ---------------------------------------------------------------------------
# conjunctive query evaluation (a backtracking join over atoms in textual
# order, each atom probing a hash index of its facts on its bound positions)

def _extend_env(atom: Atom, fact: Fact, env: dict[str, str]) -> dict[str, str] | None:
    new = dict(env)
    for term, val in zip(atom.args, fact.vals):
        if isinstance(term, Const):
            if term.value != val:
                return None
        else:
            bound = new.get(term.name)
            if bound is None:
                new[term.name] = val
            elif bound != val:
                return None
    return new


def _check_preds(query: BooleanCQ, instance: Instance) -> None:
    schema = instance.schema
    for a in query.atoms:
        if a.pred not in schema:
            raise UnknownPredicate(f"unknown predicate {a.pred!r}")
        if schema[a.pred] != len(a.args):
            raise QuerySyntaxError(
                f"{a.pred} expects {schema[a.pred]} arguments, got {len(a.args)}")


_Probe = Callable[[Mapping[str, str]], Sequence[Fact]]


def _probe(atom: Atom, pool: Sequence[Fact], env: Mapping[str, str]) -> _Probe:
    """The candidates of an atom under an environment binding the variables
    of the atoms before it: the pool, less the facts that miss the atom's
    constants, hash-indexed on the positions of the bound variables.
    Buckets keep pool order."""
    consts, positions, names = [], [], []
    for p, t in enumerate(atom.args):
        if isinstance(t, Const):
            consts.append((p, t.value))
        elif t.name in env:
            positions.append(p)
            names.append(t.name)
    if consts:
        pool = [f for f in pool if all(f.vals[p] == v for p, v in consts)]
    if not positions:
        return lambda env: pool
    key_of, probe = itemgetter(*positions), itemgetter(*names)
    index: dict[object, list[Fact]] = {}
    for f in pool:
        index.setdefault(key_of(f.vals), []).append(f)
    return lambda env: index.get(probe(env), ())


def _join_from(i: int, env: dict[str, str], bound: tuple[Fact, ...],
               atoms: Sequence[Atom], pools: Sequence[Sequence[Fact]],
               probes: list[_Probe | None]
               ) -> Iterator[tuple[dict[str, str], tuple[Fact, ...]]]:
    # not a closure: a nested recursive generator refers to itself, and
    # that cycle would keep the indexes alive until the cyclic collector runs
    if i == len(atoms):
        yield env, bound
        return
    atom, probe = atoms[i], probes[i]
    if probe is None:
        # env binds exactly the variables of atoms[:i], at every visit
        probe = probes[i] = _probe(atom, pools[i], env)
    for fact in probe(env):
        new = _extend_env(atom, fact, env)
        if new is not None:
            yield from _join_from(i + 1, new, bound + (fact,), atoms, pools, probes)


def _assignments(query: BooleanCQ, instance: Instance) -> Iterator[tuple[dict[str, str], tuple[Fact, ...]]]:
    """All satisfying assignments, as (environment, per-atom fact binding),
    atoms in textual order and facts in tid order: a backtracking join in
    which each atom probes its extension through a ``_probe`` built when
    the search first reaches it, so the pairs come in the order of a
    nested loop over the extensions, but only candidates that agree on the
    bound positions are tried."""
    atoms = query.atoms
    return _join_from(0, {}, (), atoms, [instance.relation(a.pred) for a in atoms],
                      [None] * len(atoms))


def _reachable(instance: Instance, query: ReachabilityQuery) -> bool:
    succ: dict[str, list[str]] = {}
    for f in instance.relation(query.edge_pred):
        succ.setdefault(f.vals[0], []).append(f.vals[1])
    # reached via >= 1 edge, matching the least fixpoint of the usual
    # transitive-closure rules (no zero-length paths)
    frontier = list(succ.get(query.source, ()))
    seen = set(frontier)
    while frontier:
        node = frontier.pop()
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return query.target in seen


def evaluate(query: Query, instance: Instance) -> bool:
    """Does the instance satisfy the query?"""
    if isinstance(query, ReachabilityQuery):
        if query.edge_pred not in instance.schema:
            raise UnknownPredicate(f"unknown predicate {query.edge_pred!r}")
        return _reachable(instance, query)
    _check_preds(query, instance)
    return next(_assignments(query, instance), None) is not None


def _simple_paths(instance: Instance, query: ReachabilityQuery,
                  max_paths: int) -> list[frozenset[str]]:
    """Edge sets of the simple source-to-target paths, depth first, with
    an explicit stack so that path length is not bounded by recursion."""
    by_src: dict[str, list[Fact]] = {}
    for f in instance.relation(query.edge_pred):
        by_src.setdefault(f.vals[0], []).append(f)
    paths: list[frozenset[str]] = []
    stack = [(iter(by_src.get(query.source, ())),
              frozenset({query.source}), ())]
    while stack:
        edges_out, visited, edges = stack[-1]
        f = next(edges_out, None)
        if f is None:
            stack.pop()
            continue
        nxt = f.vals[1]
        if nxt == query.target:
            paths.append(frozenset(edges + (f.tid,)))
            if len(paths) > max_paths:
                raise PathBoundExceeded(
                    f"more than {max_paths} simple paths; raise the path bound")
            continue
        if nxt in visited:
            continue
        stack.append((iter(by_src.get(nxt, ())), visited | {nxt},
                      edges + (f.tid,)))
    return paths


def _antichain(sets: Iterable[frozenset[str]]) -> list[frozenset[str]]:
    """Keep the subset-minimal members (deduplicated), ordered by
    (size, tids)."""
    uniq = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
    kept: list[frozenset[str]] = []
    for s in uniq:
        if not any(t <= s for t in kept):
            kept.append(s)
    return kept


def _minimal_members(family: Collection[frozenset[str]]) -> tuple[frozenset[str], ...]:
    """The members with no proper subset in the family, decided by looking
    up each member's proper subsets of the sizes that members have: at
    most 2^k, as no member here has more than k tuples."""
    sizes = {len(s) for s in family}
    return tuple(s for s in family
                 if not any(frozenset(sub) in family
                            for size in sizes if size < len(s)
                            for sub in itertools.combinations(s, size)))


class _WitnessIndex(NamedTuple):
    images: dict[frozenset[str], dict[str, str]]  # image -> first assignment
    minimal: tuple[frozenset[str], ...]  # the minimal images: the witnesses
    per_atom: tuple[frozenset[str], ...]  # per atom position, its tuples
    antichain: tuple[frozenset[str], ...]  # W: minimal endogenous projections

    def union(self) -> frozenset[str]:
        """The tuples in some minimal sufficient set."""
        return frozenset().union(*self.antichain)


# the most recent (instance, query) pair and its index
_last_index: tuple[weakref.ref[Instance], BooleanCQ, _WitnessIndex] | None = None


def _witness_index(query: BooleanCQ, instance: Instance) -> _WitnessIndex:
    """The witness index of the pair, built once per instance and query.

    One slot remembers the most recent pair, since calls on one pair come
    together; an index per instance would keep one for every live
    instance.  Instances are immutable, so identity matches the pair
    exactly and cheaply, where hashing would hash every fact.  The query
    is matched by identity too: equality cannot tell ``Var('x')`` from
    ``Const('x')``, so ``R(x,y)`` and ``R('x',y)`` compare equal.  The
    slot holds the instance weakly, so it keeps none alive and a recycled
    id never matches, and it holds the query strongly, so its id is not
    reused while it is kept.  It is replaced by one assignment, so a
    concurrent caller sees a whole pair or rebuilds."""
    global _last_index
    last = _last_index
    if last is not None and last[0]() is instance and last[1] is query:
        return last[2]
    index = _build_witness_index(query, instance)
    _last_index = (weakref.ref(instance), query, index)
    return index


def _build_witness_index(query: BooleanCQ, instance: Instance) -> _WitnessIndex:
    """One pass over the satisfying assignments.  A set satisfies the
    query when it contains an image, and a set of endogenous tuples is
    sufficient when it contains an image's endogenous projection; so the
    minimal images are the witnesses, and their minimal projections are
    the minimal sufficient sets."""
    _check_preds(query, instance)
    images: dict[frozenset[str], dict[str, str]] = {}
    per_atom: list[set[str]] = [set() for _ in query.atoms]
    for env, bound in _assignments(query, instance):
        images.setdefault(frozenset(f.tid for f in bound), env)
        for r_i, f in zip(per_atom, bound):
            r_i.add(f.tid)
    minimal = _minimal_members(images)
    endo = instance.endogenous_part()
    return _WitnessIndex(images, minimal, tuple(map(frozenset, per_atom)),
                         _minimal_members({image & endo for image in minimal}))


def enumerate_witnesses(query: Query, instance: Instance, *,
                        max_paths: int = DEFAULT_MAX_PATHS) -> tuple[Witness, ...]:
    """All subset-minimal witnesses; empty iff the query is false."""
    if isinstance(query, ReachabilityQuery):
        if query.edge_pred not in instance.schema:
            raise UnknownPredicate(f"unknown predicate {query.edge_pred!r}")
        # edge sets of distinct simple paths are never comparable, so the
        # family is already an antichain
        paths = _simple_paths(instance, query, max_paths)
        witnesses = [Witness(tuples=p) for p in sorted(set(paths), key=sorted)]
        return tuple(sorted(witnesses, key=Witness.sort_key))
    index = _witness_index(query, instance)
    witnesses = [Witness(tuples=s, assignment=dict(index.images[s]))
                 for s in index.minimal]
    return tuple(sorted(witnesses, key=Witness.sort_key))


def denial_constraint_of(query: Query) -> DenialConstraint:
    """The denial constraint violated exactly when the CQ is satisfied."""
    if not isinstance(query, BooleanCQ):
        raise UnsupportedQuery("denial constraints are only defined for "
                               "Boolean conjunctive queries")
    return DenialConstraint(body=query)
