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

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import (Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, NoReturn,
                    Optional, TypeVar, Union)

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
    "enumerate_witnesses", "denial_constraint_of",
]

# Caps of one simple-path walk: the paths it keeps, and the nodes it
# enters (with CPython 3.11 on x86-64, 2M entries take about 1-2 s).
MAX_PATHS = 100_000
MAX_PATH_STEPS = 2_000_000
# The tuples that the sets one listing keeps may hold: the walk's paths
# here, the transversal searches' sets in :mod:`dbexplain.repairs` (2M
# tuples in frozensets take 50-200 MB).
MAX_HELD_TUPLES = 2_000_000


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Const:
    value: str


Term = Union[Var, Const]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...]

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


class Witness(NamedTuple):
    """A subset-minimal fact set satisfying the query (an immutable named
    tuple, cheaper to build than a frozen dataclass).

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
    tokens, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if not m:
            pos = len(text) - len(text[pos:].lstrip())
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
        query: Query = ReachabilityQuery(
            *(t.value if isinstance(t, Const) else t.name for t in a.args))
    else:
        query = BooleanCQ(tuple(atoms))
    if schema is not None:
        _check_schema(query, schema)
    return query


def _check_schema(query: Query, schema: Mapping[str, int]) -> None:
    """Every predicate of the query is declared, at the arity it is used
    at; a reachability query's edge predicate is binary."""
    if isinstance(query, ReachabilityQuery):
        if query.edge_pred not in schema:
            raise UnknownPredicate(f"unknown edge predicate {query.edge_pred!r}")
        if schema[query.edge_pred] != 2:
            raise QuerySyntaxError(f"edge predicate {query.edge_pred!r} must be binary")
        return
    for a in query.atoms:
        if a.pred not in schema:
            raise UnknownPredicate(f"unknown predicate {a.pred!r}")
        if schema[a.pred] != len(a.args):
            raise QuerySyntaxError(
                f"{a.pred} expects {schema[a.pred]} arguments, got {len(a.args)}")


# ---------------------------------------------------------------------------
# conjunctive query evaluation: a lazy pipeline of stages, one per atom in
# textual order, over binding tuples (one fact per atom bound so far).  A
# stage is a generator extending each incoming binding by the atom's facts
# in a bucket of the instance's hash index on the positions of its
# constants and bound variables (``Instance.probe``), keyed by values read
# off the binding; it builds that probe when the first binding reaches it.
# Generator nesting never exceeds _GROUP stages, so neither the join nor
# ``evaluate`` recurses with query length.

_tid = attrgetter("tid")
_GROUP = 32  # the stages chained in one group


def _variables(query: BooleanCQ) -> dict[str, tuple[int, int]]:
    """Each variable's first (atom, position), in order of first occurrence."""
    first: dict[str, tuple[int, int]] = {}
    for j, atom in enumerate(query.atoms):
        for p, t in enumerate(atom.args):
            if isinstance(t, Var):
                first.setdefault(t.name, (j, p))
    return first


def _stage(stream: Iterator[tuple], instance: Instance, atom: Atom, j: int,
           first: dict[str, tuple[int, int]]) -> Iterator[tuple]:
    """Atom j's stage.  When the first binding arrives it files the atom's
    new variables in ``first`` (each variable's first (atom, position); the
    stages before it have filed theirs) and keys the probe on the
    positions of the atom's constants, as (None, value), and of the
    variables that earlier atoms bind, as their first (atom, position),
    where each binding holds their values.  A fact must also agree on the
    positions of a new variable that the atom repeats.  A key of one bound
    position is read straight off each binding; any other is built."""
    get = None
    for b in stream:
        if get is None:
            positions, parts, agree = [], [], []
            for p, t in enumerate(atom.args):
                i, q = ((None, t.value) if isinstance(t, Const)
                        else first.setdefault(t.name, (j, p)))
                if i is None or i < j:
                    positions.append(p)
                    parts.append((i, q))
                elif q < p:
                    agree.append((q, p))
            get = (instance.probe(atom.pred, tuple(positions)) if positions
                   else {(): instance.relation(atom.pred)}).get
            bj, bp = parts[0] if len(parts) == 1 and not agree else (None, None)
        if bj is not None:
            for f in get(b[bj].vals[bp], ()):
                yield b + (f,)
        else:
            key = [v if i is None else b[i].vals[v] for i, v in parts]
            for f in get(key[0] if len(key) == 1 else tuple(key), ()):
                if not agree or all(f.vals[q] == f.vals[p] for q, p in agree):
                    yield b + (f,)


def _pipeline(query: BooleanCQ, instance: Instance, first: dict[str, tuple[int, int]],
              lo: int, stream: Iterator[tuple]) -> Iterator[tuple]:
    """The stream through the stages of atoms lo to lo + _GROUP - 1."""
    for j in range(lo, min(lo + _GROUP, query.k)):
        stream = _stage(stream, instance, query.atoms[j], j, first)
    return stream


def _bindings(query: BooleanCQ, instance: Instance) -> Iterator[tuple[Fact, ...]]:
    """The bindings of the satisfying assignments, one fact per atom, in a
    nested loop's order (atoms in textual order, facts in tid order),
    trying only candidates that agree on the bound positions.  Lazy and
    depth-first: ``evaluate`` stops at the first binding.  Past _GROUP
    atoms, each binding out of a group of stages seeds a new pipeline of
    the next group, pushed on an explicit stack."""
    if query.k <= _GROUP:
        return _pipeline(query, instance, {}, 0, iter(((),)))
    return _grouped(query, instance)


def _grouped(query: BooleanCQ, instance: Instance) -> Iterator[tuple[Fact, ...]]:
    first: dict[str, tuple[int, int]] = {}
    stack = [_pipeline(query, instance, first, 0, iter(((),)))]
    while stack:
        b = next(stack[-1], None)
        if b is None:
            stack.pop()
        elif len(b) == query.k:
            yield b
        else:
            stack.append(_pipeline(query, instance, first, len(b), iter((b,))))


def _reach(links: Mapping[str, list[str]], start: Iterable[str]) -> set[str]:
    """The nodes reached from start over links (node -> nodes), start included."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        for nxt in links.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _reachable(instance: Instance, query: ReachabilityQuery) -> bool:
    succ: dict[str, list[str]] = {}
    for f in instance.relation(query.edge_pred):
        succ.setdefault(f.vals[0], []).append(f.vals[1])
    # reached via >= 1 edge, matching the least fixpoint of the usual
    # transitive-closure rules (no zero-length paths)
    return query.target in _reach(succ, succ.get(query.source, ()))


def evaluate(query: Query, instance: Instance) -> bool:
    """Does the instance satisfy the query?"""
    _check_schema(query, instance._arities)
    if isinstance(query, ReachabilityQuery):
        return _reachable(instance, query)
    return next(_bindings(query, instance), None) is not None


def _refuse_steps() -> NoReturn:
    raise PathBoundExceeded(f"the simple-path walk entered {MAX_PATH_STEPS + 1:,} nodes, "
                            f"past the cap {MAX_PATH_STEPS:,}")


def _simple_paths(instance: Instance, query: ReachabilityQuery) -> list[tuple[str, ...]]:
    """The tids of the simple source-to-target paths, each a sorted tuple
    (which the collector stops tracking at its first pass), in depth-first
    order, with an explicit stack so that path length is not bounded by
    recursion.

    The walk enters only live nodes, those with a path of zero or more
    edges to the target (one backward search finds them), so a part of
    the graph that never reaches the target costs nothing.  A run node is
    a live node other than the target whose one live edge leads to the
    target or to a run node; a cycle of such nodes never reaches the
    target, so each run ends there, and a second backward pass from the
    target finds the runs.  The walk pushes no run node: at an edge into
    one it keeps the path, the pushed edges plus the run's tids to the
    target, which never change; so the first entry at a run node reads its
    run up to the first node already read and keeps the sorted tids in a
    memo local to the call, seeded with the target's empty run.  No run
    node is on the path then, since only pushed nodes and the source are,
    and a source that is a run node starts a walk that is its run alone.
    The visited set and the path's nodes and edges change in place with
    the stack; the memo is looked up first, so cycles through a source
    that is the target count.

    Each node entered costs a step, a run node on every path through it,
    so a walk with few paths can still take exponential time: past
    MAX_PATHS paths kept, MAX_PATH_STEPS nodes entered or MAX_HELD_TUPLES
    tuples in the paths kept the call raises.  The memo holds one tail of
    a kept path per run node entered."""
    source, target = query.source, query.target
    facts = instance.relation(query.edge_pred)
    into: dict[str, list[str]] = {}
    for f in facts:
        into.setdefault(f.vals[1], []).append(f.vals[0])
    live = _reach(into, (target,))
    out: dict[str, list[tuple[str, str]]] = {}  # node -> its live edges (tid, head)
    for f in facts:
        if f.vals[1] in live:
            out.setdefault(f.vals[0], []).append((f.tid, f.vals[1]))
    run: dict[str, tuple[str, str]] = {}  # run node -> its live edge
    frontier = [target]
    while frontier:
        # the one live edge of u leads here, so u is seen once
        for u in into.get(frontier.pop(), ()):
            if len(out[u]) == 1 and u != target:
                run[u] = out[u][0]
                frontier.append(u)
    paths: list[tuple[str, ...]] = []
    tails: dict[str, tuple[str, ...]] = {target: ()}  # node -> its run's sorted tids
    visited, nodes, tids, steps, held = {source}, [], [], 0, 0
    stack = [iter(out.get(source, ()))]
    while stack:
        edge = next(stack[-1], None)
        if edge is None:
            stack.pop()
            if nodes:
                visited.remove(nodes.pop())
                tids.pop()
            continue
        tid, nxt = edge
        tail = tails.get(nxt)
        if tail is None and nxt in run:
            read, node = [], nxt
            while node not in tails:
                t, node = run[node]
                read.append(t)
            read += tails[node]
            read.sort()
            tail = tails[nxt] = tuple(read)
        if tail is not None:
            steps += len(tail)
            if steps > MAX_PATH_STEPS:
                _refuse_steps()
            key = [*tids, tid, *tail]
            held += len(key)
            if held > MAX_HELD_TUPLES:
                raise PathBoundExceeded(f"{len(paths) + 1:,} simple paths would hold "
                                        f"{held:,} tuples, past the cap {MAX_HELD_TUPLES:,}")
            key.sort()
            paths.append(tuple(key))
            if len(paths) > MAX_PATHS:
                raise PathBoundExceeded(
                    f"{len(paths):,} simple paths pass the cap {MAX_PATHS:,}")
        elif nxt not in visited:
            steps += 1
            if steps > MAX_PATH_STEPS:
                _refuse_steps()
            visited.add(nxt)
            nodes.append(nxt)
            tids.append(tid)
            stack.append(iter(out[nxt]))
    return paths


def _minimal_members(family: Collection[frozenset[str]]) -> list[frozenset[str]]:
    """The members of a family of distinct sets with no proper subset in
    it, in family order.  A proper subset is a smaller member, whose least
    tuple lies in the superset; so the members below the largest size are
    filed under their least tuple, each member above the smallest size is
    tested only against those filed under its own tuples, and a family of
    one size comes back whole.  The empty set is below every other."""
    sizes = {len(s) for s in family}
    if 0 in sizes:
        return [frozenset()]
    if len(sizes) < 2:
        return list(family)
    low, high = min(sizes), max(sizes)
    filed: dict[str, list[frozenset[str]]] = {}
    for s in family:
        if len(s) < high:
            filed.setdefault(min(s), []).append(s)
    return [s for s in family if len(s) == low
            or not any(f < s for t in s for f in filed.get(t, ()))]


_T = TypeVar("_T")


class _WitnessIndex(NamedTuple):
    images: dict[frozenset[str], tuple[Fact, ...]]  # image -> its first binding
    minimal: tuple[frozenset[str], ...]  # the minimal images (the witnesses), by tids
    per_atom: tuple[frozenset[str], ...]  # per atom position, its tuples
    antichain: tuple[frozenset[str], ...]  # W: minimal endogenous projections, by tids
    kept: dict[object, object]  # parts read off the fields above (see keep)

    def keep(self, key: object, build: Callable[[], _T]) -> _T:
        """The part kept under key, built at its first use.  It is stored
        by one assignment, as the index itself is, so a concurrent caller
        sees a whole part or builds its own; each index keeps its own
        parts, and a pickled instance leaves them out with the index."""
        part = self.kept.get(key)
        if part is None:
            part = self.kept[key] = build()
        return part

    def union(self) -> frozenset[str]:
        """The tuples in some minimal sufficient set."""
        return self.keep("union", lambda: frozenset().union(*self.antichain))


def _witness_index(query: Query, instance: Instance) -> _WitnessIndex:
    """The witness index of the pair.  An instance keeps the index of the
    latest conjunctive query asked of it for as long as it lives, as it
    keeps its probes, and leaves it out of a pickle.  Only a conjunctive
    query has one, so every operation read off it refuses any other query
    here, with ``UnsupportedQuery``.

    The query is matched by identity, since calls on one pair pass the
    same query object and equality would compare every term of every
    atom; the instance holds the query, so its id is not reused while it
    is kept.  The (query, index) pair is replaced by one assignment, so a
    concurrent caller sees a whole pair or rebuilds.  The index keeps what
    the families read off it at their first use (``_WitnessIndex.keep``):
    the union of W and the connected components of W and of the minimal
    images (see ``repairs._kept_components``), so a new query's index
    starts with none of them."""
    if not isinstance(query, BooleanCQ):
        raise UnsupportedQuery("this operation reads the witness index, which only "
                               "Boolean conjunctive queries have")
    kept = instance.__dict__.get("_witness_index")
    if kept is not None and kept[0] is query:
        return kept[1]
    index = _build_witness_index(query, instance)
    instance.__dict__["_witness_index"] = (query, index)
    return index


def _build_witness_index(query: BooleanCQ, instance: Instance) -> _WitnessIndex:
    """One pass over the join's bindings.  A set satisfies the query when
    it contains an image, and a set of endogenous tuples is sufficient
    when it contains an image's endogenous projection; so the minimal
    images are the witnesses, and their minimal projections are the
    minimal sufficient sets.  The pass keeps each binding, files each
    image under its first binding, and reads each atom's tuples off the
    kept bindings.  When no bound tuple is exogenous each image is its own
    projection, so ``W`` is the minimal images themselves, and the
    instance's endogenous part is not built; otherwise the projections
    are deduplicated and their minimal members sorted.  Both families are
    ordered by their sorted tids, which are distinct, once here, so every
    family read off them and every component split of them comes in tid
    order."""
    _check_schema(query, instance._arities)
    bindings = list(_bindings(query, instance))
    images: dict[frozenset[str], tuple[Fact, ...]] = {}
    for b in bindings:
        images.setdefault(frozenset(map(_tid, b)), b)
    minimal = tuple(sorted(_minimal_members(images), key=sorted))
    per_atom = tuple(frozenset([b[i].tid for b in bindings]) for i in range(query.k))
    if all(f.endo for b in bindings for f in b):
        antichain = minimal
    else:
        endo = instance.endogenous_part()
        antichain = tuple(sorted(_minimal_members(dict.fromkeys(s & endo for s in minimal)),
                                 key=sorted))
    return _WitnessIndex(images, minimal, per_atom, antichain, {})


def enumerate_witnesses(query: Query, instance: Instance) -> tuple[Witness, ...]:
    """All subset-minimal witnesses, ordered by their sorted tids; empty
    iff the query is false.

    For a conjunctive query these are the minimal images of the witness
    index, which keeps them in that order, and each witness gets a new
    dict of the assignment its image's first binding makes.
    For a reachability query these are the edge sets of the simple paths,
    found by a walk that enters only nodes that reach the target and reads
    each forced run of one-edge nodes once per node it is entered from
    (see ``_simple_paths``); each is wrapped as a bare tuple, skipping the
    named tuple's Python-level constructor."""
    if isinstance(query, ReachabilityQuery):
        _check_schema(query, instance._arities)
        # edge sets of distinct simple paths are distinct and never
        # comparable, so the family is already an antichain
        paths = _simple_paths(instance, query)
        paths.sort()
        return tuple(tuple.__new__(Witness, (frozenset(p), None)) for p in paths)
    index = _witness_index(query, instance)
    images, variables = index.images, _variables(query).items()
    return tuple(Witness(s, {name: images[s][j].vals[p] for name, (j, p) in variables})
                 for s in index.minimal)


def denial_constraint_of(query: Query) -> DenialConstraint:
    """The denial constraint violated exactly when the CQ is satisfied."""
    if not isinstance(query, BooleanCQ):
        raise UnsupportedQuery("denial constraints are only defined for "
                               "Boolean conjunctive queries")
    return DenialConstraint(body=query)
