from __future__ import annotations

import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dbexplain.query
from dbexplain import (
    Atom,
    BooleanCQ,
    Const,
    Fact,
    Instance,
    PathBoundExceeded,
    QuerySyntaxError,
    ReachabilityQuery,
    UnknownPredicate,
    UnsupportedQuery,
    Var,
    denial_constraint_of,
    enumerate_witnesses,
    evaluate,
    parse_query,
)

from dbexplain.query import _assignments, _witness_index
from dbexplain.synth import random_instance, scaling_instance

import bruteforce
from conftest import tids


# ---------------------------------------------------------------------------
# parsing

def test_parse_self_join_query(srs_prime):
    q = parse_query("q :- S(x), R(x,y), S(y).", srs_prime)
    assert isinstance(q, BooleanCQ)
    assert q.k == 3 and not q.self_join_free


def test_parse_sjf_query(rt_small):
    q = parse_query("q :- R(x,y), T(y).", rt_small)
    assert q.k == 2 and q.self_join_free


def test_parse_reachability(g_routes):
    q = parse_query("q :- path(E, a, b).", g_routes)
    assert q == ReachabilityQuery("E", "a", "b")


def test_parse_domain_tokens_become_constants(srs_prime):
    # 'b' occurs in the instance domain, so it parses as a constant
    q = parse_query("q :- S(b), R(b,y), S(y).", srs_prime)
    assert evaluate(q, srs_prime)
    q2 = parse_query("q :- S('b'), R(b,y), S(y).", srs_prime)
    assert q == q2


@pytest.mark.parametrize("text,err", [
    ("q :- S(x), R(x,y)", QuerySyntaxError),          # missing final period
    ("q(x) :- S(x).", QuerySyntaxError),              # free variables
    ("q :- S(x,y).", QuerySyntaxError),               # arity mismatch
    ("q :- W(x).", UnknownPredicate),                 # unknown predicate
    ("q :- path(W, a, b).", UnknownPredicate),        # unknown edge predicate
    ("q :- path(S, a, b).", QuerySyntaxError),        # edge predicate not binary
    ("q :- S(x), , R(x,y).", QuerySyntaxError),       # stray comma
], ids=["no-period", "free-vars", "arity", "unknown", "unknown-edge",
        "edge-arity", "stray-comma"])
def test_parse_errors(srs_prime, text, err):
    with pytest.raises(err):
        parse_query(text, srs_prime)


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_reachability(g_routes, q_path_ab):
    assert evaluate(q_path_ab, g_routes)
    assert not evaluate(ReachabilityQuery("E", "b", "a"), g_routes)


def test_evaluate_self_join_query(srs_base, srs_prime, q_srs):
    assert evaluate(q_srs, srs_base)
    assert evaluate(q_srs, srs_prime)


def test_evaluate_empty_instance_is_false(srs_prime, q_srs):
    assert not evaluate(q_srs, srs_prime.restrict(set()))


def test_evaluate_unknown_predicate(srs_prime):
    q = BooleanCQ((parse_query("q :- S(x), R(x,y), S(y).", srs_prime).atoms))
    bad = Instance.build({"S": 1}, [Fact("s1", "S", ("a",))])
    with pytest.raises(UnknownPredicate):
        evaluate(q, bad)


# ---------------------------------------------------------------------------
# witnesses

def test_witnesses_three_disjoint_triples(srs_base):
    q = parse_query("q :- S(x), R(x,y), S(y).", srs_base)
    assert tids(enumerate_witnesses(q, srs_base)) == [
        ["R:a,d", "S:a", "S:d"],
        ["R:b,a", "S:a", "S:b"],
        ["R:c,b", "S:b", "S:c"],
    ]


def test_witnesses_simple_paths(g_routes, q_path_ab):
    assert tids(enumerate_witnesses(q_path_ab, g_routes)) == [
        ["t1"], ["t2", "t3"], ["t4", "t5", "t6"]]


def test_witnesses_false_query_empty(rt_small):
    q = parse_query("q :- R(x,y), T('zzz').", rt_small)
    assert enumerate_witnesses(q, rt_small) == ()


def test_witness_sets_are_minimal(srs_prime, q_srs):
    for w in enumerate_witnesses(q_srs, srs_prime):
        assert evaluate(q_srs, srs_prime.restrict(w.tuples))
        for t in w.tuples:
            assert not evaluate(q_srs, srs_prime.restrict(w.tuples - {t}))


def test_witness_assignment_satisfies_atoms(srs_prime, q_srs):
    for w in enumerate_witnesses(q_srs, srs_prime):
        assert w.assignment is not None
        for atom in q_srs.atoms:
            vals = tuple(w.assignment.get(t.name, getattr(t, "value", None))
                         for t in atom.args)
            assert any(f.vals == vals and f.tid in w.tuples
                       for f in srs_prime.relation(atom.pred))


def test_self_join_witness_smaller_than_atom_count(srs_prime, q_srs):
    sizes = sorted(len(w.tuples) for w in enumerate_witnesses(q_srs, srs_prime))
    assert sizes == [2, 3]  # one witness reuses a tuple across two atoms


def test_path_bound_exceeded(g_routes, q_path_ab):
    with pytest.raises(PathBoundExceeded):
        enumerate_witnesses(q_path_ab, g_routes, max_paths=2)


def test_long_chain_path_is_one_witness():
    # deeper than the interpreter's default recursion limit
    n = 1500
    chain = Instance.build({"E": 2}, [Fact(f"e{i}", "E", (f"n{i}", f"n{i + 1}"))
                                      for i in range(n)])
    q = parse_query(f"q :- path(E, n0, n{n}).", chain)
    wits = enumerate_witnesses(q, chain)
    assert len(wits) == 1 and len(wits[0].tuples) == n


def _product_witnesses(query: BooleanCQ, instance: Instance) -> list[list[str]]:
    """Raw |ext1| x ... x |extk| combination scan, for cross-checking."""
    images = set()
    pools = [instance.relation(a.pred) for a in query.atoms]
    for combo in itertools.product(*pools):
        env: dict[str, str] = {}
        ok = True
        for atom, fact in zip(query.atoms, combo):
            for term, val in zip(atom.args, fact.vals):
                if hasattr(term, "value"):
                    ok = term.value == val
                else:
                    ok = env.setdefault(term.name, val) == val
                if not ok:
                    break
            if not ok:
                break
        if ok:
            images.add(frozenset(f.tid for f in combo))
    minimal = [s for s in images if not any(o < s for o in images)]
    return sorted(sorted(s) for s in minimal)


def test_backtracking_agrees_with_product_scan(srs_base, srs_prime, rrs_loop):
    cases = [
        (srs_base, "q :- S(x), R(x,y), S(y)."),
        (srs_prime, "q :- S(x), R(x,y), S(y)."),
        (rrs_loop, "q :- R(x,y), R(y,z), S(x,y)."),
        (rrs_loop, "q :- R(x,y), R(y,z)."),
    ]
    for instance, text in cases:
        q = parse_query(text, instance)
        assert tids(enumerate_witnesses(q, instance)) == _product_witnesses(q, instance)


@given(st.sets(st.integers(min_value=0, max_value=6), min_size=0, max_size=7),
       st.sets(st.integers(min_value=0, max_value=6), min_size=0, max_size=7))
@settings(deadline=None, max_examples=50)
def test_monotonicity(a, b):
    from conftest import inst
    instance = inst("srs_prime.json")
    q = parse_query("q :- S(x), R(x,y), S(y).", instance)
    all_tids = sorted(instance.tids())
    small = {all_tids[i] for i in (a & b)}
    large = {all_tids[i] for i in (a | b)}
    if evaluate(q, instance.restrict(small)):
        assert evaluate(q, instance.restrict(large))


def _random_cq(rng: random.Random, instance: Instance) -> BooleanCQ:
    """1-4 atoms over random predicates (so self-joins occur) whose terms
    are drawn from three variables (so repeated variables and atoms
    sharing none occur) and the active domain, in shuffled order."""
    domain = sorted(instance.domain()) or ["a"]
    atoms = []
    for _ in range(rng.randint(1, 4)):
        pred = rng.choice(sorted(instance.schema))
        atoms.append(Atom(pred, tuple(
            Const(rng.choice(domain)) if rng.random() < 0.15
            else Var(rng.choice("xyz")) for _ in range(instance.arity(pred)))))
    rng.shuffle(atoms)
    return BooleanCQ(tuple(atoms))


def test_join_yields_the_nested_loop_sequence():
    """The indexed join yields exactly the (environment, binding) pairs of
    a nested loop over each atom's whole extension, in the same order."""
    rng = random.Random(2024)
    seen = {"constant": 0, "repeated": 0, "self-join": 0, "cross-product": 0}
    total = 0
    for _ in range(1500):
        instance = random_instance(rng, max_tuples=rng.choice([6, 10, 14]),
                                   domain_size=rng.choice([2, 3, 4]))
        q = _random_cq(rng, instance)
        want = bruteforce.assignments(q, instance)
        assert list(_assignments(q, instance)) == want, q
        total += len(want)
        if not want:
            continue
        names = [[t.name for t in a.args if isinstance(t, Var)] for a in q.atoms]
        seen["constant"] += any(isinstance(t, Const) for a in q.atoms for t in a.args)
        seen["repeated"] += any(len(set(n)) < len(n) for n in names)
        seen["self-join"] += not q.self_join_free
        seen["cross-product"] += q.k > 1 and not set(names[0]) & set(names[1])
    assert total > 2000 and min(seen.values()) > 100, (total, seen)


def test_witness_index_probes_fewer_candidates_than_tuples(monkeypatch):
    """Building the witness index on scaling_instance(200) tries each atom
    only on the facts that agree with its bound positions: fewer
    candidates than the instance has tuples, for the chain and the
    self-join shapes of the benchmark.  A nested loop over each atom's
    whole extension tries about 7,500."""
    instance = scaling_instance(200)
    extend = dbexplain.query._extend_env
    calls = []
    monkeypatch.setattr(dbexplain.query, "_extend_env",
                        lambda atom, fact, env: calls.append(1) or extend(atom, fact, env))
    for text in ("q :- S(x), R(x,y), T(y).", "q :- S(x), R(x,y), S(y)."):
        calls.clear()
        index = _witness_index(parse_query(text, instance), instance)
        assert index.minimal
        assert len(calls) < len(instance), (text, len(calls))


def test_witness_index_keeps_no_instance_alive():
    """The index of the most recent pair holds its instance weakly."""
    instance = scaling_instance(40)
    assert _witness_index(parse_query("q :- S(x), R(x,y), T(y).", instance),
                          instance).minimal
    alive = weakref.ref(instance)
    del instance
    gc.collect()
    assert alive() is None


def test_witness_assignments_are_copies(srs_prime, q_srs):
    """Witnesses share one index per instance and query, but each call
    hands out its own assignments: changing one changes no later call."""
    first = enumerate_witnesses(q_srs, srs_prime)
    want = [dict(w.assignment) for w in first]
    for w in first:
        w.assignment["x"] = "changed"
    again = enumerate_witnesses(q_srs, srs_prime)
    assert [w.assignment for w in again] == want


def test_witness_index_tells_a_variable_from_an_equal_constant():
    """``R(x,y)`` and ``R('x',y)`` compare equal as tuples of terms, yet
    have different witnesses on one instance; neither reads the other's
    index."""
    instance = Instance.build({"R": 2}, [Fact("r1", "R", ("x", "a")),
                                         Fact("r2", "R", ("b", "c"))])
    free = parse_query("q :- R(x,y).", schema=instance.schema)
    bound = parse_query("q :- R('x',y).", schema=instance.schema)
    assert free == bound  # Var('x') == Const('x'): equality cannot tell them apart
    for _ in range(2):
        assert [w.tuples for w in enumerate_witnesses(free, instance)] == [
            frozenset({"r1"}), frozenset({"r2"})]
        assert [w.tuples for w in enumerate_witnesses(bound, instance)] == [
            frozenset({"r1"})]


def test_join_leaves_no_cyclic_garbage():
    """The join's indexes are freed when a call returns, not when the
    cyclic collector next runs."""
    instance = scaling_instance(40)
    q = parse_query("q :- S(x), R(x,y), S(y).", instance)
    gc.collect()
    gc.disable()
    try:
        assert evaluate(q, instance)
        assert _witness_index(q, instance).minimal
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_evaluate_rejects_an_arity_mismatch(srs_prime):
    q = BooleanCQ((Atom("R", (Var("x"),)),))
    with pytest.raises(QuerySyntaxError, match="expects 2 arguments"):
        evaluate(q, srs_prime)


# ---------------------------------------------------------------------------
# denial constraints

def test_denial_constraint_flips_satisfaction(srs_prime, q_srs):
    dc = denial_constraint_of(q_srs)
    assert dc.body == q_srs
    # the instance violates the constraint exactly when the query holds
    assert evaluate(dc.body, srs_prime)
    consistent = srs_prime.restrict({"R:a,d", "S:a"})
    assert not evaluate(dc.body, consistent)


def test_denial_constraint_single_atom():
    inst = Instance.build({"R": 2}, [Fact("r1", "R", ("a", "a"))])
    q = parse_query("q :- R(x,x).", inst)
    dc = denial_constraint_of(q)
    assert len(dc.body.atoms) == 1


def test_denial_constraint_rejects_reachability(q_path_ab):
    with pytest.raises(UnsupportedQuery):
        denial_constraint_of(q_path_ab)
