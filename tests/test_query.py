from __future__ import annotations

import gc
import itertools
import math
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dbexplain.query
from dbexplain import (
    Atom,
    BooleanCQ,
    BoundExceeded,
    Const,
    ExplainError,
    Fact,
    Instance,
    PathBoundExceeded,
    QueryNotSatisfied,
    QuerySyntaxError,
    ReachabilityQuery,
    UnknownPredicate,
    UnsupportedQuery,
    Var,
    Witness,
    denial_constraint_of,
    enumerate_c_repairs,
    enumerate_mns,
    enumerate_mss,
    enumerate_s_repairs,
    enumerate_witnesses,
    evaluate,
    parse_query,
)
from dbexplain.fastpath import core_fast

from dbexplain.query import (_GROUP, _bindings, _build_witness_index,
                             _minimal_members, _simple_paths, _variables, _witness_index)
from dbexplain.synth import planted_query, random_instance, scaling_instance

import bruteforce
from conftest import ladder, tids


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


def test_printed_queries_parse_back(g_routes, g_diamond, srs_prime, rt_small,
                                    rrs_loop, q_path_ab, q_path_st, q_srs, q_rt,
                                    q_rrs):
    """``str(q)`` parses back to ``q`` without a domain to read constants
    from: variables print bare and constants quoted."""
    cases = [(g_routes, q_path_ab), (g_diamond, q_path_st), (srs_prime, q_srs),
             (rt_small, q_rt), (rrs_loop, q_rrs),
             (srs_prime, parse_query("q :- S(b), R(b,y), S(y).", srs_prime))]
    rng = random.Random(12)
    for _ in range(300):
        instance = random_instance(rng, max_tuples=10)
        q = planted_query(rng, instance, n_atoms=rng.choice([2, 3]),
                          self_join=rng.random() < 0.5)
        if q is not None:
            cases.append((instance, q))
    for instance, q in cases:
        assert parse_query(str(q), schema=instance.schema,
                           constants=frozenset()) == q, str(q)
    consts = [t for _, q in cases if isinstance(q, BooleanCQ)
              for a in q.atoms for t in a.args if isinstance(t, Const)]
    assert len(cases) > 200 and len(consts) > 50


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


@pytest.mark.parametrize("text,tokens", [
    ("q :- S(x). \t\n", [("word", "q", 0), ("entail", ":-", 2), ("word", "S", 5),
                         ("(", "(", 6), ("word", "x", 7), (")", ")", 8), (".", ".", 9)]),
    (" 'a b' \u00a0\u2003", [("const", "a b", 1)]),
    ("\n \r", []),
])
def test_tokens_stop_at_trailing_blanks(text, tokens):
    assert dbexplain.query._tokenize(text) == tokens


@pytest.mark.parametrize("text,message", [
    ("q :- S(x)?. ", "unexpected character '?' at offset 9"),
    ("q :- S(x).?\u00a0 ", "unexpected character '?' at offset 10"),
    ("q :- S(x) ? .", "unexpected character '?' at offset 10"),
    ("q :-\u2003\t?", "unexpected character '?' at offset 6"),
])
def test_syntax_errors_name_their_offset(text, message):
    with pytest.raises(QuerySyntaxError, match=re.escape(message)):
        dbexplain.query._tokenize(text)


def test_tokenizing_takes_linear_time():
    """Trailing blanks are found once, not by copying the rest of the text
    at every token, which made the time grow with the square of its length."""
    sizes = [4000, 8000, 16000]
    times = []
    for n in sizes:
        text = "q :- " + ", ".join(f"R(x{i}, 'c {i}')" for i in range(n)) + ".  \n"
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            dbexplain.query._tokenize(text)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    xs, ys = [math.log(n) for n in sizes], [math.log(t) for t in times]
    xbar, ybar = sum(xs) / 3, sum(ys) / 3
    slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
             / sum((x - xbar) ** 2 for x in xs))
    assert slope <= 1.4, f"log-log slope {slope:.2f}, times {times}"


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


def test_witness_is_an_immutable_named_tuple(srs_prime, q_srs, g_routes, q_path_ab):
    """A witness keeps its field names and their order, refuses assignment
    and unpacks; a path witness, with no assignment, hashes."""
    assert Witness._fields == ("tuples", "assignment")
    w = enumerate_witnesses(q_srs, srs_prime)[0]
    tuples, assignment = w
    assert (tuples, assignment) == (w.tuples, w.assignment) and assignment
    with pytest.raises(AttributeError):
        w.tuples = frozenset()
    paths = enumerate_witnesses(q_path_ab, g_routes)
    assert all(p.assignment is None for p in paths)
    assert len(set(paths)) == len(paths) == 3
    assert hash(paths[1]) == hash(Witness(frozenset({"t2", "t3"})))
    assert paths[1].sort_key() == ("t2", "t3")
    assert paths[1]._replace(tuples=frozenset({"t1"})) == paths[0]


def test_simple_paths_are_tuples_of_sorted_tids(g_routes_exo23, g_routes_exo24):
    """The walk keeps each path as a tuple of sorted tids, and their sets
    are the judge's simple paths; the witnesses come in tids order, and the
    MSS read off the paths through exogenous edges are the judge's."""
    rng = random.Random(47)
    for _ in range(200):
        instance, nodes = _random_digraph(rng)
        q = ReachabilityQuery("E", rng.choice(nodes), rng.choice(nodes))
        paths = _simple_paths(instance, q)
        assert all(type(p) is tuple and list(p) == sorted(p) for p in paths)
        expected = bruteforce.simple_paths(instance, q)
        assert sorted(map(frozenset, paths), key=sorted) == expected
        assert [w.sort_key() for w in enumerate_witnesses(q, instance)] == \
            sorted(paths) == [tuple(sorted(s)) for s in expected]
    for instance in (g_routes_exo23, g_routes_exo24):
        q = parse_query("q :- path(E, a, b).", instance)
        assert enumerate_mss(instance, q) == bruteforce.enumerate_mss(instance, q)


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


def test_path_bound_exceeded(g_routes, q_path_ab, monkeypatch):
    monkeypatch.setattr(dbexplain.query, "MAX_PATHS", 2)
    with pytest.raises(PathBoundExceeded, match="3 simple paths pass the cap 2"):
        enumerate_witnesses(q_path_ab, g_routes)


def test_path_walk_is_capped_by_the_nodes_it_enters(monkeypatch):
    """The path count never trips on a ladder, so the walk is bounded by
    the nodes it enters, exactly: 2,047 for 10 rungs."""
    instance, q = ladder(10), ReachabilityQuery("E", "s", "t")
    monkeypatch.setattr(dbexplain.query, "MAX_PATH_STEPS", 2047)
    assert [sorted(w.tuples) for w in enumerate_witnesses(q, instance)] == \
        [["e000", "e001"]]
    monkeypatch.setattr(dbexplain.query, "MAX_PATH_STEPS", 2046)
    tripped = "entered 2,047 nodes, past the cap 2,046"
    with pytest.raises(PathBoundExceeded, match=tripped):
        enumerate_witnesses(q, instance)
    with pytest.raises(PathBoundExceeded, match=tripped):
        enumerate_mss(instance, q)


def test_path_walk_is_capped_by_the_tuples_it_keeps(monkeypatch):
    """A chain of 50 edges ending in 4 diamond levels has 16 paths of 58
    edges, far below the path and node caps; they hold 928 tuples, so a
    tuple cap of 927 refuses the 16th path before it is built."""
    edges = [(f"c{i}", f"c{i + 1}") for i in range(50)]
    level = "c50"
    for i in range(4):
        edges += [(level, f"u{i}"), (level, f"v{i}"), (f"u{i}", f"d{i}"), (f"v{i}", f"d{i}")]
        level = f"d{i}"
    instance = Instance.build({"E": 2}, [Fact(f"e{i:03d}", "E", e)
                                         for i, e in enumerate(edges)])
    q = ReachabilityQuery("E", "c0", "d3")
    monkeypatch.setattr(dbexplain.query, "MAX_HELD_TUPLES", 928)
    assert [len(w.tuples) for w in enumerate_witnesses(q, instance)] == [58] * 16
    monkeypatch.setattr(dbexplain.query, "MAX_HELD_TUPLES", 927)
    tripped = "16 simple paths would hold 928 tuples, past the cap 927"
    with pytest.raises(PathBoundExceeded, match=tripped):
        enumerate_witnesses(q, instance)
    with pytest.raises(PathBoundExceeded, match=tripped):
        enumerate_mss(instance, q)


def _cross_product(n: int) -> tuple[Instance, BooleanCQ]:
    """q :- R(x), S(y), T(z). over n one-column facts per relation: n^3
    bindings of 3 atoms, each binding its own minimal witness."""
    instance = Instance.build({p: 1 for p in "RST"}, [
        Fact(f"{p}:{i}", p, (f"c{i}",)) for p in "RST" for i in range(n)])
    return instance, parse_query("q :- R(x), S(y), T(z).", instance)


def test_join_is_capped_by_the_tuples_its_bindings_hold(monkeypatch):
    """10 facts per relation give 1,000 bindings that hold 3,000 tuples: a
    cap of 2,999 reads the 1,000th binding and refuses, and a cap of
    3,000 answers.  evaluate stops at the first binding, so it is not
    capped, and a query of no atoms has one empty binding."""
    instance, q = _cross_product(10)
    monkeypatch.setattr(dbexplain.query, "MAX_HELD_TUPLES", 2_999)
    tripped = "the join's 1,000 bindings of 3 atoms hold 3,000 tuples, past the cap 2,999"
    for ask in (lambda: enumerate_witnesses(q, instance), lambda: enumerate_mss(instance, q)):
        with pytest.raises(BoundExceeded) as refused:
            ask()
        assert type(refused.value) is BoundExceeded and str(refused.value) == tripped
    assert evaluate(q, instance)
    assert enumerate_witnesses(BooleanCQ(()), instance) == (Witness(frozenset(), {}),)
    monkeypatch.setattr(dbexplain.query, "MAX_HELD_TUPLES", 3_000)
    assert len(enumerate_witnesses(q, instance)) == 1_000


def test_refused_join_holds_what_the_cap_allows(monkeypatch):
    """40 facts per relation give 64,000 bindings, and filing all their
    images peaks at about 36 MB under tracemalloc; a cap of 30,000 tuples
    refuses the join after 10,001 bindings, well under 2 MB."""
    instance, q = _cross_product(40)
    monkeypatch.setattr(dbexplain.query, "MAX_HELD_TUPLES", 30_000)
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded, match="10,001 bindings"):
            enumerate_witnesses(q, instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"{peak:,} bytes"


def test_long_chain_walk_holds_its_path_only():
    """A 20,000-edge chain has one path of 20,000 edges: the walk keeps a
    tid per stack level, so its peak is a few MB, not a mask as wide as
    the edge relation per level."""
    n = 20_000
    instance = Instance.build({"E": 2}, [Fact(f"e{i:05d}", "E", (f"c{i}", f"c{i + 1}"))
                                         for i in range(n)])
    tracemalloc.start()
    try:
        witnesses = enumerate_witnesses(ReachabilityQuery("E", "c0", f"c{n}"), instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(w.tuples) for w in witnesses] == [n]
    assert peak < 20 * 2**20, f"{peak:,} bytes"


def _random_digraph(rng: random.Random) -> tuple[Instance, str]:
    """At most 12 distinct edges, self-loops included, over 1-5 nodes."""
    nodes = "abcde"[:rng.randint(1, 5)]
    pairs = [(u, v) for u in nodes for v in nodes]
    edges = rng.sample(pairs, rng.randint(0, min(12, len(pairs))))
    return Instance.build({"E": 2}, [Fact(f"E:{u},{v}", "E", (u, v))
                                     for u, v in edges]), nodes


def test_path_witnesses_match_bruteforce(monkeypatch):
    """The simple paths equal the judge's scan of the edge subsets, in
    order, and the path bound trips exactly past the path count."""
    rng = random.Random(13)
    seen = dict.fromkeys(["cycle through the source", "self-loop",
                          "cycle elsewhere", "unreachable"], 0)
    for _ in range(400):
        instance, nodes = _random_digraph(rng)
        # "z" is no node: a target outside the graph
        q = ReachabilityQuery("E", rng.choice(nodes), rng.choice(nodes + "z"))
        expected = bruteforce.simple_paths(instance, q)
        assert [w.tuples for w in enumerate_witnesses(q, instance)] == expected, \
            (sorted(instance.tids()), q)
        count = len(expected)
        if count:
            with monkeypatch.context() as m:
                m.setattr(dbexplain.query, "MAX_PATHS", count)
                assert len(enumerate_witnesses(q, instance)) == count
                m.setattr(dbexplain.query, "MAX_PATHS", count - 1)
                with pytest.raises(PathBoundExceeded):
                    enumerate_witnesses(q, instance)
        loops = {f.vals[0] for f in instance.facts if f.vals[0] == f.vals[1]}
        seen["cycle through the source"] += q.source == q.target and \
            any(len(p) > 1 for p in expected)
        seen["self-loop"] += bool(loops) and count > 0
        seen["cycle elsewhere"] += q.source != q.target and count > 0 and any(
            evaluate(ReachabilityQuery("E", v, v), instance) for v in nodes)
        seen["unreachable"] += count == 0
    assert min(seen.values()) >= 20, seen


def _subdivided(instance: Instance, rng: random.Random) -> tuple[Instance, dict[str, list[str]]]:
    """The digraph with each edge kept or replaced, at random, by a chain
    through 1-5 new nodes, and the tids that stand for each old edge."""
    facts, chains = [], {}
    for f in instance.facts:
        inner = [f"{f.tid}/{i}" for i in range(rng.choice((0, 0, 1, 3, 5)))]
        nodes = [f.vals[0], *inner, f.vals[1]]
        chains[f.tid] = [f"{f.tid}#{i}" for i in range(len(nodes) - 1)]
        facts += [Fact(t, "E", (u, v)) for t, u, v in zip(chains[f.tid], nodes, nodes[1:])]
    return Instance.build({"E": 2}, facts), chains


def _assert_caps_trip_past(q: ReachabilityQuery, instance: Instance,
                           paths: list[frozenset[str]], entered: int, monkeypatch) -> None:
    """Each cap of the walk passes at the judge's measure (paths kept,
    nodes entered, tuples in the paths kept) and refuses one below it,
    naming the measure; a walk that enters no node has no step cap to
    trip, since the cap is never below 0."""
    held = sum(map(len, paths))
    caps = [("MAX_PATHS", len(paths), f"{len(paths):,} simple paths pass the cap"),
            ("MAX_PATH_STEPS", entered, f"the simple-path walk entered {entered:,} nodes, "
                                        f"past the cap"),
            ("MAX_HELD_TUPLES", held, f"{len(paths):,} simple paths would hold {held:,} "
                                      f"tuples, past the cap")]
    for name, measure, message in caps:
        if not measure:
            continue
        with monkeypatch.context() as m:
            m.setattr(dbexplain.query, name, measure)
            assert len(enumerate_witnesses(q, instance)) == len(paths)
            m.setattr(dbexplain.query, name, measure - 1)
            with pytest.raises(PathBoundExceeded, match=f"^{message} {measure - 1:,}$"):
                enumerate_witnesses(q, instance)


def test_path_witnesses_read_runs_to_the_target(monkeypatch):
    """Chains of one-edge nodes make runs, long ones into the target among
    them: the simple paths equal the judge's scan of the plain digraph,
    each edge read as its chain, in order, as do the paths of the judge's
    depth-first search on the subdivided digraph.  Each cap trips exactly
    past that search's measure: the paths, the nodes it enters and the
    tuples its paths hold."""
    rng = random.Random(31)
    seen = dict.fromkeys(["run of 3+ nodes", "cycle through the source",
                          "subdivided cycle through the source", "self-loop",
                          "unreachable"], 0)
    for _ in range(400):
        plain, nodes = _random_digraph(rng)
        q = ReachabilityQuery("E", rng.choice(nodes), rng.choice(nodes + "z"))
        instance, chains = _subdivided(plain, rng)
        expected = sorted(sorted(t for e in p for t in chains[e])
                          for p in bruteforce.simple_paths(plain, q))
        assert [sorted(w.tuples) for w in enumerate_witnesses(q, instance)] == expected, \
            (sorted(instance.tids()), q)
        count = len(expected)
        paths, entered = bruteforce.depth_first_paths(instance, q)
        assert [sorted(p) for p in paths] == expected
        if count:
            _assert_caps_trip_past(q, instance, paths, entered, monkeypatch)
        into_target = [f for f in plain.facts if f.vals[1] == q.target]
        seen["run of 3+ nodes"] += count > 0 and any(len(chains[f.tid]) > 3
                                                     for f in into_target)
        seen["cycle through the source"] += q.source == q.target and count > 0
        seen["subdivided cycle through the source"] += q.source == q.target and any(
            len(p) > 1 for p in expected)
        seen["self-loop"] += count > 0 and any(
            f.vals[0] == f.vals[1] and len(chains[f.tid]) == 1 for f in plain.facts)
        seen["unreachable"] += count == 0
    assert min(seen.values()) >= 20, seen


def _edges(*pairs: str) -> Instance:
    """An edge relation from "uv" pairs of one-letter nodes, tids in order."""
    return Instance.build({"E": 2}, [Fact(f"e{i}", "E", tuple(p)) for i, p in enumerate(pairs)])


def test_run_nodes_count_as_entered_and_dead_ends_do_not(monkeypatch):
    """s -> a, s -> b, a -> r -> u -> t and b -> r: a, b, r and u each have
    one edge that leads on to t, so the walk pushes none of them and reads
    the runs a r u and b r u, six nodes entered, as a walk that pushed
    each would count; the dead ends s -> d -> e and r -> d cost nothing."""
    instance = _edges("sa", "sb", "ar", "ru", "ut", "br", "sd", "de", "rd")
    q = ReachabilityQuery("E", "s", "t")
    expected = [["e0", "e2", "e3", "e4"], ["e1", "e3", "e4", "e5"]]
    assert [sorted(w.tuples) for w in enumerate_witnesses(q, instance)] == expected \
        == [sorted(p) for p in bruteforce.simple_paths(instance, q)]
    monkeypatch.setattr(dbexplain.query, "MAX_PATH_STEPS", 6)
    assert len(enumerate_witnesses(q, instance)) == 2
    monkeypatch.setattr(dbexplain.query, "MAX_PATH_STEPS", 5)
    with pytest.raises(PathBoundExceeded, match="entered 6 nodes, past the cap 5"):
        enumerate_witnesses(q, instance)


def test_a_source_on_a_run_walks_its_run_alone(monkeypatch):
    """s -> m -> n -> t is forced: the source's other edge is a dead end, and
    x -> s, x -> m and t -> s lead into the run, so the walk reads m and n
    as one run: one path, two nodes entered."""
    instance = _edges("sm", "mn", "nt", "sd", "xs", "xm", "ts")
    q = ReachabilityQuery("E", "s", "t")
    assert [sorted(w.tuples) for w in enumerate_witnesses(q, instance)] == \
        [sorted(p) for p in bruteforce.simple_paths(instance, q)] == [["e0", "e1", "e2"]]
    monkeypatch.setattr(dbexplain.query, "MAX_PATH_STEPS", 2)
    assert len(enumerate_witnesses(q, instance)) == 1
    monkeypatch.setattr(dbexplain.query, "MAX_PATH_STEPS", 1)
    with pytest.raises(PathBoundExceeded, match="entered 2 nodes, past the cap 1"):
        enumerate_witnesses(q, instance)


def test_path_caps_trip_past_the_judges_measures_on_a_funnel(monkeypatch):
    """A 5 x 5 grid whose far corner feeds a run of 150 edges to t, and
    whose other nodes enter that run part way along: the paths share the
    run's tails, entered at several nodes, yet each path still enters each
    of its run nodes.  The witnesses equal the judge's depth-first search,
    and each cap trips exactly past that search's measure; a step cap that a
    run passes names the node entered past it."""
    grid = [[f"g{r}{c}" for c in range(5)] for r in range(5)]
    run = [grid[4][4], *(f"r{i:03d}" for i in range(149)), "t"]
    pairs = [(grid[r][c], grid[r][c + 1]) for r in range(5) for c in range(4)]
    pairs += [(grid[r][c], grid[r + 1][c]) for r in range(4) for c in range(5)]
    pairs += list(zip(run, run[1:]))
    pairs += [(grid[0][4], run[100]), (grid[4][0], run[50]), (grid[2][2], run[120]),
              (grid[3][1], run[50]), (grid[1][3], "t")]
    instance = Instance.build({"E": 2}, [Fact(f"e{i:03d}", "E", p) for i, p in enumerate(pairs)])
    q = ReachabilityQuery("E", grid[0][0], "t")
    paths, entered = bruteforce.depth_first_paths(instance, q)
    assert [w.tuples for w in enumerate_witnesses(q, instance)] == paths
    assert len(paths) > 80 and entered > 50 * len(paths)
    _assert_caps_trip_past(q, instance, paths, entered, monkeypatch)
    for cap in (0, 1, entered // 3, entered // 2):
        # a cap inside a run still names the node that passes it
        monkeypatch.setattr(dbexplain.query, "MAX_PATH_STEPS", cap)
        with pytest.raises(PathBoundExceeded,
                           match=f"^the simple-path walk entered {cap + 1:,} nodes, "
                                 f"past the cap {cap:,}$"):
            enumerate_witnesses(q, instance)


def test_dead_end_grid_costs_no_steps(monkeypatch):
    """A 12 x 12 grid hangs off the source and never reaches the target.
    Walking its simple paths from the corner would enter about 2.7M nodes;
    the walk enters only nodes that reach the target, so the direct edge
    is the one witness under the default caps and under a node cap of 0.
    Without that edge the query is false, and the oracle says so with the
    same cap, as it walks nothing."""
    facts = [Fact("direct", "E", ("a", "b")), Fact("hang", "E", ("a", "g0_0"))]
    for r, c in itertools.product(range(12), range(12)):
        for dr, dc in ((0, 1), (1, 0)):
            if r + dr < 12 and c + dc < 12:
                facts.append(Fact(f"g{len(facts):03d}", "E",
                                  (f"g{r}_{c}", f"g{r + dr}_{c + dc}")))
    instance, q = Instance.build({"E": 2}, facts), ReachabilityQuery("E", "a", "b")
    assert [w.tuples for w in enumerate_witnesses(q, instance)] == [{"direct"}]
    monkeypatch.setattr(dbexplain.query, "MAX_PATH_STEPS", 0)
    assert [w.tuples for w in enumerate_witnesses(q, instance)] == [{"direct"}]
    without = instance.restrict(instance.tids() - {"direct"})
    assert enumerate_witnesses(q, without) == ()
    with pytest.raises(QueryNotSatisfied):
        enumerate_mss(without, q)


def test_long_chain_path_is_one_witness():
    # deeper than the interpreter's default recursion limit
    n = 1500
    chain = Instance.build({"E": 2}, [Fact(f"e{i}", "E", (f"n{i}", f"n{i + 1}"))
                                      for i in range(n)])
    q = parse_query(f"q :- path(E, n0, n{n}).", chain)
    wits = enumerate_witnesses(q, chain)
    assert len(wits) == 1 and len(wits[0].tuples) == n


def test_long_chain_query_needs_no_recursion():
    # more atoms than the interpreter's default recursion limit
    n = 1200
    instance = Instance.build({"R": 2}, [Fact("r1", "R", ("a", "a"))])
    q = parse_query("q :- " + ", ".join(f"R(x{i},x{i + 1})" for i in range(n)) + ".",
                    instance)
    assert evaluate(q, instance)
    (w,) = enumerate_witnesses(q, instance)
    assert w.tuples == {"r1"} and w.assignment == {f"x{i}": "a" for i in range(n + 1)}


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


def _joined(q: BooleanCQ, instance: Instance) -> list:
    """The join's bindings, each with the assignment it makes, as
    ``bruteforce.assignments`` lists them."""
    variables = _variables(q).items()
    return [({name: b[j].vals[p] for name, (j, p) in variables}, b)
            for b in _bindings(q, instance)]


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
        assert _joined(q, instance) == want, q
        total += len(want)
        if not want:
            continue
        names = [[t.name for t in a.args if isinstance(t, Var)] for a in q.atoms]
        seen["constant"] += any(isinstance(t, Const) for a in q.atoms for t in a.args)
        seen["repeated"] += any(len(set(n)) < len(n) for n in names)
        seen["self-join"] += not q.self_join_free
        seen["cross-product"] += q.k > 1 and not set(names[0]) & set(names[1])
    assert total > 2000 and min(seen.values()) > 100, (total, seen)


# the last four vary the last atom, which the join reads in one loop: a
# repeated bound variable, a repeated new variable, a constant, and a
# one-atom query, whose first atom is also its last
SELF_JOIN_SHAPES = (
    "q :- R(x,x).",
    "q :- R(x,y), R(y,x).",
    "q :- R(x,x), R(x,y), R(y,y).",
    "q :- R(x,y), R(y,z), R(z,x).",
    "q :- R(x,'{c}'), R('{c}',y), R(y,x).",
    "q :- S(x), R(x,x), R(y,'{c}'), S(y).",
    "q :- R(x,y), R(y,y).",
    "q :- R(x,y), R(z,z).",
    "q :- R(x,y), R(y,'{c}').",
    "q :- R('{c}',x).",
)


def _self_join_instance(rng: random.Random) -> Instance:
    """R and S over two or three constants, each fact present with
    probability 1/2 and endogenous with probability 3/4, under tids
    shuffled against the values."""
    domain = "abc"[:rng.randint(2, 3)]
    rows = [("R", (u, v)) for u in domain for v in domain] + [("S", (u,)) for u in domain]
    names = rng.sample(range(100), len(rows))
    return Instance.build({"R": 2, "S": 1}, [
        Fact(f"t{name:02d}", pred, vals, rng.random() < 0.75)
        for name, (pred, vals) in zip(names, rows) if rng.random() < 0.5])


def test_join_order_on_self_join_shapes():
    """On self-join instances, with a variable repeated inside one atom, a
    variable repeated across atoms and constants, the join yields the
    nested loop's (environment, binding) sequence, and its first pair,
    which ``evaluate`` stops at, is the nested loop's first; the index
    keeps the images in that order, and its minimal images and minimal
    endogenous projections in tid order."""
    rng = random.Random(14)
    satisfied = Counter()
    for _ in range(300):
        instance = _self_join_instance(rng)
        endo = instance.endogenous_part()
        for shape in SELF_JOIN_SHAPES:
            q = parse_query(shape.format(c=rng.choice("abc")), schema=instance.schema)
            want = bruteforce.assignments(q, instance)
            assert _joined(q, instance) == want, q
            assert next(_bindings(q, instance), None) == (want[0][1] if want else None), q
            images = list(dict.fromkeys(frozenset(f.tid for f in b) for _, b in want))
            index = _witness_index(q, instance)
            assert list(index.images) == images
            assert list(index.minimal) == sorted(bruteforce.minimal_members(images),
                                                 key=sorted)
            assert list(index.antichain) == sorted(bruteforce.minimal_members(
                list(dict.fromkeys(s & endo for s in index.minimal))), key=sorted)
            satisfied[shape] += bool(want)
        # the same instance again, so each join reads probes that earlier
        # queries built, in random order
        shared = [shape.format(c=c) for shape in SELF_JOIN_SHAPES for c in "abc"]
        rng.shuffle(shared)
        for text in shared:
            q = parse_query(text, schema=instance.schema)
            assert _joined(q, instance) == bruteforce.assignments(q, instance), q
    assert len(satisfied) == len(SELF_JOIN_SHAPES) and min(satisfied.values()) >= 50, satisfied


def _permutation_instance(rng: random.Random) -> Instance:
    """Over four values: F a permutation, E the union of two, and S every
    value, so a join keyed on one position of F or S has one candidate and
    on one of E at most two; tids shuffled against the values."""
    domain = list("abcd")
    rows = [("S", (u,)) for u in domain]
    for pred, count in (("F", 1), ("E", 2)):
        pairs = {(u, v) for _ in range(count) for u, v in zip(domain, rng.sample(domain, 4))}
        rows += [(pred, pair) for pair in sorted(pairs)]
    names = rng.sample(range(100), len(rows))
    return Instance.build({"F": 2, "E": 2, "S": 1}, [
        Fact(f"t{name:02d}", pred, vals, rng.random() < 0.75)
        for name, (pred, vals) in zip(names, rows)])


def _planted_cq(rng: random.Random, instance: Instance, k: int) -> BooleanCQ:
    """k atoms, each the image of a fact under one planted assignment:
    every atom after the first holds an earlier variable, and its other
    positions a constant, an earlier variable of the same value, a new
    variable repeated in the atom or a new variable.  At most two atoms
    over E and one atom sharing no variable, so the bindings stay few.
    One query in three then has one term replaced by a constant, which
    may make it false."""
    value: dict[str, str] = {}
    atoms, spare = [], {"E": 2, "free": 1}
    for j in range(k):
        pred = rng.choice("FFSE" if spare["E"] else "FFS")
        spare["E"] -= pred == "E"
        facts = instance.relation(pred)
        anchor = None
        if value and not (spare["free"] > 0 and rng.random() < 0.05):
            anchor = rng.choice(sorted(value))
            facts = [f for f in facts if value[anchor] in f.vals]
        spare["free"] -= j > 0 and anchor is None
        fact = rng.choice(facts)
        held = None if anchor is None else fact.vals.index(value[anchor])
        terms: list = []
        for p, v in enumerate(fact.vals):
            same = [name for name in sorted(value) if value[name] == v]
            fresh = [t for t in terms if isinstance(t, Var) and t.name not in value]
            r = rng.random()
            if p == held:
                terms.append(Var(anchor))
            elif r < 0.15:
                terms.append(Const(v))
            elif r < 0.5 and same:
                terms.append(Var(rng.choice(same)))
            elif r < 0.6 and fresh and p and fact.vals[p - 1] == v:
                terms.append(terms[p - 1])
            else:
                terms.append(Var(f"v{len(value) + len(fresh)}"))
        for t, v in zip(terms, fact.vals):
            if isinstance(t, Var):
                value.setdefault(t.name, v)
        atoms.append(Atom(pred, tuple(terms)))
    if rng.random() < 1 / 3:
        j = rng.randrange(k)
        args = list(atoms[j].args)
        args[rng.randrange(len(args))] = Const(rng.choice("abcd"))
        atoms[j] = Atom(atoms[j].pred, tuple(args))
    return BooleanCQ(tuple(atoms))


def test_join_matches_the_nested_loop_across_group_boundaries():
    """On queries of 1-4 atoms and of lengths around the size of one group
    of stages (and past two groups), with constants, variables repeated
    inside one atom and self-joins, the join's bindings are the nested
    loop's, in its order, and ``evaluate`` is true exactly when there is
    one, also on a fresh instance whose probes it builds."""
    rng = random.Random(26)
    seen = Counter()
    for _ in range(300):
        instance = random_instance(rng, max_tuples=10, domain_size=3)
        q = _random_cq(rng, instance)
        want = [b for _, b in bruteforce.assignments(q, instance)]
        assert list(_bindings(q, instance)) == want, q
        assert evaluate(q, instance) == bool(want), q
        seen["short", bool(want)] += 1
    for k in (_GROUP - 1, _GROUP, _GROUP + 1, 2 * _GROUP + 1):
        for _ in range(20):
            instance = _permutation_instance(rng)
            q = _planted_cq(rng, instance, k)
            want = [b for _, b in bruteforce.assignments(q, instance)]
            fresh = Instance.build(instance.schema, instance.facts)
            assert evaluate(q, fresh) == bool(want), q
            assert list(_bindings(q, instance)) == want, q
            assert evaluate(q, instance) == bool(want), q
            terms = [t for a in q.atoms for t in a.args]
            names = [[t.name for t in a.args if isinstance(t, Var)] for a in q.atoms]
            seen[k, bool(want)] += 1
            seen["several"] += len(want) > 1
            seen["constant"] += any(isinstance(t, Const) for t in terms)
            seen["repeated"] += any(len(set(n)) < len(n) for n in names)
    assert all(seen[k, True] >= 5 for k in (_GROUP - 1, _GROUP, _GROUP + 1, 2 * _GROUP + 1)), seen
    assert min(seen["short", False], seen["short", True], seen["several"],
               seen["constant"], seen["repeated"]) >= 10, seen


def test_join_builds_no_probe_for_an_atom_no_binding_reaches():
    """A stage builds its probe when the first binding reaches it: on a
    ``restrict`` copy whose first atom has no facts, ``evaluate`` and the
    witness index build no probe for any later atom, and when no fact of
    the second atom agrees with the first, none for the third."""
    instance = scaling_instance(200)
    part = instance.restrict(f.tid for f in instance.facts if f.pred != "S")
    for text in ("q :- S(x), R(x,y), T(y).", "q :- S(x), R(x,y), S(y).",
                 "q :- S('v1'), R(x,y), T(y)."):
        q = parse_query(text, schema=part.schema)
        assert not evaluate(q, part)
        assert not _witness_index(q, part).images
        assert all(pred == "S" for pred, _ in part._probes), text
    assert list(part._probes) == [("S", (0,))]

    apart = Instance.build({"R": 2, "S": 1, "T": 1}, [
        Fact("r1", "R", ("b", "c")), Fact("s1", "S", ("a",)), Fact("t1", "T", ("c",))])
    q = parse_query("q :- S(x), R(x,y), T(y).", apart)
    assert not evaluate(q, apart) and not enumerate_witnesses(q, apart)
    assert list(apart._probes) == [("R", (0,))]


def test_antichain_is_the_minimal_images_when_no_bound_tuple_is_exogenous():
    """On an all-endogenous instance each image is its own projection:
    ``W`` is the minimal images, in their order, and the instance's
    endogenous part is never built."""
    for text in ("q :- S(x), R(x,y), T(y).", "q :- S(x), R(x,y), S(y)."):
        instance = scaling_instance(200)
        index = _witness_index(parse_query(text, instance), instance)
        assert index.minimal and index.antichain == index.minimal
        assert "_endogenous_part" not in instance.__dict__


def test_antichain_projects_exogenous_images(srs_prime_exoR):
    """With exogenous tuples bound, ``W`` is the minimal endogenous
    projections of the minimal images, in tid order."""
    q = parse_query("q :- S(x), R(x,y), S(y).", srs_prime_exoR)
    index = _witness_index(q, srs_prime_exoR)
    endo = srs_prime_exoR.endogenous_part()
    assert index.antichain != index.minimal
    assert list(index.antichain) == sorted(bruteforce.minimal_members(
        list(dict.fromkeys(s & endo for s in index.minimal))), key=sorted)


_PRINT_ANTICHAIN = """
from dbexplain import Fact, Instance, parse_query
from dbexplain.query import _witness_index
from dbexplain.synth import scaling_instance
base = scaling_instance(60)
instance = Instance.build(base.schema, [
    Fact(f.tid, f.pred, f.vals, f.pred != "T") for f in base.facts])
q = parse_query("q :- S(x), R(x,y), T(y).", instance)
for s in _witness_index(q, instance).antichain:
    print(*sorted(s))
"""


def test_antichain_order_does_not_depend_on_the_hash_seed():
    """``W`` of an instance with exogenous tuples comes out in one order
    under any string hash seed: the projections are deduplicated in the
    order of the minimal images, not in a set's."""
    src = str(Path(dbexplain.__file__).resolve().parents[1])
    printed = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _PRINT_ANTICHAIN], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        printed.append(run.stdout)
    assert len(printed[0].splitlines()) >= 10
    assert printed[0] == printed[1] == printed[2]


def _random_family(rng: random.Random) -> list[frozenset[str]]:
    """Members of 1-4 tuples over a small universe, mixed with members of
    20-24 tuples, repeated members and members grown by a few tuples, so
    that proper subsets of every size occur; in one family of ten, the
    empty set too."""
    universe = [f"t{i:02d}" for i in range(rng.choice([5, 8, 26]))]
    wide = rng.choice([0.0, 0.2, 0.7]) if len(universe) > 24 else 0.0
    family: list[frozenset[str]] = []
    for _ in range(rng.randint(0, 30)):
        r = rng.random()
        if r < 0.15 and family:
            family.append(rng.choice(family))
        elif r < 0.3 and family:
            family.append(rng.choice(family) | set(rng.sample(universe, rng.randint(1, 3))))
        elif rng.random() < wide:
            family.append(frozenset(rng.sample(universe, rng.randint(20, 24))))
        else:
            family.append(frozenset(rng.sample(universe, rng.randint(1, 4))))
    if rng.random() < 0.1:
        family.insert(rng.randint(0, len(family)), frozenset())
    return family


def test_minimal_members_match_bruteforce():
    """The indexed minimality test keeps the members of the definition, in
    family order, on families with mixed sizes, duplicates, the empty set
    and members of 20 or more tuples, where looking up every subset of a
    member would take 2^20 lookups or more."""
    rng = random.Random(2026)
    seen = Counter()
    for _ in range(3000):
        family = _random_family(rng)
        distinct = list(dict.fromkeys(family))
        want = bruteforce.minimal_members(distinct)
        assert _minimal_members(distinct) == want, family
        sizes = {len(s) for s in family}
        seen["mixed sizes"] += len(sizes) > 1
        seen["one size"] += len(sizes) == 1
        seen["duplicates"] += len(distinct) < len(family)
        seen["empty set"] += frozenset() in family and len(family) > 1
        seen["wide dropped"] += any(len(s) >= 20 for s in distinct if s not in want)
        seen["wide kept"] += any(len(s) >= 20 for s in want)
    assert min(seen.values()) >= 50, seen


def test_witness_index_probes_fewer_candidates_than_tuples(monkeypatch):
    """Building the witness index on scaling_instance(200) tries each atom
    only on the facts that agree with its bound positions: fewer
    candidates than the instance has tuples, for the chain and the
    self-join shapes of the benchmark.  A nested loop over each atom's
    whole extension tries about 7,500.  Each candidate list the join reads
    (a whole relation or a probe's bucket) counts its length when it is
    read; ``evaluate`` builds the probes first, so that building them
    reads no relation under the count."""
    instance = scaling_instance(200)
    texts = ("q :- S(x), R(x,y), T(y).", "q :- S(x), R(x,y), S(y).")
    assert all(evaluate(parse_query(text, instance), instance) for text in texts)
    probe, relation = Instance.probe, Instance.relation
    tried = []

    class Counted(tuple):
        def __iter__(self):
            tried.append(len(self))
            return super().__iter__()

    class Buckets(dict):
        def get(self, key, default=None):
            found = super().get(key, default)
            return found if found is None else Counted(found)

    monkeypatch.setattr(Instance, "probe", lambda self, pred, positions:
                        Buckets(probe(self, pred, positions)))
    monkeypatch.setattr(Instance, "relation", lambda self, pred:
                        Counted(relation(self, pred)))
    for text in texts:
        tried.clear()
        index = _witness_index(parse_query(text, instance), instance)
        assert index.minimal
        assert 0 < sum(tried) < len(instance), (text, sum(tried))


def test_probes_are_built_once_per_instance():
    """The join's hash probes live with the instance: the witness index
    reads the probes that ``evaluate`` built, a ``restrict`` copy starts
    with none, and constants key a probe's buckets, not the probes."""
    instance = scaling_instance(200)
    for text in ("q :- S(x), R(x,y), T(y).", "q :- S(x), R(x,y), S(y)."):
        q = parse_query(text, instance)
        assert evaluate(q, instance)
        built = dict(instance._probes)
        assert built
        assert _build_witness_index(q, instance).minimal
        assert instance._probes.keys() == built.keys()
        assert all(instance._probes[k] is v for k, v in built.items())
    part = instance.restrict(f.tid for f in instance.facts[::2])
    assert part._probes == {}
    assert instance._probes

    rows = Instance.build({"R": 2}, [Fact(f"r{i:02d}", "R", (f"a{i % 7}", f"c_{i}"))
                                     for i in range(50)])
    for i in range(50):
        q = parse_query(f"q :- R(x,'c_{i}').", schema=rows.schema)
        assert [w.tuples for w in enumerate_witnesses(q, rows)] == [frozenset({f"r{i:02d}"})]
    assert list(rows._probes) == [("R", (1,))]


def test_threads_sharing_an_instance_read_whole_probes():
    """Threads that join on one fresh instance at once, with the
    interpreter switching threads often, each get the serial answers: a
    probe another thread is still building is never read.  Asking
    different queries in different orders, the threads replace the
    instance's kept witness index under each other, and each reader sees
    a whole (query, index) pair.  On a second shared instance, every third
    tuple exogenous, they also ask for the repairs in both modes and the
    MNS, read off the components of the minimal images and of W that each
    index keeps, and get the serial answers."""
    texts = ("q :- S(x), R(x,y), T(y).", "q :- S(x), R(x,y), S(y).", "q :- R(x,y), T(y).",
             "q :- T(y), R(x,y), S(x).")
    base = scaling_instance(120)
    queries = [parse_query(t, base) for t in texts]
    want = [list(_bindings(q, base)) for q in queries]
    serial = {id(q): _build_witness_index(q, base) for q in queries}
    mixed = Instance.build(base.schema, [Fact(f.tid, f.pred, f.vals, i % 3 > 0)
                                         for i, f in enumerate(scaling_instance(20).facts)])
    mixed_queries = [parse_query(t, mixed) for t in texts]

    def answers(q, instance):
        dc, got = denial_constraint_of(q), []
        for ask in (lambda: enumerate_s_repairs(instance, dc),
                    lambda: enumerate_c_repairs(instance, dc, endogenous_only=True),
                    lambda: enumerate_mns(instance, q)):
            try:
                got.append(ask())
            except ExplainError as exc:
                got.append(repr(exc))
        return got
    want_answers = [answers(q, Instance.build(mixed.schema, mixed.facts)) for q in mixed_queries]
    assert all(isinstance(a, tuple) for got in want_answers for a in got[::2])
    wrong, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(150):
            shared = Instance.build(base.schema, base.facts)
            repaired = Instance.build(mixed.schema, mixed.facts)

            def work(order):
                for i in order:
                    try:
                        if list(_bindings(queries[i], shared)) != want[i]:
                            wrong.append(texts[i])
                        index, expected = _witness_index(queries[i], shared), serial[id(queries[i])]
                        if (index.minimal, index.antichain) != (expected.minimal, expected.antichain):
                            wrong.append(("index", texts[i]))
                        kept, kept_index = shared.__dict__["_witness_index"]
                        if kept_index.minimal != serial[id(kept)].minimal:
                            wrong.append(("kept", texts[i]))
                        if answers(mixed_queries[i], repaired) != want_answers[i]:
                            wrong.append(("answers", texts[i]))
                    except Exception as exc:  # a thread's error would pass as a warning
                        wrong.append((repr(exc), texts[i]))
            threads = [threading.Thread(target=work, args=(random.Random(n).sample(range(4), 4),))
                       for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong, wrong


def test_an_evaluated_instance_pickles_with_its_probes():
    """An instance whose probes are built pickles, unpickles equal, and
    answers as before; its probes hold its own facts, not copies."""
    instance = scaling_instance(60)
    q = parse_query("q :- S(x), R(x,y), S(y).", instance)
    assert evaluate(q, instance)
    want = enumerate_witnesses(q, instance)
    copy = pickle.loads(pickle.dumps(instance))
    assert copy == instance and copy is not instance
    assert copy._probes.keys() == instance._probes.keys() != set()
    assert all(f is copy.fact(f.tid) for probe in copy._probes.values()
               for bucket in probe.values() for f in bucket)
    assert evaluate(q, copy)
    assert list(_bindings(q, copy)) == list(_bindings(q, instance))
    assert enumerate_witnesses(q, copy) == want


def test_a_pickled_instance_leaves_its_witness_index_out():
    """An instance pickles without its kept witness index, whose query
    would come back as a copy that the identity match never finds: the
    pickle is as long as before the index was built, and the copy keeps
    the probes and kept sets, builds its own index and answers as
    before."""
    instance = scaling_instance(200)
    q = parse_query("q :- S(x), R(x,y), T(y).", instance)
    assert evaluate(q, instance) and instance.domain()
    size = len(pickle.dumps(instance))
    want = enumerate_witnesses(q, instance)
    assert "_witness_index" in instance.__dict__
    data = pickle.dumps(instance)
    assert len(data) == size
    copy = pickle.loads(data)
    assert "_witness_index" not in copy.__dict__ and "_domain" in copy.__dict__
    assert copy._probes.keys() == instance._probes.keys()
    assert enumerate_witnesses(q, copy) == want
    assert "_witness_index" in instance.__dict__


def test_witness_index_keeps_no_instance_alive():
    """The instance keeps its witness index, which refers to nothing that
    refers back to the instance, so the instance is freed with its last
    reference."""
    instance = scaling_instance(40)
    assert _witness_index(parse_query("q :- S(x), R(x,y), T(y).", instance),
                          instance).minimal
    alive = weakref.ref(instance)
    del instance
    gc.collect()
    assert alive() is None


def test_each_instance_keeps_its_own_witness_index(monkeypatch):
    """An instance keeps the witness index of the latest conjunctive query
    asked of it: calls that alternate between two instances build one
    index each, a second query replaces the first, and a ``restrict`` copy
    starts with none."""
    built, build = [], dbexplain.query._build_witness_index

    def counted(query, instance):
        built.append(query)
        return build(query, instance)

    monkeypatch.setattr(dbexplain.query, "_build_witness_index", counted)
    first, second = scaling_instance(40), scaling_instance(40)
    q1 = parse_query("q :- S(x), R(x,y), T(y).", first)
    q2 = parse_query("q :- S(x), R(x,y), S(y).", first)
    want = enumerate_witnesses(q1, scaling_instance(40))
    built.clear()
    for _ in range(3):
        assert core_fast(first, q1).tuples == core_fast(second, q1).tuples
    assert len(built) == 2
    assert enumerate_witnesses(q1, first) == enumerate_witnesses(q1, second) == want
    assert len(built) == 2

    built.clear()
    third = scaling_instance(40)
    for q in (q1, q2, q1):
        assert _witness_index(q, third).minimal
        assert _witness_index(q, third) is _witness_index(q, third)
    assert built == [q1, q2, q1]

    part = third.restrict(f.tid for f in third.facts[::2])
    assert "_witness_index" not in part.__dict__
    assert _witness_index(q1, part) is not _witness_index(q1, third)
    assert len(built) == 4


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
    """``R(x,y)`` and ``R('x',y)`` compare unequal and have different
    witnesses on one instance; neither reads the other's index."""
    instance = Instance.build({"R": 2}, [Fact("r1", "R", ("x", "a")),
                                         Fact("r2", "R", ("b", "c"))])
    free = parse_query("q :- R(x,y).", schema=instance.schema)
    bound = parse_query("q :- R('x',y).", schema=instance.schema)
    assert free != bound and Var("x") != Const("x")
    for _ in range(2):
        assert [w.tuples for w in enumerate_witnesses(free, instance)] == [
            frozenset({"r1"}), frozenset({"r2"})]
        assert [w.tuples for w in enumerate_witnesses(bound, instance)] == [
            frozenset({"r1"})]


def test_join_leaves_no_cyclic_garbage():
    """The join's stages are freed when a call returns, not when the
    cyclic collector next runs, and the probes it keeps with the instance
    form no cycle."""
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
    for q, message in [(BooleanCQ((Atom("R", (Var("x"),)),)), "expects 2 arguments"),
                       (ReachabilityQuery("S", "a", "b"), "must be binary")]:
        for call in (evaluate, enumerate_witnesses,
                     lambda q, instance: enumerate_mss(instance, q)):
            with pytest.raises(QuerySyntaxError, match=message):
                call(q, srs_prime)


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
