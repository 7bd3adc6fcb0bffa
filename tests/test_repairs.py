from __future__ import annotations

import itertools
import random

import pytest

from dbexplain import (
    Fact,
    Instance,
    OracleBoundExceeded,
    RepairNotFound,
    core_naive,
    denial_constraint_of,
    enumerate_c_repairs,
    enumerate_mns,
    enumerate_s_repairs,
    evaluate,
    minimal_hitting_sets,
    parse_query,
    verify_explanation,
)
from dbexplain.synth import planted_query, random_instance

from conftest import tids


def removals(reps):
    return tids(r.removed for r in reps)


def test_s_repairs_seven_tuple_instance(srs_prime, q_srs):
    reps = enumerate_s_repairs(srs_prime, denial_constraint_of(q_srs))
    assert removals(reps) == [["R:b,b", "R:c,b"], ["R:b,b", "S:c"], ["S:b"]]
    # ordering: smallest removal first, then tid-lexicographic
    assert [sorted(r.removed) for r in reps] == [
        ["S:b"], ["R:b,b", "R:c,b"], ["R:b,b", "S:c"]]


def test_s_repairs_consistent_instance(srs_prime, q_srs):
    consistent = srs_prime.restrict({"R:a,d", "S:a"})
    reps = enumerate_s_repairs(consistent, denial_constraint_of(q_srs))
    assert len(reps) == 1
    assert reps[0].removed == frozenset() and reps[0].cardinality_minimal


def test_s_repairs_loop_instance_includes_two_tuple_removal(rrs_loop, q_rrs):
    reps = enumerate_s_repairs(rrs_loop, denial_constraint_of(q_rrs))
    assert ["R:a,a", "S:a,b"] in removals(reps)


def test_c_repairs_unique_minimum(srs_prime, q_srs):
    reps = enumerate_c_repairs(srs_prime, denial_constraint_of(q_srs))
    assert removals(reps) == [["S:b"]]


def test_c_repairs_agree_with_filtering(rrs_loop, q_rrs):
    dc = denial_constraint_of(q_rrs)
    all_reps = enumerate_s_repairs(rrs_loop, dc)
    least = min(len(r.removed) for r in all_reps)
    assert removals(enumerate_c_repairs(rrs_loop, dc)) == \
        removals(r for r in all_reps if len(r.removed) == least)


def test_repairs_are_maximal_consistent(srs_prime, srs_base, rrs_loop):
    for instance, text in [(srs_prime, "q :- S(x), R(x,y), S(y)."),
                           (srs_base, "q :- S(x), R(x,y), S(y)."),
                           (rrs_loop, "q :- R(x,y), R(y,z), S(x,y).")]:
        q = parse_query(text, instance)
        for r in enumerate_s_repairs(instance, denial_constraint_of(q)):
            verify_explanation(instance, q, "repair-removal", r.removed)


def test_repairs_match_direct_maximality_search():
    """Hitting-set repairs equal brute-force subset-maximal consistent sets."""
    rng = random.Random(99)
    done = 0
    while done < 12:
        instance = random_instance(rng, max_tuples=7)
        q = planted_query(rng, instance, n_atoms=2, self_join=rng.random() < 0.5)
        if q is None or not evaluate(q, instance):
            continue
        universe = sorted(instance.tids())
        consistent = [frozenset(c)
                      for n in range(len(universe) + 1)
                      for c in itertools.combinations(universe, n)
                      if not evaluate(q, instance.restrict(c))]
        maximal = [c for c in consistent
                   if not any(c < d for d in consistent)]
        got = enumerate_s_repairs(instance, denial_constraint_of(q),
                                  max_deletable=10)
        assert tids(r.kept for r in got) == tids(maximal)
        done += 1


def test_repair_removals_equal_mns_when_all_endogenous(srs_base):
    q = parse_query("q :- S(x), R(x,y), S(y).", srs_base)
    reps = enumerate_s_repairs(srs_base, denial_constraint_of(q))
    assert removals(reps) == tids(enumerate_mns(srs_base, q))


def test_endogenous_only_mode(srs_prime, q_srs):
    partial = Instance.build(srs_prime.schema, [
        Fact(f.tid, f.pred, f.vals, endo=f.tid != "S:c")
        for f in srs_prime.facts])
    reps = enumerate_s_repairs(partial, denial_constraint_of(q_srs),
                               endogenous_only=True)
    for r in reps:
        assert "S:c" in r.kept


def test_endogenous_only_mode_unrepairable():
    inst = Instance.build({"R": 1}, [Fact("r1", "R", ("a",), endo=False)])
    q = parse_query("q :- R(x).", inst)
    with pytest.raises(RepairNotFound):
        enumerate_s_repairs(inst, denial_constraint_of(q), endogenous_only=True)


def test_repair_bound(srs_prime, q_srs):
    with pytest.raises(OracleBoundExceeded):
        enumerate_s_repairs(srs_prime, denial_constraint_of(q_srs), max_deletable=3)


def test_core_naive_seven_tuple_instance(srs_prime, q_srs):
    res = core_naive(srs_prime, denial_constraint_of(q_srs))
    assert sorted(res.tuples) == ["R:a,d", "R:e,f", "S:a"]
    assert res.method == "naive-intersection"


def test_core_naive_consistent_instance(srs_prime, q_srs):
    consistent = srs_prime.restrict({"R:a,d", "S:a"})
    res = core_naive(consistent, denial_constraint_of(q_srs))
    assert res.tuples == consistent.tids()


def test_core_naive_loop_instance(rrs_loop, q_rrs):
    res = core_naive(rrs_loop, denial_constraint_of(q_rrs))
    assert sorted(res.tuples) == ["S:b,c"]


def test_core_never_contains_witness_tuples(srs_prime, q_srs):
    from dbexplain import enumerate_witnesses
    core = core_naive(srs_prime, denial_constraint_of(q_srs)).tuples
    for w in enumerate_witnesses(q_srs, srs_prime):
        assert not (core & w.tuples)


def test_minimal_hitting_sets_basic():
    fam = [frozenset({"a", "b"}), frozenset({"b", "c"})]
    assert minimal_hitting_sets(fam) == [frozenset({"b"}), frozenset({"a", "c"})]
    with pytest.raises(ValueError):
        minimal_hitting_sets([frozenset()])


def test_wide_transversal_is_one_set():
    # a transversal deeper than the interpreter's default recursion limit
    n = 1200
    edges = [frozenset({f"t{i}"}) for i in range(n)]
    assert minimal_hitting_sets(edges) == [frozenset().union(*edges)]
    inst = Instance.build({"R": 1}, [Fact(f"t{i}", "R", (f"c{i}",)) for i in range(n)])
    reps = enumerate_s_repairs(inst, denial_constraint_of(parse_query("q :- R(x).", inst)),
                               max_deletable=5000)
    assert len(reps) == 1 and reps[0].removed == inst.tids()
