from __future__ import annotations

import random
from fractions import Fraction

import pytest

import dbexplain.query
from dbexplain import (
    Fact,
    Instance,
    OracleBoundExceeded,
    QueryNotSatisfied,
    actual_causes,
    cause_repair_correspondence,
    check_duality,
    degrees,
    denial_constraint_of,
    enumerate_mns,
    enumerate_mss,
    enumerate_s_repairs,
    minimal_hitting_sets,
    parse_query,
    verify_explanation,
)
from dbexplain.synth import planted_query, random_instance, scaling_instance

import bruteforce
from conftest import inst, tids


# ---------------------------------------------------------------------------
# minimal sufficient sets

def test_mss_rt_instance(rt_small, q_rt):
    assert tids(enumerate_mss(rt_small, q_rt)) == [
        ["R:a1,a3", "T:a3"], ["R:a3,a3", "T:a3"]]


def test_mss_routes_with_exogenous_tuples(g_routes_exo24, q_path_ab):
    assert tids(enumerate_mss(g_routes_exo24, q_path_ab)) == [
        ["t1"], ["t3"], ["t5", "t6"]]


def test_mss_single_tuple_instance():
    inst = Instance.build({"R": 1}, [Fact("t", "R", ("a",))])
    q = parse_query("q :- R(x).", inst)
    assert tids(enumerate_mss(inst, q)) == [["t"]]


def test_mss_requires_satisfaction(rt_small):
    q = parse_query("q :- R(x,y), T('zz').", rt_small)
    with pytest.raises(QueryNotSatisfied):
        enumerate_mss(rt_small, q)
    with pytest.raises(QueryNotSatisfied):  # reported before the bound
        enumerate_mss(rt_small, q, max_endo=0)


def test_oracle_bound(rt_small, q_rt):
    with pytest.raises(OracleBoundExceeded):
        enumerate_mss(rt_small, q_rt, max_endo=3)


def test_mss_enumerates_the_instance_once(monkeypatch):
    """For a conjunctive query the oracle reads truth off the witness
    index instead of evaluating the query first, so a first call joins
    once and a second one on the same pair not at all."""
    runs = []
    original = dbexplain.query._assignments
    monkeypatch.setattr(dbexplain.query, "_assignments", lambda query, instance:
                        runs.append(instance) or original(query, instance))
    instance = inst("srs_prime.json")
    q = parse_query("q :- S(x), R(x,y), S(y).", instance)
    assert tids(enumerate_mss(instance, q)) == [["R:b,b", "S:b"], ["R:c,b", "S:b", "S:c"]]
    assert len(runs) == 1
    enumerate_mss(instance, q)
    assert len(runs) == 1


# ---------------------------------------------------------------------------
# minimal necessary sets

def test_mns_rt_instance(rt_small, q_rt):
    assert tids(enumerate_mns(rt_small, q_rt)) == [
        ["R:a1,a3", "R:a3,a3"], ["T:a3"]]


def test_mns_counterfactual_single_tuple(g_routes_exo24, q_path_ab):
    # with t2,t4 shielded each necessary set must break all three routes
    fam = tids(enumerate_mns(g_routes_exo24, q_path_ab))
    assert ["t1", "t3", "t5"] in fam and ["t1", "t3", "t6"] in fam


def test_mns_empty_when_exogenous_part_satisfies(g_routes_exo23, q_path_ab):
    # t2,t3 alone connect a to b, so no endogenous deletion falsifies:
    # there are no necessary sets at all, and the empty set is sufficient
    assert enumerate_mns(g_routes_exo23, q_path_ab) == ()
    assert tids(enumerate_mss(g_routes_exo23, q_path_ab)) == [[]]


# ---------------------------------------------------------------------------
# degrees

def test_degrees_all_routes_one_third(g_routes, q_path_ab):
    rep = degrees(g_routes, q_path_ab)
    for tid in g_routes.tids():
        assert rep.eta(tid) == Fraction(1, 3)
        assert rep.rho(tid) == Fraction(1, 3)


def test_degrees_rt_instance(rt_small, q_rt):
    rep = degrees(rt_small, q_rt)
    assert rep.eta("T:a3") == 1
    assert rep.eta("R:a1,a3") == rep.eta("R:a3,a3") == Fraction(1, 2)
    for tid in ("R:a1,a3", "R:a3,a3", "T:a3"):
        assert rep.sigma(tid) == Fraction(1, 2)
    for tid in ("R:a1,a4", "T:a1", "T:a2"):
        assert rep.eta(tid) == rep.sigma(tid) == rep.rho(tid) == 0


def test_degrees_strong_flags(rt_small, q_rt):
    rep = degrees(rt_small, q_rt)
    # T:a3 is in every MSS but not in every MNS
    assert rep.per_tuple["T:a3"].strong_sufficient
    assert not rep.per_tuple["T:a3"].strong_necessary
    assert not rep.per_tuple["R:a1,a3"].strong_sufficient


def test_degrees_direct_edge_has_full_sufficiency(g_routes, q_path_ab):
    rep = degrees(g_routes, q_path_ab)
    assert rep.sigma("t1") == 1
    assert rep.sigma("t2") == rep.sigma("t3") == Fraction(1, 2)
    assert rep.sigma("t4") == Fraction(1, 3)


def test_degrees_exogenous_tuples_are_zero(g_routes_exo23, q_path_ab):
    rep = degrees(g_routes_exo23, q_path_ab)
    # the exogenous 2-edge route keeps the query true under every
    # endogenous deletion, so necessity collapses entirely
    for tid in g_routes_exo23.tids():
        assert rep.eta(tid) == 0 and rep.rho(tid) == 0 and rep.sigma(tid) == 0


def test_degrees_diamond_graph(g_diamond, q_path_st):
    rep = degrees(g_diamond, q_path_st)
    assert rep.eta("t5") == 1
    assert rep.eta("t2") == rep.eta("t4") == Fraction(1, 2)
    assert rep.sigma("t2") == rep.sigma("t4") == rep.sigma("t5") == Fraction(1, 2)
    assert rep.eta("t1") == rep.eta("t3") == 0
    assert rep.sigma("t1") == rep.sigma("t3") == 0


def test_degrees_eta_equals_rho(g_routes, g_diamond, rt_small, srs_prime,
                                q_path_ab, q_path_st, q_rt, q_srs):
    for instance, q in [(g_routes, q_path_ab), (g_diamond, q_path_st),
                        (rt_small, q_rt), (srs_prime, q_srs)]:
        rep = degrees(instance, q)
        for tid, d in rep.per_tuple.items():
            assert d.eta == d.rho, tid


# ---------------------------------------------------------------------------
# actual causes

def test_degrees_match_the_full_mns_list_across_components():
    """eta and strong necessity from the per-component minima equal the
    values read off the product of the components' transversals."""
    # four components, plus a fifth whose only transversal is {S:z}
    base = scaling_instance(40)
    instance = Instance.build(base.schema, [
        *base.facts, Fact("S:z", "S", ("z",)),
        Fact("R:z,w", "R", ("z", "w"), endo=False), Fact("T:w", "T", ("w",), endo=False)])
    q = parse_query("q :- S(x), R(x,y), T(y).", instance)
    mss = [s.tuples for s in enumerate_mss(instance, q, max_endo=41)]
    mns = minimal_hitting_sets(mss)
    assert len(mns) == 729
    report = degrees(instance, q, max_endo=41)
    for tid in sorted(instance.endogenous_part()):
        sizes = [len(s) for s in mns if tid in s]
        d = report.per_tuple[tid]
        assert d.eta == d.rho == (Fraction(1, min(sizes)) if sizes else 0), tid
        assert d.strong_necessary == all(tid in s for s in mns), tid
    assert [t for t, d in report.per_tuple.items() if d.strong_necessary] == ["S:z"]


def test_causes_all_edges_with_two_tuple_contingencies(g_routes, q_path_ab):
    rep = actual_causes(g_routes, q_path_ab)
    assert set(rep.causes) == g_routes.tids()
    assert min(len(g) for g in rep.contingencies["t1"]) == 2


def test_causes_never_exogenous(g_routes_exo24, q_path_ab):
    rep = actual_causes(g_routes_exo24, q_path_ab)
    assert set(rep.causes) == {"t1", "t3", "t5", "t6"}


def test_causes_counterfactual_has_empty_contingency(rt_small, q_rt):
    rep = actual_causes(rt_small, q_rt)
    assert frozenset() in rep.contingencies["T:a3"]


def test_causes_match_mns_membership(srs_prime, q_srs):
    rep = actual_causes(srs_prime, q_srs)
    in_some_mns = {t for s in enumerate_mns(srs_prime, q_srs) for t in s.tuples}
    assert set(rep.causes) == in_some_mns


# ---------------------------------------------------------------------------
# duality and the repair correspondence

def test_duality_rt_instance(rt_small, q_rt):
    res = check_duality(rt_small, q_rt)
    assert res.holds and res.violations == ()


def test_duality_single_witness():
    inst = Instance.build({"R": 1}, [Fact("t", "R", ("a",))])
    q = parse_query("q :- R(x).", inst)
    assert check_duality(inst, q).holds


def test_duality_on_random_instances():
    rng = random.Random(4242)
    checked = 0
    while checked < 50:
        instance = random_instance(rng, max_tuples=8, exo_mode="tuples")
        q = planted_query(rng, instance, n_atoms=2)
        if q is None:
            continue
        res = check_duality(instance, q)
        assert res.holds, (instance.to_dict(), str(q), res.violations)
        checked += 1


def test_correspondence_seven_tuple_instance(srs_prime, q_srs):
    res = cause_repair_correspondence(srs_prime, q_srs)
    assert res.holds
    assert res.detail["c_repair_removals"] == [["S:b"]]
    # the sole cardinality-repair removal is a counterfactual cause
    rep = degrees(srs_prime, q_srs)
    assert rep.rho("S:b") == 1


def test_correspondence_all_endogenous_equals_repairs(srs_base):
    q = parse_query("q :- S(x), R(x,y), S(y).", srs_base)
    res = cause_repair_correspondence(srs_base, q)
    assert res.holds
    removals = [sorted(r.removed) for r in enumerate_s_repairs(
        srs_base, denial_constraint_of(q))]
    assert sorted(res.detail["mns"]) == sorted(removals)


def test_correspondence_vacuous_with_exogenous_witness():
    inst = Instance.build({"R": 1, "S": 1}, [
        Fact("r1", "R", ("a",), endo=False), Fact("s1", "S", ("b",))])
    q = parse_query("q :- R(x).", inst)
    res = cause_repair_correspondence(inst, q)
    assert res.holds
    assert res.detail["mns"] == [] and res.detail["s_repair_removals"] == []


# ---------------------------------------------------------------------------
# agreement with the exhaustive subset scan

FIXTURE_QUERIES = [
    ("g_routes.json", "q :- path(E, a, b)."),
    ("g_routes_exo23.json", "q :- path(E, a, b)."),
    ("g_routes_exo24.json", "q :- path(E, a, b)."),
    ("g_diamond.json", "q :- path(E, s, t)."),
    ("rt_small.json", "q :- R(x,y), T(y)."),
    ("srs_base.json", "q :- S(x), R(x,y), S(y)."),
    ("srs_prime.json", "q :- S(x), R(x,y), S(y)."),
    ("srs_prime_exoR.json", "q :- S(x), R(x,y), S(y)."),
    ("rrs_loop.json", "q :- R(x,y), R(y,z), S(x,y)."),
]


def test_families_match_bruteforce_on_fixtures():
    for name, text in FIXTURE_QUERIES:
        instance = inst(name)
        q = parse_query(text, instance)
        for ours, scan in [(enumerate_mss, bruteforce.enumerate_mss),
                           (enumerate_mns, bruteforce.enumerate_mns),
                           (degrees, bruteforce.degrees),
                           (actual_causes, bruteforce.actual_causes)]:
            assert ours(instance, q) == scan(instance, q), (name, ours.__name__)


# ---------------------------------------------------------------------------
# checked explanation sets

def test_verify_explanation_rejects_bad_sets(rt_small, q_rt):
    from dbexplain import ExplanationInvalid
    with pytest.raises(ExplanationInvalid, match="not minimal"):
        verify_explanation(rt_small, q_rt, "MSS",
                           {"R:a1,a3", "R:a3,a3", "T:a3"})
    with pytest.raises(ExplanationInvalid, match="not sufficient"):
        verify_explanation(rt_small, q_rt, "SS", {"T:a1"})
    with pytest.raises(ExplanationInvalid, match="falsify"):
        verify_explanation(rt_small, q_rt, "NS", {"R:a1,a4"})
