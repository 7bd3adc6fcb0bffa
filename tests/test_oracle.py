from __future__ import annotations

import itertools
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import dbexplain.oracle
import dbexplain.query
import dbexplain.repairs
from dbexplain import (
    Fact,
    Instance,
    OracleBoundExceeded,
    QueryNotSatisfied,
    ReachabilityQuery,
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
from dbexplain.query import Query
from dbexplain.repairs import _bitmask_components
from dbexplain.synth import (SCALING_QUERY_TEXT, planted_query, random_instance,
                             scaling_instance)

import bruteforce
from conftest import inst, position_sets, tids


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


# ---------------------------------------------------------------------------
# the work caps: no bound on the endogenous part, only on the listing

def _scaling(n: int):
    instance = scaling_instance(n)
    return instance, parse_query(SCALING_QUERY_TEXT, instance)


def test_degrees_answer_past_twenty_endogenous_tuples():
    """60 endogenous tuples: eta equals the value read off the full MNS
    listing."""
    instance, q = _scaling(60)
    mns = minimal_hitting_sets([s.tuples for s in enumerate_mss(instance, q)])
    assert len(mns) == 4293
    report = degrees(instance, q)
    for tid in sorted(instance.endogenous_part()):
        sizes = [len(s) for s in mns if tid in s]
        assert report.eta(tid) == (Fraction(1, min(sizes)) if sizes else 0), tid


def test_mss_and_degrees_answer_on_two_hundred_tuples():
    instance, q = _scaling(200)
    mss = enumerate_mss(instance, q)
    assert len(mss) == 33
    for s in mss:
        verify_explanation(instance, q, "MSS", s.tuples)
    report = degrees(instance, q)
    assert set(report.per_tuple) == instance.tids()
    for tid, d in report.per_tuple.items():
        through = [len(s) for s in mss if tid in s.tuples]
        assert d.sigma == (Fraction(1, min(through)) if through else 0), tid
        assert (d.eta > 0) == bool(through), tid


def _counts(exc: pytest.ExceptionInfo) -> tuple[int, int]:
    """The tests made and the tuples held, as a refusal of the transversal
    search names them."""
    found = re.match(r"([0-9,]+) intersection and subset tests and ([0-9,]+) tuples held",
                     str(exc.value))
    assert found, str(exc.value)
    return tuple(int(g.replace(",", "")) for g in found.groups())


def test_transversal_listing_trips_the_test_cap(monkeypatch):
    """At n = 111 one component of W has 20 members and 109,439 minimal
    hitting sets: the search lists them under the test cap, and the MNS
    they join to are refused before one is built.  Under a cap lowered to
    1,000,000 tests each listing names the count that tripped it.  eta
    needs no listing."""
    instance, q = _scaling(111)
    with pytest.raises(OracleBoundExceeded, match="984,897 unions of per-component minimal "
                                                  "hitting sets would hold 16,588,026 tuples"):
        enumerate_mns(instance, q)
    monkeypatch.setattr(dbexplain.repairs, "MAX_TRANSVERSAL_TESTS", 1_000_000)
    for listing in (enumerate_mns, actual_causes):
        with pytest.raises(OracleBoundExceeded, match="in a search for minimal hitting sets "
                                                      "among 20 members") as exc:
            listing(instance, q)
        assert _counts(exc) == (1_000_009, 204_799), listing.__name__
    etas = Counter(d.eta for d in degrees(instance, q).per_tuple.values())
    assert etas == {0: 65, Fraction(1, 10): 22, Fraction(1, 11): 10,
                    Fraction(1, 12): 7, Fraction(1, 13): 7}


def _two_cycle_chain(k: int) -> tuple[Instance, Query]:
    """k two-cycles R(a_i, b_i), R(b_i, a_i), chained by R(b_i, a_i+1), under
    a three-edge path query: one component whose size-2 members, sorted
    first, are pairwise disjoint."""
    facts = []
    for i in range(k):
        facts += [Fact(f"R:a{i},b{i}", "R", (f"a{i}", f"b{i}")),
                  Fact(f"R:b{i},a{i}", "R", (f"b{i}", f"a{i}"))]
        if i + 1 < k:
            facts.append(Fact(f"R:b{i},a{i + 1}", "R", (f"b{i}", f"a{i + 1}")))
    instance = Instance.build({"R": 2}, facts)
    return instance, parse_query("q :- R(x,y), R(y,z), R(z,w).", instance)


def test_working_family_is_capped_by_the_tuples_it_holds(monkeypatch):
    """On k chained two-cycles the minimal hitting sets grow about fivefold
    with every two more two-cycles (65,641 at k = 14), while the search
    makes few tests per set: at k = 24 it is refused on the tuples the
    sets it has found hold, long before the test cap (here the cap is
    lowered to 20,000 tuples, to keep the test small)."""
    monkeypatch.setattr(dbexplain.repairs, "MAX_HELD_TUPLES", 20_000)
    instance, q = _two_cycle_chain(24)
    assert len(instance) == 71
    listings = (enumerate_mns, actual_causes, lambda i, q: enumerate_s_repairs(
        i, denial_constraint_of(q), max_deletable=len(i)))
    for listing in listings:
        with pytest.raises(OracleBoundExceeded, match="with 482 minimal hitting sets found "
                                                      "among 69 members") as exc:
            listing(instance, q)
        assert _counts(exc) == (70_607, 20_012), str(exc.value)
    # as for 8 two-cycles, judged by Berge in test_eta_is_read_off_berges_listing
    etas = Counter(d.eta for d in degrees(instance, q).per_tuple.values())
    assert etas == {Fraction(1, 24): 26, Fraction(1, 25): 45}


def test_contingency_sets_are_refused_before_they_are_built():
    """5 conflicts R(c), S(c) beside 1,000 tuples R(d) that each satisfy
    the query with an exogenous S(d): 32 MNS of 1,005 tuples are listed,
    but their contingency sets would hold about 32M tuples."""
    facts = [Fact(f"{p}:c{i}", p, (f"c{i}",)) for i in range(5) for p in "RS"]
    facts += [Fact(f"R:d{i}", "R", (f"d{i}",)) for i in range(1000)]
    facts += [Fact(f"S:d{i}", "S", (f"d{i}",), endo=False) for i in range(1000)]
    instance = Instance.build({"R": 1, "S": 1}, facts)
    q = parse_query("q :- R(x), S(x).", instance)
    assert [len(s.tuples) for s in enumerate_mns(instance, q)] == [1005] * 32
    assert check_duality(instance, q).holds
    for listing in (actual_causes, cause_repair_correspondence):
        with pytest.raises(OracleBoundExceeded, match="contingency sets of 32 MNS"):
            listing(instance, q)


def test_duality_check_is_refused_before_its_first_test(monkeypatch):
    """Testing 5 MSS against 32 MNS and back takes 320 tests; under a cap
    lowered to 319 none is made."""
    def refuse(*args, **kwargs):
        raise AssertionError("a set was tested")

    instance = Instance.build({"R": 1, "S": 1}, [
        Fact(f"{p}:c{i}", p, (f"c{i}",)) for i in range(5) for p in "RS"])
    q = parse_query("q :- R(x), S(x).", instance)
    monkeypatch.setattr(dbexplain.oracle, "MAX_TRANSVERSAL_TESTS", 319)
    monkeypatch.setattr(dbexplain.oracle, "_is_minimal_hitting_set", refuse)
    with pytest.raises(OracleBoundExceeded, match="320 intersection tests"):
        check_duality(instance, q)


def test_mns_product_is_refused_before_it_is_built(monkeypatch):
    """At n = 100 the components' transversals are listed, but their
    product, 2,008,395 MNS, is refused without building one."""
    def refuse(*args, **kwargs):
        raise AssertionError("the MNS were built")

    instance, q = _scaling(100)
    monkeypatch.setattr(itertools, "product", refuse)
    with pytest.raises(OracleBoundExceeded, match="2,008,395 unions"):
        enumerate_mns(instance, q)


def _grid(rows: int, cols: int) -> tuple[Instance, Query]:
    """Right and down edges over a rows x cols grid, corner to corner."""
    facts = []
    for r, c in itertools.product(range(rows), range(cols)):
        for dr, dc in ((0, 1), (1, 0)):
            if r + dr < rows and c + dc < cols:
                facts.append(Fact(f"e{len(facts):02d}", "E",
                                  (f"n{r}_{c}", f"n{r + dr}_{c + dc}")))
    instance = Instance.build({"E": 2}, facts)
    return instance, parse_query(f"q :- path(E, n0_0, n{rows - 1}_{cols - 1}).",
                                 instance)


def test_degrees_on_grid_paths():
    """A 4 x 5 grid (31 edges, 35 paths) and a 5 x 5 grid (40 edges, 70
    paths) answer; a 6 x 7 grid (71 edges, 462 paths) trips the test cap."""
    instance, q = _grid(4, 5)
    assert len(instance) == 31
    report = degrees(instance, q)
    source = [f.tid for f in instance.facts if f.vals[0] == "n0_0"]
    assert [report.eta(t) for t in source] == [Fraction(1, 2)] * 2
    assert all(d.eta > 0 and d.sigma == Fraction(1, 7) for d in report.per_tuple.values())
    instance, q = _grid(5, 5)
    etas = Counter(d.eta for d in degrees(instance, q).per_tuple.values())
    assert etas == {Fraction(1, 2): 4, Fraction(1, 3): 8, Fraction(1, 4): 12,
                    Fraction(1, 5): 16}
    instance, q = _grid(6, 7)
    with pytest.raises(OracleBoundExceeded, match="intersection and subset tests"):
        degrees(instance, q)


def test_mns_of_a_5x5_grid_are_certified():
    """The 5 x 5 grid's 70 paths have 6,458 minimal transversals, which
    Berge's dualization could not list under the test cap.  Each MNS is checked
    against the paths of a plain recursive search: it meets every path,
    and each of its tuples is alone in some path."""
    instance, q = _grid(5, 5)
    paths, _ = bruteforce.depth_first_paths(instance, q)
    mns = [s.tuples for s in enumerate_mns(instance, q)]
    assert len(paths) == 70 and len(mns) == len(set(mns)) == 6_458
    for s in mns:
        assert all(p & s for p in paths), sorted(s)
        assert {t for p in paths if len(met := p & s) == 1 for t in met} == s, sorted(s)


def test_one_hub_star_forces_its_spokes_in_one_step():
    """q :- R(x), S(x, y) on one R fact and 20,000 S facts: W is one
    component of 20,000 members through r, with the two MNS {r} and the S
    facts.  The search forces the S facts in one step, not one level per
    fact over the members left, and copies no member mask, so it answers
    in well under a second and holds little beyond the masks of W."""
    n = 20_000
    instance = Instance.build({"R": 1, "S": 2}, [Fact("r", "R", ("a",))] + [
        Fact(f"s{i:05d}", "S", ("a", f"b{i}")) for i in range(n)])
    q = parse_query("q :- R(x), S(x, y).", instance)
    assert len(enumerate_mss(instance, q)) == n
    t0 = time.perf_counter()
    mns = enumerate_mns(instance, q)
    elapsed = time.perf_counter() - t0
    assert [s.tuples for s in mns] == [frozenset({"r"}), instance.tids() - {"r"}]
    assert elapsed < 2.0, f"{elapsed:.2f} s"
    tracemalloc.start()
    try:
        enumerate_mns(instance, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"{peak:,} bytes"


def _eta_by_listing(mss: list[frozenset[str]]) -> dict[str, Fraction]:
    """eta read off Berge's transversals of each component: the smallest
    through t in t's component, plus the other components' minima."""
    parts = [bruteforce.berge_transversals(position_sets(tuples, members))
             for tuples, members in _bitmask_components(mss)]
    least = sum(len(part[0]) for part in parts)
    eta: dict[str, Fraction] = {}
    for part in parts:
        for s in part:
            for tid in s:
                eta.setdefault(tid, Fraction(1, least - len(part[0]) + len(s)))
    return eta


@pytest.mark.parametrize("make", [
    *(lambda n=n: _scaling(n) for n in (60, 100, 109, 120, 200)),
    lambda: _grid(4, 5), lambda: _two_cycle_chain(8)],
    ids=["n60", "n100", "n109", "n120", "n200", "grid4x5", "two-cycles8"])
def test_eta_is_read_off_berges_listing(make):
    """eta by the minimum-size search equals eta read off Berge's full
    listing in tests/bruteforce.py (at n = 109 it takes about a second)."""
    instance, q = make()
    eta = _eta_by_listing([s.tuples for s in enumerate_mss(instance, q)])
    report = degrees(instance, q)
    for tid in sorted(instance.tids()):
        assert report.eta(tid) == eta.get(tid, 0), tid


def test_mss_enumerates_the_instance_once(monkeypatch):
    """For a conjunctive query the oracle reads truth off the witness
    index instead of evaluating the query first, so a first call joins
    once and a second one on the same pair not at all."""
    runs = []
    original = dbexplain.query._bindings
    monkeypatch.setattr(dbexplain.query, "_bindings", lambda query, instance:
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
    mss = [s.tuples for s in enumerate_mss(instance, q)]
    mns = minimal_hitting_sets(mss)
    assert len(mns) == 729
    report = degrees(instance, q)
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


def test_correspondence_builds_no_repair(monkeypatch):
    """Nine conflicts R(i), S(i) beside 4,000 unrelated tuples: the 512
    s-repairs would keep 2,052,608 tuples, past the held-tuple cap, but
    the correspondence reads their removals alone and answers."""
    facts = [Fact(f"{p}{i}", p, (str(i),)) for p in "RS" for i in range(9)]
    facts += [Fact(f"u{i:04d}", "U", (str(i),)) for i in range(4_000)]
    instance = Instance.build({"R": 1, "S": 1, "U": 1}, facts)
    q = parse_query("q :- R(x), S(x).", instance)
    with pytest.raises(OracleBoundExceeded, match="512 repairs would keep 2,052,608 tuples"):
        enumerate_s_repairs(instance, denial_constraint_of(q), max_deletable=len(facts))
    monkeypatch.setattr(dbexplain.repairs, "Repair", None)
    res = cause_repair_correspondence(instance, q)
    assert res.holds
    assert len(res.detail["s_repair_removals"]) == len(res.detail["c_repair_removals"]) == 512


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


def _random_exo_digraph(rng: random.Random) -> tuple[Instance, str]:
    """At most 10 distinct edges, self-loops included, over 2-5 nodes, each
    edge exogenous with probability 1/3."""
    nodes = "abcde"[:rng.randint(2, 5)]
    pairs = [(u, v) for u in nodes for v in nodes]
    edges = rng.sample(pairs, rng.randint(1, min(10, len(pairs))))
    return Instance.build({"E": 2}, [Fact(f"E:{u},{v}", "E", (u, v), endo=rng.random() > 1 / 3)
                                     for u, v in edges]), nodes


def test_path_families_match_bruteforce_on_random_digraphs():
    """A path query's W comes off the simple-path walk, with no witness
    objects: its families equal the exhaustive scan's on random digraphs
    with cycles and exogenous edges.  In the fixed graph the exogenous
    edge s->m makes the endogenous part {m->t} of s->m->t a proper subset
    of that of s->n->m->t, and s->k->m->t repeats it, so W needs the
    minimality pass."""
    assert not hasattr(dbexplain.oracle, "enumerate_witnesses")
    assert not hasattr(dbexplain.oracle, "_antichain")
    nested = Instance.build({"E": 2}, [
        Fact(tid, "E", tuple(tid), endo=tid in ("sn", "nm", "mt"))
        for tid in ("sm", "sn", "nm", "sk", "km", "mt")])
    cases = [(nested, ReachabilityQuery("E", "s", "t"))]
    rng = random.Random(2121)
    for _ in range(150):
        instance, nodes = _random_exo_digraph(rng)
        cases.append((instance, ReachabilityQuery("E", rng.choice(nodes), rng.choice(nodes))))
    seen = Counter()
    for instance, q in cases:
        endo = instance.endogenous_part()
        parts = [p & endo for p in bruteforce.simple_paths(instance, q)]
        seen["false"] += not parts
        seen["exogenous path"] += frozenset() in parts
        seen["nested"] += any(a < b for a in parts for b in parts)
        for ours, scan in [(enumerate_mss, bruteforce.enumerate_mss),
                           (enumerate_mns, bruteforce.enumerate_mns),
                           (degrees, bruteforce.degrees),
                           (actual_causes, bruteforce.actual_causes)]:
            if not parts:
                with pytest.raises(QueryNotSatisfied):
                    ours(instance, q)
                continue
            assert ours(instance, q) == scan(instance, q), \
                (sorted(instance.tids()), sorted(endo), str(q), ours.__name__)
    assert tids(enumerate_mss(nested, cases[0][1])) == [["mt"]]
    assert min(seen.values()) >= 10, seen


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
