from __future__ import annotations

import random
from fractions import Fraction

import pytest

import dbexplain.explanations
import dbexplain.fastpath
import dbexplain.oracle
import dbexplain.query
from dbexplain import (
    ChaseDefect,
    ChaseSeedError,
    ExplanationInvalid,
    Fact,
    Instance,
    QueryNotSatisfied,
    Repair,
    RepairNotFound,
    UnsupportedQuery,
    available_backends,
    backend_name,
    cause_repair_correspondence,
    chase_mss,
    core_fast,
    core_naive,
    degrees,
    denial_constraint_of,
    enumerate_mns,
    enumerate_mss,
    enumerate_s_repairs,
    enumerate_witnesses,
    evaluate,
    lineage_of,
    min_mss_sjf,
    parse_query,
    participating_sets,
    sufficient_set_from,
    verify_explanation,
)
from dbexplain.synth import planted_query, random_instance

import bruteforce


# ---------------------------------------------------------------------------
# participating sets

def test_participating_sets_seven_tuple_instance(srs_prime, q_srs):
    ps = participating_sets(srs_prime, q_srs)
    assert sorted(ps.per_atom[0]) == ["S:b", "S:c"]
    assert sorted(ps.per_atom[1]) == ["R:b,b", "R:c,b"]
    assert sorted(ps.per_atom[2]) == ["S:b"]


def test_participating_sets_false_query(srs_prime):
    q = parse_query("q :- S(x), R(x,y), S('zz').", srs_prime)
    ps = participating_sets(srs_prime, q)
    assert all(not s for s in ps.per_atom)


def test_participating_sets_loop_instance(rrs_loop, q_rrs):
    ps = participating_sets(rrs_loop, q_rrs)
    assert ps.union() == rrs_loop.tids() - {"S:b,c"}


def test_participating_sets_match_bruteforce():
    """The projection of the join enumeration against the cartesian
    product filtered pairwise, on planted queries (1-4 atoms self-join
    free, 2-3 atoms with self-joins, every exo mode) and on random
    subinstances of their instances, where the query may be false."""
    rng = random.Random(4242)
    done = 0
    while done < 300:
        instance = random_instance(rng, max_tuples=10, n_preds=4,
                                   exo_mode=rng.choice(["none", "tuples", "predicates"]))
        n_atoms = rng.choice([1, 2, 3, 4])
        q = planted_query(rng, instance, n_atoms=n_atoms,
                          self_join=n_atoms > 1 and rng.random() < 0.5)
        if q is None:
            continue
        sub = instance.restrict(t for t in instance.tids() if rng.random() < 0.6)
        for inst in (instance, sub):
            assert participating_sets(inst, q) == \
                bruteforce.participating_sets(inst, q), (inst.to_dict(), str(q))
        done += 1


def test_backend_name_is_python():
    assert backend_name() == "python"
    assert available_backends() == ("python",)


# ---------------------------------------------------------------------------
# fast core

def test_core_fast_seven_tuple_instance(srs_prime, q_srs):
    res = core_fast(srs_prime, q_srs)
    assert sorted(res.tuples) == ["R:a,d", "R:e,f", "S:a"]
    assert res.method == "lemma1"


def test_core_fast_false_query_keeps_everything(srs_prime):
    q = parse_query("q :- S(x), R(x,y), S('zz').", srs_prime)
    assert core_fast(srs_prime, q).tuples == srs_prime.tids()


def test_core_fast_loop_instance(rrs_loop, q_rrs):
    assert sorted(core_fast(rrs_loop, q_rrs).tuples) == ["S:b,c"]


def test_core_fast_rejects_reachability(g_routes, q_path_ab):
    with pytest.raises(UnsupportedQuery):
        core_fast(g_routes, q_path_ab)


def test_core_fast_answers_mixed_partition(srs_prime, q_srs):
    """S mixes endogenous and exogenous tuples once S:c is exogenous: the
    witness {S:c, R:c,b, S:b} then projects to {R:c,b, S:b}, which joins
    {R:b,b, S:b} in W, and the core is the endogenous-deletion one."""
    mixed = Instance.build(srs_prime.schema, [
        Fact(f.tid, f.pred, f.vals, endo=f.tid != "S:c")
        for f in srs_prime.facts])
    core = core_fast(mixed, q_srs).tuples
    assert core == core_naive(mixed, denial_constraint_of(q_srs),
                              endogenous_only=True).tuples
    assert sorted(core) == ["R:a,d", "R:e,f", "S:a", "S:c"]


def test_core_fast_skips_exogenous_predicates(srs_prime_exoR):
    """Every R tuple is exogenous, so every repair keeps it.  The minimal
    witness {S:c, R:c,b, S:b} projects to {S:b, S:c}, which contains the
    projection {S:b} of the witness {S:b, R:b,b}; so S:b alone lies in a
    minimal sufficient set, and the one endogenous-deletion repair removes
    S:b only."""
    q = parse_query("q :- S(x), R(x,y), S(y).", srs_prime_exoR)
    core = core_fast(srs_prime_exoR, q).tuples
    naive = core_naive(srs_prime_exoR, denial_constraint_of(q),
                       endogenous_only=True).tuples
    assert core == naive
    assert sorted(srs_prime_exoR.tids() - core) == ["S:b"]


def test_core_fast_equals_naive_on_sjf_randoms():
    rng = random.Random(2024)
    done = 0
    while done < 40:
        instance = random_instance(rng, max_tuples=9)
        q = planted_query(rng, instance, n_atoms=rng.choice([2, 3]))
        if q is None:
            continue
        fast = core_fast(instance, q).tuples
        naive = core_naive(instance, denial_constraint_of(q)).tuples
        assert fast == naive, (instance.to_dict(), str(q))
        done += 1


def test_core_fast_equals_endogenous_naive_on_randoms():
    """D minus the union of W against the intersection of the repairs that
    delete endogenous tuples only, on self-join-free and self-join queries
    over all-endogenous, predicate-exogenous and tuple-exogenous
    instances (where one predicate can mix both kinds).  Where the
    exogenous part alone satisfies the query no such repair exists, and
    the core is the whole instance."""
    rng = random.Random(11)
    done = 0
    while done < 300:
        instance = random_instance(rng, max_tuples=10,
                                   exo_mode=rng.choice(["none", "predicates", "tuples"]))
        q = planted_query(rng, instance, n_atoms=rng.choice([2, 3]),
                          self_join=rng.random() < 0.5)
        if q is None:
            continue
        fast = core_fast(instance, q).tuples
        try:
            naive = core_naive(instance, denial_constraint_of(q),
                               endogenous_only=True).tuples
        except RepairNotFound:
            naive = instance.tids()
        assert fast == naive, (instance.to_dict(), str(q))
        done += 1


def loop_pair_instance() -> Instance:
    return Instance.build({"R": 2}, [
        Fact("r1", "R", ("a", "a")), Fact("r2", "R", ("a", "b"))])


def test_core_fast_equals_naive_on_loop_pair():
    """Under self-joins a tuple can participate in satisfying combinations
    while participating in no subset-minimal one.

    Here r2 extends the loop r1 to a larger satisfying combination, but
    {r1} is the only minimal witness, so both repairs keep r2.  The
    rewriting counts minimal witnesses only, so it keeps r2 as well.
    """
    instance = loop_pair_instance()
    q = parse_query("q :- R(x,y), R(y,z).", instance)
    fast = core_fast(instance, q).tuples
    naive = core_naive(instance, denial_constraint_of(q)).tuples
    assert fast == naive == frozenset({"r2"})
    # independent confirmation: every repair keeps r2
    for r in enumerate_s_repairs(instance, denial_constraint_of(q)):
        assert "r2" in r.kept


# ---------------------------------------------------------------------------
# sufficient sets from a repair

def _repair_removing(instance, q, removed: set[str]):
    for r in enumerate_s_repairs(instance, denial_constraint_of(q)):
        if r.removed == frozenset(removed):
            return r
    raise AssertionError(f"no repair removes {removed}")


def test_sufficient_set_from_repair(srs_prime, q_srs):
    rep = _repair_removing(srs_prime, q_srs, {"S:b"})
    ss = sufficient_set_from(srs_prime, q_srs, rep, "S:b")
    assert ss.kind == "SS"
    assert sorted(ss.tuples) == ["R:b,b", "R:c,b", "S:b", "S:c"]
    # without the removed tuple the remainder does not satisfy the query
    assert not evaluate(q_srs, srs_prime.restrict(ss.tuples - {"S:b"}))


def test_sufficient_set_from_single_witness_seed(rt_small, q_rt):
    rep = _repair_removing(rt_small, q_rt, {"T:a3"})
    ss = sufficient_set_from(rt_small, q_rt, rep, "T:a3")
    assert evaluate(q_rt, rt_small.restrict(ss.tuples))


def test_sufficient_set_from_loop_instance(rrs_loop, q_rrs):
    rep = _repair_removing(rrs_loop, q_rrs, {"R:a,a", "S:a,b"})
    ss = sufficient_set_from(rrs_loop, q_rrs, rep, "R:a,a")
    assert sorted(ss.tuples) == ["R:a,a", "R:a,b", "R:b,b", "R:b,c", "S:a,a"]


def test_sufficient_set_from_kept_tuple_is_error(srs_prime, q_srs):
    rep = _repair_removing(srs_prime, q_srs, {"S:b"})
    with pytest.raises(ExplanationInvalid):
        sufficient_set_from(srs_prime, q_srs, rep, "S:a")


def test_sufficient_set_from_checks_a_repair_that_keeps_too_little(srs_prime, q_srs):
    """The set is built from the caller's repair, not read off W, so a
    repair that keeps nothing yields {S:b} alone, which is refused."""
    rep = Repair(kept=frozenset(), removed=frozenset({"S:b"}),
                 cardinality_minimal=False)
    with pytest.raises(ExplanationInvalid, match="not sufficient"):
        sufficient_set_from(srs_prime, q_srs, rep, "S:b")


# ---------------------------------------------------------------------------
# chase

def test_chase_forced_companion(srs_prime, q_srs):
    got = chase_mss(srs_prime, q_srs, "S:b")
    assert sorted(got.tuples) == ["R:b,b", "S:b"]
    assert degrees(srs_prime, q_srs).sigma("S:b") == Fraction(1, 2)


def test_chase_single_tuple_witness():
    inst = Instance.build({"R": 1}, [Fact("t", "R", ("a",))])
    q = parse_query("q :- R(x).", inst)
    assert chase_mss(inst, q, "t").tuples == {"t"}


def test_chase_loop_instance_minimizes(rrs_loop, q_rrs):
    got = chase_mss(rrs_loop, q_rrs, "R:a,a")
    assert sorted(got.tuples) == ["R:a,a", "S:a,a"]
    verify_explanation(rrs_loop, q_rrs, "MSS", got.tuples)


def test_chase_falls_back_to_later_seed_position(rrs_loop, q_rrs):
    # R:b,b cannot anchor the first atom (no S(b,b) exists) but sits in a
    # minimal witness through the second atom position
    got = chase_mss(rrs_loop, q_rrs, "R:b,b")
    assert sorted(got.tuples) == ["R:a,b", "R:b,b", "S:a,b"]
    # a genuine minimal sufficient set, yet not a minimum one
    assert len(got.tuples) == 3
    assert min(len(s.tuples) for s in
               __import__("dbexplain").enumerate_mss(rrs_loop, q_rrs)) == 2


def test_chase_respects_supplied_repair(srs_prime, q_srs):
    rep = _repair_removing(srs_prime, q_srs, {"S:b"})
    got = chase_mss(srs_prime, q_srs, "S:b", repair=rep)
    assert sorted(got.tuples) == ["R:b,b", "S:b"]
    with pytest.raises(ChaseSeedError):
        chase_mss(srs_prime, q_srs, "S:a", repair=rep)


def _hand_repair(instance, removed: set[str]) -> Repair:
    return Repair(kept=instance.tids() - removed, removed=frozenset(removed),
                  cardinality_minimal=False)


def test_chase_with_repair_refuses_seed_in_no_combination(srs_prime, q_srs):
    """S:a occurs in no satisfying combination: a seed error with a repair
    as without one."""
    with pytest.raises(ChaseSeedError):
        chase_mss(srs_prime, q_srs, "S:a", _hand_repair(srs_prime, {"S:a"}))


def test_chase_defect_when_the_repair_keeps_no_set_through_the_seed(srs_prime, q_srs):
    """The MSS through S:b are {R:b,b, S:b} and {R:c,b, S:b, S:c}; removing
    R:b,b and S:c with it leaves neither."""
    rep = _hand_repair(srs_prime, {"S:b", "R:b,b", "S:c"})
    with pytest.raises(ChaseDefect):
        chase_mss(srs_prime, q_srs, "S:b", rep)
    rep = _hand_repair(srs_prime, {"S:b", "S:c"})
    assert sorted(chase_mss(srs_prime, q_srs, "S:b", rep).tuples) == ["R:b,b", "S:b"]


def test_chase_output_within_core_complement(srs_prime, q_srs):
    core = core_fast(srs_prime, q_srs).tuples
    for seed in sorted(srs_prime.tids() - core):
        got = chase_mss(srs_prime, q_srs, seed)
        assert got.tuples <= (srs_prime.tids() - core) | {seed}
        assert len(got.tuples) <= q_srs.k


def test_chase_rejects_core_seed(srs_prime, q_srs):
    with pytest.raises(ChaseSeedError):
        chase_mss(srs_prime, q_srs, "S:a")


def test_chase_rejects_exogenous_seed(srs_prime_exoR):
    q = parse_query("q :- S(x), R(x,y), S(y).", srs_prime_exoR)
    with pytest.raises(ChaseSeedError):
        chase_mss(srs_prime_exoR, q, "R:b,b")


def test_chase_defect_on_non_minimal_participant():
    """The loop pair from the chase's point of view: r2 occurs in a
    satisfying combination, yet no minimal sufficient set contains it (it
    lies in the repair core), so the chase must refuse rather than return
    a bad set."""
    instance = loop_pair_instance()
    q = parse_query("q :- R(x,y), R(y,z).", instance)
    with pytest.raises(ChaseDefect):
        chase_mss(instance, q, "r2")


def test_chase_with_exogenous_join_partners(srs_prime_exoR):
    q = parse_query("q :- S(x), R(x,y), S(y).", srs_prime_exoR)
    got = chase_mss(srs_prime_exoR, q, "S:b")
    assert got.tuples == {"S:b"}
    verify_explanation(srs_prime_exoR, q, "MSS", got.tuples)


def test_chase_follows_the_documented_order():
    """chase_mss and min_mss_sjf return the documented set: the least
    minimal sufficient set by (size, sorted tids) through the seed whose
    other tuples the repair keeps, and without a tuple the least one
    overall.  The reference takes it from the subset scan.  Queries are
    planted ones and self-join chains over a binary predicate, where a
    seed fits both atoms, over every exo mode; seeds are every tuple of
    the minimal sufficient sets' union, and the removed tuples of up to
    three endogenous-deletion repairs."""
    rng = random.Random(8080)
    done = with_repair = 0
    while done < 300:
        instance = random_instance(rng, max_tuples=10, n_preds=3,
                                   exo_mode=rng.choice(["none", "predicates", "tuples"]))
        queries = [planted_query(rng, instance, n_atoms=rng.choice([1, 2, 3]),
                                 self_join=rng.random() < 0.5)]
        queries += [parse_query(f"q :- {p}(x,y), {p}({chain}).", instance)
                    for p, arity in sorted(instance.schema.items()) if arity == 2
                    for chain in ("y,z", "y,x")]
        for q in queries:
            if q is None or not evaluate(q, instance):
                continue
            done += 1
            mss = [s.tuples for s in bruteforce.enumerate_mss(instance, q)]
            participating = frozenset().union(*mss)
            for tid in sorted(participating):
                want = bruteforce.chase(instance, q, tid)
                assert chase_mss(instance, q, tid).tuples == want, (str(q), tid)
                got = min_mss_sjf(instance, q, tid)
                assert got.mss.tuples == want and got.sigma == Fraction(1, len(want))
            want = min(mss, key=lambda s: (len(s), sorted(s)))
            assert min_mss_sjf(instance, q).mss.tuples == want
            try:
                repairs = enumerate_s_repairs(instance, denial_constraint_of(q),
                                              endogenous_only=True)
            except RepairNotFound:  # the exogenous part alone satisfies q
                repairs = ()
            for repair in repairs[:3]:
                for tid in sorted(repair.removed):
                    want = bruteforce.chase(instance, q, tid, repair)
                    with_repair += 1
                    if want is None:
                        with pytest.raises(ChaseDefect):
                            chase_mss(instance, q, tid, repair)
                    else:
                        assert chase_mss(instance, q, tid, repair).tuples == want
    assert with_repair > 100


# ---------------------------------------------------------------------------
# minimum MSS for self-join-free queries

def test_min_mss_sjf_rt_instance(rt_small, q_rt):
    res = min_mss_sjf(rt_small, q_rt)
    assert sorted(res.mss.tuples) == ["R:a1,a3", "T:a3"]
    assert res.sigma == Fraction(1, 2)


def test_min_mss_sjf_through_tuple(rt_small, q_rt):
    res = min_mss_sjf(rt_small, q_rt, "R:a3,a3")
    assert sorted(res.mss.tuples) == ["R:a3,a3", "T:a3"]
    assert res.sigma == Fraction(1, 2)


def test_min_mss_sjf_single_atom():
    inst = Instance.build({"R": 1}, [Fact("t", "R", ("a",)), Fact("u", "R", ("b",))])
    q = parse_query("q :- R(x).", inst)
    res = min_mss_sjf(inst, q, "u")
    assert res.mss.tuples == {"u"} and res.sigma == 1


def test_min_mss_sjf_nonparticipant_gets_zero(rt_small, q_rt):
    res = min_mss_sjf(rt_small, q_rt, "R:a1,a4")
    assert res.mss is None and res.sigma == 0


def test_min_mss_sjf_answers_self_joins(srs_prime, q_srs, rrs_loop, q_rrs):
    """The least member of W is a minimum minimal sufficient set under
    self-joins too; the reference takes it from the subset scan."""
    for instance, q in ((srs_prime, q_srs), (rrs_loop, q_rrs)):
        assert not q.self_join_free
        mss = [s.tuples for s in bruteforce.enumerate_mss(instance, q)]
        want = min(mss, key=lambda s: (len(s), sorted(s)))
        res = min_mss_sjf(instance, q)
        assert res.mss.tuples == want and res.sigma == Fraction(1, len(want))
        for tid in sorted(instance.endogenous_part()):
            through = [s for s in mss if tid in s]
            res = min_mss_sjf(instance, q, tid)
            if through:
                want = min(through, key=lambda s: (len(s), sorted(s)))
                assert res.mss.tuples == want, tid
            else:
                assert res.mss is None and res.sigma == 0, tid


def test_min_mss_sjf_rejects_reachability(g_routes, q_path_ab):
    with pytest.raises(UnsupportedQuery):
        min_mss_sjf(g_routes, q_path_ab)


@pytest.mark.parametrize("call", [
    lambda instance, q, repair: dbexplain.query._witness_index(q, instance),
    lambda instance, q, repair: chase_mss(instance, q, min(repair.removed)),
    lambda instance, q, repair: participating_sets(instance, q),
    lambda instance, q, repair: sufficient_set_from(instance, q, repair, min(repair.removed)),
    lambda instance, q, repair: sufficient_set_from(instance, q, repair, "no such tid"),
    lambda instance, q, repair: cause_repair_correspondence(instance, q),
], ids=["witness-index", "chase", "participating", "sufficient-set", "sufficient-set-unknown-tid",
        "correspondence"])
def test_readers_of_the_witness_index_refuse_reachability(call, g_routes, q_path_ab):
    """Only a conjunctive query has a witness index, so the index is the
    one gate of the operations read off it, ahead of any tid check."""
    removed = frozenset({min(g_routes.tids())})
    repair = Repair(kept=g_routes.tids() - removed, removed=removed, cardinality_minimal=True)
    with pytest.raises(UnsupportedQuery):
        call(g_routes, q_path_ab, repair)


def test_min_mss_sjf_requires_satisfaction(rt_small):
    q = parse_query("q :- R(x,y), T('zz').", rt_small)
    with pytest.raises(QueryNotSatisfied):
        min_mss_sjf(rt_small, q)


def test_min_mss_sjf_exogenous_predicate_shrinks_set():
    inst = Instance.build({"S": 1, "R": 2, "T": 1}, [
        Fact("s1", "S", ("a",)),
        Fact("r1", "R", ("a", "b"), endo=False),
        Fact("u1", "T", ("b",)),
    ])
    q = parse_query("q :- S(x), R(x,y), T(y).", inst)
    res = min_mss_sjf(inst, q, "s1")
    assert sorted(res.mss.tuples) == ["s1", "u1"]
    assert res.sigma == Fraction(1, 2)


def test_min_mss_sjf_returns_the_global_minimum_on_mixed_input():
    """T mixes endogenous and exogenous tuples, so the minimal sufficient
    sets {a1, a2} and {b1} differ in size.  The least tuple of their
    union, a1, lies only in the larger one: the minimum is the least
    member of W, not the least set through that tuple."""
    inst = Instance.build({"S": 1, "T": 1}, [
        Fact("a1", "S", ("a",)), Fact("a2", "T", ("a",)),
        Fact("b1", "S", ("b",)), Fact("b2", "T", ("b",), endo=False),
    ])
    q = parse_query("q :- S(x), T(x).", inst)
    res = min_mss_sjf(inst, q)
    assert res.mss.tuples == {"b1"} and res.sigma == 1
    res = min_mss_sjf(inst, q, "a1")
    assert res.mss.tuples == {"a1", "a2"} and res.sigma == Fraction(1, 2)


def test_min_mss_sjf_matches_oracle_sigma(rt_small, q_rt):
    rep = degrees(rt_small, q_rt)
    for tid in sorted(rt_small.endogenous_part()):
        res = min_mss_sjf(rt_small, q_rt, tid)
        got = res.sigma if res.sigma is not None else Fraction(0)
        assert got == rep.sigma(tid), tid


# ---------------------------------------------------------------------------
# one enumeration per instance and query

def test_fast_path_enumerates_the_instance_once(monkeypatch, rt_small, q_rt,
                                                srs_prime, q_srs):
    """A sequence of fast-path, lineage and witness calls on one instance
    and query enumerates the instance's satisfying assignments once in
    total: every call reads the same witness index.  A different query, or
    an equal but distinct instance, enumerates again."""
    seen = []
    original = dbexplain.query._assignments

    def counting(query, instance):
        seen.append(instance)
        return original(query, instance)

    # every module binding of the name, so that a direct import counts too
    for module in (dbexplain.query, dbexplain.fastpath):
        if hasattr(module, "_assignments"):
            monkeypatch.setattr(module, "_assignments", counting)

    def enumerations(instance, calls):
        seen.clear()
        for call in calls:
            call()
        return sum(i is instance for i in seen)

    for instance, q, calls in [
        (rt_small, q_rt, [
            lambda: min_mss_sjf(rt_small, q_rt),
            lambda: min_mss_sjf(rt_small, q_rt, "R:a3,a3"),
            lambda: chase_mss(rt_small, q_rt, "T:a3"),
            lambda: core_fast(rt_small, q_rt),
            lambda: participating_sets(rt_small, q_rt),
            lambda: lineage_of(rt_small, q_rt),
            lambda: enumerate_witnesses(q_rt, rt_small),
        ]),
        (srs_prime, q_srs, [
            lambda: chase_mss(srs_prime, q_srs, "S:b"),
            lambda: chase_mss(srs_prime, q_srs, "S:c"),
            lambda: core_fast(srs_prime, q_srs),
            lambda: participating_sets(srs_prime, q_srs),
            lambda: lineage_of(srs_prime, q_srs),
            lambda: enumerate_witnesses(q_srs, srs_prime),
        ]),
    ]:
        assert enumerations(instance, calls) == 1, q
        copy = Instance.build(instance.schema, instance.facts)
        assert copy == instance
        assert enumerations(copy, [lambda: core_fast(copy, q)]) == 1, q
        other = parse_query("q :- R(x,y).", copy)
        assert enumerations(copy, [lambda: core_fast(copy, other)]) == 1, q


def test_answers_read_off_w_are_not_re_evaluated(monkeypatch, rt_small, q_rt,
                                                 srs_prime, q_srs):
    """The chase, the minimum and the oracle families return sets read off
    the witness index as they are: none of them restricts the instance or
    evaluates the query to check its answer (the oracle imports no
    evaluate at all)."""
    assert not hasattr(dbexplain.oracle, "evaluate")
    calls = []
    restrict = Instance.restrict
    monkeypatch.setattr(Instance, "restrict", lambda self, keep: calls.append(
        "restrict") or restrict(self, keep))
    for module in (dbexplain.query, dbexplain.explanations):
        original = module.evaluate
        monkeypatch.setattr(module, "evaluate", lambda query, instance, f=original:
                            calls.append("evaluate") or f(query, instance))
    for instance, q, tid in ((rt_small, q_rt, "R:a3,a3"), (srs_prime, q_srs, "S:b")):
        assert chase_mss(instance, q, tid).tuples
        assert min_mss_sjf(instance, q).mss is not None
        assert min_mss_sjf(instance, q, tid).mss is not None
        assert enumerate_mss(instance, q)
        assert enumerate_mns(instance, q)
    assert calls == []
