from __future__ import annotations

import itertools
import math
import random
import time
import tracemalloc

import pytest

from dbexplain import (
    Fact,
    Instance,
    OracleBoundExceeded,
    Repair,
    RepairNotFound,
    core_naive,
    degrees,
    denial_constraint_of,
    enumerate_c_repairs,
    enumerate_mns,
    enumerate_s_repairs,
    enumerate_witnesses,
    evaluate,
    minimal_hitting_sets,
    parse_query,
    verify_explanation,
)
import dbexplain.oracle
import dbexplain.repairs
from dbexplain.query import _witness_index
from dbexplain.repairs import (_bitmask_components, _component_transversals, _conflicts,
                               _least_transversals_through, _minimum_transversals, _repairs,
                               _unions)
from dbexplain.synth import (SCALING_QUERY_TEXT, planted_query, random_instance,
                             scaling_instance)

import bruteforce
from conftest import mask_sets, tids


def antichain(sets) -> list[frozenset[str]]:
    """The distinct minimal members of a family, by (size, tids)."""
    return sorted(bruteforce.minimal_members(list(set(sets))),
                  key=lambda s: (len(s), sorted(s)))


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
    with pytest.raises(RepairNotFound, match=r"violation \['r1'\] cannot be resolved"):
        enumerate_s_repairs(inst, denial_constraint_of(q), endogenous_only=True)


def test_conflicts_are_the_witness_index_antichains(srs_prime_exoR, q_srs):
    """The conflicts are read off the index, not projected again: W when
    only endogenous tuples may go, else the minimal witnesses."""
    dc, index = denial_constraint_of(q_srs), _witness_index(q_srs, srs_prime_exoR)
    assert _conflicts(srs_prime_exoR, dc, True, 20) == list(index.antichain)
    assert _conflicts(srs_prime_exoR, dc, False, 20) == list(index.minimal)
    assert len(index.antichain) < len(index.minimal)


def test_repair_bound(srs_prime, q_srs):
    with pytest.raises(OracleBoundExceeded):
        enumerate_s_repairs(srs_prime, denial_constraint_of(q_srs), max_deletable=3)


def test_repair_listing_trips_the_union_cap():
    """17 disjoint conflicts R(x), S(x) have 2^17 = 131,072 repairs, whose
    removals would hold 2,228,224 tuples, past the cap; the deletable bound
    is raised."""
    inst = Instance.build({"R": 1, "S": 1}, [
        Fact(f"{p}:c{i}", p, (f"c{i}",)) for i in range(17) for p in "RS"])
    dc = denial_constraint_of(parse_query("q :- R(x), S(x).", inst))
    with pytest.raises(OracleBoundExceeded, match="131,072 unions .* hold 2,228,224 tuples"):
        enumerate_s_repairs(inst, dc, max_deletable=len(inst))


def test_repair_is_an_immutable_named_tuple(srs_prime, q_srs):
    """A repair keeps its field names and their order, refuses assignment,
    hashes, unpacks, and still builds from keywords."""
    assert Repair._fields == ("kept", "removed", "cardinality_minimal")
    reps = enumerate_s_repairs(srs_prime, denial_constraint_of(q_srs))
    kept, removed, least = reps[0]
    assert (kept, removed, least) == (reps[0].kept, reps[0].removed,
                                      reps[0].cardinality_minimal)
    with pytest.raises(AttributeError):
        reps[0].kept = frozenset()
    assert len(set(reps)) == len(reps) > 1
    again = Repair(kept=kept, removed=removed, cardinality_minimal=least)
    assert again == reps[0] and hash(again) == hash(reps[0])
    assert reps[0]._replace(cardinality_minimal=not least) == (kept, removed, not least)


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


def _random_family(rng: random.Random) -> list[frozenset[str]]:
    """Sets over at most 10 elements, split into 1-4 groups; consecutive
    elements of a group share a set, so each group is connected unless a
    subset absorbs its linking set."""
    elems = rng.sample("abcdefghij", rng.randint(1, 10))
    n_groups = rng.randint(1, min(4, len(elems)))
    family = []
    for group in (elems[i::n_groups] for i in range(n_groups)):
        family += [frozenset({a, b, *rng.sample(group, rng.randint(0, 1))})
                   for a, b in zip(group, group[1:])] or [frozenset(group)]
        family += [frozenset(rng.sample(group, rng.randint(1, len(group))))
                   for _ in range(rng.randint(0, 3))]
    rng.shuffle(family)
    return family


def test_minimal_hitting_sets_match_bruteforce():
    rng = random.Random(7)
    for _ in range(300):
        family = _random_family(rng)
        assert minimal_hitting_sets(family) == \
            bruteforce.minimal_hitting_sets(family), family
    assert minimal_hitting_sets([]) == bruteforce.minimal_hitting_sets([]) == \
        [frozenset()]
    assert bruteforce.minimal_hitting_sets([frozenset("a"), frozenset()]) == []
    with pytest.raises(ValueError):
        minimal_hitting_sets([frozenset("a"), frozenset()])


def test_component_transversals_match_bruteforce_per_component():
    rng = random.Random(5)
    for _ in range(300):
        family = _random_family(rng)
        assert [mask_sets(tuples, part) for tuples, part in _component_transversals(family)] == \
            [bruteforce.minimal_hitting_sets(mask_sets(tuples, members))
             for tuples, members in _bitmask_components(family)], family


def test_bitmask_components_are_the_connected_components():
    """Against components grown member by member from their first member:
    in order of first member, each its own tuples sorted and its members
    as masks in family order, stably sorted by size; lone members too."""
    rng = random.Random(41)
    for _ in range(300):
        family, expected, placed = antichain(_random_family(rng)), [], set()
        for i, s in enumerate(family):
            if i in placed:
                continue
            members, tuples, grown = {i}, set(s), True
            while grown:
                joining = {j for j, other in enumerate(family) if j not in members and tuples & other}
                members |= joining
                tuples.update(*(family[j] for j in joining))
                grown = bool(joining)
            placed |= members
            order = sorted(tuples)
            masks = [sum(1 << order.index(t) for t in family[j]) for j in sorted(members)]
            expected.append((order, sorted(masks, key=int.bit_count)))
        assert [(list(t), list(m)) for t, m in _bitmask_components(family)] == expected, family


def test_minimum_transversals_are_the_least_of_berges():
    """Per component, the branch-and-bound search finds exactly the
    transversals of least size that Berge's dualization in
    tests/bruteforce.py lists, and the least size through each tuple."""
    rng = random.Random(17)
    for _ in range(300):
        family = antichain(_random_family(rng))
        berge = sorted((bruteforce.berge_transversals(mask_sets(tuples, members))
                        for tuples, members in _bitmask_components(family)),
                       key=lambda part: sorted(part[0]))
        least = [sorted(mask_sets(tuples, part), key=sorted)
                 for tuples, part in _minimum_transversals(family)]
        assert sorted(least, key=lambda part: sorted(part[0])) == \
            [[s for s in part if len(s) == len(part[0])] for part in berge], family
        through = [(len(part[0]), {t: min(len(s) for s in part if t in s)
                                   for t in frozenset().union(*part)}) for part in berge]
        assert sorted(_least_transversals_through(family), key=lambda part: min(part[1])) == \
            sorted(through, key=lambda part: min(part[1])), family


def test_mask_keys_give_the_size_and_tid_order():
    """With the least tid on the highest bit, (popcount, -mask) and the
    integer key (popcount << width) - mask order distinct sets by (size,
    tids), and -mask orders an antichain by sorted tids."""
    def by_mask(sets, key):
        tuples = sorted(frozenset().union(*sets), reverse=True)
        masks = [sum(1 << tuples.index(t) for t in s) for s in sets]
        return [mask_sets(tuples, [m])[0]
                for m in sorted(masks, key=lambda m: key(m, len(tuples)))]

    rng = random.Random(23)
    for _ in range(300):
        family = list({frozenset(rng.sample("abcdefghij", rng.randint(1, 6)))
                       for _ in range(rng.randint(1, 12))})
        by_size = sorted(family, key=lambda s: (len(s), sorted(s)))
        assert by_mask(family, lambda m, width: (m.bit_count(), -m)) == by_size, family
        assert by_mask(family, lambda m, width: (m.bit_count() << width) - m) == by_size
        minimal = antichain(family)
        assert by_mask(minimal, lambda m, width: -m) == sorted(minimal, key=sorted)


def test_unions_are_in_size_and_tid_order():
    """Joining parts over disjoint tuples, each numbering its own, gives the
    (size, tids) order of all the picks; one-member parts join as one set."""
    rng = random.Random(29)
    for _ in range(300):
        letters, parts = rng.sample("abcdefghijklmnop", 16), []
        for i in range(rng.randint(0, 5)):
            width = rng.randint(1, 3)
            tuples = sorted(letters[3 * i:3 * i + width], reverse=True)
            masks = rng.sample(range(1, 1 << width), rng.randint(1, (1 << width) - 1))
            parts.append((tuples, masks))
        picks = itertools.product(*(mask_sets(tuples, masks) for tuples, masks in parts))
        assert _unions(parts) == sorted((frozenset().union(*pick) for pick in picks),
                                        key=lambda s: (len(s), sorted(s))), parts


def test_unions_of_several_multi_member_parts_match_the_product():
    """Parts over disjoint tuples, two or more of them with several members,
    each an antichain over tuples in any order: the joined unions are the
    product's unions sorted by (size, tids), and by tids alone when not
    by_size, so the keys that several parts add up name one union each."""
    rng = random.Random(43)
    for _ in range(300):
        letters, parts, picks = rng.sample("abcdefghijklmnopqrstuvwx", 24), [], []
        for i in range(rng.randint(2, 5)):
            pool, members = letters[4 * i:4 * i + 4], []
            while len(members) < (2 if i < 2 else 1):
                members = antichain(frozenset(rng.sample(pool, rng.randint(1, 3)))
                                    for _ in range(rng.randint(1, 5)))
            tuples = rng.sample(pool, 4)
            parts.append((tuples, [sum(1 << tuples.index(t) for t in s) for s in members]))
            picks.append(members)
        assert sum(len(masks) > 1 for _, masks in parts) >= 2
        unions = [frozenset().union(*pick) for pick in itertools.product(*picks)]
        assert _unions(parts) == sorted(unions, key=lambda s: (len(s), sorted(s))), parts
        assert _unions(parts, by_size=False) == sorted(unions, key=sorted), parts


def test_many_components_take_linear_time_and_space():
    """W of k single-tuple witnesses beside two that share a tuple: each
    component numbers its own tuples, so no mask grows with k, and the k
    one-member parts join as one set, not by k unions that each copy the
    union so far.  Both made the time grow with the square of k."""
    sizes, times = [2000, 4000, 8000], []
    for k in sizes:
        family = [frozenset({f"t{i:05d}"}) for i in range(k)] + [frozenset("ab"), frozenset("bc")]
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            hitting = minimal_hitting_sets(family)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
        assert [len(s) for s in hitting] == [k + 1, k + 2]
    xs, ys = [math.log(n) for n in sizes], [math.log(t) for t in times]
    xbar, ybar = sum(xs) / 3, sum(ys) / 3
    slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
             / sum((x - xbar) ** 2 for x in xs))
    assert slope <= 1.5, f"log-log slope {slope:.2f}, times {times}"
    tracemalloc.start()
    try:
        minimal_hitting_sets(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"{peak:,} bytes at k = 8,000"


def test_many_two_member_components_take_linear_time_and_space():
    """W of k components {a_i, b_i}, {a_i, c_i}: each has the two minimal
    transversals {a_i} and {b_i, c_i}, and the lists a component of two
    members keeps while it is dualized must not make the time grow faster
    than k, as lists kept per member once did by starting full
    collections."""
    sizes, times = [2000, 4000, 8000], []
    for k in sizes:
        family = [frozenset({f"a{i:05d}", f"{x}{i:05d}"}) for i in range(k) for x in "bc"]
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            parts = _component_transversals(family)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
        assert [mask_sets(*part) for part in parts] == [
            [{f"a{i:05d}"}, {f"b{i:05d}", f"c{i:05d}"}] for i in range(k)]
    xs, ys = [math.log(n) for n in sizes], [math.log(t) for t in times]
    xbar, ybar = sum(xs) / 3, sum(ys) / 3
    slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
             / sum((x - xbar) ** 2 for x in xs))
    assert slope <= 1.5, f"log-log slope {slope:.2f}, times {times}"
    tracemalloc.start()
    try:
        _component_transversals(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"{peak:,} bytes at k = 8,000"


def test_component_transversals_are_dual_on_scaling_instances():
    """Per component of W, the search lists the minimal transversals that
    Berge's dualization in tests/bruteforce.py lists: a check on families
    far beyond the exhaustive judge (at n = 45-47 and 57-59 one component
    has 1,075-1,827 minimal transversals)."""
    for n in (45, 46, 47, 57, 58, 59, 60, 80, 100, 120):
        instance = scaling_instance(n)
        w = list(_witness_index(parse_query(SCALING_QUERY_TEXT, instance),
                                instance).antichain)
        components = _bitmask_components(w)
        parts = _component_transversals(w)
        assert len(parts) == len(components) > 1
        for (tuples, part), (_, members) in zip(parts, components):
            assert mask_sets(tuples, part) == \
                bruteforce.berge_transversals(mask_sets(tuples, members)), n


def _cardinality_filter(reps):
    least = min(len(r.removed) for r in reps)
    return tuple(r for r in reps if len(r.removed) == least)


def test_c_repairs_equal_filtered_s_repairs_on_random_instances():
    rng = random.Random(11)
    multi = 0
    for _ in range(150):
        instance = random_instance(rng, max_tuples=12,
                                   exo_mode=rng.choice(["none", "tuples"]))
        q = planted_query(rng, instance, n_atoms=rng.choice([1, 2]),
                          self_join=rng.random() < 0.5)
        if q is None:
            continue
        dc = denial_constraint_of(q)
        for endo_only in (False, True):
            try:
                reps = enumerate_s_repairs(instance, dc, endogenous_only=endo_only)
            except RepairNotFound:
                continue
            least = _cardinality_filter(reps)
            assert all(r.cardinality_minimal == (r in least) for r in reps)
            assert enumerate_c_repairs(instance, dc, endogenous_only=endo_only) == least
        family = antichain(w.tuples for w in enumerate_witnesses(q, instance))
        multi += len(_bitmask_components(family)) > 1
    assert multi > 50


STAR_SHAPES = [(3, 2, 1), (2, 2, 1, 1), (4, 2, 1), (3, 3),
               (4, 3), (2, 2, 2), (5, 1, 1), (3, 2, 2)]


def _star_instance(shape: tuple[int, ...], variant: int, noise: int = 0) -> Instance:
    """One star per entry: a hub S(h) with m spokes R(h,o), T(o), or,
    flipped, a hub T(h) with spokes R(o,h), S(o); the variant flips the
    stars at even positions (bit 0) and at odd ones (bit 1).  Under
    S(x),R(x,y),T(y) each star is one component with 1 + 2^m minimal
    removals.  Noise tuples join nothing: dangling R edges and unmatched
    S and T values."""
    facts = []
    for n, m in enumerate(shape):
        hub = f"h{n}"
        flip = bool(variant >> (n % 2) & 1)
        facts.append(Fact(f"{'T' if flip else 'S'}:{hub}", "T" if flip else "S", (hub,)))
        for i in range(m):
            spoke = f"{hub}o{i}"
            edge = (spoke, hub) if flip else (hub, spoke)
            facts.append(Fact(f"R:{edge[0]},{edge[1]}", "R", edge))
            facts.append(Fact(f"{'S' if flip else 'T'}:{spoke}", "S" if flip else "T",
                              (spoke,)))
    for i in range(noise):
        pred, vals = [("R", (f"d{i}", f"e{i}")), ("S", (f"f{i}",)), ("T", (f"g{i}",))][i % 3]
        facts.append(Fact(f"{pred}:{','.join(vals)}", pred, vals))
    return Instance.build({"S": 1, "R": 2, "T": 1}, facts)


@pytest.mark.parametrize("shape", STAR_SHAPES)
def test_c_repairs_equal_filtered_s_repairs_on_stars(shape):
    for variant in range(4):
        instance = _star_instance(shape, variant, noise=6)
        dc = denial_constraint_of(parse_query("q :- S(x), R(x,y), T(y).", instance))
        reps = enumerate_s_repairs(instance, dc, max_deletable=len(instance))
        # the naive core, read per component, is the intersection: the noise
        core = core_naive(instance, dc, max_deletable=len(instance)).tuples
        assert core == instance.tids().intersection(*(r.kept for r in reps))
        assert len(core) == 6
        assert len(reps) == math.prod(1 + 2 ** m for m in shape)
        assert all(r.cardinality_minimal == (len(r.removed) == len(shape))
                   for r in reps)
        c_reps = enumerate_c_repairs(instance, dc, max_deletable=len(instance))
        assert c_reps == _cardinality_filter(reps)
        # a one-spoke star has three single-tuple removals, a wider one only its hub
        assert len(c_reps) == 3 ** shape.count(1)


def test_core_naive_is_the_intersection_of_the_repairs_on_random_instances():
    rng = random.Random(29)
    checked = dict.fromkeys(["none", "tuples", "predicates"], 0)
    refused = self_joins = 0
    for _ in range(240):
        exo_mode = rng.choice(sorted(checked))
        instance = random_instance(rng, max_tuples=12, exo_mode=exo_mode)
        q = planted_query(rng, instance, n_atoms=rng.choice([1, 2, 3]),
                          self_join=rng.random() < 0.5)
        if q is None:
            continue
        dc = denial_constraint_of(q)
        self_joins += not q.self_join_free
        for endo_only in (False, True):
            try:
                reps = enumerate_s_repairs(instance, dc, endogenous_only=endo_only)
            except RepairNotFound:
                with pytest.raises(RepairNotFound):
                    core_naive(instance, dc, endogenous_only=endo_only)
                refused += 1
                continue
            expected = instance.tids().intersection(*(r.kept for r in reps))
            res = core_naive(instance, dc, endogenous_only=endo_only)
            assert res.tuples == expected and res.method == "naive-intersection"
            # the core is consistent, so it is its own core
            core = instance.restrict(expected)
            assert core_naive(core, dc, endogenous_only=endo_only).tuples == \
                core.tids()
            checked[exo_mode] += 1
    assert min(checked.values()) > 50 and refused > 10 and self_joins > 50, \
        (checked, refused, self_joins)


def test_repairs_are_capped_by_the_tuples_they_keep():
    """At n = 120 the 59,535 cardinality repairs would keep 6,251,175 tuples
    (about 300 MB of Repair objects): they are refused before any is
    built.  At n = 105 the 3,645 repairs keep 342,630 tuples."""
    def refuse(*args, **kwargs):
        raise AssertionError("a repair was built")

    def repairs(n):
        instance = scaling_instance(n)
        dc = denial_constraint_of(parse_query(SCALING_QUERY_TEXT, instance))
        return enumerate_c_repairs(instance, dc, max_deletable=n)

    reps = repairs(105)
    assert len(reps) == 3_645
    assert sum(len(r.kept) for r in reps) == 342_630
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dbexplain.repairs, "Repair", refuse)
        with pytest.raises(OracleBoundExceeded,
                           match="59,535 repairs would keep 6,251,175 tuples"):
            repairs(120)


def test_kept_set_cap_needs_no_join():
    """The kept sets' tuples are counted off the parts' sizes (count * |D|
    less the removals' tuples), so the repairs of n = 120 (cardinality)
    and n = 87 (subset) are refused from parts whose tuples cannot be
    read, with the message the public functions give."""
    class Unread(list):
        def __iter__(self):
            raise AssertionError("the join read the tuples")

        def __getitem__(self, i):
            raise AssertionError("the join read the tuples")

    for n, listing, enumerate_repairs, tripped in (
            (120, _minimum_transversals, enumerate_c_repairs,
             "59,535 repairs would keep 6,251,175 tuples"),
            (87, _component_transversals, enumerate_s_repairs,
             "71,685 repairs would keep 5,300,667 tuples")):
        instance = scaling_instance(n)
        dc = denial_constraint_of(parse_query(SCALING_QUERY_TEXT, instance))
        parts = listing(_conflicts(instance, dc, False, n))
        with pytest.raises(OracleBoundExceeded, match=tripped):
            _repairs(instance, [(Unread(tuples), masks) for tuples, masks in parts])
        with pytest.raises(OracleBoundExceeded, match=tripped):
            enumerate_repairs(instance, dc, max_deletable=n)


def test_unions_in_tid_order_need_no_second_sort():
    """-mask orders an antichain by sorted tids, and the tuples of
    one-member parts are in every union: the minimal hitting sets of random
    families of several components, joined by -mask alone, come out as
    sorting them by tids would put them, and so do the oracle's MNS."""
    rng = random.Random(37)
    mixed = 0
    for _ in range(300):
        pool, family = rng.sample("abcdefghijklmnopqrstuvwxyz", 20), []
        for c in range(rng.randint(1, 4)):
            letters = pool[5 * c:5 * c + 5]
            family += [frozenset(rng.sample(letters, rng.randint(1, 3)))
                       for _ in range(rng.randint(1, 4))]
        family = antichain(family)
        parts = _component_transversals(family)
        mixed += min(len(m) for _, m in parts) == 1 < max(len(m) for _, m in parts)
        expected = sorted(minimal_hitting_sets(family), key=sorted)
        assert _unions(parts, by_size=False) == expected, family
        assert dbexplain.oracle._mns(family) == expected
    assert mixed > 50, mixed


def test_core_naive_builds_no_repair(monkeypatch, srs_prime, q_srs):
    """The naive core reads the conflicts' union: it runs no transversal
    search, joins no removals and builds no Repair."""
    def refuse(*args, **kwargs):
        raise AssertionError("core_naive built the repairs")

    monkeypatch.setattr(dbexplain.repairs, "_component_transversals", refuse)
    monkeypatch.setattr(dbexplain.repairs, "_unions", refuse)
    monkeypatch.setattr(dbexplain.repairs, "Repair", refuse)
    res = core_naive(srs_prime, denial_constraint_of(q_srs))
    assert sorted(res.tuples) == ["R:a,d", "R:e,f", "S:a"]
    instance = _star_instance((4, 3), 1, noise=3)
    dc = denial_constraint_of(parse_query("q :- S(x), R(x,y), T(y).", instance))
    assert len(core_naive(instance, dc, max_deletable=len(instance)).tuples) == 3
    # one component of W here has 14,931 minimal transversals
    instance = scaling_instance(105)
    dc = denial_constraint_of(parse_query(SCALING_QUERY_TEXT, instance))
    assert len(core_naive(instance, dc, max_deletable=105).tuples) == 63


def test_degrees_and_c_repairs_list_no_transversal_family(monkeypatch, srs_prime, q_srs):
    """eta and the cardinality repairs come from the minimum-size search
    alone: neither lists every minimal transversal, of which one
    component has 109,439 at n = 111."""
    def refuse(*args, **kwargs):
        raise AssertionError("the listing ran")

    monkeypatch.setattr(dbexplain.repairs, "_component_transversals", refuse)
    monkeypatch.setattr(dbexplain.oracle, "_component_transversals", refuse, raising=False)
    star = _star_instance((4, 3), 1, noise=3)
    cases = [(srs_prime, q_srs),
             (star, parse_query("q :- S(x), R(x,y), T(y).", star))]
    for n in (105, 111):
        instance = scaling_instance(n)
        cases.append((instance, parse_query(SCALING_QUERY_TEXT, instance)))
    for instance, q in cases:
        dc = denial_constraint_of(q)
        c_reps = enumerate_c_repairs(instance, dc, max_deletable=len(instance))
        assert c_reps and all(r.cardinality_minimal for r in c_reps)
        assert degrees(instance, q).per_tuple.keys() == instance.tids()
