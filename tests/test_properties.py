"""Cross-cutting invariants on randomized inputs.

The heavier seeded sweep lives in the acceptance module; these are
targeted single-invariant checks, hypothesis-driven where shrinking helps.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dbexplain import (
    degrees,
    enumerate_mns,
    enumerate_mss,
    enumerate_witnesses,
    evaluate,
    is_necessary,
    is_sufficient,
    parse_query,
)
from dbexplain.synth import planted_query, random_instance

import bruteforce


def _case(seed: int, *, exo_mode: str = "none", self_join: bool = False,
          n_atoms: int = 2):
    rng = random.Random(seed)
    while True:
        instance = random_instance(rng, max_tuples=8, exo_mode=exo_mode)
        q = planted_query(rng, instance, n_atoms=n_atoms, self_join=self_join)
        if q is not None:
            return instance, q


@given(st.integers(min_value=0, max_value=10_000))
@settings(deadline=None, max_examples=40)
def test_satisfaction_iff_some_witness(seed):
    instance, q = _case(seed, self_join=seed % 2 == 0)
    assert evaluate(q, instance) == bool(enumerate_witnesses(q, instance))
    shrunk = instance.restrict(set(list(sorted(instance.tids()))[: len(instance) // 2]))
    assert evaluate(q, shrunk) == bool(enumerate_witnesses(q, shrunk))


@given(st.integers(min_value=0, max_value=10_000))
@settings(deadline=None, max_examples=25)
def test_mns_removal_falsifies_and_is_minimal(seed):
    instance, q = _case(seed, exo_mode="tuples")
    for n in enumerate_mns(instance, q):
        assert is_necessary(instance, q, n.tuples)
        for t in n.tuples:
            assert not is_necessary(instance, q, n.tuples - {t})


@given(st.integers(min_value=0, max_value=10_000))
@settings(deadline=None, max_examples=25)
def test_mss_satisfies_and_is_minimal(seed):
    instance, q = _case(seed, exo_mode="tuples", self_join=seed % 3 == 0)
    for s in enumerate_mss(instance, q):
        assert is_sufficient(instance, q, s.tuples)
        for t in s.tuples:
            assert not is_sufficient(instance, q, s.tuples - {t})


@given(st.integers(min_value=0, max_value=10_000))
@settings(deadline=None, max_examples=25)
def test_membership_equivalence_between_families(seed):
    instance, q = _case(seed, exo_mode="predicates")
    in_mss = {t for s in enumerate_mss(instance, q) for t in s.tuples}
    in_mns = {t for n in enumerate_mns(instance, q) for t in n.tuples}
    assert in_mss == in_mns


@given(st.integers(min_value=0, max_value=10_000))
@settings(deadline=None, max_examples=20)
def test_degrees_are_unit_fractions(seed):
    instance, q = _case(seed, exo_mode="tuples")
    rep = degrees(instance, q)
    for d in rep.per_tuple.values():
        for value in (d.eta, d.sigma, d.rho):
            assert value == 0 or value.numerator == 1


@given(st.integers(min_value=0, max_value=10_000))
@settings(deadline=None, max_examples=60)
def test_degrees_equal_the_subset_scan(seed):
    instance, q = _case(seed, exo_mode=("none", "tuples", "predicates")[seed % 3],
                        self_join=seed % 2 == 0, n_atoms=1 + seed % 3)
    assert degrees(instance, q) == bruteforce.degrees(instance, q)


def test_witness_families_agree_with_mss_when_all_endogenous(srs_base):
    q = parse_query("q :- S(x), R(x,y), S(y).", srs_base)
    wit = sorted(sorted(w.tuples) for w in enumerate_witnesses(q, srs_base))
    mss = sorted(sorted(s.tuples) for s in enumerate_mss(srs_base, q))
    assert wit == mss
