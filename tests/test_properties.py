"""Cross-cutting invariants on randomized inputs.

The heavier seeded sweep lives in the acceptance module; these are
targeted single-invariant checks, hypothesis-driven where shrinking helps.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dbexplain import (
    ExplainError,
    Instance,
    RepairNotFound,
    actual_causes,
    cause_repair_correspondence,
    check_duality,
    core_naive,
    degrees,
    denial_constraint_of,
    enumerate_c_repairs,
    enumerate_mns,
    enumerate_mss,
    enumerate_s_repairs,
    enumerate_witnesses,
    evaluate,
    is_necessary,
    is_sufficient,
    parse_query,
)
from dbexplain.synth import planted_query, random_instance

import bruteforce
from conftest import tids


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
def test_degrees_causes_and_correspondence_equal_the_subset_scan(seed):
    """Degrees and actual causes equal the exhaustive scan's; the scan
    sorts each cause's contingency sets, so this also checks that they
    come in tid order without a sort.  The correspondence check lists the
    families that the public calls answer: the MNS, the sets G + {t} of
    the causes, and the removals of the endogenous repairs."""
    instance, q = _case(seed, exo_mode=("none", "tuples", "predicates")[seed % 3],
                        self_join=seed % 2 == 0, n_atoms=1 + seed % 3)
    assert degrees(instance, q) == bruteforce.degrees(instance, q)
    causes = actual_causes(instance, q)
    assert causes == bruteforce.actual_causes(instance, q)
    detail = cause_repair_correspondence(instance, q).detail
    assert sorted(detail["mns"]) == tids(enumerate_mns(instance, q))
    assert sorted(detail["cause_sets"]) == tids(
        {g | {t} for t, gs in causes.contingencies.items() for g in gs})
    for key, listing in (("s_repair_removals", enumerate_s_repairs),
                         ("c_repair_removals", enumerate_c_repairs)):
        try:
            removals = tids(r.removed for r in listing(
                instance, denial_constraint_of(q), endogenous_only=True))
        except RepairNotFound:
            removals = []
        assert sorted(detail[key]) == removals, key


def test_witness_families_agree_with_mss_when_all_endogenous(srs_base):
    q = parse_query("q :- S(x), R(x,y), S(y).", srs_base)
    wit = sorted(sorted(w.tuples) for w in enumerate_witnesses(q, srs_base))
    mss = sorted(sorted(s.tuples) for s in enumerate_mss(srs_base, q))
    assert wit == mss


# Every answer read off W or the minimal images, repairs in both modes.
_ASKED = [(name, ask) for name, ask in (
    ("mss", enumerate_mss), ("mns", enumerate_mns), ("causes", actual_causes),
    ("degrees", degrees), ("duality", check_duality),
    ("correspondence", cause_repair_correspondence))] + [
    (f"{name} endogenous_only={only}",
     lambda instance, q, repairs=repairs, only=only: repairs(
         instance, denial_constraint_of(q), endogenous_only=only))
    for name, repairs in (("s-repairs", enumerate_s_repairs), ("c-repairs", enumerate_c_repairs),
                          ("core", core_naive))
    for only in (False, True)]


def _answer(ask, instance, q):
    try:
        return ask(instance, q)
    except ExplainError as exc:  # e.g. RepairNotFound: a refusal is an answer too
        return type(exc).__name__, str(exc)


@given(st.integers(min_value=0, max_value=10_000))
@settings(deadline=None, max_examples=60)
def test_kept_parts_give_the_answers_of_a_fresh_instance(seed):
    """The witness index keeps the union of W and each family's components
    for every later question: asked in two orders on one
    instance, each answer equals the answer on a fresh copy, under
    self-joins and every exogenous mode."""
    instance, q = _case(seed, exo_mode=("none", "tuples", "predicates")[seed % 3],
                        self_join=seed % 2 == 0, n_atoms=1 + seed % 3)
    fresh = [_answer(ask, Instance.build(instance.schema, instance.facts), q)
             for _, ask in _ASKED]
    for order in (range(len(_ASKED)), reversed(range(len(_ASKED)))):
        shared = Instance.build(instance.schema, instance.facts)
        for i in order:
            assert _answer(_ASKED[i][1], shared, q) == fresh[i], _ASKED[i][0]


_FAILING_GIVEN = """
from hypothesis import given, settings, strategies as st

@given(st.integers())
@settings(max_examples=1, database=None)
def test_fails(n):
    assert False
"""


def test_a_failing_given_test_is_reported_not_an_internal_error(tmp_path):
    """A failing Hypothesis test is listed as a failure under the project's
    warning filters; reporting it imports code whose own deprecation
    warnings must not turn into an INTERNALERROR that ends the session."""
    (tmp_path / "test_given.py").write_text(_FAILING_GIVEN)
    config = Path(__file__).parent.parent / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(config),
                          "-p", "no:cacheprovider", "test_given.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed" in out
    assert "INTERNALERROR" not in out
