from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbexplain import (
    Fact,
    Instance,
    InstanceFormatError,
    UnknownTupleId,
    load_instance,
    load_instance_csv,
)

from conftest import data_path, inst


def test_load_six_edge_graph(g_routes):
    assert len(g_routes) == 6
    assert g_routes.exogenous_part() == frozenset()
    assert g_routes.fact("t1").vals == ("a", "b")


def test_load_seven_tuple_instance(srs_prime):
    assert len(srs_prime) == 7
    assert {f.pred for f in srs_prime.facts} == {"R", "S"}


def test_load_empty_instance():
    got = load_instance({"schema": {"R": 2}, "tuples": []})
    assert len(got) == 0
    assert got.schema == {"R": 2}


def test_missing_provenance_defaults_to_endogenous():
    got = load_instance({"schema": {"R": 1}, "tuples": [
        {"tid": "t1", "pred": "R", "vals": ["a"]}]})
    assert got.fact("t1").endo is True


def test_auto_tid_generation():
    got = load_instance({"schema": {"R": 1, "S": 1}, "tuples": [
        {"pred": "R", "vals": ["a"]},
        {"pred": "S", "vals": ["a"]},
        {"pred": "R", "vals": ["b"]}]})
    assert sorted(got.tids()) == ["R_1", "R_2", "S_1"]


@pytest.mark.parametrize("doc,fragment", [
    ({"schema": {"R": 2}}, "tuples"),
    ({"schema": {"R": 2}, "tuples": [
        {"tid": "t1", "pred": "R", "vals": ["a", "b"]},
        {"tid": "t1", "pred": "R", "vals": ["a", "c"]}]}, "duplicate tid"),
    ({"schema": {"R": 2}, "tuples": [
        {"tid": "t1", "pred": "R", "vals": ["a"]}]}, "expects 2 values"),
    ({"schema": {"R": 2}, "tuples": [
        {"tid": "t1", "pred": "R", "vals": ["a", "b"]},
        {"tid": "t2", "pred": "R", "vals": ["a", "b"]}]}, "duplicate value list"),
    ({"schema": {"R": 2}, "tuples": [
        {"tid": "t1", "pred": "Q", "vals": ["a", "b"]}]}, "undeclared predicate"),
    ({"schema": {"R": 2}, "tuples": [
        {"tid": "t1", "pred": "R", "vals": ["a", 3]}]}, "strings"),
    ({"schema": {"R": "x"}, "tuples": []}, "must be an integer"),
    ({"schema": {"R": 2}, "tuples": 5}, "list of tuple records"),
    ({"schema": {"R": 2.5}, "tuples": []}, "must be an integer"),
    ({"schema": {"R": True}, "tuples": []}, "must be an integer"),
], ids=["missing-key", "dup-tid", "arity", "dup-row", "unknown-pred", "typed",
        "arity-type", "tuples-type", "arity-fraction", "arity-bool"])
def test_load_rejects_malformed_documents(doc, fragment):
    with pytest.raises(InstanceFormatError, match=fragment):
        load_instance(doc)


def test_restrict_single_tuple(g_routes):
    got = g_routes.restrict({"t1"})
    assert len(got) == 1 and "t1" in got
    assert got.schema == g_routes.schema


def test_restrict_identity_and_empty(g_routes):
    assert g_routes.restrict(g_routes.tids()) == g_routes
    assert len(g_routes.restrict(set())) == 0


def test_restrict_unknown_tid(g_routes):
    with pytest.raises(UnknownTupleId):
        g_routes.restrict({"nope"})


def test_partition_parts(g_routes, g_routes_exo23, g_diamond):
    assert g_routes.exogenous_part() == frozenset()
    assert g_routes_exo23.exogenous_part() == {"t2", "t3"}
    assert g_routes_exo23.endogenous_part() == {"t1", "t4", "t5", "t6"}
    # the diamond keeps its two source edges exogenous
    assert g_diamond.exogenous_part() == {"t1", "t3"}
    assert g_diamond.endogenous_part() == {"t2", "t4", "t5"}


def test_partition_covers_instance(srs_prime_exoR):
    endo, exo = srs_prime_exoR.endogenous_part(), srs_prime_exoR.exogenous_part()
    assert endo | exo == srs_prime_exoR.tids()
    assert endo & exo == frozenset()


def test_tuple_sets_are_built_once_per_instance(srs_prime_exoR):
    """The tid set, the two parts and the domain are built at the first
    call and handed out as they are after it; a restricted copy builds its
    own, and neither changes how instances compare."""
    names = ("tids", "endogenous_part", "exogenous_part", "domain")
    first = [getattr(srs_prime_exoR, name)() for name in names]
    assert [getattr(srs_prime_exoR, name)() for name in names] == first
    assert all(getattr(srs_prime_exoR, name)() is s for name, s in zip(names, first))
    keep = sorted(srs_prime_exoR.exogenous_part())[:1] + sorted(srs_prime_exoR.endogenous_part())[:1]
    sub = srs_prime_exoR.restrict(keep)
    assert sub.tids() == set(keep) and len(sub.endogenous_part()) == len(sub.exogenous_part()) == 1
    assert sub.domain() == {v for t in keep for v in sub.fact(t).vals}
    assert srs_prime_exoR == inst("srs_prime_exoR.json") and hash(sub) == hash(sub.restrict(keep))


def test_roundtrip_json(tmp_path, srs_prime):
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(srs_prime.to_dict()))
    assert load_instance(path) == srs_prime


def test_csv_and_json_loaders_agree(rt_small):
    got = load_instance_csv(data_path("rt_small_csv/manifest.json"))
    assert got == rt_small


def test_csv_rejects_malformed_manifests(tmp_path):
    (tmp_path / "R.csv").write_text("tid,endo,c1\nr1,true,a\n")
    for manifest, fragment in [
            ({"schema": {"R": 1}, "relations": ["R.csv"]}, "must be objects"),
            ({"schema": ["R"], "relations": {"R": "R.csv"}}, "must be objects"),
            ({"schema": {"R": "x"}, "relations": {"R": "R.csv"}}, "must be an integer"),
            ({"schema": {"R": 2.5}, "relations": {"R": "R.csv"}}, "must be an integer"),
            ({"schema": {"R": True}, "relations": {"R": "R.csv"}}, "must be an integer"),
            ({"schema": {"R": 1}, "relations": {"R": 5}}, "must be a path")]:
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(InstanceFormatError, match=fragment):
            load_instance_csv(tmp_path / "m.json")
    # a numeric string is still read as an arity
    (tmp_path / "m.json").write_text(
        json.dumps({"schema": {"R": "1"}, "relations": {"R": "R.csv"}}))
    assert len(load_instance_csv(tmp_path / "m.json")) == 1
    # relation files that are not UTF-8, or hold a field past the CSV
    # reader's limit of 131,072 characters
    for body in (b"tid,endo,c1\nr1,true,\xff\xfe\n",
                 b"tid,endo,c1\nr1,true," + b"a" * 200_000 + b"\n"):
        (tmp_path / "R.csv").write_bytes(body)
        with pytest.raises(InstanceFormatError, match="cannot read relation file"):
            load_instance_csv(tmp_path / "m.json")
    # a manifest or an instance document that is not UTF-8
    (tmp_path / "m.json").write_bytes(b"\xff\xfe{}")
    with pytest.raises(InstanceFormatError, match="cannot read manifest"):
        load_instance_csv(tmp_path / "m.json")
    with pytest.raises(InstanceFormatError, match="cannot read instance document"):
        load_instance(tmp_path / "m.json")


def test_csv_rejects_bad_header(tmp_path):
    (tmp_path / "m.json").write_text(
        json.dumps({"schema": {"R": 1}, "relations": {"R": "R.csv"}}))
    (tmp_path / "R.csv").write_text("tid,c1\na,b\n")
    with pytest.raises(InstanceFormatError, match="header"):
        load_instance_csv(tmp_path / "m.json")


@st.composite
def small_instances(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    rows = draw(st.lists(
        st.tuples(st.sampled_from("ab"), st.sampled_from("abcd")),
        min_size=n, max_size=n, unique=True))
    facts = [Fact(tid=f"t{i}", pred=p, vals=(v,), endo=draw(st.booleans()))
             for i, (p, v) in enumerate(rows)]
    return Instance.build({"a": 1, "b": 1}, facts)


@given(small_instances(), st.sets(st.integers(min_value=0, max_value=5)))
@settings(deadline=None, max_examples=60)
def test_restrict_is_idempotent_and_sized(instance, picks):
    keep = {f"t{i}" for i in picks} & instance.tids()
    once = instance.restrict(keep)
    assert len(once) == len(keep)
    assert once.restrict(keep) == once


@given(small_instances(), st.sets(st.integers(min_value=0, max_value=5)))
@settings(deadline=None, max_examples=60)
def test_restrict_equals_build_of_the_kept_facts(instance, picks):
    keep = {f"t{i}" for i in picks} & instance.tids()
    got = instance.restrict(keep)
    want = Instance.build(instance.schema, [instance.fact(t) for t in keep])
    assert got == want and got.facts == want.facts
    for pred in instance.schema:
        assert got.relation(pred) == want.relation(pred)
    for tid in keep:
        assert got.fact(tid) is instance.fact(tid)
    assert got.tids() == keep
    with pytest.raises(UnknownTupleId, match="t9"):
        instance.restrict(keep | {"t9"})


@given(small_instances())
@settings(deadline=None, max_examples=60)
def test_serialization_roundtrip(instance):
    assert load_instance(instance.to_dict()) == instance
