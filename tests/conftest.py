from __future__ import annotations

from pathlib import Path

import pytest

from dbexplain import Fact, Instance, load_instance, parse_query

DATA = Path(__file__).parent / "data"


def data_path(name: str) -> Path:
    return DATA / name


def inst(name: str) -> Instance:
    return load_instance(DATA / name)


def ladder(rungs: int) -> Instance:
    """s -> x -> t, and from x a ladder of two-node levels, each node
    joined to both nodes of the next level, whose last level leads back to
    x only: one simple path, but the walk enters 2^(rungs + 1) - 1 nodes."""
    edges = [("s", "x"), ("x", "t"), ("x", "a1"), ("x", "b1")]
    for i in range(1, rungs):
        edges += [(u, f"{v}{i + 1}") for u in (f"a{i}", f"b{i}") for v in "ab"]
    edges += [(f"a{rungs}", "x"), (f"b{rungs}", "x")]
    return Instance.build({"E": 2}, [Fact(f"e{i:03d}", "E", e)
                                     for i, e in enumerate(edges)])


@pytest.fixture
def g_routes() -> Instance:
    """Six edges from a to b: a direct edge, a 2-edge route, a 3-edge route."""
    return inst("g_routes.json")


@pytest.fixture
def g_routes_exo23() -> Instance:
    return inst("g_routes_exo23.json")


@pytest.fixture
def g_routes_exo24() -> Instance:
    return inst("g_routes_exo24.json")


@pytest.fixture
def g_diamond() -> Instance:
    """Two routes s->a->c->t / s->b->c->t; the source edges are exogenous."""
    return inst("g_diamond.json")


@pytest.fixture
def srs_base() -> Instance:
    return inst("srs_base.json")


@pytest.fixture
def srs_prime() -> Instance:
    return inst("srs_prime.json")


@pytest.fixture
def srs_prime_exoR() -> Instance:
    return inst("srs_prime_exoR.json")


@pytest.fixture
def rt_small() -> Instance:
    return inst("rt_small.json")


@pytest.fixture
def rrs_loop() -> Instance:
    return inst("rrs_loop.json")


@pytest.fixture
def q_path_ab(g_routes):
    return parse_query("q :- path(E, a, b).", g_routes)


@pytest.fixture
def q_path_st(g_diamond):
    return parse_query("q :- path(E, s, t).", g_diamond)


@pytest.fixture
def q_srs(srs_prime):
    return parse_query("q :- S(x), R(x,y), S(y).", srs_prime)


@pytest.fixture
def q_rt(rt_small):
    return parse_query("q :- R(x,y), T(y).", rt_small)


@pytest.fixture
def q_rrs(rrs_loop):
    return parse_query("q :- R(x,y), R(y,z), S(x,y).", rrs_loop)


def tids(family) -> list[list[str]]:
    """Canonical rendering of a family of tid sets (or explanation sets)."""
    out = []
    for s in family:
        s = s.tuples if hasattr(s, "tuples") else s
        out.append(sorted(s))
    return sorted(out)


def mask_sets(tuples: list[str], masks) -> list[frozenset[str]]:
    """The tid sets that bitmasks over the tuples stand for (bit i for
    tuples[i]), ordered by (size, tids)."""
    return sorted((frozenset(t for i, t in enumerate(tuples) if m >> i & 1) for m in masks),
                  key=lambda s: (len(s), sorted(s)))
