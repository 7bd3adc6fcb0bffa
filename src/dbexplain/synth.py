"""Seeded random instances and planted queries.

Used by the property-test suite and the benchmark.  Queries are planted
from sampled facts, so the generated query is satisfied by construction;
exogenous flags never affect satisfaction.
"""

from __future__ import annotations

import random
import string

from .model import Fact, Instance
from .query import Atom, BooleanCQ, Const, Var

__all__ = ["random_instance", "planted_query", "scaling_instance", "SCALING_QUERY_TEXT"]

SCALING_QUERY_TEXT = "q :- S(x), R(x,y), T(y)."


def random_instance(rng: random.Random, *, max_tuples: int = 10,
                    n_preds: int = 3, domain_size: int = 5,
                    exo_mode: str = "none", exo_rate: float = 0.3) -> Instance:
    """A small instance over unary/binary predicates P1..Pn.

    exo_mode: 'none' (all endogenous), 'tuples' (flag tuples independently),
    or 'predicates' (flag whole extensions).
    """
    preds = {f"P{i + 1}": rng.choice([1, 2, 2]) for i in range(n_preds)}
    domain = list(string.ascii_lowercase[:domain_size])
    exo_preds = {p for p in preds
                 if exo_mode == "predicates" and rng.random() < exo_rate}
    facts: list[Fact] = []
    seen: set[tuple[str, tuple[str, ...]]] = set()
    counters = {p: 0 for p in preds}
    n = rng.randint(max(2, max_tuples // 2), max_tuples)
    for _ in range(n * 3):
        if len(facts) >= n:
            break
        pred = rng.choice(sorted(preds))
        vals = tuple(rng.choice(domain) for _ in range(preds[pred]))
        if (pred, vals) in seen:
            continue
        seen.add((pred, vals))
        counters[pred] += 1
        if exo_mode == "tuples":
            endo = rng.random() >= exo_rate
        else:
            endo = pred not in exo_preds
        facts.append(Fact(tid=f"{pred.lower()}{counters[pred]}", pred=pred,
                          vals=vals, endo=endo))
    return Instance.build(preds, facts)


def planted_query(rng: random.Random, instance: Instance, *,
                  n_atoms: int = 2, self_join: bool = False,
                  const_rate: float = 0.15) -> BooleanCQ | None:
    """A satisfied Boolean CQ planted on sampled facts.

    With self_join=False the atoms use pairwise-distinct predicates (the
    atom count shrinks if the instance lacks enough populated predicates);
    with self_join=True at least one predicate repeats.  Returns None when
    the instance cannot host the requested shape.
    """
    populated = sorted({f.pred for f in instance.facts})
    if not populated:
        return None
    if self_join:
        anchor = rng.choice(populated)
        preds = [anchor, anchor] + (
            [rng.choice(populated)] if n_atoms >= 3 else [])
        preds = preds[:max(n_atoms, 2)]
        rng.shuffle(preds)
    else:
        if len(populated) < 2:
            return None
        m = min(n_atoms, len(populated))
        preds = rng.sample(populated, m)
    picked = [rng.choice(instance.relation(p)) for p in preds]
    var_of: dict[str, str] = {}
    atoms = []
    for pred, fact in zip(preds, picked):
        args = []
        for v in fact.vals:
            if rng.random() < const_rate:
                args.append(Const(v))
            else:
                if v not in var_of:
                    var_of[v] = f"x{len(var_of)}"
                args.append(Var(var_of[v]))
        atoms.append(Atom(pred, tuple(args)))
    return BooleanCQ(tuple(atoms))


def scaling_instance(n: int, seed: int = 7) -> Instance:
    """A three-relation instance of n tuples for the S(x),R(x,y),T(y) chain."""
    rng = random.Random(seed)
    n_s = max(2, n // 5)
    n_t = max(2, n // 5)
    quota = {"S": n_s, "T": n_t, "R": n - n_s - n_t}
    dom = [f"v{i}" for i in range(max(4, n // 3))]
    facts: list[Fact] = []
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for pred, arity in (("S", 1), ("T", 1), ("R", 2)):
        count = 0
        while count < quota[pred]:
            vals = tuple(rng.choice(dom) for _ in range(arity))
            if (pred, vals) in seen:
                continue
            seen.add((pred, vals))
            facts.append(Fact(tid=f"{pred.lower()}{count}", pred=pred, vals=vals))
            count += 1
    return Instance.build({"S": 1, "R": 2, "T": 1}, facts)
