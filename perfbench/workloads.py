"""The three benchmark workloads: inputs, requests and answer checks.

Each workload function turns a seed into the workload's list of
requests.  A request is a call into the library (or its CLI front door)
on the inputs of one :class:`Case`, plus a check that judges the answer
against :mod:`reference` and the library's definition-level checker
``verify_explanation``.  A check returns one of

* ``("ok", None)``: the answer meets the definitions;
* ``("refused", None)``: the call raised the typed error the library
  documents for that input (e.g. ``UnsupportedPartition``);
* ``("failed", cls)``: the answer is wrong or the error is not the
  documented one.  ``cls`` names the failure class; the classes in
  ``KNOWN_DEFECTS`` are defects the project already tracks.

A known class is given only where the reference shows its cause on that
input (the rewritten core differs from the repair core; the seed the
chase is documented to pick lies in no minimal sufficient set), and
there the defect fails every time.  So the inputs fix how many requests
fail in a known class, and a change that fails any other request shows
as an unexpected failure.
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import dbexplain
import dbexplain.cli  # noqa: F401 - the CLI front door is called through sys.modules
from dbexplain.model import Fact, Instance
from dbexplain.query import Atom, BooleanCQ, Const, ReachabilityQuery
from dbexplain.synth import planted_query, random_instance, scaling_instance

from reference import (
    CQReference,
    grid_path_count,
    is_simple_path,
    sorted_sets,
    union,
)

# Tracked defects: the participation rewriting drops tuples that every
# repair keeps (under self-joins, and where a minimal witness has a
# non-minimal endogenous projection), and the chase, seeded from that
# too-small core, can miss every minimal sufficient set.
KNOWN_DEFECTS = ("core-divergence:self-join", "core-divergence:exo-projection",
                 "chase-defect")

OK = ("ok", None)
REFUSED = ("refused", None)


class Stopwatch:
    """Sums the time of the calls it makes.  Workload generation times its
    reference building with one: checking is the benchmark's own work, so
    set-up time leaves it out."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def call(self, build: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        try:
            return build()
        finally:
            self.seconds += time.perf_counter() - start


class Case:
    """One input of a workload, built afresh for every pass.

    ``make(tag)`` returns the inputs with every constant prefixed by
    ``tag``: new objects, and no two passes send equal inputs, so a cache
    keyed by input carries no result from one pass to the next.  The
    renaming keeps tids, joins and the order of the values, so every pass
    does the same work and has the same answers (sets of tids).  Only the
    inputs of the latest tag are kept.
    """

    def __init__(self, make: Callable[[str], Any]):
        self.make = make
        self.tag: str | None = None
        self.inputs: Any = None

    def get(self, tag: str) -> Any:
        if tag != self.tag:
            self.inputs = None
            self.inputs = self.make(tag)
            self.tag = tag
        return self.inputs


def renamed_instance(inst: Instance, tag: str) -> Instance:
    return Instance.build(inst.schema, [
        Fact(f.tid, f.pred, tuple(tag + v for v in f.vals), f.endo) for f in inst.facts])


def renamed_query(query, tag: str):
    if isinstance(query, ReachabilityQuery):
        return ReachabilityQuery(query.edge_pred, tag + query.source, tag + query.target)
    return BooleanCQ(tuple(
        Atom(a.pred, tuple(Const(tag + t.value) if isinstance(t, Const) else t
                           for t in a.args))
        for a in query.atoms))


@dataclass
class Request:
    kind: str                     # what is asked, e.g. "cli:degrees"
    input_class: str              # the input family, for failure breakdowns
    case: Case
    call: Callable[[Any], Any]    # called with the case's inputs
    check: Callable[[Any, BaseException | None], tuple[str, str | None]]


def _failed(cls: str) -> tuple[str, str]:
    return ("failed", cls)


def _verified(ref: CQReference, kind: str, sets) -> bool:
    """verify_explanation on each set not yet verified for this input."""
    try:
        for s in sets:
            if (kind, s) not in ref.verified:
                dbexplain.verify_explanation(ref.instance, ref.query, kind, s)
                ref.verified.add((kind, s))
    except dbexplain.ExplanationInvalid:
        return False
    return True


# ---------------------------------------------------------------------------
# desk-oracle: every CLI subcommand on desk-scale instances

DESK_CLASSES = [(exo, sj, k) for exo in ("none", "tuples", "predicates")
                for sj in (False, True) for k in (2, 3)]
# Desk scale also bounds the witness count.  About 1 generated instance in
# 70 exceeds it, and there the repair requests' transversal search can
# take a second (105 witnesses): the blow-up wide-transversal measures on
# purpose, which would make the desk figures hinge on that one instance.
DESK_MAX_WITNESSES = 30


def _desk_instance(rng: random.Random, exo: str, sj: bool, k: int,
                   n_endo: int, max_total: int, refs: Stopwatch):
    while True:
        inst = random_instance(rng, max_tuples=max_total, exo_mode=exo, exo_rate=0.3)
        if len(inst.endogenous_part()) != n_endo or len(inst) > max_total:
            continue
        query = planted_query(rng, inst, n_atoms=k, self_join=sj)
        if query is None:
            continue
        ref = refs.call(lambda: CQReference(inst, query))
        if len(ref.witnesses) <= DESK_MAX_WITNESSES:
            return ref


def write_json(inst: Instance, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(inst.to_dict()))
    return path


def write_csv(inst: Instance, folder: Path) -> Path:
    folder.mkdir(parents=True)
    relations = {}
    for pred, arity in inst.schema_items:
        name = f"{pred}.csv"
        with open(folder / name, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["tid", "endo"] + [f"c{i + 1}" for i in range(arity)])
            for f in inst.relation(pred):
                out.writerow([f.tid, "true" if f.endo else "false", *f.vals])
        relations[pred] = name
    manifest = folder / "manifest.json"
    manifest.write_text(json.dumps({"schema": dict(inst.schema_items),
                                    "relations": relations}))
    return manifest


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = sys.modules["dbexplain.cli"].run(argv)
    return code, out.getvalue()


def _desk_checks(ref: CQReference, seed_tid: str | None):
    """Each CLI argument tail with the check of its JSON result and the
    error types documented for this input."""
    inst, query = ref.instance, ref.query
    mixed = ref.mixed_predicate()
    partition_err = ("UnsupportedPartition",) if mixed else ()
    sj = not query.self_join_free
    endo_participating = ref.participating() & ref.endo_predicate_tuples()

    def sets_equal(got, family, kind):
        got_sets = [frozenset(s) for s in got]
        if sorted_sets(got_sets) != sorted_sets(family):
            return _failed("wrong-answer")
        return OK if _verified(ref, kind, got_sets) else _failed("unverified-set")

    def c_eval(r):
        return OK if r == {"satisfied": True} else _failed("wrong-answer")

    def c_witnesses(r):
        return sets_equal([w["tuples"] for w in r["witnesses"]], ref.witnesses, "witness")

    def c_mss(r):
        return sets_equal(r["sets"], ref.mss, "MSS")

    def c_mss_tuple_min(r):
        through = [s for s in ref.mss if seed_tid in s]
        least = min((len(s) for s in through), default=0)
        return sets_equal(r["sets"], [s for s in through if len(s) == least], "MSS")

    def chase_result(got, through: str | None):
        if got is None:
            return OK if not endo_participating else _failed("wrong-answer")
        got = frozenset(got)
        if got not in ref.mss or (through is not None and through not in got):
            return _failed("wrong-answer")
        return OK if _verified(ref, "MSS", [got]) else _failed("unverified-set")

    def c_chase(r):
        return chase_result(r["set"], None)

    def c_chase_tuple(r):
        return chase_result(r["set"], seed_tid)

    def c_chase_min(r):
        least = min(len(s) for s in ref.mss)
        if least == 0:
            ok = r["set"] == [] and r["sigma"] is None
            return OK if ok else _failed("wrong-answer")
        verdict = chase_result(r["set"], None)
        if verdict != OK:
            return verdict
        if len(r["set"]) != least or r["sigma"] != str(Fraction(1, least)):
            return _failed("wrong-answer")
        return OK

    def c_mns(r):
        return sets_equal(r["sets"], ref.mns, "MNS")

    def c_degrees(r):
        return OK if r["degrees"] == ref.degrees() else _failed("wrong-answer")

    def c_causes(r):
        if r["causes"] != ref.causes():
            return _failed("wrong-answer")
        for tid, gammas in r["causes"].items():
            for g in gammas:
                if dbexplain.is_necessary(inst, query, g) or \
                        not dbexplain.is_necessary(inst, query, set(g) | {tid}):
                    return _failed("unverified-set")
        return OK

    def repairs_equal(r, family):
        removed = [frozenset(x["removed"]) for x in r["repairs"]]
        least = min(len(s) for s in ref.repair_removals)
        for x in r["repairs"]:
            if frozenset(x["kept"]) != ref.tids - frozenset(x["removed"]) or \
                    x["cardinality_minimal"] != (len(x["removed"]) == least):
                return _failed("wrong-answer")
        return sets_equal(removed, family, "repair-removal")

    def c_repairs(r):
        return repairs_equal(r, ref.repair_removals)

    def c_c_repairs(r):
        least = min(len(s) for s in ref.repair_removals)
        return repairs_equal(r, [s for s in ref.repair_removals if len(s) == least])

    def c_core(r):
        return judge_core(ref, frozenset(r["core"]), sj)

    def c_core_naive(r):
        return OK if frozenset(r["core"]) == ref.naive_core() else _failed("wrong-answer")

    def c_lineage(r):
        got = sorted_sets(frozenset(c) for c in r["clauses"])
        return OK if got == sorted_sets(ref.witnesses) else _failed("wrong-answer")

    def c_lineage_exo(r):
        got = sorted_sets(frozenset(c) for c in r["clauses"])
        return OK if got == sorted_sets(ref.mss) else _failed("wrong-answer")

    def c_duality(r):
        return OK if r == {"holds": True, "violations": []} else _failed("wrong-answer")

    def c_correspondence(r):
        return OK if r["holds"] is True else _failed("wrong-answer")

    chase_errs = partition_err + ("ChaseDefect",)
    checks = [
        (["eval"], c_eval, ()),
        (["witnesses"], c_witnesses, ()),
        (["mss"], c_mss, ()),
        (["mss", "--chase"], c_chase, chase_errs),
        (["mss", "--chase", "--min"], c_chase_min,
         partition_err + (("CallerMustUseOracle",) if sj else ())),
        (["mns"], c_mns, ()),
        (["degrees"], c_degrees, ()),
        (["causes"], c_causes, ()),
        (["repairs"], c_repairs, ()),
        (["repairs", "--cardinality"], c_c_repairs, ()),
        (["core"], c_core, partition_err),
        (["core", "--method=naive"], c_core_naive, ()),
        (["lineage"], c_lineage, ()),
        (["lineage", "--eliminate-exogenous"], c_lineage_exo, ()),
        (["check-duality"], c_duality, ()),
        (["check-correspondence"], c_correspondence, ()),
    ]
    if seed_tid is not None:
        checks += [
            (["mss", "--tuple", seed_tid, "--min"], c_mss_tuple_min, ()),
            (["mss", "--chase", "--tuple", seed_tid], c_chase_tuple, chase_errs),
        ]
    return checks


def judge_core(ref: CQReference, got: frozenset[str], self_join: bool):
    """The repair core is right.  Where the exogenous part alone satisfies
    the query there is none, and the rewritten core, what the rewriting is
    documented to compute, is right.  Where the two differ, the rewritten
    core is one of the tracked core divergences."""
    expected = ref.repair_core()
    if expected is not None and got == expected:
        return OK
    if got != ref.rewritten_core():
        return _failed("wrong-answer")
    if expected is None:
        return OK
    return _failed("core-divergence:self-join" if self_join
                   else "core-divergence:exo-projection")


def cli_chase_seed(ref: CQReference) -> str | None:
    """The seed ``mss --chase`` without ``--tuple`` is documented to pick:
    the least endogenous tid outside the core the rewriting computes."""
    return min(ref.endo - ref.rewritten_core(), default=None)


def _chase_defect_verdict(ref: CQReference, through: str | None):
    """ChaseDefect is the documented answer only when no minimal
    sufficient set could have been returned.  It is the tracked defect
    when the chase picked its own seed from outside a too-small core and
    that seed lies in no minimal sufficient set."""
    possible = [s for s in ref.mss if s and (through is None or through in s)]
    if not possible:
        return REFUSED
    if through is None and cli_chase_seed(ref) not in union(ref.mss):
        return _failed("chase-defect")
    return _failed("unexpected-error:ChaseDefect")


def _cli_request(kind, case, tail, check, allowed, ref, label) -> Request:
    through = tail[tail.index("--tuple") + 1] if "--tuple" in tail else None

    def call(inputs):
        path, query_text = inputs
        return run_cli([tail[0], "-i", path, "-q", query_text, *tail[1:]])

    def judge(out, err):
        if err is not None:
            return _failed(f"unexpected-error:{type(err).__name__}")
        code, text = out
        doc = json.loads(text)
        if code == 1:
            name = doc["error"]["type"]
            if name not in allowed:
                return _failed(f"unexpected-error:{name}")
            if name == "ChaseDefect":
                return _chase_defect_verdict(ref, through)
            return REFUSED
        if code != 0:
            return _failed(f"exit-code:{code}")
        return check(doc["result"])

    return Request(kind=kind, input_class=label, case=case, call=call, check=judge)


def desk_oracle(seed: int, workdir: Path, refs: Stopwatch,
                smoke: bool = False) -> list[Request]:
    """Desk-scale random instances, all CLI subcommands, read from files."""
    rng = random.Random(seed)
    per_class, n_endo, max_total = (1, 6, 9) if smoke else (3, 11, 18)
    classes = DESK_CLASSES[::3] if smoke else DESK_CLASSES
    requests: list[Request] = []
    for idx in range(per_class * len(classes)):
        exo, sj, k = classes[idx % len(classes)]
        ref = _desk_instance(rng, exo, sj, k, n_endo, max_total, refs)
        case = Case(_desk_files(ref.instance, ref.query, workdir, idx))
        candidates = sorted(ref.participating() & ref.endo)
        seed_tid = rng.choice(candidates) if candidates else None
        label = f"exo={exo},self-join={int(sj)},atoms={k}"
        checks = refs.call(lambda: _desk_checks(ref, seed_tid))
        for tail, check, allowed in checks:
            kind = "cli:" + " ".join(t for t in tail if t != seed_tid)
            requests.append(_cli_request(kind, case, tail, check, allowed, ref, label))
    return requests


def _desk_files(inst: Instance, query, workdir: Path, idx: int):
    """Writes the renamed instance under ``workdir/<tag>``, as JSON or as
    CSV files with a manifest; returns the path and the query text."""
    def make(tag: str) -> tuple[str, str]:
        copy = renamed_instance(inst, tag)
        if idx % 2:
            path = write_csv(copy, workdir / tag / f"desk{idx}")
        else:
            path = write_json(copy, workdir / tag / f"desk{idx}.json")
        return str(path), str(renamed_query(query, tag))
    return make


# ---------------------------------------------------------------------------
# scale-fastpath: library API on instances of a few hundred tuples

SCALE_QUERIES = ("q :- S(x), R(x,y), T(y).", "q :- S(x), R(x,y), S(y).")


def _api_request(kind, label, case, call, judge) -> Request:
    def check(out, err):
        if err is not None:
            return _failed(f"unexpected-error:{type(err).__name__}")
        return judge(out)
    return Request(kind=kind, input_class=label, case=case, call=call, check=check)


def _renamed(inst: Instance, query) -> Case:
    return Case(lambda tag: (renamed_instance(inst, tag), renamed_query(query, tag)))


def scale_fastpath(seed: int, workdir: Path, refs: Stopwatch,
                   smoke: bool = False) -> list[Request]:
    """scaling_instance at a few hundred tuples, called through the API."""
    rng = random.Random(seed)
    n, count = (60, 1) if smoke else (200, 16)
    requests: list[Request] = []
    made = 0
    while made < count:
        inst = scaling_instance(n, seed=rng.randrange(2 ** 31))
        pair = refs.call(lambda: [
            CQReference(inst, dbexplain.parse_query(text, inst))
            for text in SCALE_QUERIES])
        if any(len(ref.participating()) < 4 for ref in pair):
            continue
        for ref in pair:
            requests += _scale_requests(rng, ref)
        made += 1
    return requests


def _scale_requests(rng, ref: CQReference) -> list[Request]:
    api = dbexplain
    inst, query = ref.instance, ref.query
    case = _renamed(inst, query)
    sjf = query.self_join_free
    label = f"n={len(inst)},self-join={int(not sjf)}"
    seeds = rng.sample(sorted(ref.participating()), 4)

    def j_eval(out):
        return OK if out is True else _failed("wrong-answer")

    def j_witnesses(out):
        got = [w.tuples for w in out]
        if sorted_sets(got) != sorted_sets(ref.witnesses):
            return _failed("wrong-answer")
        return OK if _verified(ref, "witness", got) else _failed("unverified-set")

    def j_core(out):
        return judge_core(ref, out.tuples, not sjf)

    def j_lineage(out):
        formula, models = out
        if sorted_sets(formula.clauses) != sorted_sets(ref.mss) or \
                sorted_sets(models) != sorted_sets(ref.mss):
            return _failed("wrong-answer")
        return OK

    def j_chase(through):
        def judge(out):
            if out.tuples not in ref.mss or through not in out.tuples:
                return _failed("wrong-answer")
            return OK if _verified(ref, "MSS", [out.tuples]) else _failed("unverified-set")
        return judge

    def j_min(through):
        through_sets = [s for s in ref.mss if through is None or through in s]
        least = min((len(s) for s in through_sets), default=0)

        def judge(out):
            if not through_sets:
                ok = out.mss is None and out.sigma == 0
                return OK if ok else _failed("wrong-answer")
            if out.mss is None or out.mss.tuples not in through_sets or \
                    len(out.mss) != least or out.sigma != Fraction(1, least):
                return _failed("wrong-answer")
            return OK if _verified(ref, "MSS", [out.mss.tuples]) else _failed("unverified-set")
        return judge

    def chase_call(tid):
        return lambda inputs: api.chase_mss(*inputs, tid)

    def chase_check(tid):
        judge = j_chase(tid)

        def check(out, err):
            if isinstance(err, api.ChaseDefect):
                return _chase_defect_verdict(ref, tid)
            if err is not None:
                return _failed(f"unexpected-error:{type(err).__name__}")
            return judge(out)
        return check

    def lineage_chain(inputs):
        inst, query = inputs
        formula = api.eliminate_exogenous(api.lineage_of(inst, query), inst)
        return formula, api.minimal_models(formula)

    reqs = [
        _api_request("evaluate", label, case,
                     lambda inputs: api.evaluate(inputs[1], inputs[0]), j_eval),
        _api_request("enumerate_witnesses", label, case,
                     lambda inputs: api.enumerate_witnesses(inputs[1], inputs[0]),
                     j_witnesses),
        _api_request("core_fast", label, case,
                     lambda inputs: api.core_fast(*inputs), j_core),
        _api_request("lineage", label, case, lineage_chain, j_lineage),
    ]
    for tid in seeds[:3]:
        reqs.append(Request("chase_mss", label, case, chase_call(tid), chase_check(tid)))
    if sjf:
        reqs.append(_api_request("min_mss_sjf", label, case,
                                 lambda inputs: api.min_mss_sjf(*inputs), j_min(None)))
        reqs.append(_api_request("min_mss_sjf:tuple", label, case,
                                 lambda inputs: api.min_mss_sjf(*inputs, seeds[3]),
                                 j_min(seeds[3])))
    return reqs


# ---------------------------------------------------------------------------
# wide-transversal: many minimal hitting sets, trivial joins

# Each shape lists star sizes: a hub S(c) (or T(c)) joined to m spokes
# R(c,o), T(o); a star of m spokes has 1 + 2^m minimal transversals, and
# the repair count of an instance is the product over its stars.  Every
# shape is built WIDE_COPIES times with the same structure, so the
# latencies form one block per shape and the median and the tail fall
# inside a block rather than on the edge between two instances.
WIDE_SHAPES = [(3, 2, 1), (2, 2, 1, 1), (4, 2, 1), (3, 3), (4, 3), (2, 2, 2),
               (5, 1, 1), (3, 2, 2)]
WIDE_COPIES = 4
WIDE_NOISE = 18
GRIDS = [(6, 7), (7, 7), (6, 8), (5, 9)] * 2
CHAIN = "q :- S(x), R(x,y), T(y)."


def star_instance(rng: random.Random, shape, noise: int, variant: int) -> Instance:
    """Stars joined through an S hub, or a T hub when flipped; the variant
    flips the stars at even positions (bit 0) and at odd ones (bit 1).
    Noise tuples join nothing: half dangling R edges, a quarter each
    unmatched S and T values.  The seed only picks the hubs' constants, so
    the work depends on the shape and the variant alone."""
    raw: list[tuple[str, tuple[str, ...]]] = []
    for pos, m in enumerate(shape):
        hub = f"v{rng.randrange(10 ** 6)}"
        flip = bool(variant >> (pos % 2) & 1)
        for i in range(m):
            spoke = f"{hub}o{i}"
            raw += [("R", (spoke, hub)), ("S", (spoke,))] if flip else \
                [("R", (hub, spoke)), ("T", (spoke,))]
        raw.append(("T", (hub,)) if flip else ("S", (hub,)))
    for i in range(noise):
        if i % 4 < 2:
            raw.append(("R", (f"d{i}", f"e{i}")))
        else:
            raw.append(("S" if i % 4 == 2 else "T", (f"f{i}",)))
    counters: dict[str, int] = {}
    facts = []
    for pred, vals in raw:
        counters[pred] = counters.get(pred, 0) + 1
        facts.append(Fact(f"{pred.lower()}{counters[pred]:02d}", pred, vals))
    return Instance.build({"S": 1, "R": 2, "T": 1}, facts)


def grid_instance(rng: random.Random, rows: int, cols: int, dead_ends: int):
    """Right/down edges over a rows x cols grid, plus edges into dead ends."""
    names = [[f"n{rng.randrange(10 ** 6)}_{r}_{c}" for c in range(cols)]
             for r in range(rows)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((names[r][c], names[r][c + 1]))
            if r + 1 < rows:
                edges.append((names[r][c], names[r + 1][c]))
    for i in range(dead_ends):
        r, c = rng.randrange(rows - 1), rng.randrange(cols - 1)
        edges.append((names[r][c], f"sink{i}"))
    rng.shuffle(edges)
    facts = [Fact(f"e{i:03d}", "E", e) for i, e in enumerate(edges)]
    inst = Instance.build({"E": 2}, facts)
    return inst, names[0][0], names[-1][-1]


def wide_transversal(seed: int, workdir: Path, refs: Stopwatch,
                     smoke: bool = False) -> list[Request]:
    rng = random.Random(seed)
    shapes, grids, noise = ([(2, 1)], [(3, 3)], 3) if smoke else \
        (WIDE_SHAPES * WIDE_COPIES, GRIDS, WIDE_NOISE)
    api = dbexplain
    requests: list[Request] = []
    for idx, shape in enumerate(shapes):
        inst = star_instance(rng, shape, noise, variant=idx % len(WIDE_SHAPES) % 4)
        query = api.parse_query(CHAIN, inst)
        ref = refs.call(lambda: CQReference(inst, query))
        label = "stars=" + "-".join(map(str, shape))
        requests += _wide_requests(api, ref, label)
    for rows, cols in grids:
        inst, src, dst = grid_instance(rng, rows, cols, dead_ends=rows)
        query = api.parse_query(f"q :- path(E, {src}, {dst}).", inst)
        expected = grid_path_count(rows, cols)

        def j_paths(out, inst=inst, src=src, dst=dst, expected=expected):
            # renaming keeps the tids, so the paths read on the base instance
            got = [w.tuples for w in out]
            if len(set(got)) != expected or len(got) != expected:
                return _failed("wrong-answer")
            edges = [[inst.fact(t).vals for t in path] for path in got]
            return OK if all(is_simple_path(e, src, dst) for e in edges) \
                else _failed("wrong-answer")

        requests.append(_api_request(
            "enumerate_witnesses:path", f"grid={rows}x{cols}", _renamed(inst, query),
            lambda inputs: api.enumerate_witnesses(inputs[1], inputs[0]), j_paths))
    return requests


def _wide_requests(api, ref: CQReference, label) -> list[Request]:
    inst, query = ref.instance, ref.query
    bound = len(inst)
    case = Case(lambda tag: (renamed_instance(inst, tag),
                             api.denial_constraint_of(renamed_query(query, tag))))

    def least() -> int:
        return min(len(s) for s in ref.repair_removals)

    def j_repairs(cardinality: bool):
        def judge(out):
            family = [s for s in ref.repair_removals
                      if not cardinality or len(s) == least()]
            got = [r.removed for r in out]
            if sorted_sets(got) != sorted_sets(family):
                return _failed("wrong-answer")
            for r in out:
                if r.kept != ref.tids - r.removed or \
                        r.cardinality_minimal != (len(r.removed) == least()):
                    return _failed("wrong-answer")
            return OK if _verified(ref, "repair-removal", got) else _failed("unverified-set")
        return judge

    def j_core(out):
        return OK if out.tuples == ref.naive_core() else _failed("wrong-answer")

    return [
        _api_request("enumerate_s_repairs", label, case,
                     lambda inputs: api.enumerate_s_repairs(*inputs, max_deletable=bound),
                     j_repairs(False)),
        _api_request("enumerate_c_repairs", label, case,
                     lambda inputs: api.enumerate_c_repairs(*inputs, max_deletable=bound),
                     j_repairs(True)),
        _api_request("core_naive", label, case,
                     lambda inputs: api.core_naive(*inputs, max_deletable=bound), j_core),
    ]


WORKLOAD_REQUESTS = {
    "desk-oracle": desk_oracle,
    "scale-fastpath": scale_fastpath,
    "wide-transversal": wide_transversal,
}
