"""Immutable relational instances with an endogenous/exogenous partition.

An instance is a finite set of ground atoms ("facts"), each carrying a
stable tuple identifier (tid) and a provenance flag.  Endogenous facts are
the ones hypothetical deletion interventions may remove; exogenous facts
are shielded from intervention.  Instances are immutable after
construction and safe to share across threads or worker processes.

Two on-disk formats are supported and must round-trip to equal instances:

* one JSON document::

      {"schema": {"R": 2, "S": 1},
       "tuples": [{"tid": "t1", "pred": "R", "vals": ["c", "b"], "endo": true}, ...]}

* one CSV file per predicate with header ``tid,endo,c1..ck`` plus a JSON
  manifest ``{"schema": {...}, "relations": {"R": "R.csv", ...}}``.

Tids are mandatory in principle but auto-generated as ``<pred>_<ordinal>``
when an input omits them.  Duplicate value lists within a predicate are an
error rather than being silently deduplicated: degree computations count
tuples, so the caller must decide what a duplicate means.  Constants are
untyped atoms compared as strings.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping

from .errors import InstanceFormatError, UnknownTupleId

__all__ = ["Fact", "Instance", "load_instance", "load_instance_csv"]


@dataclass(frozen=True, order=True, slots=True)
class Fact:
    """One ground atom: tid, predicate name, constant values, provenance.

    Slotted, without a per-object attribute dict, since an instance holds
    one per tuple."""

    tid: str
    pred: str
    vals: tuple[str, ...]
    endo: bool = True

    def __str__(self) -> str:
        mark = "" if self.endo else "*"
        return f"{self.tid}{mark}:{self.pred}({','.join(self.vals)})"


def _once(method):
    """Keep a method's value in the instance's ``__dict__`` at its first
    call: instances are immutable, and the copies that ``restrict`` makes
    and never asks pay nothing."""
    key = "_" + method.__name__

    @functools.wraps(method)
    def once(self):
        if key not in self.__dict__:
            self.__dict__[key] = method(self)
        return self.__dict__[key]
    return once


@dataclass(frozen=True)
class Instance:
    """A schema plus a set of facts, partitioned by provenance.

    ``facts`` is kept sorted by tid, which fixes the iteration order used
    by every enumeration in the package.

    ``probe`` hash-indexes a relation on a tuple of argument positions the
    first time a join asks, and keeps the index while the instance lives,
    so every later join on the instance reuses it.  The indexes are keyed
    by predicate and positions, never by values, so there are at most as
    many as predicates times position sets.  The arity map is built once
    and shared with ``restrict``'s copies.  The instance also keeps the
    witness index of the latest conjunctive query asked of it (see
    ``query._witness_index``), one at a time, with that query, and with
    it the parts that the families read off the index at their first use:
    the union of W and the components of W and of the minimal witnesses,
    linear in those families.  Two threads that ask for the same index at
    once may both build it, and the later one is kept; both are built from
    the same immutable facts, so either is correct, and a reader sees a
    whole index or none.
    """

    schema_items: tuple[tuple[str, int], ...]
    facts: tuple[Fact, ...]
    _by_tid: dict[str, Fact] = field(default_factory=dict, compare=False, repr=False)
    _by_pred: dict[str, tuple[Fact, ...]] = field(default_factory=dict, compare=False, repr=False)
    _arities: dict[str, int] = field(default_factory=dict, compare=False, repr=False)
    _probes: dict[tuple[str, tuple[int, ...]], dict[object, list[Fact]]] = field(
        default_factory=dict, compare=False, repr=False)

    @staticmethod
    def build(schema: Mapping[str, int], facts: Iterable[Fact]) -> "Instance":
        """Validate invariants and construct an instance."""
        schema_items = tuple(sorted((str(p), _arity(p, a)) for p, a in schema.items()))
        for pred, arity in schema_items:
            if arity < 0:
                raise InstanceFormatError(f"negative arity for predicate {pred!r}")
        arities = dict(schema_items)
        if len(arities) != len(schema_items):
            raise InstanceFormatError("duplicate predicate in schema")
        ordered = tuple(sorted(facts, key=lambda f: f.tid))
        seen_tids: set[str] = set()
        seen_rows: set[tuple[str, tuple[str, ...]]] = set()
        for f in ordered:
            if f.pred not in arities:
                raise InstanceFormatError(f"fact {f.tid!r} uses undeclared predicate {f.pred!r}")
            if len(f.vals) != arities[f.pred]:
                raise InstanceFormatError(
                    f"fact {f.tid!r}: {f.pred} expects {arities[f.pred]} values, got {len(f.vals)}")
            if not all(isinstance(v, str) for v in f.vals):
                raise InstanceFormatError(f"fact {f.tid!r}: constants must be strings")
            if f.tid in seen_tids:
                raise InstanceFormatError(f"duplicate tid {f.tid!r}")
            seen_tids.add(f.tid)
            row = (f.pred, f.vals)
            if row in seen_rows:
                raise InstanceFormatError(
                    f"duplicate value list {f.vals!r} in predicate {f.pred!r}")
            seen_rows.add(row)
        return Instance._indexed(schema_items, arities, ordered)

    @staticmethod
    def _indexed(schema_items: tuple[tuple[str, int], ...], arities: dict[str, int],
                 ordered: tuple[Fact, ...]) -> "Instance":
        """Construct from valid facts already sorted by tid."""
        inst = Instance(schema_items, ordered)
        object.__setattr__(inst, "_arities", arities)
        object.__setattr__(inst, "_by_tid", {f.tid: f for f in ordered})
        by_pred: dict[str, list[Fact]] = {p: [] for p, _ in schema_items}
        for f in ordered:
            by_pred[f.pred].append(f)
        object.__setattr__(inst, "_by_pred", {p: tuple(fs) for p, fs in by_pred.items()})
        return inst

    def __getstate__(self) -> dict:
        """All but the witness index, whose query a copy could never match."""
        state = self.__dict__.copy()
        state.pop("_witness_index", None)
        return state

    # -- lookups -----------------------------------------------------------

    @property
    def schema(self) -> dict[str, int]:
        return dict(self._arities)

    def arity(self, pred: str) -> int:
        if pred not in self._arities:
            raise InstanceFormatError(f"unknown predicate {pred!r}")
        return self._arities[pred]

    def __len__(self) -> int:
        return len(self.facts)

    def __contains__(self, tid: str) -> bool:
        return tid in self._by_tid

    def fact(self, tid: str) -> Fact:
        try:
            return self._by_tid[tid]
        except KeyError:
            raise UnknownTupleId(f"unknown tid {tid!r}") from None

    def relation(self, pred: str) -> tuple[Fact, ...]:
        """Facts of one predicate, in tid order."""
        return self._by_pred.get(pred, ())

    def probe(self, pred: str, positions: tuple[int, ...]) -> dict[object, list[Fact]]:
        """Facts of one predicate by their values at the given positions
        (the value itself for one position, their tuple for several), each
        bucket in tid order; built at the first call, then kept."""
        key = (pred, positions)
        buckets = self._probes.get(key)
        if buckets is None:
            buckets, key_of = {}, itemgetter(*positions)
            for f in self.relation(pred):
                buckets.setdefault(key_of(f.vals), []).append(f)
            self._probes[key] = buckets
        return buckets

    @_once
    def tids(self) -> frozenset[str]:
        return frozenset(self._by_tid)

    @_once
    def endogenous_part(self) -> frozenset[str]:
        return frozenset(f.tid for f in self.facts if f.endo)

    @_once
    def exogenous_part(self) -> frozenset[str]:
        return frozenset(f.tid for f in self.facts if not f.endo)

    @_once
    def domain(self) -> frozenset[str]:
        """Active domain: every constant occurring in some fact."""
        return frozenset(v for f in self.facts for v in f.vals)

    # -- derived instances -------------------------------------------------

    def restrict(self, keep: Iterable[str]) -> "Instance":
        """Subinstance with exactly the given tids; provenance preserved."""
        keep = set(keep)
        unknown = [tid for tid in keep if tid not in self._by_tid]
        if unknown:
            raise UnknownTupleId(f"unknown tids {sorted(unknown)!r}")
        # a subset of valid facts is valid, and sorted tids keep tid order
        return Instance._indexed(self.schema_items, self._arities,
                                 tuple(self._by_tid[tid] for tid in sorted(keep)))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": {p: a for p, a in self.schema_items},
            "tuples": [
                {"tid": f.tid, "pred": f.pred, "vals": list(f.vals), "endo": f.endo}
                for f in self.facts
            ],
        }


def _arity(pred: str, value) -> int:
    """A declared arity as an integer; a numeric string such as ``"2"``
    counts, a boolean or a number with a fraction does not."""
    try:
        arity = int(value)
    except (TypeError, ValueError, OverflowError):
        arity = None
    if arity is None or isinstance(value, bool) or not isinstance(value, str) and arity != value:
        raise InstanceFormatError(
            f"arity of predicate {pred!r} must be an integer, got {value!r}")
    return arity


def _facts_from_records(records: Iterable[dict]) -> list[Fact]:
    counters: dict[str, int] = {}
    facts = []
    for rec in records:
        if not isinstance(rec, dict):
            raise InstanceFormatError(f"tuple record must be an object, got {rec!r}")
        pred = rec.get("pred")
        if not isinstance(pred, str):
            raise InstanceFormatError(f"tuple record missing predicate name: {rec!r}")
        vals = rec.get("vals")
        if not isinstance(vals, list):
            raise InstanceFormatError(f"tuple record missing value list: {rec!r}")
        tid = rec.get("tid")
        if tid is None:
            counters[pred] = counters.get(pred, 0) + 1
            tid = f"{pred}_{counters[pred]}"
        elif not isinstance(tid, str):
            raise InstanceFormatError(f"tid must be a string: {tid!r}")
        endo = rec.get("endo", True)
        if not isinstance(endo, bool):
            raise InstanceFormatError(f"endo flag must be boolean: {endo!r}")
        facts.append(Fact(tid=tid, pred=pred, vals=tuple(vals), endo=endo))
    return facts


def load_instance(source: str | Path | dict) -> Instance:
    """Load an instance from a JSON document (path or parsed dict)."""
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text())
        except (OSError, ValueError) as exc:  # bad JSON or bad UTF-8
            raise InstanceFormatError(f"cannot read instance document: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict) or "schema" not in doc or "tuples" not in doc:
        raise InstanceFormatError("instance document needs 'schema' and 'tuples' keys")
    schema, records = doc["schema"], doc["tuples"]
    if not isinstance(schema, dict):
        raise InstanceFormatError("'schema' must map predicate names to arities")
    if not isinstance(records, Iterable):
        raise InstanceFormatError(f"'tuples' must be a list of tuple records, got {records!r}")
    return Instance.build(schema, _facts_from_records(records))


_TRUE = {"", "true", "1", "yes"}  # an empty flag means endogenous
_FALSE = {"false", "0", "no"}


def load_instance_csv(manifest: str | Path) -> Instance:
    """Load an instance from per-relation CSV files listed in a manifest."""
    manifest = Path(manifest)
    try:
        doc = json.loads(manifest.read_text())
    except (OSError, ValueError) as exc:  # bad JSON or bad UTF-8
        raise InstanceFormatError(f"cannot read manifest: {exc}") from exc
    if not isinstance(doc, dict) or "schema" not in doc or "relations" not in doc:
        raise InstanceFormatError("manifest needs 'schema' and 'relations' keys")
    schema = doc["schema"]
    if not isinstance(schema, dict) or not isinstance(doc["relations"], dict):
        raise InstanceFormatError("manifest 'schema' and 'relations' must be objects")
    records: list[dict] = []
    for pred, rel_path in sorted(doc["relations"].items()):
        if pred not in schema:
            raise InstanceFormatError(f"relation file for undeclared predicate {pred!r}")
        if not isinstance(rel_path, str):
            raise InstanceFormatError(f"relation file of {pred!r} must be a path: {rel_path!r}")
        arity = _arity(pred, schema[pred])
        path = manifest.parent / rel_path
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        except (OSError, ValueError, csv.Error) as exc:  # bad UTF-8, oversized field
            raise InstanceFormatError(f"cannot read relation file {path}: {exc}") from exc
        if not rows:
            raise InstanceFormatError(f"{path}: missing header row")
        expected = ["tid", "endo"] + [f"c{i + 1}" for i in range(arity)]
        if rows[0] != expected:
            raise InstanceFormatError(f"{path}: header must be {','.join(expected)}")
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != len(expected):
                raise InstanceFormatError(f"{path}:{lineno}: expected {len(expected)} fields")
            tid, endo_text = row[0], row[1].strip().lower()
            if endo_text in _TRUE:
                endo = True
            elif endo_text in _FALSE:
                endo = False
            else:
                raise InstanceFormatError(f"{path}:{lineno}: bad endo flag {row[1]!r}")
            records.append({
                "tid": tid if tid else None,
                "pred": pred,
                "vals": row[2:],
                "endo": endo,
            })
    return Instance.build(schema, _facts_from_records(records))
