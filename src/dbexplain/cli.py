"""Command-line front door.

Loads an instance and a query, dispatches to the library, and prints one
JSON report (or an aligned text table with --format=table) to stdout.
For identical inputs and flags the stdout bytes are identical; wall-clock
timing therefore goes to stderr.

Exit codes: 0 success, 1 semantic error (structured payload on stdout),
2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import fastpath, lineage, oracle, repairs
from .errors import ExplainError
from .explanations import DEFAULT_MAX_ENDO, frac_str
from .model import Instance, load_instance, load_instance_csv
from .query import (DEFAULT_MAX_PATHS, denial_constraint_of, enumerate_witnesses,
                    evaluate, parse_query)

__all__ = ["main", "run"]


def _load(path: str) -> Instance:
    """Accept either a JSON instance document or a CSV manifest."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return load_instance(path)  # surfaces a uniform InstanceFormatError
    if isinstance(doc, dict) and "relations" in doc:
        return load_instance_csv(path)
    return load_instance(doc)


def _digest(instance: Instance) -> str:
    doc = json.dumps(instance.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _sets(family) -> list[list[str]]:
    return [sorted(s.tuples if hasattr(s, "tuples") else s) for s in family]


def _non_negative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _max_endo(parser: argparse.ArgumentParser, flag: int | None) -> int:
    """--max-endo, else EXPLAIN_MAX_ENDO, else the default."""
    if flag is not None:
        return flag
    try:
        return _non_negative_int(
            os.environ.get("EXPLAIN_MAX_ENDO", str(DEFAULT_MAX_ENDO)))
    except argparse.ArgumentTypeError as exc:
        parser.error(f"EXPLAIN_MAX_ENDO: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="explain",
        description="sufficiency/necessity explanations for Boolean monotone "
                    "query answers over small relational instances")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-i", "--instance", required=True,
                        help="instance document (JSON, or a CSV manifest)")
    common.add_argument("-q", "--query", required=True,
                        help="query text, e.g. 'q :- S(x), R(x,y), S(y).'")
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--max-endo", type=_non_negative_int, default=None,
                        help="size bound on the endogenous part for the "
                             "oracle families, and on the deletable tuples "
                             "for repairs (default: EXPLAIN_MAX_ENDO or 20)")
    common.add_argument("--max-paths", type=int, default=DEFAULT_MAX_PATHS,
                        help="simple-path enumeration bound")

    sub.add_parser("eval", parents=[common], help="evaluate the query")
    sub.add_parser("witnesses", parents=[common],
                   help="subset-minimal witnesses")

    p_mss = sub.add_parser("mss", parents=[common],
                           help="minimal sufficient sets")
    how = p_mss.add_mutually_exclusive_group()
    how.add_argument("--oracle", action="store_true",
                     help="exhaustive enumeration (default)")
    how.add_argument("--chase", action="store_true",
                     help="single set via the core-based construction")
    p_mss.add_argument("--tuple", dest="tuple_id", metavar="TID",
                       help="restrict to sets containing TID / seed the chase")
    p_mss.add_argument("--min", action="store_true",
                       help="minimum-cardinality sets only")

    sub.add_parser("mns", parents=[common], help="minimal necessary sets")
    sub.add_parser("degrees", parents=[common],
                   help="necessity/sufficiency/responsibility degrees")
    sub.add_parser("causes", parents=[common],
                   help="actual causes with minimal contingency sets")

    p_rep = sub.add_parser("repairs", parents=[common],
                           help="subset-repairs w.r.t. the query's denial constraint")
    p_rep.add_argument("--cardinality", action="store_true",
                       help="cardinality repairs only")

    p_core = sub.add_parser("core", parents=[common], help="repair core")
    p_core.add_argument("--method", choices=("lemma1", "naive"), default="lemma1")

    p_lin = sub.add_parser("lineage", parents=[common],
                           help="monotone-DNF lineage")
    p_lin.add_argument("--eliminate-exogenous", action="store_true")

    sub.add_parser("check-duality", parents=[common],
                   help="verify the hitting-set duality of the two families")
    sub.add_parser("check-correspondence", parents=[common],
                   help="verify the cause/repair correspondence")
    return parser


def _dispatch(args, instance: Instance, query) -> dict:
    max_endo = args.max_endo
    cmd = args.command
    if cmd == "eval":
        return {"satisfied": evaluate(query, instance)}
    if cmd == "witnesses":
        wits = enumerate_witnesses(query, instance, max_paths=args.max_paths)
        return {"witnesses": [
            {"tuples": sorted(w.tuples),
             "assignment": dict(sorted(w.assignment.items())) if w.assignment else None}
            for w in wits]}
    if cmd == "mss":
        if args.chase:
            if args.min:
                res = fastpath.min_mss_sjf(instance, query, args.tuple_id)
                return {"mode": "chase-min",
                        "set": sorted(res.mss.tuples) if res.mss is not None else None,
                        "sigma": frac_str(res.sigma) if res.sigma is not None else None}
            if args.tuple_id is None:
                # the least tuple outside the core, i.e. in the union of W,
                # seeds the chase
                outside = instance.tids() - fastpath.core_fast(instance, query).tuples
                if not outside:
                    # W is empty (the query is false) or holds only the empty set
                    return {"mode": "chase", "sigma": None,
                            "set": [] if enumerate_witnesses(query, instance) else None}
                got = fastpath.chase_mss(instance, query, min(outside))
            else:
                got = fastpath.chase_mss(instance, query, args.tuple_id)
            return {"mode": "chase", "set": sorted(got.tuples), "sigma": None}
        family = oracle.enumerate_mss(instance, query, max_endo=max_endo,
                                      max_paths=args.max_paths)
        if args.tuple_id is not None:
            family = tuple(s for s in family if args.tuple_id in s)
        if args.min and family:
            least = min(len(s) for s in family)
            family = tuple(s for s in family if len(s) == least)
        return {"mode": "oracle", "sets": _sets(family)}
    if cmd == "mns":
        family = oracle.enumerate_mns(instance, query, max_endo=max_endo,
                                      max_paths=args.max_paths)
        return {"sets": _sets(family)}
    if cmd == "degrees":
        report = oracle.degrees(instance, query, max_endo=max_endo,
                                max_paths=args.max_paths)
        return {"degrees": report.to_dict()}
    if cmd == "causes":
        report = oracle.actual_causes(instance, query, max_endo=max_endo,
                                      max_paths=args.max_paths)
        return {"causes": report.to_dict()}
    if cmd == "repairs":
        dc = denial_constraint_of(query)
        if args.cardinality:
            reps = repairs.enumerate_c_repairs(instance, dc, max_deletable=max_endo)
        else:
            reps = repairs.enumerate_s_repairs(instance, dc, max_deletable=max_endo)
        return {"repairs": [
            {"removed": sorted(r.removed), "kept": sorted(r.kept),
             "cardinality_minimal": r.cardinality_minimal} for r in reps]}
    if cmd == "core":
        if args.method == "naive":
            res = repairs.core_naive(instance, denial_constraint_of(query),
                                     max_deletable=max_endo)
        else:
            res = fastpath.core_fast(instance, query)
        return {"core": sorted(res.tuples), "method": res.method}
    if cmd == "lineage":
        formula = lineage.lineage_of(instance, query)
        if args.eliminate_exogenous:
            formula = lineage.eliminate_exogenous(formula, instance)
        return formula.to_dict()
    if cmd == "check-duality":
        res = oracle.check_duality(instance, query, max_endo=max_endo,
                                   max_paths=args.max_paths)
        return {"holds": res.holds,
                "violations": [{"family": kind, "set": list(s), "reason": why}
                               for kind, s, why in res.violations]}
    if cmd == "check-correspondence":
        res = oracle.cause_repair_correspondence(
            instance, query, max_endo=max_endo, max_paths=args.max_paths)
        return {"holds": res.holds, "detail": res.detail}
    raise AssertionError(f"unhandled command {cmd!r}")


def _render_table(report: dict) -> str:
    """Aligned text rendering for human inspection."""
    result = report["result"]
    lines = [f"command: {report['command']}"]
    if "degrees" in result:
        rows = [("tid", "eta", "sigma", "rho", "strong_nec", "strong_suff")]
        for tid, d in result["degrees"].items():
            rows.append((tid, d["eta"], d["sigma"], d["rho"],
                         "yes" if d["strong_necessary"] else "no",
                         "yes" if d["strong_sufficient"] else "no"))
        widths = [max(len(str(r[c])) for r in rows) for c in range(len(rows[0]))]
        for r in rows:
            lines.append("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    elif "sets" in result:
        lines += [", ".join(s) if s else "(empty set)" for s in result["sets"]] or ["(none)"]
    elif "repairs" in result:
        for r in result["repairs"]:
            star = "*" if r["cardinality_minimal"] else " "
            lines.append(f"{star} remove: {', '.join(r['removed']) or '(nothing)'}")
    elif "core" in result:
        lines.append(f"core ({result['method']}): {', '.join(result['core']) or '(empty)'}")
    elif "clauses" in result:
        lines += [" & ".join(c) if c else "(true)" for c in result["clauses"]] or ["(false)"]
    elif "witnesses" in result:
        lines += [", ".join(w["tuples"]) for w in result["witnesses"]] or ["(none)"]
    elif "causes" in result:
        for tid, gammas in result["causes"].items():
            alts = "; ".join("{" + ", ".join(g) + "}" for g in gammas)
            lines.append(f"{tid}: {alts}")
    elif "set" in result:
        if result["set"] is None:
            lines.append("(none)")
        else:
            lines.append(", ".join(result["set"]) or "(empty set)")
        if result.get("sigma") is not None:
            lines.append(f"sigma: {result['sigma']}")
    elif "satisfied" in result:
        lines.append(f"satisfied: {'yes' if result['satisfied'] else 'no'}")
    elif "holds" in result:
        lines.append(f"holds: {'yes' if result['holds'] else 'no'}")
    else:
        lines.append(json.dumps(result, sort_keys=True))
    return "\n".join(lines)


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.max_endo = _max_endo(parser, args.max_endo)
    started = time.perf_counter()
    try:
        instance = _load(args.instance)
        query = parse_query(args.query, instance)
        result = _dispatch(args, instance, query)
    except ExplainError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload, sort_keys=True))
        return 1
    report = {
        "command": args.command,
        "inputs": {
            "instance_sha256": _digest(instance),
            "instance_tuples": len(instance),
            "query": args.query,
        },
        "result": result,
    }
    if args.format == "table":
        print(_render_table(report))
    else:
        print(json.dumps(report, sort_keys=True))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"explain: {args.command} completed in {elapsed_ms:.1f} ms", file=sys.stderr)
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
