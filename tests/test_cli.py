from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import dbexplain.query
import dbexplain.repairs
from dbexplain.cli import _load, run
from dbexplain.synth import SCALING_QUERY_TEXT, scaling_instance

from conftest import DATA, Q_RT, Q_SRS, QUERIES, data_path, ladder

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src/dbexplain/schemas/report.schema.json")
    .read_text())
VALIDATOR = Draft202012Validator(SCHEMA)


def invoke(capsys, *argv: str) -> tuple[int, dict, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip().startswith("{") else None
    if doc is not None:
        VALIDATOR.validate(doc)
    return code, doc, captured.out


def test_eval_command(capsys):
    code, doc, _ = invoke(capsys, "eval", "-i", str(data_path("srs_prime.json")),
                          "-q", Q_SRS)
    assert code == 0 and doc["result"]["satisfied"] is True


def test_eval_false_on_empty_instance(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"schema": {"R": 2, "S": 1, "T": 1}, "tuples": []}))
    code, doc, _ = invoke(capsys, "eval", "-i", str(empty), "-q", Q_RT)
    assert code == 0 and doc["result"]["satisfied"] is False


def test_long_chain_query_exits_zero(capsys, tmp_path):
    """A query with more atoms than the interpreter's recursion limit."""
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"schema": {"R": 2}, "tuples": [
        {"tid": "r1", "pred": "R", "vals": ["a", "a"]}]}))
    chain = "q :- " + ", ".join(f"R(x{i},x{i + 1})" for i in range(1200)) + "."
    code, doc, _ = invoke(capsys, "eval", "-i", str(one), "-q", chain)
    assert code == 0 and doc["result"]["satisfied"] is True
    code, doc, _ = invoke(capsys, "witnesses", "-i", str(one), "-q", chain)
    assert code == 0 and len(doc["result"]["witnesses"]) == 1


def test_degrees_command(capsys):
    code, doc, _ = invoke(capsys, "degrees", "-i", str(data_path("rt_small.json")),
                          "-q", Q_RT)
    assert code == 0
    assert doc["result"]["degrees"]["T:a3"]["eta"] == "1"
    assert doc["result"]["degrees"]["R:a1,a3"]["sigma"] == "1/2"


def test_core_methods_agree(capsys):
    code, lemma, _ = invoke(capsys, "core", "-i", str(data_path("srs_prime.json")),
                            "-q", Q_SRS, "--method=lemma1")
    assert code == 0
    assert lemma["result"]["core"] == ["R:a,d", "R:e,f", "S:a"]
    code, naive, _ = invoke(capsys, "core", "-i", str(data_path("srs_prime.json")),
                            "-q", Q_SRS, "--method=naive")
    assert code == 0
    assert naive["result"]["core"] == lemma["result"]["core"]
    assert naive["result"]["method"] == "naive-intersection"


def test_witnesses_command(capsys):
    code, doc, _ = invoke(capsys, "witnesses",
                          "-i", str(data_path("g_routes.json")),
                          "-q", "q :- path(E, a, b).")
    assert code == 0
    assert [w["tuples"] for w in doc["result"]["witnesses"]] == [
        ["t1"], ["t2", "t3"], ["t4", "t5", "t6"]]


def test_mss_oracle_with_filters(capsys):
    base = ["mss", "-i", str(data_path("srs_prime.json")), "-q", Q_SRS]
    code, doc, _ = invoke(capsys, *base)
    assert doc["result"]["sets"] == [["R:b,b", "S:b"], ["R:c,b", "S:b", "S:c"]]
    code, doc, _ = invoke(capsys, *base, "--min")
    assert doc["result"]["sets"] == [["R:b,b", "S:b"]]
    code, doc, _ = invoke(capsys, *base, "--tuple", "S:c")
    assert doc["result"]["sets"] == [["R:c,b", "S:b", "S:c"]]


def test_mss_chase_modes(capsys):
    base = ["mss", "-i", str(data_path("srs_prime.json")), "-q", Q_SRS, "--chase"]
    code, doc, _ = invoke(capsys, *base, "--tuple", "S:b")
    assert code == 0 and doc["result"]["set"] == ["R:b,b", "S:b"]
    code, doc, _ = invoke(capsys, "mss", "-i", str(data_path("rt_small.json")),
                          "-q", Q_RT, "--chase", "--min", "--tuple", "R:a3,a3")
    assert code == 0
    assert doc["result"]["set"] == ["R:a3,a3", "T:a3"]
    assert doc["result"]["sigma"] == "1/2"


def test_mss_chase_enumerates_the_instance_once(capsys, monkeypatch):
    """Seeding the chase outside the core reads the same witness index as
    the chase itself, which reads its answer off that index."""
    import dbexplain.cli
    import dbexplain.query

    loaded, seen = [], []
    load, bindings = dbexplain.cli._load, dbexplain.query._bindings
    monkeypatch.setattr(dbexplain.cli, "_load",
                        lambda path: loaded.append(load(path)) or loaded[-1])
    monkeypatch.setattr(dbexplain.query, "_bindings",
                        lambda query, instance: seen.append(instance)
                        or bindings(query, instance))
    base = ["mss", "-i", str(data_path("srs_prime.json")), "-q", Q_SRS, "--chase"]
    for tail in ([], ["--tuple", "S:b"]):
        loaded.clear()
        seen.clear()
        code, doc, _ = invoke(capsys, *base, *tail)
        assert code == 0 and doc["result"]["set"] == ["R:b,b", "S:b"]
        assert sum(i is loaded[0] for i in seen) == 1, tail


def _exogenous_witness(tmp_path) -> str:
    """S(a)*, T(a)*, U(b): the exogenous S(a), T(a) alone satisfy
    S(x), T(x), so the query's only minimal sufficient set is the empty set."""
    path = tmp_path / "exo.json"
    path.write_text(json.dumps({"schema": {"S": 1, "T": 1, "U": 1}, "tuples": [
        {"tid": "s", "pred": "S", "vals": ["a"], "endo": False},
        {"tid": "t", "pred": "T", "vals": ["a"], "endo": False},
        {"tid": "u", "pred": "U", "vals": ["b"]}]}))
    return str(path)


def test_mss_chase_min_prints_the_empty_set(capsys, tmp_path):
    """The minimum minimal sufficient set is empty: it prints as [], not
    as null."""
    base = ["mss", "-i", _exogenous_witness(tmp_path), "-q", "q :- S(x), T(x).",
            "--chase", "--min"]
    code, doc, _ = invoke(capsys, *base)
    assert code == 0
    assert doc["result"] == {"mode": "chase-min", "set": [], "sigma": None}
    code, _, out = invoke(capsys, *base, "--format=table")
    assert code == 0 and "(empty set)" in out.splitlines()


def test_mss_chase_prints_the_empty_set(capsys, tmp_path):
    """Without a seed, the chase answers the empty set when it is the only
    minimal sufficient set, as ``mss`` and ``mss --chase --min`` do; a
    false query still has no set."""
    path = _exogenous_witness(tmp_path)
    code, doc, _ = invoke(capsys, "mss", "-i", path, "-q", "q :- S(x), T(x).", "--chase")
    assert code == 0
    assert doc["result"] == {"mode": "chase", "set": [], "sigma": None}
    code, _, out = invoke(capsys, "mss", "-i", path, "-q", "q :- S(x), T(x).",
                          "--chase", "--format=table")
    assert code == 0 and out.splitlines()[1:] == ["(empty set)"]
    code, doc, _ = invoke(capsys, "mss", "-i", path, "-q", "q :- S(x), U(x).", "--chase")
    assert code == 0
    assert doc["result"] == {"mode": "chase", "set": None, "sigma": None}


def test_mns_command(capsys):
    code, doc, _ = invoke(capsys, "mns", "-i", str(data_path("rt_small.json")),
                          "-q", Q_RT)
    assert doc["result"]["sets"] == [["R:a1,a3", "R:a3,a3"], ["T:a3"]]


def test_causes_command(capsys):
    code, doc, _ = invoke(capsys, "causes", "-i", str(data_path("rt_small.json")),
                          "-q", Q_RT)
    assert doc["result"]["causes"]["T:a3"] == [[]]


def test_repairs_command(capsys):
    code, doc, _ = invoke(capsys, "repairs", "-i", str(data_path("srs_prime.json")),
                          "-q", Q_SRS)
    assert [r["removed"] for r in doc["result"]["repairs"]] == [
        ["S:b"], ["R:b,b", "R:c,b"], ["R:b,b", "S:c"]]
    code, doc, _ = invoke(capsys, "repairs", "-i", str(data_path("srs_prime.json")),
                          "-q", Q_SRS, "--cardinality")
    assert [r["removed"] for r in doc["result"]["repairs"]] == [["S:b"]]


def test_lineage_command(capsys):
    code, doc, _ = invoke(capsys, "lineage",
                          "-i", str(data_path("srs_prime_exoR.json")), "-q", Q_SRS)
    assert doc["result"]["clauses"] == [["R:b,b", "S:b"], ["R:c,b", "S:b", "S:c"]]
    code, doc, _ = invoke(capsys, "lineage",
                          "-i", str(data_path("srs_prime_exoR.json")), "-q", Q_SRS,
                          "--eliminate-exogenous")
    assert doc["result"]["clauses"] == [["S:b"]]


def test_check_commands(capsys):
    code, doc, _ = invoke(capsys, "check-duality",
                          "-i", str(data_path("rt_small.json")), "-q", Q_RT)
    assert code == 0 and doc["result"]["holds"] is True
    code, doc, _ = invoke(capsys, "check-correspondence",
                          "-i", str(data_path("srs_prime.json")), "-q", Q_SRS)
    assert code == 0 and doc["result"]["holds"] is True


def test_csv_manifest_input(capsys):
    code, doc, _ = invoke(capsys, "degrees",
                          "-i", str(data_path("rt_small_csv/manifest.json")),
                          "-q", Q_RT)
    assert code == 0 and doc["result"]["degrees"]["T:a3"]["eta"] == "1"


def test_semantic_error_exit_code(capsys):
    code, doc, _ = invoke(capsys, "mss", "-i", str(data_path("rt_small.json")),
                          "-q", "q :- R(x,y), T('zz').")
    assert code == 1
    assert doc["error"]["type"] == "QueryNotSatisfied"


def test_fastpath_refusal_is_semantic_error(capsys):
    code, doc, _ = invoke(capsys, "core", "-i", str(data_path("g_routes.json")),
                          "-q", "q :- path(E, a, b).")
    assert code == 1 and doc["error"]["type"] == "UnsupportedQuery"


def test_mss_has_no_oracle_flag(capsys):
    """The oracle is what ``mss`` runs without ``--chase``; there is no
    flag to ask for it."""
    with pytest.raises(SystemExit) as exc:
        run(["mss", "-i", str(data_path("srs_prime.json")), "-q", Q_SRS, "--oracle"])
    assert exc.value.code == 2
    assert "--oracle" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["mss"])  # missing -i/-q
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate", "-i", "x", "-q", "y"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["mss", "-i", str(data_path("srs_prime.json")), "-q", Q_SRS,
             "--jobs", "2"])
    assert exc.value.code == 2
    # the endogenous part and the path walk have fixed caps, so no flags
    for flag in (f"--max-{bound}" for bound in ("endo", "paths")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(["mss", "-i", str(data_path("srs_prime.json")), "-q", Q_SRS, flag, "5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_mss_tuple_rejects_an_unknown_tid(capsys):
    """Every form of ``mss --tuple`` refuses a tid the instance lacks."""
    base = ["mss", "-i", str(data_path("srs_prime.json")), "-q", Q_SRS,
            "--tuple", "S:zz"]
    for tail in ([], ["--min"], ["--chase"], ["--chase", "--min"]):
        code, doc, _ = invoke(capsys, *base, *tail)
        assert code == 1 and doc["error"]["type"] == "UnknownTupleId", tail


def test_transversal_cap_is_a_semantic_error(capsys, tmp_path, monkeypatch):
    """A listing whose answer or work passes a cap exits 1 with a payload
    naming the count, and stdout stays one JSON document: at n = 105 the
    MNS joined from the listed transversals would hold too many tuples,
    and at n = 111, under a test cap lowered to 1,000,000, the search
    itself is refused."""
    for n, cap, message in (
            (105, 10_000_000, "403,137 unions of per-component minimal hitting sets "
                              "would hold 6,060,015 tuples, past 2,000,000"),
            (111, 1_000_000, "1,000,009 intersection and subset tests and 204,799 tuples "
                             "held, in a search for minimal hitting sets among 20 members, "
                             "pass the caps 1,000,000 and 2,000,000")):
        path = tmp_path / f"scaling{n}.json"
        path.write_text(json.dumps(scaling_instance(n).to_dict()))
        monkeypatch.setattr(dbexplain.repairs, "MAX_TRANSVERSAL_TESTS", cap)
        code, doc, out = invoke(capsys, "mns", "-i", str(path), "-q", SCALING_QUERY_TEXT)
        assert code == 1 and out.splitlines() == [json.dumps(doc, sort_keys=True)]
        assert doc["error"] == {"type": "OracleBoundExceeded", "message": message}, n


def test_join_cap_is_a_semantic_error(capsys, tmp_path, monkeypatch):
    """A join whose bindings pass the tuple cap exits 1 with a payload
    naming them; eval reads one binding and answers."""
    path = tmp_path / "cross.json"
    path.write_text(json.dumps({"schema": {"R": 1, "S": 1, "T": 1}, "tuples": [
        {"tid": f"{p}:{i}", "pred": p, "vals": [f"c{i}"]} for p in "RST" for i in range(10)]}))
    monkeypatch.setattr(dbexplain.query, "MAX_HELD_TUPLES", 2_999)
    argv = ["-i", str(path), "-q", "q :- R(x), S(y), T(z)."]
    code, doc, out = invoke(capsys, "witnesses", *argv)
    assert code == 1 and out.splitlines() == [json.dumps(doc, sort_keys=True)]
    assert doc["error"] == {"type": "BoundExceeded", "message": "the join's 1,000 bindings "
                            "of 3 atoms hold 3,000 tuples, past the cap 2,999"}
    code, doc, _ = invoke(capsys, "eval", *argv)
    assert code == 0 and doc["result"]["satisfied"] is True


def test_path_walk_cap_is_a_semantic_error(capsys, tmp_path, monkeypatch):
    """A path walk that enters more nodes than its cap exits 1 with a
    payload naming the count, though the query has one simple path."""
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(ladder(10).to_dict()))
    argv = ["witnesses", "-i", str(path), "-q", "q :- path(E, s, t)."]
    code, doc, _ = invoke(capsys, *argv)
    assert code == 0 and [w["tuples"] for w in doc["result"]["witnesses"]] == \
        [["e000", "e001"]]
    monkeypatch.setattr(dbexplain.query, "MAX_PATH_STEPS", 2046)
    code, doc, out = invoke(capsys, *argv)
    assert code == 1 and out.splitlines() == [json.dumps(doc, sort_keys=True)]
    assert doc["error"] == {"type": "PathBoundExceeded", "message":
                            "the simple-path walk entered 2,047 nodes, past the cap 2,046"}


def test_unreadable_instance_files_are_format_errors(capsys, tmp_path):
    """A document that is not UTF-8, and a relation file with a field past
    the CSV reader's limit, exit 1 with a payload."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    (tmp_path / "R.csv").write_text("tid,endo,c1\nr1,true," + "a" * 200_000 + "\n")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"schema": {"R": 1}, "relations": {"R": "R.csv"}}))
    for path in (bad, manifest):
        code, doc, _ = invoke(capsys, "eval", "-i", str(path), "-q", "q :- R(x).")
        assert code == 1 and doc["error"]["type"] == "InstanceFormatError", path


DIGESTS = DATA / "cli_digests.json"


def _variants(tids: list[str]) -> list[list[str]]:
    """Every subcommand and flag variant, the --tuple ones once per tid."""
    plain = [["eval"], ["witnesses"], ["mss"], ["mss", "--min"], ["mss", "--chase"],
             ["mss", "--chase", "--min"], ["mns"], ["degrees"], ["causes"], ["repairs"],
             ["repairs", "--cardinality"], ["core"], ["core", "--method=naive"], ["lineage"],
             ["lineage", "--eliminate-exogenous"], ["check-duality"], ["check-correspondence"]]
    seeded = [["mss", "--tuple"], ["mss", "--min", "--tuple"], ["mss", "--chase", "--tuple"],
              ["mss", "--chase", "--min", "--tuple"]]
    return plain + [[*argv, tid] for argv in seeded for tid in tids]


def _cli_digests() -> dict[str, list]:
    """Each run's exit code and stdout sha256, keyed by instance and argv,
    over every instance in tests/data under its query, in both formats."""
    out: dict[str, list] = {}
    for name, query in QUERIES.items():
        path = str(data_path(name))
        for argv in _variants(sorted(_load(path).tids())):
            for fmt in ("json", "table"):
                stdout = io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                    code = run([*argv, "-i", path, "-q", query, f"--format={fmt}"])
                digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
                out[" ".join([name, *argv, f"--format={fmt}"])] = [code, digest]
    return out


def test_byte_identical_reports():
    """CLI stdout and exit codes equal the pinned ones; a change that means
    to change them rewrites the file with ``PYTHONPATH=src python
    tests/test_cli.py``."""
    instances = {p.name if p.is_file() else f"{p.name}/manifest.json"
                 for p in DATA.iterdir() if p != DIGESTS}
    assert instances == set(QUERIES)
    pinned, got = json.loads(DIGESTS.read_text()), _cli_digests()
    assert [key for key in pinned.keys() | got.keys() if pinned.get(key) != got.get(key)] == []


def test_table_format(capsys):
    code, _, out = invoke(capsys, "degrees", "-i", str(data_path("rt_small.json")),
                          "-q", Q_RT, "--format=table")
    assert code == 0
    assert "tid" in out and "T:a3" in out
    code, _, out = invoke(capsys, "core", "-i", str(data_path("srs_prime.json")),
                          "-q", Q_SRS, "--format=table")
    assert "core (lemma1):" in out


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_cli_digests(), indent=1, sort_keys=True) + "\n")
