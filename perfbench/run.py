#!/usr/bin/env python3
"""dbexplain benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload desk-oracle --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One client sends requests in a closed loop (the next request
starts when the previous one returns) in this single process, passing
over the workload's request list at least three times and until
``--seconds`` have elapsed (the pass in progress is finished).  Each pass
sends fresh inputs, renamed so that no two passes send equal ones
(``workloads.Case``); they are built outside the timed region.  Every
answer is checked against the definitions (see ``workloads.py``) outside
the timed region.

Timings are reported at a reference machine speed.  On a shared host the
speed at which this process runs Python drifts by up to a factor of two
over tens of seconds, so between requests the benchmark times a fixed
interpreter-bound loop (``calibrate``).  Each request's latency is
divided by the loop time measured next to it and multiplied by
``CAL_REF_MS``, the loop time at the reference speed.  Raw wall-clock
figures are kept in the result file.

``--trace 0`` reports the end-to-end metrics over every request sent:
throughput (requests per second of busy time), median latency and the
tail, i.e. the highest percentile of 99.9, 99, 97.5, 95, 90, 75 and 50
with at least ten requests beyond it in the three passes every run makes;
then set-up time (median over
three fresh processes, the building of the checks' references left out)
and peak resident memory.  ``--trace 1`` spends half the time untraced
and half with the library wrapped by ``tracing.Tracer``, and reports
per-layer self times, counts and lines of source per module.
``--smoke`` shrinks the inputs and makes one pass, with all checks on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every pass is
checked, and ``correct`` is false if any answer fails outside the known
defect classes; ``attempted`` and ``failed`` count the requests of the
first three passes (the one pass in smoke mode), which every run makes,
so the same seed gives the same counts on any machine.  The full result,
with the machine, the Python version and the kernel backend, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

WORKLOADS = ("desk-oracle", "scale-fastpath", "wide-transversal")
SETUP_SAMPLES = 3
MIN_PASSES = 3
TAIL_PERCENTILES = (99.9, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)
CAL_LOOPS = 2000
CAL_REF_MS = 0.30
WARM_TAG = "w_"

END_TO_END_UNITS = {
    "throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}

# Hand-written source files per module; the generated C kernel is
# counted on its own.
LOC_MODULES = {
    "init": ["__init__.py"], "main": ["__main__.py"], "cli": ["cli.py"],
    "errors": ["errors.py"], "explanations": ["explanations.py"],
    "fastpath": ["fastpath.py"], "lineage": ["lineage.py"], "model": ["model.py"],
    "oracle": ["oracle.py"], "query": ["query.py"], "repairs": ["repairs.py"],
    "synth": ["synth.py"], "kernels": ["kernels/*.py", "kernels/*.pyx"],
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, one pass, all checks on")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the set-up time and exit")
    return ap.parse_args(argv)


def import_library():
    if not (SRC / "dbexplain" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {SRC}/dbexplain; "
                         "run from the root of a dbexplain checkout")
    sys.path.insert(0, str(SRC))
    import dbexplain

    if Path(dbexplain.__file__).resolve().parent != (SRC / "dbexplain").resolve():
        raise SystemExit(f"perfbench: imported dbexplain from {dbexplain.__file__}, "
                         f"not from {SRC}")
    return dbexplain


def calibrate() -> float:
    """Seconds for a fixed loop of integer and dict work: how fast the
    machine runs Python at this moment.  The loop allocates no object the
    garbage collector tracks, so it never pays for a collection of the
    garbage the library left behind."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CAL_LOOPS):
        key = i * 7919 % 1021
        table[key] = table.get(key, 0) + (i ^ key)
    return time.perf_counter() - start


def to_reference(seconds: float, loop_seconds: float) -> float:
    return seconds * CAL_REF_MS * 1e-3 / loop_seconds


# ---------------------------------------------------------------------------
# running requests

def execute(request, inputs, tracer=None, rid: int = -1):
    """One timed call; exceptions are part of the answer."""
    if tracer is not None:
        tracer.begin(rid)
    start = time.perf_counter()
    try:
        out, err = request.call(inputs), None
    except Exception as exc:  # the check decides whether the type is documented
        out, err = None, exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end()
    return elapsed, out, err


class Judge:
    """Checks answers, remembering verdicts for answers already judged."""

    def __init__(self, known_defects):
        self.known = set(known_defects)
        self.cache: dict[tuple[int, bytes], tuple[str, str | None]] = {}
        self.seconds = 0.0

    def __call__(self, idx, request, out, err):
        start = time.perf_counter()
        shown = f"{type(err).__name__}:{err}" if err is not None else repr(out)
        key = (idx, hashlib.blake2b(shown.encode(), digest_size=16).digest())
        verdict = self.cache.get(key)
        if verdict is None:
            try:
                verdict = request.check(out, err)
            except Exception as exc:  # a malformed answer the check could not read
                verdict = ("failed", f"unreadable-answer:{type(exc).__name__}")
            self.cache[key] = verdict
        self.seconds += time.perf_counter() - start
        return verdict


class Tally:
    """Per request, its raw latencies and its latencies at reference speed,
    one per pass; per pass, the verdicts."""

    def __init__(self, size: int):
        self.raw: list[list[float]] = [[] for _ in range(size)]
        self.scaled: list[list[float]] = [[] for _ in range(size)]
        self.loops: list[float] = []
        self.status: list[Counter] = []
        self.failures: list[dict[str, Counter]] = []

    @property
    def passes(self) -> int:
        return len(self.status)

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.raw)

    def new_pass(self) -> None:
        self.status.append(Counter())
        self.failures.append(defaultdict(Counter))

    def outcomes(self, passes: int | None = None) -> tuple[Counter, dict[str, Counter]]:
        """Verdict counts and failures (class -> where -> count) over the
        first ``passes`` passes, or over all of them."""
        status, failures = Counter(), defaultdict(Counter)
        for counts, failed in zip(self.status[:passes], self.failures[:passes]):
            status.update(counts)
            for cls, where in failed.items():
                failures[cls].update(where)
        return status, failures

    def latencies(self) -> list[float]:
        """Every latency at reference speed, in seconds."""
        return [x for s in self.scaled for x in s]

    def raw_latencies(self) -> list[float]:
        return [x for s in self.raw for x in s]

    def add(self, idx, request, seconds, loop_seconds, verdict):
        self.raw[idx].append(seconds)
        self.scaled[idx].append(to_reference(seconds, loop_seconds))
        self.loops.append(loop_seconds)
        status, cls = verdict
        self.status[-1][status] += 1
        if status == "failed":
            self.failures[-1][cls][f"{request.kind} | {request.input_class}"] += 1


def run_passes(workload, judge, seconds, smoke, workdir: Path, label: str,
               tracer=None):
    """Closed loop over the request list until the time is spent, each
    pass on inputs tagged ``<label><pass>_``.  The calibration loop runs
    between requests; a request is scaled by the mean of the two loop
    times around it."""
    tally = Tally(len(workload))
    gc.collect()
    deadline = time.perf_counter() + seconds
    rid = 0
    before = calibrate()
    while True:
        tag = f"{label}{tally.passes}_"
        tally.new_pass()
        for idx, request in enumerate(workload):
            inputs = request.case.get(tag)
            elapsed, out, err = execute(request, inputs, tracer, rid)
            after = calibrate()
            rid += 1
            tally.add(idx, request, elapsed, (before + after) / 2,
                      judge(idx, request, out, err))
            before = after
            del out, err, inputs
        shutil.rmtree(workdir / tag, ignore_errors=True)
        if smoke or (tally.passes >= MIN_PASSES and time.perf_counter() >= deadline):
            return tally


def warm_up(workload, judge) -> float:
    """Call the first request of each kind once, on inputs of their own;
    returns the call time."""
    seen, spent = set(), 0.0
    for idx, request in enumerate(workload):
        if request.kind in seen:
            continue
        seen.add(request.kind)
        elapsed, out, err = execute(request, request.case.get(WARM_TAG))
        spent += elapsed
        judge(idx, request, out, err)
    return spent


def set_up(args, workdir: Path):
    """Import, build the inputs, write the warm-up's instance files, warm
    up.  Returns the workload, the judge and the set-up time at reference
    speed; building the checks' references and checking are left out."""
    loops = [calibrate() for _ in range(3)]
    start = time.perf_counter()
    import_library()
    import workloads

    workdir.mkdir(parents=True)
    refs = workloads.Stopwatch()
    workload = workloads.WORKLOAD_REQUESTS[args.workload](
        args.seed, workdir, refs, args.smoke)
    for case in {id(r.case): r.case for r in workload}.values():
        case.get(WARM_TAG)
    built = time.perf_counter() - start - refs.seconds
    judge = Judge(workloads.KNOWN_DEFECTS)
    warm = warm_up(workload, judge)
    loops += [calibrate() for _ in range(3)]
    return workload, judge, to_reference(built + warm, statistics.median(loops))


def setup_probe_seconds(args) -> list[float]:
    """Set-up times of fresh interpreter processes."""
    out = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# ---------------------------------------------------------------------------
# metrics

def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest listed percentile with at least ten of n samples beyond."""
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def latency_metrics(lat: list[float], tail_pct: float) -> dict:
    tail = percentile(lat, tail_pct)
    return {"throughput_rps": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "latency_tail_pct": tail_pct,
            "latency_tail_beyond": sum(1 for x in lat if x > tail)}


def end_to_end(tally: Tally, setup_samples: list[float],
               smoke: bool) -> tuple[dict, dict]:
    """The tail percentile is chosen for the fewest samples a run can have,
    so that it does not change with the number of passes."""
    tail_pct = tail_percentile(len(tally.raw) * (1 if smoke else MIN_PASSES))
    scaled = latency_metrics(tally.latencies(), tail_pct)
    metrics = {
        "throughput_rps": scaled["throughput_rps"],
        "latency_p50_ms": scaled["latency_p50_ms"],
        "latency_tail_ms": scaled["latency_tail_ms"],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"latency_tail_pct": scaled["latency_tail_pct"],
              "latency_tail_beyond": scaled["latency_tail_beyond"],
              "requests": tally.attempted, "passes": tally.passes,
              "raw_wall_clock": latency_metrics(tally.raw_latencies(), tail_pct),
              "calibration_loop_ms": {"reference": CAL_REF_MS,
                                      "median": statistics.median(tally.loops) * 1e3},
              "setup_samples_s": setup_samples}
    return metrics, detail


def lines_of_source() -> dict[str, int]:
    pkg = SRC / "dbexplain"
    out = {}
    for name, patterns in LOC_MODULES.items():
        files = [p for pat in patterns for p in pkg.glob(pat)]
        out[f"{name}.loc"] = sum(_count_lines(p) for p in files)
    hand = [p for p in pkg.rglob("*") if p.suffix in (".py", ".pyx")]
    out["src.loc"] = sum(_count_lines(p) for p in hand)
    out["kernels.generated_c.loc"] = sum(_count_lines(p) for p in pkg.glob("kernels/*.c"))
    return out


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def kind_medians(workload, tally: Tally) -> dict[str, float]:
    """Median latency at reference speed per request kind, in ms."""
    by_kind = defaultdict(list)
    for request, latencies in zip(workload, tally.scaled):
        by_kind[request.kind] += latencies
    return {k: statistics.median(v) * 1e3 for k, v in sorted(by_kind.items())}


def machine_info() -> dict:
    import dbexplain

    return {"platform": platform.platform(), "machine": platform.machine(),
            "processor": platform.processor(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "backend": dbexplain.backend_name(),
            "available_backends": list(dbexplain.available_backends())}


def units_of(per_layer: dict) -> dict:
    units = {}
    for name in per_layer:
        if name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith(".loc"):
            units[name] = "lines"
        elif name.endswith(("_share", "_ratio")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


# ---------------------------------------------------------------------------

def traced_run(args, workload, judge, workdir: Path):
    """Half the time untraced, half traced; per-layer times are scaled to
    reference speed by the traced half's median calibration loop."""
    from tracing import Tracer, per_layer_metrics, summarize

    half = args.seconds / 2
    plain = run_passes(workload, judge, half, args.smoke, workdir, "u")
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(workload, judge, half, args.smoke, workdir, "t",
                            tracer=tracer)
    finally:
        tracer.uninstall()
    mean = statistics.fmean
    overhead = mean(traced.latencies()) / mean(plain.latencies()) - 1.0
    summary = summarize(tracer.spans)
    metrics, gaps = per_layer_metrics(summary, overhead, args.workload)
    scale = to_reference(1.0, statistics.median(traced.loops))
    for name in metrics:
        if name.endswith("_ms"):
            metrics[name] *= scale
    metrics.update(lines_of_source())
    return plain, traced, metrics, gaps, summary, tracer.spans


def write_spans(path: Path, spans) -> None:
    with gzip.open(path, "wt") as fh:
        fh.write("name,start,end,parent,request\n")
        for name, start, end, parent, request, _ in spans:
            fh.write(f"{name},{start:.9f},{end:.9f},{parent},{request}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, judge, setup_s = set_up(args, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
                  "machine": machine_info(), "requests_per_pass": len(workload)}
        if args.trace:
            plain, tally, metrics, gaps, summary, spans = traced_run(
                args, workload, judge, workdir)
            checked = [plain, tally]
            result.update(untraced_passes=plain.passes, traced_passes=tally.passes,
                          coverage_gaps=gaps, layer_spans=summary["layer_spans"],
                          layer_self_ms_raw={k: v * 1e3 for k, v in
                                             summary["layer_self_s"].items()})
        else:
            tally = run_passes(workload, judge, args.seconds, args.smoke, workdir, "p")
            metrics, detail = end_to_end(tally, [setup_s] + setup_probe_seconds(args),
                                         args.smoke)
            result.update(detail)
            gaps, spans, checked = [], None, [tally]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every pass is checked, but attempted and failed count the passes that
    # every run makes, so that they do not change with the machine's speed.
    counted = 1 if args.smoke else MIN_PASSES
    status, failures = tally.outcomes(counted)
    attempted = sum(status.values())
    failed = status["failed"]
    unknown = sorted({cls for t in checked for cls in t.outcomes()[1]
                      if cls not in judge.known})
    correct = not unknown
    status_all, failures_all = tally.outcomes()
    result.update(
        attempted=attempted, counted_passes=counted, status=dict(status),
        failed_share=failed / attempted,
        failures={cls: dict(where) for cls, where in failures.items()},
        status_all_passes=dict(status_all),
        failures_all_passes={cls: dict(w) for cls, w in failures_all.items()},
        known_defects=sorted(judge.known), unknown_failures=unknown,
        check_seconds=judge.seconds,
        kind_median_ms=kind_medians(workload, tally),
        metrics=metrics)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    if spans is not None:
        write_spans(RESULTS / f"{stem}-spans.csv.gz", spans)

    units = END_TO_END_UNITS if not args.trace else units_of(metrics)
    print(f"workload {args.workload}  seed {args.seed}  backend "
          f"{result['machine']['backend']}  python {result['machine']['python']}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if args.trace:
        share = metrics["trace.self_sum_share"]
        print(f"  layer self times cover {share:.4f} of the traced request time; "
              f"tracing overhead share {metrics['trace.overhead_share']:.4f}")
    else:
        raw = result["raw_wall_clock"]
        print(f"  {'latency_tail':34s} p{result['latency_tail_pct']:g} with "
              f"{result['latency_tail_beyond']} of {result['requests']} requests beyond "
              f"({result['passes']} passes)")
        print(f"  {'raw wall clock':34s} {raw['throughput_rps']:.6g} 1/s, p50 "
              f"{raw['latency_p50_ms']:.6g} ms, tail {raw['latency_tail_ms']:.6g} ms; "
              f"calibration loop {result['calibration_loop_ms']['median']:.4f} ms "
              f"(reference {CAL_REF_MS} ms)")
    print(f"  {'failed_share':34s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} in the first {counted} passes; {dict(status)})")
    for cls, where in sorted(failures.items()):
        tag = "known defect" if cls in judge.known else "UNEXPECTED"
        print(f"    {cls} [{tag}]: {sum(where.values())}")
        for place, n in sorted(where.items()):
            print(f"      {n:5d}  {place}")
    for layer in gaps:
        print(f"  trace coverage: no spans in layer '{layer}' on {args.workload}",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
