"""treeflow benchmark: wall-clock cost of the verified machine pipeline and
of the selection store, end to end and layer by layer.

    python3 perfbench/run.py --workload pipeline-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One process, one thread.  Inputs come from --seed; set-up runs several times
and reports its median; the timed loop runs whole cycles of chunks until
--seconds of measured time have passed, and end-to-end timings use every
timed op.  A fixed reference kernel is timed between set-ups and chunks,
and every reported time is scaled to one reference host speed (see
calibrate.py).  With --trace 1 the seconds are split between two loops on
fresh set-ups, first plain and then with a span around every layer call,
and the per-layer metrics come from the second.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("pipeline-large", "pipeline-small", "store-churn")
# Set-up repeats at least SETUP_REPEATS times and for at least SETUP_SECONDS:
# the host's speed changes every second or so, and a pipeline set-up lasts
# only tens of milliseconds, so a few repeats would all see one host state.
# store-churn's set-up lasts seconds and varies by a third between repeats,
# so its median needs five.
SETUP_REPEATS = 5
SETUP_SECONDS = 4.0
# op_ms_tail's percentile: the highest with at least 10 ops beyond it at
# the run length BENCHMARK.json sets, on the slowest host state seen.
TAIL_PERCENTILE = {"pipeline-large": 75, "pipeline-small": 95, "store-churn": 99}

# Per-layer timings: span name -> (metric stem, unit).  Each yields
# <stem>.p50, <stem>.tail and <stem>.n.
TIMED_LAYERS = (
    ("hierarchy.load", "hierarchy.load_ms", "ms"),
    ("tle.init", "tle.init_ms", "ms"),
    ("tle.populate", "tle.populate_s", "s"),
    ("tle.lookup", "tle.lookup_us", "us"),
    ("tle.select", "tle.select_us", "us"),
    ("tle.deselect", "tle.deselect_us", "us"),
    ("tle.reset_subtree", "tle.reset_subtree_us", "us"),
    ("tle.report_paths", "tle.report_paths_us", "us"),
    ("hybrid_machines.run_pdfd", "hybrid_machines.run_pdfd_ms", "ms"),
    ("hybrid_machines.run_pbfd", "hybrid_machines.run_pbfd_ms", "ms"),
    ("basic_machines.run_dad", "basic_machines.run_dad_ms", "ms"),
    ("basic_machines.run_dfd", "basic_machines.run_dfd_ms", "ms"),
    ("basic_machines.run_bfd", "basic_machines.run_bfd_ms", "ms"),
    ("basic_machines.run_cdd", "basic_machines.run_cdd_ms", "ms"),
    ("trace.write_jsonl", "trace.write_jsonl_ms", "ms"),
    ("trace.read_jsonl", "trace.read_jsonl_ms", "ms"),
    ("verify.well_formed", "verify.well_formed_ms", "ms"),
    ("verify.rule_legality", "verify.rule_legality_ms", "ms"),
    ("verify.measure_descent", "verify.measure_descent_ms", "ms"),
    ("verify.bounded_refinement", "verify.bounded_refinement_ms", "ms"),
    ("verify.finalization", "verify.finalization_ms", "ms"),
    ("verify.deadlock_static", "verify.deadlock_static_ms", "ms"),
    ("verify.deadlock_freeness", "verify.deadlock_freeness_ms", "ms"),
    ("csp.conformance_hybrid", "csp.conformance_hybrid_ms", "ms"),
    ("csp.conformance_basic", "csp.conformance_basic_ms", "ms"),
)
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
# Per-layer counts: name -> unit; each is the mean of its samples.
COUNTS = {
    "hybrid_machines.events": "count",
    "hybrid_machines.refinement_attempts": "count",
    "trace.bytes": "B",
    "tle.steps_per_lookup": "count",
    "tle.steps_per_update": "count",
    "tle.records": "count",
    "tle.bits_per_selection": "bit",
    "tle.refused_share": "ratio",
    "oracle.audited_subjects": "count",
    "oracle.mismatches": "count",
}
MODULES = ("hierarchy", "tle", "hybrid_machines", "basic_machines", "trace", "verify",
           "csp", "bench")


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- environment -------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD from the .git directory, if the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- workloads -----------------------------------------------------------------------


def _workload(name: str):
    """(make_inputs(seed), make_session(inputs, tmp, tr), describe(inputs))."""
    import churn
    import pipeline

    if name == "store-churn":
        return (
            churn.churn_inputs,
            lambda inputs, tmp, tr: churn.ChurnSession(inputs, tr),
            lambda i: {"levels": i.levels, "nodes": i.nodes, "subjects": len(i.subjects),
                       "populated_selections": len(i.populate),
                       "audit_subjects": len(i.audit_subjects)},
        )
    large = name == "pipeline-large"
    return (
        pipeline.large_inputs if large else pipeline.small_inputs,
        lambda inputs, tmp, tr: pipeline.PipelineSession(inputs, tmp, tr),
        lambda trees: {"trees": len(trees), "nodes": [t.nodes for t in trees],
                       "levels": [t.levels for t in trees] if large else
                       {lv: sum(t.levels.get(lv, 0) for t in trees)
                        for lv in sorted({lv for t in trees for lv in t.levels})}},
    )


def measure(session, seconds: float, tr, probe) -> tuple[list[tuple], list[str]]:
    """Closed loop over whole cycles until ``seconds`` of timed work have
    passed.  A cycle runs every piece of the workload's work once, so
    stopping only between cycles keeps the mix of work the same on a fast
    host and a slow one.  Input generation and result checks between chunks
    are not timed; the host probes run between chunks.  Returns each chunk
    as (op latencies, seconds, stretch index in ``probe``) and the failed
    ops."""
    chunks: list[tuple] = []
    failures: list[str] = []
    busy = 0.0
    while busy < seconds:
        for work in session.cycle():
            latencies = array("d")  # unboxed, so memory does not grow with op count
            t0 = time.perf_counter()
            results = session.run_chunk(work, tr, latencies)
            t1 = time.perf_counter()
            busy += t1 - t0
            chunks.append((latencies, t1 - t0, probe.stretch(t0, t1)))
            failures += session.check(work, results, tr)
    return chunks, failures


def wall_clock(k: int) -> float:
    return 1.0


def throughput(chunks: list[tuple], factor=wall_clock) -> float:
    """Ops per second, each chunk's time multiplied by ``factor(stretch)``."""
    return sum(len(c[0]) for c in chunks) / sum(c[1] * factor(c[2]) for c in chunks)


def preflight(tr, tmp: Path) -> list[str]:
    """Correctness gates on the bundled fixtures; they also run every layer
    once, so a layer a workload bypasses still has a traced figure."""
    import churn
    import pipeline
    from treeflow import fixtures
    from treeflow.scenario import Scenario

    problems = []
    path = tmp / "preflight.jsonl"

    def tree(rows, hybrid):
        return pipeline.TreeInput(json.dumps(rows), len(rows), pipeline.level_counts(rows),
                                  hybrid, Scenario(), Scenario())

    replay = pipeline.verified_run(
        tr, tree(fixtures.VISITED_PLACES_ROWS, fixtures.pdfd_mvp_scenario()), "pdfd", path)
    counters = {lv: c for lv, c in replay.attempts.items() if c}
    if counters != {2: 3, 3: 3, 4: 2, 5: 1}:
        problems.append(f"pdfd-mvp refinement counters {counters}")
    geo = tree(fixtures.GEO_ROWS, fixtures.pbfd_mvp_scenario())
    results = [replay] + [pipeline.verified_run(tr, geo, m, path)
                          for m in ("pbfd",) + pipeline.METHODOLOGIES[:4]]
    problems += [f"{r.methodology} ended in {r.outcome}" for r in results if r.outcome != "T"]
    tiny = tree(pipeline.tree_rows((1, 2, 2)), Scenario())
    results += [pipeline.bounded_enumeration(tr, tiny, m) for m in pipeline.HYBRID]
    problems += pipeline.PipelineStats().add(results, tr)
    if fixtures.geo_store().report_paths(fixtures.GEO_SUBJECT) != fixtures.GEO_REPORT_LINES:
        problems.append("geo_store report_paths differs from GEO_REPORT_LINES")
    session = churn.ChurnSession(churn.churn_inputs(0, fixtures.GEO_ROWS, subjects=4, chains=3), tr)
    work = next(session.cycle())
    problems += session.check(work, session.run_chunk(work, tr, []), tr)
    problems += session.audit(tr)["problems"]
    return [f"preflight: {p}" for p in problems]


# -- metrics -------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss_mb() -> float | None:
    """Resident memory now, where /proc gives it."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except (OSError, IndexError, ValueError):
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def end_to_end(setups: list[tuple], chunks: list[tuple], tail_at: int,
               factor=wall_clock) -> tuple[dict, dict]:
    """Throughput and latency over every timed op.  Each set-up and chunk
    is a stretch of the host probe, and its times are multiplied by
    ``factor(stretch)``: HostProbe.factor for figures at reference speed."""
    from spans import percentile

    lat = sorted(x * f for c in chunks for f in (factor(c[2]) * 1e3,) for x in c[0])
    tail = percentile(lat, tail_at)
    ops = {"n": len(lat), "chunks": len(chunks),
           "tail_at": f"p{tail_at}", "beyond_tail": sum(1 for x in lat if x > tail)}
    return {
        "setup_s": (percentile(sorted(s * factor(k) for s, k in setups), 50), "s"),
        "ops_per_s": (throughput(chunks, factor), "1/s"),
        "op_ms_p50": (percentile(lat, 50), "ms"),
        "op_ms_tail": (tail, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }, ops


def per_layer(tr, overhead: float, factor_at, overall: float) -> dict:
    """Per-layer figures at reference speed, like end_to_end: each span is
    scaled by ``factor_at(start)``, the factor of the stretch it ran in, and
    the per-event rate, which has no span, by the traced loop's
    ``overall`` factor."""
    from spans import summary

    out = {}
    durations = tr.durations(factor_at)
    for span, stem, unit in TIMED_LAYERS:
        samples = durations.get(span)
        stats = summary(samples, SCALE[unit]) if samples else None
        for key in ("p50", "tail"):
            out[f"{stem}.{key}"] = (stats[key] if stats else 0.0, unit)
        out[f"{stem}.n"] = (stats["n"] if stats else 0, "count")
    per_event = tr.count_samples("hybrid_machines.us_per_event")
    stats = summary(per_event, overall) if per_event else {"p50": 0.0, "tail": 0.0, "n": 0}
    out["hybrid_machines.us_per_event.p50"] = (stats["p50"], "us")
    out["hybrid_machines.us_per_event.tail"] = (stats["tail"], "us")
    out["hybrid_machines.us_per_event.n"] = (stats["n"], "count")
    for name, unit in COUNTS.items():
        samples = tr.count_samples(name)
        out[name] = (sum(samples) / len(samples) if samples else 0.0, unit)
    t_share = tr.count_samples("hybrid_machines.outcome_t")
    out["hybrid_machines.outcome_t_share"] = (sum(t_share) / len(t_share) if t_share else 0.0, "ratio")
    events = sum(tr.count_samples("trace.events"))
    out["trace.bytes_per_event"] = (sum(tr.count_samples("trace.bytes")) / events if events else 0.0, "B")
    self_time, total = tr.self_seconds("run")
    for module in MODULES:
        out[f"{module}.self_share"] = (self_time.get(module, 0.0) / total if total else 0.0, "ratio")
    out["bench.tracing_overhead"] = (overhead, "ratio")
    return out


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


# -- main ----------------------------------------------------------------------------


def run_workload(args) -> int:
    if not (SRC / "treeflow").is_dir():
        print(f"perfbench: no treeflow package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import treeflow
    except ImportError as exc:
        print(f"perfbench: cannot import treeflow: {exc}", file=sys.stderr)
        return 2
    if Path(treeflow.__file__).resolve().parent != (SRC / "treeflow").resolve():
        print(f"perfbench: treeflow imported from {treeflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from calibrate import REFERENCE_PROBE_S, HostProbe
    from spans import NullTracer, Tracer

    make_inputs, make_session, describe = _workload(args.workload)
    untraced = NullTracer()
    tr = Tracer() if args.trace else untraced
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        tmp = Path(tmpdir)
        tr.phase = "preflight"
        problems = preflight(tr, tmp)
        inputs = make_inputs(args.seed)
        described = describe(inputs)
        # What the benchmark itself holds before set-up (interpreter,
        # imports, preflight leftovers, generated inputs) is in peak_rss_mb
        # too; it is reported so a memory change can be read against it.
        memory = {"rss_before_setup_mb": _rss_mb()}
        tr.phase = "setup"
        # Set-ups and the plain loop's chunks share one probe, so the probes
        # fall between set-ups too.
        probe = HostProbe(tmp / "probe.json")
        setups: list[tuple] = []  # (seconds, stretch)
        sessions: list = []
        while len(setups) < SETUP_REPEATS or sum(s[0] for s in setups) < SETUP_SECONDS:
            # A traced run keeps two set-ups: one per loop.
            sessions = sessions[-1:] if args.trace else []
            t0 = time.perf_counter()
            sessions.append(make_session(inputs, tmp, tr))
            t1 = time.perf_counter()
            setups.append((t1 - t0, probe.stretch(t0, t1)))
        memory["peak_after_setup_mb"] = _peak_rss_mb()
        del inputs  # store-churn's sessions do not hold the input text: free it
        # A traced run splits the time between its plain and traced loops.
        seconds = args.seconds / 2 if args.trace else args.seconds
        tr.phase = "run"
        chunks, failures = measure(sessions[0], seconds, untraced, probe)
        audits = [sessions[0].audit(tr)]
        tail_at = TAIL_PERCENTILE[args.workload]
        metrics, ops = end_to_end(setups, chunks, tail_at, probe.factor)
        raw, _ = end_to_end(setups, chunks, tail_at)
        if args.trace:
            traced_probe = HostProbe(tmp / "probe.json")
            traced, traced_failures = measure(sessions[-1], seconds, tr, traced_probe)
            overhead = throughput(traced, traced_probe.factor) / metrics["ops_per_s"][0]
            chunks += traced
            failures += traced_failures
            audits.append(sessions[-1].audit(tr))
            loop_start = traced_probe.starts[0]

            def factor_at(t):
                return (probe if t < loop_start else traced_probe).factor_at(t)

            result_metrics = per_layer(tr, overhead, factor_at, traced_probe.overall())
        else:
            result_metrics = metrics
        problems += [p for a in audits for p in a["problems"]]
        report = sessions[0].report()
    attempted = sum(len(c[0]) for c in chunks)

    failed = len(failures)
    correct = not problems and failed == 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name != "peak_rss_mb":
            note = f"wall clock {_fmt(raw[name][0])}; "
        if name == "setup_s":
            note += f"median of {len(setups)} set-ups"
        elif name == "ops_per_s":
            note += f"{ops['n']} ops in {ops['chunks']} chunks of whole cycles"
        elif name == "op_ms_p50":
            note += f"p50 of {ops['n']} ops"
        elif name == "op_ms_tail":
            note += f"{ops['tail_at']} of {ops['n']} ops, {ops['beyond_tail']} beyond it"
        elif name == "peak_rss_mb":
            note = f"whole process; {_fmt(memory['rss_before_setup_mb'])} MiB resident before set-up"
        print(f"  {name:<24} {_fmt(value):>14} {unit:<6} {note}")
    extra = {"failed_share": (failed / attempted if attempted else 0.0, "ratio")}
    if "trace_bytes_per_event" in report:
        extra["trace_bytes_per_event"] = (report["trace_bytes_per_event"], "B")
    if "records" in audits[0]:
        extra["bits_per_selection"] = (audits[0]["bits_per_selection"], "bit")
    for name, (value, unit) in extra.items():
        print(f"  {name:<24} {_fmt(value):>14} {unit}")
    print(f"  failed {failed} of {attempted} ops; "
          f"expected orphan refusals (not failures): {report.get('refused', 0)}")
    for line in (problems + failures)[:20]:
        print(f"  PROBLEM {line}")
    detail = {
        "env": environment(args.seed),
        "inputs": described,
        "memory": memory,
        "host_probe": {"samples": len(probe.samples), "median_s": REFERENCE_PROBE_S / probe.overall(),
                       "samples_s": [round(x, 7) for x in probe.samples],
                       "reference_s": REFERENCE_PROBE_S, "overall_factor": probe.overall()},
        "wall_clock": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()
                       if k != "peak_rss_mb"},
        "workload_report": report,
        "chunk_ops_per_s": [round(len(c[0]) / c[1], 3) for c in chunks],
        "audit": [{k: v for k, v in a.items() if k != "problems"} for a in audits],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
    }
    if args.trace:
        detail["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()}
    print("detail " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
