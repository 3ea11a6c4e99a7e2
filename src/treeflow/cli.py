"""Command-line entry point.

Subcommands: run (execute a machine), replay (bundled fixtures), verify
(trace monitors), bench (step counts and storage), report (path report from
a store snapshot), tle (paged traversal).  Exit codes: 0 for successful
termination, 2 when a run ends in the error state, 1 for usage problems.
Identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .jsondoc import IntKeyError, JSONDocumentError, decode_json, int_key, read_text, write_text

if TYPE_CHECKING:
    from .scenario import Scenario
    from .tle import TraversalPage
    from .trace import Trace

# Each command imports the modules it runs in its handler, so a call pays
# only for its own imports: ``verify --check csp`` loads no store, bench or
# fixture module.  Importing the monitors compiles nothing; ``verify``
# compiles the rule rows and builds the CSP table of the one machine it
# checks, on their first use.

METHODOLOGIES = ("dad", "dfd", "bfd", "cdd", "pdfd", "pbfd")


class PagesError(ValueError):
    """A ``tle --pages`` document that is not valid JSON or does not fit the schema."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treeflow")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a machine over a hierarchy")
    run.add_argument("--methodology", choices=METHODOLOGIES, required=True)
    run.add_argument("--hierarchy", help="hierarchy JSON document")
    run.add_argument("--scenario", help="scenario JSON document")
    run.add_argument("--out", help="trace output path (JSONL)")
    run.add_argument("--format", choices=("jsonl-trace", "text-report"), default="jsonl-trace")
    run.add_argument("--seed", type=int)
    run.add_argument("--rmax", type=int)

    replay = sub.add_parser("replay", help="replay a bundled fixture")
    replay.add_argument("--fixture", choices=("pdfd-mvp", "pbfd-mvp"), required=True)
    replay.add_argument("--out")
    replay.add_argument("--format", choices=("jsonl-trace", "text-report"), default="text-report")

    verify = sub.add_parser("verify", help="run trace monitors")
    verify.add_argument("--trace", required=True)
    verify.add_argument("--methodology", choices=METHODOLOGIES + ("tle",), required=True)
    verify.add_argument(
        "--check",
        choices=("measure", "bounds", "finalization", "deadlock", "csp", "all"),
        default="all",
    )
    verify.add_argument("--rmax", type=int)

    bench = sub.add_parser("bench", help="step-count and storage benchmarks")
    bench.add_argument("--out")

    report = sub.add_parser("report", help="path report from a store snapshot")
    report.add_argument("--hierarchy")
    report.add_argument("--snapshot")
    report.add_argument("--fixture", choices=("pbfd-mvp",))
    report.add_argument("--subject", type=int)
    report.add_argument("--out")

    tle = sub.add_parser("tle", help="run a paged store traversal")
    tle.add_argument("--hierarchy", required=True)
    tle.add_argument("--pages", required=True, help="pages JSON document")
    tle.add_argument("--subject", type=int, default=1)
    tle.add_argument("--out")
    return parser


def _write_or_print(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _scenario_from_args(args) -> Scenario:
    import dataclasses

    from .scenario import Scenario, load_scenario

    sc = load_scenario(Path(args.scenario)) if args.scenario else Scenario()
    overrides = {}
    if getattr(args, "rmax", None) is not None:
        overrides["r_max"] = args.rmax
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    # replace() builds a new Scenario, so the overrides are validated too.
    return dataclasses.replace(sc, **overrides) if overrides else sc


def _dump_trace(trace: Trace, out: str | None) -> None:
    if out:
        trace.write_jsonl(out)
    else:
        sys.stdout.write(trace.to_jsonl())


def _summary(result) -> str:
    lines = [f"outcome: {result.outcome}" + (f" ({result.reason})" if result.reason else "")]
    counters = {l: c for l, c in sorted(result.attempts.items()) if c}
    lines.append(f"refinement_attempts: {counters if counters else '{}'}")
    lines.append(f"events: {len(result.trace)}")
    lines.append(f"final_rule: {result.trace.events[-1].rule}")
    return "\n".join(lines)


def cmd_run(args) -> int:
    if not args.hierarchy:
        print("run: --hierarchy is required", file=sys.stderr)
        return 1
    from .hierarchy import load_hierarchy

    scenario = _scenario_from_args(args)
    if args.methodology in ("pdfd", "pbfd"):
        from .hybrid_machines import run_pbfd, run_pdfd

        h = load_hierarchy(Path(args.hierarchy))
        result = (run_pdfd if args.methodology == "pdfd" else run_pbfd)(h, scenario)
        if args.format == "text-report":
            _write_or_print(_summary(result), args.out)
        else:
            _dump_trace(result.trace, args.out)
        return 0 if result.succeeded else 2
    from .basic_machines import (
        GraphError,
        LoopUnboundedError,
        MachineError,
        load_dag,
        run_bfd,
        run_cdd,
        run_dad,
        run_dfd,
    )

    if args.methodology == "dad":
        dag = load_dag(args.hierarchy)
        try:
            trace = run_dad(dag, scenario)
        except MachineError as err:  # a node the run never reaches
            raise GraphError(f"{args.hierarchy}: {err}") from None
    elif args.methodology == "dfd":
        trace = run_dfd(load_hierarchy(Path(args.hierarchy)))
    elif args.methodology == "bfd":
        trace = run_bfd(load_hierarchy(Path(args.hierarchy)))
    else:  # cdd
        h = load_hierarchy(Path(args.hierarchy))
        components = sorted(h.nodes)
        try:
            trace = run_cdd(components, scenario.r_max, scenario)
        except LoopUnboundedError as err:
            _dump_trace(err.trace, args.out)
            print(f"loop_unbounded: {err}", file=sys.stderr)
            return 2
    _dump_trace(trace, args.out)
    return 0


def cmd_replay(args) -> int:
    from . import fixtures
    from .hybrid_machines import run_pbfd, run_pdfd

    if args.fixture == "pdfd-mvp":
        h = fixtures.visited_places_hierarchy()
        result = run_pdfd(h, fixtures.pdfd_mvp_scenario())
    else:
        h = fixtures.geo_hierarchy()
        result = run_pbfd(h, fixtures.pbfd_mvp_scenario())
    if args.format == "jsonl-trace":
        _dump_trace(result.trace, args.out)
    else:
        _write_or_print(_summary(result), args.out)
    return 0 if result.succeeded else 2


def cmd_verify(args) -> int:
    from .csp import check_csp_conformance
    from .scenario import check_r_max
    from .trace import Trace
    from .verify import (
        HYBRID,
        check_bounded_refinement,
        check_deadlock_freeness,
        check_finalization,
        check_measure_descent,
        check_rule_legality,
        check_well_formed,
        run_all_checks,
    )

    if args.rmax is not None:
        check_r_max(args.rmax)
    m = args.methodology
    trace = Trace.read_jsonl(args.trace, methodology=m)
    if args.check == "all":
        checks = run_all_checks(trace, m, args.rmax)
        if m in HYBRID:
            checks.append(check_deadlock_freeness(m))
        checks.append(check_csp_conformance(trace, m))
    elif args.check == "csp":
        checks = [check_csp_conformance(trace, m)]
    elif m not in HYBRID:
        # The other checks need a measure: a basic machine gets structural
        # validation, so the command always reports something.
        checks = [check_well_formed(trace, m)]
    elif args.check == "measure":
        checks = [check_rule_legality(trace, m), check_measure_descent(trace, m)]
    elif args.check == "bounds":
        checks = [check_bounded_refinement(trace, args.rmax)]
    elif args.check == "finalization":
        checks = [check_finalization(trace)]
    else:  # deadlock
        checks = [check_deadlock_freeness(m)]
    for verdict in checks:
        print(verdict.line())
    return 0 if all(v.ok for v in checks) else 2


def cmd_bench(args) -> int:
    from . import bench as bench_mod

    samples = bench_mod.step_count_table()
    batches = bench_mod.batch_scaling_table()
    rows = [bench_mod.empty_store_row()] + bench_mod.storage_table()
    _write_or_print(bench_mod.format_report(samples, rows, batches), args.out)
    return 0


def cmd_report(args) -> int:
    from . import fixtures

    if args.fixture == "pbfd-mvp":
        store = fixtures.geo_store()
    else:
        if not (args.hierarchy and args.snapshot):
            print("report: need --fixture or both --hierarchy and --snapshot", file=sys.stderr)
            return 1
        from .hierarchy import load_hierarchy
        from .tle import TleStore

        h = load_hierarchy(Path(args.hierarchy))
        store = TleStore.load_snapshot(h, args.snapshot)
    subject = fixtures.GEO_SUBJECT if args.subject is None else args.subject
    lines = store.report_paths(subject)
    _write_or_print("\n".join(lines) if lines else "", args.out)
    return 0


def load_pages(path: str | Path) -> list[TraversalPage]:
    """Pages of a JSON list ``[{"parents": [ids], "selections": {id: bool}}]``.
    Raises PagesError naming the file, the page index and the field
    (``pages.json: pages[0]: missing field 'parents'``)."""
    from .tle import TraversalPage

    try:
        raw = decode_json(read_text(path))
    except JSONDocumentError as exc:
        raise PagesError(f"{path}: {exc}") from None
    if not isinstance(raw, list):
        raise PagesError(f"{path}: a pages document is a JSON list, got {type(raw).__name__}")
    pages = []
    for index, page in enumerate(raw):
        where = f"{path}: pages[{index}]"
        if not isinstance(page, dict):
            raise PagesError(f"{where}: must be an object, got {type(page).__name__}")
        if "parents" not in page:
            raise PagesError(f"{where}: missing field 'parents'")
        parents, selections = page["parents"], page.get("selections", {})
        # bool is a subclass of int, so the exact class is tested.
        if parents.__class__ is not list or any(p.__class__ is not int for p in parents):
            raise PagesError(f"{where}.parents: must be a list of node ids, got {parents!r}")
        if selections.__class__ is not dict or any(
            v.__class__ is not bool for v in selections.values()
        ):
            raise PagesError(
                f"{where}.selections: must map node ids to true or false, got {selections!r}"
            )
        try:
            selected = {int_key(k): v for k, v in selections.items()}
        except IntKeyError as exc:
            raise PagesError(f"{where}.selections: {exc}") from None
        except ValueError:
            raise PagesError(
                f"{where}.selections: keys must be node ids, got {selections!r}"
            ) from None
        pages.append(TraversalPage(tuple(parents), selected))
    return pages


def cmd_tle(args) -> int:
    from .hierarchy import load_hierarchy
    from .tle import TleStore, tle_traverse

    h = load_hierarchy(Path(args.hierarchy))
    pages = load_pages(args.pages)
    store = TleStore(h)
    trace = tle_traverse(store, args.subject, pages)
    _dump_trace(trace, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handlers = {
        "run": cmd_run,
        "replay": cmd_replay,
        "verify": cmd_verify,
        "bench": cmd_bench,
        "report": cmd_report,
        "tle": cmd_tle,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
