"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiments [--quick]``
    Regenerate every figure of the paper's Section VII evaluation.
``explain <cql> [--roles R1,R2]``
    Parse a CQL SELECT, shield it for the given roles, and print the
    plan as an operator tree.
``sp <insert-sp-statement>``
    Parse an ``INSERT SP`` statement and print the resulting
    punctuation in the paper's alphanumeric format.
``wire <file>``
    Validate a JSON-lines stream file: element counts, ordering,
    sp:tuple ratio.
``shell``
    Interactive DSMS console over a live session (see
    :mod:`repro.shell`).
``stats [file]``
    Execute a (CQL) query over a wire-format stream — or the built-in
    demo stream — and print per-operator stage metrics.
``audit [file] [--kind K] [--jsonl PATH]``
    Same execution with the audit trail enabled; print the security
    decisions or export them as JSON lines.
``why <tid> [file]``
    Same execution with causal tracing + audit enabled; render the
    full security decision chain (governing sp → resolved policy →
    shield verdicts → delivery) for one tuple id from the audit log,
    with what each sampled decision cost (its trace's operator hops,
    from the span ring) — no replay.
``trace [file] [--name N] [--jsonl PATH]``
    Same execution with causal tracing enabled; print the recorded
    spans (trace/span/parent ids, monotonic timestamps) or export the
    span ring as JSON lines.
``metrics [file] [--format prom|json]``
    Same execution with the metrics registry enabled; print the
    collected metrics as Prometheus text exposition or JSON.
``verify [--seed N] [--runs K] [--faults] [--replay FILE...]``
    Differential verification: fuzz random scenarios, run every engine
    configuration (session/``run()``, NL/SPIndex join, audited and
    traced runs, baselines) against the reference oracle, optionally
    inject sp faults, and shrink any mismatch to a minimal JSON
    reproducer.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError

__all__ = ["main"]


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_all

    run_all(0.2 if args.quick else 1.0)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.algebra.explain import explain
    from repro.algebra.expressions import ShieldExpr
    from repro.cql.translator import compile_statement
    from repro.core.punctuation import SecurityPunctuation

    expr = compile_statement(args.statement)
    if isinstance(expr, SecurityPunctuation):
        print("error: 'explain' takes a SELECT statement; "
              "use the 'sp' command for INSERT SP", file=sys.stderr)
        return 2
    if args.roles:
        roles = frozenset(r.strip() for r in args.roles.split(",")
                          if r.strip())
        expr = ShieldExpr(expr, roles)
    print(explain(expr))
    return 0


def _cmd_sp(args: argparse.Namespace) -> int:
    from repro.cql.translator import compile_statement
    from repro.core.punctuation import SecurityPunctuation

    sp = compile_statement(args.statement, provider=args.provider)
    if not isinstance(sp, SecurityPunctuation):
        print("error: 'sp' takes an INSERT SP statement",
              file=sys.stderr)
        return 2
    print(sp.to_text())
    return 0


def _cmd_wire(args: argparse.Namespace) -> int:
    from repro.stream.wire import load_stream

    n_tuples = n_sps = 0
    last_ts = float("-inf")
    ordered = True
    with open(args.path, encoding="utf-8") as fp:
        for element in load_stream(fp):
            if element.ts < last_ts:
                ordered = False
            last_ts = element.ts
            if hasattr(element, "srp"):
                n_sps += 1
            else:
                n_tuples += 1
    print(f"tuples:   {n_tuples}")
    print(f"sps:      {n_sps}")
    if n_sps:
        print(f"ratio:    1/{n_tuples / n_sps:.1f}")
    print(f"ordered:  {'yes' if ordered else 'NO'}")
    return 0 if ordered else 1


def _demo_elements():
    """The quickstart HeartRate stream (used when no file is given)."""
    from repro.core.punctuation import SecurityPunctuation
    from repro.stream.tuples import DataTuple

    def reading(bpm, ts):
        return DataTuple("HeartRate", 120,
                         {"patient_id": 120, "beats_per_min": bpm}, ts)

    return "HeartRate", ("patient_id", "beats_per_min"), [
        SecurityPunctuation.grant(["D", "ND"], ts=0.0, provider="patient"),
        reading(72, 1.0),
        reading(75, 2.0),
        SecurityPunctuation.grant(["D", "C"], ts=3.0, provider="patient"),
        reading(148, 4.0),
    ]


def _load_wire_elements(path: str):
    """Stream id, attributes and elements of one wire-format file."""
    from repro.stream.tuples import DataTuple
    from repro.stream.wire import load_stream

    elements = []
    sids: set[str] = set()
    attributes: dict[str, None] = {}
    with open(path, encoding="utf-8") as fp:
        for element in load_stream(fp):
            elements.append(element)
            if isinstance(element, DataTuple):
                sids.add(element.sid)
                for name in element.values:
                    attributes.setdefault(name)
    if not sids:
        raise ReproError(f"{path}: no data tuples (cannot infer a schema)")
    if len(sids) > 1:
        raise ReproError(
            f"{path}: multiple stream ids {sorted(sids)}; stats/audit "
            "runs take a single-stream file")
    return sids.pop(), tuple(attributes), elements


def _observed_run(args: argparse.Namespace):
    """Run query ``q`` (``--query``, else a scan, for ``--roles``) with
    in-memory observability over the stream (``path`` or the demo
    stream); return the DSMS with the results."""
    from repro.algebra.expressions import ScanExpr
    from repro.engine.dsms import DSMS
    from repro.observability import Observability
    from repro.stream.schema import StreamSchema

    if args.path:
        stream_id, attributes, elements = _load_wire_elements(args.path)
    else:
        stream_id, attributes, elements = _demo_elements()
    roles = frozenset(r.strip() for r in args.roles.split(",") if r.strip())
    if not roles:
        raise ReproError("provide at least one role via --roles")
    if args.query:
        from repro.core.punctuation import SecurityPunctuation
        from repro.cql.translator import compile_statement

        expr = compile_statement(args.query)
        if isinstance(expr, SecurityPunctuation):
            raise ReproError(
                "--query takes a CQL SELECT, not an INSERT SP")
    else:
        expr = ScanExpr(stream_id)

    dsms = DSMS(observability=Observability.in_memory())
    dsms.register_query("q", expr, roles=roles)
    dsms.register_stream(StreamSchema(stream_id, attributes), elements)
    return dsms, dsms.run()


def _add_observed_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", nargs="?", default=None,
                        help="wire-format stream file (default: built-in "
                             "HeartRate demo stream)")
    parser.add_argument("--query", default=None,
                        help="CQL SELECT to run (default: scan the stream)")
    parser.add_argument("--roles", default="ND",
                        help="comma-separated query roles (default: ND)")


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.metrics.reporting import format_table
    from repro.observability.stats import StageStats, aggregate_stages

    dsms, results = _observed_run(args)
    report = dsms.last_report
    assert report is not None
    print(format_table(
        StageStats.HEADERS, [s.to_row() for s in report.stages],
        title="Per-operator stage metrics"))
    totals = aggregate_stages(report.stages)
    print()
    print(f"elements in:  {report.elements_in} "
          f"({report.tuples_in} tuples, {report.sps_in} sps)")
    print(f"delivered:    "
          f"{sum(len(r.tuples) for r in results.values())} tuples")
    print(f"drops:        {totals['drops'] + report.entry_drops} "
          f"({report.entry_drops} at stream entries)")
    print(f"wall time:    {report.wall_time:.4f}s")
    analyzer = dsms.analyzer
    print(f"analyzer:     {analyzer.sps_in} sps in, "
          f"{analyzer.sps_out} out, "
          f"{analyzer.conservative_refinements} conservative refinements")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    dsms, _results = _observed_run(args)
    audit = dsms.audit
    assert audit is not None
    if args.jsonl:
        count = audit.dump_jsonl(args.jsonl)
        print(f"wrote {count} audit events to {args.jsonl}")
        return 0
    events = audit.events(kind=args.kind)
    for event in events[-args.limit:]:
        print(event)
    print()
    summary = ", ".join(f"{kind}={count}"
                        for kind, count in sorted(audit.counts.items()))
    print(f"recorded: {summary or 'nothing'}"
          + (f" (evicted {audit.evicted})" if audit.evicted else ""))
    return 0


def _cmd_why(args: argparse.Namespace) -> int:
    from repro.observability import reconstruct_why

    dsms, _results = _observed_run(args)
    report = reconstruct_why(args.tid, dsms.audit)
    if not report.found() and args.tid.lstrip("-").isdigit():
        report = reconstruct_why(int(args.tid), dsms.audit)
    print(report.render_text())
    return 0 if report.found() else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    dsms, _results = _observed_run(args)
    tracer = dsms.observability.tracer
    if args.jsonl:
        count = tracer.dump_jsonl(args.jsonl)
        print(f"wrote {count} spans to {args.jsonl}")
        return 0
    events = tracer.events(args.name)
    for event in events[-args.limit:]:
        print(event)
    print()
    print(f"recorded: {len(events)} span(s) across {tracer.traces} "
          f"trace(s) ({tracer.sampled_traces} sampled)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.observability.export import render_json, render_prometheus

    dsms, _results = _observed_run(args)
    registry = dsms.observability.metrics
    assert registry is not None
    if args.format == "json":
        print(render_json(registry))
    else:
        sys.stdout.write(render_prometheus(registry))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.campaign import replay_cases, run_campaign

    mismatches = 0
    if args.replay:
        result = replay_cases(list(args.replay), faults=args.faults)
        mismatches += len(result.mismatches)
    else:
        result = run_campaign(seed=args.seed, runs=args.runs,
                              faults=args.faults,
                              save_failing=args.save_failing)
        mismatches += len(result.mismatches)
    return 1 if mismatches else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Security-punctuation framework (ICDE 2008 repro)")
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = sub.add_parser(
        "experiments",
        help="regenerate the Section VII figures and the design ablations")
    experiments.add_argument("--quick", action="store_true",
                             help="CI-sized workloads")
    experiments.set_defaults(fn=_cmd_experiments)

    explain_cmd = sub.add_parser("explain",
                                 help="show the plan of a CQL SELECT")
    explain_cmd.add_argument("statement")
    explain_cmd.add_argument("--roles", default="",
                             help="comma-separated query roles")
    explain_cmd.set_defaults(fn=_cmd_explain)

    sp_cmd = sub.add_parser("sp", help="translate an INSERT SP statement")
    sp_cmd.add_argument("statement")
    sp_cmd.add_argument("--provider", default=None)
    sp_cmd.set_defaults(fn=_cmd_sp)

    wire = sub.add_parser("wire", help="validate a wire-format stream file")
    wire.add_argument("path")
    wire.set_defaults(fn=_cmd_wire)

    shell = sub.add_parser("shell",
                           help="interactive DSMS console (CQL + PUSH)")
    shell.set_defaults(fn=_cmd_shell)

    stats = sub.add_parser(
        "stats", help="run a query and print per-operator stage metrics")
    _add_observed_arguments(stats)
    stats.set_defaults(fn=_cmd_stats)

    audit = sub.add_parser(
        "audit", help="run a query and print the security audit trail")
    _add_observed_arguments(audit)
    audit.add_argument("--kind", default=None,
                       help="only events of this kind (e.g. shield.drop)")
    audit.add_argument("--jsonl", default=None, metavar="PATH",
                       help="export held events as JSON lines and exit")
    audit.add_argument("--limit", type=int, default=50,
                       help="print at most N most recent events")
    audit.set_defaults(fn=_cmd_audit)

    why = sub.add_parser(
        "why",
        help="reconstruct the security decision chain for a tuple id")
    why.add_argument("tid", help="tuple id to explain")
    _add_observed_arguments(why)
    why.set_defaults(fn=_cmd_why)

    trace = sub.add_parser(
        "trace",
        help="run a query with causal tracing and print/export spans")
    _add_observed_arguments(trace)
    trace.add_argument("--name", default=None,
                       help="only spans with this name "
                            "(e.g. op.process)")
    trace.add_argument("--jsonl", default=None, metavar="PATH",
                       help="export recorded spans as JSON lines and exit")
    trace.add_argument("--limit", type=int, default=50,
                       help="print at most N most recent spans")
    trace.set_defaults(fn=_cmd_trace)

    metrics = sub.add_parser(
        "metrics",
        help="run a query and emit the collected engine metrics")
    _add_observed_arguments(metrics)
    metrics.add_argument("--format", default="prom",
                         choices=["prom", "json"],
                         help="exposition format (default: prom)")
    metrics.set_defaults(fn=_cmd_metrics)

    verify = sub.add_parser(
        "verify",
        help="differential verification against the reference oracle")
    verify.add_argument("--seed", type=int, default=0,
                        help="fuzz seed (default: 0)")
    verify.add_argument("--runs", type=int, default=25,
                        help="scenarios to generate (default: 25)")
    verify.add_argument("--faults", action="store_true",
                        help="also run the sp fault-injection campaign")
    verify.add_argument("--replay", nargs="+", default=None, metavar="FILE",
                        help="re-verify committed reproducer JSON files "
                             "instead of fuzzing")
    verify.add_argument("--save-failing", default=None, metavar="DIR",
                        help="shrink failing scenarios and write minimal "
                             "reproducers into DIR")
    verify.set_defaults(fn=_cmd_verify)
    return parser


def _cmd_shell(args: argparse.Namespace) -> int:
    from repro.shell import run_shell

    return run_shell()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
