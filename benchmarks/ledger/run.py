"""Performance ledger: wire bytes in -> role-filtered results out.

One run of one workload (the form BENCHMARK.json's ``command`` takes)::

    python3 benchmarks/ledger/run.py --workload bulk_delivery \\
        --seed 61 --seconds 10 --trace 0

generates the workload's wire file(s) from the seed, sets up, measures
for ``--seconds`` in a fresh child process and prints, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

``--all`` runs every workload both ways and writes a ledger JSON (host
facts, per-rep raw values); ``--compare A B`` checks B against A
within the bounds of BENCHMARK.json, each side one ledger file or
several, comma-separated (medians are compared); ``--repeat N`` does
``--all`` N times, assigns the sets alternately to A and B and
compares.  See README.md.

Closed loop, one client, one process: the engine is an in-process
library with no network ingress, so no queue exists for an open loop
to grow, and closed-loop throughput is the sustainable rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
REPLAY = os.path.join(HERE, "replay.py")
OUT_DIR = os.path.join(HERE, "out")
#: Set-up samples per run: this many set-up-only children, plus the
#: measuring child's own set-up.
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 150


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


def child(spec_path: str, phase: str, *args) -> dict:
    """Run one phase in a fresh interpreter; its last line is JSON."""
    # A fixed hash seed: set and dict iteration order inside the
    # engine is then the same in every child, on every run.
    done = subprocess.run(
        [sys.executable, REPLAY, spec_path, phase, *map(str, args)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{phase} child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and n of the per-rep values of one metric
    (``None`` when a failed run left no value)."""
    if len(values) < 2:
        only = values[0] if values else None
        return {"median": only, "q1": only, "q3": only,
                "n": len(values), "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def end_to_end(spec_path: str, seconds: float) -> dict:
    """``--trace 0``: the end-to-end metrics of one workload.

    Timings are medians over the run's replays (latencies: over the
    position chunks of its session replays), each in reference-speed
    seconds (``spans.CAL_REF_S``); ``raw`` keeps the per-rep values,
    the walls as measured and the calibrations.
    """
    # Half of the set-up-only children before the measuring child and
    # half after it: a disturbed stretch of the box then hits a
    # minority of the set-up samples.
    setups = [child(spec_path, "setup") for _ in range(SETUP_CHILDREN // 2)]
    result = child(spec_path, "measure", seconds)
    setups.append(result["setup"])
    setups += [child(spec_path, "setup")
               for _ in range(SETUP_CHILDREN - SETUP_CHILDREN // 2)]
    # Every checked replay counts, the set-ups' warm-ups too.
    replays = setups + result["throughput"] + result["latency"]
    chunks = result["chunks"]
    errors = sorted({r["error"] for r in replays if r["error"]})
    per_rep = {
        "elements_per_s": [
            r["elements"] / r["ref_wall_s"] for r in result["throughput"]],
        "push_latency_p50_us": [c["p50"] for c in chunks],
        "push_latency_p99_us": [c["p99"] for c in chunks],
        "policy_switch_latency_p50_us": [c["switch_p50"] for c in chunks],
        "peak_rss_mb": [result["peak_rss_mb"]],
        "setup_s": [s["ref_setup_s"] for s in setups],
    }
    raw = {name: quartiles(values) for name, values in per_rep.items()}
    return {
        "attempted": sum(r["elements"] for r in replays),
        "failed": sum(r["failed"] for r in replays),
        "values": {name: entry["median"] for name, entry in raw.items()},
        "raw": dict(raw, child=dict(result, setups=setups)),
        "notes": {"errors": errors} if errors else {},
    }


def per_layer(spec_path: str, seconds: float, spans_path: str,
              names: list[str]) -> dict:
    """``--trace 1``: the per-layer metrics of one workload (median
    over the traced iterations; ``None`` where a probe is gone)."""
    result = child(spec_path, "trace", seconds, spans_path)
    values = {}
    for name in names:
        seen = [it[name] for it in result["iterations"]
                if it.get(name) is not None]
        values[name] = statistics.median(seen) if seen else None
    return {"attempted": result["attempted"], "failed": result["failed"],
            "values": values, "raw": {"iterations": result["iterations"]},
            "notes": result["notes"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> dict:
    """Generate, set up, measure and check one workload (``scale``
    shrinks the streams for the smoke tests; the command line has no
    such knob, so every ledger measures the same work)."""
    key = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract()[key]}
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    try:
        spec, facts = workloads.build(name, seed, workdir, scale)
        spec_path = os.path.join(workdir, "spec.json")
        notes = {}
        if spec["expected"] is None:
            # The join has no closed-form expectation: completeness is
            # checked against the independent variant="nl" algorithm,
            # soundness against the generator's own facts.
            with open(spec_path, "w") as fp:
                json.dump(dict(spec, expected={}), fp)
            reference = child(spec_path, "reference")
            spec["expected"] = workloads.digest(reference["tids"])
            unsound = [pair for tids in reference["tids"].values()
                       for pair in workloads.unsound_pairs(tids, facts)]
            if reference["error"]:
                notes["reference"] = reference["error"]
            if unsound:
                notes["unsound_pairs"] = unsound[:10]
        with open(spec_path, "w") as fp:
            json.dump(spec, fp)
        if trace:
            record = per_layer(
                spec_path, seconds,
                os.path.join(OUT_DIR, f"spans-{name}.jsonl"), list(units))
        else:
            record = end_to_end(spec_path, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if notes:
        # No trustworthy expectation: every op of the run fails.
        record["notes"].update(notes)
        record["failed"] = record["attempted"]
    record.update(workload=name, seed=seed, trace=int(trace),
                  correct=record["failed"] == 0, units=units)
    return record


def result_line(record: dict) -> str:
    """The one-line JSON object the benchmark contract asks for."""
    metrics = {}
    for name, unit in record["units"].items():
        value = record["values"][name]
        if value is None:
            # A probe whose entry point is gone, or a failed run that
            # left no sample: the ledger JSON keeps null, the contract
            # line needs a number.
            print(f"note: {name} unavailable, reported as 0: "
                  f"{record['notes']}", file=sys.stderr)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def host_facts(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "commit": commit,
            "seed": seed}


def run_all(seed: int, seconds: float, out: str) -> dict:
    """Every workload, end to end and traced; writes the ledger JSON."""
    ledger = {"host": host_facts(seed), "seconds": seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        entry = ledger["workloads"][name] = {}
        for trace in (False, True):
            record = run_workload(name, seed, seconds, trace)
            entry["per_layer" if trace else "end_to_end"] = record
            state = "ok" if record["correct"] else "FAILED"
            print(f"== {name} trace={int(trace)} {state} "
                  f"attempted={record['attempted']} "
                  f"failed={record['failed']}")
            for metric, unit in record["units"].items():
                print(f"   {metric:36s} {record['values'][metric]!s:>22s}"
                      f" {unit}")
            for note, text in record["notes"].items():
                print(f"   note {note}: {text}")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fp:
        json.dump(ledger, fp, indent=1)
    print(f"ledger written to {out}")
    return ledger


def all_correct(ledger: dict) -> bool:
    return all(record["correct"] for entry in ledger["workloads"].values()
               for record in entry.values())


def load_side(paths: str) -> list[dict]:
    """The ledgers of one side of a comparison: ``a.json[,b.json...]``."""
    ledgers = []
    for path in paths.split(","):
        with open(path) as fp:
            ledgers.append(json.load(fp))
    return ledgers


def compare(side_a: str, side_b: str) -> bool:
    """B against A: per workload x end-to-end metric, how much worse
    B's median is as a share of A's, against the bound in
    BENCHMARK.json.

    A side is the ledgers of one commit, best taken alternately with
    the other side's so that a disturbed stretch of the box hits both.
    With two or more ledgers on the A side, a metric whose A values
    spread wider — (Q3 - Q1) / median — than its bound is reported
    UNRESOLVED: these runs cannot tell a regression of that size from
    noise.  Ledgers of different seeds, run lengths or workload lists
    do not measure the same work and are refused.
    """
    base, new = load_side(side_a), load_side(side_b)
    made_from = {(ledger["host"]["seed"], ledger["seconds"],
                  tuple(ledger["workloads"])) for ledger in base + new}
    if len(made_from) != 1:
        raise SystemExit("not comparable: the ledgers differ in (seed, "
                         f"seconds, workloads): {sorted(made_from)}")
    ok = True
    unresolved = 0
    print(f"{'workload':16s} {'metric':30s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'A spread':>9s}")
    for name in base[0]["workloads"]:
        for metric in contract()["end_to_end"]:
            a_values, b_values = (
                [ledger["workloads"][name]["end_to_end"]["values"]
                 [metric["name"]] for ledger in side]
                for side in (base, new))
            if None in a_values + b_values:
                continue  # a failed run; reported below
            a = statistics.median(a_values)
            b = statistics.median(b_values)
            worse = (b - a) / a if metric["better"] == "lower" \
                else (a - b) / a
            spread, shown = 0.0, ""  # unknown with one ledger a side
            if len(a_values) > 1:
                q1, _, q3 = statistics.quantiles(a_values, n=4)
                spread = (q3 - q1) / a
                shown = f"{spread:.2%}"
            verdict = ""
            if spread > metric["bound"]:
                unresolved += 1
                verdict = "  UNRESOLVED"
            elif worse > metric["bound"]:
                ok = False
                verdict = "  REGRESSION"
            print(f"{name:16s} {metric['name']:30s} {a:12.4f} {b:12.4f} "
                  f"{worse:+9.2%} {metric['bound']:6.0%} {shown:>9s}"
                  f"{verdict}")
        for ledger in base + new:
            for key, record in ledger["workloads"][name].items():
                if not record["correct"]:
                    ok = False
                    print(f"{name:16s} {key}: correctness gate FAILED")
    print(f"{len(base)} ledger(s) against {len(new)}: "
          f"{'within every bound' if ok else 'NOT within every bound'}"
          f", {unresolved} unresolved")
    return ok


def main(argv: list[str] | None = None) -> int:
    spec = contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=61)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, write the ledger JSON")
    parser.add_argument("--out", help="ledger JSON path for --all")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="ledger files, comma-separated per side")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="--all N >= 2 times, odd sets against even")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if args.repeat:
        if args.repeat < 2:
            parser.error("--repeat needs at least two sets")
        paths = [os.path.join(OUT_DIR, f"ledger-{args.seed}-{i}.json")
                 for i in range(1, args.repeat + 1)]
        for path in paths:
            run_all(args.seed, args.seconds, path)
        return 0 if compare(",".join(paths[0::2]),
                            ",".join(paths[1::2])) else 1
    if args.all:
        out = args.out or os.path.join(OUT_DIR, f"ledger-{args.seed}.json")
        return 0 if all_correct(run_all(args.seed, args.seconds, out)) else 1
    if not args.workload:
        parser.error("one of --workload, --all, --repeat, --compare")
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    for note, text in record["notes"].items():
        print(f"note {note}: {text}", file=sys.stderr)
    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
