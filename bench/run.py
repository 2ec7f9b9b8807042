"""Benchmark for setseq: four workloads, timed end to end or traced per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload pairing --seed 1 --seconds 20 --trace 0

--workload is pairing, sweep-n4, construct, search, or all (each workload
in a fresh interpreter, one after the other).  --trace 0 prints the
end-to-end metrics, with op times as CPU times at the reference speed (see
gauge.py); --trace 1 runs each round untraced and then traced, and prints
the per-layer metrics.  --smoke shrinks every workload to a single small
round.

Load is a closed loop: one process, one caller, ops back to back.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every output that
was checked is correct, 1 when one is not, and 2 when there are no setseq
sources under src/.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time

from gauge import REFERENCE_S, Gauge, Mark, time_reference, typical

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("pairing", "sweep-n4", "construct", "search")

#: Interpreters started to time set-up; the median is reported.
SETUP_PROBES = 9
#: Fewest rounds of a timed run; the end-to-end figures are medians over rounds.
MIN_ROUNDS = 2


class OverLimit(BaseException):
    """An op ran past its wall-time limit and was stopped."""


def _stop_op(signum, frame):
    raise OverLimit()


@contextmanager
def time_limit(seconds: float | None):
    """Raise OverLimit in the running op once `seconds` of wall time have passed."""
    if seconds is None:
        yield
        return
    signal.signal(signal.SIGALRM, _stop_op)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Record:
    """What happened to one op."""

    round: int
    kind: str
    weight: int
    #: CPU seconds inside the timed span, at the reference speed once the
    #: run is over; None when the op was skipped.
    latency: float | None
    #: ok, proved, unsolved or failed.
    outcome: str
    #: Error class name for every outcome but ok.
    error: str = ""
    #: Gauge marks at the start and the end of the timed span.
    span: tuple[Mark, Mark] | None = None


def run_op(op, round_index: int, tracer, op_index: int, checked: Counter, gauge: Gauge | None = None) -> Record:
    if op.ready is not None and not op.ready():
        return Record(round_index, op.kind, op.weight, None, "failed", "Skipped")
    if tracer is not None:
        tracer.op = op_index
    start = gauge.mark() if gauge is not None else (thread_time(), 0.0, 0)
    try:
        with time_limit(op.limit_s):
            result = op.call()
        error = None
    except (Exception, OverLimit) as exc:  # every failure of one op is counted, the run goes on
        error = exc
    end = gauge.mark() if gauge is not None else (thread_time(), 0.0, 0)
    if tracer is not None:
        tracer.op = -1

    def record(outcome: str, name: str = "") -> Record:
        return Record(round_index, op.kind, op.weight, end[0] - start[0], outcome, name, (start, end))

    if error is None:
        if op.expect_error is not None:
            return record("failed", "WrongAnswer")
        checked[op.kind] += 1
        try:
            problems = op.check(result)
        except Exception as exc:  # a check that cannot read the output rejects it
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            print(f"wrong answer from {op.kind}: {problems[0]}", file=sys.stderr)
            return record("failed", "WrongAnswer")
        return record("ok")
    name = type(error).__name__
    if op.expect_error is not None and isinstance(error, op.expect_error):
        checked[op.kind] += 1
        return record("proved", name)
    if isinstance(error, (OverLimit, *op.allowed)):
        return record("unsolved", name)
    print(f"{op.kind} failed with {name}: {str(error)[:200]}", file=sys.stderr)
    if _bucket_name(name) == "Other":
        traceback.print_exception(error, limit=-3, file=sys.stderr)
    return record("failed", name)


def run_round(workload, seed: int, smoke: bool, r, records: list, checked: Counter,
              tracer=None, gauge: Gauge | None = None):
    """Run round r, appending to records; return the round's probe ops."""
    ops = workload.build_round(random.Random(f"{workload.name}:{seed}:{r}"), smoke)
    for op in ops:
        if not op.probe:
            records.append(run_op(op, r, tracer, len(records), checked, gauge))
    return [op for op in ops if op.probe]


def warm_up(workload, seed: int) -> None:
    """One small round, not recorded, so that lazy set-up is done before timing."""
    run_round(workload, seed, True, "warm-up", [], Counter())


def measure(workload, seed: int, smoke: bool, seconds: float):
    """Run rounds for about `seconds` of wall time (one round when smoke).

    A round starts only while half of the last round's wall time still
    fits, and at least MIN_ROUNDS run.  Op times are scaled to the
    reference speed once the gauge has stopped.
    """
    records: list[Record] = []
    checked: Counter[str] = Counter()
    warm_up(workload, seed)
    gauge = Gauge()
    start = perf_counter()
    r = 0
    gauge.start()
    try:
        while True:
            began = perf_counter()
            probes = run_round(workload, seed, smoke, r, records, checked, gauge=gauge)
            r += 1
            now = perf_counter()
            if smoke or (r >= MIN_ROUNDS and now - start + (now - began) / 2 >= seconds):
                break
    finally:
        gauge.stop()
    for rec in records:
        if rec.latency is not None:
            rec.latency = gauge.scaled(*rec.span)
    return records, checked, probes


def measure_traced(workload, seed: int, rounds: int, smoke: bool, tracer):
    """Run each round untraced, then again traced, so drift hits both alike."""
    plain: list[Record] = []
    records: list[Record] = []
    checked: Counter[str] = Counter()
    probes: list = []
    warm_up(workload, seed)
    for r in range(rounds):
        run_round(workload, seed, smoke, r, plain, Counter())
        tracer.install()
        try:
            probes = run_round(workload, seed, smoke, r, records, checked, tracer)
        finally:
            tracer.uninstall()
    return plain, records, checked, probes


def end_to_end(records: list[Record], workload, setup_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics of one timed run.

    Every round has the same mix of ops.  Throughput and the slowest op
    are taken per round and the median over the rounds is reported, so one
    pathological input moves one sample only; the median and the tail
    percentile are taken over every op of the run, where each op of the
    mix appears once per round.  Op times are at the reference speed.
    """
    from tracing import percentile

    timed = [r for r in records if r.latency is not None]
    by_round: dict[int, list[Record]] = {}
    for r in timed:
        by_round.setdefault(r.round, []).append(r)
    rounds = list(by_round.values())
    latencies = [[r.latency * 1e3 for r in rs] for rs in rounds]
    pooled = [x for lat in latencies for x in lat]
    tail = percentile(pooled, workload.tail_pct)
    attempted = sum(r.weight for r in records)
    solved = sum(r.weight for r in records if r.outcome in ("ok", "proved"))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (
            statistics.median(sum(r.weight for r in rs) / sum(r.latency for r in rs) for rs in rounds),
            "1/s",
        ),
        "op_p50_ms": (statistics.median(pooled), "ms"),
        "op_tail_ms": (tail, "ms"),
        "op_max_ms": (statistics.median(max(lat) for lat in latencies), "ms"),
        "solved_share": (solved / attempted, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    raw = sum(r.span[1][0] - r.span[0][0] for r in timed)
    beyond = sum(1 for x in pooled if x > tail)
    notes = [
        f"{len(rounds)} rounds of {len(latencies[0])} ops, {raw:.3f} CPU s, "
        f"{sum(r.latency for r in timed):.3f} s at the reference speed",
        f"over all {len(pooled)} ops: p50 {statistics.median(pooled):.4g} ms, "
        f"p{workload.tail_pct} {tail:.4g} ms with {beyond} beyond it, max {max(pooled):.4g} ms",
    ]
    return metrics, notes


def outcome_counts(records: list[Record]) -> Counter:
    counts: Counter[str] = Counter()
    for r in records:
        if r.outcome == "failed":
            bucket = r.error if r.error in ("Skipped", "WrongAnswer") else _bucket_name(r.error)
            counts[f"failed.{bucket}"] += r.weight
        elif r.outcome != "ok":
            counts[f"{r.outcome}.{r.error}"] += r.weight
    return counts


def _bucket_name(name: str) -> str:
    import setseq.errors as errors

    if name in ("RecursionError", "AssertionError"):
        return name
    return "SetseqError" if hasattr(errors, name) else "Other"


def run_probes(probes) -> tuple[Counter, list[str]]:
    """Run the probe ops once, untimed, and report what became of each."""
    counts: Counter[str] = Counter()
    lines = []
    for op in probes:
        rec = run_op(op, -1, None, -1, Counter())
        lines.append(f"probe {op.kind}: {rec.outcome}" + (f" {rec.error}" if rec.error else ""))
        if rec.error == "Skipped":
            counts["skipped"] += 1
        elif rec.outcome == "failed":
            counts["failed"] += 1
    return counts, lines


def setup_probe() -> str:
    """CPU seconds to import setseq and load every bundled fixture, and the
    typical reference sample around them."""
    refs = [time_reference() for _ in range(10)]
    start = thread_time()
    sys.path.insert(0, str(SRC))
    import setseq
    import setseq.cli  # noqa: F401

    for path in sorted(setseq.fixtures_dir().glob("*.json")):
        setseq.load_fixture(path.name)
    elapsed = thread_time() - start
    refs += [time_reference() for _ in range(10)]
    return f"{elapsed} {typical(refs)}"


def measure_setup(count: int) -> float:
    """Median set-up time of `count` fresh interpreters, at the reference speed."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        elapsed, ref = map(float, done.stdout.split())
        times.append(elapsed * REFERENCE_S / ref)
    return statistics.median(times)


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracing
    from metrics import OUTCOMES
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    lines = [f"workload={workload.name} seed={args.seed} trace={args.trace}"]
    if args.trace:
        rounds = 1 if args.smoke else max(1, round(args.seconds / (2 * workload.nominal_round_s)))
        tracer = tracing.Tracer()
        plain, records, checked, probes = measure_traced(workload, args.seed, rounds, args.smoke, tracer)
        tracer.write(ROOT / ".bench_out" / f"spans-{workload.name}.jsonl")
        ops = sum(1 for r in records if r.latency is not None)
        metrics = tracing.layer_metrics(tracer, ops, rounds)
        untraced = sum(r.latency for r in plain if r.latency is not None)
        traced = sum(r.latency for r in records if r.latency is not None)
        metrics["trace.untraced_s"] = (untraced, "s")
        metrics["trace.traced_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.overhead_ratio"] = ((traced - untraced) / untraced, "ratio")
        lines.append(
            f"tracing overhead {traced - untraced:.3f} CPU s over an untraced {untraced:.3f} CPU s "
            f"({rounds} rounds, {ops} ops, each round run untraced then traced)"
        )
        counts = outcome_counts(records)
        for name in OUTCOMES:
            metrics[f"outcome.{name}"] = (counts[name], "count")
        probe_counts, probe_lines = run_probes(probes)
        metrics["constructors.chain_probe_failed"] = (probe_counts["failed"], "count")
        metrics["constructors.chain_probe_skipped"] = (probe_counts["skipped"], "count")
        lines += probe_lines
    else:
        setup_s = measure_setup(1 if args.smoke else SETUP_PROBES)
        records, checked, probes = measure(workload, args.seed, args.smoke, args.seconds)
        metrics, notes = end_to_end(records, workload, setup_s)
        lines += notes
        lines += run_probes(probes)[1]
    counts = outcome_counts(records)
    lines.append("outcomes " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    lines.append("checked " + " ".join(f"{k}={v}" for k, v in sorted(checked.items())))
    failed = sum(v for k, v in counts.items() if k.startswith("failed."))
    result = {
        "correct": counts["failed.WrongAnswer"] == 0,
        "attempted": sum(r.weight for r in records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv + (["--smoke"] if args.smoke else []), capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        out = done.stdout.strip().splitlines()
        for line in out[:-1]:
            print(f"[{name}] {line}")
        code = code or done.returncode
        try:
            part = json.loads(out[-1])
        except (IndexError, ValueError):
            print(f"[{name}] printed no result (exit {done.returncode})", file=sys.stderr)
            return done.returncode or 1
        combined["correct"] = combined["correct"] and part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small round per workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "setseq" / "__init__.py").is_file():
        print(f"error: no setseq sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_probe())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
