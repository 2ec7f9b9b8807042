"""Spans and counts at the layer boundaries, recorded from outside setseq.

A traced run replaces the public functions where one layer calls the next
with wrappers that record a span (name, start, end, parent, op) or bump a
counter.  Spans stay in memory until the run ends.  A layer's self time is
its span minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
from collections import Counter
from pathlib import Path
from time import thread_time

from setseq import cli, constructors, gf2, pairing, search, trees

ROUTE_TAGS = ("Dim5Coset", "Dim6EvenCoset", "AtMostNValues", "DimHalfEven")
REDUCTIONS = (
    "coset-lift",
    "even-lift",
    "even-base",
    "three-value-split",
    "even-two-split",
    "exactly-n-even",
    "odd-singles-split",
    "pinned-split",
    "zero-subset-split",
    "three-coset",
)
LARGE_EXPONENTS = (12, 13, 14, 15, 16)
CHAIN_SIZES = (16, 64, 256, 1024)


def _route(args, kwargs, result):
    if result is None:
        return None
    _part, route = result
    return route.tag, route.trace


def _vertex_count(args, kwargs, result):
    return None if result is None else result[0].vertex_count


_PROGRESS = re.compile(r"\b(restarts|nodes)=(\d+)")


def _progress(args, kwargs, result):
    found = _PROGRESS.findall(kwargs["progress"].getvalue())
    return found[-1] if found else None


# (module, attribute, span name, attribute extractor)
SPANS = (
    (pairing, "solve_pairing", "pairing.solve", _route),
    (pairing, "exact_pairing_solver", "pairing.exact", None),
    (pairing, "partition_errors", "pairing.check", None),
    (cli, "main", "cli.main", None),
    (cli, "exact_pairing_solver", "pairing.exact", None),
    (cli, "partition_errors", "pairing.check", None),
    (constructors, "label_small_diameter", "constructors.label_small", _vertex_count),
    (constructors, "label_large_caterpillar", "constructors.label_large", _vertex_count),
    (constructors, "four_copies", "constructors.four_copies", _vertex_count),
    (constructors, "add_pendants", "constructors.add_pendants", None),
    (constructors, "solve_pairing", "constructors.pairing", _route),
    (constructors, "solve_w_prefixes", "constructors.w_prefix", None),
    (constructors, "verify_set_sequential", "trees.verify", None),
    (trees, "verify_set_sequential", "trees.verify", None),
    (trees, "tree_to_json", "trees.json_dump", None),
    (trees, "tree_from_json", "trees.json_load", None),
    (search, "search_labeling", "search.search", _progress),
    (search, "verify_set_sequential", "trees.verify", None),
)

# (owner, attribute, counter name)
COUNTERS = (
    (gf2.BitVec, "__post_init__", "gf2.bitvec"),
    (gf2, "echelon_basis", "gf2.echelon"),
    (pairing, "echelon_basis", "gf2.echelon"),
)


class Tracer:
    """In-memory spans and counters; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        # [op index, parent span index, name, start, end, attribute, error class]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        #: Index of the op being run, or -1 outside ops (checks, set-up).
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name, fn, attr):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self.op, self._stack[-1] if self._stack else -1, name, 0.0, 0.0, None, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            result = None
            rec[3] = thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[4] = thread_time()
                self._stack.pop()
                if attr is not None:
                    rec[5] = attr(args, kwargs, result)

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op >= 0:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for owner, attr, name, extract in SPANS:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self._span(name, getattr(owner, attr), extract))
        for owner, attr, name in COUNTERS:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, self._counter(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One JSON array per span: op, parent, name, start and end in s, attribute, error."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for op, parent, name, start, end, attr, error in self.spans:
                if name in ("pairing.solve", "constructors.pairing") and attr:
                    attr = attr[0]
                handle.write(json.dumps([op, parent, name, start, end, attr, error]) + "\n")


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, ops: int, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass of `rounds` rounds with `ops` ops.

    Counts are totals over the pass unless the name says per op; times
    named *_ms are per call (p50, p99, max) or, for self and busy times,
    totals per round.
    """
    covered = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        if s[1] >= 0:
            covered[s[1]] += s[4] - s[3]
    # Keep spans made inside ops only, each with its self time appended.
    spans = [s[:7] + [s[4] - s[3] - c] for s, c in zip(tracer.spans, covered) if s[0] >= 0]

    def durations(name: str, where=lambda s: True) -> list[float]:
        return [(s[4] - s[3]) * 1e3 for s in spans if s[2] == name and where(s)]

    def self_ms(name: str) -> list[float]:
        return [s[7] * 1e3 for s in spans if s[2] == name]

    out: dict[str, tuple[float, str]] = {}
    per_round = max(rounds, 1)

    routed = [s for s in spans if s[2] == "pairing.solve" and s[5]]
    for tag in ROUTE_TAGS:
        times = [(s[4] - s[3]) * 1e3 for s in routed if s[5][0] == tag]
        out[f"pairing.route_ops.{tag}"] = (len(times), "count")
        out[f"pairing.route_ms.{tag}.p50"] = (_median(times), "ms")
        out[f"pairing.route_ms.{tag}.p99"] = (percentile(times, 99), "ms")
        out[f"pairing.route_ms.{tag}.max"] = (max(times, default=0.0), "ms")

    kinds: Counter[str] = Counter()
    degenerate = 0
    for s in spans:
        if s[2] in ("pairing.solve", "constructors.pairing") and s[5]:
            for entry in s[5][1]:
                if "degenerate" in entry:
                    degenerate += 1
                else:
                    kinds[entry.split()[0]] += 1
    out["pairing.degenerate_fallbacks"] = (degenerate, "count")
    for kind in REDUCTIONS:
        out[f"pairing.reductions.{kind}"] = (kinds[kind], "count")

    exact = durations("pairing.exact")
    out["pairing.exact_ms.p50"] = (_median(exact), "ms")
    out["pairing.exact_ms.p99"] = (percentile(exact, 99), "ms")
    out["pairing.exact_ms.max"] = (max(exact, default=0.0), "ms")
    out["pairing.exact_exhausted"] = (
        sum(1 for s in spans if s[2] == "pairing.exact" and s[6] == "BudgetExhausted"),
        "count",
    )
    out["pairing.check_ms"] = (sum(durations("pairing.check")) / per_round, "ms")
    out["gf2.echelon_calls"] = (tracer.counts["gf2.echelon"], "count")
    out["gf2.bitvec_made"] = (tracer.counts["gf2.bitvec"] / max(ops, 1), "count/op")

    out["constructors.pairing_ms"] = (sum(durations("constructors.pairing")) / per_round, "ms")
    for tag in ROUTE_TAGS:
        out[f"constructors.pairing_routes.{tag}"] = (
            sum(1 for s in spans if s[2] == "constructors.pairing" and s[5] and s[5][0] == tag),
            "count",
        )
    out["constructors.add_pendants_self_ms"] = (sum(self_ms("constructors.add_pendants")) / per_round, "ms")
    for e in LARGE_EXPONENTS:
        out[f"constructors.label_large_ms.{1 << e}"] = (
            _median(durations("constructors.label_large", lambda s, v=1 << e: s[5] == v)),
            "ms",
        )
    out["constructors.label_small_ms"] = (_median(durations("constructors.label_small")), "ms")
    for size in CHAIN_SIZES:
        out[f"constructors.four_copies_ms.{size}"] = (
            _median(durations("constructors.four_copies", lambda s, v=size: s[5] == v)),
            "ms",
        )
    out["constructors.w_prefix_ms"] = (sum(durations("constructors.w_prefix")) / per_round, "ms")

    verify = durations("trees.verify")
    out["trees.verify_calls"] = (len(verify) / max(ops, 1), "count/op")
    out["trees.verify_ms"] = (sum(verify) / per_round, "ms")
    out["trees.json_dump_ms"] = (sum(durations("trees.json_dump")) / per_round, "ms")
    out["trees.json_load_ms"] = (sum(durations("trees.json_load")) / per_round, "ms")

    searches = [s for s in spans if s[2] == "search.search"]
    greedy = [s for s in searches if s[5] and s[5][0] == "restarts"]
    exhaustive = [s for s in searches if s[5] and s[5][0] == "nodes"]
    restarts = sum(int(s[5][1]) for s in greedy)
    nodes = sum(int(s[5][1]) for s in exhaustive)
    out["search.greedy_restarts"] = (restarts, "count")
    out["search.restarts_per_s"] = (_rate(restarts, greedy), "1/s")
    out["search.exhaustive_nodes"] = (nodes, "count")
    out["search.nodes_per_s"] = (_rate(nodes, exhaustive), "1/s")
    solved = sum(1 for s in searches if s[6] in (None, "Infeasible"))
    out["search.solved_share"] = (solved / len(searches) if searches else 0.0, "share")

    out["cli.sweep_self_ms"] = (_median(self_ms("cli.main")), "ms")
    return out


def _rate(count: int, spans: list[list]) -> float:
    busy = sum(s[4] - s[3] for s in spans)
    return count / busy if busy > 0 else 0.0
