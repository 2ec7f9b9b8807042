"""Every metric the benchmark prints: name, unit, and which way is better.

BENCHMARK.json at the root of the repository lists the same metrics; the
smoke test keeps the two in step.
"""

from __future__ import annotations

from tracing import CHAIN_SIZES, LARGE_EXPONENTS, REDUCTIONS, ROUTE_TAGS

#: (name, unit, better, bound): bound is the share of the parent's median by
#: which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("op_max_ms", "ms", "lower", 0.25),
    ("solved_share", "share", "higher", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

OUTCOMES = (
    "unsolved.BudgetExhausted",
    "unsolved.OverLimit",
    "proved.Infeasible",
    "failed.RecursionError",
    "failed.AssertionError",
    "failed.SetseqError",
    "failed.WrongAnswer",
    "failed.Skipped",
    "failed.Other",
)


def _per_layer() -> list[tuple[str, str, str]]:
    out = []
    for tag in ROUTE_TAGS:
        out.append((f"pairing.route_ops.{tag}", "count", "higher"))
        for stat in ("p50", "p99", "max"):
            out.append((f"pairing.route_ms.{tag}.{stat}", "ms", "lower"))
    out.append(("pairing.degenerate_fallbacks", "count", "lower"))
    out += [(f"pairing.reductions.{kind}", "count", "lower") for kind in REDUCTIONS]
    out += [(f"pairing.exact_ms.{stat}", "ms", "lower") for stat in ("p50", "p99", "max")]
    out.append(("pairing.exact_exhausted", "count", "lower"))
    out.append(("pairing.check_ms", "ms", "lower"))
    out.append(("gf2.echelon_calls", "count", "lower"))
    out.append(("gf2.bitvec_made", "count/op", "lower"))
    out.append(("constructors.pairing_ms", "ms", "lower"))
    out += [(f"constructors.pairing_routes.{tag}", "count", "higher") for tag in ROUTE_TAGS]
    out.append(("constructors.add_pendants_self_ms", "ms", "lower"))
    out += [(f"constructors.label_large_ms.{1 << e}", "ms", "lower") for e in LARGE_EXPONENTS]
    out.append(("constructors.label_small_ms", "ms", "lower"))
    out += [(f"constructors.four_copies_ms.{v}", "ms", "lower") for v in CHAIN_SIZES]
    out.append(("constructors.w_prefix_ms", "ms", "lower"))
    out.append(("constructors.chain_probe_failed", "count", "lower"))
    out.append(("constructors.chain_probe_skipped", "count", "lower"))
    out.append(("trees.verify_calls", "count/op", "lower"))
    out.append(("trees.verify_ms", "ms", "lower"))
    out.append(("trees.json_dump_ms", "ms", "lower"))
    out.append(("trees.json_load_ms", "ms", "lower"))
    out.append(("search.greedy_restarts", "count", "lower"))
    out.append(("search.restarts_per_s", "1/s", "higher"))
    out.append(("search.exhaustive_nodes", "count", "lower"))
    out.append(("search.nodes_per_s", "1/s", "higher"))
    out.append(("search.solved_share", "share", "higher"))
    out.append(("cli.sweep_self_ms", "ms", "lower"))
    out.append(("trace.untraced_s", "s", "lower"))
    out.append(("trace.traced_s", "s", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    better = {"unsolved": "lower", "proved": "higher", "failed": "lower"}
    out += [(f"outcome.{name}", "count", better[name.split(".")[0]]) for name in OUTCOMES]
    return out


PER_LAYER = tuple(_per_layer())
