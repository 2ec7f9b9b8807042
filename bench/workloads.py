"""The four benchmark workloads, as rounds of ops.

An op is one call a user of setseq would make.  Its timed span covers only
that call; the check that its output is correct runs after the span ends.
A round is a fixed mix of ops drawn from one seeded random stream, so every
round of a workload has the same composition and the per-round figures can
be compared and summarised by their median.

Why each workload exists, and which layer it loads or bypasses:

* pairing: the reductions, the gf2 linear algebra and both exact-search
  tails (the level-6 degenerate fallback and generic n=6), through
  solve_pairing and exact_pairing_solver.  No trees, no verifier, no JSON.
* sweep-n4: the pairing layer as about 20,000 tiny calls made by the CLI,
  where per-call overhead dominates.  No reductions, no trees.
* construct: constructors, the tree verifier, JSON I/O and BitVec churn;
  pairing is reached only through add_pendants, and exact search stays light.
* search: the search layer, greedy and exhaustive; no pairing at all.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Any, Callable

import check
import gen

from setseq import cli, constructors, pairing, search, trees
from setseq.errors import BudgetExhausted, Infeasible

#: Wall-time limit of every solve_pairing call.  solve_pairing has no budget
#: of its own, and about one span-6 all-even instance in 3,000 falls back to
#: an exact search that runs for tens of seconds (ROADMAP item 2); such an
#: op is stopped here and counted as unsolved (outcome.unsolved.OverLimit).
#: Every other instance of the stream finishes within a sixth of it.
SOLVE_LIMIT_S = 3.0

#: Time budget of every exact_pairing_solver call in the pairing workload.
#: Generic n=6 instances either finish far below it or run out of it;
#: those that run out count as unsolved, not as failed.
EXACT_BUDGET_S = 0.5

#: Restart cap of the greedy search on random trees; the time budget is set
#: too large to bind, so the work done by a search op does not depend on
#: the machine.  The base caterpillars are searched without a cap.
#: At 1,000 restarts a capped random tree costs less than regenerating the
#: slowest base caterpillar (1,692 restarts), which keeps op_tail_ms on a
#: fixed op rather than on whichever random trees a seed draws.
GREEDY_MAX_RESTARTS = 1000
SEARCH_BUDGET_S = 3600.0

#: Exhaustive-search trees on 8 vertices, as edge lists of a fixed shape;
#: each round numbers their vertices afresh from the seed.  Five of the 23
#: trees on 8 vertices have a labeling; all five are searched every round,
#: with one tree that has none (its proof visits 632,746 nodes).
FEASIBLE_8 = (
    [(0, 5), (1, 6), (0, 1), (0, 2), (2, 3), (3, 4), (4, 7)],
    [(0, 3), (0, 4), (0, 1), (1, 5), (1, 2), (2, 6), (2, 7)],
    [(0, 4), (1, 5), (0, 1), (2, 6), (0, 2), (0, 3), (3, 7)],
    [(0, 2), (0, 3), (0, 4), (0, 5), (0, 1), (1, 6), (1, 7)],
    [(0, v) for v in range(1, 8)],
)
INFEASIBLE_8 = [(0, 5), (0, 6), (0, 1), (1, 2), (2, 3), (3, 4), (4, 7)]
#: The 4-vertex path has no labeling either; the smoke run proves it instead.
INFEASIBLE_4 = [(0, 1), (1, 2), (2, 3)]

SWEEP_ARGV = ["sweep", "--conjecture2", "--n", "4"]
SWEEP_INSTANCES = 20295


@dataclass
class Op:
    """One timed call plus the untimed check of what it returned.

    call runs inside the timed span.  check gets its result and returns a
    list of problems (empty when the output is correct).  allowed names the
    setseq errors that are a bounded, documented outcome of this op rather
    than a failure; expect_error is the error that is the correct answer.
    ready, when given, is asked first; an op whose input an earlier op
    failed to produce is recorded as skipped.  weight is how many units of
    work (instances) the op stands for.  A probe op is not part of the
    measured stream; it runs once, after the measured rounds.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    allowed: tuple[type[BaseException], ...] = ()
    expect_error: type[BaseException] | None = None
    ready: Callable[[], bool] | None = None
    weight: int = 1
    probe: bool = False
    #: Wall seconds after which the op is stopped and counted as unsolved.
    limit_s: float | None = None


@dataclass
class Workload:
    name: str
    build_round: Callable[[random.Random, bool], list[Op]]
    #: Percentile of op latency reported as op_tail_ms.
    tail_pct: int
    #: Seconds one round takes on the reference machine; sets the number of
    #: rounds of a traced run.
    nominal_round_s: float


# ---------------------------------------------------------------------------
# pairing


def _solve_op(kind: str, n: int, values: list[int]) -> Op:
    def call():
        inst = pairing.PairingInstance.of(n, values)
        part, route = pairing.solve_pairing(inst)
        return inst, part

    return Op(kind, call, lambda r: pairing.partition_errors(*r), limit_s=SOLVE_LIMIT_S)


def _exact_op(kind: str, n: int, values: list[int]) -> Op:
    def call():
        inst = pairing.PairingInstance.of(n, values)
        return inst, pairing.exact_pairing_solver(inst, EXACT_BUDGET_S)

    return Op(kind, call, lambda r: pairing.partition_errors(*r), allowed=(BudgetExhausted,))


def pairing_round(rng: random.Random, smoke: bool) -> list[Op]:
    """The four acceptance hypotheses, a DimHalfEven slice and an exact slice.

    The dimension n of each stream steps through its whole range four times
    a round (once when smoke), so that every round holds the same mix of
    sizes and only the targets are random.
    """
    laps = 1 if smoke else 4
    top = 6 if smoke else 10
    ops: list[Op] = []
    for _ in range(laps):
        for n in range(2, top + 1):
            ops.append(_solve_op("span-le5", *gen.low_dim(rng, n)))
            ops.append(_solve_op("few-values", *gen.few_values(rng, n)))
        for n in range(6, top + 1):
            ops.append(_solve_op("span6-even", *gen.even_span(rng, n, 6)))
        for n in range(2, top + 3):
            ops.append(_solve_op("dim-half-even", *gen.even_span(rng, n, rng.randint(1, n // 2))))
        # The only stream that reaches DimHalfEven: span 7 needs n >= 14.
        ops.append(_solve_op("n14-span7-even", *gen.even_span(rng, 14, 7)))
        ops.append(_exact_op("exact-n6", *gen.generic(rng, 6)))
        ops.append(_exact_op("exact-n5", *gen.generic(rng, 5)))
        ops.append(_exact_op("exact-n5", *gen.generic(rng, 5)))
    return ops


# ---------------------------------------------------------------------------
# sweep-n4


def sweep_round(rng: random.Random, smoke: bool) -> list[Op]:
    """One in-process `setseq sweep --conjecture2 --n 4` (n=3 when smoke)."""
    argv = SWEEP_ARGV[:-1] + ["3"] if smoke else SWEEP_ARGV
    instances = 35 if smoke else SWEEP_INSTANCES

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    return [Op("sweep", call, lambda r: check.sweep_problems(r[1], r[0], instances), weight=instances)]


# ---------------------------------------------------------------------------
# construct


def _emit_and_verify(tree, lab) -> tuple[str, bool]:
    """What `setseq label ... | setseq verify -` does after labeling."""
    text = trees.tree_to_json(tree, lab)
    back, back_lab = trees.tree_from_json(text)
    return text, trees.verify_set_sequential(back, back_lab).valid


def _document_problems(emitted: tuple[str, bool]) -> list[str]:
    text, valid = emitted
    problems = check.tree_document_problems(text)
    return problems if valid else ["setseq verify rejected its own output"] + problems


def _label_op(kind: str, label: Callable, degrees: tuple[int, ...]) -> Op:
    count = sum(degrees) - len(degrees) + 2 if len(degrees) > 1 else degrees[0] + 1

    def call():
        tree, lab = label(trees.CaterpillarSpec(degrees))
        return _emit_and_verify(tree, lab)

    def verify(emitted: tuple[str, bool]) -> list[str]:
        return _document_problems(emitted) + check.caterpillar_problems(emitted[0], degrees, count)

    return Op(kind, call, verify)


def _chain(smoke: bool) -> list[Op]:
    """The four-copies chain from K_{1,3}; each step feeds the next.

    The last two steps are probes: they run after the measured rounds and
    are reported on their own, because the step to 4,096 vertices fails
    today (RecursionError in solve_w_prefixes) and the step after it cannot
    be attempted.
    """
    state: dict[str, Any] = {}
    star = trees.Tree.of(4, [(0, 1), (0, 2), (0, 3)])
    star_lab = trees.Labeling.of(3, {0: "001", 1: "010", 2: "100", 3: "110"})
    state["next"] = (star, star_lab, 1, 2)
    measured = (16, 64) if smoke else (16, 64, 256, 1024)
    probes = (256,) if smoke else (4096, 16384)

    def call():
        tree, lab, u, v = state.pop("next")
        out, out_lab = constructors.four_copies(tree, lab, u, v)
        return out, out_lab, _emit_and_verify(out, out_lab)

    def verify(result, size: int) -> list[str]:
        out, out_lab, emitted = result
        problems = _document_problems(emitted)
        if out.vertex_count != size:
            problems.append(f"{out.vertex_count} vertices, expected {size}")
        if not problems:
            u = gen.far_vertex(out.vertex_count, out.edges, 0)
            state["next"] = (out, out_lab, u, gen.far_vertex(out.vertex_count, out.edges, u))
        return problems

    return [
        Op(
            f"chain-{size}",
            call,
            lambda result, size=size: verify(result, size),
            ready=lambda: "next" in state,
            probe=size in probes,
        )
        for size in measured + probes
    ]


def construct_round(rng: random.Random, smoke: bool) -> list[Op]:
    """Small-diameter labels at three sizes per diameter, large labels, the chain.

    Two caterpillars of 256 vertices per diameter put the median op in the
    middle of a broad band of similar ops rather than at the edge of one.
    """
    ops: list[Op] = []
    for diam in range(2, 7 if smoke else 19):
        floor = gen.small_diameter_floor(diam)
        for count in (floor,) if smoke else (floor, 256, 256, 1024):
            degrees = gen.odd_caterpillar(rng, count, diam)
            ops.append(_label_op(f"small-{count}", constructors.label_small_diameter, degrees))
    # One diameter per size, from long and thin to short and wide, so that
    # the seed changes only how the pendants spread over the center path.
    for exponent, diam in ((8, 5),) if smoke else ((12, 13), (13, 11), (14, 9), (15, 7), (16, 5)):
        degrees = gen.odd_caterpillar(rng, 1 << exponent, diam)
        ops.append(_label_op(f"large-2^{exponent}", constructors.label_large_caterpillar, degrees))
    return ops + _chain(smoke)


# ---------------------------------------------------------------------------
# search


def _search_op(kind: str, edges, config, *, allowed=(), expect_error=None) -> Op:
    count = len(edges) + 1
    tree = trees.Tree.of(count, edges)

    def call():
        return search.search_labeling(tree, config, progress=io.StringIO())

    def verify(lab) -> list[str]:
        labels = {v: x.bits for v, x in lab.vertex_labels.items()}
        return check.labeling_problems(count, edges, labels, lab.n)

    return Op(kind, call, verify, allowed=allowed, expect_error=expect_error)


def search_round(rng: random.Random, smoke: bool) -> list[Op]:
    """Greedy on the base caterpillars and random trees, exhaustive on 8 vertices."""
    regenerate = search.SearchConfig(seed=0, budget_seconds=SEARCH_BUDGET_S)
    capped = search.SearchConfig(
        seed=0, budget_seconds=SEARCH_BUDGET_S, max_restarts=GREEDY_MAX_RESTARTS
    )
    exhaustive = search.SearchConfig(budget_seconds=SEARCH_BUDGET_S, strategy=search.BACKTRACKING)
    ops: list[Op] = []
    for degrees in constructors.BASE_CATERPILLARS:
        edges = list(trees.build_caterpillar(trees.CaterpillarSpec(degrees)).edges)
        ops.append(_search_op("greedy-base", edges, regenerate))
    for _ in range(4 if smoke else 3):
        ops.append(
            _search_op("greedy-random16", gen.random_tree(rng, 16), capped, allowed=(BudgetExhausted,))
        )
    for shape in FEASIBLE_8:
        ops.append(_search_op("exhaustive-feasible8", gen.relabel(rng, shape), exhaustive))
    infeasible = INFEASIBLE_4 if smoke else INFEASIBLE_8
    ops.append(
        _search_op(
            f"exhaustive-infeasible{len(infeasible) + 1}",
            gen.relabel(rng, infeasible),
            exhaustive,
            expect_error=Infeasible,
        )
    )
    return ops


WORKLOADS = {
    "pairing": Workload("pairing", pairing_round, tail_pct=99, nominal_round_s=2.0),
    "sweep-n4": Workload("sweep-n4", sweep_round, tail_pct=100, nominal_round_s=4.3),
    "construct": Workload("construct", construct_round, tail_pct=90, nominal_round_s=10.0),
    "search": Workload("search", search_round, tail_pct=90, nominal_round_s=4.0),
}
