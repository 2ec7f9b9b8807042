"""Tests for the labeling search strategies.

Success is always judged by the verifier, never by the search's own
bookkeeping; determinism is checked by replaying seeds.
"""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setseq import search
from setseq.errors import (
    BudgetExhausted,
    Infeasible,
    OutOfRange,
    PreconditionViolated,
)
from setseq.search import (
    BACKTRACKING,
    GREEDY_RESTART,
    SearchConfig,
    search_labeling,
)
from setseq.trees import (
    CaterpillarSpec,
    Tree,
    build_caterpillar,
    verify_set_sequential,
)


def path(count):
    return Tree.of(count, [(i, i + 1) for i in range(count - 1)])


def labels_of(lab):
    return {v: str(x) for v, x in sorted(lab.vertex_labels.items())}


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_fields():
    with pytest.raises(PreconditionViolated):
        SearchConfig(seed=-1)
    with pytest.raises(PreconditionViolated):
        SearchConfig(budget_seconds=0)
    with pytest.raises(PreconditionViolated):
        SearchConfig(max_restarts=0)
    with pytest.raises(PreconditionViolated):
        SearchConfig(strategy="SimulatedAnnealing")
    for bad in (
        {"seed": None},
        {"seed": 1.5},
        {"seed": True},
        {"budget_seconds": "5"},
        {"budget_seconds": None},
        {"budget_seconds": float("nan")},
        {"max_restarts": 2.5},
        {"max_restarts": "3"},
    ):
        with pytest.raises(PreconditionViolated):
            SearchConfig(**bad)
    # Whole-number budgets are still seconds.
    assert SearchConfig(budget_seconds=5).budget_seconds == 5


def test_config_rejects_a_budget_too_large_for_a_float():
    # The deadline's sum raised a bare OverflowError from inside the search.
    for budget in (10**400, float("inf")):
        with pytest.raises(PreconditionViolated, match="finite number > 0"):
            search_labeling(path(4), SearchConfig(budget_seconds=budget))
    assert SearchConfig(budget_seconds=1.0e308).budget_seconds == 1.0e308


def test_size_precondition():
    # A 3-vertex path has |V| + |E| = 5, which is not 2^n - 1.
    with pytest.raises(PreconditionViolated):
        search_labeling(path(3), SearchConfig(seed=1))


# ---------------------------------------------------------------------------
# greedy restarts


def test_greedy_single_edge():
    lab = search_labeling(path(2), SearchConfig(seed=0))
    assert lab.n == 2
    vals = {lab.labels[0], lab.labels[1]}
    assert len(vals) == 2 and 0 not in vals


def test_greedy_star_and_small_caterpillar():
    for degrees in ((3,), (3, 3, 3), (7,)):
        t = build_caterpillar(CaterpillarSpec(degrees))
        lab = search_labeling(t, SearchConfig(seed=3))
        assert verify_set_sequential(t, lab).valid


def test_greedy_sixteen_vertex_base_case():
    t = build_caterpillar(CaterpillarSpec((3, 3, 3, 2, 2, 2, 2, 2, 2, 3)))
    lab = search_labeling(t, SearchConfig(seed=1))
    assert lab.n == 5
    assert verify_set_sequential(t, lab).valid


def test_greedy_is_deterministic_per_seed():
    t = build_caterpillar(CaterpillarSpec((3, 3, 3)))
    cfg = SearchConfig(seed=11)
    first = search_labeling(t, cfg)
    second = search_labeling(t, cfg)
    assert labels_of(first) == labels_of(second)


def test_greedy_seeds_explore_differently():
    t = build_caterpillar(CaterpillarSpec((3, 3, 3)))
    outcomes = {
        frozenset(labels_of(search_labeling(t, SearchConfig(seed=s))).items())
        for s in range(6)
    }
    assert len(outcomes) > 1


def test_restart_shuffle_draws_what_random_shuffle_draws():
    # A restart reseeds one Random and runs random.shuffle's steps through
    # getrandbits; the permutations, and the stream each leaves behind, must
    # be those of random.Random(seed).shuffle.  Every seed shuffles one
    # residue class of lengths mod 8 in turn, so each length from 0 to 128
    # meets 50 seeds, among them seeds past 2**64 - 1 (seed + restart).
    rng = random.Random()
    seeds = [*range(200), *range(2**64 - 1, 2**64 + 199)]
    for r, seed in enumerate(seeds):
        reference = random.Random(seed)
        rng.seed(seed)
        for length in range(r % 8, 129, 8):
            want = list(range(length))
            reference.shuffle(want)
            got = list(range(length))
            search._shuffle(got, search._fisher_yates_steps(length), rng.getrandbits)
            assert got == want, (seed, length)
        assert rng.getrandbits(32) == reference.getrandbits(32), seed


def test_greedy_path_four_exhausts_restarts():
    with pytest.raises(BudgetExhausted):
        search_labeling(path(4), SearchConfig(seed=0, max_restarts=40))


def greedy_progress(max_restarts: int) -> list[str]:
    out = io.StringIO()
    with pytest.raises(BudgetExhausted):
        search_labeling(path(4), SearchConfig(seed=0, max_restarts=max_restarts), progress=out)
    return [ln for ln in out.getvalue().splitlines() if ln]


def test_greedy_emits_progress_lines():
    lines = greedy_progress(1002)
    # The first-depth line, the periodic line after restart 1000, the final line.
    assert len(lines) == 3
    for ln in lines:
        fields = dict(field.split("=") for field in ln.split())
        assert set(fields) == {"restarts", "best_depth"}
        assert all(value.isdigit() for value in fields.values())
    assert lines[1:] == ["restarts=1001 best_depth=3", "restarts=1002 best_depth=3"]
    assert all(a != b for a, b in zip(lines, lines[1:]))


def test_greedy_reports_the_last_restart_once(monkeypatch):
    # Restart 1000 is due a periodic line and restart 0 improves the depth;
    # when either is the last restart, its line is also the closing line.
    assert greedy_progress(1001) == ["restarts=1 best_depth=3", "restarts=1001 best_depth=3"]
    assert greedy_progress(1) == ["restarts=1 best_depth=3"]
    # The same when the time budget runs out right after an improvement:
    # the clock passes the deadline from its third reading, at restart 1.
    readings = iter([0.0, 0.0])
    monkeypatch.setattr(search.time, "monotonic", lambda: next(readings, 1e9))
    assert greedy_progress(10) == ["restarts=1 best_depth=3"]


def test_greedy_time_budget():
    # The path has two even-degree vertices; greedy search proves nothing
    # and still runs out of time.
    with pytest.raises(BudgetExhausted):
        search_labeling(path(4), SearchConfig(seed=0, budget_seconds=0.05))


def test_greedy_time_budget_stops_a_long_restart():
    # One restart on this 2^13-vertex caterpillar runs far past a 0.2 s
    # budget.  The clock is read inside a restart too, so the search stops
    # during the first one instead of after it.
    tree = build_caterpillar(CaterpillarSpec((3,) * 12 + (8167,)))
    out = io.StringIO()
    with pytest.raises(BudgetExhausted, match=r"\(0 restarts\)"):
        search_labeling(tree, SearchConfig(seed=0, budget_seconds=0.2), progress=out)
    assert out.getvalue().splitlines()[-1] == "restarts=0 best_depth=0"


# ---------------------------------------------------------------------------
# exhaustive backtracking


def test_backtracking_single_edge_is_forced():
    lab = search_labeling(path(2), SearchConfig(seed=0, strategy=BACKTRACKING))
    assert labels_of(lab) == {0: "01", 1: "10"}


def test_backtracking_path_four_infeasible():
    with pytest.raises(Infeasible):
        search_labeling(path(4), SearchConfig(seed=0, strategy=BACKTRACKING))


def test_backtracking_finds_eight_vertex_labeling():
    t = build_caterpillar(CaterpillarSpec((3, 3, 3)))
    lab = search_labeling(t, SearchConfig(seed=0, strategy=BACKTRACKING))
    assert verify_set_sequential(t, lab).valid


def test_backtracking_ignores_seed():
    t = build_caterpillar(CaterpillarSpec((3, 3, 3)))
    a = search_labeling(t, SearchConfig(seed=1, strategy=BACKTRACKING))
    b = search_labeling(t, SearchConfig(seed=99, strategy=BACKTRACKING))
    assert labels_of(a) == labels_of(b)


def test_backtracking_vertex_cap():
    with pytest.raises(OutOfRange):
        search_labeling(
            build_caterpillar(CaterpillarSpec((31,))),
            SearchConfig(seed=0, strategy=BACKTRACKING),
        )


def test_backtracking_time_budget():
    # The deadline is checked every 1,024 nodes, and this 16-vertex
    # caterpillar needs more than that, so a budget this small always ends
    # it; the search reports how far it got before it raises.
    t = build_caterpillar(CaterpillarSpec((3, 3, 3, 2, 2, 2, 2, 2, 2, 3)))
    out = io.StringIO()
    with pytest.raises(BudgetExhausted):
        search_labeling(
            t,
            SearchConfig(seed=0, budget_seconds=1e-9, strategy=BACKTRACKING),
            progress=out,
        )
    fields = dict(field.split("=") for field in out.getvalue().split())
    assert set(fields) == {"nodes", "best_depth"}
    assert all(value.isdigit() for value in fields.values())
    assert int(fields["nodes"]) >= 1024
    assert 1 <= int(fields["best_depth"]) < t.vertex_count


def test_backtracking_proves_eight_vertex_infeasible_in_few_nodes():
    # One labeling per GL(4,2) orbit: the proof for this tree (the
    # benchmark's infeasible 8-vertex shape) visits a few dozen nodes, where
    # a search blind to the symmetry visits hundreds of thousands.
    t = Tree.of(8, [(0, 5), (0, 6), (0, 1), (1, 2), (2, 3), (3, 4), (4, 7)])
    out = io.StringIO()
    with pytest.raises(Infeasible):
        search_labeling(t, SearchConfig(strategy=BACKTRACKING), progress=out)
    fields = dict(field.split("=") for field in out.getvalue().split())
    assert fields["result"] == "0"
    assert int(fields["nodes"]) <= 1000


# The even-degree labels of a labeling XOR to 0, which two distinct nonzero
# labels cannot do.  Without that check, exhaustive search on the 16-vertex
# tree (number 42, 0-based, of bench/gen.py's random_tree stream from
# random.Random(16)) spent a 5 s budget, over a million nodes, without settling.
TWO_EVEN_DEGREE_TREES = [
    [(0, 7), (1, 4), (2, 3), (3, 4), (3, 7), (5, 7), (6, 7)],
    [
        (0, 9), (1, 9), (1, 14), (2, 9), (3, 14), (4, 11), (5, 13), (5, 15), (6, 15),
        (7, 9), (8, 10), (9, 10), (10, 12), (11, 14), (11, 15),
    ],
]


@pytest.mark.parametrize("edges", TWO_EVEN_DEGREE_TREES)
def test_backtracking_refuses_two_even_degree_vertices_at_once(edges):
    t = Tree.of(len(edges) + 1, edges)
    assert sum(d % 2 == 0 for d in t.degrees()) == 2
    out = io.StringIO()
    with pytest.raises(Infeasible, match="2 even-degree vertices"):
        search_labeling(t, SearchConfig(budget_seconds=5, strategy=BACKTRACKING), progress=out)
    assert out.getvalue() == "nodes=0 result=0\n"


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_greedy_random_seeds_on_star(seed):
    t = build_caterpillar(CaterpillarSpec((7,)))
    lab = search_labeling(t, SearchConfig(seed=seed))
    assert verify_set_sequential(t, lab).valid
