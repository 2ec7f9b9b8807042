"""Pinned outputs: the constructions and the pairing solver are pure functions.

Each digest is the sha256 of an emitted document (tree JSON or partition
text).  The digests were recorded before the solvers and constructors
moved to int labels internally, REDUCTION_DIGEST before the pairing
reductions were folded into shared steps, and EXHAUSTIVE_DIGEST before the
exhaustive search learned to skip labelings equivalent under GL(n,2).

The two multi-position SMALL_DIAMETER_DIGESTS, LARGE_DIGEST, PAIRING_DIGEST
and REDUCTION_DIGEST were re-recorded when the coset lift stopped halving
a span-d instance down to level d and began solving each group once at
level min(5, n): every low-span pairing of more than one distinct target
now comes out of a different, equally valid first partition.  The star
digest, CHAIN_DIGEST and EXHAUSTIVE_DIGEST did not move.  Any further
change to what comes out first must be re-specified, not absorbed here.

EXACT_DIGEST and the node counts of EXHAUSTED_TREES were recorded before
the exact kernel began keeping one availability mask per target; they pin
its search tree, not only its first answers.

SWEEP4_DIGEST and ZERO_TARGET_TREE were recorded before the exact kernel
took its root's vector without a counting pass, counted with unrolled
bit planes and filled its one-target leaf in place.  SWEEP4_DIGEST pins the
partition of every one of the 20,295 instances of the n=4 sweep, where
EXACT_DIGEST holds every 7th.  ZERO_TARGET_TREE is a multiset with a zero
target: the root shortcut assumes every target nonzero, so it must not
fire there, and the search stops at the root's own count as before.

REDUCTION_DIGEST was re-recorded again when the halving shrank to the
cases the coset lift reaches.  Its forced-solver partitions and its level-6
halvings of 18 to 24 odd values are byte-identical to before.  The halvings
of 26 and 28 odd values now take a zero-sum subset of size 10 or 12 where a
4-vector block split used to run, and the level-7 halvings are gone: more
odd values than half a group is refused above level 6.

PENDANT_DIGESTS were recorded before the pipelines stopped building a Tree
per level: one plan hangs every pendant on a single anchor, the other
spreads them over five.

PREFIX_DIGEST was recorded while solve_w_prefixes was still a backtracking
search, before it became a closed form: it pins the four-copies prefixes
for every odd k from 5 to 1,999 to what that search found.

TRACE_DIGEST and REDUCTION_DIGEST were recorded before the lift layers
began to work on target histograms and to solve each distinct group once.
TRACE_DIGEST pins every route trace entry, so a lift that skips a repeated
group must still replay the entries that group wrote.  The halvings in
REDUCTION_DIGEST are printed as sorted halves, since a halving now returns
two histograms; the digest was recorded from the list-based halving with
each half sorted, so the pinned multisets are the same.

LARGE_DIGEST, PAIRING_DIGEST, REDUCTION_DIGEST and TRACE_DIGEST were
re-recorded when the level-6 even lift stopped falling back to exact
search on a group with no multiplicity-2 anchor and began to anchor any
value, with 0, 1 or more slots.  Only instances whose trace held such a
fallback moved; a lift that found an anchor before keeps its partition.

THREE_COSET_DIGEST was recorded after the three-coset case's two fills
(a greedy pass over every layout, then a backtracking one) became one
backtracking fill whose first descent is the greedy pass, in one walk over
the layouts.  Its stream holds instances whose greedy pass fails on a
layout, which the other pairing digests do not reach; such an instance now
fills that layout instead of moving to a later one.

SUBSET_SPLIT_DIGEST was recorded before the bounded-value recursion's
four two-coset seeders became branches of one function.  Every instance
of its stream opens with the zero-subset split, which the other pairing
digests reach at most a few times.

GREEDY_BASE_RESTARTS and GREEDY_CAPPED_PROGRESS were recorded while every
greedy restart still built a fresh random.Random(seed + restart) and called
its shuffle.  They pin how many restarts each search runs and what it
reports, not only the labeling it returns.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import random
from collections import Counter, deque

import pytest

import instgen
from setseq.constructors import (
    BASE_CATERPILLARS,
    PendantPlan,
    add_pendants,
    four_copies,
    label_large_caterpillar,
    label_small_diameter,
    load_fixture,
    solve_w_prefixes,
)
from setseq.errors import BudgetExhausted, Infeasible
from setseq.pairing import (
    PairingInstance,
    _exact,
    exact_pairing_solver,
    format_partition,
    solve_pairing,
)
from setseq.pairing import _split_halves  # the level-6 halving, pinned directly
from setseq.search import BACKTRACKING, SearchConfig, search_labeling
from setseq.trees import CaterpillarSpec, Labeling, Tree, build_caterpillar, tree_to_json

SMALL_DIAMETER_DIGESTS = {
    (63,): "6caaae02c430642078f968a41253982d68c66c94e80eddd018da97a3d3e03208",
    (37, 21, 29, 23, 25, 35, 17, 35, 41): (
        "83b5a6017d0e850c443381a112c1f9715705cddc6b0db9b9f01c8d6a9fcfb486"
    ),
    (59, 47, 57, 71, 71, 57, 61, 53, 61, 53, 59, 61, 79, 47, 69, 67, 67): (
        "7f1ad0aec8fd1030a936f7f3b67330867195037a4435c7e5fa9bef333be4f560"
    ),
}

LARGE_DEGREES = (359, 315, 361, 383, 345, 287, 353, 317, 323, 359, 369, 335)
LARGE_DIGEST = "f97e44150af584f4931395f66168dd5befdfffcc43ccdd7dda3207f41c07da28"

PENDANT_DIGESTS = {
    ("T[5,3,3,3,3,3].json", "0:16"): (
        "a46945b5ca5fd4be6b4d09518d93b4efcffa39d95dec7318016c7031a34ef23a"
    ),
    ("figure1.json", "2:1,7:1,3:3,4:1,1:2"): (
        "e9c6d52952fbf76789c97141a049d7688fc08a87270b403a5b81c388eecb45c2"
    ),
}

CHAIN_DIGEST = "1686864da7471148777006b0694580d4dfc62a9c6d5d27ffe294da1785d9942b"

PAIRING_DIGEST = "31a09496565568348859eb096ba6340b706e83b0434768531a141d660a53f132"

REDUCTION_DIGEST = "4fad98c5bb396b33f3009e168e5ffb8e155324ff37207fd387a0378b5549f291"

TRACE_DIGEST = "9d00aba22f2e8f4b63310ac8b50345be5d3eccf44f9295be3189913cadff8b1f"

EXHAUSTIVE_DIGEST = "624994988b492c11c62437d099bdf5a44df7d43adc52f056f699075a8ae1b315"

PREFIX_DIGEST = "105dd7d72c82b4195093fd4beaba014cf0117784e6794db4fe72432d0ce2e183"

THREE_COSET_DIGEST = "e31c3f07eeb9bb1582a6602d856ca0ef8d4d043aa98f84b1e8dbd079ab92c2f3"

SUBSET_SPLIT_DIGEST = "9842ceef29bf053efc70ed32835ad29363225ee1078ea1d245b931138e4d1937"

EXACT_DIGEST = "de1463db68bbff2ddcf0491dc2cb31621676e76e0350d87d9210e336c72833f0"

SWEEP4_DIGEST = "9791297b685c14e7cf73aa603d7ab9661313fd76e5ad2357be6b876229d67746"

#: Restarts the greedy search at seed 0 runs to regenerate each bundled
#: base labeling, in BASE_CATERPILLARS order.
GREEDY_BASE_RESTARTS = (1, 118, 39, 18, 2, 998, 1692, 53)

#: Pruefer code of a 16-vertex tree that the greedy search at seed 0 does
#: not label within 1,000 restarts, and the progress text of that search.
GREEDY_CAPPED_CODE = (11, 7, 15, 4, 9, 9, 10, 14, 14, 2, 5, 15, 0, 14)
GREEDY_CAPPED_PROGRESS = (
    "restarts=1 best_depth=12\n"
    "restarts=2 best_depth=14\n"
    "restarts=7 best_depth=15\n"
    "restarts=1000 best_depth=15\n"
)

#: Raw multisets with nonzero XOR: no partition exists, so _exact walks its
#: whole search tree and the node count pins the tree, not just one branch.
EXHAUSTED_TREES = (
    (3, [1, 1, 1, 2], 6),
    (3, [1, 2, 3, 4], 10),
    (4, [1, 2, 3, 4, 5, 6, 7, 8], 352),
    (4, [1, 2, 4, 8, 3, 5, 6, 14], 1029),
    (4, [3, 3, 3, 3, 5, 5, 6, 1], 41),
    (5, [3] * 8 + [5] * 7 + [1], 513),
)

#: A zero-sum multiset holding a zero target, which no pair can realize.
ZERO_TARGET_TREE = (4, [0, 1, 2, 3, 4, 5, 6, 7], 1)

#: The fixed instances of the test_at_most_n_* case tests in test_pairing.py.
AT_MOST_N_CASES = (
    (4, [1] * 3 + [2, 4] + [7] * 3),
    (4, [1] * 5 + [2, 4, 7]),
    (7, [1] * 20 + [2] * 22 + [3] * 22),
    (7, [v for v, c in zip((1, 2, 4, 8, 16, 32, 64), (10,) * 6 + (4,)) for _ in range(c)]),
    (8, [v for v, c in zip((1, 2, 4, 8, 16, 32, 64, 128), (18,) * 7 + (2,)) for _ in range(c)]),
    (7, [v for v, c in zip((1, 2, 4, 8, 16, 32, 63), (10,) * 6 + (4,)) for _ in range(c)]),
    (7, [1, 2, 4, 7] + [3] * 30 + [1] * 10 + [2] * 10 + [4] * 10),
    (7, [1, 2, 4, 7] + [8] * 20 + [16] * 20 + [32] * 16 + [1] * 2 + [2] * 2),
    (8, [v for v, c in zip((1, 2, 4, 7, 8, 16, 32, 56), (15,) * 4 + (17,) * 4) for _ in range(c)]),
    (7, [1, 2, 4, 8, 16, 31] + [96] * 58),
    (6, [1, 2, 4] + [8] * 3 + [16] * 3 + [31] * 23),
    (6, [1, 2, 3, 4, 8] + [12] * 27),
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def far_vertex(tree: Tree, start: int) -> int:
    """Smallest id among the vertices farthest from start."""
    adj = tree.adjacency()
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    best = max(dist.values())
    return min(v for v, d in dist.items() if d == best)


def chain_to(size: int) -> tuple[Tree, Labeling]:
    """Four-copies chain from K_{1,3}, glued between two far leaves each step."""
    tree = Tree.of(4, [(0, 1), (0, 2), (0, 3)])
    lab = Labeling.of(3, {0: "001", 1: "010", 2: "100", 3: "110"})
    u, v = 1, 2
    while tree.vertex_count < size:
        tree, lab = four_copies(tree, lab, u, v)
        u = far_vertex(tree, 0)
        v = far_vertex(tree, u)
    return tree, lab


def pairing_instances():
    """20 seeded instances as (n, values).

    Five come from the low-span generator, five from the span-6 all-even
    one and ten from the few-values one, whose instances reach the
    bounded-value recursions.
    """
    rng = random.Random(20)
    gens = (
        (instgen.dim_le5_instance, range(3, 8)),
        (instgen.dim6_even_instance, range(7, 12)),
        (instgen.at_most_n_instance, (7, 8, 9, 10, 11) * 2),
    )
    for gen, dims in gens:
        for n in dims:
            yield gen(rng, n)


def pairing_stream() -> str:
    """Route and partition text of the pairing_instances."""
    out = []
    for n, values in pairing_instances():
        part, route = solve_pairing(PairingInstance.of(n, values))
        out.append(f"{route.tag}\n{format_partition(part)}")
    return "".join(out)


#: (seed, n) of few-values instances that solve_pairing lifts at level 6
#: with a repeated group whose even lift writes trace entries.
REPEATED_GROUP_CASES = ((15, 11), (58, 11), (59, 10))


def trace_instances():
    """The pairing_instances and six more, as (n, values).

    Three are REPEATED_GROUP_CASES.  The other three are n=14 all-even
    instances spanning 7 dimensions: solve_pairing sends nothing to
    DimHalfEven below n=14, since the route needs a span of at least 7
    dimensions.
    """
    yield from pairing_instances()
    for s, n in REPEATED_GROUP_CASES:
        yield instgen.at_most_n_instance(random.Random(s), n)
    rng = random.Random(14)
    for _ in range(3):
        yield instgen.even_span_instance(rng, 14, 7)


def three_coset_stream() -> str:
    """Trace and partition text of 24 seeded heavy three-coset instances at n = 8 and 9."""
    rng = random.Random(23)
    out = []
    for n in (8, 9) * 12:
        n, values = instgen.heavy_three_coset_instance(rng, n)
        part, route = solve_pairing(PairingInstance.of(n, values), "AtMostNValues")
        out.append("\n".join(route.trace) + "\n" + format_partition(part))
    return "".join(out)


def subset_split_stream() -> str:
    """Trace and partition text of 60 seeded subset-split instances at n = 8 and 9."""
    rng = random.Random(8)
    out = []
    for n in (8, 9) * 30:
        n, values = instgen.subset_split_instance(rng, n)
        part, route = solve_pairing(PairingInstance.of(n, values))
        out.append("\n".join((route.tag,) + route.trace) + "\n" + format_partition(part))
    return "".join(out)


def trace_stream() -> str:
    """Route tag and trace of the trace_instances, and the n=14 partitions."""
    out = []
    for n, values in trace_instances():
        part, route = solve_pairing(PairingInstance.of(n, values))
        out.append("\n".join((route.tag,) + route.trace) + "\n")
        if n == 14:
            assert route.tag == "DimHalfEven"
            out.append(format_partition(part))
    return "".join(out)


def exact_stream() -> str:
    """Exact-solver partition text of sweep and generic instances.

    The full n=3 sweep, every 7th instance of the n=4 sweep and 40 seeded
    generic n=5 instances.
    """
    out = []
    for n, step in ((3, 1), (4, 7)):
        for combo in itertools.islice(instgen.zero_sum_multisets(n), 0, None, step):
            out.append(format_partition(exact_pairing_solver(PairingInstance.of(n, list(combo)))))
    rng = random.Random(5)
    for _ in range(40):
        n, values = instgen.any_valid_instance(rng, 5)
        out.append(format_partition(exact_pairing_solver(PairingInstance.of(n, values))))
    return "".join(out)


def dense_odd_split_inputs():
    """The inputs of test_split_dense_odd_values_level6 in test_pairing.py."""
    for odd_count in (18, 20, 22, 24, 26, 28):
        rng = random.Random(odd_count)
        pool = list(range(1, 32))
        while True:
            picks = rng.sample(pool, odd_count - 1)
            last = instgen.xor_all(picks)
            if last and last < 32 and last not in picks:
                break
        fillers = [rng.randrange(1, 32) for _ in range((32 - odd_count) // 2)]
        values = picks + [last] + [w for w in fillers for _ in (0, 1)]
        rng.shuffle(values)
        yield values


def reduction_stream() -> str:
    """Partition text of forced routes and the level-6 dense-odd halvings.

    solve_pairing sends almost every low-span instance to Dim5Coset, so the
    half-dimension and bounded-value reductions are reached here by forcing
    their routes.
    """

    def forced(route: str, n: int, values) -> str:
        return format_partition(solve_pairing(PairingInstance.of(n, values), route)[0])

    rng = random.Random(30)
    out = []
    for n in range(4, 13):
        out.append(forced("DimHalfEven", *instgen.dim_half_even_instance(rng, n)))
    for n in (6, 7, 8, 9, 10, 11) * 3:
        out.append(forced("AtMostNValues", *instgen.at_most_n_instance(rng, n)))
    for n, values in AT_MOST_N_CASES:
        out.append(forced("AtMostNValues", n, values))
    for values in dense_odd_split_inputs():
        for half in _split_halves(Counter(values)):
            out.append(",".join(map(str, sorted(Counter(half).elements()))) + "\n")
    return "".join(out)


def prufer_tree(count: int, code) -> Tree:
    """The labeled tree on count vertices with the given Pruefer code."""
    degree = [1] * count
    for x in code:
        degree[x] += 1
    edges = []
    for x in code:
        leaf = degree.index(1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    edges.append(tuple(v for v in range(count) if degree[v] == 1))
    return Tree.of(count, edges)


def prefix_stream() -> str:
    """The four-copies prefixes for every odd k from 5 to 1,999, one line per k."""
    return "".join(
        "".join(map(str, solve_w_prefixes(k))) + "\n" for k in range(5, 2000, 2)
    )


def exhaustive_stream() -> str:
    """Exhaustive-search outcome, one line per tree.

    The trees are all 17 labeled trees on 2 and 4 vertices and 40 seeded
    labeled trees on 8 vertices (6 of them have a labeling).  A line holds
    the labels as vertex:bits, or "Infeasible"; node counts are left out.
    """
    trees = [prufer_tree(2, ())]
    trees += [prufer_tree(4, code) for code in itertools.product(range(4), repeat=2)]
    rng = random.Random(8)
    trees += [prufer_tree(8, [rng.randrange(8) for _ in range(6)]) for _ in range(40)]
    out = []
    for tree in trees:
        try:
            lab = search_labeling(tree, SearchConfig(strategy=BACKTRACKING))
        except Infeasible:
            out.append("Infeasible\n")
            continue
        out.append(" ".join(f"{v}:{x}" for v, x in sorted(lab.labels.items())) + "\n")
    return "".join(out)


@pytest.mark.parametrize("degrees", list(SMALL_DIAMETER_DIGESTS))
def test_small_diameter_output_is_pinned(degrees):
    tree, lab = label_small_diameter(CaterpillarSpec(degrees))
    assert sha256(tree_to_json(tree, lab)) == SMALL_DIAMETER_DIGESTS[degrees]


def test_large_caterpillar_output_is_pinned():
    tree, lab = label_large_caterpillar(CaterpillarSpec(LARGE_DEGREES))
    assert tree.vertex_count == 1 << 12
    assert sha256(tree_to_json(tree, lab)) == LARGE_DIGEST


@pytest.mark.parametrize("fixture, plan", list(PENDANT_DIGESTS))
def test_add_pendants_output_is_pinned(fixture, plan):
    tree, lab = add_pendants(*load_fixture(fixture), PendantPlan.parse(plan))
    assert sha256(tree_to_json(tree, lab)) == PENDANT_DIGESTS[fixture, plan]


def test_four_copies_chain_output_is_pinned():
    tree, lab = chain_to(1024)
    assert tree.vertex_count == 1024
    assert sha256(tree_to_json(tree, lab)) == CHAIN_DIGEST


def test_prefix_output_is_pinned():
    assert sha256(prefix_stream()) == PREFIX_DIGEST


def test_pairing_stream_output_is_pinned():
    assert sha256(pairing_stream()) == PAIRING_DIGEST


def test_reduction_stream_output_is_pinned():
    assert sha256(reduction_stream()) == REDUCTION_DIGEST


def test_route_traces_are_pinned():
    assert sha256(trace_stream()) == TRACE_DIGEST


def test_three_coset_stream_output_is_pinned():
    assert sha256(three_coset_stream()) == THREE_COSET_DIGEST


def test_subset_split_stream_output_is_pinned():
    assert sha256(subset_split_stream()) == SUBSET_SPLIT_DIGEST


def test_exact_output_is_pinned():
    assert sha256(exact_stream()) == EXACT_DIGEST


def test_exact_output_on_the_whole_n4_sweep_is_pinned():
    text = "".join(
        format_partition(exact_pairing_solver(PairingInstance.of(4, combo)))
        for combo in instgen.zero_sum_multisets(4)
    )
    assert text.count("\n") == 20295 * 8
    assert sha256(text) == SWEEP4_DIGEST


@pytest.mark.parametrize("n, values, nodes", EXHAUSTED_TREES + (ZERO_TARGET_TREE,))
def test_exact_search_tree_is_pinned(n, values, nodes):
    with pytest.raises(Infeasible) as info:
        _exact(n, Counter(values))
    assert str(info.value) == f"search space exhausted for n={n} after {nodes} nodes"


def test_exhaustive_search_output_is_pinned():
    assert sha256(exhaustive_stream()) == EXHAUSTIVE_DIGEST


@pytest.mark.parametrize("degrees, restarts", zip(BASE_CATERPILLARS, GREEDY_BASE_RESTARTS))
def test_greedy_restart_counts_are_pinned(degrees, restarts):
    tree = build_caterpillar(CaterpillarSpec(degrees))
    out = io.StringIO()
    search_labeling(tree, SearchConfig(seed=0), progress=out)
    last = out.getvalue().splitlines()[-1]
    assert last == f"restarts={restarts} best_depth={tree.vertex_count}"


def test_greedy_progress_is_pinned():
    out = io.StringIO()
    with pytest.raises(BudgetExhausted, match="no labeling within 1000 restarts"):
        search_labeling(
            prufer_tree(16, GREEDY_CAPPED_CODE),
            SearchConfig(seed=0, max_restarts=1000),
            progress=out,
        )
    assert out.getvalue() == GREEDY_CAPPED_PROGRESS
