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
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import deque

import pytest

import instgen
from setseq.constructors import four_copies, label_large_caterpillar, label_small_diameter
from setseq.errors import Infeasible
from setseq.pairing import (
    PairingInstance,
    _exact,
    exact_pairing_solver,
    format_partition,
    solve_at_most_n_values,
    solve_dim_half_even,
    solve_pairing,
    split_zero_sum_halves,
)
from setseq.search import BACKTRACKING, SearchConfig, search_labeling
from setseq.trees import CaterpillarSpec, Labeling, Tree, tree_to_json

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
LARGE_DIGEST = "53cdbb24a68cf99d1d077a075b393ad1d01cb58ce7c764db7eaa25c2319b0b63"

CHAIN_DIGEST = "1686864da7471148777006b0694580d4dfc62a9c6d5d27ffe294da1785d9942b"

PAIRING_DIGEST = "a5eb3c713cfa07c99e8c70508034100fcfa84f6a01d23d4d07b8bdd225206e60"

REDUCTION_DIGEST = "03ddfa27bd424e89f04f678b4f60369480a17423718712fc4896c48390ee6eb2"

EXHAUSTIVE_DIGEST = "624994988b492c11c62437d099bdf5a44df7d43adc52f056f699075a8ae1b315"

EXACT_DIGEST = "de1463db68bbff2ddcf0491dc2cb31621676e76e0350d87d9210e336c72833f0"

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


def pairing_stream() -> str:
    """Route and partition text of 20 seeded instances.

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
    out = []
    for gen, dims in gens:
        for n in dims:
            n, values = gen(rng, n)
            part, route = solve_pairing(PairingInstance.of(n, values))
            out.append(f"{route.tag}\n{format_partition(part)}")
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
    """The inputs of test_split_dense_odd_values_level6/7 in test_pairing.py."""
    for n, odd_counts in ((6, (18, 20, 22, 24, 26, 28)), (7, (34, 40, 50, 52, 58, 60))):
        size = 1 << (n - 1)
        for odd_count in odd_counts:
            rng = random.Random(odd_count)
            pool = list(range(1, size))
            while True:
                picks = rng.sample(pool, odd_count - 1)
                last = instgen.xor_all(picks)
                if last and last < size and last not in picks:
                    break
            fillers = [rng.randrange(1, size) for _ in range((size - odd_count) // 2)]
            values = picks + [last] + [w for w in fillers for _ in (0, 1)]
            rng.shuffle(values)
            yield PairingInstance.of(n, values)


def reduction_stream() -> str:
    """Partition text of the route-forced solvers and the dense-odd halvings.

    solve_pairing sends almost every low-span instance to Dim5Coset, so the
    half-dimension and bounded-value reductions are reached here through
    their own public solvers.
    """
    rng = random.Random(30)
    out = []
    for n in range(4, 13):
        n, values = instgen.dim_half_even_instance(rng, n)
        out.append(format_partition(solve_dim_half_even(PairingInstance.of(n, values))))
    for n in (6, 7, 8, 9, 10, 11) * 3:
        n, values = instgen.at_most_n_instance(rng, n)
        out.append(format_partition(solve_at_most_n_values(PairingInstance.of(n, values))))
    for n, values in AT_MOST_N_CASES:
        out.append(format_partition(solve_at_most_n_values(PairingInstance.of(n, values))))
    for inst in dense_odd_split_inputs():
        for half in split_zero_sum_halves(inst):
            out.append(",".join(map(str, half)) + "\n")
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
        out.append(" ".join(f"{v}:{x.bits}" for v, x in sorted(lab.vertex_labels.items())) + "\n")
    return "".join(out)


@pytest.mark.parametrize("degrees", list(SMALL_DIAMETER_DIGESTS))
def test_small_diameter_output_is_pinned(degrees):
    tree, lab = label_small_diameter(CaterpillarSpec(degrees))
    assert sha256(tree_to_json(tree, lab)) == SMALL_DIAMETER_DIGESTS[degrees]


def test_large_caterpillar_output_is_pinned():
    tree, lab = label_large_caterpillar(CaterpillarSpec(LARGE_DEGREES))
    assert tree.vertex_count == 1 << 12
    assert sha256(tree_to_json(tree, lab)) == LARGE_DIGEST


def test_four_copies_chain_output_is_pinned():
    tree, lab = chain_to(1024)
    assert tree.vertex_count == 1024
    assert sha256(tree_to_json(tree, lab)) == CHAIN_DIGEST


def test_pairing_stream_output_is_pinned():
    assert sha256(pairing_stream()) == PAIRING_DIGEST


def test_reduction_stream_output_is_pinned():
    assert sha256(reduction_stream()) == REDUCTION_DIGEST


def test_exact_output_is_pinned():
    assert sha256(exact_stream()) == EXACT_DIGEST


@pytest.mark.parametrize("n, values, nodes", EXHAUSTED_TREES)
def test_exact_search_tree_is_pinned(n, values, nodes):
    with pytest.raises(Infeasible) as info:
        _exact(n, values)
    assert str(info.value) == f"search space exhausted for n={n} after {nodes} nodes"


def test_exhaustive_search_output_is_pinned():
    assert sha256(exhaustive_stream()) == EXHAUSTIVE_DIGEST
