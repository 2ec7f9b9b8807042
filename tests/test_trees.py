"""Tests for the tree model and the set-sequential verifier.

The verifier's own judgment is cross-checked against a direct multiset
comparison written here; distances are checked against an all-pairs
breadth-first oracle.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
import time
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setseq.errors import NonCanonical, OutOfRange, PreconditionViolated
from setseq.gf2 import BitVec
from setseq.trees import (
    CaterpillarSpec,
    Labeling,
    Tree,
    build_caterpillar,
    diameter,
    even_degree_label_sum,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    verify_set_sequential,
)

FIGURE_LABELS = ["0001", "0111", "1101", "0010", "0101", "1100", "1110", "1010"]
FIGURE_EDGES = [(0, 1), (0, 3), (2, 3), (3, 7), (0, 4), (1, 5), (1, 6)]


def figure_tree():
    return Tree.of(8, FIGURE_EDGES)


def figure_labeling():
    return Labeling.of(4, dict(enumerate(FIGURE_LABELS)))


def path(count):
    return Tree.of(count, [(i, i + 1) for i in range(count - 1)])


def covers_exactly_once(t, lab):
    """Oracle: vertex labels plus edge XORs hit 1..2^n-1 each exactly once."""
    values = [lab.labels[v] for v in range(t.vertex_count)]
    values += [lab.labels[a] ^ lab.labels[b] for a, b in t.edges]
    return sorted(values) == list(range(1, 1 << lab.n))


def distance_oracle(t):
    """All-pairs shortest path lengths by repeated breadth-first search."""
    adj = t.adjacency()
    best = 0
    for start in range(t.vertex_count):
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        best = max(best, max(dist.values()))
    return best


def random_tree(rng, count):
    edges = [(rng.randrange(i), i) for i in range(1, count)]
    return Tree.of(count, edges)


def pruefer_tree(code):
    """The labeled tree on len(code) + 2 vertices with the given Pruefer code."""
    count = len(code) + 2
    degree = [1] * count
    for x in code:
        degree[x] += 1
    leaves = [v for v in range(count) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree.of(count, edges)


# ---------------------------------------------------------------------------
# Tree invariants


# Messages recorded before the check became one union-find pass.  Per-edge
# findings come in edge order and take precedence over connectivity.


def rejection(count, edges):
    with pytest.raises(PreconditionViolated) as info:
        Tree.of(count, edges)
    return str(info.value)


def test_tree_rejects_single_vertex():
    assert rejection(1, []) == "need at least 2 vertices, got 1"


def test_tree_rejects_wrong_edge_count():
    assert rejection(3, [(0, 1)]) == "a tree on 3 vertices has 2 edges, got 1"


def test_tree_rejects_cycle_with_isolated_vertex():
    # Three distinct edges on four vertices must either connect everything
    # or close a cycle and strand someone.
    assert rejection(4, [(0, 1), (0, 2), (1, 2)]) == "edges do not connect all vertices"
    assert rejection(5, [(0, 1), (2, 3), (3, 4), (2, 4)]) == "edges do not connect all vertices"


def test_tree_rejects_duplicate_edge():
    assert rejection(4, [(0, 1), (1, 0), (2, 3)]) == "duplicate edge (0, 1)"


def test_tree_rejects_loop_edge():
    # Named as a loop: Tree.of and the JSON reader orient every edge, so
    # "not stored small-id first" cannot be what is wrong with it.
    assert rejection(3, [(0, 0), (1, 2)]) == "edge (0, 0) is a loop"
    doc = {"n": 2, "vertices": [{"id": i} for i in range(3)], "edges": [[2, 2], [0, 1]]}
    with pytest.raises(PreconditionViolated, match=r"edge \(2, 2\) is a loop"):
        tree_from_json(json.dumps(doc))


def test_tree_rejects_edges_not_stored_small_id_first():
    with pytest.raises(PreconditionViolated) as info:
        Tree(3, ((1, 0), (1, 2)))
    assert str(info.value) == "edge (1, 0) not stored small-id first"


def test_tree_rejects_out_of_range_ids():
    assert rejection(3, [(0, 1), (1, 3)]) == "edge (1, 3) out of range"
    assert rejection(3, [(-1, 1), (1, 2)]) == "edge (-1, 1) out of range"


def test_tree_rejects_non_int_vertex_count():
    assert rejection(2.0, [(0, 1)]) == "vertex count must be an int, got 2.0"


def test_tree_rejects_non_int_vertex_ids():
    assert rejection(2, [(0, 1.0)]) == "edge (0, 1.0) has a non-int vertex id"
    # Ids that do not compare with an int are not reoriented first.
    assert rejection(2, [(0, "x")]) == "edge (0, 'x') has a non-int vertex id"
    assert rejection(2, [("x", 0)]) == "edge ('x', 0) has a non-int vertex id"


def test_tree_of_rejects_entries_that_are_not_pairs():
    assert rejection(2, [None]) == "edge None is not a pair of vertex ids"
    assert rejection(2, [(0, 1, 2)]) == "edge (0, 1, 2) is not a pair of vertex ids"
    assert rejection(2, [(0,)]) == "edge (0,) is not a pair of vertex ids"


def test_tree_of_rejects_edges_that_are_not_iterable():
    # A bare int is no edge list.
    assert rejection(3, 5) == "edges must be an iterable of vertex-id pairs, got int"


def direct_rejection(count, edges):
    with pytest.raises(PreconditionViolated) as info:
        Tree(count, edges)
    return str(info.value)


def test_tree_rejects_edges_that_are_not_tuples_of_pairs():
    # The constructor takes exactly what it stores: a tuple of 2-tuples, so
    # a frozen Tree stays hashable.
    assert direct_rejection(2, (None,)) == "edge None is not a pair of vertex ids"
    assert direct_rejection(2, ((0, 1, 2),)) == "edge (0, 1, 2) is not a pair of vertex ids"
    assert direct_rejection(2, ([0, 1],)) == "edge [0, 1] is not a pair of vertex ids"
    assert direct_rejection(3, ((0, 1), [1, 2])) == "edge [1, 2] is not a pair of vertex ids"
    assert direct_rejection(2, [(0, 1)]) == "edges must be a tuple, got list"
    assert direct_rejection(2, None) == "edges must be a tuple, got NoneType"
    assert hash(Tree(2, ((0, 1),))) == hash(Tree.of(2, [[1, 0]]))


def test_tree_rejection_precedence():
    # A duplicate named before a later out-of-range edge; a cycle only
    # once every edge has passed its own checks.
    assert rejection(4, [(0, 1), (0, 1), (2, 7)]) == "duplicate edge (0, 1)"
    assert rejection(5, [(0, 1), (1, 2), (0, 2), (3, 9)]) == "edge (3, 9) out of range"


def is_tree_oracle(count, edges):
    """Connected with count - 1 edges, by breadth-first search."""
    adj = {v: [] for v in range(count)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    queue = [0]
    while queue:
        for y in adj[queue.pop()]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(edges) == count - 1 and len(seen) == count


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(2, 9))
def test_tree_accepts_exactly_the_trees(data, count):
    ends = st.integers(0, count - 1)
    edges = data.draw(st.lists(st.tuples(ends, ends), min_size=count - 1, max_size=count - 1))
    if is_tree_oracle(count, edges):
        assert Tree.of(count, edges).vertex_count == count
    else:
        with pytest.raises(PreconditionViolated):
            Tree.of(count, edges)


def test_tree_of_normalizes_orientation():
    t = Tree.of(3, [(1, 0), (2, 1)])
    assert t.edges == ((0, 1), (1, 2))


def test_tree_degrees_and_adjacency_agree():
    t = figure_tree()
    adj = t.adjacency()
    assert t.degrees() == [len(adj[v]) for v in range(8)]
    assert t.degrees() == [3, 3, 1, 3, 1, 1, 1, 1]


# ---------------------------------------------------------------------------
# caterpillar specs


def test_spec_parse_and_str_roundtrip():
    spec = CaterpillarSpec.parse("T[3,3,5,3,3,3]")
    assert spec.degrees == (3, 3, 5, 3, 3, 3)
    assert str(spec) == "T[3,3,5,3,3,3]"
    assert CaterpillarSpec.parse(" T[ 2 , 2 ] ").degrees == (2, 2)


def test_spec_parse_rejects_garbage():
    for bad in ("T[]", "T[3,3", "[3,3]", "T[a]", "T"):
        with pytest.raises(PreconditionViolated):
            CaterpillarSpec.parse(bad)


@pytest.mark.parametrize("value,kind", [(None, "NoneType"), (5, "int"), ([3, 3], "list")])
def test_spec_parse_rejects_values_that_are_not_text(value, kind):
    with pytest.raises(PreconditionViolated, match=f"spec must be a string, got {kind}"):
        CaterpillarSpec.parse(value)


def test_spec_rejects_non_canonical():
    with pytest.raises(NonCanonical):
        CaterpillarSpec((3, 1, 3))
    with pytest.raises(NonCanonical):
        CaterpillarSpec((0,))
    with pytest.raises(NonCanonical):
        CaterpillarSpec(())


def test_spec_rejects_non_int_degrees():
    # A float degree used to be accepted and printed as T[3.0].
    with pytest.raises(PreconditionViolated):
        CaterpillarSpec((3.0,))
    # A bare int is no degree list; it used to raise a bare TypeError.
    with pytest.raises(PreconditionViolated, match="^degrees must be an iterable of ints, got int"):
        CaterpillarSpec(5)


def test_spec_rejects_more_vertices_than_any_labeling_covers():
    start = time.monotonic()
    for degrees in ((2**31 - 1,), (2**28, 2**28 + 2)):
        with pytest.raises(OutOfRange):
            CaterpillarSpec(degrees)
    assert time.monotonic() - start < 1.0
    assert CaterpillarSpec((2**29 - 1,)).vertex_count == 2**29


def test_spec_single_edge_is_canonical():
    spec = CaterpillarSpec((1,))
    assert spec.vertex_count == 2
    assert spec.diameter == 1


def test_spec_derived_quantities():
    spec = CaterpillarSpec((3, 3, 3))
    assert spec.vertex_count == 8
    assert spec.diameter == 4
    star = CaterpillarSpec((5,))
    assert star.vertex_count == 6
    assert star.diameter == 2
    assert CaterpillarSpec((5, 3, 3, 3, 3, 3)).vertex_count == 16
    assert CaterpillarSpec((5, 3, 3, 3, 3, 3)).diameter == 7


# ---------------------------------------------------------------------------
# building caterpillars


def test_build_single_edge():
    t = build_caterpillar(CaterpillarSpec((1,)))
    assert t.vertex_count == 2
    assert t.edges == ((0, 1),)


def test_build_numbering_is_stable():
    # Path vertices first, then pendants grouped by anchor in path order.
    t = build_caterpillar(CaterpillarSpec((3, 2)))
    assert t.vertex_count == 5
    assert t.edges == ((0, 1), (0, 2), (0, 3), (1, 4))


@pytest.mark.parametrize(
    "degrees,count,diam",
    [
        ((1,), 2, 1),
        ((3,), 4, 2),
        ((3, 3, 3), 8, 4),
        ((5, 3, 3, 3, 3, 3), 16, 7),
        ((3, 3, 3, 2, 2, 2, 2, 2, 2, 3), 16, 11),
        ((2,) * 14, 16, 15),
    ],
)
def test_build_matches_derived_counts(degrees, count, diam):
    spec = CaterpillarSpec(degrees)
    t = build_caterpillar(spec)
    assert t.vertex_count == spec.vertex_count == count
    assert diameter(t) == spec.diameter == diam


def test_build_realizes_declared_degrees():
    degrees = (4, 2, 5, 2, 3)
    t = build_caterpillar(CaterpillarSpec(degrees))
    assert t.degrees()[: len(degrees)] == list(degrees)
    assert all(d == 1 for d in t.degrees()[len(degrees) :])


# ---------------------------------------------------------------------------
# structural queries


def test_diameter_examples():
    assert diameter(path(2)) == 1
    assert diameter(path(4)) == 3
    assert diameter(build_caterpillar(CaterpillarSpec((3, 3, 3)))) == 4
    assert diameter(build_caterpillar(CaterpillarSpec((3,)))) == 2


def test_diameter_matches_oracle_on_random_trees():
    rng = random.Random(20260825)
    for _ in range(40):
        t = random_tree(rng, rng.randrange(2, 40))
        assert diameter(t) == distance_oracle(t)
    # Uniform labeled trees, and paths and stars, whose double sweep starts
    # at an end, at the center or at a leaf.
    for count in range(2, 65):
        shapes = [
            path(count),
            Tree.of(count, [(0, v) for v in range(1, count)]),
            Tree.of(count, [(v, count - 1) for v in range(count - 1)]),
        ]
        shapes += [
            pruefer_tree([rng.randrange(count) for _ in range(count - 2)]) for _ in range(8)
        ]
        for t in shapes:
            assert diameter(t) == distance_oracle(t), (count, t.edges)


def test_degree_parities_star_and_path():
    star = build_caterpillar(CaterpillarSpec((3,)))
    assert [d & 1 for d in star.degrees()] == [1, 1, 1, 1]
    assert [d & 1 for d in path(4).degrees()] == [1, 0, 0, 1]


def test_degree_parities_base_sixteen_vertex_case():
    t = build_caterpillar(CaterpillarSpec((3, 3, 3, 2, 2, 2, 2, 2, 2, 3)))
    parities = [d & 1 for d in t.degrees()]
    assert parities.count(0) == 6
    assert parities[:10] == [1, 1, 1, 0, 0, 0, 0, 0, 0, 1]


# ---------------------------------------------------------------------------
# verifier


def test_figure_labeling_verifies():
    report = verify_set_sequential(figure_tree(), figure_labeling())
    assert report.valid
    assert report.violations == ()
    assert covers_exactly_once(figure_tree(), figure_labeling())


def test_figure_labeling_breaks_under_colliding_mutations():
    # Not every single-label rewrite invalidates (a leaf can trade values
    # with its pendant edge), but rewriting to zero or to another vertex's
    # label always must.
    t = figure_tree()
    base = figure_labeling()
    for v in range(8):
        for other in list(range(8)) + [None]:
            if other == v:
                continue
            labels = dict(base.labels)
            labels[v] = 0 if other is None else base.labels[other]
            report = verify_set_sequential(t, Labeling(4, labels))
            assert not report.valid


def test_leaf_label_can_trade_with_its_edge():
    # The swap witness for the comment above: leaf 4 hangs off vertex 0, so
    # replacing its label with label(4) xor label(0) swaps the vertex and
    # edge values and the result is again set-sequential.
    labels = dict(figure_labeling().labels)
    labels[4] = labels[4] ^ labels[0]
    assert verify_set_sequential(figure_tree(), Labeling(4, labels)).valid


def test_single_edge_verifies():
    t = path(2)
    lab = Labeling.of(2, {0: "01", 1: "10"})
    report = verify_set_sequential(t, lab)
    assert report.valid


def test_path_four_duplicate_edge_value():
    lab = Labeling.of(3, {0: "001", 1: "010", 2: "100", 3: "111"})
    report = verify_set_sequential(path(4), lab)
    assert not report.valid
    dups = [v for v in report.violations if v.kind == "DuplicateValue"]
    assert len(dups) == 1
    assert str(dups[0].value) == "011"
    assert set(dups[0].locations) == {"edge 0-1", "edge 2-3"}
    missing = [v for v in report.violations if v.kind == "MissingValue"]
    assert [str(v.value) for v in missing] == ["101"]


def test_violation_value_is_the_bitstring_the_report_prints():
    lab = Labeling.of(3, {0: "001", 1: "010", 2: "100", 3: "111"})
    report = verify_set_sequential(path(4), lab)
    assert [(v.kind, v.value) for v in report.violations] == [
        ("DuplicateValue", "011"),
        ("MissingValue", "101"),
    ]
    assert [str(v) for v in report.violations] == [
        "DuplicateValue value=011 at edge 0-1, edge 2-3",
        "MissingValue value=101",
    ]


def test_verifier_reports_size_mismatch():
    lab = Labeling.of(3, {0: "001", 1: "010"})
    report = verify_set_sequential(path(2), lab)
    assert not report.valid
    kinds = [v.kind for v in report.violations]
    assert kinds == ["SizeMismatch"]


def test_verifier_reports_unlabeled_vertices():
    lab = Labeling.of(2, {0: "01"})
    report = verify_set_sequential(path(2), lab)
    assert not report.valid
    assert any(
        v.kind == "SizeMismatch" and "vertex 1 unlabeled" in v.locations
        for v in report.violations
    )


def test_verifier_reports_labels_outside_the_tree():
    text = resources.files("setseq").joinpath("fixtures", "T[1].json").read_text()
    tree, lab = tree_from_json(text)
    assert verify_set_sequential(tree, lab).valid
    extra = Labeling(2, {**lab.labels, 5: 2, -1: 3})
    report = verify_set_sequential(tree, extra)
    assert [str(v) for v in report.violations] == [
        "SizeMismatch at vertex -1 not in the tree, vertex 5 not in the tree"
    ]


def test_report_require_raises_with_every_violation():
    verify_set_sequential(figure_tree(), figure_labeling()).require(OutOfRange, "unused")
    lab = Labeling.of(2, {0: "01"})
    report = verify_set_sequential(path(2), lab)
    with pytest.raises(OutOfRange) as info:
        report.require(OutOfRange, "the path")
    assert str(info.value) == "the path: SizeMismatch at vertex 1 unlabeled"


def test_verifier_reports_zero_and_duplicates_together():
    lab = Labeling.of(2, {0: "00", 1: "11"})
    report = verify_set_sequential(path(2), lab)
    kinds = sorted(v.kind for v in report.violations)
    assert kinds == ["DuplicateValue", "MissingValue", "MissingValue", "ZeroLabel"]
    zero = next(v for v in report.violations if v.kind == "ZeroLabel")
    assert zero.locations == ("vertex 0",)


def test_verifier_is_total_on_arbitrary_labelings():
    rng = random.Random(7)
    t = figure_tree()
    for _ in range(50):
        labels = {v: rng.randrange(16) for v in range(8) if rng.random() < 0.9}
        report = verify_set_sequential(t, Labeling(4, labels))
        assert report.valid == (not report.violations)
        assert report.valid == (
            len(labels) == 8 and covers_exactly_once(t, Labeling(4, labels))
        )


def test_violation_str_is_readable():
    lab = Labeling.of(3, {0: "001", 1: "010", 2: "100", 3: "111"})
    report = verify_set_sequential(path(4), lab)
    text = "\n".join(str(v) for v in report.violations)
    assert "DuplicateValue value=011 at edge 0-1, edge 2-3" in text


def test_verifier_report_text_is_pinned():
    # A zero on a vertex and an edge, two duplicated values, four missing.
    lab = Labeling.of(3, {0: "011", 1: "011", 2: "001", 3: "000"})
    report = verify_set_sequential(path(4), lab)
    assert [str(v) for v in report.violations] == [
        "ZeroLabel value=000 at vertex 3, edge 0-1",
        "DuplicateValue value=001 at vertex 2, edge 2-3",
        "DuplicateValue value=011 at vertex 0, vertex 1",
        "MissingValue value=100",
        "MissingValue value=101",
        "MissingValue value=110",
        "MissingValue value=111",
    ]


# ---------------------------------------------------------------------------
# even-degree label sum


def test_even_degree_sum_empty_for_figure():
    # Every vertex of the figure tree has odd degree, so the sum is empty.
    assert even_degree_label_sum(figure_tree(), figure_labeling()) == 0


def test_even_degree_sum_flags_path_middles():
    lab = Labeling.of(3, {0: "001", 1: "010", 2: "100", 3: "111"})
    assert even_degree_label_sum(path(4), lab) == 0b110


def test_even_degree_sum_requires_full_coverage():
    with pytest.raises(PreconditionViolated):
        even_degree_label_sum(path(2), Labeling.of(2, {0: "01"}))


def test_path_four_never_verifies_exhaustively():
    # The two middle vertices have even degree, so their labels would have
    # to be equal; checked here over every injective assignment at n = 3.
    t = path(4)
    for combo in itertools.permutations(range(1, 8), 4):
        lab = Labeling(3, dict(enumerate(combo)))
        assert not verify_set_sequential(t, lab).valid


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_valid_labelings_have_zero_even_degree_sum(seed):
    # Degenerate on trees we can label here (the figure); the real property
    # sweep runs over every constructor output elsewhere.  This checks the
    # contrapositive on random invalid labelings: a nonzero even-degree sum
    # must come with a failing report.
    rng = random.Random(seed)
    t = random_tree(rng, rng.randrange(4, 12))
    n = 4
    labels = {v: rng.randrange(16) for v in range(t.vertex_count)}
    lab = Labeling(n, labels)
    if even_degree_label_sum(t, lab) != 0:
        assert not verify_set_sequential(t, lab).valid


# ---------------------------------------------------------------------------
# JSON and DOT round trips


def fixture_text(name):
    return resources.files("setseq").joinpath("fixtures", name).read_text()


def test_bundled_figure_fixture_verifies():
    tree, lab = tree_from_json(fixture_text("figure1.json"))
    assert lab is not None
    report = verify_set_sequential(tree, lab)
    assert report.valid


def test_json_roundtrip_labeled():
    text = tree_to_json(figure_tree(), figure_labeling())
    tree, lab = tree_from_json(text)
    assert tree == figure_tree()
    assert lab == figure_labeling()
    assert json.loads(text)["n"] == 4


def test_json_roundtrip_unlabeled():
    text = tree_to_json(figure_tree())
    tree, lab = tree_from_json(text)
    assert tree == figure_tree()
    assert lab is None
    assert json.loads(text)["n"] == 4


def test_json_unlabeled_needs_explicit_n_for_odd_sizes():
    with pytest.raises(PreconditionViolated):
        tree_to_json(path(3))


def reference_json(t, lab, n):
    """The layout the writer emits, built with the json module."""
    vertices = []
    for v in range(t.vertex_count):
        doc = {"id": v}
        if lab is not None and v in lab.labels:
            doc["label"] = str(BitVec(lab.labels[v], n))
        vertices.append(doc)
    payload = {"n": n, "vertices": vertices, "edges": [[a, b] for a, b in t.edges]}
    return json.dumps(payload, indent=1) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 64),
    st.sampled_from(["full", "partial", "none"]),
    st.integers(1, 30),
    st.booleans(),
)
def test_json_writer_emits_the_json_module_layout(seed, count, labels, width, infer):
    # An unlabeled tree is written at the n with |V| + |E| = 2^n - 1, so
    # unlabeled trees are drawn on 2^k vertices only, at n = k + 1.
    rng = random.Random(seed)
    if labels == "none":
        count, infer = 1 << (count.bit_length() - 1), True
    t = random_tree(rng, count)
    infer = infer and count & (count - 1) == 0
    n = count.bit_length() if infer else width
    lab = None
    if labels != "none":
        keep = 1.0 if labels == "full" else 0.5
        lab = Labeling(n, {v: rng.randrange(1 << n) for v in range(count) if rng.random() < keep})
    assert tree_to_json(t, lab) == reference_json(t, lab, n)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 64),
    st.integers(1, 30),
    st.sampled_from([1.0, 0.5]),
)
def test_int_labels_round_trip_in_every_form(seed, count, n, keep):
    # The JSON round trip gives back the same int map, and Labeling.of reads
    # the int and bitstring forms of it as one labeling.
    rng = random.Random(seed)
    t = random_tree(rng, count)
    ints = {v: rng.randrange(1 << n) for v in range(count) if v == 0 or rng.random() < keep}
    lab = Labeling(n, ints)
    back_tree, back = tree_from_json(tree_to_json(t, lab))
    assert back_tree == t and back.n == n and back.labels == ints
    texts = {v: format(x, f"0{n}b") for v, x in ints.items()}
    assert Labeling.of(n, ints) == Labeling.of(n, texts) == lab


GENERATED_FIXTURES = sorted(
    p.name
    for p in resources.files("setseq").joinpath("fixtures").iterdir()
    if p.name != "figure1.json"
)


@pytest.mark.parametrize("name", GENERATED_FIXTURES)
def test_generated_fixtures_re_emit_byte_for_byte(name):
    # figure1.json is laid out by hand; every other fixture is writer output.
    text = fixture_text(name)
    assert tree_to_json(*tree_from_json(text)) == text


def test_json_parse_errors():
    # Messages recorded before the reader validated in one loop per list.
    good = json.loads(tree_to_json(figure_tree(), figure_labeling()))
    for mangle, message in (
        (lambda d: d.pop("edges"), "missing required field 'edges'"),
        (lambda d: d["vertices"].pop(), "a tree on 7 vertices has 6 edges, got 7"),
        (lambda d: d["vertices"][0].update(label="01"), "expected width 4, got 2: '01'"),
        (lambda d: d["vertices"][0].update(id=99), "vertex ids must be exactly 0..count-1"),
        (lambda d: d["edges"].append([0, 0]), "a tree on 8 vertices has 7 edges, got 8"),
        (lambda d: d.update(n="four"), "field 'n' must be an integer in 1..30"),
    ):
        doc = json.loads(json.dumps(good))
        mangle(doc)
        with pytest.raises(PreconditionViolated) as info:
            tree_from_json(json.dumps(doc))
        assert str(info.value) == message
    with pytest.raises(PreconditionViolated) as info:
        tree_from_json("not json at all")
    assert str(info.value) == "not valid JSON: Expecting value: line 1 column 1 (char 0)"
    with pytest.raises(PreconditionViolated) as info:
        tree_from_json("[1, 2, 3]")
    assert str(info.value) == "top level must be an object"


EDGE_DOC = {
    "n": 2,
    "vertices": [{"id": 0, "label": "01"}, {"id": 1, "label": "11"}],
    "edges": [[0, 1]],
}


@pytest.mark.parametrize(
    "doc,message",
    [
        (
            {**EDGE_DOC, "vertices": [{"id": 0, "label": 5}, {"id": 1, "label": "11"}]},
            "label of vertex 0 is not a string",
        ),
        (
            {**EDGE_DOC, "vertices": [{"id": 0, "label": ["0", "1"]}, {"id": 1, "label": "11"}]},
            "label of vertex 0 is not a string",
        ),
        ({**EDGE_DOC, "vertices": 5}, "field 'vertices' must be a list"),
        ({**EDGE_DOC, "edges": None}, "field 'edges' must be a list"),
        (
            {"n": True, "vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 1]]},
            "field 'n' must be an integer in 1..30",
        ),
        (
            {**EDGE_DOC, "vertices": [{"id": False, "label": "01"}, {"id": 1, "label": "11"}]},
            "bad vertex entry {'id': False, 'label': '01'}",
        ),
        ({**EDGE_DOC, "edges": [[0, True]]}, "bad edge entry [0, True]"),
        (
            {**EDGE_DOC, "vertices": [{"id": 0, "label": "0a"}, {"id": 1, "label": "11"}]},
            "not a bitstring: '0a'",
        ),
        ({**EDGE_DOC, "edges": [[1, 0, 2]]}, "bad edge entry [1, 0, 2]"),
        ({**EDGE_DOC, "edges": [[0, 5]]}, "edge (0, 5) out of range"),
    ],
    ids=[
        "int-label",
        "list-label",
        "int-vertices",
        "null-edges",
        "bool-n",
        "bool-id",
        "bool-end",
        "bad-char",
        "long-edge",
        "out-of-range",
    ],
)
def test_json_rejects_wrongly_typed_fields(doc, message):
    tree_from_json(json.dumps(EDGE_DOC))
    with pytest.raises(PreconditionViolated) as info:
        tree_from_json(json.dumps(doc))
    assert str(info.value) == message


def test_json_rejects_deeply_nested_documents():
    with pytest.raises(PreconditionViolated, match="nesting too deep"):
        tree_from_json("[" * 100_000)


@pytest.mark.parametrize("value,kind", [(None, "NoneType"), (5, "int"), ({"n": 2}, "dict")])
def test_json_rejects_values_that_are_not_text(value, kind):
    # What json.loads reads is accepted: str, and bytes holding a document.
    assert tree_from_json(json.dumps(EDGE_DOC).encode())[0] == Tree.of(2, [(0, 1)])
    with pytest.raises(PreconditionViolated, match=f"document must be text, got {kind}"):
        tree_from_json(value)
    with pytest.raises(PreconditionViolated, match="not valid JSON: 'utf-8' codec"):
        tree_from_json(b'{"n": "\xff"}')


def test_labeling_rejects_wrongly_typed_labels():
    with pytest.raises(PreconditionViolated):
        Labeling.of(3, {0: 2.0})
    with pytest.raises(PreconditionViolated):
        Labeling.of(3.0, {0: "001"})


def test_labeling_of_checks_n_before_reading_bitstrings():
    # n is checked before any label is read as a bitstring of width n.
    with pytest.raises(PreconditionViolated, match=r"^n must be an int in 1\.\.30, got '3'$"):
        Labeling.of("3", {0: "001"})


def test_labeling_of_takes_int_and_bitstring_labels():
    lab = Labeling.of(3, {0: "001", 1: "010", 2: 0b100})
    assert lab == Labeling(3, {0: 0b001, 1: 0b010, 2: 0b100})
    assert lab.labels == {0: 0b001, 1: 0b010, 2: 0b100}
    # Any other label, a BitVec too, meets Labeling's own check.
    with pytest.raises(PreconditionViolated) as info:
        Labeling.of(3, {0: 1, 1: BitVec(1, 3)})
    assert str(info.value) == "label of vertex 1 is BitVec(bits=1, dim=3), not an int in 0..7"


def test_labeling_keeps_its_own_labels_and_read_only_bitvec_views():
    given = {0: 0b001, 1: 0b010}
    lab = Labeling(3, given)
    given[0] = 0b1000
    assert lab.labels == {0: 0b001, 1: 0b010}
    assert lab.vertex_labels is lab.vertex_labels
    assert dict(lab.vertex_labels) == {0: BitVec(0b001, 3), 1: BitVec(0b010, 3)}
    with pytest.raises(TypeError):
        lab.vertex_labels[0] = BitVec(0b100, 3)


@pytest.mark.parametrize("label", [True, 1.0, "001", None, BitVec(1, 3), 8, -1])
def test_labeling_rejects_a_label_that_is_not_an_int(label):
    # At n = 3 a label is an int in 0..7; bools are not ints here.
    with pytest.raises(PreconditionViolated) as info:
        Labeling(3, {0: label})
    assert str(info.value) == f"label of vertex 0 is {label!r}, not an int in 0..7"


def test_labeling_rejects_labels_that_are_not_a_mapping():
    with pytest.raises(PreconditionViolated, match="^labels must be a mapping, got list$"):
        Labeling(3, [(0, 1)])


def test_labeling_of_rejects_labels_that_are_not_a_mapping():
    with pytest.raises(PreconditionViolated, match="^labels must be a mapping, got list$"):
        Labeling.of(3, [(0, 1)])


@pytest.mark.parametrize("vertex", ["a", 1.0, True, (0,)])
def test_labeling_rejects_a_vertex_id_that_is_not_an_int(vertex):
    with pytest.raises(PreconditionViolated, match=r"^vertex id .* is not an int$"):
        Labeling.of(3, {vertex: 1})


def test_dot_export_annotates_labels_and_xors():
    dot = tree_to_dot(figure_tree(), figure_labeling())
    assert '0 [label="0001"];' in dot
    assert '0 -- 1 [label="0110"];' in dot
    assert dot.startswith("graph setseq {")


def test_dot_export_unlabeled():
    dot = tree_to_dot(path(2))
    assert "0 -- 1;" in dot
    assert "label=" not in dot
