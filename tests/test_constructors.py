"""Construction pipelines: pendant doubling, halving recursions, four copies."""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setseq import constructors
from setseq.constructors import (
    BASE_CATERPILLARS,
    PREFIX_MAP,
    PendantPlan,
    _w_sequence,
    add_pendants,
    four_copies,
    label_large_caterpillar,
    label_small_diameter,
    load_fixture,
    solve_w_prefixes,
)
from setseq.errors import (
    InternalSearchFailed,
    NotLeaf,
    NotOddDegree,
    NotPowerOfTwo,
    OutOfRange,
    PairingNotCovered,
    PlanSizeMismatch,
    PreconditionViolated,
    TargetSumNonzero,
    TooFewVertices,
    TooSmall,
)
from setseq.gf2 import BitVec, echelon_basis
from setseq.trees import (
    CaterpillarSpec,
    Labeling,
    Tree,
    diameter,
    tree_from_json,
    tree_to_json,
    verify_set_sequential,
)
from test_determinism import LARGE_DEGREES


def covers_exactly_once(tree: Tree, lab: Labeling) -> bool:
    """Independent full-coverage check, bypassing the package verifier."""
    values = [lab.labels[v] for v in range(tree.vertex_count)]
    values += [lab.labels[a] ^ lab.labels[b] for a, b in tree.edges]
    return sorted(values) == list(range(1, (1 << lab.n)))


def single_edge() -> tuple[Tree, Labeling]:
    return Tree.of(2, [(0, 1)]), Labeling.of(2, {0: "01", 1: "10"})


def three_star() -> tuple[Tree, Labeling]:
    tree = Tree.of(4, [(0, 1), (0, 2), (0, 3)])
    return tree, Labeling.of(3, {0: "001", 1: "010", 2: "100", 3: "110"})


def odd_spec(count: int, diam: int, rng: random.Random) -> CaterpillarSpec:
    """Random all-odd caterpillar degrees with the given size and diameter."""
    k = 1 if diam == 2 else diam - 1
    total = count + k - 2
    extra = total - 3 * k
    assert extra >= 0 and extra % 2 == 0
    degrees = [3] * k
    for _ in range(extra // 2):
        degrees[rng.randrange(k)] += 2
    spec = CaterpillarSpec(tuple(degrees))
    assert spec.vertex_count == count and spec.diameter == diam
    return spec


def far_leaf(tree: Tree, start: int) -> int:
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


def diameter_ends(tree: Tree) -> tuple[int, int]:
    a = far_leaf(tree, 0)
    return a, far_leaf(tree, a)


# ---------------------------------------------------------------------------
# pendant plans


def test_plan_parse_round_trip():
    plan = PendantPlan.parse("0:3, 2:1,5:4")
    assert plan.anchors == ((0, 3), (2, 1), (5, 4))
    assert plan.total() == 8


@pytest.mark.parametrize("text", ["", "0", "0:", ":3", "0:x", "0;3"])
def test_plan_parse_rejects_garbage(text):
    with pytest.raises(PreconditionViolated):
        PendantPlan.parse(text)


@pytest.mark.parametrize("value,kind", [(None, "NoneType"), (5, "int"), (["0:1"], "list")])
def test_plan_parse_rejects_values_that_are_not_text(value, kind):
    with pytest.raises(PreconditionViolated, match=f"plan must be a string, got {kind}"):
        PendantPlan.parse(value)


def test_plan_rejects_bad_anchors():
    with pytest.raises(PreconditionViolated):
        PendantPlan(((0, 0),))
    with pytest.raises(PreconditionViolated):
        PendantPlan(((1, 2), (1, 1)))
    with pytest.raises(PreconditionViolated):
        PendantPlan(((-1, 2),))


def test_plan_rejects_non_int_counts():
    with pytest.raises(PreconditionViolated):
        PendantPlan(((0, 1.5),))


@pytest.mark.parametrize(
    "anchors, message",
    [
        (5, "anchors must be an iterable of (id, count) pairs, got int"),
        (None, "anchors must be an iterable of (id, count) pairs, got NoneType"),
        (((1, 2, 3),), "anchor (1, 2, 3) is not a pair of ints"),
        ("ab", "anchor 'a' is not a pair of ints"),
    ],
)
def test_plan_rejects_anchors_that_are_not_pairs(anchors, message):
    with pytest.raises(PreconditionViolated) as info:
        PendantPlan(anchors)
    assert str(info.value) == message


def test_plan_keeps_its_anchors_as_a_tuple_of_pairs():
    plan = PendantPlan([[0, 1], (2, 3)])
    assert plan.anchors == ((0, 1), (2, 3))
    assert plan == PendantPlan(((0, 1), (2, 3)))


# ---------------------------------------------------------------------------
# add_pendants


def test_double_the_figure_tree():
    tree, lab = load_fixture("figure1.json")
    by_label = {x: v for v, x in lab.labels.items()}
    plan = PendantPlan(
        (
            (by_label[0b1101], 1),
            (by_label[0b1010], 1),
            (by_label[0b0010], 3),
            (by_label[0b0101], 1),
            (by_label[0b0111], 2),
        )
    )
    out_tree, out_lab = add_pendants(tree, lab, plan)
    assert out_tree.vertex_count == 16
    assert out_lab.n == 5
    assert covers_exactly_once(out_tree, out_lab)


def test_unbalanced_targets_rejected():
    tree, lab = single_edge()
    with pytest.raises(TargetSumNonzero):
        add_pendants(tree, lab, PendantPlan(((0, 1), (1, 1))))


def test_double_the_single_edge():
    tree, lab = single_edge()
    out_tree, out_lab = add_pendants(tree, lab, PendantPlan(((0, 2),)))
    assert out_tree.vertex_count == 4
    assert sorted(out_tree.degrees()) == [1, 1, 1, 3]
    assert covers_exactly_once(out_tree, out_lab)


def test_plan_size_must_match_the_base():
    tree, lab = single_edge()
    with pytest.raises(PlanSizeMismatch):
        add_pendants(tree, lab, PendantPlan(((0, 1),)))


def test_anchor_must_exist():
    tree, lab = single_edge()
    with pytest.raises(PreconditionViolated):
        add_pendants(tree, lab, PendantPlan(((5, 2),)))


def test_base_must_verify():
    tree = Tree.of(2, [(0, 1)])
    bad = Labeling.of(2, {0: "01", 1: "01"})
    with pytest.raises(PreconditionViolated) as info:
        add_pendants(tree, bad, PendantPlan(((0, 2),)))
    assert str(info.value) == (
        "base labeling does not verify: ZeroLabel value=00 at edge 0-1; "
        "DuplicateValue value=01 at vertex 0, vertex 1; "
        "MissingValue value=10; MissingValue value=11"
    )


def test_old_ids_and_labels_survive():
    tree, lab = load_fixture("figure1.json")
    plan = PendantPlan(((0, 4), (3, 4)))
    acc = 0
    for vid, count in plan.anchors:
        for _ in range(count):
            acc ^= lab.labels[vid]
    assert acc == 0
    out_tree, out_lab = add_pendants(tree, lab, plan)
    # One coordinate more, with a 0 in front: the same int.
    assert out_lab.n == lab.n + 1
    for v in range(tree.vertex_count):
        assert out_lab.labels[v] == lab.labels[v]
    assert out_tree.edges[: len(tree.edges)] == tree.edges
    new_anchors = [a for a, b in out_tree.edges[len(tree.edges) :]]
    assert new_anchors == [0, 0, 0, 0, 3, 3, 3, 3]


def test_anchor_span_dimension_is_preserved():
    tree, lab = load_fixture("figure1.json")
    plan = PendantPlan(((0, 4), (3, 4)))
    before = len(echelon_basis([lab.labels[0], lab.labels[3]], lab.n))
    out_tree, out_lab = add_pendants(tree, lab, plan)
    after = len(echelon_basis([out_lab.labels[0], out_lab.labels[3]], out_lab.n))
    assert before == after


def test_uncoverable_targets_surface_as_pairing_not_covered():
    # 32 distinct full-span targets at dimension 7 escape every solver
    # route: too many distinct values, too high a span for the cosets.
    spec = CaterpillarSpec((5,) * 15 + (3,))
    assert spec.vertex_count == 64
    tree, lab = label_small_diameter(spec)
    chosen: list[int] = []
    for v in range(64):
        rank = len(echelon_basis([lab.labels[x] for x in chosen], 7))
        if rank < 7:
            grown = len(echelon_basis([lab.labels[x] for x in chosen] + [lab.labels[v]], 7))
            if grown == rank:
                continue
        chosen.append(v)
        if len(chosen) == 32:
            break
    assert len(chosen) == 32
    plan = PendantPlan(tuple((v, 2) for v in sorted(chosen)))
    with pytest.raises(PairingNotCovered):
        add_pendants(tree, lab, plan)


def test_random_balanced_plans_on_a_star():
    # Anchors used an even number of times always XOR to zero, so any
    # four-anchor count-two plan must go through.
    tree, lab = label_small_diameter(CaterpillarSpec((7,)))
    rng = random.Random(11)
    for _ in range(20):
        ids = rng.sample(range(8), 4)
        out_tree, out_lab = add_pendants(
            tree, lab, PendantPlan(tuple((v, 2) for v in sorted(ids)))
        )
        assert covers_exactly_once(out_tree, out_lab)
        assert out_tree.vertex_count == 16


# ---------------------------------------------------------------------------
# small-diameter caterpillars


def test_label_three_threes():
    spec = CaterpillarSpec.parse("T[3,3,3]")
    tree, lab = label_small_diameter(spec)
    assert tree.vertex_count == 8
    assert diameter(tree) == 4
    assert covers_exactly_once(tree, lab)


def test_label_a_sixteen_vertex_spec():
    spec = CaterpillarSpec.parse("T[3,3,5,3,3,3]")
    tree, lab = label_small_diameter(spec)
    assert tree.vertex_count == 16
    assert diameter(tree) == 7
    assert covers_exactly_once(tree, lab)


def test_even_degrees_rejected():
    with pytest.raises(NotOddDegree):
        label_small_diameter(CaterpillarSpec.parse("T[2,2]"))


def test_non_power_of_two_rejected():
    with pytest.raises(NotPowerOfTwo):
        label_small_diameter(CaterpillarSpec.parse("T[3,3]"))


def test_diameter_cap():
    degrees = (5,) * 13 + (3,) * 5
    spec = CaterpillarSpec(degrees)
    assert spec.vertex_count == 64 and spec.diameter == 19
    with pytest.raises(OutOfRange):
        label_small_diameter(spec)


def test_reversed_fixture_orientation():
    spec = CaterpillarSpec.parse("T[3,3,3,3,5,3]")
    tree, lab = label_small_diameter(spec)
    assert covers_exactly_once(tree, lab)
    assert diameter(tree) == 7
    assert sorted(tree.degrees(), reverse=True)[:6] == [5, 3, 3, 3, 3, 3]


def test_star_chain():
    for degrees in ((1,), (3,), (7,), (15,), (31,), (127,)):
        spec = CaterpillarSpec(degrees)
        tree, lab = label_small_diameter(spec)
        assert covers_exactly_once(tree, lab)
        assert diameter(tree) == spec.diameter


def test_fixture_shed_band():
    rng = random.Random(5)
    for diam in range(11, 17):
        spec = odd_spec(32, diam, rng)
        tree, lab = label_small_diameter(spec)
        assert covers_exactly_once(tree, lab)
        assert diameter(tree) == diam


def test_center_span_cap_is_enforced(monkeypatch):
    # The 64-vertex build rebuilds through levels whose center paths span
    # more than two dimensions, so a cap of 2 must stop it by name.
    monkeypatch.setattr(constructors, "SPAN_DIM_CAP", 2)
    with pytest.raises(InternalSearchFailed, match="exceeds the cap 2"):
        label_small_diameter(CaterpillarSpec((5,) * 15 + (3,)))


def test_small_diameter_sweep():
    rng = random.Random(7)
    for diam in range(2, 19):
        for _ in range(3):
            bottom = 4
            while bottom < 2 * diam:
                bottom *= 2
            count = min(1024, bottom << rng.randrange(3))
            spec = odd_spec(count, diam, rng)
            tree, lab = label_small_diameter(spec)
            assert covers_exactly_once(tree, lab)
            assert diameter(tree) == diam


def test_small_diameter_is_deterministic():
    spec = CaterpillarSpec.parse("T[5,5,5,5,5,3,3,3,3,3]")
    first = label_small_diameter(spec)
    second = label_small_diameter(spec)
    assert first[1].labels == second[1].labels


def test_a_spec_built_from_a_list_labels_like_the_tuple_form():
    degrees = [5, 3, 3, 3, 3, 3]
    spec = CaterpillarSpec(degrees)
    assert spec == CaterpillarSpec(tuple(degrees)) and spec.degrees == tuple(degrees)
    assert hash(spec) == hash(CaterpillarSpec(tuple(degrees)))
    assert label_small_diameter(spec) == label_small_diameter(CaterpillarSpec(tuple(degrees)))
    assert CaterpillarSpec([1]).diameter == 1


# ---------------------------------------------------------------------------
# large caterpillars


def test_label_five_three():
    spec = CaterpillarSpec.parse("T[5,3]")
    tree, lab = label_large_caterpillar(spec)
    assert tree.vertex_count == 8
    assert diameter(tree) == 3
    assert covers_exactly_once(tree, lab)


def test_too_few_vertices():
    with pytest.raises(TooFewVertices):
        label_large_caterpillar(CaterpillarSpec.parse("T[3,3,3,3,3,3,3]"))


def test_large_rejects_even_degrees():
    with pytest.raises(NotOddDegree):
        label_large_caterpillar(CaterpillarSpec.parse("T[2,2]"))


def test_large_handles_either_orientation():
    for text in ("T[13,3]", "T[3,13]"):
        spec = CaterpillarSpec.parse(text)
        tree, lab = label_large_caterpillar(spec)
        assert covers_exactly_once(tree, lab)
        assert diameter(tree) == 3


def test_large_sweep():
    rng = random.Random(13)
    for _ in range(12):
        diam = rng.randrange(3, 10)
        k = diam - 1
        exponent = rng.randrange(max(k, 3), 12)
        count = 1 << exponent
        spec = odd_spec(count, diam, rng)
        tree, lab = label_large_caterpillar(spec)
        assert covers_exactly_once(tree, lab)
        assert diameter(tree) == diam
        assert tree.vertex_count == count


# ---------------------------------------------------------------------------
# verification count


@pytest.mark.parametrize(
    "pipeline, args",
    [
        (label_small_diameter, (CaterpillarSpec.parse("T[5,5,5,5,5,3,3,3,3,3]"),)),
        (label_small_diameter, (CaterpillarSpec((63,)),)),
        (label_large_caterpillar, (CaterpillarSpec((243, 3, 3, 3, 3, 5)),)),
        (add_pendants, (*load_fixture("figure1.json"), PendantPlan.parse("2:1,7:1,3:3,4:1,1:2"))),
        (four_copies, (*load_fixture("figure1.json"), 2, 4)),
    ],
    ids=["small-diameter", "small-diameter-star", "large", "add-pendants", "four-copies"],
)
def test_each_pipeline_verifies_its_input_and_its_output_once(pipeline, args, monkeypatch):
    # One check of the fixture or base going in, one of the result coming
    # out; the levels in between run unchecked.
    calls = []

    def counting(tree, lab):
        calls.append(tree.vertex_count)
        return verify_set_sequential(tree, lab)

    monkeypatch.setattr(constructors, "verify_set_sequential", counting)
    tree, lab = pipeline(*args)
    assert len(calls) == 2
    assert calls[-1] == tree.vertex_count
    assert verify_set_sequential(tree, lab).valid


def test_a_pipeline_builds_one_tree_beyond_its_fixture(monkeypatch):
    # Parsing the fixture and checking its canonical numbering build one
    # Tree each; the levels in between build none, the result one more.
    built = []
    check = Tree.__post_init__

    def counting(self):
        built.append(self.vertex_count)
        check(self)

    monkeypatch.setattr(Tree, "__post_init__", counting)
    tree, _ = label_large_caterpillar(CaterpillarSpec(LARGE_DEGREES))
    assert tree.vertex_count == 1 << 12
    assert len(built) <= 3
    assert built[-1] == tree.vertex_count


def test_labels_stay_ints_from_construction_to_verification(monkeypatch):
    # Labeling, build, dump, parse and verify hand over int labels; no
    # BitVec is made unless a caller reads the BitVec view.
    made = []
    check = BitVec.__post_init__

    def counting(self):
        made.append(self.bits)
        check(self)

    monkeypatch.setattr(BitVec, "__post_init__", counting)
    tree, lab = label_large_caterpillar(CaterpillarSpec((201, 203, 205, 207, 211)))
    assert tree.vertex_count == 1 << 10
    back_tree, back = tree_from_json(tree_to_json(tree, lab))
    assert back_tree == tree and back == lab
    assert verify_set_sequential(back_tree, back).valid
    assert made == []


# ---------------------------------------------------------------------------
# the prefix/suffix sequence


def test_prefix_map_is_doubly_bijective():
    assert sorted(PREFIX_MAP) == [0, 1, 2, 3]
    assert sorted(PREFIX_MAP.values()) == [0, 1, 2, 3]
    assert sorted(p ^ PREFIX_MAP[p] for p in PREFIX_MAP) == [0, 1, 2, 3]


def test_prefix_solver_rejects_even_or_small_k():
    for k in (3, 4, 6, 5.0, "5", True):
        with pytest.raises(PreconditionViolated):
            solve_w_prefixes(k)


@pytest.mark.parametrize("k", range(5, 402, 2))
def test_prefix_solver_invariants(k):
    prefixes = solve_w_prefixes(k)
    assert len(prefixes) == 4 * k + 3
    assert prefixes[k] == 0b10
    assert prefixes[2 * k + 1] == 0b11
    assert prefixes[3 * k + 2] == 0b01
    for a in range(0, 4 * k + 1, 2):
        assert prefixes[a] ^ prefixes[a + 2] == prefixes[a + 1]
    groups: dict[int, set[int]] = {}
    for p, s in zip(prefixes, constructors._w_layout(k)):
        groups.setdefault(s, set()).add(p)
    assert groups.pop(0) == {0b01, 0b10, 0b11}
    assert all(g == {0, 1, 2, 3} for g in groups.values())


def chain_labels(k: int, n: int) -> list[int]:
    """Path labels z_1..z_k off a labeled path with alternating XOR entries."""
    rng = random.Random(k * 101 + n)
    while True:
        verts = rng.sample(range(1, 1 << n), (k + 1) // 2)
        z: list[int] = []
        for i, x in enumerate(verts):
            if i:
                z.append(verts[i - 1] ^ x)
            z.append(x)
        if 0 not in z and len(set(z)) == k:
            return z


@pytest.mark.parametrize("k", [5, 9])
def test_w_sequence_construction(k):
    n = 5
    z = chain_labels(k, n)
    w = _w_sequence(z, n)
    mask = (1 << n) - 1
    suffixes = [x & mask for x in w]
    assert [suffixes[i] for i in (k, 2 * k + 1, 3 * k + 2)] == [0, 0, 0]
    assert suffixes[:k] == z[::-1]
    assert suffixes[3 * k + 3 :] == [z[1], z[0]] + z[2:]
    assert [x >> n for x in w] == solve_w_prefixes(k)
    assert len(set(w)) == 4 * k + 3


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([5, 7, 9, 11]), st.integers(min_value=4, max_value=7))
def test_w_sequence_group_structure(k, n):
    z = chain_labels(k, n)
    w = _w_sequence(z, n)
    for a in range(0, 4 * k + 1, 2):
        assert w[a] ^ w[a + 2] == w[a + 1]
    mask = (1 << n) - 1
    by_suffix: dict[int, set[int]] = {}
    for x in w:
        by_suffix.setdefault(x & mask, set()).add(x >> n)
    assert by_suffix.pop(0) == {0b01, 0b10, 0b11}
    assert all(group == {0, 1, 2, 3} for group in by_suffix.values())


# ---------------------------------------------------------------------------
# four copies


def test_four_copies_of_the_three_star():
    tree, lab = three_star()
    big, big_lab = four_copies(tree, lab, 1, 2)
    assert big.vertex_count == 16
    assert diameter(big) == 11
    assert covers_exactly_once(big, big_lab)


def test_four_copies_iterates_to_sixty_four():
    tree, lab = three_star()
    big, big_lab = four_copies(tree, lab, 1, 2)
    u, v = diameter_ends(big)
    huge, huge_lab = four_copies(big, big_lab, u, v)
    assert huge.vertex_count == 64
    assert diameter(huge) == 47
    assert covers_exactly_once(huge, huge_lab)


def test_four_copies_structure():
    tree, lab = three_star()
    big, _ = four_copies(tree, lab, 1, 2)
    crossing = [
        (a, b) for a, b in big.edges if a // tree.vertex_count != b // tree.vertex_count
    ]
    assert len(crossing) == 3
    within = [e for e in big.edges if e not in crossing]
    assert len(within) == 4 * len(tree.edges)


def test_four_copies_prefix_fan_out():
    # Away from the path ends, every base vertex keeps its own label as
    # suffix and collects all four two-bit prefixes across the copies.
    tree, lab = load_fixture("figure1.json")
    deg = tree.degrees()
    leaves = [v for v in range(tree.vertex_count) if deg[v] == 1]
    u, v = leaves[0], leaves[-1]
    big, big_lab = four_copies(tree, lab, u, v)
    assert covers_exactly_once(big, big_lab)
    mask = (1 << lab.n) - 1
    for r in range(tree.vertex_count):
        if r in (u, v):
            continue
        copies = [big_lab.labels[c * tree.vertex_count + r] for c in range(4)]
        assert all(x & mask == lab.labels[r] for x in copies)
        assert len({x >> lab.n for x in copies}) == 4


def test_four_copies_needs_distinct_leaves():
    tree, lab = three_star()
    with pytest.raises(PreconditionViolated):
        four_copies(tree, lab, 1, 1)
    # Vertex ids are ints: no float, str or bool stands in for one.
    for u, v in ((1.0, 2), ("1", 2), (True, 2), (1, 2.0), (1, None)):
        with pytest.raises(PreconditionViolated):
            four_copies(tree, lab, u, v)
    with pytest.raises(NotLeaf):
        four_copies(tree, lab, 0, 2)


def test_four_copies_needs_three_vertices():
    tree, lab = single_edge()
    with pytest.raises(TooSmall):
        four_copies(tree, lab, 0, 1)


def test_four_copies_needs_a_verified_base():
    tree = Tree.of(4, [(0, 1), (0, 2), (0, 3)])
    bad = Labeling.of(3, {0: "001", 1: "010", 2: "100", 3: "011"})
    with pytest.raises(PreconditionViolated) as info:
        four_copies(tree, bad, 1, 2)
    assert str(info.value) == (
        "base labeling does not verify: DuplicateValue value=010 at vertex 1, edge 0-3; "
        "DuplicateValue value=011 at vertex 3, edge 0-1; "
        "MissingValue value=110; MissingValue value=111"
    )


def test_load_fixture_names_a_missing_malformed_or_unlabeled_file(tmp_path, monkeypatch):
    monkeypatch.setattr(constructors, "fixtures_dir", lambda: tmp_path)
    (tmp_path / "malformed.json").write_text("{")
    (tmp_path / "unlabeled.json").write_text(tree_to_json(Tree.of(4, [(0, 1), (0, 2), (0, 3)])))
    for name, message in [
        ("absent.json", "cannot read fixture"),
        ("malformed.json", "fixture malformed.json is malformed: not valid JSON"),
        ("unlabeled.json", "fixture unlabeled.json carries no labels"),
    ]:
        with pytest.raises(PreconditionViolated, match=message):
            load_fixture(name)


def test_a_base_fixture_must_use_the_canonical_numbering(tmp_path, monkeypatch):
    # The bundled labeling with every vertex id reversed still verifies, but
    # the pipeline anchors pendants by id, so it refuses the fixture.
    spec = CaterpillarSpec((5, 3, 3, 3, 3, 3))
    tree, lab = load_fixture(f"{spec}.json")
    last = tree.vertex_count - 1
    flipped = Tree.of(tree.vertex_count, [(last - a, last - b) for a, b in tree.edges])
    relabeled = Labeling(lab.n, {last - v: x for v, x in lab.labels.items()})
    (tmp_path / f"{spec}.json").write_text(tree_to_json(flipped, relabeled))
    monkeypatch.setattr(constructors, "fixtures_dir", lambda: tmp_path)
    with pytest.raises(PreconditionViolated, match="does not use the canonical vertex numbering"):
        label_small_diameter(spec)


def test_a_pipeline_that_builds_no_tree_fails_by_name():
    with pytest.raises(InternalSearchFailed, match="step produced an invalid tree"):
        constructors._finish(([(0, 1), (1, 0)], 2, [1, 2, 3]), "step")


def test_base_list_matches_the_bundled_fixtures():
    for degrees in BASE_CATERPILLARS:
        spec = CaterpillarSpec(degrees)
        tree, lab = load_fixture(f"{spec}.json")
        assert covers_exactly_once(tree, lab)
