"""Acceptance checks: the headline behaviors, end to end, with time bounds.

Each test here is one externally stated guarantee of the package.  The
conftest hook prints a PASS/FAIL line per test after the run.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement, product

import pytest

import instgen
from setseq import cli, constructors
from setseq.cli import _label_auto, _sweep_instances
from setseq.constructors import (
    BASE_CATERPILLARS,
    PendantPlan,
    _w_sequence,
    add_pendants,
    four_copies,
    label_large_caterpillar,
    label_small_diameter,
    load_fixture,
)
from setseq.errors import Infeasible
from setseq.gf2 import echelon_basis
from setseq.pairing import (
    PairingInstance,
    exact_pairing_solver,
    partition_errors,
    solve_pairing,
)
from setseq.search import BACKTRACKING, SearchConfig, search_labeling
from setseq.trees import (
    CaterpillarSpec,
    Labeling,
    Tree,
    build_caterpillar,
    diameter,
    even_degree_label_sum,
    tree_to_json,
    verify_set_sequential,
)

#: Search seed that regenerates every bundled base labeling within budget.
DOCUMENTED_SEED = 0

#: sha256 of the concatenated JSON documents of the high-diameter large
#: labels, recorded before the coset lift moved to target histograms.
HIGH_DIAMETER_DIGEST = "dd43cbb715bd945f59ec561d9eb1f3c0263d54c1cd9d890d388a6aee7f4b4d30"

#: sha256 of the concatenated JSON documents of every all-odd caterpillar at
#: 16 and 32 vertices, in odd_spines order: each small-diameter label, then
#: the large one where it applies.
ODD_SPINES_DIGEST = "eccea8ec5bef562613d8692792fd9dacda33ac08992a008bf2f2538c308fece4"


def entry_table(tree: Tree, lab: Labeling) -> list[int]:
    """The displayed labeling: vertex entries then edge entries."""
    vertex = [lab.labels[v] for v in range(tree.vertex_count)]
    edge = [lab.labels[a] ^ lab.labels[b] for a, b in tree.edges]
    return vertex + edge


def table_consistent(tree: Tree, entries: list[int], n: int) -> bool:
    """Entry-level check: stored edge values match endpoint XORs and the
    whole table covers the nonzero vectors exactly once."""
    count = tree.vertex_count
    for i, (a, b) in enumerate(tree.edges):
        if entries[count + i] != entries[a] ^ entries[b]:
            return False
    return sorted(entries) == list(range(1, 1 << n))


def odd_caterpillar(count: int, diam: int, rng: random.Random) -> CaterpillarSpec:
    k = 1 if diam == 2 else diam - 1
    extra = count + k - 2 - 3 * k
    degrees = [3] * k
    for _ in range(extra // 2):
        degrees[rng.randrange(k)] += 2
    spec = CaterpillarSpec(tuple(degrees))
    assert spec.vertex_count == count and spec.diameter == diam
    return spec


def odd_spines(count: int):
    """Every all-odd caterpillar with count vertices, one of each reversal pair.

    A spine of k vertices, each of degree 3 plus twice its share of the
    (count - 2 - 2k) / 2 spare units, in every composition of those units.
    """
    for k in range(1, count // 2):
        units = (count - 2 - 2 * k) // 2
        for bars in combinations(range(units + k - 1), k - 1):
            cuts = (-1, *bars, units + k - 1)
            degrees = tuple(3 + 2 * (b - a - 1) for a, b in zip(cuts, cuts[1:]))
            if degrees <= degrees[::-1]:
                yield CaterpillarSpec(degrees)


def far_vertex(tree: Tree, start: int) -> int:
    from collections import deque

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


# ---------------------------------------------------------------------------


def test_bundled_labeling_verifies_and_is_entry_rigid():
    # The bundled 8-vertex labeling verifies in under a millisecond, and
    # rewriting any one of its 15 displayed entries breaks consistency.
    tree, lab = load_fixture("figure1.json")
    best = min(
        _timed_verify(tree, lab) for _ in range(5)
    )
    assert best < 1e-3, f"verification took {best * 1e3:.3f} ms"

    entries = entry_table(tree, lab)
    assert table_consistent(tree, entries, lab.n)
    for i in range(len(entries)):
        for value in range(1 << lab.n):
            if value == entries[i]:
                continue
            mutated = list(entries)
            mutated[i] = value
            assert not table_consistent(tree, mutated, lab.n)


def _timed_verify(tree: Tree, lab: Labeling) -> float:
    start = time.perf_counter()
    report = verify_set_sequential(tree, lab)
    elapsed = time.perf_counter() - start
    assert report.valid
    return elapsed


def test_exhaustive_pairing_at_dimensions_three_and_four():
    # Every zero-sum multiset of 2^(n-1) nonzero vectors admits a pair
    # partition at n=3 and n=4, found by the exact solver, within 5 minutes.
    start = time.monotonic()
    checked = 0
    for n in (3, 4):
        for combo in _sweep_instances(n):
            inst = PairingInstance.of(n, list(combo))
            part = exact_pairing_solver(inst)
            errors = partition_errors(inst, part)
            assert not errors, (combo, errors)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 35 + 20295
    assert elapsed < 300, f"took {elapsed:.0f}s"


def _span_elements(rng: random.Random, n: int, d: int) -> tuple[list[int], list[int]]:
    while True:
        basis = [rng.randrange(1, 1 << n) for _ in range(d)]
        if len(echelon_basis(basis, n)) == d:
            break
    elems = [0]
    for b in basis:
        elems += [e ^ b for e in elems]
    return basis, [e for e in elems if e]


def _instance_low_dim(rng: random.Random, n_cap: int) -> PairingInstance:
    n = rng.randint(2, n_cap)
    d = 1 if n == 2 else rng.randint(1, min(5, n - 1))
    _, pool = _span_elements(rng, n, d)
    half = 1 << (n - 1)
    vals = [rng.choice(pool) for _ in range(half - 2)]
    acc = 0
    for v in vals:
        acc ^= v
    if acc == 0:
        x = rng.choice(pool)
        vals += [x, x]
    else:
        a = rng.choice([p for p in pool if p != acc])
        vals += [a, a ^ acc]
    return PairingInstance.of(n, vals)


def _instance_even_span(rng: random.Random, n: int, d: int) -> PairingInstance:
    basis, pool = _span_elements(rng, n, d)
    half = 1 << (n - 1)
    picks = list(basis) + [rng.choice(pool) for _ in range(half // 2 - d)]
    vals = []
    for v in picks:
        vals += [v, v]
    return PairingInstance.of(n, vals)


def _instance_few_values(rng: random.Random, n_cap: int) -> PairingInstance:
    n = rng.randint(2, n_cap)
    half = 1 << (n - 1)
    l = rng.randint(1, min(n, half // 2))
    quartet = l >= 4 and rng.random() < 0.7
    while True:
        values = rng.sample(range(1, 1 << n), l)
        if not quartet:
            break
        closer = values[0] ^ values[1] ^ values[2]
        if closer and closer not in values[:-1]:
            values[-1] = closer
            break
    counts = [2] * l
    for _ in range((half - 2 * l) // 2):
        counts[rng.randrange(l)] += 2
    if quartet:
        for i in (0, 1, 2, l - 1):
            counts[i] -= 1
        counts[rng.randrange(l)] += 2
        counts[rng.randrange(l)] += 2
    vals = [v for v, c in zip(values, counts) for _ in range(c)]
    return PairingInstance.of(n, vals)


def test_constructive_routes_on_random_instances():
    # 10,000 random instances per loop, every partition checked
    # independently, zero failures, under 10 minutes in total.  Auto routing
    # sends the loops to Dim5Coset, Dim6EvenCoset and AtMostNValues.  The
    # last loop's all-even targets span at most n/2 <= 6 dimensions, so they
    # go to Dim5Coset or Dim6EvenCoset, never to DimHalfEven; the next test
    # covers that route.
    per_case = 10_000
    rng = random.Random(20260825)
    start = time.monotonic()

    def spot_check(inst: PairingInstance) -> None:
        part, _route = solve_pairing(inst)
        errors = partition_errors(inst, part)
        assert not errors, (inst.n, inst.values, errors)

    for _ in range(per_case):
        spot_check(_instance_low_dim(rng, 10))
    for _ in range(per_case):
        n = rng.randint(6, 10)
        spot_check(_instance_even_span(rng, n, 6))
    for _ in range(per_case):
        spot_check(_instance_few_values(rng, 10))
    for _ in range(per_case):
        n = rng.randint(2, 12)
        spot_check(_instance_even_span(rng, n, rng.randint(1, n // 2)))
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"took {elapsed:.0f}s"


def test_half_dimension_route_on_random_n14_instances():
    # All-even targets spanning 7 dimensions at n = 14 are the smallest that
    # auto routing sends to DimHalfEven: 40 seeded instances, each partition
    # checked by its coverage and pair sums, without the library's checker.
    rng = random.Random(20261020)
    start = time.monotonic()
    for _ in range(40):
        inst = _instance_even_span(rng, 14, 7)
        part, route = solve_pairing(inst)
        assert route.tag == "DimHalfEven"
        assert sorted(x for pair in part.pairs for x in pair) == list(range(1 << 14))
        assert [p ^ q for p, q in part.pairs] == list(inst.values)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"took {elapsed:.0f}s"


def test_route_forced_solvers_on_high_span_instances():
    # solve_pairing sends almost every span <= 5 instance to Dim5Coset, so
    # the half-dimension and bounded-value routes are forced here, on 20
    # instances per dimension whose targets span more than 5 dimensions;
    # every partition checked independently, under a minute.
    rng = random.Random(20261018)
    cases = [
        ("DimHalfEven", instgen.dim_half_even_instance, (12, 13, 14)),
        ("AtMostNValues", instgen.at_most_n_instance, (8, 10, 12)),
    ]
    start = time.monotonic()
    for route, gen, dims in cases:
        for n in dims:
            solved = 0
            while solved < 20:
                _, values = gen(rng, n)
                if instgen.rank_of(values) <= 5:
                    continue
                inst = PairingInstance.of(n, values)
                errors = partition_errors(inst, solve_pairing(inst, route)[0])
                assert not errors, (route, n, values, errors)
                solved += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"took {elapsed:.0f}s"


def test_three_coset_case_on_every_odd_count_composition_at_n6():
    # Six values with XOR 0 and no even-size proper zero-sum subset, in
    # every odd-multiplicity pattern of 32 targets: 13 extra pairs dealt
    # onto the six singles gives all 8,568 instances.  Each goes to the
    # three-coset case, which solves it in the first layout it can fill;
    # every partition checked independently, under a minute.
    singles = [8, 21, 33, 42, 43, 61]
    assert instgen.xor_all(singles) == 0
    assert not instgen.has_even_zero_sum_subset(singles)
    start = time.monotonic()
    checked = 0
    for extra in combinations_with_replacement(singles, 13):
        inst = PairingInstance.of(6, singles + [u for u in extra for _ in (0, 1)])
        errors = partition_errors(inst, solve_pairing(inst, "AtMostNValues")[0])
        assert not errors, (extra, errors)
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 8568
    assert elapsed < 60, f"took {elapsed:.0f}s"


def test_search_regenerates_every_base_labeling():
    # The randomized greedy search rebuilds each bundled base caterpillar
    # labeling from scratch at the documented seed, within 60 seconds each,
    # and what it rebuilds is the bundled labeling itself.
    for degrees in BASE_CATERPILLARS:
        spec = CaterpillarSpec(degrees)
        tree = build_caterpillar(spec)
        start = time.monotonic()
        lab = search_labeling(
            tree, SearchConfig(seed=DOCUMENTED_SEED, budget_seconds=60.0)
        )
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"{spec} took {elapsed:.1f}s"
        assert verify_set_sequential(tree, lab).valid
        _, bundled = load_fixture(f"{spec}.json")
        assert lab.labels == bundled.labels, spec


def test_small_diameter_band():
    # Twenty random all-odd caterpillars per diameter 2..18 all label and
    # verify; the center-path span dimension stays capped at every step,
    # or label_small_diameter raises InternalSearchFailed.
    rng = random.Random(181)
    for diam in range(2, 19):
        floor = 4
        while floor < 2 * diam:
            floor *= 2
        for _ in range(20):
            count = min(1024, floor << rng.randrange(3))
            spec = odd_caterpillar(count, diam, rng)
            tree, lab = label_small_diameter(spec)
            assert verify_set_sequential(tree, lab).valid
            assert diameter(tree) == diam


def test_large_caterpillars():
    # Twenty random all-odd caterpillars with 2^n >= 2^(diam-1), n up to 12.
    rng = random.Random(121)
    for _ in range(20):
        diam = rng.randint(3, 13)
        exponent = rng.randint(max(diam - 1, 3), 12)
        spec = odd_caterpillar(1 << exponent, diam, rng)
        tree, lab = label_large_caterpillar(spec)
        assert verify_set_sequential(tree, lab).valid
        assert diameter(tree) == diam


def test_every_odd_caterpillar_at_16_and_32_vertices(monkeypatch):
    # The theorem at its two smallest sizes, exhaustively: every all-odd
    # caterpillar on 16 or 32 vertices, up to reversal, gets a verified
    # labeling of the right diameter from the small-diameter pipeline, and
    # from the large pipeline where |V| >= 2^(diameter - 1).  The
    # small-diameter labels are those label_auto emits: it routes every one
    # of these specs there, and the recording wrapper checks that it did.
    routed: list[CaterpillarSpec] = []
    small = cli.label_small_diameter

    def recording(spec):
        routed.append(spec)
        return small(spec)

    monkeypatch.setattr(cli, "label_small_diameter", recording)
    digest = hashlib.sha256()
    count_of = {16: 0, 32: 0}
    for count in count_of:
        for spec in odd_spines(count):
            assert spec.vertex_count == count
            labeled = [_label_auto(spec)]
            assert routed.pop() is spec
            if count >= 1 << (spec.diameter - 1):
                labeled.append(label_large_caterpillar(spec))
            for tree, lab in labeled:
                assert verify_set_sequential(tree, lab).valid, spec
                assert diameter(tree) == spec.diameter, spec
                digest.update(tree_to_json(tree, lab).encode())
            count_of[count] += 1
    assert count_of == {16: 36, 32: 8256}
    assert digest.hexdigest() == ODD_SPINES_DIGEST


def test_uniform_odd_caterpillars_from_64_to_1024_vertices():
    # The theorem above 32 vertices, sampled: four all-odd caterpillars per
    # (vertex count, diameter) stratum, each uniform over the spine degree
    # tuples of its stratum, for every diameter the theorem covers at
    # 64-1,024 vertices (2-18; the large condition adds none there).  Each
    # gets a verified labeling of the right diameter from label_auto, and
    # from the large pipeline where |V| >= 2^(diameter - 1).
    rng = random.Random(19)
    for exponent in range(6, 11):
        count = 1 << exponent
        for diam in range(2, 19):
            for _ in range(4):
                spec = CaterpillarSpec(instgen.odd_caterpillar_degrees(rng, count, diam))
                assert spec.vertex_count == count and spec.diameter == diam
                labeled = [_label_auto(spec)]
                if count >= 1 << (diam - 1):
                    labeled.append(label_large_caterpillar(spec))
                for tree, lab in labeled:
                    assert verify_set_sequential(tree, lab).valid, spec
                    assert diameter(tree) == diam, spec


def test_odd_caterpillar_sampler_is_uniform():
    # 16 vertices at diameter 5: a 4-vertex spine shares 3 spare units, in
    # C(6, 3) = 20 ways, so 2,000 draws should hit each about 100 times.
    rng = random.Random(5)
    seen = Counter(instgen.odd_caterpillar_degrees(rng, 16, 5) for _ in range(2000))
    assert set(seen) == {
        tuple(3 + 2 * c for c in parts)
        for parts in product(range(4), repeat=4)
        if sum(parts) == 3
    }
    assert all(60 <= c <= 140 for c in seen.values()), seen


def test_large_caterpillars_reach_the_bounded_value_route(monkeypatch):
    # At diameter 14-15 and 2^13-2^14 vertices the large pipeline pairs a
    # level through AtMostNValues, whose two-coset split lifts each side
    # onto a hyperplane coset; one caterpillar per seed, output pinned.
    routes: list[str] = []
    solve = constructors.solve_pairing

    def recording(inst):
        part, route = solve(inst)
        routes.append(route.tag)
        return part, route

    monkeypatch.setattr(constructors, "solve_pairing", recording)
    docs = []
    for seed, (exponent, diam) in enumerate(((13, 14), (14, 14), (14, 15))):
        spec = odd_caterpillar(1 << exponent, diam, random.Random(seed))
        routes.clear()
        tree, lab = label_large_caterpillar(spec)
        assert "AtMostNValues" in routes, (spec, routes)
        assert verify_set_sequential(tree, lab).valid
        assert diameter(tree) == diam
        docs.append(tree_to_json(tree, lab))
    assert hashlib.sha256("".join(docs).encode()).hexdigest() == HIGH_DIAMETER_DIGEST


def test_four_copies_chain():
    # K_{1,3} -> 16 vertices at diameter 11 -> 64 at diameter 47 -> ... ->
    # 16,384 at diameter 12,287; the long-path length follows 3 * 4^c - 1
    # exactly.  The step to 4,096 vertices threads a path of k = 1,535
    # labels, the one to 16,384 a path of k = 6,143.
    tree = Tree.of(4, [(0, 1), (0, 2), (0, 3)])
    lab = Labeling.of(3, {0: "001", 1: "010", 2: "100", 3: "110"})
    assert verify_set_sequential(tree, lab).valid

    u, v = 1, 2
    for c in range(1, 7):
        tree, lab = four_copies(tree, lab, u, v)
        assert tree.vertex_count == 4 ** (c + 1)
        assert diameter(tree) == 3 * 4**c - 1
        assert verify_set_sequential(tree, lab).valid
        u = far_vertex(tree, 0)
        v = far_vertex(tree, u)


def test_even_degree_balance_and_the_four_path():
    # Vertices of even degree XOR to zero in every labeling this package
    # produces; and the 4-vertex path has no labeling at all.
    produced: list[tuple[Tree, Labeling]] = []
    for degrees in BASE_CATERPILLARS:
        produced.append(load_fixture(f"{CaterpillarSpec(degrees)}.json"))
    produced.append(load_fixture("figure1.json"))
    rng = random.Random(8)
    for _ in range(5):
        spec = odd_caterpillar(64, rng.randint(4, 10), rng)
        produced.append(label_small_diameter(spec))
    produced.append(label_large_caterpillar(odd_caterpillar(256, 5, rng)))
    base, base_lab = load_fixture("figure1.json")
    produced.append(
        add_pendants(base, base_lab, PendantPlan.parse("2:1,7:1,3:3,4:1,1:2"))
    )
    star = Tree.of(4, [(0, 1), (0, 2), (0, 3)])
    star_lab = Labeling.of(3, {0: "001", 1: "010", 2: "100", 3: "110"})
    produced.append(four_copies(star, star_lab, 1, 2))
    produced.append(
        (star, search_labeling(star, SearchConfig(seed=DOCUMENTED_SEED)))
    )
    for tree, lab in produced:
        assert verify_set_sequential(tree, lab).valid
        assert even_degree_label_sum(tree, lab) == 0

    path4 = Tree.of(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(Infeasible):
        search_labeling(path4, SearchConfig(strategy=BACKTRACKING))


def test_long_path_sequence_invariants():
    # For k in {5, 7, 9, 11}: 4k+3 distinct vectors, the alternating chain
    # relation, and all four prefixes on every suffix, in under a second.
    for k in (5, 7, 9, 11):
        start = time.monotonic()
        n = 5
        rng = random.Random(k)
        while True:
            verts = rng.sample(range(1, 1 << n), (k + 1) // 2)
            z = []
            for i, x in enumerate(verts):
                if i:
                    z.append(verts[i - 1] ^ x)
                z.append(x)
            if 0 not in z and len(set(z)) == k:
                break
        words = _w_sequence(z, n)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"k={k} took {elapsed:.2f}s"

        assert len(words) == 4 * k + 3
        assert len(set(words)) == 4 * k + 3
        for a in range(0, 4 * k + 1, 2):
            assert words[a] ^ words[a + 2] == words[a + 1]
        groups: dict[int, set[int]] = {}
        for w in words:
            groups.setdefault(w & ((1 << n) - 1), set()).add(w >> n)
        assert groups.pop(0) == {0b01, 0b10, 0b11}
        assert all(g == {0, 1, 2, 3} for g in groups.values())
