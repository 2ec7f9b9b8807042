"""Tests for the pair-partition solvers.

Every solver output is judged by a checker that only knows the two
defining requirements (the local oracle below, or partition_errors): the
pairs cover F_2^n exactly, and pair i XORs to target i.  Construction
internals are never consulted.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instgen
from setseq import pairing
from setseq.errors import (
    BudgetExhausted,
    CaseNotApplicable,
    Infeasible,
    InternalSearchFailed,
    NotCovered,
    PreconditionViolated,
)
from setseq.pairing import (
    PairingInstance,
    PairPartition,
    exact_pairing_solver,
    format_partition,
    partition_errors,
    solve_pairing,
)
# Tested directly: the infeasible branch, the coset lift's halving and
# even-lift steps, the half-dimension case's three-value splitting, the
# three-coset case's layout candidates and the sweep's frame-form solve,
# which no public call exposes on their own.
from setseq.pairing import (
    _coset_group_splits,
    _exact,
    _exact_in_frame,
    _halve_rounds,
    _lift_even,
    _restore,
    _split_halves,
    _split_odds_level6,
    _split_three,
)


def build(n, values):
    return PairingInstance.of(n, values)


def oracle_errors(n, targets, pairs):
    """Independent validity check on plain ints."""
    errs = []
    if len(pairs) != 1 << (n - 1):
        errs.append("pair count")
    flat = sorted(x for pq in pairs for x in pq)
    if flat != list(range(1 << n)):
        errs.append("coverage")
    for i, (p, q) in enumerate(pairs):
        if p ^ q != targets[i]:
            errs.append(f"sum at {i}")
    return errs


def assert_valid(inst, part):
    errs = oracle_errors(inst.n, list(inst.values), list(part.pairs))
    assert errs == [], errs


def small_dimension(inst):
    return solve_pairing(inst, "Dim5Coset")[0]


def dim_half_even(inst):
    return solve_pairing(inst, "DimHalfEven")[0]


def at_most_n_values(inst):
    return solve_pairing(inst, "AtMostNValues")[0]


def assert_valid_split(values, first, second):
    # Halves are target histograms, as plain dicts.
    first, second = Counter(first), Counter(second)
    assert first.total() == second.total() == len(values) // 2
    assert instgen.xor_all(first.elements()) == 0
    assert instgen.xor_all(second.elements()) == 0
    assert first + second == Counter(values)


def assert_valid_lift(n, values):
    """The lift's partition is valid, and its one exact search runs at level n - 1."""
    levels = []
    exact = pairing._exact

    def spy(m, hist, deadline=None):
        levels.append(m)
        return exact(m, hist, deadline)

    pairing._exact = spy
    try:
        pairs = _restore(values, _lift_even(n, Counter(values), []))
    finally:
        pairing._exact = exact
    errs = partition_errors(build(n, values), PairPartition(n, tuple(pairs)))
    assert errs == [], errs
    assert levels == [n - 1]


def has_multiplicity_two_anchor(values):
    """Whether some value of multiplicity 2 differs from a nonzero XOR of the pair values.

    Such a value anchors the even lift with one slot; a histogram without
    one needs an anchor with no slot or with several.
    """
    hist = Counter(values)
    pair_sum = instgen.xor_all(v for v, c in hist.items() if c & 2)
    return pair_sum != 0 and any(c == 2 and v != pair_sum for v, c in hist.items())


def distinct_zero_sum(rng, pool, count):
    """count distinct values from pool with XOR 0 (pool closed under XOR)."""
    pool_set = set(pool)
    while True:
        picks = rng.sample(pool, count - 1)
        last = instgen.xor_all(picks)
        if last and last in pool_set and last not in picks:
            return picks + [last]


# ---------------------------------------------------------------------------
# instance and partition types


def test_instance_accepts_contract_example():
    inst = build(3, [0b001, 0b001, 0b010, 0b010])
    assert inst.n == 3
    assert len(inst.values) == 4


def test_instance_rejects_small_dimension():
    with pytest.raises(PreconditionViolated):
        build(1, [1])


def test_instance_rejects_wrong_count():
    with pytest.raises(PreconditionViolated):
        build(3, [1, 2, 3])


def test_instance_rejects_zero_target():
    with pytest.raises(PreconditionViolated):
        build(3, [0, 1, 2, 3])
    # The same range check rejects targets outside 1..2^n - 1 at either end.
    with pytest.raises(PreconditionViolated):
        build(2, [0b100, 0b100])
    with pytest.raises(PreconditionViolated):
        build(2, [-1, -1])


def test_instance_rejects_wrongly_typed_input():
    with pytest.raises(PreconditionViolated):
        build(2, [1.0, 1.0])
    with pytest.raises(PreconditionViolated):
        build(2.0, [1, 1])
    # Targets that are no iterable used to raise a bare TypeError.
    for make in (PairingInstance, PairingInstance.of):
        with pytest.raises(PreconditionViolated) as info:
            make(3, 5)
        assert str(info.value) == "values must be an iterable of ints, got int"


def test_instance_rejects_nonzero_xor():
    with pytest.raises(PreconditionViolated):
        build(2, [0b01, 0b10])


def test_instance_keeps_a_tuple_of_the_targets_it_checked():
    values = [1, 1, 2, 2]
    inst = PairingInstance(3, values)
    values.append(7)
    assert inst.values == (1, 1, 2, 2)
    assert inst == build(3, (1, 1, 2, 2)) and hash(inst) == hash(build(3, (1, 1, 2, 2)))
    assert partition_errors(inst, solve_pairing(inst)[0]) == []
    # A tuple is handed through as it is, not copied.
    targets = (1, 1, 2, 2)
    assert build(3, targets).values is targets


def test_partition_checker_flags_broken_pairs():
    inst = build(2, [0b01, 0b01])
    good = PairPartition(2, ((0, 1), (2, 3)))
    assert partition_errors(inst, good) == []
    swapped_sum = PairPartition(2, ((0, 2), (1, 3)))
    assert partition_errors(inst, swapped_sum)
    duplicated = PairPartition(2, ((0, 1), (0, 1)))
    assert partition_errors(inst, duplicated)
    short = PairPartition(2, ((0, 1),))
    assert partition_errors(inst, short)


def test_partition_checker_messages():
    # A broken partition is reported entry by entry: coverage in vector
    # order, then out-of-range entries, then pair sums in pair order.
    inst = build(3, [0b001, 0b010, 0b100, 0b111])
    broken = PairPartition(3, ((0, 1), (2, 0), (4, 9), (3, 4)))
    assert partition_errors(inst, broken) == [
        "vector 000 covered 2 times",
        "vector 100 covered 2 times",
        "vector 101 covered 0 times",
        "vector 110 covered 0 times",
        "vector 111 covered 0 times",
        "out-of-range entry 9",
        "pair 2 sums to 1101, target 100",
    ]
    shifted = PairPartition(3, ((-1, 0), (8, 10), (2, 6), (3, 4)))
    assert partition_errors(inst, shifted) == [
        "vector 001 covered 0 times",
        "vector 101 covered 0 times",
        "vector 111 covered 0 times",
        "out-of-range entry -1",
        "out-of-range entry 8",
        "out-of-range entry 10",
        "pair 0 sums to -01, target 001",
    ]
    sums_only = PairPartition(3, ((0, 1), (2, 3), (4, 5), (6, 7)))
    assert partition_errors(inst, sums_only) == [
        "pair 1 sums to 001, target 010",
        "pair 2 sums to 001, target 100",
        "pair 3 sums to 001, target 111",
    ]
    # A pair that is not two ints is named, not raised on.
    for bad in (("2", 3), (2.0, 3), (2, 3, 4)):
        malformed = PairPartition(3, ((0, 1), bad, (4, 0), (5, 2)))
        assert partition_errors(inst, malformed) == [f"pair 1 is not two ints: {bad!r}"]
    # A partition of another dimension gets one message and no entry check.
    narrower = PairPartition(2, ((0, 1), (2, 3)))
    assert partition_errors(inst, narrower) == ["dimension mismatch: partition n=2, instance n=3"]
    # So do pairs that are not a sequence at all; len() used to raise on them.
    assert partition_errors(build(2, [1, 1]), PairPartition(2, 5)) == [
        "pairs are not a sequence: 5"
    ]
    # A dimension of another type is told apart from the int it prints as.
    text_n = PairPartition("2", ((0, 1), (2, 3)))
    assert partition_errors(build(2, [1, 1]), text_n) == [
        "dimension mismatch: partition n='2', instance n=2"
    ]


def test_format_partition_lines():
    inst = build(2, [0b01, 0b01])
    part = exact_pairing_solver(inst)
    text = format_partition(part)
    assert text.splitlines() == ["00 01 01", "10 11 01"]


# ---------------------------------------------------------------------------
# exact backtracking solver


def test_exact_unique_partition_low_target():
    part = exact_pairing_solver(build(2, [0b01, 0b01]))
    assert list(part.pairs) == [(0b00, 0b01), (0b10, 0b11)]


def test_exact_unique_partition_high_target():
    part = exact_pairing_solver(build(2, [0b11, 0b11]))
    assert list(part.pairs) == [(0b00, 0b11), (0b01, 0b10)]


def test_exact_contract_example_n3():
    inst = build(3, [0b001, 0b001, 0b010, 0b010])
    part = exact_pairing_solver(inst)
    assert_valid(inst, part)
    # The search is deterministic, so this particular partition is stable.
    assert list(part.pairs) == [
        (0b000, 0b001),
        (0b010, 0b011),
        (0b100, 0b110),
        (0b101, 0b111),
    ]


def test_exact_is_deterministic():
    inst = build(4, [1, 2, 3, 7, 7, 1, 2, 3])
    assert exact_pairing_solver(inst).pairs == exact_pairing_solver(inst).pairs


def test_exact_exhaustive_n3():
    solved = 0
    for combo in itertools.combinations_with_replacement(range(1, 8), 4):
        if instgen.xor_all(combo):
            continue
        inst = build(3, list(combo))
        assert_valid(inst, exact_pairing_solver(inst))
        solved += 1
    assert solved > 0


def test_exact_budget_exhaustion():
    inst = build(5, instgen.any_valid_instance(random.Random(5), 5)[1])
    with pytest.raises(BudgetExhausted):
        exact_pairing_solver(inst, budget_seconds=0.0)


def test_exact_rejects_bad_budgets():
    # A NaN deadline is never passed, so it would leave the search unbounded.
    inst = build(3, [0b001, 0b001, 0b010, 0b010])
    for budget in (float("nan"), -1, -0.5, "5", None, True):
        with pytest.raises(PreconditionViolated):
            exact_pairing_solver(inst, budget)
    assert_valid(inst, exact_pairing_solver(inst, 5))


def test_exact_rejects_a_budget_too_large_for_a_float():
    # The deadline's sum raised a bare OverflowError before the search began.
    inst = build(3, [0b001, 0b001, 0b010, 0b010])
    for budget in (10**400, float("inf")):
        with pytest.raises(PreconditionViolated, match="finite number >= 0"):
            exact_pairing_solver(inst, budget)
    assert_valid(inst, exact_pairing_solver(inst, 1.0e308))


def test_exact_refuses_n_above_six_like_its_route():
    # Searched, this instance recursed until a bare RecursionError; the
    # solver refuses it before searching, with the ExactSearch route's reason.
    inst = build(12, [3] * 1024 + [5] * 1024)
    reason = r"^exact search needs n <= 6, got n=12$"
    with pytest.raises(CaseNotApplicable, match=reason):
        exact_pairing_solver(inst)
    with pytest.raises(CaseNotApplicable, match=reason):
        solve_pairing(inst, "ExactSearch")
    with pytest.raises(CaseNotApplicable, match="got n=7"):
        exact_pairing_solver(build(7, [1] * 64), budget_seconds=5)


def test_short_solver_output_is_internal_search_failed(monkeypatch):
    # A solver that leaves a target short of pairs, or with no queue at all,
    # is caught while target order is restored, as a named error.
    exact = pairing._exact
    inst = build(3, [0b001, 0b001, 0b010, 0b010])
    for corrupt in (
        lambda queues: {v: pairs[:-1] for v, pairs in queues.items()},
        lambda queues: {v: pairs for v, pairs in queues.items() if v != 0b001},
    ):
        monkeypatch.setattr(
            pairing, "_exact", lambda n, hist, deadline=None: corrupt(exact(n, hist, deadline))
        )
        with pytest.raises(InternalSearchFailed):
            exact_pairing_solver(inst)


def test_exact_internal_infeasible():
    # XOR != 0 cannot be produced through the public type, but the raw search
    # must still report exhaustion rather than loop or return garbage.
    with pytest.raises(Infeasible):
        _exact(2, Counter([0b01, 0b11]))
    # A zero target has no pair; left alone, it used to come back as pairs (a, a).
    with pytest.raises(Infeasible):
        _exact(2, Counter([0, 0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_exact_random_instances_n4(seed):
    n, values = instgen.any_valid_instance(random.Random(seed), 4)
    inst = build(n, values)
    assert_valid(inst, exact_pairing_solver(inst))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 5), st.integers(0, 10**6), st.booleans())
def test_frame_form_partition_maps_onto_the_instance(n, seed, low_span):
    # The partition solved for the frame form, mapped back, is the
    # instance's own; a full-rank instance's image under an invertible map
    # has the same form, so it maps from the memo without a second solve.
    rng = random.Random(seed)
    make = instgen.dim_le5_instance if low_span else instgen.any_valid_instance
    _, values = make(rng, n)
    memo = {}
    images = [values]
    if instgen.rank_of(values) == n:
        table = instgen.span_of(instgen.random_independent(rng, n, n))
        images.append([table[v] for v in values])
    solved = []
    exact = pairing._exact

    def spy(m, hist, deadline=None):
        solved.append(hist)
        return exact(m, hist, deadline)

    pairing._exact = spy
    try:
        for image in images:
            inst = build(n, image)
            part = _exact_in_frame(inst, memo)
            assert part.n == n and partition_errors(inst, part) == []
    finally:
        pairing._exact = exact
    assert len(solved) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10**6), st.booleans())
def test_frame_pairs_come_in_the_order_restore_gives(n, seed, low_span):
    # _exact_in_frame writes each pair straight into target order; that
    # order is the one _restore gives the form's pairs kept as per-target
    # queues, the k-th occurrence of a target taking the k-th pair of its
    # queue.  At n = 2 the two targets are equal, so every instance is
    # already of low span, and dim_le5_instance needs n >= 3.
    rng = random.Random(seed)
    make = instgen.dim_le5_instance if low_span and n > 2 else instgen.any_valid_instance
    _, values = make(rng, n)
    memo = {}
    part = _exact_in_frame(build(n, values), memo)
    (tables,) = [memo[key] for key in memo if type(key) is bytes]
    ((form, firsts),) = [(key, memo[key]) for key in memo if type(key) is tuple]
    queues = {}
    for c, p in zip(form, firsts):
        queues.setdefault(tables[c], []).append((tables[p], tables[p ^ c]))
    assert [sorted(pq) for pq in part.pairs] == [sorted(pq) for pq in _restore(values, queues)]


# ---------------------------------------------------------------------------
# zero-sum halving (the coset lift's step, called directly)


def test_split_contract_example_two_values():
    values = [0b001, 0b001, 0b010, 0b010]
    first, second = _split_halves(Counter(values))
    assert_valid_split(values, first, second)


def test_split_contract_example_single_value():
    first, second = _split_halves(Counter([0b001] * 4))
    assert first == second == Counter({0b001: 2})


def test_split_contract_example_n4():
    values = [0b0011, 0b0101, 0b0110, 0b0011, 0b0101, 0b0110, 0b0110, 0b0110]
    first, second = _split_halves(Counter(values))
    assert_valid_split(values, first, second)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_split_random_low_dimension(seed):
    _, values = instgen.dim_le5_instance(random.Random(seed), 6)
    first, second = _split_halves(Counter(values))
    assert_valid_split(values, first, second)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_split_preserves_even_multiplicities(seed):
    _, values = instgen.dim6_even_instance(random.Random(seed), 7)
    first, second = _split_halves(Counter(values))
    assert_valid_split(values, first, second)
    for half in (first, second):
        assert all(c % 2 == 0 for c in half.values())


def dense_odd_values(level, odd_count):
    """odd_count distinct zero-sum singles plus pairs of fillers, 2^(level-1) in all."""
    size = 1 << (level - 1)
    rng = random.Random(odd_count)
    singles = distinct_zero_sum(rng, list(range(1, size)), odd_count)
    fillers = [rng.randrange(1, size) for _ in range((size - odd_count) // 2)]
    values = singles + [w for w in fillers for _ in (0, 1)]
    rng.shuffle(values)
    return values


# The complement of the odd-value set inside the spanned subspace also XORs
# to zero, so it has at least three elements: the odd count is capped at
# 2^(m-1) - 4 for a level-m split.
@pytest.mark.parametrize("odd_count", [18, 20, 22, 24, 26, 28])
def test_split_dense_odd_values_level6(odd_count):
    values = dense_odd_values(6, odd_count)
    first, second = _split_halves(Counter(values))
    assert_valid_split(values, first, second)


# Above level 6 the coset lift halves only groups spanning at most 5
# dimensions, whose at most 28 odd values fit in one half; more odd values
# than half a group means the caller broke that precondition.
@pytest.mark.parametrize("odd_count", [34, 40, 50, 52, 58, 60])
def test_split_dense_odd_values_level7(odd_count):
    with pytest.raises(InternalSearchFailed):
        _split_halves(Counter(dense_odd_values(7, odd_count)))


def test_split_odds_level6_balances_every_densest_set():
    # A zero-sum set of 26 (28) distinct nonzero vectors of F_2^5 is the
    # complement of 5 (3) nonzero vectors with XOR 0.  Every one of them
    # must split into two zero-sum sets of at most 16 values.
    nonzero = range(1, 32)
    checked = 0
    for missing in (3, 5):
        for gone in itertools.combinations(nonzero, missing):
            if instgen.xor_all(gone):
                continue
            odds = [u for u in nonzero if u not in gone]
            second = _split_odds_level6(odds)
            first = [u for u in odds if u not in second]
            assert len(first) <= 16 and len(second) <= 16
            assert len(first) % 2 == 0
            assert instgen.xor_all(first) == 0 and instgen.xor_all(second) == 0
            assert sorted(first + second) == odds
            checked += 1
    assert checked == 155 + 5208


# ---------------------------------------------------------------------------
# small-dimension coset lifting


def test_small_dimension_single_target_value():
    inst = build(4, [0b0001] * 8)
    part = small_dimension(inst)
    assert_valid(inst, part)
    assert all(p ^ q == 1 for p, q in list(part.pairs))


def test_small_dimension_single_value_n6():
    inst = build(6, [0b000001] * 32)
    part = small_dimension(inst)
    assert_valid(inst, part)


def test_small_dimension_rejects_bad_sum_at_construction():
    with pytest.raises(PreconditionViolated):
        build(4, [0b0001] * 5 + [0b0011] + [0b0010] * 2)


def test_small_dimension_case_checks():
    inst = build(4, [1, 2, 3, 1, 2, 3, 5, 5])
    with pytest.raises(CaseNotApplicable):
        solve_pairing(inst, "Dim6EvenCoset")  # the span-6 lift needs n >= 6
    wide = build(7, [1, 2, 4, 8, 16, 32, 64, 127] + [3] * 56)
    with pytest.raises(CaseNotApplicable):
        solve_pairing(wide, "Dim5Coset")  # span is 7-dimensional
    odd = build(6, [1] * 3 + [2, 4, 7] + [3] * 26)
    with pytest.raises(CaseNotApplicable):
        solve_pairing(odd, "Dim6EvenCoset")  # demands even multiplicities


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(6, 9))
def test_small_dimension_random(seed, n):
    nn, values = instgen.dim_le5_instance(random.Random(seed), n)
    inst = build(nn, values)
    part = small_dimension(inst)
    assert_valid(inst, part)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(7, 9))
def test_small_dimension_even_rank6(seed, n):
    nn, values = instgen.dim6_even_instance(random.Random(seed), n)
    inst = build(nn, values)
    part = solve_pairing(inst, "Dim6EvenCoset")[0]
    assert_valid(inst, part)


def span2_instance(n, a, b, seed):
    """2^(n-1) shuffled copies of a, b and a ^ b, every count even."""
    third = (1 << (n - 1)) // 3 & ~1
    values = [a] * third + [b] * third + [a ^ b] * ((1 << (n - 1)) - 2 * third)
    random.Random(seed).shuffle(values)
    return build(n, values)


def test_coset_lift_solves_low_span_groups_at_level_five():
    inst = span2_instance(10, 0b1000000001, 0b0110000010, 1)
    part, route = solve_pairing(inst)
    assert_valid(inst, part)
    assert route.trace == ("coset-lift n=10 k=5 groups=32",)


# ---------------------------------------------------------------------------
# three-value splitting


def three_value_groups(values, k):
    """What the DimHalfEven route splits its targets into, as sorted lists."""
    return [sorted(Counter(g).elements()) for g in _halve_rounds(Counter(values), k, _split_three)]


def test_split_three_contract_pair_of_values():
    values = [0b0001] * 4 + [0b0010] * 4
    groups = three_value_groups(values, 2)
    assert len(groups) == 4
    assert all(len(g) == 2 for g in groups)
    assert all(len(set(g)) == 1 for g in groups)
    merged = sorted(v for g in groups for v in g)
    assert merged == sorted(values)


def test_split_three_contract_single_value():
    groups = three_value_groups([0b0001] * 8, 1)
    assert len(groups) == 2
    assert all(g == [0b0001] * 4 for g in groups)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(5, 9))
def test_split_three_postconditions(seed, n):
    _, values = instgen.dim_half_even_instance(random.Random(seed), n)
    k = instgen.rank_of(values)
    groups = three_value_groups(values, k)
    assert len(groups) == 1 << k
    merged = []
    for g in groups:
        assert len(g) == len(values) >> k
        hist = Counter(g)
        assert len(hist) <= 3
        if len(g) >= 2:
            assert all(c % 2 == 0 for c in hist.values())
        merged.extend(g)
    assert sorted(merged) == sorted(values)


# ---------------------------------------------------------------------------
# half-dimension even case


def test_dim_half_contract_example():
    inst = build(4, [0b0001, 0b0001, 0b0010, 0b0010, 0b0011, 0b0011, 0b0001, 0b0001])
    part = dim_half_even(inst)
    assert_valid(inst, part)


def test_dim_half_random_3dim_n6():
    rng = random.Random(11)
    basis = instgen.random_independent(rng, 6, 3)
    pool = [x for x in instgen.span_of(basis) if x]
    picks = basis + [rng.choice(pool) for _ in range(13)]
    values = [v for v in picks for _ in (0, 1)]
    inst = build(6, values)
    part = dim_half_even(inst)
    assert_valid(inst, part)


def test_dim_half_rejects_odd_multiplicities():
    # Span dimension 3 fits within n/2, but four values appear an odd number
    # of times.  (A 2-dimensional span cannot carry odd multiplicities at all,
    # hence n = 6 for this check.)
    inst = build(6, [1, 2, 4, 7] + [3] * 28)
    with pytest.raises(CaseNotApplicable):
        dim_half_even(inst)


def test_dim_half_rejects_large_span():
    inst = build(4, [1, 1, 2, 2, 4, 4, 7, 7])
    with pytest.raises(CaseNotApplicable):
        dim_half_even(inst)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(6, 10))
def test_dim_half_random(seed, n):
    nn, values = instgen.dim_half_even_instance(random.Random(seed), n)
    inst = build(nn, values)
    part = dim_half_even(inst)
    assert_valid(inst, part)


def test_lift_solves_each_distinct_group_once(monkeypatch):
    # One n=14 span-7 DimHalfEven solve: its 128 three-value groups start
    # nested coset lifts, and across all of them the exact search runs once
    # per distinct (level, frame-coordinate histogram) of the whole call.
    # A memo kept per lift, not per call, ran it 292 times on these 84 groups.
    exact = pairing._exact
    calls = []

    def counting_exact(n, hist, deadline=None):
        calls.append((n, tuple(sorted(hist.items()))))
        return exact(n, hist, deadline)

    monkeypatch.setattr(pairing, "_exact", counting_exact)
    inst = build(*instgen.even_span_instance(random.Random(14), 14, 7))
    part, route = solve_pairing(inst)
    assert route.tag == "DimHalfEven"
    assert_valid(inst, part)
    assert {n for n, _ in calls} == {5}
    assert len(calls) == len(set(calls)) == 84
    # The same instance solved again starts from an empty memo.
    calls.clear()
    assert solve_pairing(inst) == (part, route)
    assert len(calls) == 84


def test_lift_frames_build_no_basis(monkeypatch):
    # The same DimHalfEven solve calls echelon_basis once, for the router's
    # span: every coset frame of its nested lifts comes from gf2.lift_frame.
    made = []
    echelon_basis = pairing.echelon_basis

    def counting_echelon_basis(values, dim):
        made.append(dim)
        return echelon_basis(values, dim)

    monkeypatch.setattr(pairing, "echelon_basis", counting_echelon_basis)
    inst = build(*instgen.even_span_instance(random.Random(14), 14, 7))
    part, route = solve_pairing(inst)
    assert route.tag == "DimHalfEven"
    assert_valid(inst, part)
    assert made == [14]


# ---------------------------------------------------------------------------
# even-pairs lifting


def test_lift_even_contract_example():
    assert_valid_lift(3, [0b001, 0b001, 0b110, 0b110])


def test_lift_even_random_n6():
    rng = random.Random(3)
    picks = [rng.randrange(1, 64) for _ in range(16)]
    assert_valid_lift(6, [v for v in picks for _ in (0, 1)])


def test_lift_even_rejects_zero_target_at_construction():
    with pytest.raises(PreconditionViolated):
        build(3, [0b001, 0b010, 0b011, 0b000])


def test_lift_even_rejects_odd_multiplicities():
    with pytest.raises(InternalSearchFailed):
        _lift_even(3, Counter([1, 2, 4, 7]), [])


def test_lift_even_degenerate_pair_sum_falls_back():
    # All pair values cancel and no value has multiplicity 2, so the anchor
    # is 1 with two slots.
    trace = []
    pairs = _restore([0b001] * 4, _lift_even(3, Counter({0b001: 4}), trace))
    assert oracle_errors(3, [0b001] * 4, pairs) == []
    assert trace == ["even-lift n=3 slots=2"]


def test_lift_even_only_candidate_is_excluded():
    # The lone multiplicity-2 value equals the XOR of all pair values, so it
    # cannot anchor alone; 1, with three slots, anchors instead.
    values = [0b000001] * 6 + [0b000010] * 6 + [0b000011] * 6 + [0b000100] * 2 + [0b000101] * 12
    assert_valid_lift(6, values)


@pytest.mark.parametrize("n, count", [(3, 28), (4, 3060)])
def test_lift_even_every_histogram(n, count):
    cases = 0
    for combo in itertools.combinations_with_replacement(range(1, 1 << n), 1 << (n - 2)):
        assert_valid_lift(n, [v for v in combo for _ in (0, 1)])
        cases += 1
    assert cases == count


LIFT_SHAPES_WITHOUT_A_MULTIPLICITY_TWO_ANCHOR = {
    "pair sum 0": (4, [1, 1, 2, 2, 4, 4, 7, 7]),
    "every multiplicity 0 mod 4": (5, [1] * 4 + [2] * 8 + [6] * 4),
    "lone multiplicity 2 is the pair sum": (6, [9] * 2 + [1] * 6 + [2] * 6 + [3] * 6 + [17] * 12),
    "16 distinct pairs with XOR 0": (6, [v for v in [*range(1, 15), 16, 31] for _ in (0, 1)]),
}


@pytest.mark.parametrize("shape", list(LIFT_SHAPES_WITHOUT_A_MULTIPLICITY_TWO_ANCHOR))
def test_lift_even_anchors_every_shape(shape):
    n, values = LIFT_SHAPES_WITHOUT_A_MULTIPLICITY_TWO_ANCHOR[shape]
    assert not has_multiplicity_two_anchor(values)
    assert_valid_lift(n, values)


def test_lift_even_degenerate_out_of_reach_n7():
    # The lift solves by exact search, so it refuses any level above 6
    # rather than start a search out of reach.
    values = [1] * 6 + [2] * 6 + [3] * 6 + [4] * 2 + [5] * 44
    with pytest.raises(InternalSearchFailed):
        _lift_even(7, Counter(values), [])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 6]), st.data())
def test_lift_even_random_pairs(n, data):
    slots = 1 << (n - 2)
    picks = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=slots, max_size=slots))
    assert_valid_lift(n, [v for v in picks for _ in (0, 1)])


# ---------------------------------------------------------------------------
# at-most-n-values recursion


def test_at_most_n_contract_examples():
    inst = build(4, [0b0001] * 3 + [0b0010, 0b0100] + [0b0111] * 3)
    assert_valid(inst, at_most_n_values(inst))
    odd = build(4, [0b0001] * 5 + [0b0010, 0b0100, 0b0111])
    assert_valid(odd, at_most_n_values(odd))


def test_at_most_n_rejects_too_many_values():
    inst = build(3, [0b001, 0b010, 0b100, 0b111])
    with pytest.raises(CaseNotApplicable):
        at_most_n_values(inst)


def test_at_most_n_few_values_even_n7():
    # 3 distinct values, all even multiplicities, fewer than n of them.
    values = [1] * 20 + [2] * 22 + [3] * 22
    inst = build(7, values)
    assert_valid(inst, at_most_n_values(inst))


def test_at_most_n_exactly_n_even_independent_n7():
    values = []
    for i, count in zip(range(7), [10, 10, 10, 10, 10, 10, 4]):
        values += [1 << i] * count
    inst = build(7, values)
    assert_valid(inst, at_most_n_values(inst))


def test_at_most_n_exactly_n_even_independent_n8():
    values = []
    for i, count in zip(range(8), [18, 18, 18, 18, 18, 18, 18, 2]):
        values += [1 << i] * count
    inst = build(8, values)
    assert_valid(inst, at_most_n_values(inst))


def test_at_most_n_exactly_n_even_dependent_n7():
    picks = [1, 2, 4, 8, 16, 32, 63]
    counts = [10, 10, 10, 10, 10, 10, 4]
    values = [v for v, c in zip(picks, counts) for _ in range(c)]
    inst = build(7, values)
    assert_valid(inst, at_most_n_values(inst))


def test_at_most_n_odd_few_values_n7():
    # m = 4 odd values, l = 5 < n.
    odds = [1, 2, 4, 7]
    values = list(odds) + [3] * 30 + [1] * 10 + [2] * 10 + [4] * 10
    inst = build(7, values)
    assert_valid(inst, at_most_n_values(inst))


def test_at_most_n_full_with_small_odd_count_n7():
    # l = 7, m = 4: the pinned two-sided split.
    odds = [1, 2, 4, 7]
    values = list(odds) + [8] * 20 + [16] * 20 + [32] * 16 + [1] * 2 + [2] * 2
    inst = build(7, values)
    assert len(set(inst.values)) == 7
    assert_valid(inst, at_most_n_values(inst))


def test_at_most_n_zero_sum_subset_case_n8():
    # m = 8 odd values containing the zero-sum quadruple {1,2,4,7}.  With
    # m = 6 any even-size proper subset would force its two-value complement
    # to cancel, so eight values are the smallest configuration reaching the
    # subset split.
    odds = [1, 2, 4, 7, 8, 16, 32, 56]
    assert instgen.xor_all(odds) == 0
    counts = [15, 15, 15, 15, 17, 17, 17, 17]
    values = [v for v, c in zip(odds, counts) for _ in range(c)]
    inst = build(8, values)
    assert_valid(inst, at_most_n_values(inst))


def test_subset_split_never_pins_one_value_to_both_sides_n9():
    # l = n = 9: the eight odd values above and one even value, 3, whose
    # two copies are the fewest leftover copies of any value, so 3 heads
    # both sides' pin candidates.  Pinning it on both sides is skipped and
    # side two pins its next candidate, 8.
    odds = [1, 2, 4, 7, 8, 16, 32, 56]
    counts = [5, 5, 5, 5, 5, 5, 5, 219]
    values = [v for v, c in zip(odds, counts) for _ in range(c)] + [3, 3]
    inst = build(9, values)
    part, route = solve_pairing(inst, "AtMostNValues")
    assert_valid(inst, part)
    assert route.trace[0] == "zero-subset-split n=9 |U|=4 pins=(3,8)"


def test_subset_split_instances_take_the_subset_split():
    # Seeded n = 8 and 9 instances whose odd values split into two even-size
    # zero-sum halves: each auto-routes to AtMostNValues and opens with the
    # zero-subset split, which the fixed cases above reach only twice.
    for n in (8, 9):
        for seed in range(60):
            inst = build(*instgen.subset_split_instance(random.Random(seed), n))
            part, route = solve_pairing(inst)
            assert route.tag == "AtMostNValues"
            assert route.trace[0].startswith(f"zero-subset-split n={n} "), (n, seed)
            assert_valid(inst, part)


def test_at_most_n_three_coset_case_n7():
    # No proper even-size zero-sum subset among the m = n - 1 odd values.
    odds = [1, 2, 4, 8, 16, 31]
    values = list(odds) + [96] * 58
    inst = build(7, values)
    assert_valid(inst, at_most_n_values(inst))


def test_at_most_n_three_coset_case_n6():
    # m = n odd values, no even-size proper zero-sum subset.
    odds = [1, 2, 4, 8, 16, 31]
    values = [1] * 1 + [2] * 1 + [4] * 1 + [8] * 3 + [16] * 3 + [31] * 23
    assert instgen.xor_all(values) == 0
    inst = build(6, values)
    assert_valid(inst, at_most_n_values(inst))


def test_at_most_n_odd_subset_only_case_n6():
    # Zero-sum subsets of the odd values exist only at odd sizes ({1,2,3} and
    # {4,8,12}), so the even-parity subset search must report failure and the
    # three-coset construction takes over.
    values = [1, 2, 3, 4, 8] + [12] * 27
    inst = build(6, values)
    assert len(set(inst.values)) == 6
    assert_valid(inst, at_most_n_values(inst))


def counting_allocator(monkeypatch):
    """Wrap the three-coset allocator; the returned list grows by one per call.

    Each entry is the number of values in the pool and the tries the call spent.
    """
    calls = []
    real = pairing._allocate

    def counting(pool, vessels, tries):
        before = operator.length_hint(tries)
        try:
            return real(pool, vessels, tries)
        finally:
            calls.append((len(pool), before - operator.length_hint(tries)))

    monkeypatch.setattr(pairing, "_allocate", counting)
    return calls


def from_histogram(n, hist):
    return build(n, [u for u, c in hist.items() for _ in range(c)])


@pytest.mark.parametrize(
    "n, hist",
    [
        (6, {8: 3, 21: 3, 33: 3, 42: 3, 43: 7, 61: 13}),
        (7, {8: 1, 11: 1, 12: 2, 109: 1, 111: 1, 122: 57, 123: 1}),
    ],
)
def test_three_coset_searches_inside_the_first_layout_when_the_greedy_fill_fails(
    n, hist, monkeypatch
):
    # The greedy descent of the first layout leaves a value with no vessel;
    # the search goes on inside that layout, spending more tries than the
    # pool has values, and fills it without moving to the next.
    calls = counting_allocator(monkeypatch)
    inst = from_histogram(n, hist)
    assert_valid(inst, at_most_n_values(inst))
    assert len(calls) == 1
    values, spent = calls[0]
    assert spent > values


@pytest.mark.parametrize(
    "n, hist",
    [
        (7, {7: 3, 12: 44, 21: 5, 70: 3, 88: 3, 113: 3, 125: 3}),
        (7, {21: 5, 32: 6, 53: 3, 71: 17, 105: 5, 114: 25, 124: 3}),
        (8, {78: 7, 124: 7, 128: 5, 164: 3, 169: 91, 184: 7, 216: 3, 223: 5}),
    ],
)
def test_three_coset_searches_the_fill_once_no_greedy_fill_fits(n, hist, monkeypatch):
    # The greedy fill leaves a value without a vessel on every layout (at
    # n = 8 the pair loop runs up to the first pair too heavy for its half);
    # the search inside the first layout fills it, so the allocator runs once.
    calls = counting_allocator(monkeypatch)
    inst = from_histogram(n, hist)
    assert_valid(inst, at_most_n_values(inst))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "n, hist",
    [
        (6, {7: 1, 14: 9, 36: 1, 42: 1, 59: 1, 60: 19}),
        (8, {12: 17, 36: 23, 42: 15, 47: 13, 99: 9, 100: 21, 144: 13, 186: 17}),
    ],
)
def test_three_coset_skips_a_layout_with_a_zero_group_xor(n, hist, monkeypatch):
    # The first layout has a group with XOR 0, which cannot head a quarter
    # instance; it is skipped before any allocation, and the next one fills.
    calls = counting_allocator(monkeypatch)
    inst = from_histogram(n, hist)
    assert_valid(inst, at_most_n_values(inst))
    assert len(calls) == 1


def greedy_fill(pool, vessels):
    """One greedy pass of the three-coset fill, or None where a value finds no vessel.

    Largest counts go first, each into a vessel with need left that already
    holds the value or has fewer than cap distinct values: present first,
    then neediest, then lowest index, taking all it can.
    """
    needs = [need for need, _, _ in vessels]
    present = [set(p) for _, _, p in vessels]
    alloc = [Counter() for _ in vessels]
    for u, left in sorted(pool.items(), key=lambda kv: (-kv[1], kv[0])):
        while left:
            choices = [
                i
                for i, (_, cap, _) in enumerate(vessels)
                if needs[i] and (u in present[i] or len(present[i]) < cap)
            ]
            if not choices:
                return None
            i = min(choices, key=lambda i: (u not in present[i], -needs[i], i))
            take = min(left, needs[i])
            alloc[i][u] += take
            needs[i] -= take
            present[i].add(u)
            left -= take
    return alloc


@st.composite
def allocation_problems(draw):
    """An even pool and vessels (need, cap, present) whose needs sum to the pool."""
    counts = st.integers(1, 6).map(lambda h: 2 * h)
    pool = draw(st.dictionaries(st.integers(1, 8), counts, min_size=1, max_size=6))
    half = sum(pool.values()) // 2
    k = draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.integers(0, half), min_size=k - 1, max_size=k - 1)))
    vessels = [
        (2 * (hi - lo), draw(st.integers(1, 4)), draw(st.sets(st.integers(1, 8), max_size=3)))
        for lo, hi in zip([0, *cuts], [*cuts, half])
    ]
    return pool, vessels


@settings(max_examples=300, deadline=None)
@given(allocation_problems())
def test_allocate_takes_the_greedy_fill_first(problem):
    # Wherever the greedy pass fills, the search's first descent is that
    # pass: the same allocation after one try per value.
    pool, vessels = problem
    want = greedy_fill(pool, vessels)
    if want is None:
        return
    tries = iter(range(len(pool)))
    assert pairing._allocate(pool, vessels, tries) == want
    assert next(tries, None) is None


def test_allocate_returns_none_once_the_tries_are_spent():
    assert pairing._allocate({3: 2}, [(2, 2, set())], iter(())) is None


def test_three_coset_raises_when_the_shared_tries_run_out(monkeypatch):
    # 12 carries 27 copies, so every layout the walk reaches leaves at least
    # 26 of them in its even pool, and each fill needs a try to start.
    monkeypatch.setattr(pairing, "_ALLOCATION_TRIES", 0)
    calls = counting_allocator(monkeypatch)
    inst = build(6, [1, 2, 3, 4, 8] + [12] * 27)
    message = "no separated pair admits a feasible coset layout"
    with pytest.raises(InternalSearchFailed, match=message):
        at_most_n_values(inst)
    assert calls and all(values > 0 and spent == 0 for values, spent in calls)


def test_coset_group_splits_skip_zero_xor_groups():
    # Rotation 0 puts {1, 2, 3} in group one, whose XOR is 0.
    assert list(_coset_group_splits([1, 2, 3, 8, 16], {}, 3)) == [
        ([2, 3, 8], [1, 16], 9, 17),
        ([3, 8, 16], [1, 2], 27, 3),
        ([1, 8, 16], [2, 3], 25, 1),
        ([1, 2, 16], [3, 8], 19, 11),
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(6, 8))
def test_three_coset_instances_reach_the_case(seed, n):
    n, values = instgen.three_coset_instance(random.Random(seed), n)
    inst = build(n, values)
    part, route = solve_pairing(inst, "AtMostNValues")
    assert_valid(inst, part)
    assert any(entry.startswith(f"three-coset n={n} ") for entry in route.trace)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(8, 9))
def test_heavy_three_coset_instances_solve(seed, n):
    # About one draw in 25 fails the greedy fill on every layout (see the generator).
    n, values = instgen.heavy_three_coset_instance(random.Random(seed), n)
    inst = build(n, values)
    assert_valid(inst, at_most_n_values(inst))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(6, 10))
def test_at_most_n_random(seed, n):
    nn, values = instgen.at_most_n_instance(random.Random(seed), n)
    inst = build(nn, values)
    assert_valid(inst, at_most_n_values(inst))


# ---------------------------------------------------------------------------
# routing


def test_route_single_value_dim5():
    inst = build(6, [0b000001] * 32)
    part, route = solve_pairing(inst)
    assert_valid(inst, part)
    assert route.tag == "Dim5Coset"


def test_route_low_dimension_wins_over_value_count():
    # Three-dimensional span, so the dimension case fires before the
    # value-count case even though l <= n also holds.
    inst = build(4, [0b0001] * 3 + [0b0010, 0b0100] + [0b0111] * 3)
    part, route = solve_pairing(inst)
    assert_valid(inst, part)
    assert route.tag == "Dim5Coset"


def test_route_dim6_even():
    n, values = instgen.dim6_even_instance(random.Random(21), 8)
    inst = build(n, values)
    part, route = solve_pairing(inst)
    assert_valid(inst, part)
    assert route.tag == "Dim6EvenCoset"


def test_route_at_most_n_values():
    values = []
    for i, count in zip(range(7), [10, 10, 10, 10, 10, 10, 4]):
        values += [1 << i] * count
    inst = build(7, values)
    part, route = solve_pairing(inst)
    assert_valid(inst, part)
    assert route.tag == "AtMostNValues"
    assert route.trace  # recursion descriptors are recorded


def test_route_dim_half_even():
    # Span dimension 7 and more than 14 distinct values, so none of the
    # earlier cases claims the instance.
    rng = random.Random(8)
    basis = instgen.random_independent(rng, 14, 7)
    pool = [x for x in instgen.span_of(basis) if x]
    picks = list(basis)
    seen = set(basis)
    while len(picks) < 15:
        v = rng.choice(pool)
        if v not in seen:
            seen.add(v)
            picks.append(v)
    picks += [rng.choice(pool) for _ in range(4096 - len(picks))]
    values = [v for v in picks for _ in (0, 1)]
    inst = build(14, values)
    assert len(set(inst.values)) > 14
    part, route = solve_pairing(inst)
    assert_valid(inst, part)
    assert route.tag == "DimHalfEven"


def test_route_exact_search_n6():
    singles = [1, 2, 4, 8, 16, 32, 33, 30]
    values = singles + [5] * 24
    inst = build(6, values)
    assert len(set(inst.values)) == 9
    part, route = solve_pairing(inst)
    assert_valid(inst, part)
    assert route.tag == "ExactSearch"


def test_route_not_covered_n7():
    singles = [1, 2, 4, 8, 16, 32, 64, 127]
    values = singles + [3] * 56
    inst = build(7, values)
    assert len(set(inst.values)) == 9
    with pytest.raises(NotCovered):
        solve_pairing(inst)
    for route in pairing.ROUTE_TAGS:
        with pytest.raises(CaseNotApplicable):
            solve_pairing(inst, route)


#: The order in which solve_pairing tries the routes when none is given.
AUTO_ORDER = ("Dim5Coset", "Dim6EvenCoset", "AtMostNValues", "DimHalfEven", "ExactSearch")

def span7_even_instance(rng, n):
    """All-even targets spanning 7 dimensions: DimHalfEven takes them at n = 14."""
    return instgen.even_span_instance(rng, n, 7)


def exact_search_instance(rng, n):
    """The instance of test_route_exact_search_n6, whatever rng and n."""
    return 6, [1, 2, 4, 8, 16, 32, 33, 30] + [5] * 24


#: Each instgen stream with an n range, and the two streams that reach
#: DimHalfEven and ExactSearch, which the others never do.
ROUTER_STREAMS = [
    (instgen.dim_le5_instance, 5, 9),
    (instgen.dim6_even_instance, 7, 9),
    (instgen.dim_half_even_instance, 4, 10),
    (instgen.at_most_n_instance, 6, 9),
    (instgen.three_coset_instance, 6, 8),
    (span7_even_instance, 14, 14),
    (exact_search_instance, 6, 6),
]


@pytest.mark.parametrize(
    "stream, lo, hi",
    ROUTER_STREAMS,
    ids=[stream.__name__ for stream, _, _ in ROUTER_STREAMS],
)
def test_forced_route_replays_the_automatic_choice(stream, lo, hi):
    # The route solve_pairing picks gives the same pairs and trace when
    # forced, and every route it tries first refuses the instance.
    assert pairing.ROUTE_TAGS == AUTO_ORDER
    rng = random.Random(15)
    for _ in range(8):
        inst = build(*stream(rng, rng.randint(lo, hi)))
        part, route = solve_pairing(inst)
        assert_valid(inst, part)
        assert solve_pairing(inst, route.tag) == (part, route)
        for earlier in AUTO_ORDER[: AUTO_ORDER.index(route.tag)]:
            with pytest.raises(CaseNotApplicable):
                solve_pairing(inst, earlier)


def test_unknown_route_is_a_precondition_violation():
    inst = build(3, [1, 1, 2, 2])
    for route in ("", "auto", "exact", "dim5", "Dim5coset", 5, True, ("Dim5Coset",)):
        with pytest.raises(PreconditionViolated):
            solve_pairing(inst, route)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_route_agrees_with_exact_on_small_instances(seed):
    n, values = instgen.dim_le5_instance(random.Random(seed), 5)
    inst = build(n, values)
    constructive, _ = solve_pairing(inst)
    direct = exact_pairing_solver(inst)
    assert_valid(inst, constructive)
    assert_valid(inst, direct)


# ---------------------------------------------------------------------------
# target order


def by_target(values, pairs):
    """Each target value's pairs, in occurrence order."""
    out = {}
    for v, pq in zip(values, pairs):
        out.setdefault(v, []).append(pq)
    return out


def routed(inst):
    return solve_pairing(inst)[0]


#: Each public solver with an instgen stream it covers and that stream's n range.
ORDER_CASES = [
    (routed, instgen.dim_le5_instance, 5, 8),
    (routed, instgen.dim6_even_instance, 7, 8),
    (routed, instgen.at_most_n_instance, 6, 9),
    (exact_pairing_solver, instgen.any_valid_instance, 3, 5),
    (small_dimension, instgen.dim_le5_instance, 5, 9),
    (dim_half_even, instgen.dim_half_even_instance, 4, 9),
    (at_most_n_values, instgen.at_most_n_instance, 4, 9),
    (at_most_n_values, instgen.three_coset_instance, 6, 8),
]


@pytest.mark.parametrize(
    "solver, stream, lo, hi",
    ORDER_CASES,
    ids=[f"{solver.__name__}-{stream.__name__}" for solver, stream, _, _ in ORDER_CASES],
)
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_solution_depends_only_on_the_target_multiset(solver, stream, lo, hi, seed):
    # Every solver works on the target histogram and restores target order
    # once: listing the same targets in another order gives each target
    # value the same pairs, in occurrence order.
    rng = random.Random(seed)
    n, values = stream(rng, rng.randint(lo, hi))
    shuffled = values[:]
    rng.shuffle(shuffled)
    part = solver(build(n, values))
    again = solver(build(n, shuffled))
    assert_valid(build(n, shuffled), again)
    assert by_target(values, part.pairs) == by_target(shuffled, again.pairs)
