"""Seeded random generators for pairing instances and caterpillars.

Self-contained on purpose: validity bookkeeping (ranks, XOR fixing) is done
with plain ints here so the generated instances do not depend on the code
under test.  Each instance generator returns (n, values) with values a list
of ints; the caterpillar generator returns a degree tuple.
"""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement


def xor_all(values) -> int:
    total = 0
    for v in values:
        total ^= v
    return total


def zero_sum_multisets(n: int):
    """Every multiset of 2^(n-1) nonzero targets with XOR 0, in lexicographic order.

    The plain filter over all combinations with replacement; the reference
    for the sweep's own enumeration.
    """
    for combo in combinations_with_replacement(range(1, 1 << n), 1 << (n - 1)):
        if xor_all(combo) == 0:
            yield combo


def rank_of(values) -> int:
    rows: list[int] = []
    for v in values:
        for r in rows:
            v = min(v, v ^ r)
        if v:
            rows.append(v)
            rows.sort(reverse=True)
    return len(rows)


def random_independent(rng: random.Random, n: int, r: int) -> list[int]:
    out: list[int] = []
    while len(out) < r:
        v = rng.randrange(1, 1 << n)
        if rank_of(out + [v]) > len(out):
            out.append(v)
    return out


def span_of(basis: list[int]) -> list[int]:
    span = [0]
    for b in basis:
        span += [x ^ b for x in span]
    return span


def _fill_zero_sum(rng: random.Random, pool: list[int], count: int) -> list[int]:
    """count values drawn from pool (nonzero, closed under XOR) with XOR 0."""
    assert count % 2 == 0 and len(pool) >= 1
    values = [rng.choice(pool) for _ in range(count - 2)]
    t = xor_all(values)
    if t == 0:
        v = rng.choice(pool)
        values += [v, v]
    else:
        choices = [a for a in pool if a != t]
        if not choices:
            # pool is a single value {v}; t == v impossible when count-2 even
            raise AssertionError("cannot close the XOR with this pool")
        a = rng.choice(choices)
        values += [a, a ^ t]
    assert xor_all(values) == 0 and all(values)
    return values


def dim_le5_instance(rng: random.Random, n: int) -> tuple[int, list[int]]:
    """2^(n-1) nonzero targets with XOR 0 spanning at most 5 dimensions."""
    assert n >= 3
    r = rng.randint(1, min(5, n))
    size = 1 << (n - 1)
    if r == 1:
        v = rng.randrange(1, 1 << n)
        return n, [v] * size
    pool = [x for x in span_of(random_independent(rng, n, r)) if x]
    values = _fill_zero_sum(rng, pool, size)
    rng.shuffle(values)
    return n, values


def dim6_even_instance(rng: random.Random, n: int) -> tuple[int, list[int]]:
    """All-even targets spanning exactly 6 dimensions."""
    assert n >= 7
    basis = random_independent(rng, n, 6)
    pool = [x for x in span_of(basis) if x]
    half_count = 1 << (n - 2)
    picks = list(basis) + [rng.choice(pool) for _ in range(half_count - 6)]
    values = [v for v in picks for _ in (0, 1)]
    rng.shuffle(values)
    assert rank_of(values) == 6
    return n, values


def dim_half_even_instance(rng: random.Random, n: int) -> tuple[int, list[int]]:
    """All-even targets spanning at most n // 2 dimensions."""
    assert n >= 4
    r = rng.randint(1, n // 2)
    basis = random_independent(rng, n, r)
    pool = [x for x in span_of(basis) if x]
    half_count = 1 << (n - 2)
    picks = list(basis)[: min(r, half_count)]
    picks += [rng.choice(pool) for _ in range(half_count - len(picks))]
    values = [v for v in picks for _ in (0, 1)]
    rng.shuffle(values)
    return n, values


def even_span_instance(rng: random.Random, n: int, d: int) -> tuple[int, list[int]]:
    """All-even targets spanning exactly d dimensions."""
    basis = random_independent(rng, n, d)
    pool = [x for x in span_of(basis) if x]
    picks = basis + [rng.choice(pool) for _ in range((1 << (n - 2)) - d)]
    values = [v for v in picks for _ in (0, 1)]
    rng.shuffle(values)
    return n, values


def at_most_n_instance(rng: random.Random, n: int) -> tuple[int, list[int]]:
    """At most n distinct values; odd multiplicities appear in valid patterns."""
    assert n >= 4
    size = 1 << (n - 1)
    l = rng.randint(3, n)
    # m distinct odd-multiplicity values must XOR to 0, which rules out m=2;
    # bad random draws (collisions, zero sums) are simply retried.
    while True:
        m = rng.choice([m for m in range(0, min(l, size // 2) + 1) if m % 2 == 0 and m != 2])
        odd_set: list[int] = []
        ok = True
        if m:
            tries = 0
            while True:
                tries += 1
                if tries > 200:
                    ok = False
                    break
                odd_set = []
                seen = set()
                for _ in range(m - 1):
                    v = rng.randrange(1, 1 << n)
                    if v in seen:
                        break
                    seen.add(v)
                    odd_set.append(v)
                if len(odd_set) < m - 1:
                    continue
                last = xor_all(odd_set)
                if last and last not in seen:
                    odd_set.append(last)
                    break
        if not ok:
            continue
        even_count = l - m
        evens: list[int] = []
        seen = set(odd_set)
        tries = 0
        while len(evens) < even_count and tries < 500:
            tries += 1
            v = rng.randrange(1, 1 << n)
            if v not in seen:
                seen.add(v)
                evens.append(v)
        if len(evens) < even_count:
            continue
        counts = {u: 1 for u in odd_set}
        counts.update({u: 2 for u in evens})
        total = sum(counts.values())
        if total > size:
            continue
        keys = odd_set + evens
        while total < size:
            u = rng.choice(keys)
            counts[u] += 2
            total += 2
        values = [u for u in keys for _ in range(counts[u])]
        assert len(values) == size and xor_all(values) == 0
        rng.shuffle(values)
        return n, values


def has_even_zero_sum_subset(values) -> bool:
    """Some proper subset of even size >= 2 has XOR 0."""
    return any(
        xor_all(sub) == 0
        for size in range(2, len(values), 2)
        for sub in combinations(values, size)
    )


def three_coset_instance(rng: random.Random, n: int) -> tuple[int, list[int]]:
    """An at-most-n-values instance of the three-coset shape, 6 <= n <= 8.

    m = n (even n) or n - 1 (odd n) distinct odd-multiplicity values with
    XOR 0 and no even-size proper zero-sum subset; at odd n one more value
    of even multiplicity makes l = n.  The extra copies pile up on a random
    few values, which is what strains the even-chunk allocation.
    """
    assert 6 <= n <= 8
    m = n - n % 2
    while True:
        odd_set = rng.sample(range(1, 1 << n), m - 1)
        last = xor_all(odd_set)
        if last and last not in odd_set and not has_even_zero_sum_subset(odd_set + [last]):
            odd_set.append(last)
            break
    counts = {u: 1 for u in odd_set}
    if n % 2:
        counts[rng.choice([v for v in range(1, 1 << n) if v not in counts])] = 2
    heavy = rng.sample(list(counts), rng.randint(1, len(counts)))
    for _ in range(((1 << (n - 1)) - sum(counts.values())) // 2):
        counts[rng.choice(heavy)] += 2
    values = [u for u in counts for _ in range(counts[u])]
    rng.shuffle(values)
    return n, values


def heavy_three_coset_instance(rng: random.Random, n: int) -> tuple[int, list[int]]:
    """A three-coset instance whose spare copies sit mostly on one to three values, 6 <= n <= 9.

    The m odd values (m as in three_coset_instance) are drawn from a span
    of n - 3 to n - 1 dimensions, a random few of them get up to six more
    copies, and one to three heavy values take the rest.  About one in 25
    of them at n = 8 and 9 leave the three-coset case's greedy fill without
    a vessel for some value on every layout (seeds 0 to 3,999, n = 6 + seed
    % 4: 39 of 1,000 at n = 8, 46 at n = 9, none at n = 6 and 7).
    """
    assert 6 <= n <= 9
    m = n - n % 2
    while True:
        span = [v for v in span_of(random_independent(rng, n, rng.randint(n - 3, n - 1))) if v]
        if len(span) < m:
            continue
        odd_set = rng.sample(span, m - 1)
        last = xor_all(odd_set)
        if last and last not in odd_set and not has_even_zero_sum_subset(odd_set + [last]):
            odd_set.append(last)
            break
    while True:
        counts = {u: 1 for u in odd_set}
        if n % 2:
            counts[rng.choice([v for v in range(1, 1 << n) if v not in counts])] = rng.choice([2, 4, 6])
        for u in rng.sample(odd_set, rng.randint(0, m)):
            counts[u] += 2 * rng.randint(1, 3)
        if sum(counts.values()) <= 1 << (n - 1):
            break
    heavy = rng.sample(list(counts), rng.randint(1, 3))
    for _ in range(((1 << (n - 1)) - sum(counts.values())) // 2):
        counts[rng.choice(heavy)] += 2
    values = [u for u in counts for _ in range(counts[u])]
    rng.shuffle(values)
    return n, values


def subset_split_instance(rng: random.Random, n: int) -> tuple[int, list[int]]:
    """n distinct values whose odd ones split into two even-size zero-sum halves, 8 <= n <= 10.

    m = n (even n) or n - 1 (odd n) values have odd multiplicity; at odd n
    one more value of even multiplicity makes l = n.  The odd values are two
    disjoint zero-sum sets of even size, each at least 4, and all the values
    span at least 6 dimensions, so no coset lift takes the instance before
    the bounded-value recursion does.  As in three_coset_instance, the
    extra copies pile up on a random few values.
    """
    assert 8 <= n <= 10
    m = n - n % 2
    while True:
        size = rng.choice(range(4, m - 3, 2))
        odd_set: list[int] = []
        for count in (size, m - size):
            part = rng.sample([v for v in range(1, 1 << n) if v not in odd_set], count - 1)
            last = xor_all(part)
            if not last or last in part or last in odd_set:
                break
            odd_set += part + [last]
        else:
            counts = {u: 1 for u in odd_set}
            if n % 2:
                counts[rng.choice([v for v in range(1, 1 << n) if v not in counts])] = 2
            if rank_of(counts) >= 6:
                break
    heavy = rng.sample(list(counts), rng.randint(1, len(counts)))
    for _ in range(((1 << (n - 1)) - sum(counts.values())) // 2):
        counts[rng.choice(heavy)] += 2
    values = [u for u in counts for _ in range(counts[u])]
    rng.shuffle(values)
    return n, values


def any_valid_instance(rng: random.Random, n: int) -> tuple[int, list[int]]:
    """Unrestricted valid instance (used with the exact solver at small n)."""
    pool = list(range(1, 1 << n))
    values = _fill_zero_sum(rng, pool, 1 << (n - 1))
    rng.shuffle(values)
    return n, values


def odd_caterpillar_degrees(rng: random.Random, count: int, diam: int) -> tuple[int, ...]:
    """Spine degrees of an all-odd caterpillar on count vertices with diameter diam.

    Uniform over all such degree tuples: a spine of k vertices (k = 1 for a
    star, diam - 1 otherwise), each of degree 3 plus twice its part of a
    composition of the (count - 2 - 2k) / 2 spare units into k parts, drawn
    by placing k - 1 bars among units + k - 1 slots.
    """
    k = 1 if diam == 2 else diam - 1
    units = (count - 2 - 2 * k) // 2
    assert diam >= 2 and count % 2 == 0 and units >= 0
    bars = sorted(rng.sample(range(units + k - 1), k - 1))
    cuts = (-1, *bars, units + k - 1)
    return tuple(3 + 2 * (b - a - 1) for a, b in zip(cuts, cuts[1:]))
