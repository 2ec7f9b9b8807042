"""Seeded random generators for pairing instances.

Self-contained on purpose: validity bookkeeping (ranks, XOR fixing) is done
with plain ints here so the generated instances do not depend on the code
under test.  Each generator returns (n, values) with values a list of ints.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement


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


def any_valid_instance(rng: random.Random, n: int) -> tuple[int, list[int]]:
    """Unrestricted valid instance (used with the exact solver at small n)."""
    pool = list(range(1, 1 << n))
    values = _fill_zero_sum(rng, pool, 1 << (n - 1))
    rng.shuffle(values)
    return n, values
