"""Seeded input generators for the benchmark workloads.

Everything here works on plain ints and tuples so that the inputs do not
depend on the code under test.  Each generator takes a random.Random and
returns raw data; the workloads wrap it in setseq types.
"""

from __future__ import annotations

import heapq
import random


def xor_all(values) -> int:
    acc = 0
    for v in values:
        acc ^= v
    return acc


def rank_of(values) -> int:
    rows: list[int] = []
    for v in values:
        for r in rows:
            v = min(v, v ^ r)
        if v:
            rows.append(v)
            rows.sort(reverse=True)
    return len(rows)


def span_elements(rng: random.Random, n: int, d: int) -> tuple[list[int], list[int]]:
    """A random basis of rank d in F_2^n and the nonzero vectors it spans."""
    while True:
        basis = [rng.randrange(1, 1 << n) for _ in range(d)]
        if rank_of(basis) == d:
            break
    elems = [0]
    for b in basis:
        elems += [e ^ b for e in elems]
    return basis, [e for e in elems if e]


# ---------------------------------------------------------------------------
# pair-partition instances: (n, targets)


def low_dim(rng: random.Random, n: int) -> tuple[int, list[int]]:
    """Targets spanning at most 5 dimensions."""
    d = 1 if n == 2 else rng.randint(1, min(5, n - 1))
    _, pool = span_elements(rng, n, d)
    half = 1 << (n - 1)
    vals = [rng.choice(pool) for _ in range(half - 2)]
    acc = xor_all(vals)
    if acc == 0:
        x = rng.choice(pool)
        vals += [x, x]
    else:
        a = rng.choice([p for p in pool if p != acc])
        vals += [a, a ^ acc]
    return n, vals


def even_span(rng: random.Random, n: int, d: int) -> tuple[int, list[int]]:
    """All multiplicities even, targets spanning exactly d dimensions."""
    basis, pool = span_elements(rng, n, d)
    half = 1 << (n - 1)
    picks = list(basis) + [rng.choice(pool) for _ in range(half // 2 - d)]
    return n, [v for v in picks for _ in (0, 1)]


def few_values(rng: random.Random, n: int) -> tuple[int, list[int]]:
    """At most n distinct targets; odd multiplicities come in fours."""
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
    return n, [v for v, c in zip(values, counts) for _ in range(c)]


def generic(rng: random.Random, n: int) -> tuple[int, list[int]]:
    """Any zero-sum multiset of 2^(n-1) nonzero targets."""
    size = 1 << (n - 1)
    vals = [rng.randrange(1, 1 << n) for _ in range(size - 2)]
    acc = xor_all(vals)
    if acc == 0:
        x = rng.randrange(1, 1 << n)
        vals += [x, x]
    else:
        a = rng.choice([p for p in range(1, 1 << n) if p != acc])
        vals += [a, a ^ acc]
    rng.shuffle(vals)
    return n, vals


# ---------------------------------------------------------------------------
# trees: degree lists for caterpillars, edge lists for the rest


def odd_caterpillar(rng: random.Random, count: int, diam: int) -> tuple[int, ...]:
    """Center degrees of an all-odd caterpillar with count vertices and diameter diam."""
    k = 1 if diam == 2 else diam - 1
    extra = count + k - 2 - 3 * k
    degrees = [3] * k
    for _ in range(extra // 2):
        degrees[rng.randrange(k)] += 2
    return tuple(degrees)


def small_diameter_floor(diam: int) -> int:
    """Smallest power of two that an all-odd caterpillar of diameter diam fits."""
    floor = 4
    while floor < 2 * diam:
        floor *= 2
    return floor


def random_tree(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """Uniform random labeled tree on count vertices, from a Pruefer sequence."""
    code = [rng.randrange(count) for _ in range(count - 2)]
    degree = [1] * count
    for x in code:
        degree[x] += 1
    leaves = [v for v in range(count) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(a, b), max(a, b)))
    return edges


def relabel(rng: random.Random, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The same tree shape under a random vertex numbering."""
    count = len(edges) + 1
    perm = list(range(count))
    rng.shuffle(perm)
    return [(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges]


def far_vertex(count: int, edges: list[tuple[int, int]], start: int) -> int:
    """Smallest vertex at maximum distance from start."""
    adj: list[list[int]] = [[] for _ in range(count)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = [-1] * count
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    best = max(dist)
    return dist.index(best)
