"""Pair-partition solvers over GF(2)^n.

Given targets v_1 .. v_{2^(n-1)} (all nonzero, XOR 0), the task is to split
the 2^n vectors of the space into pairs (p_i, q_i) with p_i ^ q_i = v_i.
A backtracking solver settles small n outright; beyond that, structural
reductions (coset lifting, zero-sum halving, even-pair lifting and a family
of recursions on the number of distinct values) cover the tractable
hypotheses.  solve_pairing routes an instance to the cheapest applicable
solver and reports which hypothesis fired.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

from .errors import (
    BudgetExhausted,
    CaseNotApplicable,
    Infeasible,
    InternalSearchFailed,
    NoSuchSubset,
    NotCovered,
    PreconditionViolated,
)
from .gf2 import (
    MAX_DIM,
    Basis,
    BitVec,
    LinearMap,
    coset_decompose,
    echelon_basis,
    extend_basis,
    solve_parity_system,
    zero_sum_subset,
    zero_sum_subset_of_size,
)

__all__ = [
    "ROUTE_TAGS",
    "PairingInstance",
    "PairPartition",
    "SolverRoute",
    "partition_errors",
    "format_instance",
    "parse_instance",
    "format_partition",
    "exact_pairing_solver",
    "split_zero_sum_halves",
    "solve_small_dimension",
    "split_to_three_values",
    "solve_dim_half_even",
    "lift_even_pairs",
    "solve_at_most_n_values",
    "solve_pairing",
]

ROUTE_TAGS = ("ExactSearch", "Dim5Coset", "Dim6EvenCoset", "AtMostNValues", "DimHalfEven")

#: Node budget for the bounded backtracking fallback behind the greedy
#: distribution step of the three-coset case.
ALLOCATOR_NODE_CAP = 50_000


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class PairingInstance:
    """Target multiset for one pair-partition problem.

    values holds 2^(n-1) targets, each a nonzero int below 2^n, with XOR 0.
    """

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 2 <= self.n <= MAX_DIM:
            raise PreconditionViolated(f"n must be in 2..{MAX_DIM}, got {self.n}")
        want = 1 << (self.n - 1)
        if len(self.values) != want:
            raise PreconditionViolated(
                f"need exactly {want} targets for n={self.n}, got {len(self.values)}"
            )
        total = 0
        for v in self.values:
            if not 0 < v < 2 * want:
                raise PreconditionViolated(f"target {v} outside 1..{2 * want - 1}")
            total ^= v
        if total:
            raise PreconditionViolated("targets must XOR to zero")

    @classmethod
    def of(cls, n: int, values: Iterable[int]) -> PairingInstance:
        return cls(n, tuple(values))


@dataclass(frozen=True)
class PairPartition:
    """2^(n-1) ordered pairs covering F_2^n, one per instance target.

    Vectors are plain ints in the gf2 bit convention; format_partition
    prints them as n-bit strings.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SolverRoute:
    """Which hypothesis solved the instance, plus the recursion descriptors."""

    tag: str
    trace: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.tag not in ROUTE_TAGS:
            raise ValueError(f"unknown route tag {self.tag!r}")


# ---------------------------------------------------------------------------
# checker and text forms


def partition_errors(inst: PairingInstance, part: PairPartition) -> list[str]:
    """Violation messages for a candidate partition; empty means valid.

    Checks only the two defining invariants (flat coverage of the space and
    per-index pair sums), with no reference to how the pairs were found.
    """
    errs: list[str] = []
    if part.n != inst.n:
        errs.append(f"dimension mismatch: partition n={part.n}, instance n={inst.n}")
        return errs
    if len(part.pairs) != len(inst.values):
        errs.append(f"expected {len(inst.values)} pairs, got {len(part.pairs)}")
        return errs
    flat = [v for pq in part.pairs for v in pq]
    counts = Counter(flat)
    for x in range(1 << inst.n):
        c = counts.pop(x, 0)
        if c != 1:
            errs.append(f"vector {x:0{inst.n}b} covered {c} times")
    for x in sorted(counts):
        errs.append(f"out-of-range entry {x}")
    for i, ((p, q), v) in enumerate(zip(part.pairs, inst.values)):
        if p ^ q != v:
            errs.append(f"pair {i} sums to {p ^ q:0{inst.n}b}, target {v:0{inst.n}b}")
    return errs


def format_instance(inst: PairingInstance) -> str:
    line = ",".join(f"{v:0{inst.n}b}" for v in inst.values)
    return f"n={inst.n}\n{line}\n"


def parse_instance(text: str) -> PairingInstance:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError(f"expected 2 nonempty lines, got {len(lines)}")
    if not lines[0].startswith("n="):
        raise ValueError("first line must look like n=<int>")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise ValueError(f"bad dimension line {lines[0]!r}") from exc
    parts = [p.strip() for p in lines[1].split(",")]
    try:
        values = [BitVec.parse(p, n).bits for p in parts]
    except PreconditionViolated as exc:
        raise ValueError(str(exc)) from exc
    return PairingInstance.of(n, values)


def format_partition(part: PairPartition) -> str:
    n = part.n
    return "\n".join(f"{p:0{n}b} {q:0{n}b} {p ^ q:0{n}b}" for p, q in part.pairs) + "\n"


# ---------------------------------------------------------------------------
# exact backtracking solver

# All internal helpers below work on plain ints and return pair lists aligned
# with their input target order; _finish checks the result once, at the
# public boundary.


def _ensure(cond: bool, message: str) -> None:
    """A theory check that also holds under python -O."""
    if not cond:
        raise InternalSearchFailed(message)


def _exact(n: int, values: Sequence[int], deadline: float | None = None) -> list[tuple[int, int, int]]:
    """Triples (p, q, target) in discovery order, or Infeasible/BudgetExhausted.

    Backtracking with fail-first ordering: each node pairs the uncovered
    vector with the fewest usable targets (smallest such vector on ties) and
    tries its distinct unmatched targets in ascending order.  A node is cut
    as soon as some target has fewer disjoint candidate pairs left than
    copies to place.  Pruning only discards dead branches, so the first
    partition found is a pure function of the input multiset.

    Availability is kept per distinct target as one bitmask: masks[i] holds
    the free vectors a whose partner a ^ vals[i] is free too (none for a
    zero target).  Placing a pair clears at most four bits of each mask, so
    a node costs a few int operations per target rather than a scan of
    every free vector against every target.  The masks change only how a
    node is evaluated: the search tree, its node count and the first
    partition are those of that scan.
    """
    counts = Counter(values)
    out: list[tuple[int, int, int]] = []
    total = len(values)
    full = (1 << (1 << n)) - 1
    nodes = 0

    def rec(free: int, vals: list[int], cnts: list[int], masks: list[int]) -> bool:
        nonlocal nodes
        if len(out) == total:
            return True
        nodes += 1
        if deadline is not None and nodes & 255 == 1 and time.monotonic() > deadline:
            raise BudgetExhausted(f"no partition found within budget ({nodes} nodes)")

        if len(vals) == 1:
            # One target left: the pairing is forced, walk it in one sweep.
            v = vals[0]
            chain: list[tuple[int, int, int]] = []
            m = free
            while m:
                bit = m & -m
                a = bit.bit_length() - 1
                ybit = 1 << (a ^ v)
                if not m & ybit:
                    return False
                m ^= bit | ybit
                chain.append((a, a ^ v, v))
            out.extend(chain)
            return True

        # Count each free vector's usable targets in binary, one bit-plane
        # mask per binary digit (planes[j] holds digit j of every count).
        planes: list[int] = []
        usable = 0
        for m, c in zip(masks, cnts):
            if m.bit_count() >> 1 < c:
                return False
            usable |= m
            for j, plane in enumerate(planes):
                planes[j] = plane ^ m
                m &= plane
                if not m:
                    break
            else:
                planes.append(m)
        if usable != free:
            return False
        # Narrow to the vectors of least count, most significant digit first.
        fewest = free
        for plane in reversed(planes):
            if fewest & ~plane:
                fewest &= ~plane
        xbit = fewest & -fewest
        x = xbit.bit_length() - 1

        for i, m in enumerate(masks):
            if not m & xbit:
                continue
            v = vals[i]
            y = x ^ v
            drop = xbit | 1 << y
            child = [w & ~(drop | 1 << (x ^ u) | 1 << (y ^ u)) for w, u in zip(masks, vals)]
            if cnts[i] == 1:
                del child[i]
                child_vals = vals[:i] + vals[i + 1 :]
                child_cnts = cnts[:i] + cnts[i + 1 :]
            else:
                child_vals = vals
                child_cnts = cnts[:]
                child_cnts[i] -= 1
            out.append((x, y, v))
            if rec(free ^ drop, child_vals, child_cnts, child):
                return True
            out.pop()
        return False

    vals = sorted(counts)
    if not rec(full, vals, [counts[v] for v in vals], [full if v else 0 for v in vals]):
        raise Infeasible(f"search space exhausted for n={n} after {nodes} nodes")
    return out


def _align(values: Sequence[int], triples: Iterable[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Reorder (p, q, target) triples to follow the instance target order."""
    queues: dict[int, deque[tuple[int, int]]] = {}
    for p, q, v in triples:
        queues.setdefault(v, deque()).append((p, q))
    return [queues[v].popleft() for v in values]


def _exact_aligned(n: int, values: Sequence[int], deadline: float | None = None) -> list[tuple[int, int]]:
    return _align(values, _exact(n, values, deadline))


# ---------------------------------------------------------------------------
# zero-sum halving


def _split_halves(values: Sequence[int], ambient: int) -> tuple[list[int], list[int]]:
    """Split a zero-sum multiset of size 2^(m-1) into two zero-sum halves.

    The level m >= 3 is read off the size; the vectors themselves live in
    F_2^ambient and must span strictly less than m dimensions.
    """
    size = len(values)
    _ensure(size >= 4 and size & (size - 1) == 0, "halving needs a power-of-two size >= 4")
    m = size.bit_length()
    half = size // 2

    if m <= 5:
        # Embed into F_2^m so the span sits inside the top-bit-0 hyperplane,
        # pair everything exactly, and read the halves off pair membership.
        basis = echelon_basis(values, ambient)
        _ensure(basis.rank < m, "halving needs a span below the level")
        coords = {v: basis.coords(v) for v in set(values)}
        low: list[int] = []
        high: list[int] = []
        for v, (p, _) in zip(values, _exact_aligned(m, [coords[v] for v in values])):
            # Every target has the top coordinate clear, so each pair sits
            # wholly inside one half of F_2^m and each half hosts size/2 pairs.
            (low if p < size else high).append(v)
        _ensure(len(low) == half and len(high) == half, "exact halving left unequal halves")
        return low, high

    hist = Counter(values)
    odds = sorted(u for u, c in hist.items() if c & 1)
    l = len(odds)
    _ensure(l % 2 == 0, "a zero-sum multiset has an even number of odd values")

    if l <= half:
        first, second = list(odds), []
    elif m == 6:
        first, second = _split_odds_level6(odds, ambient, half)
    elif l <= (1 << (m - 1)) - 2 * m + 1:
        first, second = _transfer_loop(odds, m, half)
    else:
        first, second = _four_block_split(odds, m, ambient, half)

    need_first = half - len(first)
    need_second = half - len(second)
    _ensure(need_first >= 0 and need_second >= 0, "odd values overfilled a half")
    _ensure(need_first % 2 == 0 and need_second % 2 == 0, "odd values left an odd gap")
    for u, extra in sorted(_even_pool(hist).items()):
        take = min(extra, need_first)
        first.extend([u] * take)
        need_first -= take
        second.extend([u] * (extra - take))
        need_second -= extra - take
    _ensure(need_first == 0 and need_second == 0, "even copies did not fill both halves")
    return first, second


def _split_odds_level6(odds: list[int], ambient: int, half: int) -> tuple[list[int], list[int]]:
    """Balance 18..30 distinct odd values at level 6.

    For up to 24 values one transferred zero-sum subset of a known exact size
    suffices; beyond that the block method takes over.  The size windows come
    from a counting argument over the 4-vector blocks, so a miss here means a
    precondition was violated upstream.
    """
    l = len(odds)
    _ensure(18 <= l <= 30 and l % 2 == 0, "level-6 odd split outside 18..30 even values")
    if l > 24:
        return _four_block_split(odds, 6, ambient, half)
    windows = (8, 10, 12) if l == 24 else (6, 8, 10)
    # The counting windows first, then a defensive sweep not expected to run.
    for s in (*windows, *range(max(2, l - 16), 17, 2)):
        try:
            idx = zero_sum_subset_of_size(odds, s)
        except NoSuchSubset:
            continue
        chosen = set(idx)
        return (
            [u for i, u in enumerate(odds) if i not in chosen],
            [u for i, u in enumerate(odds) if i in chosen],
        )
    raise InternalSearchFailed(f"no balancing transfer for {l} odd values at level 6")


def _transfer_loop(pool: list[int], m: int, half: int) -> tuple[list[int], list[int]]:
    """Move small zero-sum subsets out of pool until it fits in one half.

    Any m of the (distinct, sub-maximal-span) values are dependent, so a
    transfer of size <= m always exists while the pool is oversized.  A final
    odd-size transfer fixes the parity if needed.
    """
    first = list(pool)
    second: list[int] = []
    while len(first) > half:
        idx = zero_sum_subset(first, max_size=m)
        chosen = set(idx)
        second.extend(first[i] for i in idx)
        first = [u for i, u in enumerate(first) if i not in chosen]
    if len(first) & 1:
        try:
            idx = zero_sum_subset(first, max_size=m, parity="odd")
        except NoSuchSubset as exc:
            raise InternalSearchFailed("no odd-size parity transfer available") from exc
        chosen = set(idx)
        second.extend(first[i] for i in idx)
        first = [u for i, u in enumerate(first) if i not in chosen]
    if len(second) > half:
        raise InternalSearchFailed("transfer loop overfilled the second half")
    return first, second


def _four_block_split(
    odds: list[int], m: int, ambient: int, half: int
) -> tuple[list[int], list[int]]:
    """Halving for very dense odd sets, via complete 4-vector blocks.

    In coordinates of an (m-1)-dimensional space containing the values, a
    block is a quadruple agreeing except in the last two bits.  Blocks are
    zero-sum, so they can shuttle between the halves in chunks of 4; the
    singles are balanced by the generic transfer loop first.
    """
    span = echelon_basis(odds, ambient)
    _ensure(span.rank <= m - 1, "dense odd values span the whole level")
    W = extend_basis(span, m - 1)
    by_img: dict[int, int] = {}
    for v in odds:
        by_img[W.coords(v)] = v
    blocks: list[list[int]] = []
    for g in range(1, 1 << (m - 3)):
        quad = [4 * g, 4 * g + 1, 4 * g + 2, 4 * g + 3]
        if all(c in by_img for c in quad):
            blocks.append([by_img[c] for c in quad])
    blocked = {v for b in blocks for v in b}
    singles = [v for v in odds if v not in blocked]

    first, moved = _transfer_loop(singles, m, half)
    while len(first) < half - 2:
        if not blocks:
            raise InternalSearchFailed("ran out of blocks while topping up a half")
        first.extend(blocks.pop())
    _ensure(len(first) in (half, half - 2), "block top-up missed the half size")
    second = moved + [v for b in blocks for v in b]
    if len(second) > half:
        raise InternalSearchFailed("block split overfilled the second half")
    return first, second


# ---------------------------------------------------------------------------
# the shared reduction steps


def _halve_rounds(
    values: Sequence[int], rounds: int, split: Callable[[list[int]], tuple[list[int], list[int]]]
) -> list[list[int]]:
    """Split every group in two, rounds times over, leaving 2^rounds groups."""
    groups = [list(values)]
    for _ in range(rounds):
        groups = [half for g in groups for half in split(g)]
    return groups


def _lift_groups(
    values: Sequence[int],
    groups: Sequence[Sequence[int]],
    frame: Basis,
    solve: Callable[[list[int]], list[tuple[int, int]]],
) -> list[tuple[int, int]]:
    """Solve each group in frame's coordinates and translate it onto its own coset.

    Group i lands on the coset of the frame's span whose smallest
    representative is coset_decompose(n, frame)[i].
    """
    shifts = coset_decompose(frame.dim, frame)
    _ensure(len(shifts) == len(groups), "one group per coset of the frame")
    span = [frame.combine(c) for c in range(1 << len(frame.rows))]
    triples: list[tuple[int, int, int]] = []
    for g, t in zip(groups, shifts):
        solved = solve([frame.coords(v) for v in g])
        for (p, q), v in zip(solved, g):
            triples.append((span[p] ^ t, span[q] ^ t, v))
    return _align(values, triples)


def _pair_slots(values: Sequence[int]) -> list[tuple[int, int, int]]:
    """(value, i, j) for each pair of equal targets, sorted by value.

    Positions i < j are consecutive occurrences of the value, taken from the
    left; every multiplicity must be even.
    """
    positions: dict[int, list[int]] = {}
    for i, v in enumerate(values):
        positions.setdefault(v, []).append(i)
    return [(v, a, b) for v, idx in sorted(positions.items()) for a, b in zip(idx[::2], idx[1::2])]


def _even_pool(hist: Mapping[int, int], skip: Iterable[int] = ()) -> dict[int, int]:
    """The even part of each multiplicity outside skip, zero parts dropped."""
    return {u: c & ~1 for u, c in hist.items() if c > 1 and u not in skip}


# ---------------------------------------------------------------------------
# coset lifting for small span


def _small_dim(n: int, values: Sequence[int], k: int, trace: list[str]) -> list[tuple[int, int]]:
    """Solve an instance whose targets span at most k dimensions, k in {5, 6}.

    Halving down to level = min(k, n) yields 2^(n-level) zero-sum groups of
    size 2^(level-1).  Each group is solved once, inside a level-dimensional
    frame containing the span (exactly at level <= 5, by the even lift at
    level 6), and lifted onto its own coset of the frame.
    """
    _ensure(k in (5, 6), "coset lift needs k in {5, 6}")
    v = values[0]
    if all(x == v for x in values):
        # Single repeated target: pair every coset representative of {0, v}
        # with its translate.
        trace.append(f"coset-lift n={n} k=1 groups={1 << (n - 1)}")
        return [(t, t ^ v) for t in coset_decompose(n, Basis(n, (v,)))]
    level = min(k, n)
    trace.append(f"coset-lift n={n} k={level} groups={1 << (n - level)}")
    groups = _halve_rounds(values, n - level, lambda g: _split_halves(g, n))

    def solve(sub: list[int]) -> list[tuple[int, int]]:
        if level <= 5:
            return _exact_aligned(level, sub)
        return _lift_even(level, sub, _exact_aligned, trace)

    return _lift_groups(values, groups, extend_basis(echelon_basis(values, n), level), solve)


# ---------------------------------------------------------------------------
# even-pairs lifting


def _special_pair_value(hist: Counter, pair_sum: int) -> int | None:
    """The value whose two copies anchor the even-pairs reduction, if any.

    Needs multiplicity exactly 2 and a value distinct from the XOR of all
    pair values; otherwise the reduced instance would contain a zero.
    """
    if pair_sum != 0:
        for u in sorted(hist):
            if hist[u] == 2 and u != pair_sum:
                return u
    return None


def _lift_even(
    n: int,
    values: Sequence[int],
    base: Callable[[int, list[int]], list[tuple[int, int]]],
    trace: list[str],
) -> list[tuple[int, int]]:
    """Reduce an all-even instance at level n to one instance at level n - 1.

    Pairs of equal targets collapse to single representatives; one target of
    multiplicity 2 is rotated onto the top unit vector, and each downstairs
    pair expands into two upstairs pairs spanning both halves of the space.
    """
    hist = Counter(values)
    _ensure(all(c % 2 == 0 for c in hist.values()), "even lift needs even multiplicities")
    slots = _pair_slots(values)
    pair_sum = 0
    for v, _, _ in slots:
        pair_sum ^= v
    u = _special_pair_value(hist, pair_sum)
    if u is None:
        if n <= 6:
            trace.append(f"even-lift n={n} degenerate, exact fallback")
            return _exact_aligned(n, values)
        raise NotCovered(
            f"even-pairs reduction degenerate at n={n} and exact search is out of reach"
        )
    ext = extend_basis(echelon_basis([u], n), n)
    Minv = LinearMap(n, (u, *(r for r in ext.rows if r != u)))
    M = Minv.inverse()
    e1 = 1 << (n - 1)
    low = e1 - 1
    special = next(i for i, s in enumerate(slots) if s[0] == u)
    correction = M.apply(pair_sum ^ u) & low
    _ensure(correction != 0, "even lift correction vanished")
    down = [correction]
    for j, (v, _, _) in enumerate(slots):
        if j == special:
            continue
        img = M.apply(v) & low
        _ensure(img != 0, "even lift sent a slot to zero")
        down.append(img)
    trace.append(f"even-lift n={n} slots={len(slots)}")
    solved = base(n - 1, down)
    out: list[tuple[int, int] | None] = [None] * len(values)
    p0, q0 = solved[0]
    _, a, b = slots[special]
    out[a] = (p0, p0 ^ e1)
    out[b] = (q0, q0 ^ e1)
    ptr = 1
    for j, (v, a, b) in enumerate(slots):
        if j == special:
            continue
        p, q = solved[ptr]
        ptr += 1
        if M.apply(v) & e1:
            out[a] = (p, q ^ e1)
            out[b] = (q, p ^ e1)
        else:
            out[a] = (p, q)
            out[b] = (p ^ e1, q ^ e1)
    return [(Minv.apply(p), Minv.apply(q)) for p, q in out]  # type: ignore[misc]


# ---------------------------------------------------------------------------
# three-value splitting and the half-dimension case


def _split_three(values: Sequence[int]) -> tuple[list[int], list[int]]:
    """One halving step that roughly alternates values by multiplicity.

    Sorting distinct values by (count, value) and dealing them out
    alternately leaves an imbalance of at most the top count, so shifting
    copies of the most frequent value always rebalances; with all counts even
    and size >= 4 the shift is even too, preserving parity.
    """
    hist = Counter(values)
    order = sorted(hist.items(), key=lambda kv: (kv[1], kv[0]))
    s1: list[int] = []
    s2: list[int] = []
    for i, (u, c) in enumerate(order):
        (s1 if i % 2 == 0 else s2).extend([u] * c)
    donor = order[-1][0]
    donor_side, other = (s1, s2) if len(order) % 2 == 1 else (s2, s1)
    diff = len(donor_side) - len(other)
    _ensure(diff >= 0, "most frequent value must sit on the larger side")
    shift = diff // 2
    if shift:
        _ensure(hist[donor] >= shift, "donor value too rare for the rebalancing shift")
        kept: list[int] = []
        removed = 0
        for x in donor_side:
            if x == donor and removed < shift:
                removed += 1
            else:
                kept.append(x)
        donor_side[:] = kept
        other.extend([donor] * shift)
    return s1, s2


def _dim_half(n: int, values: Sequence[int], trace: list[str]) -> list[tuple[int, int]]:
    """All-even targets spanning at most n/2 dimensions.

    k splitting rounds leave 2^k groups with at most 3 distinct values each;
    group i is solved inside coset i of an (n-k)-dimensional subspace
    containing the span.
    """
    span = echelon_basis(values, n)
    k = span.rank
    _ensure(1 <= k and 2 * k <= n, "half-dimension case needs 1 <= 2 * span <= n")
    groups = _halve_rounds(values, k, _split_three)
    trace.append(f"three-value-split n={n} k={k} groups={len(groups)}")

    def solve(sub: list[int]) -> list[tuple[int, int]]:
        return _small_dim(n - k, sub, 5, trace)

    return _lift_groups(values, groups, extend_basis(span, n - k), solve)


# ---------------------------------------------------------------------------
# bounded-value recursions (at most n distinct targets)


@dataclass
class _Vessel:
    """One destination of an even-chunk distribution step."""

    need: int
    max_distinct: int | None
    present: set[int]


def _allocate_even(pool: Mapping[int, int], vessels: list[_Vessel]) -> list[Counter]:
    """Distribute even per-value counts into vessels with distinct-value caps.

    Greedy first (largest counts into the neediest compatible vessel,
    preferring vessels that already hold the value), then backtracking over
    per-value even splits, bounded by ALLOCATOR_NODE_CAP nodes so a caller
    can move on to its next vessel layout.  Raises InternalSearchFailed when
    the node budget runs out or the instance is genuinely infeasible.
    """
    order = sorted(pool.items(), key=lambda kv: (-kv[1], kv[0]))
    _ensure(all(c > 0 and c % 2 == 0 for _, c in order), "pool counts must be positive and even")
    _ensure(sum(c for _, c in order) == sum(v.need for v in vessels), "pool and needs differ")

    def room(state: list[tuple[int, set[int]]], i: int, u: int) -> bool:
        need, present = state[i]
        if need <= 0:
            return False
        cap = vessels[i].max_distinct
        return u in present or cap is None or len(present) < cap

    def greedy() -> list[Counter] | None:
        state = [(v.need, set(v.present)) for v in vessels]
        alloc = [Counter() for _ in vessels]
        for u, count in order:
            left = count
            while left:
                choices = [i for i in range(len(vessels)) if room(state, i, u)]
                if not choices:
                    return None
                choices.sort(key=lambda i: (u not in state[i][1], -state[i][0], i))
                i = choices[0]
                take = min(left, state[i][0])
                alloc[i][u] += take
                state[i] = (state[i][0] - take, state[i][1] | {u})
                left -= take
        if any(need for need, _ in state):
            return None
        return alloc

    got = greedy()
    if got is not None:
        return got

    nodes = 0

    def backtrack(vi: int, state: list[tuple[int, set[int]]], alloc: list[Counter]) -> bool:
        nonlocal nodes
        if vi == len(order):
            return all(need == 0 for need, _ in state)
        nodes += 1
        if nodes > ALLOCATOR_NODE_CAP:
            raise InternalSearchFailed("distribution backtracking exceeded its node budget")
        u, count = order[vi]

        def splits(remaining: int, idx: int, parts: list[int]) -> Iterable[list[int]]:
            if idx == len(vessels) - 1:
                if remaining <= state[idx][0] and (remaining == 0 or room(state, idx, u)):
                    yield parts + [remaining]
                return
            top = min(remaining, state[idx][0])
            if not room(state, idx, u):
                top = 0
            for a in range(top - top % 2, -1, -2):
                yield from splits(remaining - a, idx + 1, parts + [a])

        for parts in splits(count, 0, []):
            saved = list(state)
            for i, a in enumerate(parts):
                if a:
                    alloc[i][u] += a
                    state[i] = (state[i][0] - a, state[i][1] | {u})
            if backtrack(vi + 1, state, alloc):
                return True
            for i, a in enumerate(parts):
                if a:
                    alloc[i][u] -= a
            state[:] = saved
        return False

    state = [(v.need, set(v.present)) for v in vessels]
    alloc: list[Counter] = [Counter() for _ in vessels]
    if not backtrack(0, state, alloc):
        raise InternalSearchFailed("no even-chunk distribution satisfies the caps")
    return [Counter({u: c for u, c in a.items() if c}) for a in alloc]


def _greedy_fill(pool: dict[int, int], fills: list[int]) -> list[Counter]:
    """Split an even-count pool across fills with no distinct-value caps."""
    out = [Counter() for _ in fills]
    for u in sorted(pool):
        left = pool[u]
        for i in range(len(fills)):
            take = min(left, fills[i])
            if take:
                out[i][u] += take
                fills[i] -= take
                left -= take
        _ensure(left == 0, "fills too small for the pool")
    _ensure(all(f == 0 for f in fills), "pool too small for the fills")
    return out


def _counts_to_list(counts: Mapping[int, int]) -> list[int]:
    out: list[int] = []
    for u in sorted(counts):
        out.extend([u] * counts[u])
    return out


def _two_coset_recurse(
    n: int,
    side1: Counter,
    side2: Counter,
    pool: dict[int, int],
    values: Sequence[int],
    trace: list[str],
) -> list[tuple[int, int]]:
    """Fill both sides to 2^(n-2) targets from the even pool and solve them.

    Side one is solved inside a hyperplane containing the span, side two on
    its other coset.
    """
    quarter = 1 << (n - 2)
    fills = [quarter - sum(side1.values()), quarter - sum(side2.values())]
    _ensure(min(fills) >= 0, "fixed values overfilled a side")
    parts = _greedy_fill(pool, fills)
    span = echelon_basis(values, n)
    _ensure(span.rank <= n - 1, "two-coset split needs a span below full rank")
    return _lift_groups(
        values,
        [_counts_to_list(side1 + parts[0]), _counts_to_list(side2 + parts[1])],
        extend_basis(span, n - 1),
        lambda sub: _solve_few(n - 1, sub, trace),
    )


def _even_two_split(
    n: int, values: Sequence[int], hist: Counter, trace: list[str]
) -> list[tuple[int, int]]:
    """All multiplicities even, 3 <= l distinct values, span below full rank.

    Two values of multiplicity at most 2^(n-2) each seed one side; the rest
    is dealt out in even chunks.  Each side then misses the other's seed, so
    both sub-instances drop to at most l - 1 distinct values.
    """
    quarter = 1 << (n - 2)
    seeds = sorted(u for u in hist if hist[u] <= quarter)
    _ensure(len(seeds) >= 2, "at most one value can exceed half the instance")
    u1, u2 = seeds[0], seeds[1]
    side1 = Counter({u1: hist[u1]})
    side2 = Counter({u2: hist[u2]})
    trace.append(f"even-two-split n={n} l={len(hist)} seeds=({u1},{u2})")
    return _two_coset_recurse(n, side1, side2, _even_pool(hist, (u1, u2)), values, trace)


def _exactly_n_even(
    n: int, values: Sequence[int], hist: Counter, trace: list[str]
) -> list[tuple[int, int]]:
    """All even, exactly n distinct values, full-rank span.

    After a basis change the values are the n units with the most frequent
    one on top.  Pairs of non-top targets keep their downstairs pair and its
    top-translate; pairs of top targets split across the top coordinate, with
    downstairs values chosen to restore even multiplicities (one extra copy
    for every value whose count is 2 mod 4).
    """
    us = sorted(hist)
    u1 = max(us, key=lambda u: (hist[u], -u))
    frame = [u1] + [u for u in us if u != u1]
    Minv = LinearMap(n, tuple(frame))
    M = Minv.inverse()
    e1 = 1 << (n - 1)

    slots = _pair_slots(values)
    rest_slots = [s for s in slots if s[0] != u1]
    top_slots = [(a, b) for v, a, b in slots if v == u1]
    fix_values = [u for u in us if u != u1 and hist[u] % 4 == 2]
    _ensure(len(fix_values) <= len(top_slots), "top value too rare for the rebalancing")
    filler = frame[1]
    top_values = fix_values + [filler] * (len(top_slots) - len(fix_values))

    down: list[int] = [M.apply(v) for v, _, _ in rest_slots]
    down += [M.apply(v) for v in top_values]
    _ensure(all(0 < v < e1 for v in down), "exactly-n reduction left the bottom hyperplane")
    trace.append(f"exactly-n-even n={n} top-slots={len(top_slots)} fixes={len(fix_values)}")
    solved = _solve_few(n - 1, down, trace)

    out: list[tuple[int, int] | None] = [None] * len(values)
    for (v, a, b), (p, q) in zip(rest_slots, solved[: len(rest_slots)]):
        out[a] = (p, q)
        out[b] = (p ^ e1, q ^ e1)
    for (a, b), (p, q) in zip(top_slots, solved[len(rest_slots) :]):
        out[a] = (p, p ^ e1)
        out[b] = (q, q ^ e1)
    return [(Minv.apply(p), Minv.apply(q)) for p, q in out]  # type: ignore[misc]


def _case_few_odd(
    n: int, values: Sequence[int], hist: Counter, odds: list[int], trace: list[str]
) -> list[tuple[int, int]]:
    """Odd multiplicities present, fewer than n distinct values.

    One copy of every odd value goes to side one, killing all the odd
    parities at once; side two is filled with even chunks.
    """
    side1 = Counter({u: 1 for u in odds})
    trace.append(f"odd-singles-split n={n} l={len(hist)} m={len(odds)}")
    return _two_coset_recurse(n, side1, Counter(), _even_pool(hist), values, trace)


def _case_full_small_odd(
    n: int, values: Sequence[int], hist: Counter, odds: list[int], trace: list[str]
) -> list[tuple[int, int]]:
    """Exactly n distinct values, 4 <= m <= n - 2 odd ones.

    One even value small enough to fit is pinned entirely to side two and a
    cheapest remaining value entirely to side one, so each side misses a
    value and recursion applies; odd singles ride along on side one.
    """
    quarter = 1 << (n - 2)
    evens = [u for u in sorted(hist) if hist[u] % 2 == 0]
    pinned2 = next(u for u in evens if hist[u] <= quarter)
    rest = [u for u in sorted(hist) if u != pinned2]
    pinned1 = min(rest, key=lambda u: (hist[u], u))
    side1 = Counter({u: 1 for u in odds})
    side1[pinned1] = hist[pinned1]
    side2 = Counter({pinned2: hist[pinned2]})
    trace.append(f"pinned-split n={n} m={len(odds)} pin1={pinned1} pin2={pinned2}")
    pool = _even_pool(hist, (pinned1, pinned2))
    return _two_coset_recurse(n, side1, side2, pool, values, trace)


def _case_subset_split(
    n: int,
    values: Sequence[int],
    hist: Counter,
    odds: list[int],
    subset: list[int],
    trace: list[str],
) -> list[tuple[int, int]]:
    """m >= n - 1 odd values containing a proper even-size zero-sum subset.

    Singles of the subset and its complement seed the two sides; one value
    per side is pinned wholesale to keep the opposite side a value short.
    """
    quarter = 1 << (n - 2)
    comp = [u for u in odds if u not in subset]
    evens = [u for u in sorted(hist) if hist[u] % 2 == 0]

    def leftover(u: int) -> int:
        return hist[u] - (hist[u] & 1)

    fill1 = quarter - len(subset)
    fill2 = quarter - len(comp)
    cands1 = sorted(set(subset) | set(evens), key=lambda u: (leftover(u), u))
    cands2 = sorted(set(comp) | set(evens), key=lambda u: (leftover(u), u))
    choice = None
    for x1 in cands1:
        for x2 in cands2:
            if x1 == x2:
                continue
            if leftover(x1) <= fill1 and leftover(x2) <= fill2:
                choice = (x1, x2)
                break
        if choice:
            break
    if choice is None:
        raise InternalSearchFailed("no pinnable pair of values for the subset split")
    x1, x2 = choice
    side1 = Counter({u: 1 for u in subset})
    side2 = Counter({u: 1 for u in comp})
    side1[x1] += leftover(x1)
    side2[x2] += leftover(x2)
    trace.append(f"zero-subset-split n={n} |U|={len(subset)} pins=({x1},{x2})")
    return _two_coset_recurse(n, side1, side2, _even_pool(hist, (x1, x2)), values, trace)


def _coset_group_splits(
    others: list[int], pool: Mapping[int, int], k1: int
) -> Iterable[tuple[list[int], list[int]]]:
    """Candidate size-(k1, rest) splits of the unseparated odd values.

    Rotating a heaviest-leftover-first ordering moves each heavy value
    through both groups, which is what allocation feasibility depends on.
    """
    base = sorted(others, key=lambda u: (-pool.get(u, 0), u))
    seen = set()
    for r in range(len(base)):
        rot = base[r:] + base[:r]
        g1, g2 = sorted(rot[:k1]), sorted(rot[k1:])
        key = tuple(g1)
        if key in seen:
            continue
        seen.add(key)
        yield g1, g2


def _fix_heads(
    group1: list[int], group2: list[int]
) -> tuple[list[int], list[int], int, int] | None:
    """Make both group XORs nonzero, swapping one element across if needed."""
    s1 = 0
    for u in group1:
        s1 ^= u
    s2 = 0
    for u in group2:
        s2 ^= u
    if s1 and s2:
        return group1, group2, s1, s2
    for i, x in enumerate(group1):
        for j, y in enumerate(group2):
            ns1, ns2 = s1 ^ x ^ y, s2 ^ x ^ y
            if ns1 and ns2:
                g1, g2 = list(group1), list(group2)
                g1[i], g2[j] = y, x
                return g1, g2, ns1, ns2
    return None


def _case_three_coset(
    n: int, values: Sequence[int], hist: Counter, odds: list[int], trace: list[str]
) -> list[tuple[int, int]]:
    """m >= n - 1 odd values with no even-size proper zero-sum subset.

    A pair of odd values is separated from the rest by a functional, the
    space splits into one half plus two quarter cosets, and a final
    translation stitches the two quarter solutions so the separated pair's
    targets are realized across cosets.
    """
    m = len(odds)
    quarter = 1 << (n - 2)
    eighth = 1 << (n - 3)
    distinct = sorted(hist)

    span = echelon_basis(distinct, n)
    _ensure(span.rank <= n - 1, "three-coset case needs a span below full rank")
    H = extend_basis(span, n - 1)
    outside = coset_decompose(n, H)[1]
    lam1 = solve_parity_system([(r, 0) for r in H.rows] + [(outside, 1)], n)
    _ensure(lam1 not in (None, 0), "no functional separates the hyperplane")

    c = m // 2 + 1 if m % 4 == 0 else m // 2
    k1 = c - 2

    # The pair choice and the assignment of the remaining odd values to the
    # two quarter-sized groups interact with the fill allocation: a value
    # with many leftover copies needs a side that can absorb them.  Probe
    # candidate layouts with a small allocator budget until one fits.
    chosen = None
    pairs = [(a, b) for i, a in enumerate(odds) for b in odds[i + 1 :]]
    pairs.sort(key=lambda ab: (hist[ab[0]] + hist[ab[1]], ab))
    for a, b in pairs:
        if hist[a] + hist[b] > quarter + 2:
            break
        lam2 = solve_parity_system([(u, 1 if u in (a, b) else 0) for u in distinct], n)
        if lam2 is None:
            continue
        others = [u for u in odds if u not in (a, b)]
        pool = _even_pool(hist, (a, b))
        fills = [
            eighth - (k1 + 1),
            eighth - (m - c + 1),
            quarter - (hist[a] - 1) - (hist[b] - 1),
        ]
        _ensure(all(f >= 0 and f % 2 == 0 for f in fills), "three-coset fills must be even")
        for group1, group2 in _coset_group_splits(others, pool, k1):
            fixed = _fix_heads(group1, group2)
            if fixed is None:
                continue
            group1, group2, head1, head2 = fixed
            vessels = [
                _Vessel(fills[0], n - 2, set(group1) | {head1}),
                _Vessel(fills[1], n - 2, set(group2) | {head2}),
                _Vessel(fills[2], n - 1, {u for u in (a, b) if hist[u] > 1}),
            ]
            try:
                alloc = _allocate_even(pool, vessels)
            except InternalSearchFailed:
                continue
            chosen = (a, b, lam2, group1, group2, head1, head2, alloc)
            break
        if chosen is not None:
            break
    if chosen is None:
        raise InternalSearchFailed("no separated pair admits a feasible coset layout")
    a, b, lam2, group1, group2, head1, head2, alloc = chosen

    rows = [lam1, lam2]
    for unit in (1 << p for p in range(n - 1, -1, -1)):
        if len(rows) == n:
            break
        if echelon_basis(rows + [unit], n).rank > len(rows):
            rows.append(unit)
    M = LinearMap.from_rows(rows, n)
    Minv = M.inverse()
    img = {u: M.apply(u) for u in distinct}

    def top2(x: int) -> int:
        return x >> (n - 2)

    _ensure(top2(img[a]) == 1 and top2(img[b]) == 1, "separated pair off its quarter")
    _ensure(all(top2(img[u]) == 0 for u in distinct if u not in (a, b)), "value left the half")

    v1_tail = _counts_to_list(alloc[0])
    v2_tail = _counts_to_list(alloc[1])
    v3_vals = [a] * (hist[a] - 1) + [b] * (hist[b] - 1) + _counts_to_list(alloc[2])
    trace.append(
        f"three-coset n={n} m={m} pair=({a},{b}) sizes=({1 + k1 + len(v1_tail)},"
        f"{1 + len(group2) + len(v2_tail)},{len(v3_vals)})"
    )

    maskq = (1 << (n - 2)) - 1
    maskh = (1 << (n - 1)) - 1
    order1 = [head1] + group1 + v1_tail
    order2 = [head2] + group2 + v2_tail
    sub1 = [M.apply(v) & maskq for v in order1]
    sub2 = [M.apply(v) & maskq for v in order2]
    sub3 = [M.apply(v) & maskh for v in v3_vals]
    _ensure(all(sub1) and all(sub2) and all(sub3), "three-coset reduction produced a zero target")
    p1 = _solve_few(n - 2, sub1, trace)
    p2 = _solve_few(n - 2, sub2, trace)
    p3 = _solve_few(n - 1, sub3, trace)

    t1 = 0b10 << (n - 2)
    t2 = 0b11 << (n - 2)
    lifted1 = [(p ^ t1, q ^ t1) for p, q in p1]
    lifted2 = [(p ^ t2, q ^ t2) for p, q in p2]
    P11, Q11 = lifted1[0]
    P21, Q21 = lifted2[0]
    t = P11 ^ P21 ^ img[a]
    _ensure(top2(t) == 0, "stitching translation left the half")

    triples: list[tuple[int, int, int]] = [
        (P11, P21 ^ t, a),
        (Q11, Q21 ^ t, b),
    ]
    for (p, q), v in zip(lifted1[1:], order1[1:]):
        triples.append((p, q, v))
    for (p, q), v in zip(lifted2[1:], order2[1:]):
        triples.append((p ^ t, q ^ t, v))
    for (p, q), v in zip(p3, v3_vals):
        triples.append((p, q, v))
    return _align(values, [(Minv.apply(p), Minv.apply(q), v) for p, q, v in triples])


def _solve_few(n: int, values: Sequence[int], trace: list[str]) -> list[tuple[int, int]]:
    """Recursion on instances with at most n distinct target values."""
    _ensure(len(values) == 1 << (n - 1), "bounded-value recursion needs 2^(n-1) targets")
    if n <= 5:
        return _exact_aligned(n, values)
    hist = Counter(values)
    l = len(hist)
    _ensure(l <= n, "bounded-value recursion needs at most n values")
    odds = sorted(u for u in hist if hist[u] & 1)
    m = len(odds)

    if m == 0:
        if n == 6:
            trace.append("even-base level=6")
            return _lift_even(6, values, _exact_aligned, trace)
        if l <= 2:
            return _small_dim(n, values, 5, trace)
        if l < n or echelon_basis(values, n).rank < n:
            return _even_two_split(n, values, hist, trace)
        return _exactly_n_even(n, values, hist, trace)

    _ensure(m >= 4 and m % 2 == 0, "odd values come in an even count of at least 4")
    if l < n:
        return _case_few_odd(n, values, hist, odds, trace)
    if m <= n - 2:
        return _case_full_small_odd(n, values, hist, odds, trace)
    try:
        idx = zero_sum_subset(odds, max_size=m - 1, parity="even")
    except NoSuchSubset:
        return _case_three_coset(n, values, hist, odds, trace)
    subset = [odds[i] for i in idx]
    return _case_subset_split(n, values, hist, odds, subset, trace)


# ---------------------------------------------------------------------------
# public operations


def _finish(inst: PairingInstance, raw: list[tuple[int, int]]) -> PairPartition:
    """The one check of every public solver's output."""
    part = PairPartition(inst.n, tuple((min(p, q), max(p, q)) for p, q in raw))
    errs = partition_errors(inst, part)
    if errs:
        raise InternalSearchFailed("solver produced an invalid partition: " + "; ".join(errs[:3]))
    return part


def exact_pairing_solver(inst: PairingInstance, budget_seconds: float = 60.0) -> PairPartition:
    """Plain backtracking over uncovered vectors; intended for n <= 6."""
    deadline = time.monotonic() + budget_seconds
    return _finish(inst, _exact_aligned(inst.n, inst.values, deadline))


def split_zero_sum_halves(inst: PairingInstance) -> tuple[list[int], list[int]]:
    """Split the targets into two halves of 2^(n-2) targets, each with XOR 0.

    Requires n >= 3 (so each half is even-sized) and a span of dimension
    strictly below n.
    """
    n = inst.n
    if n < 3:
        raise PreconditionViolated(f"need dimension >= 3, got {n}")
    if echelon_basis(inst.values, n).rank >= n:
        raise PreconditionViolated("span must have dimension strictly below n")
    return _split_halves(inst.values, n)


def solve_small_dimension(inst: PairingInstance, k: int) -> PairPartition:
    """Coset-lifted solve for targets spanning at most k <= 6 dimensions.

    k only gates the hypothesis: every k <= 5 lifts at level min(5, n), so
    it returns the same partition.
    """
    d = echelon_basis(inst.values, inst.n).rank
    if not 1 <= k <= 6 or k > inst.n:
        raise CaseNotApplicable(f"k must be in 1..min(6, n), got {k}")
    if d > k:
        raise CaseNotApplicable(f"targets span {d} dimensions, more than k={k}")
    if k == 6 and any(c % 2 for c in Counter(inst.values).values()):
        raise CaseNotApplicable("k=6 needs every multiplicity even")
    trace: list[str] = []
    return _finish(inst, _small_dim(inst.n, inst.values, 6 if k == 6 else 5, trace))


def split_to_three_values(inst: PairingInstance, k: int) -> list[list[int]]:
    """Split all-even targets into 2^k groups of at most 3 distinct values."""
    if any(c % 2 for c in Counter(inst.values).values()):
        raise PreconditionViolated("every multiplicity must be even")
    d = echelon_basis(inst.values, inst.n).rank
    if k != d:
        raise PreconditionViolated(f"k={k} but the span has dimension {d}")
    if k > inst.n - 1:
        raise PreconditionViolated("span dimension leaves no room for groups")
    groups = _halve_rounds(inst.values, k, _split_three)
    for g in groups:
        _ensure(len(set(g)) <= 3, "a group exceeded 3 distinct values")
    return groups


def solve_dim_half_even(inst: PairingInstance) -> PairPartition:
    """All-even targets spanning at most n/2 dimensions."""
    if any(c % 2 for c in Counter(inst.values).values()):
        raise CaseNotApplicable("every multiplicity must be even")
    d = echelon_basis(inst.values, inst.n).rank
    if 2 * d > inst.n:
        raise CaseNotApplicable(f"span dimension {d} exceeds n/2")
    trace: list[str] = []
    return _finish(inst, _dim_half(inst.n, inst.values, trace))


def lift_even_pairs(
    inst: PairingInstance, base_solver: Callable[[PairingInstance], PairPartition]
) -> PairPartition:
    """Reduce an all-even instance one level using the given base solver.

    base_solver must handle arbitrary valid instances one dimension down; the
    degenerate reduction (no usable multiplicity-2 value) falls back to exact
    search for n <= 6 and raises NotCovered beyond that.
    """
    if any(c % 2 for c in Counter(inst.values).values()):
        raise CaseNotApplicable("every multiplicity must be even")

    def base(level: int, vals: list[int]) -> list[tuple[int, int]]:
        sub = PairingInstance.of(level, vals)
        return list(base_solver(sub).pairs)

    trace: list[str] = []
    return _finish(inst, _lift_even(inst.n, inst.values, base, trace))


def solve_at_most_n_values(inst: PairingInstance) -> PairPartition:
    """Recursion for instances with at most n distinct target values."""
    l = len(set(inst.values))
    if l > inst.n:
        raise CaseNotApplicable(f"{l} distinct values exceed n={inst.n}")
    trace: list[str] = []
    return _finish(inst, _solve_few(inst.n, inst.values, trace))


def solve_pairing(inst: PairingInstance) -> tuple[PairPartition, SolverRoute]:
    """Try the constructive hypotheses in order, then exact search for n <= 6."""
    values = inst.values
    hist = Counter(values)
    d = echelon_basis(values, inst.n).rank
    all_even = all(c % 2 == 0 for c in hist.values())
    trace: list[str] = []
    if d <= 5:
        tag = "Dim5Coset"
        raw = _small_dim(inst.n, values, 5, trace)
    elif d == 6 and all_even:
        tag = "Dim6EvenCoset"
        raw = _small_dim(inst.n, values, 6, trace)
    elif len(hist) <= inst.n:
        tag = "AtMostNValues"
        raw = _solve_few(inst.n, values, trace)
    elif all_even and 2 * d <= inst.n:
        tag = "DimHalfEven"
        raw = _dim_half(inst.n, values, trace)
    elif inst.n <= 6:
        tag = "ExactSearch"
        raw = _exact_aligned(inst.n, values, time.monotonic() + 60.0)
    else:
        raise NotCovered(f"no constructive case applies and n={inst.n} > 6")
    return _finish(inst, raw), SolverRoute(tag, tuple(trace))
