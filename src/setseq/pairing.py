"""Pair-partition solvers over GF(2)^n.

Given targets v_1 .. v_{2^(n-1)} (all nonzero, XOR 0), the task is to split
the 2^n vectors of the space into pairs (p_i, q_i) with p_i ^ q_i = v_i.
A backtracking solver settles small n outright; beyond that, structural
reductions (coset lifting, three-value splitting and _solve_few's recursion
on the number of distinct values) cover the tractable hypotheses.  The
coset lift halves low-span targets into zero-sum groups and solves each at
level 5, or at level 6 by the even lift, which anchors a value on the top
unit; no constructive route searches above level 5.

solve_pairing is the one router.  Each route is one row of _ROUTES: its
tag, its hypothesis and its solver; ROUTE_TAGS lists the tags in the rows'
order.  With no route given, the first row whose hypothesis holds solves
the instance; a forced route runs its own row or raises CaseNotApplicable.
Either way the caller gets the route's trace of the reductions that fired.

Every internal solver works on a multiset, not a list.  It takes a target
histogram and returns a function of that histogram alone: a map from each
target to its queue of pairs.  Solving never looks at the order the targets
were listed in, so a coset lift splits, maps and solves each distinct group
once per call, from memos that live for that call: a halving round splits
each distinct group object once and hands equal halves on as one object,
the lift maps each distinct group object into frame coordinates once, and
solves each distinct histogram once.  A nested lift composes its coset map
with its caller's, so each pair is mapped once, into F_2^n.  Target order
is restored once, at the public boundary: the k-th occurrence of a target
takes the k-th pair of its queue.  The router core, _solve_routed, does
neither the instance check nor the partition check, so the pipelines that
call it level by level pay for one check of their finished labeling only.
The sweep's _exact_in_frame solves each frame form once per call and maps
its pairs straight into each instance's target order, for _checked, the
check _finish runs after _restore.

The private kernels here and in gf2 share one contract: a search with no
answer returns None, and a step the theory guarantees raises
InternalSearchFailed when it fails, which nothing in the package catches.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import itemgetter, xor

from .errors import (
    BudgetExhausted,
    CaseNotApplicable,
    Infeasible,
    InternalSearchFailed,
    NotCovered,
    PreconditionViolated,
    _as_tuple,
)
from .gf2 import (
    MAX_DIM,
    _inverse_table,
    _lift_frame,
    _solve_parity_system,
    _span_table,
    _zero_sum_subset,
    echelon_basis,
)

__all__ = [
    "ROUTE_TAGS",
    "PairingInstance",
    "PairPartition",
    "SolverRoute",
    "partition_errors",
    "format_partition",
    "exact_pairing_solver",
    "solve_pairing",
]

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
        # A tuple, so that the targets checked here are the targets kept;
        # tuple() hands a tuple through as it is.
        values = _as_tuple(self.values, "values must be an iterable of ints")
        object.__setattr__(self, "values", values)
        if type(self.n) is not int or not 2 <= self.n <= MAX_DIM:
            raise PreconditionViolated(f"n must be an int in 2..{MAX_DIM}, got {self.n!r}")
        want = 1 << (self.n - 1)
        if len(values) != want:
            raise PreconditionViolated(
                f"need exactly {want} targets for n={self.n}, got {len(values)}"
            )
        total = 0
        for v in values:
            if type(v) is not int or not 0 < v < 2 * want:
                raise PreconditionViolated(f"target {v!r} is not an int in 1..{2 * want - 1}")
            total ^= v
        if total:
            raise PreconditionViolated("targets must XOR to zero")

    @classmethod
    def of(cls, n: int, values: Iterable[int]) -> PairingInstance:
        return cls(n, values)


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


# ---------------------------------------------------------------------------
# checker and text forms


def partition_errors(inst: PairingInstance, part: PairPartition) -> list[str]:
    """Violation messages for a candidate partition; empty means valid.

    Checks only the two defining invariants (flat coverage of the space and
    per-index pair sums), with no reference to how the pairs were found.
    A valid partition passes one set-based coverage test and one list
    comparison of the pair sums; only a failing one is walked entry by entry.
    A pair that is not two ints gets one message of its own, and so do
    pairs that are not a sequence.
    """
    if part.n != inst.n:
        return [f"dimension mismatch: partition n={part.n!r}, instance n={inst.n!r}"]
    try:
        count = len(part.pairs)
    except TypeError:
        return [f"pairs are not a sequence: {part.pairs!r}"]
    if count != len(inst.values):
        return [f"expected {len(inst.values)} pairs, got {count}"]
    errs: list[str] = []
    size = 1 << inst.n
    try:
        flat = list(chain.from_iterable(part.pairs))
        if not (len(flat) == len(set(flat)) == size and min(flat) >= 0 and max(flat) < size):
            counts = Counter(flat)
            for x in range(size):
                c = counts.pop(x, 0)
                if c != 1:
                    errs.append(f"vector {x:0{inst.n}b} covered {c} times")
            for x in sorted(counts):
                errs.append(f"out-of-range entry {x}")
        sums = [p ^ q for p, q in part.pairs]
    except (TypeError, ValueError):
        # Only a pair that is not two ints breaks the int arithmetic.
        return [
            f"pair {i} is not two ints: {pair!r}"
            for i, pair in enumerate(part.pairs)
            if type(pair) not in (tuple, list) or [type(x) for x in pair] != [int, int]
        ]
    if sums != list(inst.values):
        for i, (s, v) in enumerate(zip(sums, inst.values)):
            if s != v:
                errs.append(f"pair {i} sums to {s:0{inst.n}b}, target {v:0{inst.n}b}")
    return errs


def format_partition(part: PairPartition) -> str:
    n = part.n
    return "\n".join(f"{p:0{n}b} {q:0{n}b} {p ^ q:0{n}b}" for p, q in part.pairs) + "\n"


# ---------------------------------------------------------------------------
# exact backtracking solver

# All internal helpers below work on plain ints.  Every solver takes a target
# histogram and returns per-target queues of pairs; _finish restores the
# instance's target order and checks the result once, at the public boundary.


#: Each target's pairs in queue order; the solution of one instance or group.
_Queues = dict[int, list[tuple[int, int]]]


def _ensure(cond: bool, message: str) -> None:
    """A theory check that also holds under python -O."""
    if not cond:
        raise InternalSearchFailed(message)


#: _BIT[a] is 1 << a for every vector a of F_2^6, looked up rather than shifted.
_BIT = tuple([1 << a for a in range(64)])


def _exact(n: int, hist: Counter, deadline: float | None = None) -> _Queues:
    """Each target's pairs in discovery order, or Infeasible/BudgetExhausted.

    Backtracking with fail-first ordering: each node pairs the uncovered
    vector with the fewest usable targets (smallest such vector on ties) and
    tries its distinct unmatched targets in ascending order.  A node is cut
    as soon as some target has fewer disjoint candidate pairs left than
    copies to place.  Pruning only discards dead branches, so the first
    partition found is a pure function of the input multiset.

    masks[i] holds the free vectors a whose partner a ^ vals[i] is free too
    (none for a zero target), needs[i] the vectors its copies still cover.
    A node adds the masks by carry-save into bit planes p0, p1, p2 and high,
    one per binary digit of each vector's count of usable targets, and
    narrows to the least count top plane first.  The root, with every
    target nonzero and none needing more than the space, gives all vectors
    one count and takes vector 0 uncounted.  A child clears the pair and its
    partners from each mask with _BIT lookups.  The last target left is
    feasible exactly when its mask is the free set; its pairs go straight
    into the queues.  Every node is counted, so the search tree and node
    count are those of a scan of every free vector against every target.
    """
    out: _Queues = {v: [] for v in hist}
    full = (1 << (1 << n)) - 1
    bit = _BIT
    nodes = 0

    def rec(free: int, vals: list[int], needs: list[int], masks: list[int]) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes & 255 == 1 and deadline is not None and time.monotonic() > deadline:
            raise BudgetExhausted(f"no partition found within budget ({nodes} nodes)")
        if len(vals) == 1:
            v, m = vals[0], masks[0]
            if m != free:
                return False
            while m:
                a = (m & -m).bit_length() - 1
                out[v].append((a, a ^ v))
                m ^= bit[a] | bit[a ^ v]
            return True

        if free == full and flat_root:
            xbit = 1
        else:
            p0 = p1 = p2 = 0
            high: list[int] = []
            for m, need in zip(masks, needs):
                if m.bit_count() < need:
                    return False
                m, p0 = p0 & m, p0 ^ m
                if m:
                    m, p1 = p1 & m, p1 ^ m
                    if m:
                        m, p2 = p2 & m, p2 ^ m
                        if m:
                            for j, plane in enumerate(high):
                                m, high[j] = plane & m, plane ^ m
                            if m:
                                high.append(m)
            usable = p0 | p1 | p2
            fewest = free
            for plane in reversed(high):
                usable |= plane
                fewest = fewest & ~plane or fewest
            if usable != free:
                return False
            fewest = fewest & ~p2 or fewest
            fewest = fewest & ~p1 or fewest
            xbit = fewest & ~p0 or fewest
            xbit &= -xbit
        x = xbit.bit_length() - 1

        for i, m in enumerate(masks):
            if not m & xbit:
                continue
            v = vals[i]
            y = x ^ v
            drop = xbit | bit[y]
            child = [w & ~(drop | bit[x ^ u] | bit[y ^ u]) for w, u in zip(masks, vals)]
            child_vals, child_needs = vals, needs[:]
            child_needs[i] -= 2
            if not child_needs[i]:
                child_vals = vals[:i] + vals[i + 1 :]
                del child[i], child_needs[i]
            out[v].append((x, y))
            if rec(free ^ drop, child_vals, child_needs, child):
                return True
            out[v].pop()
        return False

    vals = sorted(hist)
    needs = [2 * hist[v] for v in vals]
    flat_root = vals[0] != 0 and max(needs) <= 1 << n
    if not rec(full, vals, needs, [full if v else 0 for v in vals]):
        raise Infeasible(f"search space exhausted for n={n} after {nodes} nodes")
    return out


def _restore(values: Sequence[int], queues: _Queues) -> list[tuple[int, int]]:
    """Target order, restored: the k-th occurrence of a target takes the k-th pair of its queue.

    Raises InternalSearchFailed when a target has no queue or too short a one.
    """
    heads = dict(zip(queues, map(iter, queues.values())))
    try:
        pairs = list(map(next, map(heads.__getitem__, values)))
    except KeyError:
        pairs = []
    # A short queue ends map(next, ...) early.
    _ensure(len(pairs) == len(values), "solver left a target without a pair")
    return pairs


#: Where a lift writes: the caller's queues, a _span_table (or range, the
#: identity) from the lift's space into the caller's, and a shift there.
_Into = tuple[_Queues, Sequence[int], int]


def _fresh(n: int) -> _Into:
    """Empty queues in the caller's own n-dimensional space."""
    return {}, range(1 << n), 0


def _write(queues: _Queues, into: _Into) -> _Queues:
    """Append each pair, mapped by into, to its mapped target's queue; returns into's queues."""
    out, table, shift = into
    for v, qs in queues.items():
        out.setdefault(table[v], []).extend([(table[p] ^ shift, table[q] ^ shift) for p, q in qs])
    return out


# ---------------------------------------------------------------------------
# zero-sum halving


def _split_halves(hist: Mapping[int, int]) -> tuple[dict[int, int], dict[int, int]]:
    """Split a zero-sum histogram of size 2^(m-1) into two zero-sum halves.

    One copy of every odd-multiplicity value goes to the first half, and
    even chunks, smallest value first, fill it up; the rest is the second.
    The coset lift halves only groups that are all even or span at most 5
    dimensions, at levels m >= 6.  A 5-dimensional span holds at most 28
    distinct values of odd multiplicity, so those outnumber half the group
    only at level 6, where _split_odds_level6 moves some to the second half.
    """
    size = sum(hist.values())
    _ensure(size >= 4 and size & (size - 1) == 0, "halving needs a power-of-two size >= 4")
    half = size // 2
    items = sorted(hist.items())
    odds = [u for u, c in items if c & 1]
    _ensure(len(odds) % 2 == 0, "a zero-sum multiset has an even number of odd values")
    _ensure(len(odds) <= half or size == 32, "odd values outnumber half a group only at level 6")
    moved = set(_split_odds_level6(odds)) if len(odds) > half else set()
    need = half - len(odds) + len(moved)
    _ensure(need % 2 == 0, "odd values left an odd gap")
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for u, c in items:
        take = min(c & ~1, need)
        need -= take
        if c & 1 and u not in moved:
            take += 1
        if take:
            first[u] = take
        if c > take:
            second[u] = c - take
    _ensure(need == 0, "even copies did not fill both halves")
    return first, second


def _deal(pool: Mapping[int, int], need: int, first: Counter, second: Counter) -> None:
    """Deal a pool onto two sides smallest value first: need copies to first, the rest to second."""
    for u in sorted(pool):
        count = pool[u]
        take = min(count, need)
        if take:
            first[u] += take
            need -= take
        if count > take:
            second[u] += count - take


def _split_odds_level6(odds: list[int]) -> list[int]:
    """The odd values moved to the second half when 18..28 distinct ones meet at level 6.

    They are a zero-sum subset of even size s in max(6, l - 16)..16, so
    both halves keep at most 16.  Every zero-sum set of 26 or 28 distinct
    nonzero vectors of F_2^5 has one of size l - 16, and for l <= 24 a
    counting argument over 4-vector blocks gives one of size 6..12, so a
    miss means a precondition was violated upstream.
    """
    l = len(odds)
    _ensure(18 <= l <= 28 and l % 2 == 0, "level-6 odd split outside 18..28 even values")
    chosen = _zero_sum_subset(odds, range(max(6, l - 16), 17, 2))
    _ensure(chosen is not None, f"no balancing transfer for {l} odd values at level 6")
    return [odds[i] for i in chosen]


# ---------------------------------------------------------------------------
# the shared reduction steps


def _halve_rounds(
    hist: Mapping[int, int], rounds: int, split: Callable[[Mapping[int, int]], tuple[dict, dict]]
) -> list[Mapping[int, int]]:
    """Split every group in two, rounds times over, leaving 2^rounds groups.

    Each round splits each distinct group object once, and two equal halves
    come back as one object, so repeated groups share it from then on.  The
    memo is keyed by identity: every group it names stays in the list, so no
    id is reused within a round.
    """
    groups = [hist]
    for _ in range(rounds):
        halves: dict[int, tuple[dict, dict]] = {}
        for g in groups:
            if id(g) not in halves:
                first, second = split(g)
                halves[id(g)] = (first, first) if first == second else (first, second)
        groups = [half for g in groups for half in halves[id(g)]]
    return groups


def _lift_groups(
    groups: Sequence[Mapping[int, int]], frame: tuple[list[int], list[int]],
    solve: Callable[..., _Queues], into: _Into,
) -> _Queues:
    """Solve each group in frame's coordinates, written straight onto its own coset.

    frame is _lift_frame's (rows, reps): group i lands on the coset of the
    rows' span whose smallest representative is t = reps[i].  into maps
    the lift's space into the caller's, x to outer[x] ^ shift.  _span_table
    maps are linear, so the rows and outer compose into one table per lift,
    and solve(sub, (out, table, outer[t] ^ shift)) gets group i's histogram
    in frame coordinates and writes each pair once, into the caller's
    queues: each target's queue holds its pairs group by group, in group
    order.  Each distinct group object is mapped into frame coordinates
    once, and its repeats hand solve that same histogram.
    """
    out, outer, shift = into
    rows, reps = frame
    _ensure(len(reps) == len(groups), "one group per coset of the frame")
    # span[c] is the vector whose frame coordinates are c; index inverts it.
    span = _span_table(rows)
    index = {v: c for c, v in enumerate(span)}
    table = [outer[x] for x in span]
    subs: dict[int, dict[int, int]] = {}
    for g, t in zip(groups, reps):
        sub = subs.get(id(g))
        if sub is None:
            sub = subs[id(g)] = {index[v]: c for v, c in g.items()}
        solve(sub, (out, table, outer[t] ^ shift))
    return out


# ---------------------------------------------------------------------------
# coset lifting for small span


def _small_dim(
    n: int, hist: Mapping[int, int], spanning: Iterable[int], k: int, trace: list[str],
    memo: dict, into: _Into,
) -> _Queues:
    """Solve a target histogram whose span has at most k dimensions, k in {5, 6}.

    spanning is any vectors with the targets' span: echelon rows, or the
    targets.  Halving down to level = min(k, n) yields 2^(n-level) zero-sum
    groups of size 2^(level-1); every group the halving sees is all even
    (k = 6) or spans at most 5 dimensions (k = 5), which is all
    _split_halves covers.  Each is solved in the level-dimensional
    _lift_frame of spanning (by exact search at level <= 5, else by the even
    lift) and written through into onto its own coset.  memo, kept by the
    caller for one public call, maps each solved group's level and sorted
    frame-coordinate histogram to its queues and trace entries: a repeat is
    not solved again but replays them.
    """
    _ensure(k in (5, 6), "coset lift needs k in {5, 6}")
    if len(hist) == 1:
        # Single repeated target: pair every coset representative of {0, v}
        # with its translate.
        (v,) = hist
        trace.append(f"coset-lift n={n} k=1 groups={1 << (n - 1)}")
        return _write({v: [(t, t ^ v) for t in _lift_frame(hist, n, 1)[1]]}, into)
    level = min(k, n)
    trace.append(f"coset-lift n={n} k={level} groups={1 << (n - level)}")

    def solve(sub: dict[int, int], at: _Into) -> _Queues:
        key = (level, tuple(sorted(sub.items())))
        hit = memo.get(key)
        if hit is None:
            mark = len(trace)
            group = Counter(sub)
            queues = _exact(level, group) if level <= 5 else _lift_even(level, group, trace)
            hit = memo[key] = (queues, trace[mark:])
        else:
            trace.extend(hit[1])
        return _write(hit[0], at)

    groups = _halve_rounds(hist, n - level, _split_halves)
    return _lift_groups(groups, _lift_frame(spanning, n, level), solve, into)


# ---------------------------------------------------------------------------
# even-pairs lifting


def _expand_slots(
    n: int, table: list[int], slots: list[tuple[int, int]], solve: Callable[[Counter], _Queues]
) -> _Queues:
    """Solve the slots' targets at level n - 1 and expand each pair into two.

    A slot (image, down) is one pair of equal targets: image is the target
    in the frame whose _span_table is table, down its target one level down.
    Solved pairs (p, q), taken in slot order, expand across the top unit e1:
    an anchor (image e1) to (p, p ^ e1) and (q, q ^ e1), an image containing
    e1 to (p, q ^ e1) and (q, p ^ e1), any other to (p, q) and its e1-translate.
    """
    e1 = 1 << (n - 1)
    down = [d for _, d in slots]
    _ensure(all(down), "a slot went down to zero")
    out: _Queues = {}
    for (image, _), (p, q) in zip(slots, _restore(down, solve(Counter(down)))):
        if image == e1:
            pairs = ((p, p ^ e1), (q, q ^ e1))
        elif image & e1:
            pairs = ((p, q ^ e1), (q, p ^ e1))
        else:
            pairs = ((p, q), (p ^ e1, q ^ e1))
        out.setdefault(image, []).extend(pairs)
    return _write(out, ({}, table, 0))


def _lift_even(n: int, hist: Counter, trace: list[str]) -> _Queues:
    """Reduce an all-even histogram at level 3 <= n <= 6 to one instance at level n - 1.

    Each pair of equal targets is a slot.  Every slot but the anchor u's goes
    down to its own image below the top unit e1, which u maps to.  u's t =
    hist[u] // 2 slots take targets XORing to S, the image of pair_sum (the
    XOR of all slots) below e1: [a] * (t - 1) + [S] for odd t, and
    [a] * (t - 1) + [S ^ a] for even t, a in {1, 2} other than S.  S is 0
    exactly when pair_sum is 0 or u, so u serves when t is odd and S != 0,
    when t is even and positive, or when t = 0 and S = 0.  The values of
    multiplicity 2, then 1 .. 2^n - 1, are tried in ascending order, and one
    serves for every histogram at n >= 3.  Exact search solves level n - 1.
    """
    _ensure(3 <= n <= 6, "even lift solves by exact search, so needs 3 <= n <= 6")
    _ensure(all(c % 2 == 0 for c in hist.values()), "even lift needs even multiplicities")
    pair_sum = 0
    for v, c in hist.items():
        if c & 2:
            pair_sum ^= v
    for u in chain(sorted(v for v, c in hist.items() if c == 2), range(1, 1 << n)):
        t = hist[u] // 2
        if pair_sum not in (0, u) if t % 2 else t or pair_sum in (0, u):
            break
    else:
        raise InternalSearchFailed("no anchor for the even lift")
    back = _span_table((u, *(r for r in _lift_frame([u], n, n)[0] if r != u)))
    fwd = _inverse_table(back)
    e1 = 1 << (n - 1)
    s = fwd[pair_sum] & (e1 - 1)
    a = 2 if s == 1 else 1
    slots = [(e1, a)] * (t - 1) + [(e1, s if t % 2 else s ^ a)] if t else []
    for v in sorted(hist):
        if v != u:
            slots += [(fwd[v], fwd[v] & (e1 - 1))] * (hist[v] // 2)
    trace.append(f"even-lift n={n} slots={len(slots)}")
    return _expand_slots(n, back, slots, lambda sub: _exact(n - 1, sub))


# ---------------------------------------------------------------------------
# three-value splitting and the half-dimension case


def _split_three(hist: Mapping[int, int]) -> tuple[dict[int, int], dict[int, int]]:
    """One halving step that roughly alternates values by multiplicity.

    Sorting distinct values by (count, value) and dealing them out
    alternately leaves an imbalance of at most the top count, so shifting
    copies of the most frequent value always rebalances; with all counts even
    and size >= 4 the shift is even too, preserving parity.  The shift is
    at most half the top count, so the donor keeps some copies on its side.
    """
    order = sorted(hist.items(), key=itemgetter(1, 0))
    s1, s2 = dict(order[0::2]), dict(order[1::2])
    donor, top = order[-1]
    donor_side, other = (s1, s2) if len(order) % 2 == 1 else (s2, s1)
    diff = sum(donor_side.values()) - sum(other.values())
    _ensure(diff >= 0, "most frequent value must sit on the larger side")
    shift = diff // 2
    if shift:
        _ensure(top >= shift, "donor value too rare for the rebalancing shift")
        donor_side[donor] = top - shift
        other[donor] = shift
    return s1, s2


def _dim_half(n: int, hist: Counter, span: tuple[int, ...], trace: list[str]) -> _Queues:
    """All-even targets spanning at most n/2 dimensions.

    span is the caller's echelon_basis rows of the targets.  k splitting
    rounds leave 2^k groups with at most 3 distinct values each; group i is
    solved inside coset i of an (n-k)-dimensional subspace containing the
    span by a nested coset lift framed by its own values, all sharing one
    memo.
    """
    k = len(span)
    _ensure(1 <= k and 2 * k <= n, "half-dimension case needs 1 <= 2 * span <= n")
    groups = _halve_rounds(hist, k, _split_three)
    trace.append(f"three-value-split n={n} k={k} groups={len(groups)}")
    memo: dict = {}

    def solve(sub: dict[int, int], into: _Into) -> _Queues:
        return _small_dim(n - k, sub, sub, 5, trace, memo, into)

    return _lift_groups(groups, _lift_frame(span, n, n - k), solve, _fresh(n))


# ---------------------------------------------------------------------------
# bounded-value recursions (at most n distinct targets)

#: Splits the backtracking allocations of one three-coset case may try in all.
_ALLOCATION_TRIES = 20_000


def _allocate(
    pool: Mapping[int, int], vessels: list[tuple[int, int, set[int]]], tries: Iterator[int]
) -> list[Counter] | None:
    """Deal even per-value counts into vessels (need, cap, present) by backtracking.

    Largest counts go first.  Each is split into even parts over the
    vessels that can take it: need left, and the value already present or
    fewer than cap distinct values.  Those vessels are ordered present
    first, then neediest, and each takes the largest part that fits before
    the next, so the first descent is the greedy fill and the search only
    goes on where that leaves a value with no room.  Each split tried takes
    one item of tries, a budget the caller may share between calls.  This
    finds an allocation wherever one exists unless the budget runs out
    first; either miss returns None.
    """
    order = sorted(pool.items(), key=lambda kv: (-kv[1], kv[0]))
    _ensure(all(c > 0 and c % 2 == 0 for _, c in order), "pool counts must be positive and even")
    needs = [need for need, _, _ in vessels]
    _ensure(sum(c for _, c in order) == sum(needs), "pool and needs differ")
    present = [set(p) for _, _, p in vessels]
    alloc = [Counter() for _ in vessels]

    def splits(room: list[int], left: int) -> Iterable[tuple[int, ...]]:
        # Each part takes at least what the later vessels cannot, so every
        # split yielded places all of left within the room.
        if not room:
            if not left:
                yield ()
            return
        for x in range(min(left, room[0]), max(left - sum(room[1:]), 0) - 1, -2):
            for rest in splits(room[1:], left - x):
                yield (x, *rest)

    def place(k: int) -> bool:
        # Parts never exceed the needs and the pool matches their sum, so
        # once every value is placed every need is met.
        if k == len(order):
            return True
        u, c = order[k]
        takers = sorted(
            (
                i
                for i, (_, cap, _) in enumerate(vessels)
                if needs[i] and (u in present[i] or len(present[i]) < cap)
            ),
            key=lambda i: (u not in present[i], -needs[i], i),
        )
        for parts in splits([needs[i] for i in takers], c):
            if next(tries, None) is None:
                return False
            placed = [(i, x) for i, x in zip(takers, parts) if x]
            fresh = [i for i, _ in placed if u not in present[i]]
            for i, x in placed:
                needs[i] -= x
            for i in fresh:
                present[i].add(u)
            if place(k + 1):
                for i, x in placed:
                    alloc[i][u] += x
                return True
            for i, x in placed:
                needs[i] += x
            for i in fresh:
                present[i].discard(u)
        return False

    return alloc if place(0) else None


def _two_coset_recurse(
    n: int, hist: Counter, side1: Counter, side2: Counter, trace: list[str]
) -> _Queues:
    """Fill both sides, in place, to 2^(n-2) targets from the rest of hist and solve them.

    The sides hold each odd copy and each pinned value whole, so the rest,
    hist - side1 - side2, is an even pool.  Side one is solved inside a
    hyperplane containing the span, side two on its other coset; every
    two-coset case has fewer than n values, a rank below n or odd values
    XORing to 0, so the span is below full rank, as _lift_frame requires.
    """
    quarter = 1 << (n - 2)
    _ensure(max(side1.total(), side2.total()) <= quarter, "fixed values overfilled a side")
    _deal(hist - side1 - side2, quarter - side1.total(), side1, side2)
    _ensure(side1.total() == side2.total() == quarter, "the pool did not fill both sides")

    def solve(sub: dict[int, int], into: _Into) -> _Queues:
        return _write(_solve_few(n - 1, Counter(sub), trace), into)

    return _lift_groups([side1, side2], _lift_frame([*side1, *side2], n, n - 1), solve, _fresh(n))


def _exactly_n_even(n: int, hist: Counter, trace: list[str]) -> _Queues:
    """All even, exactly n distinct values, full-rank span.

    After a basis change the values are the n units with the most frequent
    one, u1, on top, at e1.  Each pair of equal targets is a slot, expanded
    by _expand_slots.  A slot of a value below e1 has that unit as its
    downstairs target; u1's slots are anchor slots whose downstairs values
    restore even multiplicities (one extra copy for every value whose count
    is 2 mod 4, then the second unit).  The downstairs instance recurses.
    """
    us = sorted(hist)
    u1 = max(us, key=lambda u: (hist[u], -u))
    frame = [u1] + [u for u in us if u != u1]
    # The frame is a basis: frame[i] maps to the unit at bit n - 1 - i.
    unit = {u: 1 << (n - 1 - i) for i, u in enumerate(frame)}
    e1 = 1 << (n - 1)

    tops = hist[u1] // 2
    fix_values = [u for u in us if u != u1 and hist[u] % 4 == 2]
    _ensure(len(fix_values) <= tops, "top value too rare for the rebalancing")
    top_values = fix_values + [frame[1]] * (tops - len(fix_values))
    slots = [(unit[v], unit[v]) for v in us if v != u1 for _ in range(hist[v] // 2)]
    slots += [(e1, unit[v]) for v in top_values]
    trace.append(f"exactly-n-even n={n} top-slots={tops} fixes={len(fix_values)}")
    return _expand_slots(n, _span_table(frame), slots, lambda sub: _solve_few(n - 1, sub, trace))


def _coset_group_splits(
    others: list[int], pool: Mapping[int, int], k1: int
) -> Iterable[tuple[list[int], list[int], int, int]]:
    """Candidate size-(k1, rest) splits of the unseparated odd values, with their XORs.

    Rotating a heaviest-leftover-first ordering moves each heavy value
    through both groups, which is what allocation feasibility depends on.
    With 0 < k1 < len(others) distinct values, each rotation starts a
    different window of the cycle, so no split repeats.  Each group's XOR
    heads its quarter instance, so a split with a zero XOR on either side is
    skipped.
    """
    base = sorted(others, key=lambda u: (-pool.get(u, 0), u))
    for r in range(len(base)):
        rot = base[r:] + base[:r]
        g1, g2 = sorted(rot[:k1]), sorted(rot[k1:])
        s1, s2 = reduce(xor, g1, 0), reduce(xor, g2, 0)
        if s1 and s2:
            yield g1, g2, s1, s2


def _case_three_coset(n: int, hist: Counter, odds: list[int], trace: list[str]) -> _Queues:
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

    # The odd values XOR to 0, so the n distinct values span less than F_2^n.
    hyperplane, reps = _lift_frame(distinct, n, n - 1)
    lam1 = _solve_parity_system([(r, 0) for r in hyperplane] + [(reps[1], 1)])
    _ensure(lam1 not in (None, 0), "no functional separates the hyperplane")

    c = m // 2 + 1 if m % 4 == 0 else m // 2
    k1 = c - 2

    # The pair choice and the assignment of the remaining odd values to the
    # two quarter-sized groups interact with the fill allocation: a value
    # with many leftover copies needs a side that can absorb them.  The
    # candidate layouts are walked once, lightest separable pair first, and
    # the first whose even pool _allocate fits into its three vessels wins.
    # Its first descent is the greedy fill, which suffices on most layouts;
    # where it leaves a value without a vessel (at n = 8, some instances
    # whose values carry few spare copies beside one heavy value fail it on
    # every layout) the backtracking goes on inside that layout.  One budget
    # of _ALLOCATION_TRIES splits bounds the whole walk.
    pairs = [(a, b) for i, a in enumerate(odds) for b in odds[i + 1 :]]
    pairs.sort(key=lambda ab: (hist[ab[0]] + hist[ab[1]], ab))
    tries = iter(range(_ALLOCATION_TRIES))

    def first_layout() -> tuple:
        """The first layout that fills, with its functional and allocation."""
        for a, b in pairs:
            if hist[a] + hist[b] > quarter + 2:
                break
            lam2 = _solve_parity_system([(u, 1 if u in (a, b) else 0) for u in distinct])
            if lam2 is None:
                continue
            others = [u for u in odds if u not in (a, b)]
            pool = {u: c & ~1 for u, c in hist.items() if c > 1 and u not in (a, b)}
            fills = [
                eighth - (k1 + 1),
                eighth - (m - c + 1),
                quarter - (hist[a] - 1) - (hist[b] - 1),
            ]
            _ensure(all(f >= 0 and f % 2 == 0 for f in fills), "three-coset fills must be even")
            for group1, group2, head1, head2 in _coset_group_splits(others, pool, k1):
                vessels = [
                    (fills[0], n - 2, set(group1) | {head1}),
                    (fills[1], n - 2, set(group2) | {head2}),
                    (fills[2], n - 1, {u for u in (a, b) if hist[u] > 1}),
                ]
                alloc = _allocate(pool, vessels, tries)
                if alloc is not None:
                    return a, b, lam2, group1, group2, head1, head2, alloc
        raise InternalSearchFailed("no separated pair admits a feasible coset layout")

    a, b, lam2, group1, group2, head1, head2, alloc = first_layout()

    rows = [lam1, lam2]
    for unit in (1 << p for p in range(n - 1, -1, -1)):
        if len(rows) == n:
            break
        if len(echelon_basis([*rows, unit], n)) > len(rows):
            rows.append(unit)
    # x maps to its functional values: bit n - 1 - i of its image is
    # parity(rows[i] & x).  The unit at bit n - 1 - j maps to column j of rows.
    cols = [
        sum(1 << (n - 1 - i) for i, r in enumerate(rows) if r >> (n - 1 - j) & 1)
        for j in range(n)
    ]
    fwd = _span_table(cols)

    _ensure(fwd[a] >> (n - 2) == fwd[b] >> (n - 2) == 1, "separated pair off its quarter")
    _ensure(all(fwd[u] >> (n - 2) == 0 for u in distinct if u not in (a, b)), "value left the half")

    v1_tail = sorted(alloc[0].elements())
    v2_tail = sorted(alloc[1].elements())
    v3_vals = [a] * (hist[a] - 1) + [b] * (hist[b] - 1) + sorted(alloc[2].elements())
    trace.append(
        f"three-coset n={n} m={m} pair=({a},{b}) sizes=({1 + k1 + len(v1_tail)},"
        f"{1 + len(group2) + len(v2_tail)},{len(v3_vals)})"
    )

    maskq = (1 << (n - 2)) - 1
    maskh = (1 << (n - 1)) - 1
    order1 = [head1] + group1 + v1_tail
    order2 = [head2] + group2 + v2_tail
    sub1 = [fwd[v] & maskq for v in order1]
    sub2 = [fwd[v] & maskq for v in order2]
    sub3 = [fwd[v] & maskh for v in v3_vals]
    _ensure(all(sub1) and all(sub2) and all(sub3), "three-coset reduction produced a zero target")
    # The stitching below reads each sub-solution by position.
    p1, p2, p3 = (
        _restore(sub, _solve_few(k, Counter(sub), trace))
        for k, sub in ((n - 2, sub1), (n - 2, sub2), (n - 1, sub3))
    )

    t1 = 0b10 << (n - 2)
    t2 = 0b11 << (n - 2)
    lifted1 = [(p ^ t1, q ^ t1) for p, q in p1]
    lifted2 = [(p ^ t2, q ^ t2) for p, q in p2]
    P11, Q11 = lifted1[0]
    P21, Q21 = lifted2[0]
    t = P11 ^ P21 ^ fwd[a]
    _ensure(t >> (n - 2) == 0, "stitching translation left the half")

    placed = chain(
        [((P11, P21 ^ t), a), ((Q11, Q21 ^ t), b)],
        zip(lifted1[1:], order1[1:]),
        (((p ^ t, q ^ t), v) for (p, q), v in zip(lifted2[1:], order2[1:])),
        zip(p3, v3_vals),
    )
    queues: _Queues = {}
    for pq, v in placed:
        queues.setdefault(fwd[v], []).append(pq)
    return _write(queues, ({}, _inverse_table(fwd), 0))


def _solve_few(n: int, hist: Counter, trace: list[str]) -> _Queues:
    """Recursion on target histograms with at most n distinct values.

    Most cases split the space into a hyperplane containing the span and
    its other coset: each branch below only seeds side1 and side2, with
    whole values or single odd copies, and _two_coset_recurse deals the
    even rest and solves both sides one level down.  _exactly_n_even and
    _case_three_coset reduce in their own ways.
    """
    _ensure(hist.total() == 1 << (n - 1), "bounded-value recursion needs 2^(n-1) targets")
    if n <= 5:
        return _exact(n, hist)
    l = len(hist)
    _ensure(l <= n, "bounded-value recursion needs at most n values")
    quarter = 1 << (n - 2)
    odds = sorted(u for u in hist if hist[u] & 1)
    evens = sorted(u for u in hist if not hist[u] & 1)
    whole = [u for u in evens if hist[u] <= quarter]  # even values one side can take whole
    m = len(odds)
    side1, side2 = Counter(odds), Counter()

    if m == 0:
        if n == 6:
            trace.append("even-base level=6")
            return _lift_even(6, hist, trace)
        if l <= 2:
            return _small_dim(n, hist, hist, 5, trace, {}, _fresh(n))
        if l == n and len(echelon_basis(hist, n)) == n:
            return _exactly_n_even(n, hist, trace)
        # Two values of multiplicity at most 2^(n-2) seed one side each.
        # Each side then misses the other's seed, so both sub-instances drop
        # to at most l - 1 distinct values.
        _ensure(len(whole) >= 2, "at most one value can exceed half the instance")
        u1, u2 = whole[:2]
        side1[u1], side2[u2] = hist[u1], hist[u2]
        trace.append(f"even-two-split n={n} l={l} seeds=({u1},{u2})")
    else:
        _ensure(m >= 4 and m % 2 == 0, "odd values come in an even count of at least 4")
        if l < n:
            # One copy of every odd value on side one kills all the odd
            # parities at once.
            trace.append(f"odd-singles-split n={n} l={l} m={m}")
        elif m <= n - 2:
            # An even value small enough to fit is pinned whole to side two
            # and a cheapest other value whole to side one, so each side
            # misses a value; the odd singles ride along on side one.
            pin2 = whole[0]
            pin1 = min((u for u in hist if u != pin2), key=lambda u: (hist[u], u))
            side1[pin1], side2[pin2] = hist[pin1], hist[pin2]
            trace.append(f"pinned-split n={n} m={m} pin1={pin1} pin2={pin2}")
        else:
            picked = _zero_sum_subset(odds, range(2, m, 2))
            if picked is None:
                return _case_three_coset(n, hist, odds, trace)
            # The singles of a proper even-size zero-sum subset seed side
            # one and the rest side two.  Each side also takes the leftover
            # copies of one of its own odd values or of an even value, a
            # different one per side, so the opposite side misses it.
            subset = [odds[i] for i in picked]
            comp = [u for i, u in enumerate(odds) if i not in picked]

            def pins(own: list[int]) -> list[int]:
                fill = quarter - len(own)
                fits = (u for u in chain(own, evens) if hist[u] & ~1 <= fill)
                return sorted(fits, key=lambda u: (hist[u] & ~1, u))

            pins1, pins2 = pins(subset), pins(comp)
            x1, x2 = next(((a, b) for a in pins1 for b in pins2 if a != b), (None, None))
            if x1 is None:
                raise InternalSearchFailed("no pinnable pair of values for the subset split")
            side1, side2 = Counter(subset), Counter(comp)
            side1[x1] += hist[x1] & ~1
            side2[x2] += hist[x2] & ~1
            trace.append(f"zero-subset-split n={n} |U|={len(subset)} pins=({x1},{x2})")
    return _two_coset_recurse(n, hist, side1, side2, trace)


# ---------------------------------------------------------------------------
# public operations


def _finish(inst: PairingInstance, queues: _Queues) -> PairPartition:
    """A solver's queues, put in target order and checked."""
    return _checked(inst, _restore(inst.values, queues))


def _checked(inst: PairingInstance, raw: Iterable[tuple[int, int]]) -> PairPartition:
    """The one check of every public solver's output: pairs in target order, each small first."""
    part = PairPartition(inst.n, tuple([pq if pq[0] < pq[1] else pq[::-1] for pq in raw]))
    errs = partition_errors(inst, part)
    if errs:
        raise InternalSearchFailed("solver produced an invalid partition: " + "; ".join(errs[:3]))
    return part


#: Seconds an exact search may run when its caller gives no budget.
_EXACT_BUDGET_S = 60.0


def _exact_reason(n: int) -> str | None:
    """Why exact search does not apply, or None when it may."""
    return f"exact search needs n <= 6, got n={n}" if n > 6 else None


def exact_pairing_solver(
    inst: PairingInstance, budget_seconds: float = _EXACT_BUDGET_S
) -> PairPartition:
    """Plain backtracking over uncovered vectors, the ExactSearch route with a budget.

    Like that route it refuses n > 6 with CaseNotApplicable.
    """
    # Above the largest float, the deadline's sum would raise OverflowError.
    if type(budget_seconds) not in (int, float) or not 0 <= budget_seconds <= sys.float_info.max:
        raise PreconditionViolated(f"budget must be a finite number >= 0, got {budget_seconds!r}")
    reason = _exact_reason(inst.n)
    if reason is not None:
        raise CaseNotApplicable(reason)
    deadline = time.monotonic() + budget_seconds
    return _finish(inst, _exact(inst.n, Counter(inst.values), deadline))


def _exact_in_frame(
    inst: PairingInstance, memo: dict[bytes | tuple[int, ...], bytes | str]
) -> PairPartition:
    """A valid instance's checked partition, mapped from one exact solve of its frame form.

    The frame is the targets that raise the rank, in listed order, then unit
    vectors at the free pivots; the form is the sorted tuple of the targets'
    coordinates in it.  An invertible map carries a partition for the form to
    one for the targets, and a proof that none exists back, so memo, kept by
    the caller for one call, holds each form's Infeasible message or its
    partition, as bytes (n <= 6): the first vector p of form entry c's pair
    (p, p ^ c).  Keyed by the bytes of its rows, never a form's key, memo
    holds each frame's _span_table then _inverse_table, as one bytes.  A
    stable sort of the coordinates gives the k-th occurrence of a target
    the k-th form position holding it, as _restore would, so one pass maps
    the pairs by the table straight into target order for _checked.  A
    search out of budget is not kept: each instance gets its own.
    """
    n, values = inst.n, inst.values
    lead: dict[int, int] = {}
    rows = []
    for v in dict.fromkeys(values):
        r = v
        while r and (row := lead.get(r.bit_length())):
            r ^= row
        if r:
            lead[r.bit_length()] = r
            rows.append(v)
            if len(rows) == n:
                break
    else:  # short of full rank
        rows += [1 << (b - 1) for b in range(n, 0, -1) if b not in lead]
    frame = bytes(rows)
    tables = memo.get(frame)
    if tables is None:
        table = _span_table(rows)
        tables = memo[frame] = bytes(table + _inverse_table(table))
    size = 1 << n
    coords = [tables[size + v] for v in values]
    form = tuple(sorted(coords))
    hit = memo.get(form)
    if hit is None:
        try:
            queues = _exact(n, Counter(form), time.monotonic() + _EXACT_BUDGET_S)
        except Infeasible as exc:
            hit = str(exc)
        else:
            hit = bytes([p for p, _ in _restore(form, queues)])
        memo[form] = hit
    if isinstance(hit, str):
        raise Infeasible(hit)
    raw: list = [None] * len(values)
    for i, c, p in zip(sorted(range(len(coords)), key=coords.__getitem__), form, hit):
        raw[i] = (tables[p], tables[p ^ c])
    return _checked(inst, raw)


def _odd_reason(hist: Counter) -> str | None:
    """Why an all-even route does not apply, or None when it may."""
    return "every multiplicity must be even" if any(c % 2 for c in hist.values()) else None


#: The routes in automatic order, as (tag, hypothesis, solver) rows.  Both
#: take n, the target histogram and its echelon_basis rows; a hypothesis gives
#: None when its route covers the instance, else the reason it does not.
_ROUTES: tuple[tuple[str, Callable[..., str | None], Callable[..., _Queues]], ...] = (
    (
        "Dim5Coset",
        lambda n, hist, span: (
            f"targets span {len(span)} dimensions, more than 5" if len(span) > 5 else None
        ),
        lambda n, hist, span, trace: _small_dim(n, hist, span, 5, trace, {}, _fresh(n)),
    ),
    (
        "Dim6EvenCoset",
        lambda n, hist, span: (
            f"needs n >= 6, got n={n}" if n < 6
            else f"targets span {len(span)} dimensions, more than 6" if len(span) > 6
            else _odd_reason(hist)
        ),
        lambda n, hist, span, trace: _small_dim(n, hist, span, 6, trace, {}, _fresh(n)),
    ),
    (
        "AtMostNValues",
        lambda n, hist, span: (
            f"{len(hist)} distinct values exceed n={n}" if len(hist) > n else None
        ),
        lambda n, hist, span, trace: _solve_few(n, hist, trace),
    ),
    (
        "DimHalfEven",
        lambda n, hist, span: _odd_reason(hist) or (
            f"span dimension {len(span)} exceeds n/2" if 2 * len(span) > n else None
        ),
        _dim_half,
    ),
    (
        "ExactSearch",
        lambda n, hist, span: _exact_reason(n),
        lambda n, hist, span, trace: _exact(n, hist, time.monotonic() + _EXACT_BUDGET_S),
    ),
)

#: The route tags, in automatic order.
ROUTE_TAGS = tuple(tag for tag, _, _ in _ROUTES)


def _solve_routed(
    n: int, hist: Counter, route: str | None = None
) -> tuple[str, _Queues, list[str]]:
    """The router without the checks: the route's tag, its queues and its trace.

    hist is a valid instance's target histogram and route None or one of
    ROUTE_TAGS.  Raises CaseNotApplicable and NotCovered as solve_pairing
    does; the pipelines that double labelings call it directly and restore
    target order themselves, since their one final check covers every level.
    """
    span = echelon_basis(hist, n)
    rows = _ROUTES if route is None else [row for row in _ROUTES if row[0] == route]
    for tag, hypothesis, solve in rows:
        reason = hypothesis(n, hist, span)
        if reason is None:
            trace: list[str] = []
            return tag, solve(n, hist, span, trace), trace
        if route is not None:
            raise CaseNotApplicable(reason)
    raise NotCovered(f"no constructive case applies and n={n} > 6")


def solve_pairing(
    inst: PairingInstance, route: str | None = None
) -> tuple[PairPartition, SolverRoute]:
    """Solve by the first route whose hypothesis holds, or by the given route.

    A route from ROUTE_TAGS whose hypothesis fails raises CaseNotApplicable
    with the reason, and any other route PreconditionViolated.  With no
    route, an instance that no route covers (n > 6) raises NotCovered.
    """
    if route is not None and route not in ROUTE_TAGS:
        raise PreconditionViolated(f"unknown route {route!r}; expected one of {ROUTE_TAGS}")
    tag, queues, trace = _solve_routed(inst.n, Counter(inst.values), route)
    return _finish(inst, queues), SolverRoute(tag, tuple(trace))
