"""Randomized labeling search: greedy with restarts, and exhaustive backtracking.

The greedy strategy regenerates the bundled base-case labelings and attacks
arbitrary small trees; the exhaustive strategy doubles as a non-existence
prover for trees with at most 16 vertices.

The exhaustive search enumerates one labeling per GL(n,2) orbit: invertible
linear maps of F_2^n carry labelings to labelings, and it keeps only those
whose every label lies in the span of the earlier ones or is the next unit
vector.  The lexicographically first labeling is of that kind, so it is
still the one returned, and Infeasible still means that none exists.

Restart r reseeds one Mersenne Twister (random.Random) with seed + r, so
its state is that of random.Random(seed + r), and shuffles the vertex order
and then the candidate labels with random.shuffle's own Fisher-Yates steps,
drawn through getrandbits.  The fixtures then depend only on getrandbits,
which is the same on every platform.  Restarts run in increasing order and
the first success wins.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from typing import TextIO

from .errors import (
    BudgetExhausted,
    Infeasible,
    InternalSearchFailed,
    OutOfRange,
    PreconditionViolated,
)
from .trees import Labeling, Tree, _bfs, _label_width, verify_set_sequential

__all__ = [
    "GREEDY_RESTART",
    "BACKTRACKING",
    "STRATEGIES",
    "SearchConfig",
    "search_labeling",
]

GREEDY_RESTART = "GreedyRestart"
BACKTRACKING = "Backtracking"
STRATEGIES = (GREEDY_RESTART, BACKTRACKING)

#: Largest tree the exhaustive strategy accepts.
EXHAUSTIVE_VERTEX_CAP = 16

#: Vertices a greedy restart labels between two readings of the clock.
_DEADLINE_STRIDE = 256


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for search_labeling; defaults favor the greedy strategy."""

    seed: int = 0
    budget_seconds: float = 60.0
    max_restarts: int = 1_000_000
    strategy: str = GREEDY_RESTART

    def __post_init__(self) -> None:
        if type(self.seed) is not int or not 0 <= self.seed < 1 << 64:
            raise PreconditionViolated(f"seed must be an int in 0..2**64-1, got {self.seed!r}")
        budget = self.budget_seconds
        if type(budget) not in (int, float) or not 0 < budget <= sys.float_info.max:
            raise PreconditionViolated(f"budget must be a finite number > 0, got {budget!r}")
        if type(self.max_restarts) is not int or self.max_restarts < 1:
            raise PreconditionViolated(
                f"max_restarts must be an int of at least 1, got {self.max_restarts!r}"
            )
        if self.strategy not in STRATEGIES:
            raise PreconditionViolated(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )


def search_labeling(
    t: Tree, cfg: SearchConfig, progress: TextIO | None = None
) -> Labeling:
    """A labeling of t that passes verify_set_sequential.

    Raises BudgetExhausted when the time or restart budget runs out (which
    proves nothing) and, under the exhaustive strategy only, Infeasible once
    the whole space has been rejected, or before any search when one or two
    vertices have even degree.
    """
    n = _label_width(t)
    if cfg.strategy == GREEDY_RESTART:
        raw = _greedy_restarts(t, cfg, n, progress)
    else:
        if t.vertex_count > EXHAUSTIVE_VERTEX_CAP:
            raise OutOfRange(
                f"exhaustive strategy handles at most {EXHAUSTIVE_VERTEX_CAP} vertices"
            )
        raw = _backtracking(t, cfg, n, progress)
    lab = Labeling(n, raw)
    verify_set_sequential(t, lab).require(
        InternalSearchFailed, "search produced an invalid labeling"
    )
    return lab


def _require_even_degree_balance(t: Tree) -> None:
    """Raise Infeasible when one or two vertices of t have even degree.

    The even-degree labels of any labeling XOR to 0 (even_degree_label_sum
    in trees), which one nonzero label, or two distinct ones, cannot do.
    """
    evens = sum(d % 2 == 0 for d in t.degrees())
    if evens in (1, 2):
        raise Infeasible(f"{evens} even-degree vertices: their labels cannot XOR to 0")


def _emit(progress: TextIO | None, **fields: int) -> None:
    if progress is not None:
        progress.write(" ".join(f"{k}={v}" for k, v in fields.items()) + "\n")


def _fisher_yates_steps(length: int) -> tuple[tuple[int, int], ...]:
    """The (i, bits) steps of random.shuffle on a list of this length.

    Step i swaps x[i] with x[j], j drawn as getrandbits(bits) and redrawn
    while above i: the rejection sampling of Random._randbelow(i + 1).
    """
    return tuple((i, (i + 1).bit_length()) for i in reversed(range(1, length)))


def _shuffle(x: list[int], steps: tuple[tuple[int, int], ...], getrandbits) -> None:
    """Permute x as random.shuffle(x) does, with no _randbelow call per step."""
    for i, bits in steps:
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


def _greedy_restarts(
    t: Tree, cfg: SearchConfig, n: int, progress: TextIO | None
) -> dict[int, int]:
    count = t.vertex_count
    adj = t.adjacency()
    deg = t.degrees()
    # Each restart shuffles the whole list (Fisher-Yates over every index), so
    # its vertex order is uniformly random: this sort only fixes which list
    # each seed's shuffle permutes, and the seed-0 fixtures pin that.
    base_order = sorted(range(count), key=lambda v: (-deg[v], v))
    deadline = time.monotonic() + cfg.budget_seconds
    size = 1 << n
    order_steps = _fisher_yates_steps(count)
    nonzero = list(range(1, size))
    candidate_steps = _fisher_yates_steps(size - 1)
    rng = random.Random()
    getrandbits = rng.getrandbits
    best_depth = 0
    # Restarts run as of the last progress line: a closing line that would
    # repeat it is left out.
    reported = -1
    for restart in range(cfg.max_restarts):
        # The same state as random.Random(seed + restart), and the same
        # draws as its shuffle of the order and then of the candidates.
        rng.seed(cfg.seed + restart)
        order = base_order[:]
        _shuffle(order, order_steps, getrandbits)
        candidates = nonzero[:]
        _shuffle(candidates, candidate_steps, getrandbits)
        labels: dict[int, int] = {}
        # The labels of each vertex's labeled neighbors, kept up to date as
        # vertices are labeled.
        near_of = [[] for _ in range(count)]
        used = bytearray(size)
        # The clock is read before each stride of vertices, so once per
        # restart on a tree of at most _DEADLINE_STRIDE vertices.  A vertex
        # with no fresh label ends the restart.
        for start in range(0, count, _DEADLINE_STRIDE):
            if time.monotonic() > deadline:
                if reported != restart:
                    _emit(progress, restarts=restart, best_depth=best_depth)
                raise BudgetExhausted(
                    f"no labeling within {cfg.budget_seconds:g}s ({restart} restarts)"
                )
            for v in order[start : start + _DEADLINE_STRIDE]:
                # First fit: c and its edge to each labeled neighbor must be fresh
                # (two new edges never collide; that would need equal neighbors).
                near = near_of[v]
                if len(near) == 1:  # the common case, tested inline
                    x = near[0]
                    for c in candidates:
                        if not (used[c] or used[c ^ x]):
                            break
                    else:
                        break
                    used[c] = used[c ^ x] = 1
                else:
                    for c in candidates:
                        if not used[c]:
                            for x in near:
                                if used[c ^ x]:
                                    break
                            else:
                                break
                    else:
                        break
                    used[c] = 1
                    for x in near:
                        used[c ^ x] = 1
                labels[v] = c
                for u in adj[v]:
                    near_of[u].append(c)
            else:
                continue
            break
        if len(labels) == count:
            _emit(progress, restarts=restart + 1, best_depth=count)
            return labels
        if len(labels) > best_depth or (restart and restart % 1000 == 0):
            best_depth = max(best_depth, len(labels))
            _emit(progress, restarts=restart + 1, best_depth=best_depth)
            reported = restart + 1
    if reported != cfg.max_restarts:
        _emit(progress, restarts=cfg.max_restarts, best_depth=best_depth)
    raise BudgetExhausted(f"no labeling within {cfg.max_restarts} restarts")


def _backtracking(
    t: Tree, cfg: SearchConfig, n: int, progress: TextIO | None
) -> dict[int, int]:
    try:
        _require_even_degree_balance(t)
    except Infeasible:
        _emit(progress, nodes=0, result=0)
        raise
    deg = t.degrees()
    # Deterministic connectivity-first order: breadth first from the
    # highest-degree vertex, so every later vertex has exactly one earlier
    # neighbor, its parent, and each step adds exactly one edge label.
    root = max(range(t.vertex_count), key=lambda v: (deg[v], -v))
    adj = [sorted(near, key=lambda u: (-deg[u], u)) for near in t.adjacency()]
    order, parent_of = _bfs(adj, root)
    position = {v: i for i, v in enumerate(order)}
    # Position in order of each vertex's parent; unused for the root.
    parent = [position[parent_of[v]] for v in order]
    deadline = time.monotonic() + cfg.budget_seconds
    size = 1 << n
    count = len(order)
    # One labeling per GL(n,2) orbit, still the lexicographically first (see
    # the module docstring): each label lies in the span of the earlier ones,
    # the vectors below 1 << rank, or is 1 << rank, so the root takes 1.
    labels = [1] + [0] * (count - 1)
    used = bytearray(size)
    used[1] = 1
    nodes = 0
    best_depth = 1

    def rec(depth: int, rank: int) -> bool:
        nonlocal nodes, best_depth
        if depth == count:
            return True
        nodes += 1
        best_depth = max(best_depth, depth)
        if nodes & 1023 == 0 and time.monotonic() > deadline:
            _emit(progress, nodes=nodes, best_depth=best_depth)
            raise BudgetExhausted(f"exhaustive search timed out after {nodes} nodes")
        near = labels[parent[depth]]
        fresh = 1 << rank
        for cand in range(1, min(size, fresh + 1)):
            edge = cand ^ near
            if used[cand] or used[edge]:
                continue
            used[cand] = used[edge] = 1
            labels[depth] = cand
            if rec(depth + 1, rank + (cand == fresh)):
                return True
            used[cand] = used[edge] = 0
        return False

    if rec(1, 1):
        _emit(progress, nodes=nodes, result=1)
        return dict(zip(order, labels))
    _emit(progress, nodes=nodes, result=0)
    raise Infeasible("exhaustive search rejected every assignment")
