"""Randomized labeling search: greedy with restarts, and exhaustive backtracking.

The greedy strategy regenerates the bundled base-case labelings and attacks
arbitrary small trees; the exhaustive strategy doubles as a non-existence
prover for trees with at most 16 vertices.

The exhaustive search enumerates one labeling per GL(n,2) orbit: invertible
linear maps of F_2^n carry labelings to labelings, and it keeps only those
whose every label lies in the span of the earlier ones or is the next unit
vector.  The lexicographically first labeling is of that kind, so it is
still the one returned, and Infeasible still means that none exists.

Restart r draws from random.Random(seed + r) (Python's Mersenne Twister, so
fixtures are reproducible across platforms).  Restarts run in increasing
order and the first success wins; a parallel runner fanning restarts out to
workers stays reproducible as long as it keeps that winner rule.
"""

from __future__ import annotations

import random
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
from .gf2 import BitVec
from .trees import Labeling, Tree, _label_width, verify_set_sequential

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


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for search_labeling; defaults favor the greedy strategy."""

    seed: int = 0
    budget_seconds: float = 60.0
    max_restarts: int = 1_000_000
    strategy: str = GREEDY_RESTART

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise PreconditionViolated("seed must fit in 64 bits")
        if not self.budget_seconds > 0:
            raise PreconditionViolated("budget must be positive")
        if self.max_restarts < 1:
            raise PreconditionViolated("max_restarts must be at least 1")
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
    the whole space has been rejected.
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
    lab = Labeling(n, {v: BitVec(x, n) for v, x in raw.items()})
    report = verify_set_sequential(t, lab)
    if not report.valid:
        raise InternalSearchFailed(
            "search produced an invalid labeling: "
            + "; ".join(str(v) for v in report.violations)
        )
    return lab


def _emit(progress: TextIO | None, **fields: int) -> None:
    if progress is not None:
        progress.write(" ".join(f"{k}={v}" for k, v in fields.items()) + "\n")


def _greedy_restarts(
    t: Tree, cfg: SearchConfig, n: int, progress: TextIO | None
) -> dict[int, int]:
    adj = t.adjacency()
    deg = t.degrees()
    # High-degree vertices carry the most edge constraints; placing them
    # first keeps the cheap freshness test selective.
    base_order = sorted(range(t.vertex_count), key=lambda v: (-deg[v], v))
    deadline = time.monotonic() + cfg.budget_seconds
    size = 1 << n
    best_depth = 0
    # Restarts run as of the last progress line: a closing line that would
    # repeat it is left out.
    reported = -1
    for restart in range(cfg.max_restarts):
        if time.monotonic() > deadline:
            if reported != restart:
                _emit(progress, restarts=restart, best_depth=best_depth)
            raise BudgetExhausted(
                f"no labeling within {cfg.budget_seconds:g}s ({restart} restarts)"
            )
        rng = random.Random(cfg.seed + restart)
        order = base_order[:]
        rng.shuffle(order)
        candidates = list(range(1, size))
        rng.shuffle(candidates)
        labels: dict[int, int] = {}
        used = bytearray(size)
        for v in order:
            # First fit: c and its edge to each labeled neighbor must be fresh
            # (two new edges never collide; that would need equal neighbors).
            # any() over a list beats a generator for so few neighbors.
            near = [labels[u] for u in adj[v] if u in labels]
            for c in candidates:
                if not used[c] and not any([used[c ^ x] for x in near]):
                    break
            else:
                break
            used[c] = 1
            for x in near:
                used[c ^ x] = 1
            labels[v] = c
        if len(labels) == t.vertex_count:
            _emit(progress, restarts=restart + 1, best_depth=t.vertex_count)
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
    adj = t.adjacency()
    deg = t.degrees()
    # Deterministic connectivity-first order: breadth first from the
    # highest-degree vertex, so every later vertex has exactly one earlier
    # neighbor, its parent, and each step adds exactly one edge label.
    root = max(range(t.vertex_count), key=lambda v: (deg[v], -v))
    order = [root]
    parent = [0]  # position in order of each vertex's parent; unused for the root
    seen = {root}
    for i, v in enumerate(order):  # order grows while it is walked
        for u in sorted(adj[v], key=lambda u: (-deg[u], u)):
            if u not in seen:
                seen.add(u)
                order.append(u)
                parent.append(i)
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
