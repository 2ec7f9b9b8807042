"""Randomized labeling search: greedy with restarts, and exhaustive backtracking.

The greedy strategy regenerates the bundled base-case labelings and attacks
arbitrary small trees; the exhaustive strategy doubles as a non-existence
prover for trees with at most 16 vertices.

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


def _try_assign(
    cand: int, v: int, adj: list[list[int]], labels: dict[int, int], used: bytearray
) -> bool:
    """Commit cand as v's label if it and all induced edge labels are fresh.

    Two new edge labels can never collide with each other (that would force
    two equal neighbor labels), so per-edge freshness is the whole check.
    """
    if used[cand]:
        return False
    fresh = []
    for u in adj[v]:
        if u in labels:
            e = cand ^ labels[u]
            if used[e]:
                return False
            fresh.append(e)
    used[cand] = 1
    for e in fresh:
        used[e] = 1
    labels[v] = cand
    return True


def _unassign(v: int, adj: list[list[int]], labels: dict[int, int], used: bytearray) -> None:
    cand = labels.pop(v)
    used[cand] = 0
    for u in adj[v]:
        if u in labels:
            used[cand ^ labels[u]] = 0


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
    for restart in range(cfg.max_restarts):
        if time.monotonic() > deadline:
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
            if not any(_try_assign(c, v, adj, labels, used) for c in candidates):
                break
        if len(labels) == t.vertex_count:
            _emit(progress, restarts=restart + 1, best_depth=t.vertex_count)
            return labels
        if len(labels) > best_depth:
            best_depth = len(labels)
            _emit(progress, restart=restart, best_depth=best_depth)
        elif restart and restart % 1000 == 0:
            _emit(progress, restart=restart, best_depth=best_depth)
    _emit(progress, restarts=cfg.max_restarts, best_depth=best_depth)
    raise BudgetExhausted(f"no labeling within {cfg.max_restarts} restarts")


def _backtracking(
    t: Tree, cfg: SearchConfig, n: int, progress: TextIO | None
) -> dict[int, int]:
    adj = t.adjacency()
    deg = t.degrees()
    # Deterministic connectivity-first order: start at the highest-degree
    # vertex and grow outward so every later vertex sees a labeled neighbor.
    root = max(range(t.vertex_count), key=lambda v: (deg[v], -v))
    order = [root]
    seen = {root}
    i = 0
    while i < len(order):
        for u in sorted(adj[order[i]], key=lambda u: (-deg[u], u)):
            if u not in seen:
                seen.add(u)
                order.append(u)
        i += 1
    deadline = time.monotonic() + cfg.budget_seconds
    size = 1 << n
    labels: dict[int, int] = {}
    used = bytearray(size)
    nodes = 0

    def rec(depth: int) -> bool:
        nonlocal nodes
        if depth == len(order):
            return True
        nodes += 1
        if nodes & 1023 == 0 and time.monotonic() > deadline:
            raise BudgetExhausted(f"exhaustive search timed out after {nodes} nodes")
        v = order[depth]
        for cand in range(1, size):
            if _try_assign(cand, v, adj, labels, used):
                if rec(depth + 1):
                    return True
                _unassign(v, adj, labels, used)
        return False

    if rec(0):
        _emit(progress, nodes=nodes, result=1)
        return labels
    _emit(progress, nodes=nodes, result=0)
    raise Infeasible("exhaustive search rejected every assignment")
