"""Output checks, written without the code under test where that is possible.

Every function returns a list of problems; an empty list means the output
is correct.  The workloads call these outside the timed span of an op.
"""

from __future__ import annotations

import json
import re


def labeling_problems(count: int, edges, labels, n: int) -> list[str]:
    """Is labels (vertex -> int) a set-sequential labeling of the tree?"""
    if len(edges) != count - 1:
        return [f"{len(edges)} edges for {count} vertices"]
    if count + len(edges) != (1 << n) - 1:
        return [f"{count} vertices do not fit n={n}"]
    if sorted(labels) != list(range(count)):
        return ["labels do not cover the vertices"]
    parent = list(range(count))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen = bytearray(1 << n)
    entries = [labels[v] for v in range(count)]
    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra == rb:
            return [f"edge {a}-{b} closes a cycle"]
        parent[ra] = rb
        entries.append(labels[a] ^ labels[b])
    for value in entries:
        if not 0 < value < 1 << n:
            return [f"entry {value} out of range"]
        if seen[value]:
            return [f"entry {value} repeated"]
        seen[value] = 1
    return []


def tree_document_problems(text: str) -> list[str]:
    """Re-parse an emitted tree document and re-verify its labeling."""
    try:
        doc = json.loads(text)
        n = doc["n"]
        count = len(doc["vertices"])
        labels = {v["id"]: int(v["label"], 2) for v in doc["vertices"]}
        edges = [tuple(e) for e in doc["edges"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"document does not parse: {exc}"]
    return labeling_problems(count, edges, labels, n)


_SWEEP_TOTAL = re.compile(r"^instances=(\d+) failures=(\d+)$", re.M)


def sweep_problems(output: str, code: int, instances: int) -> list[str]:
    """The sweep must report every instance checked and no failure."""
    found = _SWEEP_TOTAL.findall(output)
    if code != 0 or found != [(str(instances), "0")]:
        return [f"exit code {code}, summary {found}"]
    return []


def caterpillar_problems(text: str, degrees, count: int) -> list[str]:
    """Is the emitted tree the caterpillar T[degrees], up to numbering?"""
    doc = json.loads(text)
    if len(doc["vertices"]) != count:
        return [f"{len(doc['vertices'])} vertices, expected {count}"]
    adj: dict[int, list[int]] = {}
    for a, b in doc["edges"]:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    spine = [v for v, nbrs in adj.items() if len(nbrs) > 1] or [0]
    inner = {v: [u for u in adj[v] if u in spine] for v in spine}
    ends = [v for v in spine if len(inner[v]) <= 1]
    if len(ends) != min(2, len(spine)) or any(len(x) > 2 for x in inner.values()):
        return ["the non-leaf vertices do not form a path"]
    path, prev = [ends[0]], None
    while len(path) < len(spine):
        step = [u for u in inner[path[-1]] if u != prev]
        prev = path[-1]
        path.append(step[0])
    found = tuple(len(adj[v]) for v in path)
    if found not in (tuple(degrees), tuple(degrees)[::-1]):
        return [f"center degrees {found}, expected {tuple(degrees)}"]
    return []
