"""Tree and caterpillar data model plus the set-sequential verifier.

A labeling assigns vectors of F_2^n to vertices; every edge inherits the XOR
of its endpoints.  It is set-sequential when the vertex and edge labels
together cover F_2^n minus zero exactly once, which forces
|V| + |E| = 2^n - 1.

The verifier is a total function: it never raises on bad labelings, it
reports findings.  Constructors elsewhere in the package lean on that to
check their outputs, raising InternalSearchFailed on a bad one, instead of
trusting the theory.

Labeled trees travel as JSON documents with keys in the order n, vertices,
edges and one space of indent per level, the layout of json.dumps with
indent=1.  The tests pin digests of emitted documents, so the layout is
behaviour; tree_to_json writes it directly.  tree_from_json screens the
parsed entries at C speed and walks them one by one only to name the
first fault of a document the screen rejects.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import NonCanonical, OutOfRange, PreconditionViolated, SetseqError, _as_int, _as_tuple
from .gf2 import MAX_DIM, BitVec, parse_bits

__all__ = [
    "Tree",
    "CaterpillarSpec",
    "Labeling",
    "Violation",
    "VerifierReport",
    "build_caterpillar",
    "diameter",
    "verify_set_sequential",
    "even_degree_label_sum",
    "tree_to_json",
    "tree_from_json",
    "tree_to_dot",
]


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Tree:
    """An unrooted tree on vertices 0..vertex_count-1.

    Edges are unordered pairs stored with the smaller id first; the edge
    list keeps its given order so emitted documents are stable.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        v = self.vertex_count
        if type(v) is not int:
            raise PreconditionViolated(f"vertex count must be an int, got {v!r}")
        if v < 2:
            raise PreconditionViolated(f"need at least 2 vertices, got {v}")
        if type(self.edges) is not tuple:
            raise PreconditionViolated(f"edges must be a tuple, got {type(self.edges).__name__}")
        if len(self.edges) != v - 1:
            raise PreconditionViolated(
                f"a tree on {v} vertices has {v - 1} edges, got {len(self.edges)}"
            )
        # v - 1 in-range edges that never join two vertices already joined
        # form a tree: one union-find pass (path halving) checks it.  On any
        # failure a second walk finds the message.
        parent = list(range(v))
        for edge in self.edges:
            if type(edge) is not tuple or len(edge) != 2:
                break
            a, b = edge
            if type(a) is not int or type(b) is not int or not 0 <= a < b < v:
                break
            while (p := parent[a]) != a:
                parent[a] = a = parent[p]
            while (p := parent[b]) != b:
                parent[b] = b = parent[p]
            if a == b:
                break
            parent[b] = a
        else:
            return
        raise PreconditionViolated(_tree_error(v, self.edges))

    @classmethod
    def of(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> Tree:
        """Build from any iterable of id pairs, normalizing orientation.

        Only int pairs are reoriented; any other pair is passed on as given
        for the tree check to name.
        """
        norm = []
        for edge in _as_tuple(edges, "edges must be an iterable of vertex-id pairs"):
            try:
                a, b = edge
            except (TypeError, ValueError):
                raise PreconditionViolated(f"edge {edge!r} is not a pair of vertex ids") from None
            norm.append((b, a) if type(a) is int and type(b) is int and b < a else (a, b))
        return cls(vertex_count, tuple(norm))

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg


def _tree_error(v: int, edges: Iterable[tuple[int, int]]) -> str:
    """The first finding against v - 1 edges that do not form a tree.

    Per-edge findings come in edge order.  Distinct valid edges that fail
    the check close a cycle, so some vertex is left unconnected.
    """
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        if type(edge) is not tuple or len(edge) != 2:
            return f"edge {edge!r} is not a pair of vertex ids"
        a, b = edge
        if type(a) is not int or type(b) is not int:
            return f"edge ({a!r}, {b!r}) has a non-int vertex id"
        if not (0 <= a < v and 0 <= b < v):
            return f"edge ({a}, {b}) out of range"
        if a == b:
            return f"edge ({a}, {b}) is a loop"
        if a > b:
            return f"edge ({a}, {b}) not stored small-id first"
        if (a, b) in seen:
            return f"duplicate edge ({a}, {b})"
        seen.add((a, b))
    return "edges do not connect all vertices"


@dataclass(frozen=True)
class CaterpillarSpec:
    """Canonical caterpillar T[d_1..d_k]: center path vertex i has degree d_i.

    Canonical means either the single-edge case [1] or every entry >= 2.
    A spec has at most 2^(MAX_DIM-1) vertices, the most a labeling of width
    MAX_DIM covers, so an oversized one raises OutOfRange before anything is
    built.
    """

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        # A tuple, so that the degrees checked here are the degrees kept.
        degrees = _as_tuple(self.degrees, "degrees must be an iterable of ints")
        object.__setattr__(self, "degrees", degrees)
        if not self.degrees:
            raise NonCanonical("degree list is empty")
        for d in self.degrees:
            if type(d) is not int:
                raise PreconditionViolated(f"degree {d!r} is not an int")
        if self.degrees != (1,) and any(d < 2 for d in self.degrees):
            raise NonCanonical(
                f"degrees must all be >= 2 (or the list be exactly [1]): {list(self.degrees)}"
            )
        if self.vertex_count > 1 << (MAX_DIM - 1):
            raise OutOfRange(
                f"caterpillar has {self.vertex_count} vertices, more than 2^{MAX_DIM - 1}"
            )

    @classmethod
    def parse(cls, text: str) -> CaterpillarSpec:
        """Parse the display form, e.g. "T[3,3,3]"."""
        if not isinstance(text, str):
            raise PreconditionViolated(f"spec must be a string, got {type(text).__name__}")
        s = text.strip()
        if not (s.startswith("T[") and s.endswith("]")):
            raise PreconditionViolated(f"expected T[d1,...,dk], got {text!r}")
        what = f"bad degree list in {text!r}"
        return cls(tuple(_as_int(p.strip(), what) for p in s[2:-1].split(",")))

    def __str__(self) -> str:
        return "T[" + ",".join(str(d) for d in self.degrees) + "]"

    @property
    def vertex_count(self) -> int:
        k = len(self.degrees)
        return sum(self.degrees) - k + 2

    @property
    def diameter(self) -> int:
        # Single edge: 1.  Star: 2.  Longer center paths: k + 1.
        if self.degrees == (1,):
            return 1
        k = len(self.degrees)
        return 2 if k == 1 else k + 1


def _check_width(n: int) -> None:
    if type(n) is not int or not 1 <= n <= MAX_DIM:
        raise PreconditionViolated(f"n must be an int in 1..{MAX_DIM}, got {n!r}")


@dataclass(frozen=True)
class Labeling:
    """Vertex labels in F_2^n as ints, keyed by vertex id.

    A label is the int of a vector of F_2^n (see gf2), 0 <= x < 2^n.
    Deliberately permissive: duplicate, zero, or missing labels are the
    verifier's job to report, so broken candidates can still be carried
    around and diagnosed.  Only structural nonsense (a vertex id or a label
    that is not an int, a label out of range) is rejected here.
    Labeling.of also takes width-n bitstring labels.

    vertex_labels, the one BitVec in the API, is a read-only view of the
    labels, built once, on first use.
    """

    n: int
    labels: dict[int, int]

    def __post_init__(self) -> None:
        _check_width(self.n)
        if not isinstance(self.labels, Mapping):
            raise PreconditionViolated(
                f"labels must be a mapping, got {type(self.labels).__name__}"
            )
        # A copy, so that the labels checked here are the labels kept.
        labels = dict(self.labels)
        object.__setattr__(self, "labels", labels)
        size = 1 << self.n
        # Type sets, min and max screen every entry at C speed; only a failed
        # screen walks the entries to name the first bad one.
        if not labels or (
            set(map(type, labels)) == {int}
            and set(map(type, labels.values())) == {int}
            and 0 <= min(labels.values())
            and max(labels.values()) < size
        ):
            return
        for v, x in labels.items():
            if type(v) is not int or type(x) is not int or not 0 <= x < size:
                raise PreconditionViolated(
                    f"vertex id {v!r} is not an int"
                    if type(v) is not int
                    else f"label of vertex {v} is {x!r}, not an int in 0..{size - 1}"
                )

    @classmethod
    def of(cls, n: int, labels: Mapping[int, int | str]) -> Labeling:
        """Build from int or width-n bitstring labels."""
        _check_width(n)  # before any bitstring is read at width n
        if not isinstance(labels, Mapping):
            return cls(n, labels)  # Labeling's own check names the type
        return cls(
            n, {v: parse_bits(x, n) if isinstance(x, str) else x for v, x in labels.items()}
        )

    @cached_property
    def vertex_labels(self) -> Mapping[int, BitVec]:
        return MappingProxyType({v: BitVec(x, self.n) for v, x in self.labels.items()})


@dataclass(frozen=True)
class Violation:
    """One verifier finding; kind is the stable tag tests match on.

    value, when set, is the vector the finding is about, as the width-n
    bitstring the report prints.
    """

    kind: str
    value: str | None = None
    locations: tuple[str, ...] = ()

    def __str__(self) -> str:
        parts = [self.kind]
        if self.value is not None:
            parts.append(f"value={self.value}")
        if self.locations:
            parts.append("at " + ", ".join(self.locations))
        return " ".join(parts)


@dataclass(frozen=True)
class VerifierReport:
    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def require(self, error: type[SetseqError], what: str) -> None:
        """Raise error("<what>: <violations joined by '; '>") unless valid."""
        if self.violations:
            raise error(f"{what}: " + "; ".join(str(v) for v in self.violations))


# ---------------------------------------------------------------------------
# construction


def build_caterpillar(spec: CaterpillarSpec) -> Tree:
    """The caterpillar T[d_1..d_k] with a stable vertex numbering.

    Center path vertices are 0..k-1 in path order.  Pendant vertices are
    numbered from k upward, grouped by their anchor in path order, so equal
    specs always produce identical trees.
    """
    degrees = spec.degrees
    k = len(degrees)
    edges = [(i, i + 1) for i in range(k - 1)]
    for i, d in enumerate(degrees):
        # The path takes one of an end vertex's edges, two of an inner one's;
        # with one vertex more than edges, the next new id is len(edges) + 1.
        for _ in range(d - (i > 0) - (i < k - 1)):
            edges.append((i, len(edges) + 1))
    return Tree(len(edges) + 1, tuple(edges))


# ---------------------------------------------------------------------------
# structural queries


def _bfs(adj: list[list[int]], root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from root (neighbors in adj order), and parents; root's is root."""
    parent = [-1] * len(adj)
    parent[root] = root
    order = [root]
    for x in order:  # order grows while it is walked
        for y in adj[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    return order, parent


def diameter(t: Tree) -> int:
    """Largest distance between any two vertices (double sweep)."""
    adj = t.adjacency()
    # A walk ends on a farthest vertex; in a tree, one from there ends a longest path.
    far = _bfs(adj, 0)[0][-1]
    order, parent = _bfs(adj, far)
    x, length = order[-1], 0
    while x != far:
        x, length = parent[x], length + 1
    return length


# ---------------------------------------------------------------------------
# verification


def verify_set_sequential(t: Tree, lab: Labeling) -> VerifierReport:
    """Report on whether lab is a set-sequential labeling of t.

    Findings, in order: SizeMismatch (|V| + |E| vs 2^n - 1, vertices the
    labeling does not cover, or labels on ids outside 0..|V|-1), ZeroLabel,
    DuplicateValue (one per repeated value, with every location),
    MissingValue (one per absent value, only reported once the entry count
    matches, where it is meaningful).
    """
    n = lab.n
    labels = lab.labels
    count = t.vertex_count
    violations: list[Violation] = []

    unlabeled = [v for v in range(count) if v not in labels]
    expected = (1 << n) - 1
    total = count + len(t.edges)
    if total != expected:
        violations.append(
            Violation(
                "SizeMismatch",
                locations=(
                    f"{count} vertices + {len(t.edges)} edges = {total}",
                    f"n={n} needs {expected}",
                ),
            )
        )
    if unlabeled:
        violations.append(
            Violation(
                "SizeMismatch",
                locations=tuple(f"vertex {v} unlabeled" for v in unlabeled),
            )
        )
    # Labels beyond the covered vertices sit on ids outside the tree.
    if len(labels) > count - len(unlabeled):
        outside = sorted(v for v in labels if not 0 <= v < count)
        violations.append(
            Violation(
                "SizeMismatch",
                locations=tuple(f"vertex {v} not in the tree" for v in outside),
            )
        )

    # The labels on tree vertices, and the edges with both ends labeled.
    if len(labels) == count and not unlabeled:
        bits, edges = labels, t.edges
    else:
        bits = {v: labels[v] for v in range(count) if v in labels}
        edges = tuple((a, b) for a, b in t.edges if a in bits and b in bits)
    values = list(bits.values())
    values += [bits[a] ^ bits[b] for a, b in edges]
    distinct = set(values)

    # Locations are spelled out only for the zero and the repeated values.
    spots: dict[int, list[str]] = {}
    if len(distinct) < len(values) or 0 in distinct:
        spots = {x: [] for x, c in Counter(values).items() if c > 1 or x == 0}
        # By vertex id: bits may be the labeling's own map, in any order.
        for v in range(count):
            if v in bits and bits[v] in spots:
                spots[bits[v]].append(f"vertex {v}")
        for a, b in edges:
            x = bits[a] ^ bits[b]
            if x in spots:
                spots[x].append(f"edge {a}-{b}")
    for x in sorted(spots):
        kind = "ZeroLabel" if x == 0 else "DuplicateValue"
        violations.append(Violation(kind, value=f"{x:0{n}b}", locations=tuple(spots[x])))
    # With 2^n - 1 entries, a value can only be missing where a zero or a
    # repeat took its place.
    if total == expected and not unlabeled and spots:
        for x in range(1, 1 << n):
            if x not in distinct:
                violations.append(Violation("MissingValue", value=f"{x:0{n}b}"))

    return VerifierReport(tuple(violations))


def even_degree_label_sum(t: Tree, lab: Labeling) -> int:
    """XOR of the labels on even-degree vertices.

    Zero for every labeling that verifies, so a nonzero value certifies that
    no set-sequential labeling extends the given even-degree assignments.
    """
    labels = lab.labels
    missing = [v for v in range(t.vertex_count) if v not in labels]
    if missing:
        raise PreconditionViolated(f"vertices without labels: {missing}")
    acc = 0
    for v, d in enumerate(t.degrees()):
        if d % 2 == 0:
            acc ^= labels[v]
    return acc


# ---------------------------------------------------------------------------
# interchange formats


def _label_width(t: Tree) -> int:
    """The n with |V| + |E| = 2^n - 1: the label width t needs."""
    total = 2 * t.vertex_count - 1
    n = total.bit_length()
    if (1 << n) - 1 != total or n > MAX_DIM:
        raise PreconditionViolated(
            f"|V| + |E| = {total} is not 2^n - 1 for any supported n"
        )
    return n


def tree_to_json(t: Tree, lab: Labeling | None = None) -> str:
    """Labeled-tree JSON document; see tree_from_json for the schema.

    n is the labeling's width or, with no labeling, the n with
    |V| + |E| = 2^n - 1.  The text is what json.dumps(doc, indent=1) gives,
    plus a newline: keys in the order n, vertices, edges, one space of
    indent per level.  Digests of it are pinned, so the layout is behaviour.
    """
    width = lab.n if lab is not None else _label_width(t)
    get = (lab.labels if lab is not None else {}).get
    bits = f"0{width}b"
    vertices = ",\n".join(
        f'  {{\n   "id": {v}\n  }}'
        if (x := get(v)) is None
        else f'  {{\n   "id": {v},\n   "label": "{x:{bits}}"\n  }}'
        for v in range(t.vertex_count)
    )
    edges = ",\n".join(f"  [\n   {a},\n   {b}\n  ]" for a, b in t.edges)
    return f'{{\n "n": {width},\n "vertices": [\n{vertices}\n ],\n "edges": [\n{edges}\n ]\n}}\n'


def tree_from_json(text: str) -> tuple[Tree, Labeling | None]:
    """Parse the labeled-tree document format.

    Schema: {"n": int, "vertices": [{"id": int, "label": optional bitstring}],
    "edges": [[int, int]]}.  Bitstrings are width n, leftmost character is
    coordinate 1.  Returns the labeling only if at least one label appears.
    text is anything json.loads reads: str, bytes or bytearray.  Raises
    PreconditionViolated on anything else and on a malformed document.
    """
    if not isinstance(text, (str, bytes, bytearray)):
        raise PreconditionViolated(f"document must be text, got {type(text).__name__}")
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # Bad syntax, a number past int's digit limit, or bytes that are no text.
        raise PreconditionViolated(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise PreconditionViolated("not valid JSON: nesting too deep") from exc
    if not isinstance(doc, dict):
        raise PreconditionViolated("top level must be an object")
    for key in ("n", "vertices", "edges"):
        if key not in doc:
            raise PreconditionViolated(f"missing required field {key!r}")
    n = doc["n"]
    if type(n) is not int or not 1 <= n <= MAX_DIM:
        raise PreconditionViolated(f"field 'n' must be an integer in 1..{MAX_DIM}")
    for key in ("vertices", "edges"):
        if not isinstance(doc[key], list):
            raise PreconditionViolated(f"field {key!r} must be a list")
    read = _read_entries(n, doc["vertices"], doc["edges"])
    if read is None:
        raise PreconditionViolated(_entry_error(n, doc["vertices"], doc["edges"]))
    count, labels, edges = read
    return Tree(count, edges), (Labeling(n, labels) if labels else None)


#: Deletes the bit characters: a string of bits translates to "".
_NOT_BITS = str.maketrans("", "", "01")


def _read_entries(
    n: int, vertices: list, edges: list
) -> tuple[int, dict[int, int], tuple[tuple[int, int], ...]] | None:
    """Vertex count, labels and small-id-first edges of a document's lists, or None.

    Type sets, lengths and one translate of the joined labels screen every
    entry at C speed, and accept exactly the lists in which _entry_error
    finds no fault.
    """
    if set(map(type, vertices)) - {dict}:
        return None
    ids = list(map(dict.get, vertices, repeat("id")))
    labeled = list(map(dict.__contains__, vertices, repeat("label")))
    texts = list(map(dict.__getitem__, compress(vertices, labeled), repeat("label")))
    if (
        set(map(type, ids)) - {int}
        or set(map(type, texts)) - {str}
        or set(map(len, texts)) - {n}
        or "".join(texts).translate(_NOT_BITS)
        or sorted(ids) != list(range(len(ids)))
        or set(map(type, edges)) - {list}
        or set(map(len, edges)) - {2}
        or set(map(type, chain.from_iterable(edges))) - {int}
    ):
        return None
    labels = dict(zip(compress(ids, labeled), map(int, texts, repeat(2))))
    # Freed before the edges are built, so that they do not raise the peak.
    del labeled, texts
    return len(ids), labels, tuple([(a, b) if a < b else (b, a) for a, b in edges])


def _entry_error(n: int, vertices: list, edges: list) -> str | None:
    """The first fault of a document's vertex and edge lists, in document order, or None."""
    ids: list[int] = []
    for entry in vertices:
        if type(entry) is not dict or type(v := entry.get("id")) is not int:
            return f"bad vertex entry {entry!r}"
        ids.append(v)
        if "label" in entry:
            label = entry["label"]
            if type(label) is not str:
                return f"label of vertex {v} is not a string"
            try:
                parse_bits(label, n)
            except PreconditionViolated as exc:
                return str(exc)
    if sorted(ids) != list(range(len(ids))):
        return "vertex ids must be exactly 0..count-1"
    for entry in edges:
        if (
            type(entry) is not list
            or len(entry) != 2
            or type(entry[0]) is not int
            or type(entry[1]) is not int
        ):
            return f"bad edge entry {entry!r}"
    return None


def tree_to_dot(t: Tree, lab: Labeling | None = None) -> str:
    """Graphviz DOT text; vertex labels and edge XORs become DOT labels."""
    labels, n = (lab.labels, lab.n) if lab is not None else ({}, 0)
    lines = ["graph setseq {"]
    for v in range(t.vertex_count):
        if v in labels:
            lines.append(f'  {v} [label="{labels[v]:0{n}b}"];')
        else:
            lines.append(f"  {v};")
    for a, b in t.edges:
        if a in labels and b in labels:
            lines.append(f'  {a} -- {b} [label="{labels[a] ^ labels[b]:0{n}b}"];')
        else:
            lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
