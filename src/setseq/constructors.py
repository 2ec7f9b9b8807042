"""Labeled-tree construction pipelines.

Three ways to manufacture verified set-sequential labelings:

* add_pendants doubles a labeled tree by hanging 2^(n-1) new pendant edges
  on chosen anchors; the fresh vertex/edge labels come from a pair
  partition of F_2^n whose targets are the anchor labels.
* label_small_diameter and label_large_caterpillar apply the same
  pendant doubling inductively: halve the target caterpillar down to a
  bundled base labeling (small diameters) or strip one end bare and
  recurse (large vertex counts), then rebuild level by level, anchoring
  the pendants of each level on center path vertices.
* four_copies quadruples a labeled tree: the 4k+3 w-sequence, closed-form
  two-bit prefixes over the k labels of the u-v path, labels the long path
  through the four copies, and two-bit prefixes propagate outward from it.

Inside a pipeline, a labeled tree is a plain edge list, the label width n
and one int label per vertex id (so the vertex count is the label count).
No intermediate tree or labeling is built or verified; each level's pairing
still goes through solve_pairing, which validates its instance and checks
its partition.  Each public call verifies its input (the base labeling or
the bundled fixture) once, then builds and verifies the one Tree and
Labeling it returns, raising InternalSearchFailed rather than returning
anything unchecked.  One final check is enough: pendant doubling keeps
every old label as the 0-prefixed part of the new labeling, so the output
verifies only if every level below it did.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

from .errors import (
    InternalSearchFailed,
    NotCovered,
    NotLeaf,
    NotOddDegree,
    NotPowerOfTwo,
    OutOfRange,
    PairingNotCovered,
    PlanSizeMismatch,
    PreconditionViolated,
    TargetSumNonzero,
    TooFewVertices,
    TooSmall,
    _as_tuple,
)
from .gf2 import echelon_basis
from .pairing import PairingInstance, solve_pairing
from .trees import (
    CaterpillarSpec,
    Labeling,
    Tree,
    _bfs,
    build_caterpillar,
    tree_from_json,
    verify_set_sequential,
)

__all__ = [
    "PREFIX_MAP",
    "SPAN_DIM_CAP",
    "MAX_SMALL_DIAMETER",
    "BASE_CATERPILLARS",
    "PendantPlan",
    "fixtures_dir",
    "load_fixture",
    "add_pendants",
    "label_small_diameter",
    "label_large_caterpillar",
    "solve_w_prefixes",
    "four_copies",
]

#: The fixed two-bit prefix propagation map for four_copies.  Both it and
#: p -> p ^ PREFIX_MAP[p] are bijections on F_2^2, which is exactly what
#: makes the four copies of every off-path value pairwise distinct.
PREFIX_MAP = {0b00: 0b00, 0b01: 0b10, 0b10: 0b11, 0b11: 0b01}

#: Hard ceiling on dim(span(center-path labels)) at every rebuild step of
#: label_small_diameter; exceeding it means the construction left its theory.
SPAN_DIM_CAP = 6

#: Largest diameter label_small_diameter covers.
MAX_SMALL_DIAMETER = 18

#: Degree lists of the bundled base-case labelings, generated once by the
#: greedy search (seed 0) and shipped as fixture files.
BASE_CATERPILLARS = (
    (1,),
    (5, 3, 3, 3, 3, 3),
    (3, 5, 3, 3, 3, 3),
    (3, 3, 5, 3, 3, 3),
    (3, 3, 3, 3, 3, 3, 3),
    (3, 3, 3, 2, 2, 2, 2, 2, 2, 3),
    (3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
)

#: Fixture degree lists the halving recursion sheds toward at 32 vertices,
#: keyed by target diameter.
_SHED_TARGETS = {
    11: (3, 3, 3, 2, 2, 2, 2, 2, 2, 3),
    12: (3, 3, 3, 2, 2, 2, 2, 2, 2, 3),
    13: (3, 3, 3, 2, 2, 2, 2, 2, 2, 3),
    14: (3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    15: (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    16: (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
}


# ---------------------------------------------------------------------------
# fixtures


def fixtures_dir() -> Path:
    """Directory holding the bundled labelings."""
    return Path(str(resources.files("setseq").joinpath("fixtures")))


def load_fixture(name: str) -> tuple[Tree, Labeling]:
    """Load and re-verify a bundled labeled tree by file name."""
    path = fixtures_dir() / name
    try:
        text = path.read_text()
    except OSError as exc:
        raise PreconditionViolated(f"cannot read fixture {path}: {exc}") from exc
    try:
        tree, lab = tree_from_json(text)
    except PreconditionViolated as exc:
        raise PreconditionViolated(f"fixture {name} is malformed: {exc}") from exc
    if lab is None:
        raise PreconditionViolated(f"fixture {name} carries no labels")
    verify_set_sequential(tree, lab).require(
        PreconditionViolated, f"fixture {name} does not verify"
    )
    return tree, lab


#: A labeled tree inside a pipeline: its edge list, the label width n, and
#: the int label of every vertex indexed by vertex id.
_Labeled = tuple[list[tuple[int, int]], int, list[int]]


def _int_labels(t: Tree, lab: Labeling) -> list[int]:
    labels = lab.labels
    return [labels[v] for v in range(t.vertex_count)]


def _finish(labeled: _Labeled, what: str) -> tuple[Tree, Labeling]:
    """Build the pipeline's one Tree and Labeling, and verify them.

    Raises InternalSearchFailed when the edges do not form a tree or the
    labeling does not verify.
    """
    edges, n, labels = labeled
    try:
        tree = Tree(len(labels), tuple(edges))
    except PreconditionViolated as exc:
        raise InternalSearchFailed(f"{what} produced an invalid tree: {exc}") from exc
    lab = Labeling(n, dict(enumerate(labels)))
    verify_set_sequential(tree, lab).require(
        InternalSearchFailed, f"{what} produced an invalid labeling"
    )
    return tree, lab


def _load_base_caterpillar(degrees: tuple[int, ...]) -> tuple[_Labeled, list[int]]:
    """Fixture edges and labels, and center path ids, for a base degree list.

    Accepts the stored orientation or its reversal; the returned center ids
    follow the caller's orientation either way.
    """
    if degrees in BASE_CATERPILLARS:
        stored, flipped = degrees, False
    else:
        stored, flipped = degrees[::-1], True
    spec = CaterpillarSpec(stored)
    tree, lab = load_fixture(f"{spec}.json")
    if tree != build_caterpillar(spec):
        raise PreconditionViolated(
            f"fixture for {spec} does not use the canonical vertex numbering"
        )
    center = list(range(len(degrees)))
    labeled = (list(tree.edges), lab.n, _int_labels(tree, lab))
    return labeled, center[::-1] if flipped else center


# ---------------------------------------------------------------------------
# pendant-edge induction


@dataclass(frozen=True)
class PendantPlan:
    """How many pendant edges to hang on which vertices of a base tree."""

    anchors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        anchors: dict[int, int] = {}
        for entry in _as_tuple(self.anchors, "anchors must be an iterable of (id, count) pairs"):
            try:
                vid, count = entry
            except (TypeError, ValueError):
                raise PreconditionViolated(f"anchor {entry!r} is not a pair of ints") from None
            if type(vid) is not int or type(count) is not int:
                raise PreconditionViolated(f"anchor ({vid!r}, {count!r}) is not a pair of ints")
            if vid < 0:
                raise PreconditionViolated(f"negative anchor id {vid}")
            if count < 1:
                raise PreconditionViolated(f"anchor {vid} has count {count} < 1")
            if vid in anchors:
                raise PreconditionViolated(f"anchor {vid} listed twice")
            anchors[vid] = count
        # A tuple of pairs, so that the anchors checked here are the anchors kept.
        object.__setattr__(self, "anchors", tuple(anchors.items()))

    @classmethod
    def parse(cls, text: str) -> PendantPlan:
        """Parse the CLI form "id:count,id:count,...". """
        if not isinstance(text, str):
            raise PreconditionViolated(f"plan must be a string, got {type(text).__name__}")
        anchors: list[tuple[int, int]] = []
        for part in text.split(","):
            head, sep, tail = part.strip().partition(":")
            if not sep:
                raise PreconditionViolated(f"expected id:count, got {part.strip()!r}")
            try:
                anchors.append((int(head), int(tail)))
            except ValueError as exc:
                raise PreconditionViolated(f"bad id:count pair {part.strip()!r}") from exc
        return cls(tuple(anchors))

    def total(self) -> int:
        return sum(count for _, count in self.anchors)


def _hang_pendants(labeled: _Labeled, anchors: list[int]) -> _Labeled:
    """Unchecked pendant doubling on int labels, one new pendant per anchor.

    Old labels keep their value (a 0 prefix at width n + 1); the i-th new
    pendant vertex gets p_i | 2^n, so its edge gets q_i | 2^n, where
    (p_i, q_i) is the i-th pair of a partition of F_2^n targeted at the
    anchor labels.  New pendant ids start at |V(base)| and follow the
    anchor order.
    """
    edges, n, labels = labeled
    try:
        part, _route = solve_pairing(PairingInstance.of(n, [labels[v] for v in anchors]))
    except NotCovered as exc:
        raise PairingNotCovered(str(exc)) from exc
    first = len(labels)
    top = 1 << n
    return (
        edges + [(vid, first + i) for i, vid in enumerate(anchors)],
        n + 1,
        labels + [p | top for p, _q in part.pairs],
    )


def add_pendants(base: Tree, lab: Labeling, plan: PendantPlan) -> tuple[Tree, Labeling]:
    """Double a verified labeling by hanging plan.total() pendant edges.

    Old labels get a 0 prefix; the i-th new pendant vertex and edge get
    1p_i and 1q_i where (p_i, q_i) is the i-th pair of a partition of
    F_2^n targeted at the anchor labels.  New pendant ids start at
    |V(base)| and follow the plan's anchor order.
    """
    verify_set_sequential(base, lab).require(PreconditionViolated, "base labeling does not verify")
    for vid, _ in plan.anchors:
        if vid >= base.vertex_count:
            raise PreconditionViolated(f"anchor {vid} is not a vertex of the base")
    n = lab.n
    if plan.total() != 1 << (n - 1):
        raise PlanSizeMismatch(
            f"pendant counts sum to {plan.total()}, need 2^{n - 1} = {1 << (n - 1)}"
        )
    anchors = [vid for vid, count in plan.anchors for _ in range(count)]
    labels = _int_labels(base, lab)
    acc = 0
    for vid in anchors:
        acc ^= labels[vid]
    if acc:
        raise TargetSumNonzero(f"anchor labels XOR to {acc:0{n}b}, not zero")
    labeled = _hang_pendants((list(base.edges), n, labels), anchors)
    return _finish(labeled, "pendant construction")


# ---------------------------------------------------------------------------
# caterpillar halving recursions


def _pendant_neighbors(edges: list[tuple[int, int]], vertex: int) -> list[int]:
    """The leaves adjacent to vertex, smallest id first."""
    deg = Counter(chain.from_iterable(edges))
    nbrs = (b if a == vertex else a for a, b in edges if vertex in (a, b))
    return sorted(x for x in nbrs if deg[x] == 1)


def _shed(degrees: tuple[int, ...], tight: list[int], loose: list[int], amount: int) -> list[int]:
    """Removal counts per center position, largest degrees drained first.

    Sheds within the tight caps while they suffice, else within the loose
    ones: the caller's tight caps keep every vertex at degree 3 or more (so
    the diameter survives), its loose caps let end vertices collapse to
    path leaves.  Negative caps count as 0.
    """
    caps = tight if sum(c for c in tight if c > 0) >= amount else loose
    removals = [0] * len(degrees)
    rest = amount
    for i in sorted(range(len(degrees)), key=lambda i: (-degrees[i], i)):
        take = min(max(caps[i], 0), rest)
        removals[i] = take
        rest -= take
        if not rest:
            break
    if rest:
        raise InternalSearchFailed(
            f"cannot shed {amount} pendant edges from {list(degrees)}"
        )
    return removals


def _fixture_shed(degrees: tuple[int, ...], target: tuple[int, ...]) -> list[int]:
    """Removals taking a 32-vertex caterpillar onto a padded base fixture."""
    k = len(degrees)
    pads = k - len(target)
    splits = [(pads - r, r) for r in range(pads + 1) if pads - r <= 1 and r <= 1]
    for stored in (target, target[::-1]):
        for left, right in splits:
            padded = (1,) * left + stored + (1,) * right
            if all(c >= p for c, p in zip(degrees, padded)):
                return [c - p for c, p in zip(degrees, padded)]
    raise InternalSearchFailed(
        f"no padding of {list(target)} fits under {list(degrees)}"
    )


def _rebuild(
    degrees: tuple[int, ...],
    removals: list[int],
    rec: Callable[[tuple[int, ...]], tuple[_Labeled, list[int]]],
) -> tuple[_Labeled, list[int]]:
    """The rebuilt level and the target's center ids: rec's labeling, pendants hung back.

    An end entry the removals take down to 1 is a pad: rec labels it as a
    leaf of the smaller caterpillar's end center vertex, and it rejoins the
    center path once its pendants are hung back.  Hanging keeps every old
    label, so the small-diameter recursion measures the center-path span on
    each rebuilt level.
    """
    padded = [d - r for d, r in zip(degrees, removals)]
    left = len(padded) > 1 and padded[0] == 1
    right = len(padded) > 1 and padded[-1] == 1
    core = padded[1 if left else 0 : len(padded) - 1 if right else len(padded)]
    sub, sub_center = rec(tuple(core))
    center = list(sub_center)
    if left:
        center.insert(0, _pendant_neighbors(sub[0], sub_center[0])[0])
    if right:
        leaves = _pendant_neighbors(sub[0], sub_center[-1])
        center.append([x for x in leaves if x not in center][0])
    if len(center) != len(degrees):
        raise InternalSearchFailed("padded center does not match the target length")
    # The center path ids survive the hanging.
    anchors = [v for v, r in zip(center, removals) for _ in range(r)]
    return _hang_pendants(sub, anchors), center


def _small_rec(degrees: tuple[int, ...]) -> tuple[_Labeled, list[int]]:
    if degrees in BASE_CATERPILLARS or degrees[::-1] in BASE_CATERPILLARS:
        return _load_base_caterpillar(degrees)
    spec = CaterpillarSpec(degrees)
    if spec.vertex_count == 32 and spec.diameter >= 11:
        removals = _fixture_shed(degrees, _SHED_TARGETS[spec.diameter])
    else:
        # Even removal counts taking the vertex count to half, degrees kept odd.
        k = len(degrees)
        tight = [d - 3 for d in degrees]
        loose = [d - 1 if i in (0, k - 1) else d - 3 for i, d in enumerate(degrees)]
        removals = _shed(degrees, tight, loose, spec.vertex_count // 2)
    labeled, center = _rebuild(degrees, removals, _small_rec)
    span = len(echelon_basis([labeled[2][v] for v in center], labeled[1]))
    if span > SPAN_DIM_CAP:
        raise InternalSearchFailed(
            f"center-path span dimension {span} exceeds the cap {SPAN_DIM_CAP}"
        )
    return labeled, center


def _validate_odd_power(spec: CaterpillarSpec) -> int:
    if any(d % 2 == 0 for d in spec.degrees):
        raise NotOddDegree(
            f"{spec} has even center degrees at positions "
            f"{[i for i, d in enumerate(spec.degrees) if d % 2 == 0]}"
        )
    count = spec.vertex_count
    if count & (count - 1):
        raise NotPowerOfTwo(f"{spec} has {count} vertices")
    return count


def label_small_diameter(spec: CaterpillarSpec) -> tuple[Tree, Labeling]:
    """Verified labeling of an all-odd caterpillar with diameter <= 18.

    Works down from the target: repeatedly remove half the vertices as
    pendant edges of the center path (landing on a bundled base labeling),
    then rebuild upward by pendant doubling, anchoring only center-path
    vertices.  The dimension of the span of the center-path labels is
    measured on each rebuilt level; above SPAN_DIM_CAP the call raises
    InternalSearchFailed.  Only the finished tree is built and verified.
    """
    _validate_odd_power(spec)
    if spec.diameter > MAX_SMALL_DIAMETER:
        raise OutOfRange(
            f"{spec} has diameter {spec.diameter} > {MAX_SMALL_DIAMETER}"
        )
    labeled, _center = _small_rec(spec.degrees)
    return _finish(labeled, "small-diameter construction")


def _large_rec(degrees: tuple[int, ...]) -> tuple[_Labeled, list[int]]:
    spec = CaterpillarSpec(degrees)
    if spec.diameter <= 2 or degrees in BASE_CATERPILLARS or degrees[::-1] in BASE_CATERPILLARS:
        return _small_rec(degrees)
    if degrees[0] > degrees[-1]:
        labeled, center = _large_rec(degrees[::-1])
        return labeled, center[::-1]
    k = len(degrees)
    half = spec.vertex_count // 2
    removals = [0] * k
    removals[0] = degrees[0] - 1
    rest = half - removals[0]
    if rest < 0:
        raise InternalSearchFailed(
            f"first vertex of {list(degrees)} holds more than half the tree"
        )
    tight = [0] + [d - 3 for d in degrees[1:]]
    extra = _shed(degrees, tight, tight[:-1] + [degrees[-1] - 1], rest)
    removals = [r + e for r, e in zip(removals, extra)]
    return _rebuild(degrees, removals, _large_rec)


def label_large_caterpillar(spec: CaterpillarSpec) -> tuple[Tree, Labeling]:
    """Verified labeling of an all-odd caterpillar with |V| >= 2^(diam-1).

    Strips every pendant edge off the lighter end vertex (plus further
    pendant pairs, degrees kept odd) to halve the tree, recurses, and
    rebuilds; the anchor labels form at most n distinct pairing targets,
    which is what keeps every rebuild solvable.
    """
    count = _validate_odd_power(spec)
    if count < 1 << (spec.diameter - 1):
        raise TooFewVertices(
            f"{spec} has {count} vertices, needs at least 2^{spec.diameter - 1}"
        )
    labeled, _center = _large_rec(spec.degrees)
    return _finish(labeled, "large-caterpillar construction")


# ---------------------------------------------------------------------------
# the four-copies composition


def _w_layout(k: int) -> list[int]:
    """Suffix source at each of the 4k+3 sequence positions.

    Entries are 1-based indices into the path labels z, with 0 marking the
    three all-zero separator suffixes.  The four blocks read: z reversed;
    separator; z forward with the last two indices swapped; separator;
    the third block pattern (k-1, k, k-2 .. 3, 1, 2); separator; and z
    forward with the first two indices swapped.
    """
    out = list(range(k, 0, -1))
    out.append(0)
    out += list(range(1, k - 1)) + [k, k - 1]
    out.append(0)
    out += [k - 1, k] + list(range(k - 2, 2, -1)) + [1, 2]
    out.append(0)
    out += [2, 1] + list(range(3, k + 1))
    return out


def solve_w_prefixes(k: int) -> list[int]:
    """Two-bit prefixes for the 4k+3 sequence positions, in closed form.

    Block 1 (the k positions before the first separator) is all 0, the
    separators are 2, 3 and 1, and blocks 2-4 each repeat a period-4 word
    between a short head and tail that depend on k mod 4.  Each word puts
    two nonzero prefixes x and y in turn on the even (0-based) positions
    and x ^ y on the odd ones, so the chain relation p[a] ^ p[a+2] = p[a+1]
    holds along it; the separators, heads and tails keep it across each
    joint.  Blocks 2 and 4 read the path labels forward and block 3
    backward (see _w_layout), and the period-4 words line up so that every
    suffix gets 1, 2 and 3 in some order there and 0 in block 1: the four
    copies of each suffix take four distinct prefixes.  PREFIX_DIGEST in
    the determinism tests pins this to the backtracking search it replaced,
    for every odd k up to 1,999.
    """
    if type(k) is not int or k < 5 or k % 2 == 0:
        raise PreconditionViolated(f"k must be an odd int >= 5, got {k!r}")
    r = (k - 5) // 4
    if k % 4 == 1:
        b2 = "2131" * (r + 1) + "2"
        b3 = "1323" * r + "13213"
        b4 = "23" + "1232" * r + "132"
    else:
        b2 = "2131" * (r + 1) + "231"
        b3 = "2132" + "1232" * r + "132"
        b4 = "3123" + "1323" * r + "132"
    return [int(c) for c in "0" * k + "2" + b2 + "3" + b3 + "1" + b4]


def _w_sequence(z: Sequence[int], n: int) -> list[int]:
    """The 4k+3 n+2-bit values threading four tree copies along their long path.

    z lists the n-bit labels of one path, vertex and edge in turn: z[2i+1]
    is the XOR of its neighbors z[2i] and z[2i+2] (0-based).  four_copies
    has verified the labels and joins two distinct leaves of a tree of at
    least 3 vertices, so z is a chain of nonzero labels of odd length
    k >= 5.  Position j takes solve_w_prefixes(k)[j] over its suffix from
    _w_layout.
    """
    k = len(z)
    prefixes = solve_w_prefixes(k)
    return [(prefixes[j] << n) | (z[s - 1] if s else 0) for j, s in enumerate(_w_layout(k))]


def four_copies(base: Tree, lab: Labeling, u: int, v: int) -> tuple[Tree, Labeling]:
    """Verified labeling of four disjoint copies of base plus three bridges.

    The copies T1..T4 are joined by edges (u1,u2), (v2,v3), (u3,u4); the
    w-sequence labels the path from v1 to v4, and every off-path vertex r
    takes the prefix PREFIX_MAP[p] over its base label, where p is the
    prefix of its neighbor one step closer to the path.
    """
    if base.vertex_count < 3:
        raise TooSmall("base must have at least 3 vertices")
    if (
        type(u) is not int
        or type(v) is not int
        or not (0 <= u < base.vertex_count and 0 <= v < base.vertex_count)
        or u == v
    ):
        raise PreconditionViolated("u and v must be distinct vertices of the base")
    deg = base.degrees()
    if deg[u] != 1 or deg[v] != 1:
        raise NotLeaf(f"u and v must have degree 1, got {deg[u]} and {deg[v]}")
    verify_set_sequential(base, lab).require(PreconditionViolated, "base labeling does not verify")
    labeled = (list(base.edges), lab.n, _int_labels(base, lab))
    return _finish(_quadruple(labeled, base.adjacency(), u, v), "four-copies construction")


def _quadruple(labeled: _Labeled, adj: list[list[int]], u: int, v: int) -> _Labeled:
    """Unchecked four-copies step on int labels, gluing at leaves u and v.

    adj is the base's adjacency.  Copy c of base vertex x gets id
    c * |V(base)| + x.  The caller's final verification certifies the
    w-sequence along with everything else.
    """
    base_edges, n, base_labels = labeled
    count = len(base_labels)
    # One walk from u: each off-path vertex's neighbor toward u is also its
    # neighbor toward the u-v path, so these parents give both the path and
    # the outward order in which prefixes propagate.
    order, parent = _bfs(adj, u)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    path.reverse()
    z: list[int] = []
    for i, x in enumerate(path):
        if i:
            z.append(base_labels[path[i - 1]] ^ base_labels[x])
        z.append(base_labels[x])
    w = _w_sequence(z, n)

    edges: list[tuple[int, int]] = []
    for c in range(4):
        for a, b in base_edges:
            edges.append((c * count + a, c * count + b))
    edges += [(u, count + u), (count + v, 2 * count + v), (2 * count + u, 3 * count + u)]

    labels = [0] * (4 * count)
    walk = path[::-1] + path + path[::-1] + path
    span = len(path)
    for s, x in enumerate(walk):
        labels[(s // span) * count + x] = w[2 * s]

    on_path = set(path)
    for r in order:
        if r in on_path:
            continue
        q = parent[r]
        for c in range(4):
            p = labels[c * count + q] >> n
            labels[c * count + r] = (PREFIX_MAP[p] << n) | base_labels[r]
    return edges, n + 2, labels
