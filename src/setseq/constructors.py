"""Labeled-tree construction pipelines.

Three ways to manufacture verified set-sequential labelings:

* add_pendants doubles a labeled tree by hanging 2^(n-1) new pendant edges
  on chosen anchors; the fresh vertex/edge labels come from a pair
  partition of F_2^n whose targets are the anchor labels.
* label_small_diameter and label_large_caterpillar apply the same
  pendant doubling inductively, through one halving recursion: shed half
  the vertices as pendant edges of the center path, down to a bundled base
  labeling, then rebuild level by level, anchoring the pendants of each
  level on center path vertices.  The pipelines differ only in their cut
  rule: shed evenly (small diameters), or strip one end bare first (large
  vertex counts).
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

from dataclasses import dataclass
from importlib import resources
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


# ---------------------------------------------------------------------------
# fixtures


def fixtures_dir() -> Path:
    """Directory holding the bundled labelings."""
    return Path(str(resources.files("setseq").joinpath("fixtures")))


def load_fixture(name: str) -> tuple[Tree, Labeling]:
    """Load and re-verify a bundled labeled tree by file name."""
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise PreconditionViolated(f"fixture name must be a plain file name, got {name!r}")
    path = fixtures_dir() / name
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:
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
    """Fixture edges and labels, and center path ids, for a stored base degree list."""
    spec = CaterpillarSpec(degrees)
    tree, lab = load_fixture(f"{spec}.json")
    if tree != build_caterpillar(spec):
        raise PreconditionViolated(
            f"fixture for {spec} does not use the canonical vertex numbering"
        )
    return (list(tree.edges), lab.n, _int_labels(tree, lab)), list(range(len(degrees)))


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
# caterpillar halving recursion


def _shed(degrees: tuple[int, ...], tight: list[int], loose: list[int], amount: int) -> list[int]:
    """Removal counts per center position, largest degrees drained first.

    Sheds within the tight caps while they suffice, else within the loose
    ones: the caller's tight caps keep every vertex at degree 3 or more (so
    the diameter survives), its loose caps let end vertices collapse to
    path leaves.
    """
    caps = tight if sum(tight) >= amount else loose
    removals = [0] * len(degrees)
    rest = amount
    for i in sorted(range(len(degrees)), key=lambda i: (-degrees[i], i)):
        take = min(caps[i], rest)
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


def _halve(
    degrees: tuple[int, ...], cut: Callable[[tuple[int, ...]], list[int] | None]
) -> tuple[_Labeled, list[int]]:
    """A labeling of T[degrees] and its center path ids, by halving with cut.

    A stored base degree list is its bundled fixture.  Else cut gives the
    pendant edges to remove per center position, or None to build the
    reversed list and read its center ids backward, which is also how a
    reversed base is built.  An end entry
    the removals take down to 1 is a pad: the core below labels it as a
    leaf of its end center vertex (off the path every vertex is a leaf, so
    it is that vertex's smallest neighbor not on the path yet), and it
    rejoins the center path once the removed pendants are hung back.
    """
    if degrees in BASE_CATERPILLARS:
        return _load_base_caterpillar(degrees)
    removals = None if degrees[::-1] in BASE_CATERPILLARS else cut(degrees)
    if removals is None:
        labeled, center = _halve(degrees[::-1], cut)
        return labeled, center[::-1]
    padded = [d - r for d, r in zip(degrees, removals)]
    left = len(padded) > 1 and padded[0] == 1
    right = len(padded) > 1 and padded[-1] == 1
    sub, center = _halve(tuple(padded[left : len(padded) - right]), cut)

    def pad(v: int) -> int:
        return min(a + b - v for a, b in sub[0] if v in (a, b) and a + b - v not in center)

    if left:
        center.insert(0, pad(center[0]))
    if right:
        center.append(pad(center[-1]))
    if len(center) != len(degrees):
        raise InternalSearchFailed("padded center does not match the target length")
    # The center path ids survive the hanging.
    anchors = [v for v, r in zip(center, removals) for _ in range(r)]
    return _hang_pendants(sub, anchors), center


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


def _small_cut(degrees: tuple[int, ...]) -> list[int]:
    """The small-diameter cut: a padded base fixture at 32 vertices and
    diameter >= 11, else half the vertices shed within tight or loose caps.
    """
    spec = CaterpillarSpec(degrees)
    if spec.vertex_count == 32 and spec.diameter >= 11:
        # The longest base whose center path is shorter than the target's.
        target = max((b for b in BASE_CATERPILLARS if len(b) < spec.diameter), key=len)
        return _fixture_shed(degrees, target)
    # Even removal counts taking the vertex count to half, degrees kept odd.
    k = len(degrees)
    tight = [d - 3 for d in degrees]
    loose = [d - 1 if i in (0, k - 1) else d - 3 for i, d in enumerate(degrees)]
    return _shed(degrees, tight, loose, spec.vertex_count // 2)


def label_small_diameter(spec: CaterpillarSpec) -> tuple[Tree, Labeling]:
    """Verified labeling of an all-odd caterpillar with diameter <= 18.

    Works down from the target: repeatedly remove half the vertices as
    pendant edges of the center path (landing on a bundled base labeling),
    then rebuild upward by pendant doubling, anchoring only center-path
    vertices.  Every level's anchor labels fit in 6 bits, the coset routes'
    span bound: a level of k <= 17 center vertices sheds within its tight
    caps exactly when |V| >= 4k + 4, so from 128 vertices up no pad joins
    the center path, and every center label is one of the 32-vertex level
    or one of its leaves promoted at 64.  Only the finished tree is built
    and verified.
    """
    _validate_odd_power(spec)
    if spec.diameter > MAX_SMALL_DIAMETER:
        raise OutOfRange(
            f"{spec} has diameter {spec.diameter} > {MAX_SMALL_DIAMETER}"
        )
    labeled, _center = _halve(spec.degrees, _small_cut)
    return _finish(labeled, "small-diameter construction")


def _large_cut(degrees: tuple[int, ...]) -> list[int] | None:
    """The large cut: a star's is the small one; else the lighter end is
    stripped bare (None when it is the last entry: build the reversal) and
    the rest of the half shed, degrees kept odd.
    """
    if len(degrees) == 1:
        return _small_cut(degrees)
    if degrees[0] > degrees[-1]:
        return None
    half = CaterpillarSpec(degrees).vertex_count // 2
    tight = [0] + [d - 3 for d in degrees[1:]]
    # d_0 <= d_last and |V| >= d_0 + d_last, so the rest is at least 1.  Both
    # caps at position 0 are 0: the shed leaves the stripped end alone.
    removals = _shed(degrees, tight, tight[:-1] + [degrees[-1] - 1], half - degrees[0] + 1)
    removals[0] = degrees[0] - 1
    return removals


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
    labeled, _center = _halve(spec.degrees, _large_cut)
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
