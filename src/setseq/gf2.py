"""Word-packed GF(2) vector arithmetic and linear algebra.

Conventions
-----------
A vector in F_2^n is a Python int: coordinate j (1-based, as printed) lives
at bit position n-1-j, so the leftmost character of the printed bitstring
is the most significant stored bit.  Vector addition is XOR.  Dimensions
are capped at MAX_DIM so full-space enumeration tables stay desk sized.

The public surface is small: parse_bits reads a bitstring into its int
(f"{x:0{n}b}" prints one), echelon_basis returns the reduced row-echelon
rows of a span as a tuple whose length is the rank, and BitVec, a
fixed-width wrapper, is only the element type of
trees.Labeling.vertex_labels.  These check their arguments.

The underscore kernels serve pairing alone and trust its arguments.  A
kernel with no answer returns None; a broken invariant raises
InternalSearchFailed, which no caller in the package catches.  One
reduced row-echelon pass, _rref, serves every elimination: spans, coset
frames and parity systems.  One table, _span_table, evaluates every linear
map: coset representatives, coordinate frames and changes of basis are all
lookups in it, and _inverse_table inverts a change of basis.  One call,
_lift_frame, builds every coset frame: the rows of a subspace containing a
span and the smallest representative of each of its cosets.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InternalSearchFailed, PreconditionViolated, _as_tuple

MAX_DIM = 30


def _check_dim(dim: int) -> None:
    if type(dim) is not int or not 1 <= dim <= MAX_DIM:
        raise PreconditionViolated(f"dimension must be an int in 1..{MAX_DIM}, got {dim!r}")


def _check_value(bits: int, dim: int) -> None:
    if type(bits) is not int or not 0 <= bits < (1 << dim):
        raise PreconditionViolated(f"value {bits!r} is not an int in range for dimension {dim}")


def parse_bits(text: str, dim: int) -> int:
    """The int a width-dim bitstring such as "0111" stands for, leftmost bit most significant."""
    _check_dim(dim)
    if not isinstance(text, str) or not text or text.strip("01"):
        raise PreconditionViolated(f"not a bitstring: {text!r}")
    if len(text) != dim:
        raise PreconditionViolated(
            f"expected width {dim}, got {len(text)}: {text!r}"
        )
    return int(text, 2)


@dataclass(frozen=True, slots=True)
class BitVec:
    """A fixed-width vector over GF(2): the element type of Labeling.vertex_labels only."""

    bits: int
    dim: int

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        _check_value(self.bits, self.dim)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.dim}b")


def _rref(values: Iterable[int]) -> list[int]:
    """Reduced row-echelon rows of the span of values, largest leading bit first.

    Each row's leading bit is clear in every other row.  A caller that packs
    a tag below each vector (v << w | tag) gets the tags combined along with
    the rows, as long as no vector part reduces to zero.
    """
    rows: list[int] = []
    for v in values:
        for r in rows:
            if v ^ r < v:
                v ^= r
        if v == 0:
            continue
        mask = 1 << (v.bit_length() - 1)
        rows = [r ^ v if r & mask else r for r in rows]
        idx = 0
        while idx < len(rows) and rows[idx] > v:
            idx += 1
        rows.insert(idx, v)
    return rows


def echelon_basis(values: Iterable[int], dim: int) -> tuple[int, ...]:
    """The reduced row-echelon rows of the span of the given vectors.

    Leading bits strictly decrease down the rows and each appears in
    exactly one row, so the rows are a basis and their count is the rank.
    """
    _check_dim(dim)
    values = _as_tuple(values, "values must be an iterable of ints")
    for v in values:
        _check_value(v, dim)
    return tuple(_rref(values))


def _lift_frame(values: Iterable[int], dim: int, rank: int) -> tuple[list[int], list[int]]:
    """A rank-dimensional frame containing the span of values, and its cosets.

    rows are the reduced row-echelon rows of the span, extended by unit
    vectors at free positions, most significant first, in decreasing
    order.  reps is the _span_table of the units left free: the numerically
    smallest representative of every coset of the frame, ascending (so
    reps[0] is 0), 2^(dim - rank) of them; keep dim - rank modest.  The
    values must be dim-bit ints.
    """
    rows = _rref(values)
    if not len(rows) <= rank <= dim:
        raise InternalSearchFailed(f"frame rank {rank!r} outside {len(rows)}..{dim}")
    # Leading bits are all distinct, so value order is leading-bit order.
    # The smallest vector of each coset is the one that vanishes on them.
    pivots = {r.bit_length() - 1 for r in rows}
    free = [1 << p for p in range(dim - 1, -1, -1) if p not in pivots]
    take = rank - len(rows)
    return sorted(rows + free[:take], reverse=True), _span_table(free[take:])


def _zero_sum_subset(values: Sequence[int], sizes: Sequence[int]) -> tuple[int, ...] | None:
    """Indices of a subset with XOR 0 and the first size in sizes that one can have.

    sizes is a nonempty run of sizes >= 1; None when no size in it is
    reachable.  tables[i] holds the (size, XOR) states the first i values
    reach, sizes capped at the largest wanted, so one exact pass serves
    every candidate; it is meant for the small working sets of the splits.
    """
    cap = min(max(sizes), len(values))
    tables: list[set[tuple[int, int]]] = [{(0, 0)}]
    for v in values:
        prev = tables[-1]
        tables.append(prev | {(c + 1, x ^ v) for c, x in prev if c < cap})
    size = next((s for s in sizes if (s, 0) in tables[-1]), None)
    if size is None:
        return None
    # Walk backwards preferring "not taken" so the result is deterministic.
    picked: list[int] = []
    cur = (size, 0)
    for i in range(len(values) - 1, -1, -1):
        if cur not in tables[i]:
            cur = (cur[0] - 1, cur[1] ^ values[i])
            picked.append(i)
    if cur != (0, 0):
        raise InternalSearchFailed("subset reconstruction walked off the table")
    return tuple(reversed(picked))


def _span_table(rows: Sequence[int]) -> list[int]:
    """The XOR of the rows each bit pattern selects, for every pattern.

    Bit i of entry c's index selects rows[len(rows) - 1 - i], rows[0] at
    the most significant bit, so entry c is the vector whose coordinates
    over the rows are c.  With rows[i] the image of the unit
    1 << (len(rows) - 1 - i), entry x is the image of x, so the table
    evaluates that linear map everywhere.  The table has 2^len(rows)
    entries, each one XOR away from an earlier one.
    """
    table = [0]
    for r in reversed(rows):
        table += [x ^ r for x in table]
    return table


def _inverse_table(table: Sequence[int]) -> list[int]:
    """The inverse permutation, out[table[x]] == x, of the _span_table of a basis."""
    out = [0] * len(table)
    for x, y in enumerate(table):
        out[y] = x
    return out


def _solve_parity_system(constraints: Sequence[tuple[int, int]]) -> int | None:
    """One functional f with parity(f & v) = b for every constraint (v, b).

    Returns None when the system is inconsistent.  Free bits are set to 0,
    so the answer is deterministic.
    """
    # Row (v << 1) | b reduced to 1 reads 0 = 1.  Otherwise every row holds
    # one pivot of f's support, and its low bit is f's value there.
    rows = _rref(v << 1 | b for v, b in constraints)
    if rows and rows[-1] == 1:
        return None
    f = 0
    for r in rows:
        f |= (r & 1) << (r.bit_length() - 2)
    for v, b in constraints:
        if bin(f & v).count("1") & 1 != b:
            raise InternalSearchFailed("parity solver produced an invalid solution")
    return f
