"""Tests for the GF(2) linear algebra core.

Derived expectations are checked against independent oracles written here
(different pivoting order, brute-force subset enumeration) rather than
against the library's own routines.
"""

from __future__ import annotations

import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setseq import errors
from setseq.errors import InternalSearchFailed, PreconditionViolated
from setseq.gf2 import (
    BitVec,
    _inverse_table,
    _lift_frame,
    _solve_parity_system,
    _span_table,
    _zero_sum_subset,
    echelon_basis,
    parse_bits,
)

FIGURE_LABELS = ["0001", "0111", "1101", "0010", "0101", "1100", "1110", "1010"]


def rank_oracle(vectors, n):
    """Row reduction pivoting on the least significant set bit.

    Deliberately a different pivot rule from the library so the two cannot
    share a bug.
    """
    rows = [v for v in vectors if v]
    rank = 0
    for pos in range(n):
        pivot = None
        for i, r in enumerate(rows):
            if (r >> pos) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        pr = rows.pop(pivot)
        rank += 1
        rows = [r ^ pr if (r >> pos) & 1 else r for r in rows]
    return rank


def xor_all(values):
    total = 0
    for v in values:
        total ^= v
    return total


# ---------------------------------------------------------------------------
# bitstrings: parse_bits reads them, BitVec prints them


def test_bitvec_parse_and_str_roundtrip():
    assert parse_bits("0111", 4) == 7
    assert str(BitVec(parse_bits("0111", 4), 4)) == "0111"
    assert str(BitVec(1, 6)) == "000001"


def test_bitvec_parse_rejects_garbage():
    with pytest.raises(PreconditionViolated):
        parse_bits("01x1", 4)
    with pytest.raises(PreconditionViolated):
        parse_bits("", 4)
    with pytest.raises(PreconditionViolated):
        parse_bits("011", dim=4)


def test_bitvec_rejects_wrongly_typed_input():
    with pytest.raises(PreconditionViolated):
        parse_bits(5, 3)
    with pytest.raises(PreconditionViolated):
        parse_bits(["0", "1"], 2)
    with pytest.raises(PreconditionViolated):
        BitVec(1.5, 3)
    with pytest.raises(PreconditionViolated):
        BitVec(1, 3.0)


def test_parse_bits_checks_the_width_before_the_text():
    # True is an int to Python but no width; None is no width either.
    for dim in (True, None, 0, 31, 3.0):
        with pytest.raises(PreconditionViolated, match="dimension must be an int in 1..30"):
            parse_bits("1", dim)


def test_bitvec_dim_bounds():
    with pytest.raises(PreconditionViolated):
        BitVec(0, 0)
    with pytest.raises(PreconditionViolated):
        BitVec(0, 31)
    with pytest.raises(PreconditionViolated):
        BitVec(4, 2)


# ---------------------------------------------------------------------------
# dimension of the span: len(echelon_basis(values, n))


def test_dim_span_empty_multiset():
    assert echelon_basis([], 4) == ()


def test_dim_span_toy_dependency():
    assert echelon_basis([0b0001, 0b0010, 0b0011], 4) == (0b0010, 0b0001)


def test_dim_span_figure_labels_match_oracle():
    vals = [int(s, 2) for s in FIGURE_LABELS]
    assert rank_oracle(vals, 4) == 4
    assert len(echelon_basis(vals, 4)) == 4


@given(st.integers(1, 10), st.lists(st.integers(0, (1 << 10) - 1), max_size=30))
def test_dim_span_agrees_with_oracle(n, raw):
    vals = [v & ((1 << n) - 1) for v in raw]
    assert len(echelon_basis(vals, n)) == rank_oracle(vals, n)


# ---------------------------------------------------------------------------
# echelon rows and frames


@given(st.integers(1, 10), st.lists(st.integers(0, (1 << 10) - 1), max_size=30))
def test_echelon_basis_rows_are_reduced(n, raw):
    # Nonzero rows, leading bits strictly decreasing, each leading bit clear
    # in every other row.
    rows = echelon_basis([v & ((1 << n) - 1) for v in raw], n)
    leads = [r.bit_length() - 1 for r in rows]
    assert all(rows) and leads == sorted(set(leads), reverse=True)
    assert all(not r >> p & 1 for i, p in enumerate(leads) for j, r in enumerate(rows) if i != j)


def test_echelon_basis_rejects_values_that_are_not_iterable():
    with pytest.raises(PreconditionViolated, match="values must be an iterable of ints"):
        echelon_basis(5, 3)


def test_coords_and_combine_roundtrip():
    # A frame's coordinates are read from its _span_table: entry c combines
    # the rows c selects, and indexing the table gives back c.
    rows, _ = _lift_frame([0b1100, 0b0110, 0b0001], 4, 3)
    index = {x: c for c, x in enumerate(_span_table(rows))}
    assert len(index) == 8
    top = len(rows) - 1
    for x, c in index.items():
        assert xor_all(r for i, r in enumerate(rows) if c >> (top - i) & 1) == x
    assert 0b0010 not in index


@given(st.integers(2, 9), st.integers(0, 2**32 - 1))
def test_basis_membership_matches_exhaustive_span(n, seed):
    rng = random.Random(seed)
    vals = [rng.randrange(1 << n) for _ in range(rng.randrange(1, 6))]
    rows = echelon_basis(vals, n)
    spanned = set()
    for picks in itertools.product([0, 1], repeat=len(vals)):
        spanned.add(xor_all(v for v, p in zip(vals, picks) if p))
    assert spanned == set(_span_table(rows))
    assert len(spanned) == 1 << len(rows)


# ---------------------------------------------------------------------------
# _zero_sum_subset


def brute_force_zero_subsets(values, max_size):
    """All index subsets with XOR 0 and size in 1..max_size."""
    found = []
    for size in range(1, min(max_size, len(values)) + 1):
        for idxs in itertools.combinations(range(len(values)), size):
            if xor_all(values[i] for i in idxs) == 0:
                found.append(idxs)
    return found


def test_zero_sum_subset_known_cases():
    assert _zero_sum_subset([0b0001, 0b0010, 0b0011], [1, 2, 3]) == (0, 1, 2)
    assert _zero_sum_subset([0b0101, 0b0101], range(1, 3)) == (0, 1)
    # The first size in the given order wins, not the smallest.
    values = [0b01, 0b01, 0b10, 0b11, 0b01]
    assert len(_zero_sum_subset(values, [3, 2])) == 3
    assert len(_zero_sum_subset(values, [2, 3])) == 2
    assert _zero_sum_subset([0b001, 0b010, 0b100], [1, 2, 3]) is None
    assert _zero_sum_subset([0b001, 0b001], [4]) is None


@given(
    st.integers(2, 8),
    st.lists(st.integers(0, 255), min_size=1, max_size=10),
    st.lists(st.integers(1, 11), min_size=1, max_size=6),
)
@settings(max_examples=300)
def test_zero_sum_subset_matches_brute_force(n, raw, sizes):
    values = [v & ((1 << n) - 1) for v in raw]
    reachable = {len(w) for w in brute_force_zero_subsets(values, max(sizes))}
    wanted = [s for s in sizes if s in reachable]
    if wanted:
        got = _zero_sum_subset(values, sizes)
        assert xor_all(values[i] for i in got) == 0
        assert len(set(got)) == len(got) == wanted[0]
        assert list(got) == sorted(got)
    else:
        assert _zero_sum_subset(values, sizes) is None


# ---------------------------------------------------------------------------
# _lift_frame: a frame containing a span, and the cosets of the frame


def enumerate_span(rows):
    elems = set()
    for picks in itertools.product([0, 1], repeat=len(rows)):
        elems.add(xor_all(r for r, p in zip(rows, picks) if p))
    return elems


def test_lift_frame_reaches_requested_rank():
    # The span's rows plus the free units, most significant first, in
    # descending order.
    rows, reps = _lift_frame([0b0110], 4, 4)
    assert tuple(rows) == (0b1000, 0b0110, 0b0010, 0b0001)
    assert reps == [0]
    rows, reps = _lift_frame([0b0110], 4, 2)
    assert tuple(rows) == (0b1000, 0b0110)
    assert reps == [0b0000, 0b0001, 0b0010, 0b0011]
    for values, rank in (([0b0110], 0), ([0b0110, 0b0001], 1), ([0b0110], 5)):
        with pytest.raises(InternalSearchFailed):
            _lift_frame(values, 4, rank)


@given(st.integers(2, 9), st.integers(0, 2**32 - 1))
def test_lift_frame_preserves_original_span(n, seed):
    rng = random.Random(seed)
    vals = [rng.randrange(1 << n) for _ in range(rng.randrange(1, n))]
    rank = rng.randrange(rank_oracle(vals, n), n + 1)
    rows, _ = _lift_frame(vals, n, rank)
    assert len(rows) == rank_oracle(rows, n) == rank
    assert rank_oracle(rows + vals, n) == rank
    assert rows == sorted(rows, reverse=True)


def test_lift_frame_reps_tiny_cases():
    assert _lift_frame([0b01], 2, 1)[1] == [0b00, 0b10]
    assert _lift_frame([0b001, 0b010], 3, 2)[1] == [0b000, 0b100]


def test_lift_frame_reps_one_dim_subspace_of_four():
    rows, reps = _lift_frame([0b0001], 4, 1)
    assert len(reps) == 8
    assert reps[0] == 0
    sub = enumerate_span(rows)
    cosets = [{s ^ t for s in sub} for t in reps]
    seen = set()
    for c in cosets:
        assert not (c & seen)
        seen |= c
    assert seen == set(range(16))


@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_lift_frame_reps_cover_everything_once(n, seed):
    rng = random.Random(seed)
    vals = [rng.randrange(1 << n) for _ in range(rng.randrange(1, n + 1))]
    rank = rng.randrange(rank_oracle(vals, n), n + 1)
    rows, reps = _lift_frame(vals, n, rank)
    assert len(reps) == 1 << (n - rank)
    assert reps[0] == 0
    elems = enumerate_span(rows)
    seen = set()
    for t in reps:
        coset = {s ^ t for s in elems}
        # Minimal representative of its own coset.
        assert t == min(coset)
        assert not (coset & seen)
        seen |= coset
    assert seen == set(range(1 << n))
    assert reps == sorted(reps)


# ---------------------------------------------------------------------------
# _span_table and _inverse_table


def parity(x):
    return bin(x).count("1") & 1


@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_span_table_matches_subset_xor(n, seed):
    rng = random.Random(seed)
    rows = [rng.randrange(1 << n) for _ in range(rng.randrange(0, n + 1))]
    table = _span_table(rows)
    assert len(table) == 1 << len(rows)
    for c, x in enumerate(table):
        # Bit i of c picks rows[-1 - i], the last row at the lowest bit.
        assert x == xor_all(r for i, r in enumerate(reversed(rows)) if c >> i & 1)


def test_span_table_tiny_cases():
    assert _span_table([]) == [0]
    assert _span_table([0b110, 0b011]) == [0b000, 0b011, 0b110, 0b101]


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_inverse_table_roundtrip(n, seed):
    rng = random.Random(seed)
    # Random rows, not an echelon basis: a reduced full-rank basis is the identity.
    rows = [rng.randrange(1, 1 << n) for _ in range(n)]
    while rank_oracle(rows, n) < n:
        rows = [rng.randrange(1, 1 << n) for _ in range(n)]
    table = _span_table(rows)
    inv = _inverse_table(table)
    assert sorted(table) == list(range(1 << n))
    for x in range(1 << n):
        assert inv[table[x]] == x
        assert table[inv[x]] == x


# ---------------------------------------------------------------------------
# _solve_parity_system


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_solve_parity_system_matches_enumeration(n, seed):
    rng = random.Random(seed)
    constraints = [
        (rng.randrange(1 << n), rng.randrange(2)) for _ in range(rng.randrange(0, 2 * n))
    ]
    solutions = [
        f
        for f in range(1 << n)
        if all(parity(f & v) == b for v, b in constraints)
    ]
    got = _solve_parity_system(constraints)
    if solutions:
        assert got in solutions
        # The one solution that is 0 off the pivots of the constraint span.
        leads = {r.bit_length() - 1 for r in echelon_basis([v for v, _ in constraints], n)}
        assert all(got >> p & 1 == 0 for p in range(n) if p not in leads)
    else:
        assert got is None


def test_solve_parity_system_prefers_zero_free_bits():
    # A single constraint on the low bit: the minimal solution is returned.
    assert _solve_parity_system([(0b001, 1)]) == 0b001
    assert _solve_parity_system([(0b001, 0)]) == 0


# ---------------------------------------------------------------------------
# the module's surface


SRC = Path(__file__).resolve().parents[1] / "src" / "setseq"


def names_read(paths) -> set[str]:
    """Every name the modules at paths read: loaded, taken as an attribute or imported."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_public_gf2_name_is_used_by_the_library():
    # A public function or class of gf2 that only the tests call is a
    # helper to delete, not an API to keep.
    tree = ast.parse((SRC / "gf2.py").read_text())
    public = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = names_read(path for path in SRC.glob("*.py") if path.name != "gf2.py")
    assert public and public <= used, sorted(public - used)


def test_every_raise_uses_the_error_vocabulary():
    # Outside input is checked where it enters, and every failure a caller
    # can see is a class of setseq.errors.  Besides a bare re-raise, two
    # forms are allowed: raising an error class the function is handed as a
    # type[SetseqError] (VerifierReport.require), and
    # argparse.ArgumentTypeError inside a CLI type= converter, which
    # argparse turns into a usage error.  Every class but the base is
    # raised somewhere, so none is dead vocabulary.
    vocabulary = set(errors.__all__)
    raised, stray = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        converters = {
            kw.value.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for kw in node.keywords
            if kw.arg == "type" and isinstance(kw.value, ast.Name)
        }
        # ast.walk goes outside in, so a nested function claims its own raises.
        owner = {
            node: fn
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            raised.add(name)
            fn = owner.get(node)
            handed = {
                a.arg
                for a in (fn.args.args if fn else [])
                if a.annotation and ast.unparse(a.annotation) == "type[SetseqError]"
            }
            if name in vocabulary or name in handed:
                continue
            if name == "argparse.ArgumentTypeError" and fn and fn.name in converters:
                continue
            stray.append(f"{path.name}:{node.lineno}: raise {name}")
    assert stray == []
    assert sorted(vocabulary - {"SetseqError"} - raised) == []


def test_no_library_code_catches_internal_search_failed():
    # A kernel with no answer returns None; InternalSearchFailed means a
    # step the theory guarantees failed, so no except clause may swallow it,
    # whether it names the class alone or in a tuple.
    caught = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if "InternalSearchFailed" in (ast.unparse(t).split(".")[-1] for t in types):
                    caught.append(f"{path.name}:{node.lineno}")
    assert caught == []


def test_every_private_name_is_read_by_the_library():
    # A private module-level function, class or constant that nothing in
    # the package reads is dead code: a helper left behind by a fold.
    used = names_read(SRC.glob("*.py"))
    private, unread = 0, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    private += 1
                    if name not in used:
                        unread.append(f"{path.name}: {name}")
    assert private and unread == []


def test_every_optional_parameter_is_set_by_a_caller():
    # A parameter with a default on a public function or method that no call
    # in the package, the benchmark or the demos passes is an option nobody
    # uses: its default is a constant.  Calls match by the function's name;
    # a starred argument counts as passing every position, ** every keyword.
    root = SRC.parents[1]
    calls: dict[str, list[ast.Call]] = {}
    for path in [*SRC.glob("*.py"), *root.glob("bench/*.py"), *root.glob("demos/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passes(call, param, position):
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        return position is not None and (
            len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
        )

    optional, unset = 0, []
    for path in sorted(SRC.glob("*.py")):
        body = ast.parse(path.read_text()).body
        functions = [(node, 0) for node in body if isinstance(node, ast.FunctionDef)]
        for cls in body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        decorators = {getattr(d, "id", None) for d in node.decorator_list}
                        functions.append((node, 0 if "staticmethod" in decorators else 1))
        for fn, bound in functions:
            if fn.name.startswith("_"):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = [(arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first]
            params += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            for param, position in params:
                optional += 1
                if not any(passes(call, param, position) for call in calls.get(fn.name, ())):
                    unset.append(f"{path.name}: {fn.name}({param}=...)")
    assert optional and unset == []
