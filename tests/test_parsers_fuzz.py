"""Fuzz the text parsers: each returns a value or raises a named error.

Every parser that reads user text (pendant plans, caterpillar specs,
bitstrings and tree documents) must answer arbitrary input, text or not,
with a value or a SetseqError, never with a ValueError, a TypeError, a
RecursionError or another bare exception.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setseq.constructors import PendantPlan
from setseq.errors import PreconditionViolated, SetseqError
from setseq.gf2 import parse_bits
from setseq.trees import CaterpillarSpec, _entry_error, _read_entries, tree_from_json

FUZZ = settings(max_examples=150, deadline=None)

small_ints = st.integers(-3, 40)
bitstrings = st.text(alphabet="01", max_size=8)
# What a caller may hand a parser in place of text.
not_text = st.none() | st.integers() | st.floats() | st.lists(st.text(max_size=4), max_size=3)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 40) | st.floats(allow_nan=False) | bitstrings,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["id", "label", "n"]), inner, max_size=3),
    max_leaves=12,
)

vertex_entries = st.fixed_dictionaries(
    {"id": st.integers(-1, 5) | json_values},
    optional={"label": bitstrings | json_values},
)

documents = st.fixed_dictionaries(
    {
        "n": small_ints | json_values,
        "vertices": st.lists(vertex_entries, max_size=6) | json_values,
        "edges": st.lists(st.lists(st.integers(-1, 6), max_size=3) | json_values, max_size=6)
        | json_values,
    }
).map(json.dumps)


def settles(parse, *args) -> None:
    try:
        parse(*args)
    except SetseqError:
        pass


@FUZZ
@given(
    st.text(alphabet="0123456789:,- x", max_size=30)
    | st.lists(st.tuples(small_ints, small_ints), min_size=1, max_size=5).map(
        lambda pairs: ",".join(f"{a}:{b}" for a, b in pairs)
    )
    | not_text
)
def test_pendant_plan_parse_settles(text):
    settles(PendantPlan.parse, text)


@FUZZ
@given(
    st.text(alphabet="T[]0123456789, -", max_size=30)
    | st.lists(st.integers(-2, 10**10), min_size=1, max_size=6).map(
        lambda ds: "T[" + ",".join(map(str, ds)) + "]"
    )
    | not_text
)
def test_caterpillar_spec_parse_settles(text):
    settles(CaterpillarSpec.parse, text)


@FUZZ
@given(
    st.text(alphabet="01 2", max_size=40) | st.lists(bitstrings, max_size=3) | not_text,
    st.none() | st.booleans() | small_ints,
)
def test_bitvec_parse_settles(text, dim):
    settles(parse_bits, text, dim)


@FUZZ
@given(
    documents
    | json_values.map(json.dumps)
    | st.text(alphabet='{}[]":,0123456789 ', max_size=40)
    | st.binary(max_size=12)
    | not_text
)
def test_tree_from_json_settles(text):
    settles(tree_from_json, text)


# ---------------------------------------------------------------------------
# the tree reader's screen against its walk

#: What a broken vertex entry, label or edge may hold instead.
NOT_DICTS = ([0], 0, "0", None, True)
NOT_STRINGS = (0, 1, None, True, ["0"], {"0": 1})
NOT_LISTS = (0, "01", None, True, {"0": 1})
# "\u0661" is a decimal digit one that int(text, 2) reads, but no bit.
BAD_BITS = ("_", " ", "2", "\u0661")


def break_vertex(draw, n: int, vertices: list, edges: list) -> None:
    i = draw(st.integers(0, len(vertices)))
    entry = {"id": i}
    if i < len(vertices) and type(vertices[i]) is dict:  # else break a fresh entry
        entry = dict(vertices[i])
    fault = draw(st.sampled_from(["not-dict", "no-id", "id", "label", "short", "long", "bits"]))
    label = entry.get("label")
    if type(label) is not str or len(label) != n:
        label = "0" * n
    if fault == "not-dict":
        entry = draw(st.sampled_from(NOT_DICTS))
    elif fault == "no-id":
        entry.pop("id", None)
    elif fault == "id":
        entry["id"] = draw(st.booleans() | st.integers(-1, 8) | st.sampled_from(["0", 0.0]))
    elif fault == "label":
        entry["label"] = draw(st.sampled_from(NOT_STRINGS))
    elif fault == "short":
        entry["label"] = label[1:]
    elif fault == "long":
        entry["label"] = label + draw(st.sampled_from("01"))
    else:
        at = draw(st.integers(0, n - 1))
        bad = draw(st.sampled_from(BAD_BITS + ("0_1", " 01")))
        entry["label"] = bad if len(bad) > 1 else label[:at] + bad + label[at + 1 :]
    vertices[i : i + 1] = [entry]


def break_edge(draw, n: int, vertices: list, edges: list) -> None:
    i = draw(st.integers(0, len(edges)))
    edge = [0, 1]
    if i < len(edges) and type(edges[i]) is list and len(edges[i]) == 2:
        edge = list(edges[i])
    fault = draw(st.sampled_from(["not-list", "three", "one", "bool", "not-int"]))
    if fault == "not-list":
        edge = draw(st.sampled_from(NOT_LISTS))
    elif fault == "three":
        edge.append(draw(st.integers(0, 5)))
    elif fault == "one":
        del edge[1]
    else:
        edge[draw(st.integers(0, 1))] = draw(
            st.booleans() if fault == "bool" else st.sampled_from(["1", 1.0, None])
        )
    edges[i : i + 1] = [edge]


@st.composite
def entry_lists(draw) -> tuple[int, list, list]:
    """A document's n and its vertex and edge lists: well formed, then broken 0-3 times."""
    n = draw(st.integers(1, 5))
    count = draw(st.integers(0, 6))
    vertices = []
    for v in draw(st.permutations(range(count))):
        entry = {"id": v}
        if draw(st.booleans()):
            entry["label"] = draw(st.text(alphabet="01", min_size=n, max_size=n))
        vertices.append(entry)
    ends = st.integers(0, max(count - 1, 0))
    edges = draw(st.lists(st.lists(ends, min_size=2, max_size=2), max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        draw(st.sampled_from([break_vertex, break_edge]))(draw, n, vertices, edges)
    return n, vertices, edges


@settings(max_examples=400, deadline=None)
@given(entry_lists())
def test_tree_reader_screen_accepts_exactly_what_its_walk_passes(lists):
    # The screen reads the entries at C speed; only a rejected document is
    # walked, to name its first fault in document order.
    n, vertices, edges = lists
    read = _read_entries(n, vertices, edges)
    fault = _entry_error(n, vertices, edges)
    assert (read is None) == (fault is not None)
    text = json.dumps({"n": n, "vertices": vertices, "edges": edges})
    if fault is not None:
        with pytest.raises(PreconditionViolated) as info:
            tree_from_json(text)
        assert str(info.value) == fault
    else:
        count, labels, pairs = read
        assert count == len(vertices)
        assert labels == {e["id"]: int(e["label"], 2) for e in vertices if "label" in e}
        assert list(pairs) == [tuple(sorted(e)) for e in edges]
