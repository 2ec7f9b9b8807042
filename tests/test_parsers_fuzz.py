"""Fuzz the text parsers: each returns a value or raises a named error.

Every parser that reads user text (pendant plans, caterpillar specs,
bitstrings and tree documents) must answer arbitrary input, text or not,
with a value or a SetseqError, never with a ValueError, a TypeError, a
RecursionError or another bare exception.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from setseq.constructors import PendantPlan
from setseq.errors import SetseqError
from setseq.gf2 import parse_bits
from setseq.trees import CaterpillarSpec, tree_from_json

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
