"""The CLI's JSON emitter against its oracle, json.dumps(sort_keys=True,
indent=2): same text for every JSON-able value, shared objects included."""

import io
import json
from contextlib import redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from preflattice.cli import _emit

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),  # non-ASCII and control characters included
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
)
KEYS = st.text(max_size=4)
NON_STR_KEYED = st.one_of(
    st.dictionaries(st.integers(), SCALARS, max_size=4),
    st.dictionaries(st.floats(allow_nan=False), st.lists(SCALARS, max_size=2), max_size=4),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    )


VALUES = st.recursive(st.one_of(SCALARS, NON_STR_KEYED), containers, max_leaves=12)


@st.composite
def with_shared_leaf(draw):
    """A value holding one scalar list object at several depths, so a
    rendering memo keyed without the depth would indent it wrongly."""
    shared = draw(st.lists(SCALARS, min_size=1, max_size=3))
    slot = st.one_of(VALUES, st.just(shared))
    inner = draw(st.lists(slot, max_size=3))
    return {"a": shared, "b": [shared, {"c": shared, "d": inner}], "e": inner}


def emitted(obj):
    out = io.StringIO()
    with redirect_stdout(out):
        assert _emit(obj) == 0
    return out.getvalue()


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_emit_matches_json_dumps(obj):
    assert emitted(obj) == oracle(obj)


@settings(max_examples=200, deadline=None)
@given(with_shared_leaf())
def test_emit_matches_json_dumps_with_shared_leaves(obj):
    assert emitted(obj) == oracle(obj)


def test_emit_fixed_cases():
    shared = [1.5, "x"]
    cases = [
        {}, [], (), {"b": [], "a": {}},
        {"z": 1, "y": [True, None, float("nan"), float("inf"), -float("inf")]},
        {"é\u0001": "☃\n\t", "a": [["b", "a"], ("t",)]},
        [shared, [shared, [shared]], {"k": shared}],
        {"n": {2: "b", 1: ["a", {"c": 3}]}, "m": [{0.5: None}]},
        3, "s", None, float("nan"),
    ]
    for obj in cases:
        assert emitted(obj) == oracle(obj), obj
