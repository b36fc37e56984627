from hypothesis import example, given, strategies as st

import flowsift
from flowsift.reports import ranked

INTS = st.one_of(st.integers(-3, 3), st.integers(-(1 << 62), 1 << 62))
FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.5]), st.floats(allow_nan=False))


@st.composite
def pairs_st(draw):
    """Equal-width keys over a three-byte alphabet, so keys and values tie often."""
    width = draw(st.integers(1, 26))
    key = st.lists(st.sampled_from([0, 1, 255]), min_size=width,
                   max_size=width).map(bytes)
    values = draw(st.sampled_from([INTS, FLOATS]))
    return draw(st.lists(st.tuples(key, values), max_size=40))


@given(pairs_st())
@example([])
def test_ranked_is_value_descending_then_key_ascending(pairs):
    assert ranked(pairs) == sorted(pairs, key=lambda kv: (-kv[1], kv[0]))


def test_every_exported_name_resolves():
    assert [name for name in flowsift.__all__ if not hasattr(flowsift, name)] == []
    assert len(set(flowsift.__all__)) == len(flowsift.__all__)
