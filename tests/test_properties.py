"""Property tests: JSON round trips and parsers that fail only with ValueError.

Every strategy keeps tensors to at most 2^12 entries: a dimension of at most
8 with a degree of at most 4, or JSON integers of at most 4 in both places.
"""
import json

import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qfock import jsonio
from qfock.fock import FockTensor
from qfock.polywick import InsertionPattern
from qfock.wickalg import WickElement

FINITE = st.floats(allow_nan=False, allow_infinity=False)

# -- round trips ---------------------------------------------------------------


def _tensor(draw, d, degree):
    return FockTensor(d, draw(hnp.arrays(np.float64, (d,) * degree, elements=FINITE)))


@st.composite
def tensors(draw):
    return _tensor(draw, draw(st.integers(1, 6)), draw(st.integers(0, 3)))


@st.composite
def elements(draw):
    d = draw(st.integers(1, 6))
    return WickElement(d, {k: _tensor(draw, d, k) for k in draw(st.sets(st.integers(0, 3)))})


def _through_text(obj):
    """The document as the CLI writes it and a reader parses it back."""
    return json.loads(jsonio.dumps(obj))


@given(tensors())
def test_tensor_json_round_trip(F):
    back = FockTensor.from_json(_through_text(F.to_json()))
    assert back.d == F.d and back.degree == F.degree
    assert np.array_equal(back.data, F.data)


@given(elements())
def test_element_json_round_trip(A):
    back = WickElement.from_json(_through_text(A.to_json()))
    assert back.d == A.d
    assert sorted(back.chaos) == sorted(A.chaos)
    for k, F in A.chaos.items():
        assert np.array_equal(back.chaos[k].data, F.data)


# -- parsers on arbitrary JSON --------------------------------------------------

SMALL_INTS = st.integers(-3, 4)
NUMBERS = (SMALL_INTS | st.floats() | st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 64]))
JSON = st.recursive(
    st.none() | st.booleans() | SMALL_INTS | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)

WORDS = st.lists(st.integers(-1, 8), max_size=5) | JSON
COEFFS = st.lists(st.fixed_dictionaries({"word": WORDS, "value": NUMBERS | JSON})
                  | JSON, max_size=6) | JSON
TENSOR_DOCS = st.fixed_dictionaries(
    {"d": st.integers(-1, 8) | JSON, "degree": st.integers(-1, 4) | JSON, "coeffs": COEFFS}
) | JSON
ELEMENT_DOCS = st.fixed_dictionaries({
    "d": st.integers(-1, 8) | JSON,
    "chaos": st.dictionaries(st.sampled_from(["0", "1", "2", "3", "-1", "x", " 2", "02"]),
                             TENSOR_DOCS, max_size=4) | JSON,
}) | JSON
PATTERN_DOCS = st.fixed_dictionaries({
    "slots": st.lists(st.fixed_dictionaries({"type": st.sampled_from(["leg", "insert"]) | JSON})
                      | JSON, max_size=5) | JSON,
}) | JSON


def _parses_or_value_error(parse, doc):
    try:
        parse(doc)
    except ValueError:
        pass


@given(TENSOR_DOCS)
def test_tensor_parser_raises_only_value_error(doc):
    _parses_or_value_error(FockTensor.from_json, doc)


@given(ELEMENT_DOCS)
def test_element_parser_raises_only_value_error(doc):
    _parses_or_value_error(WickElement.from_json, doc)


@given(PATTERN_DOCS)
def test_pattern_parser_raises_only_value_error(doc):
    _parses_or_value_error(InsertionPattern.from_json, doc)
