import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pontgap import instancefile
from pontgap.errors import IllPosedIntervalError, InstanceFormatError
from pontgap.gen import GenConfig, random_pair, random_space
from pontgap.instancefile import (
    InstanceRecord,
    dumps_instance,
    format_float,
    parse_instance,
    stable_dumps,
)
from pontgap.spectral import Interval

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


# ---------------------------------------------------------------------------
# writer


def test_format_float_hand_values():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert format_float(-0.0) == "0"  # sign of zero is not representable
    assert format_float(1e300) == "1.0000000000000001e+300"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_format_float_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        format_float(bad)


@given(finite)
def test_format_float_round_trips_doubles(x):
    assert float(format_float(x)) == x or (math.isnan(x))


def test_stable_dumps_golden():
    node = {"b": 1, "a": [1.5, 2], "c": {"y": True, "x": None}}
    assert stable_dumps(node) == (
        "{\n"
        '  "a": [1.5, 2],\n'
        '  "b": 1,\n'
        '  "c": {\n'
        '    "x": null,\n'
        '    "y": true\n'
        "  }\n"
        "}\n"
    )


def test_stable_dumps_keeps_matrix_rows_inline():
    node = {"m": [[[1.0, 0.0], [0.0, -1.0]]]}
    assert '[[1, 0], [0, -1]]' in stable_dumps(node)


def test_stable_dumps_empty_containers():
    assert stable_dumps({}) == "{}\n"
    assert stable_dumps([]) == "[]\n"


scalars = st.none() | st.booleans() | st.integers() | finite | st.text(max_size=6)
trees = st.recursive(
    scalars,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=4)),
    max_leaves=24,
)


def _as_json(node):
    """``node`` with every tuple made into a list, as ``json.loads`` returns it."""
    if isinstance(node, dict):
        return {key: _as_json(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_as_json(item) for item in node]
    return node


@given(trees)
def test_stable_dumps_round_trips_through_json(tree):
    text = stable_dumps(tree)
    assert json.loads(text) == _as_json(tree)
    assert stable_dumps(json.loads(text)) == text


# ---------------------------------------------------------------------------
# matrices, written in bulk


def _reference_dumps(record):
    """``dumps_instance`` with every matrix entry written on its own
    through ``format_float``, as the writer did before it went by rows."""
    node = instancefile.instance_node(record)
    for key in ("gram", "a1", "a2"):
        if key in node:
            node[key] = [[instancefile.complex_node(z) for z in row] for row in node[key]]
    return stable_dumps(node)


def _generated(d, seed):
    cfg = GenConfig(dim=d, kappa_minus=2, pert_rank=2, seed=seed)
    space = random_space(cfg)
    pair = random_pair(space, cfg)
    return InstanceRecord(
        gram=space.gram, a1=pair.op1.matrix, a2=pair.op2.matrix,
        intervals=(Interval(-np.inf, -0.5), Interval(0.25, np.inf)),
        name=f"gen-d{d}-seed{seed}", expected={"n": 2, "kappa": 2},
    )


@pytest.mark.parametrize(
    "d, seed, size, digest",
    [
        (32, 0, 139_830, "9845ee654ce23c84f3db6b796f1e4b5a1adf82ab24c38b9ddc39947a4ed46743"),
        (96, 3, 1_262_907, "838eee2605e578b10100b5e33ddd3f46c1d499ae363886a1dac4accc7e82b074"),
    ],
)
def test_generated_instance_text_is_pinned(d, seed, size, digest):
    # recorded with the per-entry writer, before matrices went by rows
    text = dumps_instance(_generated(d, seed))
    assert len(text) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest


#: doubles whose text is easy to get wrong: signed zeros, subnormals, the
#: extremes, integers around 2**53 and forms that print with an exponent
EDGES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.1125369292536007e-308,
    sys.float_info.max, -sys.float_info.max, 1.0, -3.0, 2.0**53, 2.0**53 + 2,
    -(2.0**63), 1e15, 1e16, 1e17, 1e22, 1e-5, 1e-4, 0.1, 123456789.0, -1e-300,
])
doubles = finite | EDGES | st.integers(-(2**60), 2**60).map(float)


def _matrices(d):
    return st.lists(doubles, min_size=2 * d * d, max_size=2 * d * d).map(
        lambda xs: np.array(xs).view(complex).reshape(d, d))


@given(st.integers(min_value=1, max_value=8), st.data())
def test_bulk_writer_is_the_per_entry_writer(d, data):
    record = InstanceRecord(
        gram=data.draw(_matrices(d)),
        a1=data.draw(_matrices(d)),
        a2=data.draw(st.none() | _matrices(d)),
        intervals=(Interval(-np.inf, 0.0),),
        name="x",
    )
    assert dumps_instance(record) == _reference_dumps(record)


@given(st.integers(min_value=1, max_value=3), st.data())
def test_bulk_writer_names_the_first_non_finite_number(d, data):
    # each matrix may hold non-finite numbers in real or imaginary parts;
    # a1 comes first in the document, then a2, then gram
    def matrix():
        floats = np.arange(1.0, 2 * d * d + 1)
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, floats.size - 1))
            floats[at] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        return floats.view(complex).reshape(d, d)

    record = InstanceRecord(gram=matrix(), a1=matrix(), a2=matrix(), intervals=())
    try:
        want = _reference_dumps(record)
    except ValueError as exc:
        want = str(exc)
    try:
        got = dumps_instance(record)
    except ValueError as exc:
        got = str(exc)
    assert got == want


def test_bulk_writer_names_the_first_of_three_non_finite_matrices():
    a1, a2, gram = (np.ones((2, 2), dtype=complex) for _ in range(3))
    a1[1, 0] = complex(1.0, -math.inf)
    a1[1, 1] = complex(math.nan, 1.0)
    a2[0, 0] = complex(math.nan, 1.0)
    gram[0, 1] = complex(math.inf, 1.0)
    record = InstanceRecord(gram=gram, a1=a1, a2=a2, intervals=())
    message = "non-finite float -inf cannot appear in a document"
    for dumps in (dumps_instance, _reference_dumps):
        with pytest.raises(ValueError) as raised:
            dumps(record)
        assert str(raised.value) == message


@pytest.mark.parametrize("shape, text", [((0, 0), "[]"), ((2, 0), "[[], []]")])
def test_empty_matrix_writes_as_before(shape, text):
    record = InstanceRecord(gram=np.zeros(shape, dtype=complex),
                            a1=np.zeros(shape), a2=None, intervals=())
    assert f'"gram": {text},' in dumps_instance(record)
    assert dumps_instance(record) == _reference_dumps(record)


# ---------------------------------------------------------------------------
# round trips


def test_fixture_files_round_trip_byte_identically():
    for name in ("example1.json", "example3.json"):
        text = (FIXTURES / name).read_text()
        assert dumps_instance(parse_instance(text)) == text


@given(
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_random_records_round_trip(d, data):
    scalars = st.lists(finite, min_size=2, max_size=2)
    rows = st.lists(scalars, min_size=d, max_size=d)
    mat = st.lists(rows, min_size=d, max_size=d)

    def build(node):
        return np.array([[complex(re, im) for re, im in row] for row in node])

    record = InstanceRecord(
        gram=build(data.draw(mat)),
        a1=build(data.draw(mat)),
        a2=build(data.draw(mat)) if data.draw(st.booleans()) else None,
        intervals=(Interval(-np.inf, 0.0), Interval(0.0, np.inf)),
        name=data.draw(st.none() | st.text(max_size=8)),
        expected={"n": 1, "kappa": 0, "eig1": 0, "eig2": 1, "sig1": 0,
                  "sig2": 1, "slack": 1},
    )
    text = dumps_instance(record)
    back = parse_instance(text)
    assert dumps_instance(back) == text
    assert np.array_equal(back.gram, record.gram)
    assert np.array_equal(back.a1, record.a1)
    assert back.expected == record.expected
    assert back.intervals == record.intervals


def test_infinite_endpoints_serialize_as_strings():
    record = InstanceRecord(
        gram=np.eye(1, dtype=complex),
        a1=np.zeros((1, 1), dtype=complex),
        a2=None,
        intervals=(Interval(-np.inf, np.inf),),
    )
    text = dumps_instance(record)
    assert '"lower": "-inf"' in text
    assert '"upper": "+inf"' in text
    assert parse_instance(text).intervals[0] == Interval(-np.inf, np.inf)


# ---------------------------------------------------------------------------
# parse failures, each addressed by path


def _doc(**over):
    doc = {
        "schema_version": "1",
        "gram": [[[1.0, 0.0]]],
        "a1": [[[0.0, 0.0]]],
        "intervals": [{"lower": 0.0, "upper": 1.0}],
    }
    doc.update(over)
    return json.dumps(doc)


def test_parse_reports_syntax_errors_with_position():
    with pytest.raises(InstanceFormatError, match=r"line 1, column"):
        parse_instance("{")


def test_parse_rejects_non_object_top_level():
    with pytest.raises(InstanceFormatError, match=r"\$: expected a top-level"):
        parse_instance("[]")


def test_parse_rejects_unknown_top_level_key():
    with pytest.raises(InstanceFormatError, match=r"unknown keys \['bogus'\]"):
        parse_instance(_doc(bogus=1))


def test_parse_requires_schema_version():
    with pytest.raises(InstanceFormatError, match=r"\$\.schema_version"):
        parse_instance(_doc(schema_version="99"))
    doc = json.loads(_doc())
    del doc["schema_version"]
    with pytest.raises(InstanceFormatError, match=r"\$\.schema_version"):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("key", ["gram", "a1", "intervals"])
def test_parse_requires_core_keys(key):
    doc = json.loads(_doc())
    del doc[key]
    with pytest.raises(InstanceFormatError, match=f"missing required key '{key}'"):
        parse_instance(json.dumps(doc))


def test_parse_rejects_ragged_matrix():
    bad = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]
    with pytest.raises(InstanceFormatError, match=r"\$\.gram\[1\]"):
        parse_instance(_doc(gram=bad))


def test_parse_rejects_non_pair_entry():
    with pytest.raises(InstanceFormatError, match=r"\$\.a1\[0\]\[0\]"):
        parse_instance(_doc(a1=[[[1.0]]]))


@pytest.mark.parametrize(
    "entry, message",
    [
        ([True, 0.0], r"\$\.a1\[0\]\[0\]\[0\]: expected a number, got True"),
        (["1", 0.0], r"\$\.a1\[0\]\[0\]\[0\]: expected a number, got '1'"),
        ([0.0, None], r"\$\.a1\[0\]\[0\]\[1\]: expected a number, got None"),
    ],
)
def test_parse_rejects_non_number_entry(entry, message):
    with pytest.raises(InstanceFormatError, match=message):
        parse_instance(_doc(a1=[[entry]]))


def test_parse_rejects_non_square_matrix():
    with pytest.raises(InstanceFormatError, match=r"\$\.gram"):
        parse_instance(_doc(gram=[[[1.0, 0.0], [0.0, 0.0]]]))


def test_parse_rejects_shape_mismatch():
    a2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(InstanceFormatError, match=r"\$\.a2.*does not match"):
        parse_instance(_doc(a2=a2))


def test_parse_rejects_infinity_literal():
    text = _doc().replace('{"lower": 0.0, "upper": 1.0}',
                          '{"lower": -Infinity, "upper": 1.0}')
    with pytest.raises(InstanceFormatError, match=r'"-inf"'):
        parse_instance(text)


@pytest.mark.parametrize(
    "old, new, message",
    [
        # an integer past the double range, one past the int/str digit limit
        ('"a1": [[[0.0', '"a1": [[[1' + "0" * 399,
         r"\$\.a1\[0\]\[0\]\[0\]: number does not fit in a double"),
        ('"a1": [[[0.0', '"a1": [[[' + "9" * 5000,
         r"^an integer literal does not fit in a double"),
        # a float literal that overflows: an infinite endpoint in disguise,
        # but only a non-finite matrix entry
        ('"lower": 0.0', '"lower": -1e400',
         r'\$\.intervals\[0\]\.lower: number does not fit .*"-inf"'),
        ('"a1": [[[0.0', '"a1": [[[1e400', r"\$\.a1: matrix entries must be finite"),
    ],
    ids=["int-past-double", "int-past-digit-limit", "endpoint-overflow", "entry-overflow"],
)
def test_parse_rejects_numbers_past_the_double_range(old, new, message):
    text = _doc().replace(old, new)
    assert text != _doc()
    with pytest.raises(InstanceFormatError, match=message):
        parse_instance(text)


def _a1_doc(a1, literal=None):
    """A 2 x 2 document; ``literal`` replaces the number -7 in the text."""
    gram = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    text = _doc(gram=gram, a1=a1)
    return text if literal is None else text.replace("-7", literal)


def _walk_only(text):
    """The error ``parse_instance`` gives when every matrix takes the walk."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instancefile, "_bulk_matrix", lambda node: None)
        with pytest.raises(InstanceFormatError) as walked:
            parse_instance(text)
    return str(walked.value)


@pytest.mark.parametrize(
    "text, message",
    [
        (_a1_doc([[[1.0, 0.0], [0, 2]], [[0.5, True], [3.0, 0.0]]]),
         "$.a1[1][0][1]: expected a number, got True"),
        (_a1_doc([[[1.0, 0.0], [0, 2]], [[0.5, "1"], [3.0, 0.0]]]),
         "$.a1[1][0][1]: expected a number, got '1'"),
        (_a1_doc([[[1.0, 0.0], [0, 2]], [[0.5, None], [3.0, 0.0]]]),
         "$.a1[1][0][1]: expected a number, got None"),
        (_a1_doc([[[1.0, 0.0], [0, 2]], [[0.5, -1]]]),
         "$.a1[1]: row has 1 entries, expected 2"),
        (_a1_doc([[[1.0, 0.0], [0, 2]], [[0.5, -1, 7], [3.0, 0.0]]]),
         "$.a1[1][0]: expected a two-element [re, im] array, got [0.5, -1, 7]"),
        (_a1_doc([[[1.0, 0.0], [0, 2], [1, 1]], [[0.5, -1], [3.0, 0.0], [1, 1]]]),
         "$.a1: expected a square matrix, got shape (2, 3)"),
        (_a1_doc([[[1.0, 0.0], [0, 2]], [[0.5, -7], [3.0, 0.0]]], "1e400"),
         "$.a1: matrix entries must be finite"),
        (_a1_doc([[[1.0, 0.0], [0, 2]], [[0.5, -7], [3.0, 0.0]]], "1" + "0" * 399),
         "$.a1[1][0][1]: number does not fit in a double"),
        (_a1_doc([]), "$.a1: expected a non-empty array of rows"),
        (_a1_doc(5), "$.a1: expected a non-empty array of rows"),
        (_a1_doc([[]]), "$.a1[0]: expected a non-empty array of [re, im] entries"),
        (_a1_doc([5]), "$.a1[0]: expected a non-empty array of [re, im] entries"),
    ],
    ids=["true", "string", "null", "ragged", "three-element", "non-square",
         "float-overflow", "int-past-double", "no-rows", "rows-number", "empty-row",
         "row-number"],
)
def test_bulk_matrix_path_keeps_the_walks_messages(text, message):
    # the messages were recorded before matrices had a bulk path
    with pytest.raises(InstanceFormatError) as parsed:
        parse_instance(text)
    assert str(parsed.value) == _walk_only(text) == message
    assert instancefile._bulk_matrix(json.loads(text)["a1"]) is None


#: the largest integer that rounds to a finite double
BIGGEST = 2**1024 - 2**970 - 1
#: doubles, and integers that fit one, around 2**53 too (rounded there)
numbers = (
    finite
    | st.integers(min_value=-BIGGEST, max_value=BIGGEST)
    | st.integers(min_value=-(2**54), max_value=2**54)
)


@given(st.integers(min_value=1, max_value=4), st.data())
def test_bulk_matrix_path_builds_the_walks_matrix(d, data):
    entry = st.lists(numbers, min_size=2, max_size=2)
    row = st.lists(entry, min_size=d, max_size=d)
    node = data.draw(st.lists(row, min_size=d, max_size=d))
    bulk = instancefile._bulk_matrix(json.loads(json.dumps(node)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instancefile, "_bulk_matrix", lambda node: None)
        walked = instancefile._matrix(json.loads(json.dumps(node)), "$.a1")
    assert bulk.dtype == walked.dtype and bulk.shape == walked.shape == (d, d)
    assert bulk.tobytes() == walked.tobytes()


@pytest.mark.parametrize("key", ["gram", "name"])
def test_parse_rejects_deep_nesting(key):
    depth = 100_000
    text = _doc(**{key: "@"}).replace('"@"', "[" * depth + "]" * depth)
    with pytest.raises(InstanceFormatError, match=r"^arrays or objects nested too"):
        parse_instance(text)


def test_parse_rejects_wrong_endpoint_string():
    with pytest.raises(InstanceFormatError, match=r"\$\.intervals\[0\]\.lower"):
        parse_instance(_doc(intervals=[{"lower": "+inf", "upper": 1.0}]))
    with pytest.raises(InstanceFormatError, match=r"\$\.intervals\[0\]\.upper"):
        parse_instance(_doc(intervals=[{"lower": 0.0, "upper": "oo"}]))


def test_parse_rejects_extra_interval_key():
    bad = [{"lower": 0.0, "upper": 1.0, "width": 1.0}]
    with pytest.raises(InstanceFormatError, match=r"unknown interval keys"):
        parse_instance(_doc(intervals=bad))


@pytest.mark.parametrize(
    "key, node, message",
    [
        ("intervals", {}, "$.intervals: expected an array of intervals"),
        ("intervals", [5], "$.intervals[0]: expected an object with lower/upper, got 5"),
        ("intervals", [{"lower": 0.0}],
         "$.intervals[0]: interval needs both lower and upper"),
        ("expected", 5, "$.expected: expected an object of integer fields, got 5"),
    ],
    ids=["intervals-object", "interval-number", "interval-no-upper", "expected-number"],
)
def test_parse_names_the_malformed_node(key, node, message):
    with pytest.raises(InstanceFormatError) as parsed:
        parse_instance(_doc(**{key: node}))
    assert str(parsed.value) == message


def test_empty_interval_is_ill_posed_not_malformed():
    with pytest.raises(IllPosedIntervalError, match=r"\$\.intervals\[0\]"):
        parse_instance(_doc(intervals=[{"lower": 2.0, "upper": 1.0}]))


def test_parse_rejects_bad_expected_fields():
    with pytest.raises(InstanceFormatError, match=r"unknown expected field"):
        parse_instance(_doc(expected={"surplus": 1}))
    with pytest.raises(InstanceFormatError, match=r"\$\.expected\.n"):
        parse_instance(_doc(expected={"n": True}))
    with pytest.raises(InstanceFormatError, match=r"\$\.expected\.eig1"):
        parse_instance(_doc(expected={"eig1": 1.5}))


def test_parse_rejects_a_key_given_twice():
    # json.loads alone keeps the last value, here a 1 x 1 a1
    text = (FIXTURES / "example1.json").read_text()
    with pytest.raises(InstanceFormatError, match=r'^duplicate key "a1"$'):
        parse_instance(text.replace("{", '{\n  "a1": [[[1, 0]]],', 1))


def test_parse_rejects_an_interval_bound_given_twice():
    text = _doc().replace('"lower": 0.0', '"lower": 0.0, "lower": -1.0')
    with pytest.raises(InstanceFormatError, match=r'^duplicate key "lower"$'):
        parse_instance(text)


def test_parse_rejects_an_expected_field_given_twice():
    text = _doc(expected={"n": 1}).replace('"n": 1', '"n": 1, "n": 2')
    with pytest.raises(InstanceFormatError, match=r'^duplicate key "n"$'):
        parse_instance(text)


def test_parse_rejects_non_string_name():
    with pytest.raises(InstanceFormatError, match=r"\$\.name"):
        parse_instance(_doc(name=7))
