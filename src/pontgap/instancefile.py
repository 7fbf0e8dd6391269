"""Instance files and report documents.

One human-readable JSON format serves both directions: instances going
in (Gram matrix, one or two operators, intervals, optional expected
counts) and reports coming out.  Complex numbers are two-element
``[re, im]`` arrays, matrices are row-major nested arrays, and infinite
interval endpoints are the strings ``"-inf"`` / ``"+inf"``.

Documents are emitted with sorted keys and 17-significant-digit floats
so that equal data produces byte-identical text on every platform;
``parse_instance`` inverts ``dumps_instance`` exactly.

A matrix's text is rendered once per content: the writer keeps the
texts of the last three matrices it wrote, keyed by indent, shape and
exact bytes (see ``_matrix_text``), so the instance files of one pair's
windows format its ``gram``, ``a1`` and ``a2`` once.  A matrix holding a
non-finite number raises every time, and nothing is cached for it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import IllPosedIntervalError, InstanceFormatError
from .indefinite import Inertia
from .linalg import Tolerance, as_complex_matrix
from .spectral import Interval, Spectrum
from .theorem import GapReport, WitnessReport

__all__ = [
    "SCHEMA_VERSION",
    "EXPECTED_KEYS",
    "InstanceRecord",
    "parse_instance",
    "dumps_instance",
    "stable_dumps",
    "format_float",
    "complex_node",
    "interval_node",
    "tolerance_node",
    "counts_node",
    "spectrum_node",
    "gap_report_node",
    "witness_report_node",
]

SCHEMA_VERSION = "1"

#: integer fields an instance may pin for verification
EXPECTED_KEYS = ("n", "kappa", "eig1", "eig2", "sig1", "sig2", "slack")

_TOP_LEVEL_KEYS = frozenset(
    {"schema_version", "name", "gram", "a1", "a2", "intervals", "expected"}
)


@dataclass(frozen=True, eq=False)
class InstanceRecord:
    """Parsed contents of an instance file.

    ``a2`` is absent for single-operator (analyze-only) files;
    ``expected`` optionally pins integer report fields for verify.
    Records compare and hash by identity.
    """

    gram: np.ndarray
    a1: np.ndarray
    a2: np.ndarray | None
    intervals: tuple[Interval, ...]
    name: str | None = None
    expected: dict | None = None


# ---------------------------------------------------------------------------
# stable writer


def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips doubles exactly.

    Negative zero prints as ``0``: JSON readers drop the sign bit
    anyway, and equal values must yield equal text.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} cannot appear in a document")
    if x == 0.0:
        return "0"
    return "%.17g" % x


def _scalar(node) -> str:
    if isinstance(node, bool):
        return "true" if node else "false"
    if node is None:
        return "null"
    if isinstance(node, str):
        return json.dumps(node)
    if isinstance(node, int):
        return str(node)
    if isinstance(node, float):
        return format_float(node)
    raise TypeError(f"cannot serialize {type(node).__name__}")


def _inline_list(node) -> bool:
    """Lists of scalars, or of lists of scalars, stay on one line."""
    for item in node:
        if isinstance(item, dict):
            return False
        if isinstance(item, (list, tuple)):
            if any(isinstance(x, (dict, list, tuple)) for x in item):
                return False
    return True


def _matrix_text(m, pad: str) -> str:
    """A complex matrix as ``_dumps`` writes its rows of ``[re, im]``
    lists, with one ``%`` call per row.

    The text is memoized by content: the key is ``pad``, the shape and the
    bytes of the contiguous complex128 array, and the last three keys
    (one document's ``gram``, ``a1`` and ``a2``) are kept, so the windows
    of one pair render its matrices once.  A hit compares those bytes
    exactly, and nothing is keyed by the array's identity, so a matrix
    changed in place is rendered again.

    The first non-finite number, row-major and the real part before the
    imaginary part, raises the ``ValueError`` of :func:`format_float`,
    and nothing is cached for it.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    if not m.size:
        return _dumps(m.tolist(), pad)
    return _rows_text(pad, m.shape, m.tobytes())


@functools.lru_cache(maxsize=3)
def _rows_text(pad: str, shape: tuple, data: bytes) -> str:
    """:func:`_matrix_text` of the complex matrix of ``shape`` whose
    complex128 bytes are ``data``."""
    pairs = np.frombuffer(data, dtype=float).reshape(shape[0], -1)
    finite = np.isfinite(pairs)
    if not finite.all():
        format_float(pairs[~finite][0])
    # -0.0 + 0.0 is 0.0 and every other double is unchanged, so each zero
    # prints as format_float's "0"
    pairs = pairs + 0.0
    row = pad + "  [" + ", ".join(["[%.17g, %.17g]"] * shape[1]) + "]"
    return "[\n" + ",\n".join([row % tuple(r) for r in pairs.tolist()]) + "\n" + pad + "]"


def _dumps(node, pad: str) -> str:
    inner = pad + "  "
    if isinstance(node, dict):
        if not node:
            return "{}"
        items = []
        for key in sorted(node):
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {key!r}")
            items.append(f"{inner}{json.dumps(key)}: {_dumps(node[key], inner)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(node, np.ndarray):
        return _matrix_text(node, pad)
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        items = [_dumps(item, inner) for item in node]
        if _inline_list(node):
            return "[" + ", ".join(items) + "]"
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return _scalar(node)


def stable_dumps(node) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting.

    A numpy array node is a complex matrix, written as the rows of
    ``[re, im]`` lists that :func:`parse_instance` reads.
    """
    return _dumps(node, "") + "\n"


# ---------------------------------------------------------------------------
# node builders (python objects -> JSON-ready trees)


def complex_node(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def interval_node(interval: Interval) -> dict:
    lower = interval.lower if math.isfinite(interval.lower) else "-inf"
    upper = interval.upper if math.isfinite(interval.upper) else "+inf"
    return {"lower": lower, "upper": upper}


def tolerance_node(tol: Tolerance) -> dict:
    return {"rel": tol.rel, "abs": tol.abs}


def counts_node(inertias: dict[str, Inertia]) -> dict:
    """The ``eig``, ``sig`` and ``inertia`` nodes of ``{label: Inertia}``,
    for the analyze and verify documents alike."""
    return {
        "eig": {label: x.dim for label, x in inertias.items()},
        "sig": {label: x.sig for label, x in inertias.items()},
        "inertia": {
            label: {"plus": x.plus, "minus": x.minus, "zero": x.zero}
            for label, x in inertias.items()
        },
    }


def spectrum_node(sp: Spectrum) -> list:
    return [
        {"value": complex_node(e.value), "multiplicity": e.multiplicity}
        for e in sp.entries
    ]


def gap_report_node(report: GapReport) -> dict:
    return {
        "interval": interval_node(report.interval),
        "n": report.n,
        "kappa": report.kappa,
        **counts_node({"a1": report.inertia1, "a2": report.inertia2}),
        "eig_bound": report.n + 2 * report.kappa,
        "eig_bound_holds": report.eig_bound_holds,
        "sig_bound": report.n,
        "sig_bound_holds": report.sig_bound_holds,
        "equal_kappa_applicable": report.equal_kappa_applicable,
        "equal_kappa_bound_holds": report.equal_kappa_bound_holds,
        "positive_type": report.positive_type,
        "min_kappa_bound": report.min_kappa_bound,
        "min_kappa_bound_holds": report.min_kappa_bound_holds,
        "slack": report.slack,
    }


def witness_report_node(witness: WitnessReport) -> dict:
    return {
        "delta_prime": interval_node(witness.delta_prime),
        "dim_minus_out": {"a1": witness.dim_minus_out1, "a2": witness.dim_minus_out2},
        "dim_plus_in": {"a1": witness.dim_plus_in1, "a2": witness.dim_plus_in2},
        "dim_k": witness.dim_k,
        "q1_injective_on_k": witness.q1_injective_on_k,
        "lower_bound_ok": witness.lower_bound_ok,
        "upper_bound_ok": witness.upper_bound_ok,
        "eig_delta_prime": {
            "a1": witness.eig1_delta_prime,
            "a2": witness.eig2_delta_prime,
        },
        "eig_delta": {"a1": witness.eig1_delta, "a2": witness.eig2_delta},
        "chain_holds": witness.chain_holds,
        "sig_chain_holds": witness.sig_chain_holds,
    }


def instance_node(record: InstanceRecord) -> dict:
    node = {
        "schema_version": SCHEMA_VERSION,
        "gram": np.asarray(record.gram),
        "a1": np.asarray(record.a1),
        "intervals": [interval_node(iv) for iv in record.intervals],
    }
    if record.a2 is not None:
        node["a2"] = np.asarray(record.a2)
    if record.name is not None:
        node["name"] = record.name
    if record.expected is not None:
        node["expected"] = dict(record.expected)
    return node


def dumps_instance(record: InstanceRecord) -> str:
    return stable_dumps(instance_node(record))


# ---------------------------------------------------------------------------
# parsing


def _fail(path: str, message: str):
    raise InstanceFormatError(f"{path}: {message}")


def _reject_constant(token: str):
    raise InstanceFormatError(
        f"{token} is not valid here; encode infinite endpoints as the "
        'strings "-inf" / "+inf"'
    )


def _unique_keys(pairs: list) -> dict:
    """``json.loads``'s object hook: a key given twice is an error, so no
    value silently replaces another."""
    node = dict(pairs)
    if len(node) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InstanceFormatError(f"duplicate key {json.dumps(key)}")
            seen.add(key)
    return node


def _number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(path, f"expected a number, got {node!r}")
    try:
        return float(node)
    except OverflowError:
        _fail(path, "number does not fit in a double")


def _complex(node, path: str) -> complex:
    if not isinstance(node, list) or len(node) != 2:
        _fail(path, f"expected a two-element [re, im] array, got {node!r}")
    return complex(_number(node[0], path + "[0]"), _number(node[1], path + "[1]"))


def _bulk_matrix(node) -> np.ndarray | None:
    """The matrix of a square ``[[[re, im], ...], ...]`` node of finite
    floats and ints, from one ``np.fromiter`` call; None for any other node.

    Its numbers convert as ``float`` converts them, so the matrix is the
    one the per-entry walk builds.  Only that walk names faults, so a
    node this declines, such as a bool, a ragged row or an integer past
    the double range, gets the walk's message.
    """
    if type(node) is not list or not node:
        return None
    d = len(node)
    if {*map(type, node)} != {list} or {*map(len, node)} != {d}:
        return None
    entries = [*chain.from_iterable(node)]
    if {*map(type, entries)} != {list} or {*map(len, entries)} != {2}:
        return None
    if not {*map(type, chain.from_iterable(entries))} <= {float, int}:
        return None
    try:
        pairs = np.fromiter(chain.from_iterable(entries), float, 2 * d * d)
    except OverflowError:
        return None
    if not np.isfinite(pairs).all():
        return None
    return pairs.view(complex).reshape(d, d)


def _matrix(node, path: str) -> np.ndarray:
    bulk = _bulk_matrix(node)
    if bulk is not None:
        return bulk
    if not isinstance(node, list) or not node:
        _fail(path, "expected a non-empty array of rows")
    width = None
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or not row:
            _fail(f"{path}[{i}]", "expected a non-empty array of [re, im] entries")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{path}[{i}]", f"row has {len(row)} entries, expected {width}")
        rows.append([_complex(z, f"{path}[{i}][{j}]") for j, z in enumerate(row)])
    try:
        return as_complex_matrix(np.array(rows, dtype=complex), square=True)
    except Exception as exc:
        _fail(path, str(exc))


def _endpoint(node, path: str, infinite: str) -> float:
    if isinstance(node, str):
        if node != infinite:
            _fail(path, f'expected a number or "{infinite}", got {node!r}')
        return float(node.replace("+", ""))
    value = _number(node, path)
    if math.isinf(value):
        _fail(path, f'number does not fit in a double; write "{infinite}" for infinity')
    return value


def _interval(node, path: str) -> Interval:
    if not isinstance(node, dict):
        _fail(path, f"expected an object with lower/upper, got {node!r}")
    extra = set(node) - {"lower", "upper"}
    if extra:
        _fail(path, f"unknown interval keys {sorted(extra)}")
    if "lower" not in node or "upper" not in node:
        _fail(path, "interval needs both lower and upper")
    lower = _endpoint(node["lower"], path + ".lower", "-inf")
    upper = _endpoint(node["upper"], path + ".upper", "+inf")
    try:
        return Interval(lower, upper)
    except IllPosedIntervalError as exc:
        raise IllPosedIntervalError(f"{path}: {exc}") from exc


def _expected(node, path: str) -> dict:
    if not isinstance(node, dict):
        _fail(path, f"expected an object of integer fields, got {node!r}")
    out = {}
    for key in sorted(node):
        if key not in EXPECTED_KEYS:
            _fail(path, f"unknown expected field {key!r}; valid: {EXPECTED_KEYS}")
        value = node[key]
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
        out[key] = value
    return out


def parse_instance(text: str) -> InstanceRecord:
    """Parse and structurally validate an instance document.

    Format violations raise :class:`InstanceFormatError` with the JSON
    path (or line/column for syntax errors, or the key given twice in
    one object); an interval with
    ``lower >= upper`` raises :class:`IllPosedIntervalError` so callers
    can report it as ill-posed rather than malformed.
    """
    try:
        top = json.loads(text, parse_constant=_reject_constant,
                         object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise InstanceFormatError("an integer literal does not fit in a double") from exc
    except RecursionError as exc:
        raise InstanceFormatError("arrays or objects nested too deeply") from exc
    if not isinstance(top, dict):
        _fail("$", f"expected a top-level object, got {type(top).__name__}")
    extra = set(top) - _TOP_LEVEL_KEYS
    if extra:
        _fail("$", f"unknown keys {sorted(extra)}")
    version = top.get("schema_version")
    if version != SCHEMA_VERSION:
        _fail(
            "$.schema_version",
            f"expected {SCHEMA_VERSION!r}, got {version!r}",
        )
    for required in ("gram", "a1", "intervals"):
        if required not in top:
            _fail("$", f"missing required key {required!r}")
    gram = _matrix(top["gram"], "$.gram")
    ops = {}
    for key in ("a1", "a2"):
        if key in top:
            ops[key] = a = _matrix(top[key], f"$.{key}")
            if a.shape != gram.shape:
                _fail(f"$.{key}",
                      f"shape {a.shape} does not match gram shape {gram.shape}")
    if not isinstance(top["intervals"], list):
        _fail("$.intervals", "expected an array of intervals")
    intervals = tuple(
        _interval(node, f"$.intervals[{i}]") for i, node in enumerate(top["intervals"])
    )
    name = top.get("name")
    if name is not None and not isinstance(name, str):
        _fail("$.name", f"expected a string, got {name!r}")
    expected = _expected(top["expected"], "$.expected") if "expected" in top else None
    return InstanceRecord(
        gram=gram, a1=ops["a1"], a2=ops.get("a2"), intervals=intervals, name=name,
        expected=expected,
    )
