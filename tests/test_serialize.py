"""Wire-format round-trips, report determinism, and the writer against json's own."""

import json
import math
import re
import types

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from algpaths.algebraic import random_element, spectral_resolution, validate_roots
from algpaths import serialize
from algpaths.cli import main
from algpaths.components import ComponentSignature, distance_scan, line_direction
from algpaths.errors import PreconditionError
from algpaths.serialize import (
    SCAN_CSV_HEADER,
    canonical_dumps,
    element_from_json,
    line_witness_to_json,
    matrix_from_json,
    matrix_to_json,
    partition_to_json,
    path_from_json,
    roots_from_json,
    scan_csv_row,
    scan_report_to_json,
    signature_to_json,
)
from algpaths.seeding import rng_from

R01 = validate_roots([0, 1])


def test_matrix_roundtrip_is_exact():
    rng = rng_from(0)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(a))))
    assert np.max(np.abs(back - a)) <= 1e-15  # json floats round-trip exactly
    np.testing.assert_array_equal(back, a)


def test_matrix_json_layout():
    obj = matrix_to_json(np.array([[1, 2j], [3, 4]], dtype=complex))
    assert obj["dim"] == 2
    assert obj["entries"] == [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [4.0, 0.0]]  # row-major


def test_signature_roundtrip():
    sig = ComponentSignature((1, 2, 0))
    obj = signature_to_json(sig)
    assert obj == {"ranks": [1, 2, 0], "dim": 3}  # the report keeps dim, derived from the ranks
    assert ComponentSignature(obj["ranks"]) == sig


def test_partition_and_witness_serialize():
    el = random_element((1, 2), R01, seed=3)
    part = spectral_resolution(el)
    obj = partition_to_json(part)
    assert len(obj["members"]) == 2
    w = line_direction(el)
    obj = line_witness_to_json(w)
    assert obj["certificate"] <= 1e-9


def test_scan_report_json_and_csv():
    rep = distance_scan(
        ComponentSignature((1, 1)), ComponentSignature((0, 2)), R01, budget=5, seed=2
    )
    obj = scan_report_to_json(rep)
    assert obj["restarts"] == 5 and obj["seed"] == 2
    row = scan_csv_row(rep)
    assert SCAN_CSV_HEADER.count(",") == row.count(",")
    assert row.startswith("1:1,0:2,0.0:1.0,2,2,5,")


def test_canonical_dumps_is_deterministic():
    a = canonical_dumps({"b": 1, "a": [1.5, {"z": 2, "y": 3}]})
    b = canonical_dumps({"a": [1.5, {"y": 3, "z": 2}], "b": 1})
    assert a == b
    assert a.endswith("\n")


# -- the writer against json's own text ------------------------------------------


def _oracle(obj) -> str:
    """What canonical_dumps writes, by definition."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _outcome(writer, obj):
    try:
        return writer(obj)
    except TypeError:
        return TypeError


def _writer_copy(**overrides):
    """canonical_dumps, with every function of its module rebuilt over its globals and ``overrides``."""
    scope = dict(vars(serialize), **overrides)
    for name, fn in vars(serialize).items():
        if isinstance(fn, types.FunctionType) and fn.__module__ == serialize.__name__:
            scope[name] = types.FunctionType(fn.__code__, scope, name, fn.__defaults__)
    return scope["canonical_dumps"]


_EDGE_FLOATS = [-0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e16, 1e-7, 1.7976931348623157e308,
                0.1, math.inf, -math.inf, math.nan]
_floats = st.floats() | st.sampled_from(_EDGE_FLOATS)
_ints = st.integers(min_value=-2**80, max_value=2**80)
_texts = st.text(max_size=6) | st.sampled_from(["é", "\u2028", '"\\', "\x00\n\t", "日本", "\U0001f600"])
_scalars = st.none() | st.booleans() | _ints | _floats | _floats.map(np.float64) | _texts
# [re, im] pair lists, mostly well-formed, so that both of the writer's list branches run
_pair = st.lists(_floats, min_size=2, max_size=2) | st.lists(_scalars, min_size=1, max_size=3)
_pairs = st.lists(st.lists(_floats, min_size=2, max_size=2), max_size=5) | st.lists(_pair, max_size=4)
_keys = st.one_of(_texts, _ints, _floats, st.booleans(), st.none())


def _containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(_texts, children, max_size=4)
            | st.dictionaries(_ints, children, max_size=4)
            | st.dictionaries(_floats, children, max_size=3)
            | st.dictionaries(_keys, children, max_size=3))


_reports = st.recursive(_scalars | _pairs, _containers, max_leaves=25)


@settings(deadline=None, max_examples=300)
@given(_reports)
def test_writer_matches_json_on_report_shaped_objects(obj):
    assert _outcome(canonical_dumps, obj) == _outcome(_oracle, obj)


@pytest.mark.parametrize("obj", [
    {10: "a", 9: "b", 100: "c"},  # sorted on the keys, not on their text
    {2.5: 0, 10.0: 1, -1: 2, True: 3},
    {None: [1.0, 2.0]},
    [[1.0, 2.0], [3, 4.0]],  # a pair that holds an int
    [[1.0, 2.0], [True, 4.0]],
    [[1.0, math.inf]], [[math.nan, 0.0]], [[-math.inf, -0.0]],
    [[1.0, 2.0, 3.0]], [[1.0, 2.0], [1.0, 2.0, 3.0]], [[1.0], [2.0]],
    [(1.0, 2.0)], [[np.float64(1.0), 2.0]], [[1.0, 2.0], "x"], [[-0.0, 5e-324], [1e16, 1e-320]],
    [], {}, [[]], [{}], "", "é\n", 5e-324, -0.0, 2**100, None, True,
])
def test_writer_matches_json_on_fixed_cases(obj):
    assert canonical_dumps(obj) == _oracle(obj)


@pytest.mark.parametrize("obj", [
    np.int64(1), [np.int64(1)], {1, 2}, {"a": {1, 2}}, np.bool_(True), b"x", object(),
    {1: 0, "a": 1},  # keys that do not sort
    {(1, 2): 0}, {"a": {np.int64(1): 0}},
])
def test_writer_raises_type_error_where_json_does(obj):
    with pytest.raises(TypeError):
        _oracle(obj)
    with pytest.raises(TypeError):
        canonical_dumps(obj)


def test_a_writer_that_sorts_the_converted_keys_fails_the_oracle():
    trap = {10: "a", 9: "b"}
    assert _writer_copy()(trap) == canonical_dumps(trap) == _oracle(trap)
    text_sorted = _writer_copy(sorted=lambda items: sorted(items, key=lambda kv: str(kv[0])))
    assert text_sorted(trap) != _oracle(trap)
    # and the random objects of the property above find it
    find(_reports, lambda obj: _outcome(text_sorted, obj) != _outcome(_oracle, obj),
         settings=settings(database=None, max_examples=2000, derandomize=True))


# -- every report the CLI writes -------------------------------------------------


def _bare(entries):
    a = np.asarray(entries, dtype=complex)
    return {"dim": a.shape[0], "entries": [[z.real, z.imag] for z in a.reshape(-1)]}


def _cli_reports(tmp_path):
    """(argv, report file) of one report of each subcommand, in an order whose inputs exist."""
    t = lambda name: str(tmp_path / f"{name}.json")  # noqa: E731
    (tmp_path / "p.json").write_text(json.dumps(_bare([[1, 0], [0, 0]])))
    (tmp_path / "q.json").write_text(json.dumps(_bare([[1, 0.5], [0, 0]])))
    near = ["--a", t("p"), "--b", t("q"), "--roots", "0,1"]
    sample = ["sample", "--roots", "0,1,2", "--sig", "1,2,1", "--seed"]
    runs = [
        ("e1", sample + ["1"]), ("e2", sample + ["2"]),
        ("s1", sample + ["1", "--self-adjoint"]), ("s2", sample + ["2", "--self-adjoint"]),
        ("decompose", ["decompose", "--a", t("e1")]),
        ("line", ["line", "--a", t("e1")]),
        ("exp-local", ["connect", *near, "--method", "exp-local"]),
        ("exp-global", ["connect", "--a", t("e1"), "--b", t("e2"), "--method", "exp-global"]),
        ("selfadjoint", ["connect", "--a", t("s1"), "--b", t("s2"), "--method", "selfadjoint"]),
        ("polygonal", ["connect", *near, "--method", "polygonal"]),
        ("poly", ["connect", *near, "--method", "poly", "--dmax", "3", "--budget", "4"]),
        ("mindeg", ["mindeg", *near, "--seed", "0", "--dmax", "3", "--budget", "4"]),
        ("distance", ["distance", "--roots", "0,1", "--sig", "1,2", "--sig2", "2,1", "--seed", "3",
                      "--budget", "10"]),
        ("suite", ["suite", "--seed", "1", "--samples", "2", "--budget", "10"]),
    ]
    for method in ("exp-local", "exp-global", "selfadjoint", "polygonal", "poly"):
        roots = ["--roots", "0,1"] if method == "poly" else []  # a polynomial path holds no roots
        runs.append((f"verify-{method}", ["verify", "--path", t(method), *roots]))
    return [(argv + ["--out", t(name)], t(name)) for name, argv in runs]


def test_every_report_the_cli_writes_is_the_oracle_text(tmp_path, monkeypatch):
    written = []

    def recording(obj):
        written.append(obj)
        return canonical_dumps(obj)

    monkeypatch.setattr(serialize, "canonical_dumps", recording)
    runs = _cli_reports(tmp_path)
    assert {argv[0] for argv, _ in runs} == {
        "sample", "decompose", "line", "connect", "verify", "distance", "mindeg", "suite"}
    for argv, out in runs:
        written.clear()
        assert main(argv) == 0, argv
        assert len(written) == 1
        with open(out, encoding="utf-8") as fh:
            assert fh.read() == _oracle(written[0]), argv


# -- matrices on the wire --------------------------------------------------------


def _old_matrix_to_json(a):
    """The per-entry comprehension that matrix_to_json replaced: its reference."""
    a = np.asarray(a, dtype=complex)
    return {"dim": int(a.shape[0]), "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)]}


def _adversarial(m, seed):
    rng = rng_from(seed)
    values = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308, 1e16, -1e300,
                       1.7976931348623157e308, 0.1, 1 / 3, 2.0**-1074 * 3])
    flat = rng.choice(values, size=2 * m * m) * rng.choice([1.0, -1.0], size=2 * m * m)
    return flat.view(complex).reshape(m, m)


@pytest.mark.parametrize("m, seed", [(1, 0), (2, 1), (3, 2), (8, 3)])
def test_matrix_wire_is_bit_exact_on_adversarial_entries(m, seed):
    a = _adversarial(m, seed)
    # also arrays that are not C-ordered, one a strided view
    for x in (a, a.T, np.asfortranarray(a), np.tile(a, (2, 2))[::2, ::2]):
        obj = matrix_to_json(x)
        assert repr(obj) == repr(_old_matrix_to_json(x))  # repr tells -0.0 from 0.0
        back = matrix_from_json(json.loads(json.dumps(obj)))
        assert back.dtype == np.complex128 and back.shape == x.shape
        np.testing.assert_array_equal(back.view(np.uint64), np.ascontiguousarray(x).view(np.uint64))


def test_matrix_and_roots_accept_integer_and_bool_entries():
    entries = [[1, 0], [True, -2], [False, 0.5], [3, 2**63]]
    expected = np.array([complex(re, im) for re, im in entries]).reshape(2, 2)  # the old reading
    np.testing.assert_array_equal(matrix_from_json({"dim": 2, "entries": entries}), expected)
    assert roots_from_json([[0, 0], [True, 1]]).roots == (0j, 1 + 1j)


_M1 = {"dim": 1, "entries": [[1.0, 0.0]]}
_ELEMENT = {"matrix": _M1, "roots": [[0.0, 0.0], [1.0, 0.0]]}
_ELEMENT_2 = {"matrix": {"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
              "roots": [[0.0, 0.0], [1.0, 0.0]]}


@pytest.mark.parametrize("read, obj, message", [
    (matrix_from_json, {"dim": 1, "entries": [[1.0, 0.0, 3.0]]}, "[re, im] number pairs"),
    (matrix_from_json, {"dim": 1, "entries": [["1", 0.0]]}, "[re, im] number pairs"),
    (matrix_from_json, {"dim": 1, "entries": [[None, 0.0]]}, "[re, im] number pairs"),
    (matrix_from_json, {"dim": 1, "entries": [[10**400, 0.0]]}, "[re, im] number pairs"),
    (matrix_from_json, {"dim": 1, "entries": [{"re": 1.0, "im": 0.0}]}, "[re, im] number pairs"),
    (matrix_from_json, {"dim": 1, "entries": "ab"}, "[re, im] number pairs"),
    (matrix_from_json, {"dim": 2, "entries": [[1.0, 0.0], [1.0]]}, "[re, im] number pairs"),
    (matrix_from_json, {"dim": 1, "entries": 5}, "[re, im] number pairs"),
    (matrix_from_json, {"dim": 0, "entries": []}, "dim must be an integer >= 1, got 0"),
    (matrix_from_json, {"dim": "x", "entries": [[1.0, 0.0]]}, "dim must be an integer >= 1, got 'x'"),
    (matrix_from_json, {"dim": math.inf, "entries": [[1.0, 0.0]]}, "dim must be an integer >= 1, got inf"),
    (matrix_from_json, {"entries": [[1.0, 0.0]]}, "missing field 'dim'"),
    (matrix_from_json, [1, 2], "missing field 'dim'"),
    (roots_from_json, [[1.0]], "roots must be a non-empty list"),
    (roots_from_json, [], "roots must be a non-empty list"),
    (element_from_json, {"matrix": _M1}, "missing field 'roots'"),
    (element_from_json, "x", "missing field 'matrix'"),
    (path_from_json, {"kind": "exp"}, "missing field 'base'"),
    (path_from_json, {"base": _ELEMENT}, "missing field 'kind'"),
    (path_from_json, {"kind": "exp", "base": _ELEMENT, "generators": 5}, "'generators' must be a list"),
    (path_from_json, {"kind": "polygonal", "breakpoints": [], "certificates": []},
     "breakpoints must be one or more"),
    (path_from_json, {"kind": "polygonal", "breakpoints": [_ELEMENT, _ELEMENT_2], "certificates": [0.0]},
     "breakpoints must be one or more matrices of one size"),
    (path_from_json, {"kind": "exp", "base": _ELEMENT_2, "generators": [_M1], "self_adjoint_mode": False},
     "generators and base must be one or more matrices of one size"),
    (path_from_json, {"kind": "polygonal", "breakpoints": [_ELEMENT], "certificates": ["x"]},
     "certificates must be a number, got 'x'"),
    (path_from_json, {"kind": "polynomial", "coeffs": [], "certificate": 0.0, "self_adjoint": False},
     "coeffs must be one or more"),
    (path_from_json, {"kind": "polynomial", "coeffs": [_M1, {"dim": 2, "entries": [[0.0, 0.0]] * 4}],
                      "certificate": 0.0, "self_adjoint": False},
     "coeffs must be one or more matrices of one size"),
    (path_from_json, {"kind": "polynomial", "coeffs": [_M1], "certificate": None, "self_adjoint": False},
     "certificate must be a number, got None"),
    (matrix_from_json, {"dim": 2.5, "entries": [[1.0, 0.0]] * 4}, "dim must be an integer >= 1, got 2.5"),
    (matrix_from_json, {"dim": 1.0, "entries": [[1.0, 0.0]]}, "dim must be an integer >= 1, got 1.0"),
    (matrix_from_json, {"dim": "2", "entries": [[1.0, 0.0]] * 4}, "dim must be an integer >= 1, got '2'"),
    (matrix_from_json, {"dim": True, "entries": [[1.0, 0.0]]}, "dim must be an integer >= 1, got True"),
    # a mode flag is JSON true or false: "false" used to read as true, null, 0, [] and {} as false
    *((path_from_json, {"kind": "exp", "base": _ELEMENT, "generators": [], "self_adjoint_mode": flag},
       f"field 'self_adjoint_mode' must be true or false, got {type(flag).__name__}")
      for flag in ("false", "no", None, 0, 1, [], {})),
    *((path_from_json, {"kind": "polynomial", "coeffs": [_M1], "certificate": 0.0, "self_adjoint": flag},
       f"field 'self_adjoint' must be true or false, got {type(flag).__name__}")
      for flag in ("false", None, 0)),
    (path_from_json, {"kind": "exp", "base": _ELEMENT, "generators": []}, "missing field 'self_adjoint_mode'"),
])
def test_malformed_wire_objects_are_preconditions(read, obj, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        read(obj)
