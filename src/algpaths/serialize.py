"""JSON and CSV wire formats.

Matrices travel as row-major ``[re, im]`` pairs with an explicit ``dim``
field; root systems as lists of ``[re, im]`` pairs.  Round-trips reproduce
every entry bit for bit (reports keep the shortest exact repr).
Deserialized elements and paths are re-certified by their consumers, so a
tampered file fails loudly rather than silently.  A malformed file raises
:class:`PreconditionError` here: a missing field or a wrong container, a
``dim`` that is not an integer ``>= 1``, a matrix with the wrong number of
entries or a non-finite one, pairs that are not ``[re, im]`` numbers (bools
and integers count as numbers), an empty root list, an unknown path kind, and
a path's mode flag that is not JSON ``true`` or ``false``.

Reports are written by :func:`canonical_dumps`, byte for byte the text of
``json.dumps(obj, sort_keys=True, indent=2) + "\n"``.
"""

from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .algebraic import AlgebraicElement, PartitionOfUnity, RootSystem, certify, validate_roots
from .components import ComponentSignature, DistanceScanReport, LineWitness
from .errors import PreconditionError
from .matkernel import MatrixPolynomial, ToleranceConfig, as_matrix
from .paths import ExpSimilarityPath, PolygonalPath, PolynomialPath

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "roots_to_json",
    "roots_from_json",
    "element_to_json",
    "element_from_json",
    "partition_to_json",
    "signature_to_json",
    "line_witness_to_json",
    "scan_report_to_json",
    "path_to_json",
    "path_from_json",
    "SCAN_CSV_HEADER",
    "scan_csv_row",
    "canonical_dumps",
]


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline end.

    The text is ``json.dumps(obj, sort_keys=True, indent=2) + "\n"``, the
    tests' oracle; ``indent`` sends json to its pure-Python encoder, and this
    emitter writes the same bytes in less than half the time.
    """
    return _text(obj, "\n") + "\n"


def _scalar(x) -> str | None:
    """json's text for None, a bool, an int or a float; None for any other type."""
    if x is None:
        return "null"
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    return None


def _key(key) -> str:
    text = key if isinstance(key, str) else _scalar(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return _quote(text)


def _float_pairs(items) -> list | None:
    """The values of a list of ``[x, y]`` lists of finite floats, flattened; else None."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    flat = list(chain.from_iterable(items))
    if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
        return None
    return flat


def _text(obj, nl: str) -> str:
    """The JSON text of ``obj``; ``nl`` is a newline and the indent of the line it starts on."""
    if isinstance(obj, str):
        return _quote(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = _float_pairs(obj)
        if flat is not None:  # [re, im] pairs, the bulk of every report: one template per pair
            reprs = iter(map(float.__repr__, flat))
            pairs = map(("," + inner + "  ").join, zip(reprs, reprs))
            body = (inner + "]," + inner + "[" + inner + "  ").join(pairs)
            return "[" + inner + "[" + inner + "  " + body + inner + "]" + nl + "]"
        return "[" + inner + ("," + inner).join([_text(x, inner) for x in obj]) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # sorted on the original keys, as json does: 9 before 10
        items = [_key(k) + ": " + _text(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    text = _scalar(obj)
    if text is None:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
    return text


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(as_matrix(a))
    return {"dim": int(a.shape[0]), "entries": a.reshape(-1).view(np.float64).reshape(-1, 2).tolist()}


def _field(obj, key):
    try:
        return obj[key]
    except (KeyError, TypeError):  # TypeError: obj is not an object
        raise PreconditionError(f"missing field {key!r}") from None


def _typed(obj, key, kind: type):
    """``obj[key]``, a JSON list or a JSON ``true``/``false`` flag (not ``"false"``, 0 or null)."""
    if not isinstance(value := _field(obj, key), kind):
        what = "true or false" if kind is bool else "a list"
        raise PreconditionError(f"field {key!r} must be {what}, got {type(value).__name__}")
    return value


def _complex_pairs(pairs, what: str) -> list:
    """A non-empty list of ``[re, im]`` numbers as complex numbers, bit for bit."""
    try:
        values = [complex(re, im) for re, im in pairs]
    except (TypeError, ValueError, OverflowError):  # not pairs, or not numbers
        values = []
    if not values:
        raise PreconditionError(f"{what} must be a non-empty list of [re, im] number pairs")
    return values


def _number(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise PreconditionError(f"{what} must be a number, got {value!r}") from None


def matrix_from_json(obj: dict) -> np.ndarray:
    m = _field(obj, "dim")
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:  # a JSON integer, not 2.5, "2" or true
        raise PreconditionError(f"matrix dim must be an integer >= 1, got {m!r}")
    flat = np.array(_complex_pairs(_field(obj, "entries"), "matrix entries"))
    if flat.size != m * m:
        raise PreconditionError(f"a {m}x{m} matrix needs {m * m} entries, got {flat.size}")
    if not np.isfinite(flat).all():
        raise PreconditionError("matrix entries must be finite")
    return flat.reshape(m, m)


def roots_to_json(roots: RootSystem) -> list:
    return [[float(r.real), float(r.imag)] for r in roots.roots]


def roots_from_json(obj) -> RootSystem:
    return validate_roots(_complex_pairs(obj, "roots"))


def element_to_json(el: AlgebraicElement) -> dict:
    return {
        "matrix": matrix_to_json(el.a),
        "roots": roots_to_json(el.roots),
        "residual": float(el.residual),
        "self_adjoint": bool(el.self_adjoint),
    }


def element_from_json(obj: dict, cfg: ToleranceConfig = ToleranceConfig()) -> AlgebraicElement:
    """Rebuild and re-certify an element; the stored residual is advisory."""
    return certify(matrix_from_json(_field(obj, "matrix")), roots_from_json(_field(obj, "roots")), cfg)


def partition_to_json(part: PartitionOfUnity) -> dict:
    return {
        "roots": roots_to_json(part.roots),
        "members": [matrix_to_json(e) for e in part.members],
        "self_adjoint": bool(part.self_adjoint),
        "worst_residual": float(part.worst_residual),
    }


def signature_to_json(sig: ComponentSignature) -> dict:
    return {"ranks": list(sig.ranks), "dim": int(sig.dim)}


def line_witness_to_json(w: LineWitness) -> dict:
    return {
        "base": element_to_json(w.base),
        "direction": matrix_to_json(w.direction),
        "certificate": float(w.certificate),
    }


def scan_report_to_json(r: DistanceScanReport) -> dict:
    return {
        "sig1": signature_to_json(r.sig_pair[0]),
        "sig2": signature_to_json(r.sig_pair[1]),
        "best_distance": float(r.best_distance),
        "witness": [element_to_json(r.witness[0]), element_to_json(r.witness[1])],
        "restarts": int(r.restarts),
        "seed": int(r.seed),
        "conjecture_bound": float(r.conjecture_bound),
        "self_adjoint": bool(r.self_adjoint),
    }


def path_to_json(path) -> dict:
    if isinstance(path, ExpSimilarityPath):
        return {
            "kind": "exp",
            "base": element_to_json(path.base),
            "generators": [matrix_to_json(c) for c in path.generators],
            "self_adjoint_mode": bool(path.self_adjoint_mode),
        }
    if isinstance(path, PolygonalPath):
        return {
            "kind": "polygonal",
            "breakpoints": [element_to_json(b) for b in path.breakpoints],
            "certificates": [float(c) for c in path.certificates],
        }
    if isinstance(path, PolynomialPath):
        return {
            "kind": "polynomial",
            "coeffs": [matrix_to_json(c) for c in path.x.coeffs],
            "certificate": float(path.certificate),
            "self_adjoint": bool(path.self_adjoint),
        }
    raise TypeError(f"not a path: {type(path)!r}")


def _one_size(matrices: list, what: str) -> list:
    if not matrices or len({a.shape for a in matrices}) != 1:
        raise PreconditionError(f"a path's {what} must be one or more matrices of one size")
    return matrices


def path_from_json(obj: dict, cfg: ToleranceConfig = ToleranceConfig()):
    kind = _field(obj, "kind")
    if kind == "exp":
        base = element_from_json(_field(obj, "base"), cfg)
        generators = [matrix_from_json(c) for c in _typed(obj, "generators", list)]
        _one_size([base.a, *generators], "generators and base")  # no generator: the constant path
        return ExpSimilarityPath(
            base=base,
            generators=tuple(generators),
            self_adjoint_mode=_typed(obj, "self_adjoint_mode", bool),
        )
    if kind == "polygonal":
        breakpoints = [element_from_json(b, cfg) for b in _typed(obj, "breakpoints", list)]
        _one_size([b.a for b in breakpoints], "breakpoints")
        return PolygonalPath(
            breakpoints=tuple(breakpoints),
            certificates=tuple(_number(c, "certificates") for c in _typed(obj, "certificates", list)),
        )
    if kind == "polynomial":
        coeffs = _one_size([matrix_from_json(c) for c in _typed(obj, "coeffs", list)], "coeffs")
        return PolynomialPath(
            x=MatrixPolynomial(np.stack(coeffs)),
            certificate=_number(_field(obj, "certificate"), "certificate"),
            self_adjoint=_typed(obj, "self_adjoint", bool),
        )
    raise PreconditionError(f"unknown path kind {kind!r}")


SCAN_CSV_HEADER = "sig1,sig2,roots,m,seed,budget,best_distance,bound"


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    return f"{z.real!r}{z.imag:+}j"


def scan_csv_row(r: DistanceScanReport) -> str:
    sig1 = ":".join(str(k) for k in r.sig_pair[0].ranks)
    sig2 = ":".join(str(k) for k in r.sig_pair[1].ranks)
    roots = ":".join(_fmt_complex(z) for z in r.witness[0].roots.roots)
    return (
        f"{sig1},{sig2},{roots},{r.sig_pair[0].dim},{r.seed},{r.restarts},"
        f"{r.best_distance!r},{r.conjecture_bound!r}"
    )
