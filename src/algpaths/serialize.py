"""JSON and CSV wire formats.

Matrices travel as row-major ``[re, im]`` pairs with an explicit ``dim``
field; root systems as lists of ``[re, im]`` pairs.  Round-trips reproduce
every entry to full double precision (json keeps the shortest exact repr).
Deserialized elements and paths are re-certified by their consumers, so a
tampered file fails loudly rather than silently; a matrix with the wrong
number of entries or a non-finite one, or an unknown path kind, raises
:class:`PreconditionError` here.
"""

from __future__ import annotations

import json

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
    "signature_from_json",
    "line_witness_to_json",
    "scan_report_to_json",
    "path_to_json",
    "path_from_json",
    "SCAN_CSV_HEADER",
    "scan_csv_row",
    "canonical_dumps",
]


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, newline end."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def matrix_to_json(a: np.ndarray) -> dict:
    a = as_matrix(a)
    return {
        "dim": int(a.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    m = int(obj["dim"])
    flat = np.array([complex(re, im) for re, im in obj["entries"]])
    if flat.size != m * m:
        raise PreconditionError(f"a {m}x{m} matrix needs {m * m} entries, got {flat.size}")
    if not np.isfinite(flat).all():
        raise PreconditionError("matrix entries must be finite")
    return flat.reshape(m, m)


def roots_to_json(roots: RootSystem) -> list:
    return [[float(r.real), float(r.imag)] for r in roots.roots]


def roots_from_json(obj) -> RootSystem:
    return validate_roots([complex(re, im) for re, im in obj])


def element_to_json(el: AlgebraicElement) -> dict:
    return {
        "matrix": matrix_to_json(el.a),
        "roots": roots_to_json(el.roots),
        "residual": float(el.residual),
        "self_adjoint": bool(el.self_adjoint),
    }


def element_from_json(obj: dict, cfg: ToleranceConfig = ToleranceConfig()) -> AlgebraicElement:
    """Rebuild and re-certify an element; the stored residual is advisory."""
    return certify(matrix_from_json(obj["matrix"]), roots_from_json(obj["roots"]), cfg)


def partition_to_json(part: PartitionOfUnity) -> dict:
    return {
        "roots": roots_to_json(part.roots),
        "members": [matrix_to_json(e) for e in part.members],
        "self_adjoint": bool(part.self_adjoint),
        "worst_residual": float(part.worst_residual),
    }


def signature_to_json(sig: ComponentSignature) -> dict:
    return {"ranks": list(sig.ranks), "dim": int(sig.dim)}


def signature_from_json(obj: dict) -> ComponentSignature:
    return ComponentSignature(ranks=tuple(obj["ranks"]), dim=int(obj["dim"]))


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


def path_from_json(obj: dict, cfg: ToleranceConfig = ToleranceConfig()):
    kind = obj["kind"]
    if kind == "exp":
        return ExpSimilarityPath(
            base=element_from_json(obj["base"], cfg),
            generators=tuple(matrix_from_json(c) for c in obj["generators"]),
            self_adjoint_mode=bool(obj["self_adjoint_mode"]),
        )
    if kind == "polygonal":
        return PolygonalPath(
            breakpoints=tuple(element_from_json(b, cfg) for b in obj["breakpoints"]),
            certificates=tuple(float(c) for c in obj["certificates"]),
        )
    if kind == "polynomial":
        coeffs = np.stack([matrix_from_json(c) for c in obj["coeffs"]])
        return PolynomialPath(
            x=MatrixPolynomial(coeffs, normalized=False),
            certificate=float(obj["certificate"]),
            self_adjoint=bool(obj["self_adjoint"]),
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
