"""Independent output checks.

Each check recomputes what a report claims with plain numpy/scipy, never with
the program's own certifiers, and returns a list of problems (empty when the
operation is correct).  They run outside the timed part of a run.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Ten times the program's default residual tolerance (1e-9): the checks judge
# the same arithmetic independently, not more strictly.
TOL = 1e-8
SCAN_FLOOR = 1.0 - 1e-6
ANTIPODAL_FLOOR = 1e-3
MAX_POSITIVE_DEGREE = 3


def matrix(obj: dict) -> np.ndarray:
    m = int(obj["dim"])
    return np.array([complex(re, im) for re, im in obj["entries"]]).reshape(m, m)


def norm2(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def defining_residual(x: np.ndarray, roots) -> float:
    """``||prod (x - l)||`` relative to the magnitude ``prod (||x|| + |l|)``."""
    eye = np.eye(x.shape[0])
    value = eye.astype(complex)
    scale = 1.0
    nx = norm2(x)
    for r in roots:
        value = value @ (x - r * eye)
        scale *= nx + abs(r)
    return norm2(value) / max(1.0, scale)


def eigen_ranks(x: np.ndarray, roots) -> list[int]:
    """How many eigenvalues sit nearest each root."""
    roots = np.array(roots, dtype=complex)
    nearest = np.argmin(np.abs(np.linalg.eigvals(x)[:, None] - roots[None, :]), axis=1)
    return [int(np.count_nonzero(nearest == i)) for i in range(roots.size)]


def _member(x, roots, what: str) -> list[str]:
    res = defining_residual(x, roots)
    return [] if res <= TOL else [f"{what}: relative residual {res:.2e}"]


def _close(x, y, what: str) -> list[str]:
    err = norm2(x - y)
    return [] if err <= TOL * (1.0 + norm2(y)) else [f"{what}: off by {err:.2e}"]


# -- per-workload checks ---------------------------------------------------------------


def check_scan(op, code: int, report: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    res = report["result"]
    x, y = (matrix(w["matrix"]) for w in res["witness"])
    problems = _member(x, op.roots, "witness x") + _member(y, op.roots, "witness y")
    dist = norm2(x - y)
    if abs(dist - res["best_distance"]) > 1e-9 * (1.0 + dist):
        problems.append(f"best_distance {res['best_distance']} but witnesses are {dist} apart")
    if (eigen_ranks(x, op.roots) != res["sig1"]["ranks"]
            or eigen_ranks(y, op.roots) != res["sig2"]["ranks"]):
        problems.append("witnesses are not on the requested components")
    if op.data.get("floor_checked") and res["best_distance"] < SCAN_FLOOR:
        problems.append(f"best_distance {res['best_distance']} below {SCAN_FLOOR}")
    return problems


def exp_value(path: dict, t: float) -> np.ndarray:
    """``g(t) a g(t)^-1`` rebuilt with ``scipy.linalg.expm``."""
    a = matrix(path["base"]["matrix"])
    sa = path["self_adjoint_mode"]
    g = np.eye(a.shape[0], dtype=complex)
    for c in (matrix(c) for c in path["generators"]):
        g = scipy.linalg.expm((1j * c if sa else c) * t) @ g
    if sa:
        return g @ a @ g.conj().T
    return np.linalg.solve(g.T, (g @ a).T).T


def check_connect(op, code: int, report: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    a, b = op.data["a"], op.data["b"]
    path = report["result"]["path"]
    problems = []
    if path["kind"] == "exp":
        problems += _close(matrix(path["base"]["matrix"]), a, "base")
        problems += _close(exp_value(path, 1.0), b, "x(1)")
        for t in (0.25, 0.5, 0.75):
            problems += _member(exp_value(path, t), op.roots, f"x({t})")
    elif path["kind"] == "polygonal":
        pts = [matrix(bp["matrix"]) for bp in path["breakpoints"]]
        problems += _close(pts[0], a, "first breakpoint") + _close(pts[-1], b, "last breakpoint")
        for k, x in enumerate(pts):
            problems += _member(x, op.roots, f"breakpoint {k}")
        for k, (u, v) in enumerate(zip(pts, pts[1:])):
            problems += _member(0.5 * (u + v), op.roots, f"midpoint of segment {k}")
    else:
        problems.append(f"unexpected path kind {path['kind']}")
    return problems


_VERIFY_KIND = {"exp": "exponential", "polygonal": "polygonal", "polynomial": "polynomial"}


def check_verify(op, code: int, report: dict, connect_report: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    path = connect_report["result"]["path"]
    res = report["result"]
    problems = []
    if res["kind"] != _VERIFY_KIND[path["kind"]]:
        problems.append(f"verified kind {res['kind']} for a {path['kind']} path")
    if path["kind"] == "polygonal" and len(res["segment_certificates"]) != len(path["certificates"]):
        problems.append("segment count changed on verification")
    return problems


def check_mindeg(op, code: int, report: dict) -> list[str]:
    res = report["result"]
    if op.method == "negative":
        problems = [] if code == 2 else [f"exit code {code}, expected 2"]
        if res["success"]:
            problems.append("a certified path was reported")
        if sorted(res["residual_by_degree"], key=int) != [str(d) for d in range(1, 5)]:
            problems.append("not every degree up to --dmax was searched")
        if op.data.get("antipodal"):
            floor = min(res["residual_by_degree"].values())
            if floor < ANTIPODAL_FLOOR:
                problems.append(f"antipodal floor {floor:.2e} below {ANTIPODAL_FLOOR}")
        return problems
    if code != 0:
        return [f"exit code {code}"]
    if not res["success"] or res["degree"] > MAX_POSITIVE_DEGREE:
        return [f"degree {res['degree']}, success {res['success']}"]
    coeffs = [matrix(c) for c in res["path"]["coeffs"]]
    problems = _close(coeffs[0], op.data["a"], "x(0)") + _close(sum(coeffs), op.data["b"], "x(1)")
    for t in (0.25, 0.5, 0.75, 2.0):
        x = sum(c * t**k for k, c in enumerate(coeffs))
        problems += _member(x, op.roots, f"x({t})")
    if res["path"]["self_adjoint"]:
        herm = max(norm2(c - c.conj().T) for c in coeffs)
        if herm > TOL:
            problems.append(f"coefficients not Hermitian: {herm:.2e}")
    return problems


def check_element(op, result) -> list[str]:
    a = op.data["a"]
    m = a.shape[0]
    roots = op.roots
    members = result["partition"].members
    eye = np.eye(m)
    # the interpolation idempotents amplify rounding by (||a|| + max|l|) / gap per factor
    gap = min(abs(x - y) for i, x in enumerate(roots) for y in roots[i + 1:])
    grow = max(1.0, (norm2(a) + max(abs(r) for r in roots)) / gap) ** (len(roots) - 1)
    tol = TOL * (1.0 + norm2(a)) * grow
    problems = []
    checks = [("sum to one", sum(members) - eye),
              ("reconstruction", sum(r * e for r, e in zip(roots, members)) - a)]
    for i, e in enumerate(members):
        checks.append((f"idempotency[{i}]", e @ e - e))
        checks += [(f"annihilation[{i},{j}]", e @ f) for j, f in enumerate(members) if j != i]
    for what, err in checks:
        # the Frobenius norm bounds the operator norm and is far cheaper
        if np.linalg.norm(err) > tol:
            problems.append(f"{what}: {np.linalg.norm(err):.2e} > {tol:.2e}")
    traces = [int(round(np.trace(e).real)) for e in members]
    expected = list(op.data["ranks"])
    if traces != expected or list(result["signature"].ranks) != expected:
        problems.append(f"ranks {traces} / {list(result['signature'].ranks)}, generated {expected}")
    if result["isolated"] != any(r == m for r in expected):
        problems.append("isolation verdict is wrong")
    b = result["witness"].direction
    if norm2(b) == 0.0:
        problems.append("line direction is zero")
    for t in (1.0, 1e6):
        problems += _member(a + t * b, roots, f"a + {t:g} b")
    return problems

