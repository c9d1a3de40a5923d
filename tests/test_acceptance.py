"""Acceptance battery: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
Everything is seeded; sample counts and budgets are fixed here, tolerances are
asserted exactly as stated.
"""

import json

import numpy as np
import pytest

from algpaths.algebraic import certify, random_element, spectral_resolution, validate_roots
from algpaths.cli import main as cli_main
from algpaths.components import ComponentSignature, distance_scan, is_isolated, line_direction, signature
from algpaths.errors import NotLocallyClose
from algpaths.matkernel import (
    MatrixPolynomial,
    mat_exp,
    mat_log_near_identity,
    matpoly_compose_p,
    operator_norm,
    poly_eval_scalar_coeffs,
)
from algpaths.paths import (
    connect_exp_global,
    connect_exp_local,
    connect_polygonal,
    connect_selfadjoint,
    min_degree_search,
    verify_path,
)
from algpaths.seeding import rng_from

ROOT_SYSTEMS = [
    validate_roots([0, 1]),
    validate_roots([0, 1, 2]),
    validate_roots([1, 1j, -1]),
    validate_roots([0, 1, 2.5, -1.5]),
]
R01 = validate_roots([0, 1])


def _pass(n, msg):
    print(f"\nPASS criterion {n}: {msg}")


def _random_signature(rng, n, m, nonzero_min=1):
    while True:
        cuts = sorted(rng.integers(0, m + 1, size=n - 1).tolist()) if n > 1 else []
        ranks = tuple(int(r) for r in np.diff([0] + cuts + [m]))
        if sum(1 for r in ranks if r > 0) >= min(nonzero_min, m):
            return ranks


def _conjugate_partner(el, delta, rng):
    m = el.dim
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    z *= delta / (np.linalg.norm(z) * (1.0 + operator_norm(el.a)))
    g = np.eye(m, dtype=complex) + z
    return certify(np.linalg.solve(g.T, (g @ el.a).T).T, el.roots)


def _partition_matcher(a, b):
    w = np.zeros((a.dim, a.dim), dtype=complex)
    for e, f in zip(spectral_resolution(a).members, spectral_resolution(b).members):
        w = w + f @ e
    return w


def test_criterion_1_spectral_resolution_invariants():
    total = 0
    worst = 0.0
    sa_worst = 0.0
    k = 0
    while total < 1000:
        k += 1
        rng = rng_from(1000, k)
        roots = ROOT_SYSTEMS[k % 4]
        m = int(rng.integers(2, 17))
        ranks = _random_signature(rng, roots.n, m)
        sa = all(r.imag == 0.0 for r in roots.roots) and bool(rng.integers(0, 2))
        el = random_element(ranks, roots, seed=(1000, k, 1), self_adjoint=sa)
        part = spectral_resolution(el)
        a = el.a
        scale = 1.0 + operator_norm(a)
        eye = np.eye(m)
        checks = [
            operator_norm(sum(part.members) - eye),
            operator_norm(sum(r * e for r, e in zip(roots.roots, part.members)) - a),
        ]
        for i, e in enumerate(part.members):
            checks.append(operator_norm(e @ e - e))
            checks.append(operator_norm(e @ a - a @ e))
            for j, f in enumerate(part.members):
                if i != j:
                    checks.append(operator_norm(e @ f))
        worst = max(worst, max(checks) / scale)
        if sa:
            sa_worst = max(
                sa_worst, max(operator_norm(e - e.conj().T) for e in part.members) / scale
            )
        total += 1
    assert worst <= 1e-9
    assert sa_worst <= 1e-9
    _pass(1, f"{total} resolutions; worst scaled residual {worst:.2e}, "
             f"self-adjoint hermiticity {sa_worst:.2e}")


def test_criterion_2_exponential_paths():
    # local: pairs filtered to ||w - 1|| <= 0.9 must all connect
    local_done = 0
    worst_local = 0.0
    k = 0
    while local_done < 100:
        k += 1
        rng = rng_from(2000, k)
        roots = ROOT_SYSTEMS[k % 2]  # n <= 3
        m = int(rng.integers(2, 9))
        ranks = _random_signature(rng, roots.n, m)
        a = random_element(ranks, roots, seed=(2000, k, 1))
        delta = 0.2
        b = None
        for _ in range(12):
            cand = _conjugate_partner(a, delta, rng)
            if operator_norm(_partition_matcher(a, cand) - np.eye(m)) <= 0.9:
                b = cand
                break
            delta /= 4.0
        assert b is not None
        path = connect_exp_local(a, b)
        cert = verify_path(path, expected_endpoint=b.a)
        worst_local = max(worst_local, cert.endpoint_error, cert.worst_membership)
        local_done += 1
    assert worst_local <= 1e-9

    worst_global = 0.0
    for k in range(100):
        rng = rng_from(2100, k)
        roots = ROOT_SYSTEMS[k % 2]
        m = int(rng.integers(2, 9))
        ranks = _random_signature(rng, roots.n, m)
        a = random_element(ranks, roots, seed=(2100, k, 1))
        b = random_element(ranks, roots, seed=(2100, k, 2))
        path = connect_exp_global(a, b)
        cert = verify_path(path, expected_endpoint=b.a)
        worst_global = max(worst_global, cert.endpoint_error, cert.worst_membership)
    assert worst_global <= 1e-9
    _pass(2, f"100 local paths (worst {worst_local:.2e}) and 100 global paths "
             f"(worst {worst_global:.2e}), 100 membership samples each")


def test_criterion_3_polygonal_two_segments():
    worst = 0.0
    done = 0
    k = 0
    while done < 100:
        k += 1
        rng = rng_from(3000, k)
        m = int(rng.integers(2, 7))
        r = int(rng.integers(1, m))
        e = random_element((m - r, r), R01, seed=(3000, k, 1))
        f = _conjugate_partner(e, 0.25, rng)
        if operator_norm(e.a - f.a) >= 1.0:
            continue
        path = connect_polygonal(e, f, seed=k)
        assert path.segments == 2
        worst = max(worst, max(path.certificates))
        done += 1
    assert worst <= 1e-9
    _pass(3, f"100 idempotent pairs with ||e - f|| < 1: all 2-segment, "
             f"worst coefficient {worst:.2e}")


def test_criterion_4_degree_bound_for_projection_pairs():
    histogram = {}
    worst = 0.0
    cases = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 1), (5, 2), (5, 3), (6, 3), (6, 2), (6, 1),
             (4, 3), (5, 1)]
    for k, (m, r) in enumerate(cases):
        a = random_element((m - r, r), R01, seed=(4000, k, 1), self_adjoint=True)
        b = random_element((m - r, r), R01, seed=(4000, k, 2), self_adjoint=True)
        found = min_degree_search(a, b, d_max=3, budget=8, seed=k)
        assert found.succeeded and found.degree <= 3
        assert found.path.certificate <= 1e-8
        worst = max(worst, found.path.certificate)
        histogram[found.degree] = histogram.get(found.degree, 0) + 1
    _pass(4, f"{len(cases)} projection pairs, degree histogram "
             f"{dict(sorted(histogram.items()))}, worst residual {worst:.2e}")


def test_criterion_5_selfadjoint_paths():
    worst_mem = 0.0
    worst_herm = 0.0
    worst_gen = 0.0
    for k in range(50):
        rng = rng_from(5000, k)
        roots = ROOT_SYSTEMS[k % 2]
        m = int(rng.integers(2, 9))
        ranks = _random_signature(rng, roots.n, m)
        a = random_element(ranks, roots, seed=(5000, k, 1), self_adjoint=True)
        b = random_element(ranks, roots, seed=(5000, k, 2), self_adjoint=True)
        path = connect_selfadjoint(a, b)
        for c in path.generators:
            worst_gen = max(worst_gen, operator_norm(c - c.conj().T))
        cert = verify_path(path, expected_endpoint=b.a)
        worst_mem = max(worst_mem, cert.worst_membership, cert.endpoint_error)
        worst_herm = max(worst_herm, cert.worst_hermiticity)
    assert worst_mem <= 1e-9
    assert worst_herm <= 1e-9
    assert worst_gen <= 1e-10
    _pass(5, f"50 self-adjoint paths: membership {worst_mem:.2e}, "
             f"hermiticity {worst_herm:.2e}, generator hermiticity {worst_gen:.2e}")


def test_criterion_6_no_selfadjoint_polynomial_path_in_two_dims():
    # The antipodal rank-one pair maximizes the component separation, which is
    # what keeps the stated floor honest: closer pairs admit near-paths whose
    # coefficient residuals fall below 1e-3 from degree 4 on.
    a = certify(np.diag([1.0, 0.0]).astype(complex), R01)
    b = certify(np.diag([0.0, 1.0]).astype(complex), R01)
    found = min_degree_search(a, b, d_max=6, budget=32, seed=6000,
                              self_adjoint=True, min_motion=0.1)
    assert not found.succeeded
    floor = min(found.residual_by_degree.values())
    assert floor >= 1e-3
    # other pairs: the search must still fail to certify at every degree
    for k in range(2):
        x = random_element((1, 1), R01, seed=(6000, k, 1), self_adjoint=True)
        y = random_element((1, 1), R01, seed=(6000, k, 2), self_adjoint=True)
        other = min_degree_search(x, y, d_max=6, budget=8, seed=k,
                                  self_adjoint=True, min_motion=0.1)
        assert not other.succeeded
    curve = {d: f"{v:.1e}" for d, v in sorted(found.residual_by_degree.items())}
    _pass(6, f"antipodal rank-one pair: no path up to degree 6, floor {floor:.2e}, "
             f"curve {curve}")


def test_criterion_7_isolation_and_spectral_floor():
    roots = validate_roots([0, 1, 2])
    for i in range(roots.n):
        ranks = tuple(4 if j == i else 0 for j in range(roots.n))
        scalar = random_element(ranks, roots, seed=(7000, i))
        assert is_isolated(scalar)
    worst_margin = np.inf
    for k in range(200):
        rng = rng_from(7100, k)
        m = int(rng.integers(2, 9))
        ranks = _random_signature(rng, roots.n, m, nonzero_min=2)
        el = random_element(ranks, roots, seed=(7100, k, 1))
        assert not is_isolated(el)
        sig = signature(el).ranks
        for i, li in enumerate(roots.roots):
            floor = min(abs(lj - li) for j, lj in enumerate(roots.roots) if j != i and sig[j] > 0)
            margin = operator_norm(el.a - li * np.eye(m)) - floor
            worst_margin = min(worst_margin, margin)
    assert worst_margin >= -1e-9
    _pass(7, f"scalars isolated for every root; 200 non-scalars non-isolated, "
             f"spectral floor margin {worst_margin:.2e}")


def test_criterion_8_complex_lines_through_noncentral_elements():
    worst = 0.0
    for k in range(1000):
        rng = rng_from(8000, k)
        roots = ROOT_SYSTEMS[k % 4]  # n <= 4
        m = int(rng.integers(2, 9))
        ranks = _random_signature(rng, roots.n, m, nonzero_min=2)
        el = random_element(ranks, roots, seed=(8000, k, 1))
        witness = line_direction(el)
        assert operator_norm(witness.direction) > 0
        worst = max(worst, witness.certificate)
        certify(el.a + 1e6 * witness.direction, roots)  # unboundedness
    assert worst <= 1e-9
    _pass(8, f"1000/1000 line witnesses, worst certificate {worst:.2e}, "
             f"membership re-certified at 1e6")


def test_criterion_9_distance_scans():
    sig1 = ComponentSignature((1, 2))
    sig2 = ComponentSignature((2, 1))
    floors = {}
    for sa in (True, False):
        rep = distance_scan(sig1, sig2, R01, budget=10_000, seed=9000, self_adjoint=sa)
        floors["self-adjoint" if sa else "idempotent"] = rep.best_distance
        assert rep.best_distance >= 1.0 - 1e-6
    explicit = operator_norm(np.diag([1.0, 0.0, 0.0]) - np.diag([1.0, 1.0, 0.0]))
    assert explicit == 1.0
    roots3 = validate_roots([0, 1, 2])
    logged = distance_scan(
        ComponentSignature((1, 1, 2)), ComponentSignature((0, 2, 2)),
        roots3, budget=2000, seed=9001,
    )
    floors_txt = ", ".join(f"{k} {v:.9f}" for k, v in floors.items())
    _pass(9, f"budget-1e4 floors: {floors_txt}; explicit pair exactly 1.0; "
             f"three-root best {logged.best_distance:.6f} (logged only)")


def test_criterion_10_kernel_health_and_determinism(tmp_path):
    worst_rt = 0.0
    for k in range(200):
        rng = rng_from(10_000, k)
        m = int(rng.integers(2, 9))
        x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        x *= rng.uniform(0.0, 0.5) / max(1e-9, operator_norm(x))
        worst_rt = max(worst_rt, operator_norm(mat_log_near_identity(mat_exp(x)) - x))
    assert worst_rt <= 1e-9

    worst_cmp = 0.0
    for k in range(200):
        rng = rng_from(10_100, k)
        m = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        coeffs = rng.standard_normal((d + 1, m, m)) + 1j * rng.standard_normal((d + 1, m, m))
        x = MatrixPolynomial(coeffs)
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        q = matpoly_compose_p(p, x)
        t = float(rng.uniform(0.0, 1.0))
        err = operator_norm(q.eval(t) - poly_eval_scalar_coeffs(p, x.eval(t)))
        worst_cmp = max(worst_cmp, err / (1.0 + operator_norm(q.eval(t))))
    assert worst_cmp <= 1e-10

    reports = []
    for name in ("suite_a.json", "suite_b.json"):
        out = tmp_path / name
        code = cli_main(["suite", "--seed", "4", "--samples", "6", "--budget", "20",
                         "--out", str(out)])
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    _pass(10, f"exp/log round-trip {worst_rt:.2e}; compose-vs-eval {worst_cmp:.2e}; "
              f"fixed-seed suite reports byte-identical ({len(reports[0])} bytes)")
