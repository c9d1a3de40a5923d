"""Seeded experiment battery behind ``algpaths suite``.

Runs one scaled item per experiment family — resolutions, the four path
constructors, the degree search and its rank-one negative probe, isolation
and spectral floors, line witnesses, and distance scans — and prints a
pass/fail table.  Every item draws from sub-streams of the suite seed, so a
fixed configuration reproduces the report byte for byte.
"""

from __future__ import annotations

import numpy as np

from .algebraic import certify, random_element, spectral_resolution, validate_roots
from .components import ComponentSignature, distance_scan, is_isolated, line_direction, signature
from .errors import AlgpathsError, NotLocallyClose
from .matkernel import (
    MatrixPolynomial,
    ToleranceConfig,
    mat_exp,
    mat_log_near_identity,
    matpoly_compose_p,
    operator_norm,
    poly_eval_scalar_coeffs,
)
from .paths import (
    connect_exp_global,
    connect_exp_local,
    connect_polygonal,
    connect_selfadjoint,
    min_degree_search,
    verify_path,
)
from .seeding import rng_from

_ROOTS_IDEMPOTENT = (0, 1)
_ROOTS_THREE = (0, 1, 2)
_ROOTS_COMPLEX = (1, 1j, -1)


def _sig_for(rng, roots, m):
    """Random signature with at least two nonzero ranks when m allows it."""
    n = len(roots)
    while True:
        cuts = sorted(rng.integers(0, m + 1, size=n - 1).tolist())
        ranks = np.diff([0] + cuts + [m]).tolist()
        if m < 2 or sum(1 for r in ranks if r > 0) >= 2:
            return tuple(int(r) for r in ranks)


def _perturbed_partner(el, delta, rng, cfg):
    """A nearby element on the same component, via a small conjugation.

    ``delta`` is relative: the conjugator distance from the identity is
    ``delta / (1 + ||a||)``, which keeps the partition matcher of the pair
    near the identity even for badly conditioned elements.
    """
    m = el.dim
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    z *= delta / (np.linalg.norm(z) * (1.0 + operator_norm(el.a)))
    g = np.eye(m, dtype=complex) + z
    moved = np.linalg.solve(g.T, (g @ el.a).T).T
    return certify(moved, el.roots, cfg)


def _item(name, fn, results, stream):
    try:
        passed, detail, metrics = fn()
    except AlgpathsError as exc:
        passed, detail, metrics = False, f"{type(exc).__name__}: {exc}", {}
    results.append({"name": name, "passed": bool(passed), "detail": detail, "metrics": metrics})
    if stream is not None:
        stream.write(f"{'PASS' if passed else 'FAIL'}  {name:<22} {detail}\n")


def run_suite(seed=0, samples=50, budget=400, cfg=ToleranceConfig(), stream=None) -> dict:
    results: list[dict] = []

    def item(name):
        def wrap(fn):
            _item(name, fn, results, stream)
            return fn
        return wrap

    @item("resolution")
    def _resolution():
        worst_rel = 0.0
        count = 0
        for k in range(samples):
            rng = rng_from(seed, 1, k)
            roots = validate_roots([_ROOTS_IDEMPOTENT, _ROOTS_THREE, _ROOTS_COMPLEX][k % 3])
            sa = k % 3 == 0
            m = int(rng.integers(2, 9))
            sig = _sig_for(rng, roots.roots, m)
            el = random_element(sig, roots, seed=(seed, 1, k, 7), self_adjoint=sa, cfg=cfg)
            part = spectral_resolution(el, cfg)
            worst_rel = max(worst_rel, part.worst_residual / (1.0 + operator_norm(el.a)))
            count += 1
        ok = worst_rel <= 1e-9
        return ok, f"{count} resolutions, worst scaled residual {worst_rel:.2e}", {
            "count": count, "worst_scaled_residual": worst_rel}

    @item("exp-local")
    def _exp_local():
        n_pairs = max(5, samples // 5)
        worst = 0.0
        for k in range(n_pairs):
            rng = rng_from(seed, 2, k)
            roots = validate_roots(_ROOTS_IDEMPOTENT if k % 2 else _ROOTS_THREE)
            m = int(rng.integers(2, 7))
            sig = _sig_for(rng, roots.roots, m)
            a = random_element(sig, roots, seed=(seed, 2, k, 0), cfg=cfg)
            delta = 0.1
            while True:  # shrink until the pair is genuinely local
                b = _perturbed_partner(a, delta, rng, cfg)
                try:
                    path = connect_exp_local(a, b, cfg)
                    break
                except NotLocallyClose:
                    delta /= 4.0
            cert = verify_path(path, cfg=cfg, expected_endpoint=b.a)
            worst = max(worst, cert.endpoint_error, cert.worst_membership)
        return worst <= 1e-9, f"{n_pairs} paths, worst residual {worst:.2e}", {
            "pairs": n_pairs, "worst": worst}

    @item("exp-global")
    def _exp_global():
        n_pairs = max(5, samples // 5)
        worst = 0.0
        for k in range(n_pairs):
            rng = rng_from(seed, 3, k)
            roots = validate_roots(_ROOTS_THREE if k % 2 else _ROOTS_IDEMPOTENT)
            m = int(rng.integers(2, 7))
            sig = _sig_for(rng, roots.roots, m)
            a = random_element(sig, roots, seed=(seed, 3, k, 0), cfg=cfg)
            b = random_element(sig, roots, seed=(seed, 3, k, 1), cfg=cfg)
            path = connect_exp_global(a, b, cfg)
            cert = verify_path(path, cfg=cfg, expected_endpoint=b.a)
            worst = max(worst, cert.endpoint_error, cert.worst_membership)
        return worst <= 1e-9, f"{n_pairs} paths, worst residual {worst:.2e}", {
            "pairs": n_pairs, "worst": worst}

    @item("polygonal")
    def _polygonal():
        n_pairs = max(5, samples // 5)
        roots = validate_roots(_ROOTS_IDEMPOTENT)
        worst = 0.0
        segs = []
        for k in range(n_pairs):
            rng = rng_from(seed, 4, k)
            m = int(rng.integers(2, 7))
            r = int(rng.integers(1, m))
            a = random_element((m - r, r), roots, seed=(seed, 4, k, 0), cfg=cfg)
            b = _perturbed_partner(a, 0.2, rng, cfg)
            path = connect_polygonal(a, b, cfg, seed=seed + k)
            verify_path(path, cfg=cfg)
            segs.append(path.segments)
            if path.certificates:
                worst = max(worst, max(path.certificates))
        ok = worst <= 1e-9 and all(s == 2 for s in segs)
        return ok, f"{n_pairs} paths, segments {sorted(set(segs))}, worst cert {worst:.2e}", {
            "pairs": n_pairs, "worst": worst, "segment_counts": sorted(set(segs))}

    @item("selfadjoint")
    def _selfadjoint():
        n_pairs = max(5, samples // 5)
        worst = 0.0
        for k in range(n_pairs):
            rng = rng_from(seed, 5, k)
            roots = validate_roots(_ROOTS_IDEMPOTENT if k % 2 else _ROOTS_THREE)
            m = int(rng.integers(2, 7))
            sig = _sig_for(rng, roots.roots, m)
            a = random_element(sig, roots, seed=(seed, 5, k, 0), self_adjoint=True, cfg=cfg)
            b = random_element(sig, roots, seed=(seed, 5, k, 1), self_adjoint=True, cfg=cfg)
            path = connect_selfadjoint(a, b, cfg)
            cert = verify_path(path, cfg=cfg, expected_endpoint=b.a)
            worst = max(worst, cert.worst_membership, cert.worst_hermiticity, cert.endpoint_error)
        return worst <= 1e-9, f"{n_pairs} paths, worst residual {worst:.2e}", {
            "pairs": n_pairs, "worst": worst}

    @item("mindeg")
    def _mindeg():
        n_pairs = max(3, samples // 15)
        roots = validate_roots(_ROOTS_IDEMPOTENT)
        histogram: dict[int, int] = {}
        for k in range(n_pairs):
            rng = rng_from(seed, 6, k)
            m = int(rng.integers(2, 5))
            r = int(rng.integers(1, m))
            a = random_element((m - r, r), roots, seed=(seed, 6, k, 0), cfg=cfg)
            b = random_element((m - r, r), roots, seed=(seed, 6, k, 1), cfg=cfg)
            found = min_degree_search(a, b, d_max=3, budget=8, seed=seed + k, cfg=cfg)
            if not found.succeeded:
                return False, f"pair {k} failed at every degree <= 3", {"pair": k}
            histogram[found.degree] = histogram.get(found.degree, 0) + 1
        hist = {str(d): histogram[d] for d in sorted(histogram)}
        return True, f"{n_pairs} pairs connected, degree histogram {hist}", {"histogram": hist}

    @item("rank-one-negative")
    def _negative():
        roots = validate_roots(_ROOTS_IDEMPOTENT)
        # antipodal rank-one orthogonal projections: the hardest pair to fake
        a = certify(np.diag([1.0, 0.0]).astype(complex), roots, cfg)
        b = certify(np.diag([0.0, 1.0]).astype(complex), roots, cfg)
        found = min_degree_search(a, b, d_max=4, budget=8, seed=seed, cfg=cfg,
                                  self_adjoint=True, min_motion=0.1)
        floor = min(found.residual_by_degree.values())
        ok = (not found.succeeded) and floor >= 1e-3
        return ok, f"no self-adjoint polynomial path; residual floor {floor:.2e}", {
            "residual_by_degree": {str(k): v for k, v in found.residual_by_degree.items()}}

    @item("isolation")
    def _isolation():
        roots = validate_roots(_ROOTS_THREE)
        m = 4
        for i in range(roots.n):
            ranks = tuple(m if j == i else 0 for j in range(roots.n))
            el = random_element(ranks, roots, seed=(seed, 8, i), cfg=cfg)
            if not is_isolated(el, cfg):
                return False, f"scalar for root index {i} not isolated", {}
        worst_gap = np.inf
        for k in range(max(5, samples // 5)):
            rng = rng_from(seed, 8, 100 + k)
            sig = _sig_for(rng, roots.roots, m)
            el = random_element(sig, roots, seed=(seed, 8, 200 + k), cfg=cfg)
            el_sig = signature(el, cfg)
            if el_sig.scalar:
                return False, f"non-scalar sample {k} flagged isolated", {}
            for i, li in enumerate(roots.roots):
                floor = min(
                    abs(lj - li) for j, lj in enumerate(roots.roots) if j != i and el_sig.ranks[j] > 0
                )
                gap = operator_norm(el.a - li * np.eye(m)) - floor
                worst_gap = min(worst_gap, gap)
        ok = worst_gap >= -1e-9
        return ok, f"spectral floor margin {worst_gap:.2e}", {"floor_margin": float(worst_gap)}

    @item("lines")
    def _lines():
        n_el = max(10, samples // 2)
        worst = 0.0
        for k in range(n_el):
            rng = rng_from(seed, 9, k)
            roots = validate_roots([_ROOTS_IDEMPOTENT, _ROOTS_THREE, _ROOTS_COMPLEX][k % 3])
            m = int(rng.integers(2, 7))
            el = random_element(_sig_for(rng, roots.roots, m), roots, seed=(seed, 9, k, 3), cfg=cfg)
            witness = line_direction(el, cfg)
            worst = max(worst, witness.certificate)
            certify(el.a + 1e6 * witness.direction, roots, cfg)  # far point still a member
        return worst <= 1e-9, f"{n_el} witnesses, worst certificate {worst:.2e}", {
            "count": n_el, "worst": worst}

    @item("distance")
    def _distance():
        roots = validate_roots(_ROOTS_IDEMPOTENT)
        sig1, sig2 = ComponentSignature((1, 2)), ComponentSignature((2, 1))
        floor = np.inf
        for sa in (True, False):
            rep = distance_scan(sig1, sig2, roots, budget=budget, seed=seed, self_adjoint=sa, cfg=cfg)
            floor = min(floor, rep.best_distance)
        exact = operator_norm(np.diag([1, 0, 0]).astype(complex) - np.diag([1, 1, 0]))
        roots3 = validate_roots(_ROOTS_THREE)
        logged = distance_scan(
            ComponentSignature((1, 1, 1)), ComponentSignature((0, 2, 1)),
            roots3, budget=max(10, budget // 4), seed=seed, cfg=cfg)
        ok = floor >= 1.0 - 1e-6 and abs(exact - 1.0) == 0.0
        return ok, (
            f"two-root floor {floor:.9f}, witness pair distance {exact}, "
            f"three-root best {logged.best_distance:.6f} (logged only)"
        ), {"floor": float(floor), "three_root_best": logged.best_distance}

    @item("kernel")
    def _kernel():
        worst_rt = 0.0
        worst_cmp = 0.0
        for k in range(samples):
            rng = rng_from(seed, 10, k)
            m = int(rng.integers(2, 9))
            x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            x *= 0.5 / max(1.0, operator_norm(x))
            back = mat_log_near_identity(mat_exp(x))
            worst_rt = max(worst_rt, operator_norm(back - x))
            d = int(rng.integers(1, 4))
            coeffs = rng.standard_normal((d + 1, 3, 3)) + 1j * rng.standard_normal((d + 1, 3, 3))
            xp = MatrixPolynomial(coeffs)
            p = [complex(z) for z in rng.standard_normal(4)]
            q = matpoly_compose_p(p, xp)
            t = float(rng.uniform(0, 1))
            worst_cmp = max(
                worst_cmp,
                operator_norm(q.eval(t) - poly_eval_scalar_coeffs(p, xp.eval(t))),
            )
        ok = worst_rt <= 1e-9 and worst_cmp <= 1e-10
        return ok, f"exp/log round-trip {worst_rt:.2e}, compose-vs-eval {worst_cmp:.2e}", {
            "roundtrip": worst_rt, "compose_vs_eval": worst_cmp}

    all_passed = all(r["passed"] for r in results)
    if stream is not None:
        stream.write(f"{'all items passed' if all_passed else 'FAILURES present'}\n")
    return {
        "seed": seed,
        "samples": samples,
        "budget": budget,
        "items": results,
        "all_passed": all_passed,
    }
