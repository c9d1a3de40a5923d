"""Component signatures, isolation, line witnesses, distance scans."""

import numpy as np
import pytest

import sampler_reference as reference
from algpaths import components
from algpaths.algebraic import certify, random_element, spectral_resolution, validate_roots
from algpaths.components import (
    ComponentSignature,
    _frobenius,
    _scan_block,
    _scan_block_size,
    distance_scan,
    is_isolated,
    line_direction,
    same_component,
    signature,
)
from algpaths.errors import BadSignature, CentralElement, DimMismatch, RootMismatch
from algpaths.matkernel import operator_norm
from algpaths.seeding import rng_from

R01 = validate_roots([0, 1])
UPPER = np.array([[0, 1], [0, 1]], dtype=complex)


def test_signature_diagonal():
    el = certify(np.diag([0.0, 1.0, 1.0]), R01)
    assert signature(el).ranks == (1, 2)


def test_signature_scalar():
    roots = validate_roots([4.0, 7.0])
    el = certify(7.0 * np.eye(3), roots)
    assert signature(el).ranks == (0, 3)


def test_signature_non_hermitian_idempotent():
    # ranks of 1 - a and a: both 1 by hand
    el = certify(UPPER, R01)
    assert signature(el).ranks == (1, 1)


def test_component_signature_validates():
    with pytest.raises(BadSignature):
        ComponentSignature((1, 1), 3)


def test_same_component_equal_signatures():
    x = certify(np.diag([1.0, 0.0]), R01)
    y = certify(UPPER, R01)
    assert same_component(x, y)


def test_same_component_rank_differs():
    x = certify(np.diag([1.0, 0.0]), R01)
    y = certify(np.diag([1.0, 1.0]), R01)
    assert not same_component(x, y)


def test_same_component_scalars():
    roots = validate_roots([2.0, 3.0])
    x = certify(2.0 * np.eye(2), roots)
    y = certify(2.0 * np.eye(2), roots)
    assert same_component(x, y)


def test_same_component_preconditions():
    x = certify(np.diag([1.0, 0.0]), R01)
    y = certify(np.diag([1.0, 0.0, 0.0]), R01)
    with pytest.raises(DimMismatch):
        same_component(x, y)
    z = certify(np.diag([2.0, 0.0]), validate_roots([0, 2]))
    with pytest.raises(RootMismatch):
        same_component(x, z)


def test_same_component_is_equivalence_relation():
    roots = validate_roots([0, 1, 2])
    els = [
        random_element(sig, roots, seed=s)
        for s, sig in enumerate([(1, 1, 1), (1, 1, 1), (0, 2, 1), (0, 2, 1), (1, 2, 0)])
    ]
    for x in els:
        assert same_component(x, x)
    for x in els:
        for y in els:
            assert same_component(x, y) == same_component(y, x)
            for z in els:
                if same_component(x, y) and same_component(y, z):
                    assert same_component(x, z)


def _commutes_with_all_matrix_units(a, tol):
    m = a.shape[0]
    for k in range(m):
        for l in range(m):
            e = np.zeros((m, m), dtype=complex)
            e[k, l] = 1.0
            if operator_norm(a @ e - e @ a) > tol:
                return False
    return True


def test_isolation_of_scalars():
    roots = validate_roots([0.0, 1.5, -2.0])
    el = certify(1.5 * np.eye(3), roots)
    assert is_isolated(el)


def test_non_isolation_of_projections():
    el = certify(np.diag([0.0, 1.0]), R01)
    assert not is_isolated(el)


def test_isolation_signature_centrality_agreement():
    # three characterizations must agree: a full rank in the signature,
    # commutation with every matrix unit, and the scalar form itself
    roots = validate_roots([0, 1, 2])
    cases = [(4, 0, 0), (0, 4, 0), (1, 3, 0), (2, 1, 1)]
    for s, ranks in enumerate(cases):
        el = random_element(ranks, roots, seed=(100, s))
        tol = 1e-9 * (1.0 + operator_norm(el.a))
        by_signature = any(r == el.dim for r in signature(el).ranks)
        by_centrality = _commutes_with_all_matrix_units(el.a, tol)
        assert is_isolated(el) == by_signature == by_centrality


def test_line_direction_frozen_witness():
    # a0 = diag(0,1): the first nonzero candidate is E_12, and
    # (a0 + t E12)^2 = a0 + t E12 identically (hand expansion)
    el = certify(np.diag([0.0, 1.0]), R01)
    w = line_direction(el)
    np.testing.assert_allclose(w.direction, np.array([[0, 1], [0, 0]]), atol=0)
    assert w.certificate <= 1e-15


def test_line_direction_rejects_scalars():
    roots = validate_roots([2.0, 3.0])
    el = certify(2.0 * np.eye(2), roots)
    with pytest.raises(CentralElement):
        line_direction(el)


def test_line_direction_random_elements_certify_and_are_unbounded():
    roots = validate_roots([0, 1, 2])
    for s in range(10):
        rng = rng_from(s, 6)
        m = int(rng.integers(3, 5))
        ranks = (1, m - 2, 1)
        el = random_element(ranks, roots, seed=(s, 7))
        w = line_direction(el)
        assert w.certificate <= 1e-9
        nb = operator_norm(w.direction)
        na = operator_norm(el.a)
        assert nb > 0
        for lam in (1e3, 1e6):
            certify(el.a + lam * w.direction, roots)  # membership far out
            assert operator_norm(el.a + lam * w.direction) >= lam * nb - na


def test_spectral_floor_from_scalars():
    roots = validate_roots([0, 1, 2])
    for s in range(8):
        el = random_element((1, 2, 1), roots, seed=(s, 8))
        ranks = signature(el).ranks
        for i, li in enumerate(roots.roots):
            floor = min(
                abs(lj - li) for j, lj in enumerate(roots.roots) if j != i and ranks[j] > 0
            )
            assert operator_norm(el.a - li * np.eye(el.dim)) >= floor - 1e-9


# -- distance scans ------------------------------------------------------------


def test_distance_scan_two_root_floor():
    sig1 = ComponentSignature((1, 2), 3)
    sig2 = ComponentSignature((2, 1), 3)
    rep = distance_scan(sig1, sig2, R01, budget=60, seed=0, self_adjoint=True)
    assert rep.best_distance >= 1.0 - 1e-6
    assert rep.conjecture_bound == 1.0
    for w, sig in zip(rep.witness, (sig1, sig2)):
        assert signature(w) == sig


def test_distance_scan_central_pair():
    rep = distance_scan(
        ComponentSignature((2, 0), 2), ComponentSignature((0, 2), 2), R01, budget=5, seed=0
    )
    assert abs(rep.best_distance - 1.0) <= 1e-12


def test_distance_scan_explicit_pair_distance_is_exactly_one():
    assert operator_norm(np.diag([1.0, 0.0, 0.0]) - np.diag([1.0, 1.0, 0.0])) == 1.0


def test_distance_scan_monotone_in_budget():
    sig1 = ComponentSignature((1, 2), 3)
    sig2 = ComponentSignature((2, 1), 3)
    small = distance_scan(sig1, sig2, R01, budget=20, seed=5)
    large = distance_scan(sig1, sig2, R01, budget=40, seed=5)
    assert large.best_distance <= small.best_distance


def test_distance_scan_deterministic():
    sig1 = ComponentSignature((1, 1), 2)
    sig2 = ComponentSignature((0, 2), 2)
    r1 = distance_scan(sig1, sig2, R01, budget=15, seed=3)
    r2 = distance_scan(sig1, sig2, R01, budget=15, seed=3)
    assert r1.best_distance == r2.best_distance
    np.testing.assert_array_equal(r1.witness[0].a, r2.witness[0].a)


def test_distance_scan_parallel_matches_serial():
    sig1 = ComponentSignature((1, 1), 2)
    sig2 = ComponentSignature((0, 2), 2)
    budget = 2 * _scan_block_size(2) + 5  # two full blocks and a partial one
    serial = distance_scan(sig1, sig2, R01, budget=budget, seed=3)
    parallel = distance_scan(sig1, sig2, R01, budget=budget, seed=3, workers=2)
    assert serial.best_distance == parallel.best_distance
    for ws, wp in zip(serial.witness, parallel.witness):
        np.testing.assert_array_equal(ws.a, wp.a)


def test_distance_scan_preconditions():
    sig = ComponentSignature((1, 2), 3)
    with pytest.raises(BadSignature):
        distance_scan(sig, sig, R01, budget=5, seed=0)
    with pytest.raises(BadSignature):
        distance_scan(sig, ComponentSignature((2, 2), 4), R01, budget=5, seed=0)
    other = ComponentSignature((2, 1), 3)
    with pytest.raises(BadSignature):
        distance_scan(sig, other, R01, budget=0, seed=0)
    with pytest.raises(BadSignature):
        distance_scan(sig, other, R01, budget=5, seed=0, workers=0)


# The per-restart descent the lockstep scan replaced, kept as the reference it
# must reproduce bit for bit: one matrix at a time, perturbations drawn as the
# descent goes.


def _reference_descend(x, y, rng, self_adjoint, inner_iters=200, delta0=0.25):
    m = x.shape[0]
    eye = np.eye(m, dtype=complex)
    dist = operator_norm(x - y)
    delta = delta0
    for it in range(inner_iters):
        if delta < 1e-12:
            break
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        z /= np.linalg.norm(z)
        if self_adjoint:
            h = 0.5 * (z + z.conj().T)
            g = np.linalg.solve(eye - 0.5j * delta * h, eye + 0.5j * delta * h)
        else:
            g = eye + delta * z
        target = x if it % 2 == 0 else y
        moved = g @ target
        if self_adjoint:
            moved = moved @ g.conj().T
            moved = 0.5 * (moved + moved.conj().T)
        else:
            moved = np.linalg.solve(g.T, moved.T).T
        cand = operator_norm(moved - y) if it % 2 == 0 else operator_norm(x - moved)
        if cand < dist - 1e-13 * (1.0 + dist):
            dist = cand
            if it % 2 == 0:
                x = moved
            else:
                y = moved
        else:
            delta *= 0.5
    return dist, x, y


def _reference_restart(k, seed, sig1, sig2, roots, self_adjoint):
    x = reference.random_element(sig1.ranks, roots, (seed, k, 0), self_adjoint=self_adjoint)
    y = reference.random_element(sig2.ranks, roots, (seed, k, 1), self_adjoint=self_adjoint)
    return _reference_descend(x.a, y.a, rng_from(seed, k, 2), self_adjoint)


SCAN_SHAPES = [
    ((1, 2), (2, 1), (0, 1), True),
    ((1, 2), (2, 1), (0, 1), False),
    ((1, 1, 2), (0, 2, 2), (0, 1, 2), False),
    ((2, 0), (0, 2), (0, 1), False),  # scalars: every step fails, all restarts freeze early
    ((2, 3), (3, 2), (0, 1), False),
]


def _block(ks, sig1, sig2, roots, self_adjoint, seed=11):
    return _scan_block(ks, seed=seed, sig1=sig1, sig2=sig2, roots=roots,
                       self_adjoint=self_adjoint, cond_bound=20.0)


@pytest.mark.parametrize("ranks1, ranks2, roots, self_adjoint", SCAN_SHAPES,
                         ids=["m3-self-adjoint", "m3-general", "m4-three-roots", "m2-central", "m5"])
def test_scan_block_is_bit_identical_to_per_restart_descent(ranks1, ranks2, roots, self_adjoint,
                                                            monkeypatch):
    m = sum(ranks1)
    sig1, sig2 = ComponentSignature(ranks1, m), ComponentSignature(ranks2, m)
    roots = validate_roots(list(roots))
    budget = 7
    ref = [_reference_restart(k, 11, sig1, sig2, roots, self_adjoint) for k in range(budget)]
    dist, x, y = _block(range(budget), sig1, sig2, roots, self_adjoint)
    for k, (d, xa, ya) in enumerate(ref):
        assert dist[k] == d
        np.testing.assert_array_equal(x[k], xa)
        np.testing.assert_array_equal(y[k], ya)

    # blocks of one, two and three restarts, the last one partial: same best restart
    best = min(range(budget), key=lambda k: (ref[k][0], k))
    for size in (1, 2, 3):
        monkeypatch.setattr(components, "_SCAN_BLOCK_BYTES", size * 200 * m * m * 16)
        assert _scan_block_size(m) == size
        rep = distance_scan(sig1, sig2, roots, budget=budget, seed=11, self_adjoint=self_adjoint)
        assert rep.best_distance == ref[best][0]
        np.testing.assert_array_equal(rep.witness[0].a, ref[best][1])
        np.testing.assert_array_equal(rep.witness[1].a, ref[best][2])


def test_scan_restart_ignores_block_boundaries_and_budget():
    sig1, sig2 = ComponentSignature((1, 2), 3), ComponentSignature((2, 1), 3)
    whole = _block(range(9), sig1, sig2, R01, False)
    for ks in (range(0, 4), range(4, 9), range(6, 8), [8, 2, 5]):
        part = _block(ks, sig1, sig2, R01, False)
        for j, k in enumerate(ks):
            assert part[0][j] == whole[0][k]
            np.testing.assert_array_equal(part[1][j], whole[1][k])
            np.testing.assert_array_equal(part[2][j], whole[2][k])


@pytest.mark.parametrize("ranks1, ranks2, self_adjoint, sampled",
                         [((1, 2), (2, 1), False, 2), ((1, 2), (2, 1), True, 2),
                          ((3, 0), (1, 2), False, 1), ((3, 0), (0, 3), False, 0)],
                         ids=["general", "self-adjoint", "one-central", "both-central"])
def test_scan_samples_with_one_stacked_qr_per_signature_and_block(ranks1, ranks2, self_adjoint,
                                                                  sampled, monkeypatch):
    monkeypatch.setattr(components, "_SCAN_BLOCK_BYTES", 4 * 200 * 3 * 3 * 16)
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda z: calls.append(z.shape) or qr(z))
    distance_scan(ComponentSignature(ranks1, 3), ComponentSignature(ranks2, 3), R01,
                  budget=10, seed=2, self_adjoint=self_adjoint)
    shape = (3, 3) if self_adjoint else (2, 3, 3)  # U, or U and V side by side
    assert calls == [(b,) + shape for b in (4, 4, 2) for _ in range(sampled)]


@pytest.mark.parametrize("m", [2, 3, 4, 8, 16])
def test_frobenius_is_bit_exact_with_numpy_norm(m):
    rng = rng_from(m, 30)
    z = rng.standard_normal((4, 6, m, m)) + 1j * rng.standard_normal((4, 6, m, m))
    want = np.array([[np.linalg.norm(z[i, j]) for j in range(6)] for i in range(4)])
    np.testing.assert_array_equal(_frobenius(z), want)


def test_three_root_scan_runs_and_logs():
    roots = validate_roots([0, 1, 2])
    rep = distance_scan(
        ComponentSignature((1, 1, 1), 3),
        ComponentSignature((0, 2, 1), 3),
        roots,
        budget=25,
        seed=1,
    )
    assert rep.best_distance >= 0.0  # logged, never asserted against the gap
