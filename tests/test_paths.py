"""Connecting-path constructors, the degree search, and the certifier."""

import numpy as np
import pytest
import scipy.linalg

from algpaths.algebraic import AlgebraicElement, certify, random_element, validate_roots
from algpaths import algebraic, paths
from algpaths.errors import (
    CertificationFailed,
    FactorizationFailed,
    MagnitudeOverflow,
    NotLocallyClose,
    NotSameComponent,
    NotSelfAdjoint,
    PreconditionError,
    SubspaceSplitFailed,
)
from algpaths.matkernel import MatrixPolynomial, ToleranceConfig, operator_norm, poly_from_roots
from algpaths.paths import (
    PolynomialPath,
    connect_exp_global,
    connect_exp_local,
    connect_polygonal,
    connect_selfadjoint,
    min_degree_search,
    verify_path,
)
from algpaths.seeding import rng_from
from algpaths.serialize import path_from_json, path_to_json

R01 = validate_roots([0, 1])
E = np.diag([1.0, 0.0]).astype(complex)
F_SHEAR = np.array([[1, 0.5], [0, 0]], dtype=complex)  # idempotent, same range as E
F_SWAP = np.diag([0.0, 1.0]).astype(complex)


def _conjugate_pair(roots, ranks, m_seed, delta=0.05):
    """An element and a nearby conjugate of it, certified."""
    a = random_element(ranks, roots, seed=m_seed)
    rng = rng_from(m_seed, 99)
    m = a.dim
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    z *= delta / (np.linalg.norm(z) * (1.0 + operator_norm(a.a)))
    g = np.eye(m, dtype=complex) + z
    b = certify(np.linalg.solve(g.T, (g @ a.a).T).T, roots)
    return a, b


# -- single-exponential paths ----------------------------------------------------


def test_exp_local_hand_example():
    # w = (1-f)(1-e) + f e = [[1,-0.5],[0,1]], c = log w = [[0,-0.5],[0,0]],
    # and e^{tc} e e^{-tc} = [[1, 0.5 t], [0, 0]]  (all by hand)
    a = certify(E, R01)
    b = certify(F_SHEAR, R01)
    path = connect_exp_local(a, b)
    assert len(path.generators) == 1
    np.testing.assert_allclose(path.generators[0], np.array([[0, -0.5], [0, 0]]), atol=1e-14)
    for t in (0.25, 0.5, 1.0):
        np.testing.assert_allclose(path.value(t), np.array([[1, 0.5 * t], [0, 0]]), atol=1e-13)


def test_exp_local_same_element_gives_constant_path():
    a = certify(E, R01)
    path = connect_exp_local(a, a)
    assert operator_norm(path.generators[0]) <= 1e-12
    np.testing.assert_allclose(path.value(0.7), E, atol=1e-12)


def test_exp_local_refuses_antipodal_pair():
    # w = f e + (1-f)(1-e) = 0 for e = diag(1,0), f = diag(0,1)
    a = certify(E, R01)
    b = certify(F_SWAP, R01)
    with pytest.raises(NotLocallyClose):
        connect_exp_local(a, b)


def test_exp_local_refuses_different_components():
    a = certify(E, R01)
    b = certify(np.eye(2), R01)
    with pytest.raises(NotSameComponent):
        connect_exp_local(a, b)


def test_exp_path_starts_bitwise_at_base():
    a = certify(E, R01)
    b = certify(F_SHEAR, R01)
    path = connect_exp_local(a, b)
    np.testing.assert_array_equal(path.value(0), a.a)


def test_exp_global_antipodal_two_generators():
    a = certify(E, R01)
    b = certify(F_SWAP, R01)
    path = connect_exp_global(a, b)
    assert len(path.generators) == 2
    cert = verify_path(path, expected_endpoint=b.a)
    assert cert.endpoint_error <= 1e-9
    assert cert.worst_membership <= 1e-9


def test_exp_global_reduces_to_local_for_close_pairs():
    roots = validate_roots([0, 1, 2])
    a, b = _conjugate_pair(roots, (1, 2, 1), 17)
    local = connect_exp_local(a, b)
    global_ = connect_exp_global(a, b)
    assert len(global_.generators) == 1
    np.testing.assert_array_equal(global_.generators[0], local.generators[0])


def test_exp_global_random_pairs_certify():
    roots = validate_roots([0, 1, 2])
    for s in range(8):
        rng = rng_from(s, 12)
        m = int(rng.integers(3, 9))
        cuts = sorted(rng.integers(0, m + 1, size=2).tolist())
        ranks = tuple(int(r) for r in np.diff([0] + cuts + [m]))
        a = random_element(ranks, roots, seed=(s, 13))
        b = random_element(ranks, roots, seed=(s, 14))
        path = connect_exp_global(a, b, seed=s)
        cert = verify_path(path, expected_endpoint=b.a, samples=25)
        assert cert.worst_membership <= 1e-9


def test_conjugation_invariance_of_membership():
    roots = validate_roots([0, 1, 2])
    el = random_element((1, 1, 2), roots, seed=21)
    rng = rng_from(21, 1)
    g = np.eye(4, dtype=complex) + 0.4 * rng.standard_normal((4, 4))
    conj = np.linalg.solve(g.T, (g @ el.a).T).T
    certify(conj, roots)  # tolerance scales with the evaluation magnitude


# -- self-adjoint paths ------------------------------------------------------------


def test_selfadjoint_rotation_example():
    # Conjugating diag(1,0) to diag(0,1) takes a quarter-turn rotation:
    # the generator is (pi/2) [[0, -i], [i, 0]] up to the rotation sense,
    # and e^{ict} sweeps the orbit of projections.
    a = certify(E, R01)
    b = certify(F_SWAP, R01)
    path = connect_selfadjoint(a, b)
    assert len(path.generators) == 1
    c = path.generators[0]
    sigma = (np.pi / 2.0) * np.array([[0, -1j], [1j, 0]])
    assert min(operator_norm(c - sigma), operator_norm(c + sigma)) <= 1e-12
    np.testing.assert_allclose(path.value(1.0), F_SWAP, atol=1e-12)
    mid = path.value(0.5)
    np.testing.assert_allclose(np.diag(mid).real, [0.5, 0.5], atol=1e-12)
    # oracle: the path is the exponential conjugation computed independently
    for t in (0.3, 0.8):
        g = scipy.linalg.expm(1j * c * t)
        np.testing.assert_allclose(path.value(t), g @ E @ g.conj().T, atol=1e-12)


def test_selfadjoint_same_element():
    a = certify(E, R01)
    path = connect_selfadjoint(a, a)
    assert operator_norm(path.generators[0]) <= 1e-9
    np.testing.assert_allclose(path.value(1.0), E, atol=1e-9)


def test_selfadjoint_requires_hermitian_inputs():
    a = certify(np.array([[0, 1], [0, 1]], dtype=complex), R01)
    b = certify(E, R01)
    with pytest.raises(NotSelfAdjoint):
        connect_selfadjoint(a, b)


def test_selfadjoint_random_pairs_stay_hermitian():
    roots = validate_roots([0, 1, 2])
    for s in range(6):
        rng = rng_from(s, 15)
        m = int(rng.integers(2, 7))
        cuts = sorted(rng.integers(0, m + 1, size=2).tolist())
        ranks = tuple(int(r) for r in np.diff([0] + cuts + [m]))
        a = random_element(ranks, roots, seed=(s, 16), self_adjoint=True)
        b = random_element(ranks, roots, seed=(s, 17), self_adjoint=True)
        path = connect_selfadjoint(a, b, seed=s)
        cert = verify_path(path, expected_endpoint=b.a, samples=30)
        assert cert.worst_hermiticity <= 1e-9
        assert cert.worst_membership <= 1e-9


# -- polygonal paths ----------------------------------------------------------------


def test_polygonal_hand_example():
    # Same-range pair: the intermediate (range of e, null space of f) is f
    # itself, so the two segments are e -> f -> f and both certificates vanish.
    a = certify(E, R01)
    b = certify(F_SHEAR, R01)
    path = connect_polygonal(a, b)
    assert path.segments == 2
    assert max(path.certificates) <= 1e-14
    np.testing.assert_allclose(path.breakpoints[1].a, F_SHEAR, atol=1e-14)


def test_polygonal_same_element():
    a = certify(E, R01)
    path = connect_polygonal(a, a)
    assert path.segments == 0
    assert path.breakpoints == (a,)


def test_polygonal_antipodal_needs_midpoints():
    # R(e) equals N(f) here, so the direct subspace swap is degenerate and a
    # midpoint from the exponential path is inserted; certificates still hold.
    a = certify(E, R01)
    b = certify(F_SWAP, R01)
    path = connect_polygonal(a, b)
    assert path.segments >= 2
    verify_path(path)


def _antipodal_projections(k):
    """``diag(1_k, 0_k)`` and ``diag(0_k, 1_k)`` over the roots {0, 1}."""
    one, zero = np.ones(k), np.zeros(k)
    a = certify(np.diag(np.concatenate([one, zero])).astype(complex), R01)
    b = certify(np.diag(np.concatenate([zero, one])).astype(complex), R01)
    return a, b


# The matching similarity of an antipodal pair of rank-k projections swaps the
# two subspaces, so its unitary factor has the eigenvalue -1, k times over.
# Flipping one basis column is a rank-one change and moves at most one of those
# eigenvalues off the branch cut: for k = 1 the flips succeed, from k = 2 on the
# constructors must take their last fallbacks.
@pytest.mark.parametrize("k, n_global, n_selfadjoint", [(1, 2, 1), (2, 3, 2), (3, 3, 2)])
def test_antipodal_projections_reach_the_fallbacks(k, n_global, n_selfadjoint, monkeypatch):
    a, b = _antipodal_projections(k)
    path = connect_exp_global(a, b)
    assert len(path.generators) == n_global  # 3: the unitary factor split off the branch cut
    assert verify_path(path, expected_endpoint=b.a).endpoint_error <= 1e-12
    path = connect_selfadjoint(a, b)
    assert len(path.generators) == n_selfadjoint  # 2: the two-factor split
    assert verify_path(path, expected_endpoint=b.a).endpoint_error <= 1e-12

    # the polygonal path inserts a midpoint from the global exponential path
    midpoint_generators = []
    global_path = paths._global_from_partitions

    def spy(*args):
        path = global_path(*args)
        midpoint_generators.append(len(path.generators))
        return path

    monkeypatch.setattr(paths, "_global_from_partitions", spy)
    path = connect_polygonal(a, b)
    assert midpoint_generators[0] == n_global
    assert path.breakpoints[-1] is b
    verify_path(path)


def _oblique_swap(eps, k):
    """``1_k kron S diag(1, 0) S^-1`` and ``1_k kron S diag(0, 1) S^-1`` over the roots {0, 1}.

    ``S = [e_1 | v]`` with the unit vector ``v`` at angle ``eps`` to ``e_1``, so
    the pair swaps two oblique subspaces and its norm grows like ``1 / eps``.
    """
    v = np.array([1.0, eps]) / np.hypot(1.0, eps)
    s = np.column_stack([[1.0, 0.0], v]).astype(complex)
    swap = [np.kron(np.eye(k), s @ np.diag(d) @ np.linalg.inv(s)) for d in ([1.0, 0.0], [0.0, 1.0])]
    return certify(swap[0], R01), certify(swap[1], R01)


# Every similarity candidate of these pairs has a unitary factor at the branch
# cut, so exp-global splits that factor as the self-adjoint constructor does.
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_oblique_swap_pairs_split_the_unitary_off_the_cut(eps, k):
    a, b = _oblique_swap(eps, k)
    path = connect_exp_global(a, b)
    assert len(path.generators) == 3
    verify_path(path, expected_endpoint=b.a)
    poly = connect_polygonal(a, b)
    assert poly.breakpoints[-1] is b
    verify_path(poly)


# At eps = 1e-9 the matcher is singular and each stacked basis is
# rank-deficient, so there is no similarity to factor at all.
@pytest.mark.parametrize("k", [1, 2, 3])
def test_oblique_swap_pairs_without_an_invertible_similarity(k):
    a, b = _oblique_swap(1e-9, k)
    for connect in (connect_exp_global, connect_polygonal):
        with pytest.raises(FactorizationFailed, match="no invertible similarity"):
            connect(a, b)


def test_log_positive_refuses_a_non_positive_eigenvalue():
    # the polar factor of an invertible matrix is positive definite, so no
    # constructor hands this one an indefinite matrix
    with pytest.raises(FactorizationFailed, match=r"eigenvalue -1\.000e\+00"):
        paths._log_positive(np.diag([1.0, -1.0]).astype(complex))


def _refusing_segment_certificates(monkeypatch, refusals):
    """Make the first ``refusals`` segment certificates fail; returns the call log."""
    calls = []
    real = paths._segment_certificates

    def refuse(points, roots, cfg):
        ok, worst, bad = real(points, roots, cfg)
        calls.append(len(points) - 1)
        return (np.zeros_like(ok) if len(calls) <= refusals else ok), worst, bad

    monkeypatch.setattr(paths, "_segment_certificates", refuse)
    return calls


def test_polygonal_chain_whose_segments_fail_retries_through_a_midpoint(monkeypatch):
    # a chain that built its breakpoints but whose segment certificates fail is
    # dropped (_ChainFailed) for two chains through the exponential midpoint
    a, b = _conjugate_pair(R01, (1, 2), (5, 23), delta=0.2)
    calls = _refusing_segment_certificates(monkeypatch, refusals=1)
    path = connect_polygonal(a, b)
    assert calls == [2, 2, 2]
    assert path.segments == 4
    verify_path(path)


def test_polygonal_chain_that_stays_degenerate_raises_after_the_retries(monkeypatch):
    # depth 4: the first chain and one per midpoint level down the left branch
    a, b = _conjugate_pair(R01, (1, 2), (5, 23), delta=0.2)
    calls = _refusing_segment_certificates(monkeypatch, refusals=10**6)
    with pytest.raises(SubspaceSplitFailed, match="stayed degenerate through midpoint retries"):
        connect_polygonal(a, b)
    assert calls == [2] * 5


def test_polygonal_two_segments_for_close_idempotent_pairs():
    for s in range(12):
        rng = rng_from(s, 18)
        m = int(rng.integers(2, 7))
        r = int(rng.integers(1, m))
        a, b = _conjugate_pair(R01, (m - r, r), (s, 19), delta=0.2)
        assert operator_norm(a.a - b.a) < 1.0
        path = connect_polygonal(a, b, seed=s)
        assert path.segments == 2
        assert max(path.certificates) <= 1e-9
        verify_path(path)


def test_polygonal_three_roots_gives_three_segments():
    roots = validate_roots([0, 1, 2])
    a = random_element((1, 1, 2), roots, seed=31)
    b = random_element((1, 1, 2), roots, seed=32)
    path = connect_polygonal(a, b, seed=5)
    assert path.segments == 3  # one subspace replacement per root, this seed
    verify_path(path)


# -- minimum-degree search -----------------------------------------------------------


def test_mindeg_same_range_pair_is_degree_one():
    # ((1-t) e + t f)^2 telescopes when ef = f and fe = e (same range)
    a = certify(E, R01)
    b = certify(F_SHEAR, R01)
    assert np.allclose(E @ F_SHEAR, F_SHEAR) and np.allclose(F_SHEAR @ E, E)
    found = min_degree_search(a, b, d_max=3, budget=4, seed=0)
    assert found.degree == 1
    assert found.path.certificate <= 1e-12


def test_mindeg_projection_pairs_within_degree_three():
    for s, m in enumerate((2, 3, 4, 6)):
        rng = rng_from(s, 20)
        r = int(rng.integers(1, m))
        a = random_element((m - r, r), R01, seed=(s, 21), self_adjoint=True)
        b = random_element((m - r, r), R01, seed=(s, 22), self_adjoint=True)
        found = min_degree_search(a, b, d_max=3, budget=8, seed=s)
        assert found.succeeded and found.degree <= 3
        np.testing.assert_allclose(found.path.start, a.a, atol=0)
        assert operator_norm(found.path.end - b.a) <= 1e-9


def test_mindeg_rejects_cross_component_requests():
    a = certify(E, R01)
    b = certify(np.eye(2), R01)
    with pytest.raises(NotSameComponent):
        min_degree_search(a, b, d_max=2, budget=2, seed=0)


def test_mindeg_hermitian_constrained_antipodal_fails():
    # rank-one orthogonal projections admit no non-constant polynomial path
    # through Hermitian values; the antipodal pair keeps every degree far out
    a = certify(E, R01)
    b = certify(F_SWAP, R01)
    found = min_degree_search(a, b, d_max=3, budget=8, seed=0, self_adjoint=True, min_motion=0.1)
    assert not found.succeeded
    assert min(found.residual_by_degree.values()) >= 1e-3


def test_mindeg_degree_whose_candidates_all_move_too_little_reads_infinite():
    # the degree-1 candidate (a, b - a) moves by ||b - a||_F = sqrt(2) < min_motion
    a, b = certify(E, R01), certify(F_SWAP, R01)
    found = min_degree_search(a, b, d_max=1, budget=1, seed=0, self_adjoint=True, min_motion=2.0)
    assert found.residual_by_degree == {1: np.inf}
    assert found.path is None


def test_mindeg_reports_residual_curve():
    a = certify(E, R01)
    b = certify(F_SWAP, R01)
    found = min_degree_search(a, b, d_max=2, budget=4, seed=0, self_adjoint=True, min_motion=0.1)
    assert set(found.residual_by_degree) == {1, 2}
    assert found.residual_by_degree[1] >= found.residual_by_degree[2] * 0.1  # curve recorded


def test_mindeg_search_runs_without_polygonal_seed(monkeypatch):
    def split_fails(*args, **kwargs):
        raise SubspaceSplitFailed("no split")

    fits = []
    monkeypatch.setattr(paths, "_polygonal_from_partitions", split_fails)
    monkeypatch.setattr(paths, "_polygonal_fit_coeffs", lambda *args: fits.append(args))
    a = random_element((1, 1), R01, seed=(0, 21), self_adjoint=True)
    b = random_element((1, 1), R01, seed=(0, 22), self_adjoint=True)
    found = min_degree_search(a, b, d_max=2, budget=3, seed=0)
    assert 2 in found.residual_by_degree  # the degree-2 restarts ran
    assert fits == []  # without a polygonal seed to fit


def test_mindeg_does_not_swallow_foreign_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug in the polygonal constructor")

    monkeypatch.setattr(paths, "_polygonal_from_partitions", broken)
    a = random_element((1, 1), R01, seed=(0, 21), self_adjoint=True)
    b = random_element((1, 1), R01, seed=(0, 22), self_adjoint=True)
    with pytest.raises(RuntimeError, match="bug in the polygonal"):
        min_degree_search(a, b, d_max=2, budget=3, seed=0)


# -- degree search Jacobian ----------------------------------------------------------


def _kron_blocks(p_coeffs, coeffs):
    """The Jacobian blocks as the degree search once built them: a power table
    from its own convolution, then one ``np.kron`` per pair of power coefficients."""
    d = coeffs.shape[0] - 1
    m = coeffs.shape[1]
    n = len(p_coeffs) - 1
    powers = [np.eye(m, dtype=complex)[None, :, :]]
    for _ in range(n):
        prev = powers[-1]
        out = np.zeros((prev.shape[0] + d, m, m), dtype=complex)
        for i in range(prev.shape[0]):
            out[i : i + d + 1] += np.einsum("ab,jbc->jac", prev[i], coeffs)
        powers.append(out)
    blocks = np.zeros(((n - 1) * d + 1, m * m, m * m), dtype=complex)
    for k in range(1, n + 1):
        pk = p_coeffs[k]
        if pk == 0:
            continue
        for i in range(k):
            pi, pj = powers[i], powers[k - 1 - i]
            for u in range(pi.shape[0]):
                for v in range(pj.shape[0]):
                    # row-major vec: vec(A E B) = (A kron B^T) vec(E)
                    blocks[u + v] += pk * np.kron(pi[u], pj[v].T)
    return blocks


# {1, -1} and {1, 1j, -1, -1j} have vanishing middle coefficients (p_1 = 0)
@pytest.mark.parametrize("roots", [(0.5,), (0, 1), (1, -1), (0, 1, 2), (1, 1j, -1), (1, 1j, -1, -1j)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_jacobian_blocks_match_the_kron_loop_byte_for_byte(roots, d, m):
    rng = rng_from(len(roots), d, m)
    coeffs = rng.standard_normal((d + 1, m, m)) + 1j * rng.standard_normal((d + 1, m, m))
    p_coeffs = poly_from_roots(roots)
    got = paths._jacobian_blocks(p_coeffs, coeffs)
    want = _kron_blocks(p_coeffs, coeffs)
    assert got.shape == want.shape == ((len(roots) - 1) * d + 1, m * m, m * m)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("roots", [(0, 1), (0, 1, 2), (1, 1j, -1)])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 3])
def test_degree_problem_jacobian_matches_central_differences(hermitian, roots, d, m):
    rng = rng_from(len(roots), d, m, int(hermitian))
    a, b = rng.standard_normal((2, m, m)) + 1j * rng.standard_normal((2, m, m))
    if hermitian:
        a, b = a + a.conj().T, b + b.conj().T
    size = (d - 1) * (m * m if hermitian else 2 * m * m)
    theta = rng.standard_normal(size)
    roots = validate_roots(roots)
    coeffs = paths._DegreeProblem(a, b, roots, d, hermitian, 0.0).coeffs_from_params(theta)
    # a min_motion above the motion keeps the penalty row live
    problem = paths._DegreeProblem(a, b, roots, d, hermitian, 2.0 * paths._motion(coeffs))
    r, coeffs = problem.residual(theta)
    jac = problem.jacobian(coeffs)
    assert jac.shape == (len(r), size) and r[-1] > 0.0
    h = 1e-6
    fd = np.stack(
        [(problem.residual(theta + h * e)[0] - problem.residual(theta - h * e)[0]) / (2 * h) for e in np.eye(size)],
        axis=1,
    )
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))
    np.testing.assert_allclose(problem.params_from_coeffs(coeffs), theta, rtol=0, atol=1e-12)


def test_jacobian_blocks_are_built_once_per_accepted_iterate(monkeypatch):
    events = []
    blocks, residual = paths._jacobian_blocks, paths._DegreeProblem.residual

    def spy_blocks(p_coeffs, coeffs):
        events.append(("blocks", coeffs))
        return blocks(p_coeffs, coeffs)

    def spy_residual(problem, theta):
        r, coeffs = residual(problem, theta)
        events.append(("residual", float(r @ r), coeffs))
        return r, coeffs

    monkeypatch.setattr(paths, "_jacobian_blocks", spy_blocks)
    monkeypatch.setattr(paths._DegreeProblem, "residual", spy_residual)
    a, b = certify(E, R01), certify(F_SWAP, R01)
    problem = paths._DegreeProblem(a.a, b.a, R01, 3, True, 0.1)
    paths._levenberg_marquardt(problem, problem.params_from_coeffs(paths._ramp_coeffs(a.a, b.a, 3)))

    # replay the search: the start and every trial that lowers the cost are accepted
    accepted, built, trials, cost = [], [], 0, np.inf
    for event in events:
        if event[0] == "blocks":
            assert event[1] is accepted[-1]  # at the newest accepted iterate
            built.append(event[1])
        else:
            trials += 1
            if event[1] < cost:
                cost = event[1]
                accepted.append(event[2])
    assert trials > len(accepted) > 1  # some trials were rejected, some accepted
    assert len(set(map(id, built))) == len(built)  # at most once per iterate
    assert len(built) >= len(accepted) - 1  # every accepted iterate but possibly the last


# -- verification ------------------------------------------------------------------


def test_verify_polynomial_line_path():
    coeffs = np.stack([np.diag([0.0, 1.0]).astype(complex), np.array([[0, 1], [0, 0]], dtype=complex)])
    path = PolynomialPath(x=MatrixPolynomial(coeffs, normalized=False), certificate=0.0)
    cert = verify_path(path, R01)
    assert cert.worst_membership == 0.0


def test_verify_polynomial_path_without_roots_is_a_precondition():
    # a polynomial path carries no root system of its own
    path = PolynomialPath(x=MatrixPolynomial.constant(E), certificate=0.0)
    with pytest.raises(PreconditionError, match="need the root system"):
        verify_path(path, None)


def test_verify_rejects_straight_cross_segment():
    coeffs = np.stack([E, F_SWAP - E])
    path = PolynomialPath(x=MatrixPolynomial(coeffs, normalized=False), certificate=0.0)
    with pytest.raises(CertificationFailed) as err:
        verify_path(path, R01)
    assert err.value.coefficient in (1, 2)


def test_verify_polynomial_rejects_non_hermitian_coefficients():
    oblique = np.array([[1, 1], [0, 0]], dtype=complex)  # idempotent, so p vanishes along the path
    path = PolynomialPath(x=MatrixPolynomial.constant(oblique), certificate=0.0, self_adjoint=True)
    with pytest.raises(CertificationFailed, match=r"^coefficients are not Hermitian: 1\.000e\+00$") as err:
        verify_path(path, R01)
    assert err.value.value == 1.0
    general = PolynomialPath(x=MatrixPolynomial.constant(oblique), certificate=0.0)
    assert verify_path(general, R01).worst_membership == 0.0


@pytest.mark.parametrize("reverse", [False, True])
def test_verify_polynomial_rejects_an_endpoint_off_the_solution_set(reverse):
    # x(t) = a + t b with a = diag(1, 1e-4) and b nilpotent of norm 1e6: every
    # coefficient of p(x(t)) is at most 1e2 against a tolerance of 4e3 set by
    # ||b||, while the small endpoint a misses p = 0 by 1e-4 against 2e-9
    a = np.diag([1.0, 1e-4]).astype(complex)
    b = np.array([[0, 1e6], [0, 0]], dtype=complex)
    coeffs = np.stack([a + b, -b] if reverse else [a, b])
    path = PolynomialPath(x=MatrixPolynomial(coeffs, normalized=False), certificate=0.0)
    side = ("start", "end")[reverse]
    with pytest.raises(CertificationFailed, match=f"^{side} point is not in the solution set") as err:
        verify_path(path, R01)
    assert err.value.sample_t == float(reverse)
    assert err.value.value == pytest.approx(1e-4, rel=1e-3)


def test_verify_exponential_rejects_a_non_hermitian_generator():
    path = paths.ExpSimilarityPath(base=certify(E, R01), generators=(np.array([[0, 1], [0, 0]], dtype=complex),),
                                   self_adjoint_mode=True)
    with pytest.raises(CertificationFailed, match=r"^generator 0 is not Hermitian: 1\.000e\+00$") as err:
        verify_path(path)
    assert err.value.coefficient == 0


def test_construction_and_verification_share_the_endpoint_gate():
    a, b = certify(E, R01), certify(F_SWAP, R01)
    still = (np.zeros((2, 2), dtype=complex),)
    message = r"^endpoint error 1\.000e\+00 exceeds 2\.000e-09$"
    with pytest.raises(CertificationFailed, match=message) as built:
        paths._gated_path(a, b, still, ToleranceConfig())
    path = paths.ExpSimilarityPath(base=a, generators=still)
    with pytest.raises(CertificationFailed, match=message) as verified:
        verify_path(path, expected_endpoint=b.a)
    assert built.value.sample_t == verified.value.sample_t == 1.0
    assert built.value.value == verified.value.value == 1.0
    assert verify_path(path, expected_endpoint=a.a).endpoint_error == 0.0


def test_verify_polygonal_flags_bad_breakpoint():
    a = certify(E, R01)
    b = certify(F_SHEAR, R01)
    path = connect_polygonal(a, b)
    tampered = type(path)(
        breakpoints=(path.breakpoints[0], certify(F_SWAP, R01), path.breakpoints[2]),
        certificates=path.certificates,
    )
    with pytest.raises(CertificationFailed):
        verify_path(tampered)


def test_verify_polygonal_names_a_tampered_middle_breakpoint():
    # shifted by 3e-9: outside the breakpoint's own tolerance (2.4e-9), inside
    # the looser one of its segments, so only the breakpoint check catches it
    path = connect_polygonal(certify(E, R01), certify(F_SHEAR, R01))
    assert path.segments == 2
    mid = path.breakpoints[1]
    shifted = AlgebraicElement(a=mid.a + 3e-9 * np.eye(2), roots=R01, residual=0.0, self_adjoint=False)
    tampered = paths.PolygonalPath(
        breakpoints=(path.breakpoints[0], shifted, path.breakpoints[2]), certificates=path.certificates
    )
    with pytest.raises(CertificationFailed, match="breakpoint 1 is not in the solution set") as err:
        verify_path(tampered)
    assert err.value.segment == 1


def test_verify_polygonal_takes_one_stacked_svd_and_one_certificate_per_path(monkeypatch):
    a, b = certify(E, R01), certify(F_SHEAR, R01)
    roots3 = validate_roots([0, 1, 2])
    cases = [
        paths.PolygonalPath(breakpoints=(a, a), certificates=(0.0,)),
        connect_polygonal(a, b),
        connect_polygonal(random_element((1, 2, 1), roots3, seed=41), random_element((1, 2, 1), roots3, seed=42)),
        connect_polygonal(a, certify(F_SWAP, R01)),  # midpoints inserted
    ]
    assert [path.segments for path in cases][:3] == [1, 2, 3] and cases[3].segments > 3
    svd, certify_stack = np.linalg.svd, algebraic._certify_stack
    for path in cases:
        shapes, stacks = [], []
        monkeypatch.setattr(np.linalg, "svd", lambda x, **kw: shapes.append(x.shape) or svd(x, **kw))
        monkeypatch.setattr(paths, "_certify_stack", lambda x, *args: stacks.append(x) or certify_stack(x, *args))
        verify_path(path)
        monkeypatch.undo()
        k, m = path.segments, path.breakpoints[0].dim
        n = path.breakpoints[0].roots.n
        # the breakpoint norms, every composed coefficient, and the two of the
        # breakpoint certificate (their norms, then residuals with Hermiticity defects)
        assert shapes == [(k + 1, m, m), (k, n + 1, m, m), (k + 1, m, m), (2 * (k + 1), m, m)]
        assert len(stacks) == 1
        np.testing.assert_array_equal(stacks[0], np.stack([bp.a for bp in path.breakpoints]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_polynomial_certificates_reject_non_finite_coefficients(bad):
    coeffs = np.stack([E, F_SWAP - E])
    coeffs[1, 0, 1] = bad
    path = PolynomialPath(x=MatrixPolynomial(coeffs, normalized=False), certificate=0.0)
    with pytest.raises(MagnitudeOverflow):
        verify_path(path, R01)
    with pytest.raises(MagnitudeOverflow):
        paths._vanishing_certificates(coeffs[None], np.ones(1), R01, ToleranceConfig())


def test_verify_roundtrips_serialized_paths():
    roots = validate_roots([0, 1, 2])
    a = random_element((1, 2, 1), roots, seed=41)
    b = random_element((1, 2, 1), roots, seed=42)
    for path in (
        connect_exp_global(a, b, seed=1),
        connect_polygonal(a, b, seed=1),
    ):
        back = path_from_json(path_to_json(path))
        verify_path(back, roots)
    found = min_degree_search(a, b, d_max=3, budget=6, seed=1)
    if found.succeeded:
        back = path_from_json(path_to_json(found.path))
        verify_path(back, roots)


# -- exponential sample grid ---------------------------------------------------------

# The per-sample evaluation the stacked grid replaced, kept as the reference it
# must reproduce to rounding: a scaling-and-squaring series exponential, and
# one sample at a time with g(t)^{-1} built from the factors e^{-tc}.


def _reference_exp(x):
    nrm = operator_norm(x)
    eye = np.eye(x.shape[0], dtype=complex)
    if nrm == 0.0:
        return eye
    squarings = max(0, int(np.ceil(np.log2(nrm / 0.5))))
    y = x / (2.0**squarings)
    acc = eye
    term = eye
    for k in range(1, 41):
        term = term @ y / k
        acc = acc + term
        if np.max(np.abs(term)) <= np.finfo(float).eps * np.max(np.abs(acc)):
            break
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def _reference_value(path, t):
    if t == 0:
        return path.base.a
    eye = np.eye(path.base.dim, dtype=complex)
    g = eye
    for c in path.generators:
        g = _reference_exp((1j * c if path.self_adjoint_mode else c) * t) @ g
    if path.self_adjoint_mode:
        return g @ path.base.a @ g.conj().T
    ginv = eye
    for c in path.generators:
        ginv = ginv @ _reference_exp(-c * t)
    return g @ path.base.a @ ginv


def _reference_samples(path, roots, samples):
    """(t, x, membership residual, its scale, hermiticity residual, ||x||) per sample."""
    out = []
    for t in np.linspace(0.0, 1.0, samples):
        x = _reference_value(path, float(t))
        value = np.eye(x.shape[0], dtype=complex)
        norm_x = operator_norm(x)
        scale = 1.0
        for r in roots.roots:
            value = value @ (x - r * np.eye(x.shape[0]))
            scale *= norm_x + abs(r)
        out.append((float(t), x, operator_norm(value), max(1.0, scale),
                    operator_norm(x - x.conj().T), norm_x))
    return out


def _exp_path(m, k, self_adjoint, seed):
    """A certified base with ``k`` random generators of operator norm 1/2."""
    roots = validate_roots([0, 1, 2] if self_adjoint else [0, 1, 1j])
    ranks = (m - m // 2 - m // 4, m // 2, m // 4)
    base = random_element(ranks, roots, seed=(seed, m, k), self_adjoint=self_adjoint)
    rng = rng_from(seed, m, k, 1)
    gens = []
    for _ in range(k):
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        if self_adjoint:
            z = 0.5 * (z + z.conj().T)
        gens.append(0.5 * z / operator_norm(z))
    return paths.ExpSimilarityPath(base=base, generators=tuple(gens),
                                   self_adjoint_mode=self_adjoint), roots


GRID_SHAPES = [(m, k, sa) for sa in (False, True) for k in (1, 2, 3) for m in (2, 4, 8, 16)]


@pytest.mark.parametrize("m, k, self_adjoint", GRID_SHAPES,
                         ids=[f"{'sa' if sa else 'gen'}-k{k}-m{m}" for m, k, sa in GRID_SHAPES])
def test_exp_grid_matches_per_sample_reference(m, k, self_adjoint):
    path, roots = _exp_path(m, k, self_adjoint, seed=41)
    ref = _reference_samples(path, roots, samples=40)
    ts = np.linspace(0.0, 1.0, 40)
    xs = path.values(ts)
    for (t, x, *_), got in zip(ref, xs):
        assert operator_norm(got - x) <= 1e-13 * operator_norm(x)
        assert operator_norm(path.value(t) - x) <= 1e-13 * operator_norm(x)
    assert xs[0].tobytes() == path.base.a.tobytes()  # bit for bit, signed zeros too
    assert path.value(0.0).tobytes() == path.base.a.tobytes()
    np.testing.assert_array_equal(path.transporter(0.0), np.eye(m))

    cert = verify_path(path, roots, expected_endpoint=ref[-1][1], samples=40)
    scale = max(s[3] for s in ref)
    assert abs(cert.worst_membership - max(s[2] for s in ref)) <= 1e-13 * scale
    assert cert.endpoint_error <= 1e-13 * operator_norm(ref[-1][1])
    if self_adjoint:
        herm_ref = max(operator_norm(c - c.conj().T) for c in path.generators)
        herm_ref = max([herm_ref] + [s[4] for s in ref])
        assert abs(cert.worst_hermiticity - herm_ref) <= 1e-13 * (1.0 + max(s[5] for s in ref))
    else:
        assert cert.worst_hermiticity is None


@pytest.mark.parametrize("self_adjoint", [False, True], ids=["general", "self-adjoint"])
def test_exp_grid_certificate_ignores_block_boundaries(self_adjoint, monkeypatch):
    path, roots = _exp_path(4, 2, self_adjoint, seed=43)
    end = path.value(1.0)
    whole = verify_path(path, roots, expected_endpoint=end)
    # blocks of seven samples: the boundaries fall inside the grid of 100
    monkeypatch.setattr(paths, "_GRID_BLOCK_BYTES", 7 * 16 * 4 * 4)
    assert verify_path(path, roots, expected_endpoint=end) == whole


def test_exp_grid_reports_the_first_failing_sample():
    # A base slightly off the solution set: p(x(t)) = g p(a) g^{-1} moves with
    # t, so the residuals are well above rounding and ordered along the path.
    path, roots = _exp_path(4, 2, False, seed=47)
    off = np.array(path.base.a)
    off[0, 1] += 1e-6
    base = type(path.base)(a=off, roots=roots, residual=0.0, self_adjoint=False)
    path = paths.ExpSimilarityPath(base=base, generators=path.generators)
    ref = _reference_samples(path, roots, samples=100)
    ratios = np.array([res / scale for _, _, res, scale, _, _ in ref])
    assert ratios[0] < ratios.max()
    for tol in (ratios[0] * (ratios.max() / ratios[0]) ** q for q in (0.3, 0.6, 0.9)):
        # keep the squeezed tolerance away from every ratio by far more than rounding
        assert np.min(np.abs(ratios / tol - 1.0)) > 1e-9
        first = int(np.argmax(ratios > tol))
        t, _, res, _, _, _ = ref[first]
        with pytest.raises(CertificationFailed) as err:
            verify_path(path, roots, ToleranceConfig(residual_tol=tol))
        assert err.value.sample_t == t
        assert abs(err.value.value - res) <= 1e-9 * res
        assert str(err.value).startswith(f"membership fails at t = {t:.4f}: residual ")


@pytest.mark.parametrize("m", [2, 8, 16])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("self_adjoint", [False, True], ids=["general", "self-adjoint"])
def test_verify_exp_path_calls_expm_once_per_generator_and_block(m, k, self_adjoint, monkeypatch):
    # the random generators of general mode are non-normal: one stacked expm per
    # generator, direction and block; the Hermitian ones of self-adjoint mode are
    # normal and take the diagonal route, no expm at all.  Either way the path
    # takes one Schur form per generator, however many times it is evaluated.
    path, roots = _exp_path(m, k, self_adjoint, seed=53)
    expm_calls, schur_calls = [], []
    expm, schur = scipy.linalg.expm, scipy.linalg.schur
    monkeypatch.setattr(scipy.linalg, "expm", lambda x: expm_calls.append(x.shape) or expm(x))
    monkeypatch.setattr(scipy.linalg, "schur", lambda *a, **kw: schur_calls.append(1) or schur(*a, **kw))
    end = path.value(1.0)
    expm_calls.clear()
    verify_path(path, roots, expected_endpoint=end, samples=100)
    verify_path(path, roots, expected_endpoint=end, samples=100)
    per_block = max(1, paths._GRID_BLOCK_BYTES // (16 * m * m))
    blocks = -(-100 // per_block)
    assert len(expm_calls) == (0 if self_adjoint else 2 * 2 * k * blocks)
    assert all(shape[0] <= per_block for shape in expm_calls)
    assert len(schur_calls) == k


def _is_diagonal_route(path):
    return [q is not None for _, q, _ in path._exponents]


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_polar_and_selfadjoint_generators_take_the_diagonal_route(m):
    # log h and iK of the polar split and the Hermitian K of self-adjoint mode
    # are normal; the near-identity logarithm of exp-local is not
    roots = validate_roots([0, 1, 2])
    ranks = (m - m // 2 - m // 4, m // 2, m // 4)
    for s in range(2):
        a = random_element(ranks, roots, seed=(s, m, 61))
        b = random_element(ranks, roots, seed=(s, m, 62))
        path = connect_exp_global(a, b)
        assert len(path.generators) == 2 and _is_diagonal_route(path) == [True, True]
        verify_path(path, expected_endpoint=b.a)

        a = random_element(ranks, roots, seed=(s, m, 63), self_adjoint=True)
        b = random_element(ranks, roots, seed=(s, m, 64), self_adjoint=True)
        path = connect_selfadjoint(a, b)
        assert _is_diagonal_route(path) == [True] * len(path.generators)
        verify_path(path, expected_endpoint=b.a)

        a, b = _conjugate_pair(roots, ranks, (s, m, 65))
        path = connect_exp_local(a, b)
        assert _is_diagonal_route(path) == [False]
        verify_path(path, expected_endpoint=b.a)


@pytest.mark.parametrize("side", [0.8, 1.25], ids=["below", "above"])
def test_exponential_routes_agree_with_expm_at_the_normality_cutoff(side):
    # c = Q (diag(lam) + eps N) Q* has departure from normality eps ||N||_F in
    # every Schur form; put it a little below or above 8 m u ||c||_F
    m = 8
    rng = rng_from(67, m)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    lam = rng.uniform(-0.5, 0.5, m)
    n = np.triu(rng.standard_normal((m, m)), 1)
    cutoff = 8 * m * np.finfo(float).eps * np.linalg.norm(lam)
    c = q @ (np.diag(lam) + side * cutoff * n / np.linalg.norm(n)) @ q.conj().T
    base = certify(np.diag([1.0] * (m // 2) + [0.0] * (m // 2)), R01)
    path = paths.ExpSimilarityPath(base=base, generators=(c,))
    t_schur = scipy.linalg.schur(c, output="complex")[0]
    off = np.linalg.norm(np.triu(t_schur, 1)) / (np.finfo(float).eps * np.linalg.norm(c))
    assert (off < 8 * m) == (side < 1)
    assert _is_diagonal_route(path) == [side < 1]
    ts = np.linspace(0.0, 1.0, 11)
    for sign in (1.0, -1.0):
        got = path._exp_stack(0, sign * ts)
        for t, e in zip(sign * ts, got):
            ref = scipy.linalg.expm(t * c)
            assert operator_norm(e - ref) <= 1e-13 * operator_norm(ref)
    np.testing.assert_array_equal(path.transporter(0.0), np.eye(m))


TINY_GAP = validate_roots([0, 1e-9])


def test_selfadjoint_path_over_a_tiny_root_gap_certifies():
    for m, ranks in ((2, (1, 1)), (3, (1, 2))):
        a = random_element(ranks, TINY_GAP, seed=(m, 71), self_adjoint=True)
        b = random_element(ranks, TINY_GAP, seed=(m, 72), self_adjoint=True)
        path = connect_selfadjoint(a, b)
        cert = verify_path(path, expected_endpoint=b.a)
        assert cert.worst_hermiticity < 1e-15


def test_selfadjoint_samples_are_judged_on_the_element_scale():
    # x = 1e-9 (e + 1e-4 n) is a root-scaled idempotent with ||x - x*|| = 1e-13:
    # above residual_tol (||x|| + min(1, min_gap)) = 2e-18, which the sampler and
    # certify use, below the residual_tol (1 + ||x||) = 1e-9 samples used to get
    x = np.array([[1e-9, 1e-13], [0.0, 0.0]], dtype=complex)
    cfg = ToleranceConfig()
    defect = operator_norm(x - x.conj().T)
    assert algebraic._hermiticity_tolerance(operator_norm(x), TINY_GAP, cfg) < defect
    assert defect < cfg.residual_tol * (1.0 + operator_norm(x))
    assert not certify(x, TINY_GAP).self_adjoint
    base = AlgebraicElement(a=x, roots=TINY_GAP, residual=0.0, self_adjoint=True)
    k = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    path = paths.ExpSimilarityPath(base=base, generators=(k,), self_adjoint_mode=True)
    with pytest.raises(CertificationFailed, match="leaves the self-adjoint set at t = 0.0000"):
        verify_path(path)


def test_verify_rejects_paths_whose_magnitude_overflows():
    # [[300, 800], [0, -300]]: ||x(1)|| is about 5e260, so the scale ||x|| (||x|| + 1)
    # overflows; the tolerance used to become inf and pass a residual of 1.1e245.
    # The other two overflow e^{800} itself, one on the diagonal route (normal) and
    # one through expm; their non-finite samples used to end in a LinAlgError.
    base = certify(E, R01)
    for generator in ([[300, 800], [0, -300]], [[0, 800], [800, 0]], [[800, 800], [0, -800]]):
        path = paths.ExpSimilarityPath(base=base, generators=(np.array(generator, dtype=complex),))
        with pytest.raises(MagnitudeOverflow):
            verify_path(path)
    big = PolynomialPath(x=MatrixPolynomial.line(1e200 * E, E), certificate=0.0)
    with pytest.raises(MagnitudeOverflow):
        verify_path(big, R01)
    # a breakpoint whose own scale 2r^2 is finite, on a segment whose 6r^2 is not
    roots = validate_roots([0, 7e153])
    x = certify(7e153 * E, roots)
    with pytest.raises(MagnitudeOverflow):
        verify_path(paths.PolygonalPath(breakpoints=(x, x), certificates=(0.0,)), roots)


# -- bracketed sample checks against the SVD oracle -----------------------------------

# The sample checks as they were before the operator-norm brackets: every
# sample's ||x||, ||p(x)|| and ||x - x*|| from a stacked SVD.  The bracketed
# verifier must give the same certificate, or the same failure, bit for bit.


def _oracle_verify_exponential(path, roots, cfg, expected_endpoint, samples):
    worst_mem = 0.0
    worst_herm = 0.0 if path.self_adjoint_mode else None
    if path.self_adjoint_mode:
        for i, c in enumerate(path.generators):
            h = operator_norm(c - c.conj().T)
            if h > cfg.residual_tol * (1.0 + operator_norm(c)):
                raise CertificationFailed(f"generator {i} is not Hermitian: {h:.3e}", coefficient=i, value=h)
            worst_herm = max(worst_herm, h)
    grid = np.linspace(0.0, 1.0, samples)
    step = max(1, paths._GRID_BLOCK_BYTES // (16 * path.base.dim**2))
    for lo in range(0, samples, step):
        ts = grid[lo : lo + step]
        with np.errstate(over="ignore", invalid="ignore"):
            x = path.values(ts)
        value, scale, norm_x = algebraic.eval_defining_poly(x, roots)
        res = np.linalg.svd(value, compute_uv=False)[:, 0]
        bad_mem = ~(res <= cfg.residual_tol * scale)
        bad = bad_mem
        if path.self_adjoint_mode:
            herm = np.linalg.svd(x - x.conj().swapaxes(-1, -2), compute_uv=False)[:, 0]
            bad = bad_mem | ~(herm <= algebraic._hermiticity_tolerance(norm_x, roots, cfg))
        if bad.any():
            i = int(np.argmax(bad))
            t = float(ts[i])
            if bad_mem[i]:
                raise CertificationFailed(f"membership fails at t = {t:.4f}: residual {res[i]:.3e}",
                                          sample_t=t, value=float(res[i]))
            raise CertificationFailed(f"path leaves the self-adjoint set at t = {t:.4f}: {herm[i]:.3e}",
                                      sample_t=t, value=float(herm[i]))
        worst_mem = max(worst_mem, float(res.max()))
        if path.self_adjoint_mode:
            worst_herm = max(worst_herm, float(herm.max()))
    endpoint_error = None
    if expected_endpoint is not None:
        end = x[-1] if samples > 1 else path.value(1.0)
        endpoint_error = paths._endpoint_error(end, expected_endpoint, cfg)
    return paths.PathCertificate(kind="exponential", worst_membership=worst_mem,
                                 endpoint_error=endpoint_error, worst_hermiticity=worst_herm,
                                 samples=samples)


def _outcome(verify, *args):
    """The certificate's repr, or the failure's type, message and fields (floats by repr)."""
    try:
        return repr(verify(*args))
    except (CertificationFailed, MagnitudeOverflow) as exc:
        return type(exc).__name__, str(exc), repr(vars(exc))


def _assert_matches_the_oracle(path, roots, cfg, samples, expected_endpoint=None):
    got = _outcome(verify_path, path, roots, cfg, expected_endpoint, samples)
    want = _outcome(_oracle_verify_exponential, path, roots, cfg, expected_endpoint, samples)
    assert got == want
    return want


class _SampledOnce(paths.ExpSimilarityPath):
    """An exponential path that computes each sample grid once: both verifiers
    then judge the very same samples, and the sweeps below stay cheap."""

    def values(self, ts):
        cache = self.__dict__.setdefault("_grids", {})
        key = np.asarray(ts, dtype=float).tobytes()
        if key not in cache:
            cache[key] = super().values(ts)
        return cache[key].copy()


def _oracle_bases(m, self_adjoint):
    """An exponential path's generators with its base, the base off the solution
    set, and (self-adjoint mode) the base off the Hermitian matrices only."""
    path, roots = _exp_path(m, 2, self_adjoint, seed=83)
    a = path.base.a
    rng = rng_from(83, m, int(self_adjoint))
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    bases = [a, a + 1e-7 * z / operator_norm(z)]
    if self_adjoint:
        # a + d P_0 z P_1 keeps the spectrum of a (block triangular in its
        # eigenbasis), so it stays in the solution set
        p = algebraic.spectral_resolution(path.base).members
        bases.append(a + 1e-7 * p[0] @ z @ p[1] / operator_norm(p[0] @ z @ p[1]))
    return [_SampledOnce(
        base=AlgebraicElement(a=b, roots=roots, residual=0.0, self_adjoint=self_adjoint),
        generators=path.generators, self_adjoint_mode=self_adjoint) for b in bases], roots


def _oracle_tolerances(path, roots, samples):
    """The default tolerance, and per check three taken from the ratios of the
    samples' exact defects to their scales: the ratio at t = 0, which fails the
    samples above it along the path; the largest, which ties the worst sample
    with its own tolerance to rounding; and just below the largest, which fails
    the worst sample alone, whichever samples the brackets clear around it."""
    x = path.values(np.linspace(0.0, 1.0, samples))
    value, scale, norm_x = algebraic.eval_defining_poly(x, roots)
    ratios = [np.linalg.svd(value, compute_uv=False)[:, 0] / scale]
    if path.self_adjoint_mode:
        herm = np.linalg.svd(x - x.conj().swapaxes(-1, -2), compute_uv=False)[:, 0]
        ratios.append(herm / (norm_x + min(1.0, roots.min_gap)))
    return [1e-9] + [float(t) for r in ratios for t in (r[0], r.max(), r.max() * (1 - 1e-12))]


ORACLE_SHAPES = [(m, n, sa) for sa in (False, True) for m in (2, 16, 32) for n in (1, 2, 100, 257)]


def _assert_sweep_matches_the_oracle(m, samples, self_adjoint):
    variants, roots = _oracle_bases(m, self_adjoint)
    kinds, failed_at = set(), set()
    for path in variants:
        end = path.value(1.0)
        for tol in _oracle_tolerances(path, roots, samples):
            want = _assert_matches_the_oracle(path, roots, ToleranceConfig(residual_tol=tol), samples, end)
            if isinstance(want, tuple):
                kinds.add(want[1].split(" at t = ")[0])
                failed_at.add(want[1].split(" at t = ")[1][:6])
            else:
                kinds.add("passes")
    expected = {"passes", "membership fails"}
    if self_adjoint:
        expected.add("path leaves the self-adjoint set")
    assert expected <= kinds
    if samples > 2:
        assert failed_at - {"0.0000"}  # some failure lies beyond the first sample


@pytest.mark.parametrize("m, samples, self_adjoint", ORACLE_SHAPES,
                         ids=[f"{'sa' if sa else 'gen'}-m{m}-n{n}" for m, n, sa in ORACLE_SHAPES])
def test_verify_exponential_matches_the_svd_oracle(m, samples, self_adjoint):
    _assert_sweep_matches_the_oracle(m, samples, self_adjoint)


def _overflowing_paths(self_adjoint):
    """General mode: e^{800 t} overflows part of the way along (non-finite
    samples) or ||x(t)|| (||x|| + 1) does.  Self-adjoint mode: the base sits
    at 1e160 next to a root there, so the first block's scale overflows."""
    if self_adjoint:
        roots = validate_roots([0, 1e160])
        base = AlgebraicElement(a=1e160 * E, roots=roots, residual=0.0, self_adjoint=True)
        k = np.array([[0, 1], [1, 0]], dtype=complex)
        return [paths.ExpSimilarityPath(base=base, generators=(k,), self_adjoint_mode=True)], roots
    base = certify(E, R01)
    return [paths.ExpSimilarityPath(base=base, generators=(np.array(g, dtype=complex),))
            for g in ([[300, 800], [0, -300]], [[0, 800], [800, 0]], [[800, 800], [0, -800]])], R01


@pytest.mark.parametrize("self_adjoint", [False, True], ids=["general", "self-adjoint"])
@pytest.mark.parametrize("samples", [1, 2, 100, 257])
def test_verify_exponential_overflow_matches_the_svd_oracle(samples, self_adjoint):
    cases, roots = _overflowing_paths(self_adjoint)
    for path in cases:
        want = _assert_matches_the_oracle(path, roots, ToleranceConfig(), samples)
        if samples > 2 or self_adjoint:
            assert want[0] == "MagnitudeOverflow"


def _loose_bounds(stack):
    """A valid bracket far looser than the kernel's: the computed norm times a
    random factor in [1/4, 1] below and in [1, 4] above."""
    finite = np.isfinite(stack).all(axis=(-2, -1))
    sigma = np.zeros(stack.shape[:-2])
    sigma[finite] = np.linalg.svd(stack[finite], compute_uv=False)[:, 0]
    rng = np.random.default_rng(sigma.size)
    lo = sigma * rng.uniform(0.25, 1.0, sigma.shape)
    return lo, np.where(finite, sigma * rng.uniform(1.0, 4.0, sigma.shape), np.inf)


@pytest.mark.parametrize("self_adjoint", [False, True], ids=["general", "self-adjoint"])
@pytest.mark.parametrize("m, samples", [(2, 100), (16, 2), (16, 100)])
def test_verify_exponential_needs_only_a_valid_bracket(m, samples, self_adjoint, monkeypatch):
    # the reports may not depend on how tight the bracket is: with a loose one,
    # more samples reach the exact checks and more rows may hold the maximum,
    # and the outcome is still the oracle's, bit for bit
    monkeypatch.setattr(paths, "operator_norm_bounds", _loose_bounds)
    _assert_sweep_matches_the_oracle(m, samples, self_adjoint)
    for path in _overflowing_paths(self_adjoint)[0]:
        _assert_matches_the_oracle(path, path.base.roots, ToleranceConfig(), samples)


def test_verify_exponential_rows_holding_the_max_may_pass_before_a_failing_sample():
    # x(t) = g (a + d) g^{-1} with a = [[1, 100], [0, 0]] and g = diag(e^{-2t}, e^{2t}):
    # p(x) = 2 d x_a(t) + d (d - 1) with ||x_a(t)|| falling from 100 to 1.8, so
    # the early samples hold the largest residuals yet pass on their large
    # scale, and the later ones fail on their small one, all in one block
    d = 1e-8
    base = AlgebraicElement(a=np.array([[1 + d, 100], [0, d]], dtype=complex), roots=R01,
                            residual=0.0, self_adjoint=False)
    path = paths.ExpSimilarityPath(base=base, generators=(np.diag([-2.0, 2.0]).astype(complex),))
    want = _assert_matches_the_oracle(path, R01, ToleranceConfig(), 100)
    assert want[1].startswith("membership fails at t = 0.")
    assert not want[1].startswith("membership fails at t = 0.0000")


def test_verify_exponential_scale_bracket_straddling_the_float_maximum():
    # ||x|| = s with 2 s^2 just below the float maximum: the upper bracket's
    # magnitude overflows, the exact one does not, and the path certifies
    big = np.finfo(float).max
    s = np.sqrt(big / 2) * (1 - 16 * np.finfo(float).eps)
    roots = validate_roots([0, s])
    base = AlgebraicElement(a=s * E, roots=roots, residual=0.0, self_adjoint=True)
    lo, hi = paths.operator_norm_bounds(base.a[None])
    with pytest.raises(MagnitudeOverflow):
        roots.magnitude(hi)
    assert np.isfinite(roots.magnitude(operator_norm(base.a)))
    for self_adjoint in (False, True):
        path = paths.ExpSimilarityPath(base=base, generators=(np.zeros((2, 2), dtype=complex),),
                                       self_adjoint_mode=self_adjoint)
        cert = _assert_matches_the_oracle(path, roots, ToleranceConfig(), 100, base.a)
        assert "worst_membership=0.0" in cert
