"""Kernel primitives: norms, exp/log, matrix-coefficient polynomials."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from algpaths.errors import MagnitudeOverflow, NotNearIdentity
from algpaths.matkernel import (
    MatrixPolynomial,
    ToleranceConfig,
    mat_exp,
    mat_log_near_identity,
    matpoly_compose_p,
    matpoly_is_zero,
    matpoly_mul,
    operator_norm,
    operator_norms,
    poly_eval_scalar_coeffs,
    poly_from_roots,
)
from algpaths.seeding import haar_unitary, rng_from

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)


def test_operator_norm_identity():
    assert operator_norm(np.eye(3)) == 1.0


def test_operator_norm_single_singular_value():
    assert operator_norm(np.array([[0, 2], [0, 0]])) == 2.0


def test_operator_norm_shear():
    # Oracle: for a = [[1,1],[0,1]], a*a = [[1,1],[1,2]] has eigenvalues
    # (3 +- sqrt(5))/2, so the largest singular value is the golden ratio.
    expected = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
    assert abs(expected - (1.0 + math.sqrt(5.0)) / 2.0) < 1e-15
    got = operator_norm(np.array([[1, 1], [0, 1]]))
    assert abs(got - 1.6180339887498949) < 1e-12


def test_mat_exp_zero():
    np.testing.assert_array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))


def test_mat_exp_nilpotent():
    np.testing.assert_allclose(mat_exp(E12), np.eye(2) + E12, atol=1e-15)


def test_mat_exp_diagonal():
    got = mat_exp(np.diag([math.log(2.0), 0.0]))
    np.testing.assert_allclose(got, np.diag([2.0, 1.0]), rtol=1e-14)


def test_mat_exp_matches_reference_up_to_norm_ten():
    rng = rng_from(7)
    worst = 0.0
    for _ in range(60):
        m = int(rng.integers(2, 13))
        x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        x *= rng.uniform(0.0, 10.0) / operator_norm(x)
        ours = mat_exp(x)
        ref = scipy.linalg.expm(x)
        worst = max(worst, operator_norm(ours - ref) / operator_norm(ref))
    assert worst <= 1e-12


def test_mat_log_identity():
    np.testing.assert_array_equal(mat_log_near_identity(np.eye(2)), np.zeros((2, 2)))


def test_mat_log_nilpotent_exact():
    got = mat_log_near_identity(np.eye(2) + 0.5 * E12)
    np.testing.assert_allclose(got, 0.5 * E12, atol=1e-15)


def test_mat_log_diagonal_scalar_oracle():
    got = mat_log_near_identity(np.diag([1.5, 1.0]))
    np.testing.assert_allclose(got, np.diag([math.log(1.5), 0.0]), atol=1e-14)


def test_mat_log_rejects_far_arguments():
    with pytest.raises(NotNearIdentity):
        mat_log_near_identity(np.diag([2.2, 1.0]))
    # the series is trusted up to ||w - 1|| < 0.99
    np.testing.assert_allclose(mat_log_near_identity(np.diag([1.98, 1.0])), np.diag([math.log(1.98), 0.0]),
                               atol=1e-14)
    with pytest.raises(NotNearIdentity, match=r"^\|\|w - 1\|\| = 0\.990000 >= margin 0\.99$"):
        mat_log_near_identity(np.diag([1.99, 1.0]))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_exp_log_roundtrip(seed):
    rng = rng_from(seed)
    m = int(rng.integers(2, 9))
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    x *= rng.uniform(0.0, 0.5) / max(1e-12, operator_norm(x))
    back = mat_log_near_identity(mat_exp(x))
    assert operator_norm(back - x) <= 1e-9


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_operator_norm_submultiplicative_and_unitarily_invariant(seed):
    rng = rng_from(seed, 1)
    m = int(rng.integers(2, 9))
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) * (1 + 1e-12)
    u, v = haar_unitary(m, [rng, rng])  # two draws from the one stream, in order
    assert abs(operator_norm(u @ a @ v) - operator_norm(a)) <= 1e-10 * operator_norm(a)


@pytest.mark.parametrize("m", [2, 16, 32])
def test_svd_of_a_row_subset_is_the_subset_of_the_stacked_svd(m):
    # the bracketed verifier hands np.linalg.svd only the undecided rows of a
    # block and judges them on those values: the premise of its verdicts
    # matching the all-row oracle bit for bit is that LAPACK works matrix by matrix
    rng = rng_from(101, m)
    stack = rng.standard_normal((40, m, m)) + 1j * rng.standard_normal((40, m, m))
    whole = np.linalg.svd(stack, compute_uv=False)[:, 0]
    for idx in ([0], [39], [3, 17, 18], list(range(0, 40, 3))):
        part = np.linalg.svd(stack[idx], compute_uv=False)[:, 0]
        assert part.tobytes() == whole[idx].tobytes()
        assert operator_norms(np.concatenate((stack[idx], stack[:2])))[: len(idx)].tobytes() == part.tobytes()


def test_poly_from_roots_expands_monic():
    np.testing.assert_allclose(poly_from_roots([0, 1]), [0, -1, 1], atol=0)
    np.testing.assert_allclose(poly_from_roots([1, -1]), [-1, 0, 1], atol=0)


def test_poly_eval_idempotent_annihilated():
    p = [0, -1, 1]  # t^2 - t
    np.testing.assert_array_equal(poly_eval_scalar_coeffs(p, np.diag([1.0, 0.0])), np.zeros((2, 2)))


def test_poly_eval_nilpotent():
    p = [0, -1, 1]
    np.testing.assert_allclose(poly_eval_scalar_coeffs(p, E12), -E12, atol=0)


def test_poly_eval_plus_minus_one():
    p = [-1, 0, 1]  # (t - 1)(t + 1)
    got = poly_eval_scalar_coeffs(p, np.diag([1.0, -1.0, 1.0]))
    np.testing.assert_allclose(got, np.zeros((3, 3)), atol=0)


def test_compose_constant_idempotent_is_zero():
    x = MatrixPolynomial(np.diag([1.0, 0.0])[None])
    q = matpoly_compose_p([0, -1, 1], x)
    ok, worst = matpoly_is_zero(q)
    assert ok and worst == 0.0


def test_compose_shifted_idempotent_line_is_zero():
    # Hand expansion: (E22 + t E12)^2 = E22 + t E12 because E22 E12 = 0,
    # E12 E22 = E12 and E12^2 = 0, so the composition vanishes identically.
    x = MatrixPolynomial(np.stack([E22, E12]))  # E22 + t E12
    q = matpoly_compose_p([0, -1, 1], x)
    ok, worst = matpoly_is_zero(q)
    assert ok
    assert worst <= 1e-15


def test_compose_straight_segment_between_orthogonal_idempotents():
    # Hand expansion for x(t) = (1-t) diag(1,0) + t diag(0,1):
    # x^2 - x = (t^2 - t) I, so coefficients at t and t^2 equal -I and I.
    a, b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    x = MatrixPolynomial(np.stack([a, b - a]))
    q = matpoly_compose_p([0, -1, 1], x)
    ok, worst = matpoly_is_zero(q)
    assert not ok
    assert abs(worst - 1.0) < 1e-15
    np.testing.assert_allclose(q.coeffs[0], np.zeros((2, 2)), atol=0)
    np.testing.assert_allclose(q.coeffs[1], -np.eye(2), atol=0)
    np.testing.assert_allclose(q.coeffs[2], np.eye(2), atol=0)


def test_matpoly_is_zero_reports_certificate():
    zero = MatrixPolynomial(np.zeros((3, 2, 2)))
    assert matpoly_is_zero(zero) == (True, 0.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.nan)])
def test_matpoly_is_zero_rejects_non_finite_coefficients(bad):
    # max(0.0, nan) kept 0.0, so an infinite coefficient certified as zero; a
    # NaN one raised a bare LinAlgError from the SVD
    coeffs = np.zeros((2, 2, 2), dtype=complex)
    coeffs[1, 0, 0] = bad
    with pytest.raises(MagnitudeOverflow):
        matpoly_is_zero(MatrixPolynomial(coeffs))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_compose_agrees_with_pointwise_evaluation(seed):
    rng = rng_from(seed, 2)
    m = int(rng.integers(2, 9))
    d = int(rng.integers(1, 5))
    n = int(rng.integers(1, 4))
    coeffs = rng.standard_normal((d + 1, m, m)) + 1j * rng.standard_normal((d + 1, m, m))
    x = MatrixPolynomial(coeffs)
    p = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    q = matpoly_compose_p(p, x)
    assert q.degree <= n * d
    for t in rng.uniform(0.0, 1.0, size=3):
        lhs = q.eval(t)
        rhs = poly_eval_scalar_coeffs(p, x.eval(t))
        assert operator_norm(lhs - rhs) <= 1e-10 * (1.0 + operator_norm(rhs))


def test_matpoly_mul_keeps_order():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    b = np.array([[0, 0], [1, 0]], dtype=complex)
    left = matpoly_mul(MatrixPolynomial(a[None]), MatrixPolynomial(b[None]))
    right = matpoly_mul(MatrixPolynomial(b[None]), MatrixPolynomial(a[None]))
    np.testing.assert_allclose(left.coeffs[0], a @ b, atol=0)
    np.testing.assert_allclose(right.coeffs[0], b @ a, atol=0)


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(residual_tol=-1.0)
    # residual_tol = inf certified a matrix with residual 43; nan failed every certificate
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            ToleranceConfig(residual_tol=bad)


def test_operator_norm_of_an_empty_array_is_zero():
    assert operator_norm(np.zeros((0, 0))) == 0.0


def test_no_coefficients_evaluate_to_the_zero_matrix():
    np.testing.assert_array_equal(poly_eval_scalar_coeffs([], E12), np.zeros((2, 2)))


def test_no_coefficients_compose_to_the_zero_polynomial():
    q = matpoly_compose_p([], MatrixPolynomial(E12[None]))
    assert q.coeffs.shape == (1, 2, 2) and not q.coeffs.any()


@pytest.mark.parametrize("shape", [(2, 2), (1, 2, 3), (1, 2, 2, 2)])
def test_matrix_polynomial_refuses_coefficients_that_are_not_a_stack_of_squares(shape):
    with pytest.raises(ValueError, match=r"expected coefficients of shape \(d\+1, m, m\)"):
        MatrixPolynomial(np.zeros(shape))


def test_matpoly_mul_refuses_mismatched_dimensions():
    with pytest.raises(ValueError, match="coefficient dimensions differ"):
        matpoly_mul(MatrixPolynomial(np.zeros((1, 2, 2))), MatrixPolynomial(np.zeros((1, 3, 3))))
