"""Dense complex square-matrix kernel.

Everything downstream (spectral resolutions, connecting paths, component
probes) is built on the handful of primitives here: the operator norm, the
matrix exponential and near-identity logarithm, and exact arithmetic on
polynomials with matrix coefficients.  All matrices are
``numpy`` arrays of shape ``(m, m)`` with complex128 entries; values are never
mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MagnitudeOverflow, NotNearIdentity, PreconditionError

__all__ = [
    "ToleranceConfig",
    "as_matrix",
    "identity_like",
    "operator_norm",
    "operator_norms",
    "mat_exp",
    "mat_log_near_identity",
    "poly_from_roots",
    "poly_eval_scalar_coeffs",
    "MatrixPolynomial",
    "matpoly_mul",
    "matpoly_compose_p",
    "matpoly_is_zero",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """The tolerance of the whole certification chain.

    residual_tol
        Base tolerance for every residual certificate; operations scale it by
        the magnitude of their inputs where the arithmetic demands it.
    """

    residual_tol: float = 1e-9

    def __post_init__(self):
        if not 0 <= self.residual_tol < np.inf:
            raise ValueError("residual_tol must be finite and non-negative")


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix of size at least 1 with finite entries, else :class:`PreconditionError`."""
    try:
        a = np.asarray(a, dtype=complex)
    except (TypeError, ValueError):  # ragged rows, or entries that are not numbers
        raise PreconditionError("expected a square matrix of numbers") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise PreconditionError(f"expected a square matrix of size at least 1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise PreconditionError("matrix entries must be finite")
    return a


def identity_like(a: np.ndarray) -> np.ndarray:
    return np.eye(a.shape[0], dtype=complex)


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value: the norm of the full matrix algebra."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Operator norm of every matrix of a stack ``(..., m, m)``, one stacked SVD.

    Non-finite entries raise :class:`MagnitudeOverflow`, not a bare ``LinAlgError``.
    """
    if not np.isfinite(stack).all():
        raise MagnitudeOverflow("matrices with non-finite entries have no operator norm")
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _frobenius(z: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes, bit-exact with ``np.linalg.norm``.

    ``np.linalg.norm`` sums the squares of the strided real and imaginary
    views with two BLAS dot products; a ``(1, n) @ (n, 1)`` product over the
    same strided views takes that dot product, where ``einsum``, a contiguous
    copy or ``norm(axis=...)`` round differently in the last bit.
    """
    flat = z.shape[:-2] + (z.shape[-2] * z.shape[-1],)
    re, im = z.real.reshape(flat), z.imag.reshape(flat)
    sq = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(sq[..., 0, 0])


# -- exponential and logarithm ------------------------------------------------

def mat_exp(x: np.ndarray) -> np.ndarray:
    """Matrix exponential (``scipy.linalg.expm``, Al-Mohy & Higham 2009)."""
    # imported here, not at the top: loading scipy.linalg ahead of the other
    # algpaths modules left every process about 1 MB larger (import order alone)
    import scipy.linalg

    return scipy.linalg.expm(as_matrix(x))


_LOG_SERIES_MAX_TERMS = 20000
# The largest ||w - 1|| the series logarithm accepts.  It is tied to the term
# cap: the stopping test's bound 0.99^k / (k + 1) on the next term falls below
# eps by k = 2,800, well inside the 20,000 terms.
_LOG_SERIES_MARGIN = 0.99


def mat_log_near_identity(w: np.ndarray) -> np.ndarray:
    """Principal logarithm of a matrix close to the identity.

    Sums ``log(1 + X) = X - X^2/2 + X^3/3 - ...`` for ``X = w - 1``.  The
    series needs ``||X|| < 1``; the margin ``||X|| < 0.99`` keeps a strip
    away from the boundary, where convergence slows and accuracy degrades.
    Raises :class:`NotNearIdentity` when the argument is too far out.
    """
    w = as_matrix(w)
    x = w - identity_like(w)
    dist = operator_norm(x)
    if dist >= _LOG_SERIES_MARGIN:
        raise NotNearIdentity(f"||w - 1|| = {dist:.6f} >= margin {_LOG_SERIES_MARGIN}")
    if dist == 0.0:
        return np.zeros_like(w)

    acc = np.array(x)
    power = np.array(x)
    sign = -1.0
    for k in range(2, _LOG_SERIES_MAX_TERMS + 1):
        power = power @ x
        term = (sign / k) * power
        acc = acc + term
        sign = -sign
        # ||X^k|| <= dist**k, so once the bound drops below round-off the
        # remaining tail cannot move the sum.
        if np.max(np.abs(power)) / (k + 1) <= np.finfo(float).eps * max(1.0, np.max(np.abs(acc))):
            break
    return acc


# -- scalar-coefficient polynomials -------------------------------------------

def poly_from_roots(roots) -> np.ndarray:
    """Ascending coefficients of the monic polynomial with the given roots."""
    coeffs = np.array([1.0 + 0.0j])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-complex(r), 1.0 + 0.0j]))
    return coeffs


def poly_eval_scalar_coeffs(p_coeffs, a: np.ndarray) -> np.ndarray:
    """Horner evaluation of a scalar-coefficient polynomial at a matrix.

    ``p_coeffs[k]`` is the coefficient of the k-th power.
    """
    a = as_matrix(a)
    coeffs = [complex(c) for c in p_coeffs]
    if not coeffs:
        return np.zeros_like(a)
    eye = identity_like(a)
    acc = coeffs[-1] * eye
    for c in reversed(coeffs[:-1]):
        acc = acc @ a + c * eye
    return acc


# -- polynomials with matrix coefficients -------------------------------------

@dataclass(frozen=True)
class MatrixPolynomial:
    """Polynomial in a scalar parameter with square-matrix coefficients.

    ``coeffs`` has shape ``(degree + 1, m, m)``; index k holds the coefficient
    of ``t**k``.  The leading coefficient may vanish, so ``degree`` is an upper
    bound: compositions state ``deg(p) * deg(x)`` whatever cancels.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise ValueError(f"expected coefficients of shape (d+1, m, m), got {c.shape}")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def eval(self, t: complex) -> np.ndarray:
        """Horner evaluation at a scalar parameter value."""
        acc = np.array(self.coeffs[-1])
        for k in range(self.degree - 1, -1, -1):
            acc = acc * t + self.coeffs[k]
        return acc


def matpoly_mul(x: MatrixPolynomial, y: MatrixPolynomial) -> MatrixPolynomial:
    """Coefficient convolution; left factors stay on the left."""
    if x.dim != y.dim:
        raise ValueError("coefficient dimensions differ")
    out = np.zeros((x.degree + y.degree + 1, x.dim, x.dim), dtype=complex)
    for i, xi in enumerate(x.coeffs):
        # one einsum per left coefficient: out[i + j] += xi @ yj for all j
        out[i : i + y.degree + 1] += np.einsum("ab,jbc->jac", xi, y.coeffs)
    return MatrixPolynomial(out)


def matpoly_compose_p(p_coeffs, x: MatrixPolynomial) -> MatrixPolynomial:
    """Exact coefficients of ``p(x(t))`` for a scalar-coefficient ``p``.

    Horner in the ring of matrix-coefficient polynomials: each step multiplies
    by ``x``, so the result has exactly ``deg(p) * deg(x) + 1`` coefficients
    (leading ones may vanish) and is exact up to floating-point rounding in
    the convolutions.
    """
    coeffs = [complex(c) for c in p_coeffs]
    m = x.dim
    eye = np.eye(m, dtype=complex)
    if not coeffs:
        return MatrixPolynomial(np.zeros((1, m, m), dtype=complex))
    acc = (coeffs[-1] * eye)[None, :, :]
    for c in reversed(coeffs[:-1]):
        acc = matpoly_mul(MatrixPolynomial(acc), x).coeffs  # a fresh array
        acc[0] += c * eye
    return MatrixPolynomial(acc)


def matpoly_is_zero(
    q: MatrixPolynomial,
    cfg: ToleranceConfig = ToleranceConfig(),
    scale: float = 0.0,
) -> tuple[bool, float]:
    """Certify that every coefficient vanishes.

    Returns ``(verdict, worst)`` where ``worst`` is the largest coefficient
    operator norm — the certificate value.  The verdict compares against
    ``residual_tol * (1 + scale)``; pass the magnitude of whatever produced
    ``q`` (endpoint norms, root sizes) as ``scale`` so huge inputs are judged
    relative to their own arithmetic.  Non-finite coefficients raise
    :class:`MagnitudeOverflow`.
    """
    worst = float(operator_norms(q.coeffs).max())
    return worst <= cfg.residual_tol * (1.0 + scale), worst
