"""Root systems, certified algebraic elements, and spectral resolutions.

An element ``a`` is *algebraic* for a fixed set of distinct roots when
``p(a) = 0`` for the monic polynomial ``p`` with those roots.  Such an element
splits the space into spectral subspaces: the interpolation idempotents
``e_i = prod_{j != i} (a - l_j) / (l_i - l_j)`` form a partition of unity
(pairwise annihilating idempotents summing to the identity) and recover
``a = sum_i l_i e_i``.  This module certifies elements, builds the partition,
and samples random certified elements for experiments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import (
    BadSignature,
    MagnitudeOverflow,
    MultipleRoots,
    NotAlgebraic,
    PreconditionError,
    ResolutionResidualExceeded,
)
from .matkernel import (
    MatrixPolynomial,
    ToleranceConfig,
    as_matrix,
    identity_like,
    matpoly_compose_p,
    operator_norms,
    poly_from_roots,
)
from .seeding import conditioned_invertible, haar_unitary, rngs_from

__all__ = [
    "RootSystem",
    "AlgebraicElement",
    "PartitionOfUnity",
    "validate_roots",
    "certify",
    "spectral_resolution",
    "random_element",
    "random_elements",
]

_DISTINCTNESS_RTOL = 1e-12


@dataclass(frozen=True)
class RootSystem:
    """The fixed data of every experiment: distinct complex roots.

    ``min_gap`` is the smallest pairwise distance (infinite for a single
    root).
    """

    roots: tuple[complex, ...]
    min_gap: float

    @property
    def n(self) -> int:
        return len(self.roots)

    def poly_coeffs(self) -> np.ndarray:
        """Ascending coefficients of the monic defining polynomial."""
        return poly_from_roots(self.roots)

    def magnitude(self, norm):
        """The scale ``prod_i (norm + |l_i|)`` that residuals of ``p`` are judged by.

        ``norm`` bounds the argument of ``p`` (a float or an array of them);
        the product bounds every intermediate of the evaluation.  A product
        that overflows, or a non-finite ``norm``, would scale a tolerance to
        ``inf`` or NaN, which passes every residual, so it raises
        :class:`MagnitudeOverflow` instead.
        """
        scale = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for r in self.roots:
                scale = scale * (norm + abs(r))
        if not np.all(np.isfinite(scale)):
            raise MagnitudeOverflow(
                f"magnitude scale prod(||x|| + |l_i|) is not finite for ||x|| up to {np.max(norm):.3e}"
            )
        return scale


def _vanishing_certificates(coeffs, bounds, roots: RootSystem, cfg: ToleranceConfig):
    """Certify that ``p(x_j(t))`` vanishes identically for a stack of polynomials.

    ``coeffs`` stacks each ``x_j`` as ``(N, d + 1, m, m)``; ``bounds[j]`` bounds
    ``||x_j(t)||`` (``sum_k ||c_k||`` for a polynomial, ``||a|| + ||b||`` for
    the line ``a + t b``).  The tolerance is ``residual_tol * (1 + magnitude)``,
    with the :meth:`RootSystem.magnitude` of that bound taken before composing,
    which could overflow.  One stacked SVD takes every coefficient norm.
    Returns the verdicts, the worst norms and the index of each worst
    coefficient, all ``(N,)``.
    """
    tol = cfg.residual_tol * (1.0 + roots.magnitude(bounds))
    p_coeffs = roots.poly_coeffs()
    q = np.stack([matpoly_compose_p(p_coeffs, MatrixPolynomial(c)).coeffs for c in coeffs])
    norms = operator_norms(q)
    worst = norms.max(axis=1)
    return worst <= tol, worst, norms.argmax(axis=1)


def validate_roots(roots) -> RootSystem:
    """Build a :class:`RootSystem`, rejecting repeated and non-finite roots.

    Distinctness is essential: with a multiple root the solution set contains
    nilpotent-like elements with no spectral resolution at all, so such input
    is refused outright rather than handled approximately.  A NaN root would
    pass every distinctness test and leave ``min_gap`` infinite.
    """
    rs = tuple(complex(r) for r in roots)
    if len(rs) == 0:
        raise PreconditionError("need at least one root")
    if not all(cmath.isfinite(r) for r in rs):
        raise PreconditionError(f"roots must be finite, got {rs}")
    scale = 1.0 + max(abs(r) for r in rs)
    min_gap = math.inf
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            gap = abs(rs[i] - rs[j])
            if gap < _DISTINCTNESS_RTOL * scale:
                raise MultipleRoots(
                    f"roots {rs[i]} and {rs[j]} coincide within {_DISTINCTNESS_RTOL * scale:.3e}"
                )
            min_gap = min(min_gap, gap)
    return RootSystem(roots=rs, min_gap=min_gap)


def _require_real_spectrum(ranks, roots: RootSystem):
    """A self-adjoint element has a real spectrum: refuse a nonzero rank at a non-real root."""
    for r, k in zip(roots.roots, ranks):
        if k and r.imag != 0.0:
            raise BadSignature(f"self-adjoint elements have rank 0 at the non-real root {r}, not {k}")


@dataclass(frozen=True, eq=False)
class AlgebraicElement:
    """A matrix together with the certificate that it satisfies ``p(a) = 0``."""

    a: np.ndarray
    roots: RootSystem
    residual: float
    self_adjoint: bool

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True, eq=False)
class PartitionOfUnity:
    """Spectral idempotents of a certified element, one per root.

    ``worst_residual`` is the largest violation found across all partition
    invariants (idempotency, mutual annihilation, summing to one,
    commutation, reconstruction, and Hermiticity when applicable).
    """

    members: tuple[np.ndarray, ...]
    roots: RootSystem
    self_adjoint: bool
    worst_residual: float

    @property
    def dim(self) -> int:
        return self.members[0].shape[0]


def defining_poly_value(a, roots: RootSystem) -> np.ndarray:
    """``p(a) = prod (a - l_i)`` of one matrix or of a stack ``(N, m, m)``.

    Non-finite entries raise :class:`MagnitudeOverflow`.  A product that
    overflows comes out non-finite, without a warning: its magnitude
    (:meth:`RootSystem.magnitude`) overflows too, and callers check that.
    """
    a = np.asarray(a, dtype=complex)
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        raise MagnitudeOverflow(f"element {int(np.argmin(finite))} has non-finite entries")
    eye = np.eye(a.shape[-1], dtype=complex)
    value = eye
    with np.errstate(over="ignore", invalid="ignore"):
        for r in roots.roots:
            value = value @ (a - r * eye)
    return value


def eval_defining_poly(a: np.ndarray, roots: RootSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate ``prod (a - l_i)`` with its natural magnitude and ``||a||``.

    The magnitude :meth:`RootSystem.magnitude` of ``||a||``, floored at one,
    bounds the intermediate products, so residuals are meaningful relative to
    it even for very large arguments.  ``a`` is one matrix or a stack
    ``(N, m, m)``; the magnitude and norm then carry the leading sample axis.
    Non-finite entries raise :class:`MagnitudeOverflow`, as an overflowing magnitude does.
    """
    value = defining_poly_value(a, roots)
    norm_a = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)[..., 0]
    scale = roots.magnitude(norm_a)
    return value, np.maximum(1.0, scale), norm_a


def _hermiticity_tolerance(norm_a, roots: RootSystem, cfg: ToleranceConfig):
    """Largest defect ``||a - a*||`` for which ``a`` counts as self-adjoint.

    Judged on the element's own scale, ``||a||`` plus the smallest root gap
    capped at one: an element whose roots lie 1e-9 apart is not called
    self-adjoint on a defect of 1e-10, which its resolution would magnify.
    """
    return cfg.residual_tol * (norm_a + min(1.0, roots.min_gap))


def _certify_stack(a: np.ndarray, roots: RootSystem, cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Certify every matrix of a stack ``(N, m, m)``.

    Each element is judged against its own scaled tolerance; the first one
    in stack order that fails raises :class:`NotAlgebraic` with its residual,
    tolerance and stack index.  A stack with non-finite entries, or whose
    magnitude overflows, raises :class:`MagnitudeOverflow` first (from
    :func:`eval_defining_poly`).  One stacked SVD takes the residuals
    ``||p(a_j)||`` and the Hermiticity defects ``||a_j - a_j*||`` together.
    Returns the residuals and the self-adjointness flags, both ``(N,)``.
    """
    n = a.shape[0]
    value, scale, norm_a = eval_defining_poly(a, roots)
    defects = np.concatenate((value, a - a.conj().swapaxes(-1, -2)))
    sv = np.linalg.svd(defects, compute_uv=False)[:, 0]
    residual, herm = sv[:n], sv[n:]
    tol = cfg.residual_tol * scale
    bad = ~(residual <= tol)  # a NaN residual fails
    if bad.any():
        j = int(np.argmax(bad))
        raise NotAlgebraic(float(residual[j]), float(tol[j]), index=j)
    return residual, herm <= _hermiticity_tolerance(norm_a, roots, cfg)


def certify(a, roots: RootSystem, cfg: ToleranceConfig = ToleranceConfig()) -> AlgebraicElement:
    """Check ``p(a) = 0`` within tolerance and record the certificate.

    The acceptance threshold is ``residual_tol`` scaled by the evaluation
    magnitude, so elements far from the origin (points on a complex line, for
    instance) are judged against their own arithmetic rather than an absolute
    yardstick.  This is the one-matrix case of the stacked certificate that
    :func:`random_elements` applies to a whole stack.
    """
    a = as_matrix(a)
    residual, self_adjoint = _certify_stack(a[None], roots, cfg)
    return AlgebraicElement(a=a, roots=roots, residual=float(residual[0]), self_adjoint=bool(self_adjoint[0]))


def _resolution_tolerance(norm_a: float, roots: RootSystem, cfg: ToleranceConfig) -> float:
    # Interpolation denominators govern the attainable accuracy: each factor
    # contributes up to (||a|| + max|l|) / min_gap.
    if roots.n == 1:
        cond = 1.0
    else:
        grow = (norm_a + max(abs(r) for r in roots.roots)) / roots.min_gap
        cond = max(1.0, grow) ** (roots.n - 1)
    return cfg.residual_tol * (1.0 + norm_a) * cond


def spectral_resolution(el: AlgebraicElement, cfg: ToleranceConfig = ToleranceConfig()) -> PartitionOfUnity:
    """Interpolation idempotents of a certified element.

    Each member is the defining polynomial of the other roots, normalized to
    take value one at its own root, evaluated at the element; factors are
    multiplied in order of increasing root distance to limit cancellation.
    All partition invariants are verified before the result is returned: one
    stacked SVD takes ``||a||`` and every defect (idempotency and commutation
    of each member, pairwise annihilation, sum to one, reconstruction, then
    Hermiticity in self-adjoint mode), and the first defect in that order
    above the scaled tolerance, or an idempotency defect of 1/4 or more, from
    which no rank could be read, raises :class:`ResolutionResidualExceeded`.
    """
    a = el.a
    eye = identity_like(a)
    roots = el.roots.roots

    members = []
    for i, li in enumerate(roots):
        others = sorted((r for j, r in enumerate(roots) if j != i), key=lambda r: abs(li - r))
        e = eye
        for r in others:
            e = e @ (a - r * eye) / (li - r)
        members.append(e)

    labels, defects = [], [a]
    total = np.zeros_like(a)
    recon = np.zeros_like(a)
    for i, e in enumerate(members):
        labels += [f"idempotency[{i}]", f"commutation[{i}]"]
        defects += [e @ e - e, e @ a - a @ e]
        total = total + e
        recon = recon + roots[i] * e
    for i, j in permutations(range(len(members)), 2):
        labels.append(f"annihilation[{i},{j}]")
        defects.append(members[i] @ members[j])
    labels += ["sum-to-one", "reconstruction"]
    defects += [total - eye, recon - a]
    if el.self_adjoint:
        labels += [f"hermiticity[{i}]" for i in range(len(members))]
        defects += [e - e.conj().T for e in members]

    norms = operator_norms(np.stack(defects))
    residuals = norms[1:]
    tol = _resolution_tolerance(float(norms[0]), el.roots, cfg)
    # rows 0, 2, ... are the idempotency defects; partition_ranks reads no rank from 1/4 on
    bad = residuals > tol
    bad[: 2 * len(members) : 2] |= residuals[: 2 * len(members) : 2] >= 0.25
    if bad.any():
        k = int(np.argmax(bad))
        why = (f"exceeds {tol:.3e} (min_gap {el.roots.min_gap:.3e})" if residuals[k] > tol
               else f"is not below 1/4: member {k // 2} is not an idempotent")
        raise ResolutionResidualExceeded(f"{labels[k]} residual {residuals[k]:.3e} {why}")
    return PartitionOfUnity(
        members=tuple(members), roots=el.roots, self_adjoint=el.self_adjoint,
        worst_residual=float(residuals.max()),
    )


def random_elements(
    sig,
    roots: RootSystem,
    seeds,
    self_adjoint: bool = False,
    cond_bound: float = 20.0,
    cfg: ToleranceConfig = ToleranceConfig(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random certified elements with the prescribed rank signature, one per seed.

    Conjugates the diagonal model (root ``l_i`` repeated ``sig[i]`` times) by
    a random similarity with bounded condition number, or by a random unitary
    in the self-adjoint case, which needs rank 0 at every non-real root.  The
    generators come from one ``rngs_from(seeds)`` batch, and element ``j``
    draws from its own, bit for bit ``rng_from(seeds[j])``, alone, so it is
    bit-identical whichever seeds share its stack; the factoring and the
    certificate then run on the whole stack ``(N, m, m)`` at once.  A
    signature with a single present root gives that root times the identity
    for every seed.

    Returns the stack with each element's residual and self-adjointness flag.
    Every element is certified; the first failing one in seed order raises
    :class:`NotAlgebraic`.
    """
    if not 1.0 <= cond_bound < math.inf:  # NaN fails too
        raise PreconditionError(f"cond_bound must be a finite number >= 1, got {cond_bound}")
    ranks = tuple(int(r) for r in getattr(sig, "ranks", sig))
    if len(ranks) != roots.n or any(r < 0 for r in ranks):
        raise BadSignature(f"rank vector {ranks} does not fit {roots.n} roots")
    m = sum(ranks)
    if m <= 0:
        raise BadSignature("total dimension must be positive")
    if self_adjoint:
        _require_real_spectrum(ranks, roots)

    present = [i for i, r in enumerate(ranks) if r > 0]
    if len(present) == 1:
        a = np.repeat((roots.roots[present[0]] * np.eye(m, dtype=complex))[None], len(seeds), axis=0)
        return (a, *_certify_stack(a, roots, cfg))

    diag = np.repeat(np.array(roots.roots, dtype=complex), ranks)
    rngs = rngs_from(seeds)
    if self_adjoint:
        u = haar_unitary(m, rngs)
        a = (u * diag) @ u.conj().swapaxes(-1, -2)
        a = 0.5 * (a + a.conj().swapaxes(-1, -2))  # exact Hermiticity
    else:
        s = conditioned_invertible(m, cond_bound, rngs)
        # s diag(d) s^{-1}, solved as s^T x^T = (s diag(d))^T
        a = np.linalg.solve(s.swapaxes(-1, -2), (s * diag).swapaxes(-1, -2)).swapaxes(-1, -2)
    return (a, *_certify_stack(a, roots, cfg))


def random_element(
    sig,
    roots: RootSystem,
    seed: int,
    self_adjoint: bool = False,
    cond_bound: float = 20.0,
    cfg: ToleranceConfig = ToleranceConfig(),
) -> AlgebraicElement:
    """Random certified element with the prescribed rank signature.

    The one-seed case of :func:`random_elements`: deterministic per seed, and
    bit-identical to element ``j`` of any stack sampled with ``seeds[j] ==
    seed``.
    """
    a, residual, herm = random_elements(sig, roots, [seed], self_adjoint, cond_bound, cfg)
    return AlgebraicElement(a=a[0], roots=roots, residual=float(residual[0]), self_adjoint=bool(herm[0]))
