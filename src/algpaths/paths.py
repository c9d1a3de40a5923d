"""Certified connecting paths inside a connected component.

Four constructions, each certified after the fact so correctness never rests
on the construction heuristics:

* ``connect_exp_local`` — a single exponential conjugation ``e^{tc} a e^{-tc}``
  for pairs whose partition-matching similarity is close to the identity;
* ``connect_exp_global`` — exponential factors from a polar split of the
  connecting similarity, covering whole components;
* ``connect_selfadjoint`` — unitary conjugation ``e^{ict} a e^{-ict}`` with a
  Hermitian generator, staying inside the self-adjoint solution set;
* ``connect_polygonal`` — straight segments through intermediates that swap
  one spectral subspace at a time, certified coefficient-by-coefficient; a
  degenerate pair is crossed through one seeded element of its component.

``min_degree_search`` hunts for polynomial paths of prescribed degree by
least-squares on the exact coefficients of the composed polynomial, and
``verify_path`` re-certifies any path, including deserialized ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .algebraic import (
    AlgebraicElement,
    PartitionOfUnity,
    RootSystem,
    _certify_stack,
    _hermiticity_tolerance,
    _vanishing_certificates,
    certify,
    defining_poly_value,
    random_element,
    spectral_resolution,
)
from .components import resolve_pair
from .errors import (
    CertificationFailed,
    FactorizationFailed,
    MagnitudeOverflow,
    NotAlgebraic,
    NotLocallyClose,
    NotNearIdentity,
    NotSameComponent,
    NotSelfAdjoint,
    PreconditionError,
    SubspaceSplitFailed,
)
from .matkernel import (
    MatrixPolynomial,
    ToleranceConfig,
    _frobenius,
    identity_like,
    mat_log_near_identity,
    matpoly_compose_p,
    matpoly_mul,
    operator_norm,
    operator_norms,
)
from .seeding import rng_from

__all__ = [
    "ExpSimilarityPath",
    "PolygonalPath",
    "PolynomialPath",
    "PathCertificate",
    "MinDegreeResult",
    "connect_exp_local",
    "connect_exp_global",
    "connect_selfadjoint",
    "connect_polygonal",
    "min_degree_search",
    "verify_path",
]

_GRID = np.linspace(0.0, 1.0, 100)  # the t an exponential path is certified at
_GRID_BLOCK_BYTES = 64 * 1024  # per stacked (N, m, m) array of a sample grid
# The largest kappa_1(v) = ||v||_1 ||v^{-1}||_1 of the eig eigenbasis of a
# generator that ExpSimilarityPath exponentiates through it.  The computed
# v diag(e^{t lam}) v^{-1} is within about kappa m u of e^{tc}, relative to
# ||e^{tc}|| (u = eps / 2): eig's backward error, the computed inverse and the
# two products each contribute a small multiple of m u ||v|| ||v^{-1}||
# max|e^{t lam}|, and max|e^{t lam}| <= ||e^{tc}||.  At kappa = 1e4 and m = 32
# that is 3.6e-11, 28 times below the default residual_tol of 1e-9 that each
# sample and the endpoint are judged against.
_EIGENBASIS_KAPPA = 1e4


# -- path types ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExpSimilarityPath:
    """Conjugation path ``x(t) = g(t) a g(t)^{-1}``.

    ``g(t) = e^{c_m t} ... e^{c_1 t}`` with ``generators = (c_1, ..., c_m)``.
    In self-adjoint mode the generators are Hermitian and enter as
    ``e^{i c_k t}``, so ``g`` is unitary and the path stays self-adjoint.
    Membership in the solution set is exact at every ``t`` by conjugation
    invariance; only floating-point drift of the exponentials needs checking.
    """

    base: AlgebraicElement
    generators: tuple[np.ndarray, ...]
    self_adjoint_mode: bool = False

    def value(self, t: float) -> np.ndarray:
        return self.values(np.array([float(t)]))[0]

    def values(self, ts: np.ndarray) -> np.ndarray:
        """``x(t)`` on a grid of parameter values, stacked as ``(N, m, m)``.

        ``x <- e^{t c_k} x e^{-t c_k}`` for each generator in turn, starting from
        the base, in both modes: two stacked exponentials per generator, see
        :meth:`_exp_stack`.  ``t = 0`` gives the base exactly.
        """
        ts = np.asarray(ts, dtype=float)
        x = np.repeat(self.base.a[None], len(ts), axis=0)
        for k in range(len(self.generators)):
            x = self._exp_stack(k, ts) @ x @ self._exp_stack(k, -ts)
        x[ts == 0] = self.base.a
        return x

    @cached_property
    def _exponents(self) -> tuple:
        """``(c, v, lam, v_inv)`` per generator, ``c = v diag(lam) v_inv``.

        ``c`` is the generator (``i c_k`` in self-adjoint mode).  When ``c = z h``
        for ``z`` in ``{1, i}`` and ``h`` Hermitian to working precision,
        ``||h - h*||_F <= 8 m eps ||c||_F`` with ``eps`` the machine epsilon,
        ``np.linalg.eigh(h) = (mu, q)`` gives ``v = q``, ``lam = z mu`` and
        ``v_inv = q*``.  Otherwise ``np.linalg.eig`` gives ``v`` and ``lam``,
        kept when ``kappa_1(v) = ||v||_1 ||v^{-1}||_1`` is at most
        ``_EIGENBASIS_KAPPA``; a defective ``c`` (a singular or ill-conditioned
        ``v``) gets ``v = lam = v_inv = None``.
        """
        m = self.base.dim
        out = []
        for gen in self.generators:
            c = 1j * gen if self.self_adjoint_mode else gen
            # eigh reads the lower triangle and real diagonal of h: it factors h + triu(h* - h, 1) - i Im diag(h),
            # off from h by ||s||_F / sqrt(2) at most, s = h - h* (||s||_F^2 = 2 ||triu(s, 1)||_F^2 + ||diag(s)||_F^2),
            # so within 8 m eps ||c||_F, as was the triu(T, 1) that the Schur form c = Q T Q* used to drop
            for z, h in ((1, c), (1j, -1j * c)):
                if np.linalg.norm(h - h.conj().T) <= 8 * m * np.finfo(float).eps * np.linalg.norm(c):
                    mu, q = np.linalg.eigh(h)
                    out.append((c, q, z * mu, q.conj().T))
                    break
            else:
                lam, v = np.linalg.eig(c)
                try:
                    v_inv = np.linalg.inv(v)
                except np.linalg.LinAlgError:  # an exactly singular eigenbasis
                    v_inv = None
                if v_inv is not None and np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1) <= _EIGENBASIS_KAPPA:
                    out.append((c, v, lam, v_inv))
                else:
                    out.append((c, None, None, None))
        return tuple(out)

    def _exp_stack(self, k: int, ts: np.ndarray) -> np.ndarray:
        """``e^{t c}`` for the exponent ``c`` of generator ``k`` at each ``t`` of ``ts``.

        A diagonalized ``c = v diag(lam) v^{-1}`` takes ``v diag(e^{t lam}) v^{-1}``
        for the whole block in one broadcast product, the eigenvector method of
        Moler & Van Loan (2003, "Nineteen dubious ways ...", method 14), backward
        stable when ``v`` is unitary and within ``kappa(v) m u`` of ``e^{tc}``
        otherwise; any other ``c`` takes one stacked ``scipy.linalg.expm``.
        ``t = 0`` gives the identity exactly.
        """
        c, v, lam, v_inv = self._exponents[k]
        if v is None:
            import scipy.linalg  # imported here: only a defective generator loads it
            return scipy.linalg.expm(ts[:, None, None] * c)
        e = (v * np.exp(ts[:, None] * lam)[:, None, :]) @ v_inv
        e[ts == 0] = identity_like(c)
        return e


@dataclass(frozen=True, eq=False)
class PolygonalPath:
    """Straight segments between certified breakpoints.

    ``certificates[k]`` is the largest coefficient norm of the defining
    polynomial composed with segment ``k`` — the exact-vanishing witness.
    """

    breakpoints: tuple[AlgebraicElement, ...]
    certificates: tuple[float, ...]

    @property
    def segments(self) -> int:
        return len(self.breakpoints) - 1

    def value(self, t: float) -> np.ndarray:
        if self.segments == 0:
            return self.breakpoints[0].a
        s = min(int(t * self.segments), self.segments - 1)
        tau = t * self.segments - s
        return (1.0 - tau) * self.breakpoints[s].a + tau * self.breakpoints[s + 1].a


@dataclass(frozen=True, eq=False)
class PolynomialPath:
    """A polynomial in ``t`` whose values all satisfy the defining equation."""

    x: MatrixPolynomial
    certificate: float
    self_adjoint: bool = False

    def value(self, t: float) -> np.ndarray:
        return self.x.eval(t)

    @property
    def start(self) -> np.ndarray:
        return self.x.coeffs[0]

    @property
    def end(self) -> np.ndarray:
        return self.x.coeffs.sum(axis=0)


@dataclass(frozen=True)
class PathCertificate:
    """Result of re-certifying a path.

    Polynomial and polygonal paths report coefficient operator norms; exponential paths the largest
    Frobenius norms of ``p(x)`` and ``x - x*`` over the grid, which bound the operator norms above
    (``worst_hermiticity`` also takes the generators' operator norms ``||c - c*||``).
    """

    kind: str
    worst_membership: float
    endpoint_error: float | None = None
    worst_hermiticity: float | None = None
    segment_certificates: tuple[float, ...] = ()
    samples: int = 0


@dataclass(frozen=True, eq=False)
class MinDegreeResult:
    """Outcome of a minimum-degree polynomial path search.

    ``residual_by_degree`` maps each attempted degree to the best certificate
    of the restarts run, infinite when none moved by ``min_motion``; ``path``
    is the first certified path, or None if every degree failed.
    """

    path: PolynomialPath | None
    residual_by_degree: dict[int, float] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return self.path is not None

    @property
    def degree(self) -> int | None:
        return None if self.path is None else self.path.x.degree


# -- shared helpers ------------------------------------------------------------


def _require_same_component(a: AlgebraicElement, b: AlgebraicElement, cfg: ToleranceConfig):
    """The pair's partitions and shared ranks ``(ea, fb, ranks)``, each resolved once."""
    ea, fb, ranks, ranks_b = resolve_pair(a, b, cfg)
    if ranks != ranks_b:
        raise NotSameComponent(f"signatures {ranks} and {ranks_b} differ")
    return ea, fb, ranks


def _require_self_adjoint(a: AlgebraicElement, b: AlgebraicElement):
    for el, name in ((a, "a"), (b, "b")):
        if not el.self_adjoint:
            raise NotSelfAdjoint(f"element {name} is not self-adjoint")


def _matching_similarity(ea: PartitionOfUnity, fb: PartitionOfUnity) -> np.ndarray:
    """The partition matcher ``w = sum_i f_i e_i``; satisfies ``w a = b w``."""
    w = np.zeros_like(ea.members[0])
    for e, f in zip(ea.members, fb.members):
        w = w + f @ e
    return w


def _polar_factors(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(log h, u)`` of the polar split ``w = u h``, ``u`` unitary and ``h`` positive.

    From ``w = U diag(s) V*``: ``u = U V*`` and ``log h = V diag(log s) V*``.
    """
    uu, s, vh = np.linalg.svd(w)
    if s[-1] <= 0.0:
        raise FactorizationFailed(f"connecting similarity has singular value {s[-1]:.3e}")
    return (vh.conj().T * np.log(s)) @ vh, uu @ vh


def _hermitian_log_of_unitary(u: np.ndarray) -> np.ndarray:
    """Hermitian ``K`` with ``u = e^{iK}``, phases in ``[-pi, pi]``.

    ``zeta`` turns the middle of the widest gap (at least ``2 pi / m``) between the eigenvalue phases of ``u``
    to -1, so the Cayley transform ``H = i (1 - zeta u)(1 + zeta u)^{-1}`` is well conditioned, Hermitian, and
    has the eigenvectors of ``u``.  Its eigenbasis ``q`` gives ``K = q diag(theta) q*``, ``theta_j =
    angle(q_j* u q_j)``; a phase at -1 becomes ``pi`` or ``-pi``, both of which exponentiate to -1.
    """
    phases = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(phases, append=phases[0] + 2 * np.pi)
    zu = np.exp(1j * (np.pi - (phases + gaps / 2)[np.argmax(gaps)])) * u
    eye = identity_like(u)
    h = 1j * np.linalg.solve(eye + zu, eye - zu)
    _, q = np.linalg.eigh(0.5 * (h + h.conj().T))
    theta = np.angle(np.sum(q.conj() * (u @ q), axis=0))
    return (q * theta) @ q.conj().T


def _range_basis(e: np.ndarray, r: int) -> np.ndarray:
    """Orthonormal basis of the column space of an idempotent of rank ``r``."""
    u, _, _ = np.linalg.svd(e)
    return u[:, :r]


def _gated_path(a, b, generators, cfg, self_adjoint_mode=False) -> ExpSimilarityPath:
    """The conjugation path from ``a`` along ``generators``, checked to end at ``b``."""
    path = ExpSimilarityPath(base=a, generators=generators, self_adjoint_mode=self_adjoint_mode)
    _endpoint_error(path.value(1.0), b.a, cfg)
    return path


def _endpoint_error(end: np.ndarray, target: np.ndarray, cfg: ToleranceConfig) -> float:
    """``||end - target||``; above ``residual_tol (1 + ||target||)`` it raises :class:`CertificationFailed`."""
    err = operator_norm(end - target)
    tol = cfg.residual_tol * (1.0 + operator_norm(target))
    if err > tol:
        raise CertificationFailed(f"endpoint error {err:.3e} exceeds {tol:.3e}", sample_t=1.0, value=err)
    return err


def _segment_certificates(points: np.ndarray, roots: RootSystem, cfg: ToleranceConfig):
    """:func:`_vanishing_certificates` of the segments through a stack of points.

    A segment is bounded by twice the larger norm of its endpoints.
    """
    norms = operator_norms(points)
    segments = np.stack([points[:-1], points[1:] - points[:-1]], axis=1)
    return _vanishing_certificates(segments, 2.0 * np.maximum(norms[:-1], norms[1:]), roots, cfg)


# -- exponential constructors ----------------------------------------------------


def connect_exp_local(
    a: AlgebraicElement, b: AlgebraicElement, cfg: ToleranceConfig = ToleranceConfig()
) -> ExpSimilarityPath:
    """Single-generator conjugation path between nearby elements.

    The similarity ``w = sum f_i e_i`` intertwines the two partitions
    (``w e_j = f_j w``), hence conjugates ``a`` onto ``b``.  When
    ``||w - 1|| < 0.99`` its series logarithm ``c`` exists and
    ``x(t) = e^{tc} a e^{-tc}`` walks from ``a`` to ``b``; a pair further
    apart raises :class:`NotLocallyClose`.
    """
    ea, fb, _ = _require_same_component(a, b, cfg)
    try:
        c = mat_log_near_identity(_matching_similarity(ea, fb))
    except NotNearIdentity as exc:
        raise NotLocallyClose(f"{exc}; use the global constructor") from None
    return _gated_path(a, b, (c,), cfg)


def connect_exp_global(
    a: AlgebraicElement, b: AlgebraicElement, cfg: ToleranceConfig = ToleranceConfig()
) -> ExpSimilarityPath:
    """Conjugation path with two exponential factors, any distance.

    Factors the connecting similarity (:func:`_connecting_similarity`)
    through a polar split ``w = u h``: the positive part contributes a
    Hermitian generator ``log h``, the unitary part a skew one ``i K``.
    The path always has these two generators, also for a pair close enough
    for :func:`connect_exp_local`.
    """
    ea, fb, ranks = _require_same_component(a, b, cfg)
    log_h, u = _polar_factors(_connecting_similarity(ea, fb, ranks))
    return _gated_path(a, b, (log_h, 1j * _hermitian_log_of_unitary(u)), cfg)


def _connecting_similarity(ea, fb, ranks):
    """An invertible ``w`` with ``w e_j w^{-1} = f_j`` for every member ``j``.

    The matcher ``w = sum f_j e_j`` when it is invertible.  It can be
    singular (for antipodal or oblique swap pairs); then ``w = sf se^{-1}``,
    where ``se_j`` and ``sf_j`` are orthonormal bases of the ranges of ``e_j``
    and ``f_j`` and each ``sf_j`` is first turned by the orthogonal Procrustes
    rotation ``U_j V_j*`` of ``sf_j* se_j = U_j S_j V_j*``, which brings it
    closest to ``se_j`` in the Frobenius norm.
    """
    w = _matching_similarity(ea, fb)
    svals = np.linalg.svd(w, compute_uv=False)
    if svals[-1] > 1e-6 * max(1.0, svals[0]):
        return w
    se, sf = [], []
    for e, f, r in zip(ea.members, fb.members, ranks):
        if r:
            se_j, sf_j = _range_basis(e, r), _range_basis(f, r)
            u, _, vh = np.linalg.svd(sf_j.conj().T @ se_j)
            se.append(se_j)
            sf.append(sf_j @ u @ vh)
    se, sf = np.hstack(se), np.hstack(sf)
    return np.linalg.solve(se.T, sf.T).T


def connect_selfadjoint(
    a: AlgebraicElement, b: AlgebraicElement, cfg: ToleranceConfig = ToleranceConfig()
) -> ExpSimilarityPath:
    """Unitary conjugation path between self-adjoint elements, one generator.

    Orthonormal bases of matching eigenspaces assemble a unitary ``u`` with
    ``u a u* = b``; its Hermitian logarithm ``c`` (phases in ``[-pi, pi]``)
    drives ``x(t) = e^{ict} a e^{-ict}``, which is self-adjoint and in the
    solution set for every ``t``.
    """
    _require_self_adjoint(a, b)
    ea, fb, ranks = _require_same_component(a, b, cfg)
    ubasis = np.hstack([_eigbasis(e, r) for e, r in zip(ea.members, ranks)])
    vbasis = np.hstack([_eigbasis(f, r) for f, r in zip(fb.members, ranks)])
    return _gated_path(a, b, (_hermitian_log_of_unitary(vbasis @ ubasis.conj().T),), cfg, self_adjoint_mode=True)


def _eigbasis(e: np.ndarray, r: int) -> np.ndarray:
    """Orthonormal eigenbasis of the range of an orthogonal projection."""
    vals, vecs = np.linalg.eigh(0.5 * (e + e.conj().T))
    order = np.argsort(vals)
    return vecs[:, order[-r:]] if r > 0 else vecs[:, :0]


# -- polygonal constructor -------------------------------------------------------


class _ChainFailed(Exception):
    pass


def connect_polygonal(
    a: AlgebraicElement,
    b: AlgebraicElement,
    cfg: ToleranceConfig = ToleranceConfig(),
    seed: int = 0,
) -> PolygonalPath:
    """Certified polygonal path from ``a`` to ``b``.

    Intermediates replace the spectral subspaces of ``a`` by those of ``b``
    one root at a time.  Consecutive breakpoints then agree on every subspace
    but one, and on that one they agree modulo the others, which makes the
    defining polynomial vanish identically along the straight segment — the
    coefficient certificates confirm it numerically.  With ``n`` roots this
    yields ``n`` segments.  When that chain is degenerate (antipodal or
    oblique subspaces), the path goes through one random element ``z`` of the
    pair's component, drawn from ``seed``, as the two chains ``a -> z`` and
    ``z -> b``: up to ``2n`` segments (reported via ``segments``).  If either
    of those is degenerate too, :class:`SubspaceSplitFailed` is raised.
    """
    ea, fb, ranks = _require_same_component(a, b, cfg)
    if operator_norm(a.a - b.a) <= cfg.residual_tol * (1.0 + operator_norm(a.a)):
        return PolygonalPath(breakpoints=(a,), certificates=())
    try:
        breakpoints, certs = _subspace_replacement_chain(a, b, ea, fb, ranks, cfg)
    except (_ChainFailed, NotAlgebraic):  # degenerate: go through one seeded element z
        z = random_element(ranks, a.roots, seed=(seed, 32), cfg=cfg)
        ez = spectral_resolution(z, cfg)
        try:
            left_bp, left_c = _subspace_replacement_chain(a, z, ea, ez, ranks, cfg)
            right_bp, right_c = _subspace_replacement_chain(z, b, ez, fb, ranks, cfg)
        except (_ChainFailed, NotAlgebraic):
            raise SubspaceSplitFailed("subspace configurations stayed degenerate through a seeded midpoint") from None
        breakpoints, certs = left_bp + right_bp[1:], left_c + right_c
    return PolygonalPath(breakpoints=tuple(breakpoints), certificates=tuple(certs))


def _subspace_replacement_chain(a, b, ea, fb, ranks, cfg):
    roots = a.roots
    n = roots.n
    m = a.dim
    ebases = [_range_basis(e, r) for e, r in zip(ea.members, ranks)]
    fbases = [_range_basis(f, r) for f, r in zip(fb.members, ranks)]
    diag = np.repeat(np.array(roots.roots, dtype=complex), ranks)

    breakpoints = [a]
    for k in range(1, n):
        stack = np.hstack(fbases[:k] + ebases[k:])
        svals = np.linalg.svd(stack, compute_uv=False)
        if svals[-1] <= 1e-10 * m * svals[0]:
            raise _ChainFailed
        xk = np.linalg.solve(stack.T, (stack * diag).T).T
        breakpoints.append(certify(xk, roots, cfg))
    breakpoints.append(b)

    ok, worst, _ = _segment_certificates(np.stack([bp.a for bp in breakpoints]), roots, cfg)
    if not ok.all():
        raise _ChainFailed
    return breakpoints, worst.tolist()


# -- minimum-degree polynomial path search ---------------------------------------


def _hermitian_basis(m: int) -> np.ndarray:
    """Orthonormal Hermitian basis, as columns of an (m^2, m^2) matrix.

    The diagonal units come first, then for each ``r < s`` in row-major order
    the symmetric and the antisymmetric pair of entries ``(r, s)``, ``(s, r)``.
    """
    r, s = np.triu_indices(m, 1)
    sym = m + 2 * np.arange(len(r))
    basis = np.zeros((m, m, m * m), dtype=complex)
    basis[np.arange(m), np.arange(m), np.arange(m)] = 1.0
    basis[r, s, sym] = basis[s, r, sym] = 1.0 / np.sqrt(2.0)
    basis[r, s, sym + 1] = 1j / np.sqrt(2.0)
    basis[s, r, sym + 1] = -1j / np.sqrt(2.0)
    return basis.reshape(m * m, m * m)


def _jacobian_blocks(p_coeffs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Degree-indexed differential blocks of the composition ``p(x)``.

    ``blocks[g]`` is the matrix of ``vec(dx) -> vec`` contribution of a
    direction at parameter degree zero to the output coefficient of degree
    ``g``: the differential of the composition is
    ``dq = sum_k p_k sum_{i+j=k-1} x^i dx x^j`` and, row-major,
    ``vec(A E B) = (A kron B^T) vec(E)``.  Each pair of power tables gives
    all its Kronecker products ``x^i_u kron (x^j_v)^T`` in one outer product.
    """
    x = MatrixPolynomial(coeffs)
    m = x.dim
    n = len(p_coeffs) - 1
    powers = [np.eye(m, dtype=complex)[None, :, :]]
    for _ in range(n - 1):
        powers.append(matpoly_mul(MatrixPolynomial(powers[-1]), x).coeffs)

    blocks = np.zeros(((n - 1) * x.degree + 1, m * m, m * m), dtype=complex)
    for k in range(1, n + 1):
        pk = p_coeffs[k]
        if pk == 0:
            continue
        for i in range(k):
            pi, pj = powers[i], powers[k - 1 - i]
            # outer[u, v, a, c, b, d] = pi[u, a, b] * pj[v, d, c], the products np.kron takes
            outer = pi[:, None, :, None, :, None] * pj.swapaxes(1, 2)[None, :, None, :, None, :]
            outer = outer.reshape(len(pi), len(pj), m * m, m * m)
            for u in range(len(pi)):
                blocks[u : u + len(pj)] += pk * outer[u]
    return blocks


class _DegreeProblem:
    """Least-squares formulation of 'find x(t) of degree d with p(x) = 0'.

    The free interior coefficients ``c_1 .. c_{d-1}`` are ``theta`` through one
    complex ``(m^2, P)`` basis: the orthonormal Hermitian basis (``P = m^2``)
    keeps every coefficient Hermitian, ``[I | iI]`` (``P = 2 m^2``) spans all
    complex matrices.  The endpoint constraint pins ``c_d = b - a - sum c_l``.
    """

    def __init__(self, a, b, roots, d, hermitian, min_motion):
        self.a = a
        self.delta = b - a
        self.p_coeffs = roots.poly_coeffs()
        self.d = d
        self.min_motion = min_motion
        m = a.shape[0]
        self.basis = _hermitian_basis(m) if hermitian else np.hstack([np.eye(m * m), 1j * np.eye(m * m)])

    def coeffs_from_params(self, theta):
        interior = (theta.reshape(self.d - 1, -1) @ self.basis.T).reshape(-1, *self.a.shape)
        return np.concatenate([self.a[None], interior, (self.delta - interior.sum(axis=0))[None]])

    def params_from_coeffs(self, coeffs):
        return self.project(coeffs[1 : self.d])

    def project(self, mats):
        """Real coordinates of a stack of ``d - 1`` matrices in the parameter basis."""
        return (mats.reshape(len(mats), -1) @ self.basis.conj()).real.reshape(-1)

    def residual(self, theta):
        coeffs = self.coeffs_from_params(theta)
        x = MatrixPolynomial(coeffs)
        flat = matpoly_compose_p(self.p_coeffs, x).coeffs.reshape(-1)
        r = np.concatenate([flat.real, flat.imag])
        if self.min_motion > 0.0:
            r = np.append(r, max(0.0, self.min_motion - _motion(coeffs)))
        return r, coeffs

    def jacobian(self, coeffs):
        """Real Jacobian of the stacked residual w.r.t. ``theta``.

        Interior coefficient ``l`` moves the output of degree ``g`` through
        ``blocks[g - l]`` directly and through ``-blocks[g - d]`` via the
        endpoint constraint.
        """
        blocks = _jacobian_blocks(self.p_coeffs, coeffs)
        d, span, mm = self.d, len(blocks), self.a.size
        cjac = np.zeros((d + span, mm, d - 1, mm), dtype=complex)  # d + span output degrees
        for l in range(1, d):
            cjac[l : l + span, :, l - 1] += blocks
            cjac[d:, :, l - 1] -= blocks
        cols = (cjac @ self.basis).reshape((d + span) * mm, -1)
        jac = np.concatenate([cols.real, cols.imag])
        if self.min_motion > 0.0:
            row = np.zeros((1, jac.shape[1]))
            v = _motion(coeffs)
            if 0.0 < v < self.min_motion:
                # d v / d c_l with the chain through c_d = delta - sum c_l
                ls = np.arange(1, d)[:, None, None]
                row[0] = -self.project((ls * ls * coeffs[1:d] - d * d * coeffs[d]) / v)
            jac = np.vstack([jac, row])
        return jac


def _motion(coeffs) -> float:
    """``sqrt(sum_k (k ||c_k||_F)^2)``, the size of ``x'`` that ``min_motion`` bounds below."""
    return float(np.sqrt(sum((k * np.linalg.norm(coeffs[k])) ** 2 for k in range(1, len(coeffs)))))


def _levenberg_marquardt(problem, theta0, max_iters=150):
    theta = np.array(theta0, dtype=float)
    r, coeffs = problem.residual(theta)
    cost = float(r @ r)
    mu = 1e-4
    for _ in range(max_iters):
        if np.max(np.abs(r)) < 1e-15:
            break
        # one SVD per accepted iterate gives every trial's exact minimizer of
        # |J step + r|^2 + mu |step|^2: step = -V diag(s / (s^2 + mu)) U^T r
        u, s, vt = np.linalg.svd(problem.jacobian(coeffs), full_matrices=False)
        ur = u.T @ r
        for _ in range(25):
            trial = theta - vt.T @ (s / (s * s + mu) * ur)
            r_t, coeffs_t = problem.residual(trial)
            cost_t = float(r_t @ r_t)
            if cost_t < cost:
                theta, r, coeffs, cost = trial, r_t, coeffs_t, cost_t
                mu = max(mu * 0.35, 1e-14)
                break
            mu *= 8.0
            if mu > 1e14:
                return theta, coeffs
        else:  # no trial lowered the cost
            break
    return theta, coeffs


def _ramp_coeffs(a, b, d):
    """Deterministic start: a + (b - a) * (1 - (1 - t)^d)."""
    m = a.shape[0]
    delta = b - a
    coeffs = np.zeros((d + 1, m, m), dtype=complex)
    coeffs[0] = a
    for k in range(1, d + 1):
        coeffs[k] = -((-1.0) ** k) * comb(d, k) * delta
    return coeffs


def _degree_candidates(a, b, roots, d, budget, seed, self_adjoint, min_motion):
    """Candidates of degree ``d``, each computed when the search asks for it.

    The straight segment at ``d = 1``; above, LM from the ramp, then from ``budget - 1`` seeded perturbations of it.
    """
    if d == 1:
        yield np.stack([a, b - a])
        return
    problem = _DegreeProblem(a, b, roots, d, self_adjoint, min_motion)
    ramp = problem.params_from_coeffs(_ramp_coeffs(a, b, d))
    sigma = 0.25 * (1.0 + operator_norm(b - a))
    for k in range(budget):
        theta0 = ramp
        if k:
            z = rng_from(seed, d, k - 1).standard_normal((d - 1, 2, *a.shape))  # complex Gaussian
            theta0 = ramp + sigma * problem.project(z[:, 0] + 1j * z[:, 1])
        _, coeffs = _levenberg_marquardt(problem, theta0)
        yield 0.5 * (coeffs + coeffs.conj().swapaxes(-1, -2)) if self_adjoint else coeffs


def min_degree_search(
    a: AlgebraicElement,
    b: AlgebraicElement,
    d_max: int,
    budget: int = 32,
    seed: int = 0,
    cfg: ToleranceConfig = ToleranceConfig(),
    self_adjoint: bool = False,
    min_motion: float = 0.0,
) -> MinDegreeResult:
    """Search for a certified polynomial path of the smallest degree.

    For each degree the endpoint constraints pin the extreme coefficients and
    the free interior ones are optimized to annihilate every coefficient of
    the composed polynomial — computed exactly by convolution, so a certified
    zero really is an identity in ``t``, not a pointwise fit.  Each degree
    above 1 runs up to ``budget`` restarts, from a deterministic ramp and then
    from seeded perturbations of it, and stops at the first certified one.
    With ``self_adjoint`` the coefficients are kept Hermitian so the whole
    path stays self-adjoint; ``min_motion`` adds a non-constancy penalty and
    skips a candidate that moves less, for probing the *absence* of
    non-constant paths.  Returns the first certified path plus the best
    certificate per degree, or just that curve when every degree fails.
    """
    _require_same_component(a, b, cfg)
    if self_adjoint:
        _require_self_adjoint(a, b)

    residual_by_degree: dict[int, float] = {}
    for d in range(1, d_max + 1):
        residual_by_degree[d] = np.inf  # stays when every candidate moves too little
        for coeffs in _degree_candidates(a.a, b.a, a.roots, d, budget, seed, self_adjoint, min_motion):
            if min_motion > 0.0 and _motion(coeffs) < min_motion:
                continue
            ok, worst, _ = _vanishing_certificates(coeffs[None], operator_norms(coeffs).sum(), a.roots, cfg)
            residual_by_degree[d] = min(residual_by_degree[d], float(worst[0]))
            if ok[0]:
                path = PolynomialPath(MatrixPolynomial(coeffs), float(worst[0]), self_adjoint)
                return MinDegreeResult(path=path, residual_by_degree=residual_by_degree)
    return MinDegreeResult(path=None, residual_by_degree=residual_by_degree)


# -- certification ---------------------------------------------------------------


def verify_path(
    path,
    roots: RootSystem | None = None,
    cfg: ToleranceConfig = ToleranceConfig(),
    expected_endpoint: np.ndarray | None = None,
) -> PathCertificate:
    """Re-certify a path of any kind, raising on the worst offender.

    Polynomial and polygonal paths are checked by exact coefficient
    certification of the composed polynomial; exponential paths by endpoint
    and membership checks at 100 evenly spaced ``t`` (membership is exact by
    conjugation, the samples guard the floating-point drift of the
    exponentials), on Frobenius norms, then on operator norms where those fail.
    """
    if isinstance(path, PolynomialPath):
        if roots is None:
            raise PreconditionError("polynomial paths need the root system for verification")
        return _verify_polynomial(path, roots, cfg)
    if isinstance(path, PolygonalPath):
        rs = roots if roots is not None else path.breakpoints[0].roots
        return _verify_polygonal(path, rs, cfg)
    if isinstance(path, ExpSimilarityPath):
        rs = roots if roots is not None else path.base.roots
        return _verify_exponential(path, rs, cfg, expected_endpoint)
    raise TypeError(f"not a path: {type(path)!r}")


def _verify_polynomial(path: PolynomialPath, roots, cfg) -> PathCertificate:
    coeffs = path.x.coeffs
    big = operator_norms(coeffs).sum()
    ok, worst, bad = _vanishing_certificates(coeffs[None], big, roots, cfg)
    worst = float(worst[0])
    if not ok[0]:
        raise CertificationFailed(
            f"coefficient {bad[0]} of the composed polynomial has norm {worst:.3e}",
            coefficient=int(bad[0]),
            value=worst,
        )
    herm = None
    if path.self_adjoint:
        herm = float(operator_norms(coeffs - coeffs.conj().swapaxes(-1, -2)).max())
        if herm > cfg.residual_tol * (1.0 + big):
            raise CertificationFailed(f"coefficients are not Hermitian: {herm:.3e}", value=herm)
    try:
        _certify_stack(np.stack([path.start, path.end]), roots, cfg)
    except NotAlgebraic as exc:
        raise CertificationFailed(
            f"{('start', 'end')[exc.index]} point is not in the solution set: {exc}",
            sample_t=float(exc.index),
            value=exc.residual,
        ) from exc
    return PathCertificate(kind="polynomial", worst_membership=worst, worst_hermiticity=herm)


def _verify_polygonal(path: PolygonalPath, roots, cfg) -> PathCertificate:
    points = np.stack([bp.a for bp in path.breakpoints])
    certs = ()
    if path.segments:
        ok, worst, bad = _segment_certificates(points, roots, cfg)
        if not ok.all():
            k = int(np.argmin(ok))  # the first failing segment
            raise CertificationFailed(
                f"segment {k} fails: coefficient norm {worst[k]:.3e}",
                segment=k,
                coefficient=int(bad[k]),
                value=float(worst[k]),
            )
        certs = tuple(worst.tolist())
    try:
        _certify_stack(points, roots, cfg)
    except NotAlgebraic as exc:
        raise CertificationFailed(
            f"breakpoint {exc.index} is not in the solution set: {exc}",
            segment=exc.index,
            value=exc.residual,
        ) from exc
    return PathCertificate(
        kind="polygonal",
        worst_membership=max(certs, default=0.0),
        segment_certificates=certs,
    )


def _sample_bounds(fro: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``lo <= sigma_1 <= hi`` on each ``m x m`` matrix ``R`` whose :func:`_frobenius` norm is ``fro``,
    ``sigma_1`` as LAPACK computes it: ``||R||_F / sqrt(m) <= sigma_1(R) <= ||R||_F``, widened by the
    rounding; a norm that overflows gives ``(0, inf)``."""
    # With u = eps / 2, the computed norm (two m^2-term dot products of squares, their sum and
    # a root) is within (m^2 / 2 + 2) u of the exact one (Higham, Thm 3.5), and LAPACK's sigma_1
    # within p(m) u with p modest; taking p(m) <= 2 m^2, each side errs by under 2 m^2 eps, an
    # eighth of the slack.  Each of the at most 4 m^2 products and sums that underflow loses at
    # most the smallest normal number (also where subnormals flush to zero), hence the floor.
    slack, floor = 16 * m * m * np.finfo(float).eps, 2 * m * np.sqrt(np.finfo(float).tiny)
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.where(np.isfinite(fro), np.maximum(0.0, (1.0 - slack) * fro - floor) / np.sqrt(m), 0.0)
        return lo, np.where(np.isfinite(fro), (1.0 + slack) * fro + floor, np.inf)


def _sample_tolerances(norm_x, roots, cfg, self_adjoint: bool) -> np.ndarray:
    """Tolerances of ``||p(x)||`` and, in self-adjoint mode, of ``||x - x*||``, one row each.

    Both are non-decreasing in ``norm_x``, so a lower bound on ``||x||``
    gives tolerances no larger than the exact ones.
    """
    tols = [cfg.residual_tol * np.maximum(1.0, roots.magnitude(norm_x))]
    if self_adjoint:
        tols.append(_hermiticity_tolerance(norm_x, roots, cfg))
    return np.stack(tols)


def _verify_exponential(path: ExpSimilarityPath, roots, cfg, expected_endpoint):
    self_adjoint = path.self_adjoint_mode
    worst = [0.0] * (1 + self_adjoint)  # the largest ||p(x)||_F, then ||x - x*||_F in self-adjoint mode
    if self_adjoint:
        for i, c in enumerate(path.generators):
            h = operator_norm(c - c.conj().T)
            if h > cfg.residual_tol * (1.0 + operator_norm(c)):
                raise CertificationFailed(f"generator {i} is not Hermitian: {h:.3e}", coefficient=i, value=h)
            worst[1] = max(worst[1], h)
    step = max(1, _GRID_BLOCK_BYTES // (16 * path.base.dim**2))  # complex128 samples
    for first in range(0, _GRID.size, step):
        ts = _GRID[first : first + step]
        with np.errstate(over="ignore", invalid="ignore"):  # defining_poly_value rejects what overflowed
            x = path.values(ts)
        parts = [x, defining_poly_value(x, roots)]
        if self_adjoint:
            parts.append(x - x.conj().swapaxes(-1, -2))
        parts = np.stack(parts)
        with np.errstate(over="ignore"):
            fro = _frobenius(parts)
        lo, hi = _sample_bounds(fro, path.base.dim)
        try:
            roots.magnitude(hi[0])
        except MagnitudeOverflow:
            roots.magnitude(operator_norms(x))  # the exact norms overflow too, or every sample is in range
        # A sample passes when the upper bound of each defect clears the tolerance of the lower bound of
        # ||x||; the others get the exact checks.  A Frobenius norm that overflows reports the exact one.
        rows = np.flatnonzero(~np.all(hi[1:] <= _sample_tolerances(lo[0], roots, cfg, self_adjoint), axis=0))
        reported = fro[1:]
        if rows.size:
            exact = np.linalg.svd(parts[:, rows], compute_uv=False)[..., 0]
            reported[:, rows] = np.where(np.isfinite(reported[:, rows]), reported[:, rows], exact[1:])
            bad = ~(exact[1:] <= _sample_tolerances(exact[0], roots, cfg, self_adjoint))
            if bad.any():
                i = int(np.argmax(bad.any(axis=0)))  # the first failing sample in t order
                t = float(ts[rows[i]])
                if bad[0, i]:
                    raise CertificationFailed(f"membership fails at t = {t:.4f}: residual {exact[1, i]:.3e}",
                                              sample_t=t, value=float(exact[1, i]))
                raise CertificationFailed(f"path leaves the self-adjoint set at t = {t:.4f}: {exact[2, i]:.3e}",
                                          sample_t=t, value=float(exact[2, i]))
        worst = [max(w, float(r.max())) for w, r in zip(worst, reported)]
    endpoint_error = None
    if expected_endpoint is not None:
        endpoint_error = _endpoint_error(x[-1], expected_endpoint, cfg)  # the grid ends at t = 1
    return PathCertificate(
        kind="exponential",
        worst_membership=worst[0],
        endpoint_error=endpoint_error,
        worst_hermiticity=worst[1] if self_adjoint else None,
        samples=_GRID.size,
    )
