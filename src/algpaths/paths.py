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
  one spectral subspace at a time, certified coefficient-by-coefficient.

``min_degree_search`` hunts for polynomial paths of prescribed degree by
least-squares on the exact coefficients of the composed polynomial, and
``verify_path`` re-certifies any path, including deserialized ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np
import scipy.linalg

from .algebraic import (
    AlgebraicElement,
    PartitionOfUnity,
    RootSystem,
    _certify_stack,
    _hermiticity_tolerance,
    certify,
    defining_poly_value,
)
from .components import resolve, resolve_pair
from .errors import (
    AlgpathsError,
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
    identity_like,
    mat_exp,
    mat_log_near_identity,
    matpoly_compose_p,
    matpoly_mul,
    operator_norm,
    operator_norm_bounds,
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

_PHASE_CUT_TOL = 1e-6
_GRID_BLOCK_BYTES = 64 * 1024  # per stacked (N, m, m) array of a sample grid


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

    def transporter(self, t: float) -> np.ndarray:
        return self._transport(np.array([float(t)]))[0]

    def value(self, t: float) -> np.ndarray:
        return self.values(np.array([float(t)]))[0]

    def values(self, ts: np.ndarray) -> np.ndarray:
        """``x(t)`` on a grid of parameter values, stacked as ``(N, m, m)``.

        Each generator costs one stacked exponential (two in general mode, for
        ``g`` and ``g^{-1}``), see :meth:`_exp_stack`; ``t = 0`` gives the base
        exactly.
        """
        ts = np.asarray(ts, dtype=float)
        g = self._transport(ts)
        if self.self_adjoint_mode:
            ginv = g.conj().swapaxes(-1, -2)
        else:
            ginv = self._identities(ts)
            for k in range(len(self.generators)):
                ginv = ginv @ self._exp_stack(k, -ts)
        x = g @ self.base.a @ ginv
        x[ts == 0] = self.base.a
        return x

    def _identities(self, ts: np.ndarray) -> np.ndarray:
        # stacked, so a path with no generators (the constant path) still gives (N, m, m)
        return np.repeat(identity_like(self.base.a)[None], len(ts), axis=0)

    def _transport(self, ts: np.ndarray) -> np.ndarray:
        g = self._identities(ts)
        for k in range(len(self.generators)):
            g = self._exp_stack(k, ts) @ g
        return g

    @cached_property
    def _exponents(self) -> tuple:
        """``(c, q, lam)`` per generator, from one complex Schur form ``c = Q T Q*``.

        ``c`` is the generator (``i c_k`` in self-adjoint mode).  When ``c`` is
        normal to working precision, ``||triu(T, 1)||_F <= 8 m u ||c||_F`` with
        ``u`` the machine epsilon, ``q`` is its unitary eigenbasis and ``lam``
        its eigenvalues; otherwise both are None.
        """
        m = self.base.dim
        out = []
        for gen in self.generators:
            c = 1j * gen if self.self_adjoint_mode else gen
            tri, q = scipy.linalg.schur(c, output="complex")
            if np.linalg.norm(np.triu(tri, 1)) <= 8 * m * np.finfo(float).eps * np.linalg.norm(c):
                out.append((c, q, np.diagonal(tri)))
            else:
                out.append((c, None, None))
        return tuple(out)

    def _exp_stack(self, k: int, ts: np.ndarray) -> np.ndarray:
        """``e^{t c}`` for the exponent ``c`` of generator ``k`` at each ``t`` of ``ts``.

        A normal ``c = Q diag(lam) Q*`` takes ``Q diag(e^{t lam}) Q*``, which is
        backward stable because ``Q`` is unitary (Moler & Van Loan 2003, "Nineteen
        dubious ways ..."); any other ``c`` one stacked ``scipy.linalg.expm``.
        ``t = 0`` gives the identity exactly.
        """
        c, q, lam = self._exponents[k]
        if q is None:
            return scipy.linalg.expm(ts[:, None, None] * c)
        e = (q * np.exp(ts[:, None] * lam)[:, None, :]) @ q.conj().T
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
    """Result of re-certifying a path."""

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
    value reached; ``path`` is the first certified path, or None if every
    degree failed.
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
    """``(log h, u)`` of the polar split ``w = u h``, ``u`` unitary and ``h`` positive."""
    uu, s, vh = np.linalg.svd(w)
    return _log_positive((vh.conj().T * s) @ vh), uu @ vh


def _log_positive(h: np.ndarray) -> np.ndarray:
    """Principal logarithm of a Hermitian positive-definite matrix."""
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    if vals[0] <= 0.0:
        raise FactorizationFailed(f"positive factor has eigenvalue {vals[0]:.3e}")
    return (vecs * np.log(vals)) @ vecs.conj().T


def _hermitian_log_of_unitary(u: np.ndarray) -> np.ndarray:
    """Hermitian ``K`` with ``u = e^{iK}``, phases in (-pi, pi).

    Fails when a phase sits at the branch cut; callers retry with a modified
    factorization in that case, the last tier being :func:`_split_off_the_cut`.
    """
    t, q = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diagonal(t))
    if np.min(np.pi - np.abs(phases)) < _PHASE_CUT_TOL:
        raise FactorizationFailed("unitary factor has a phase at the branch cut")
    return (q * phases) @ q.conj().T


def _split_off_the_cut(u: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian ``(h, k)`` with ``u = e^{ik} e^{ih}``, for a unitary ``u`` whose phase sits at the cut.

    ``h`` is a small seeded random Hermitian (``||h|| <= 0.2``) that moves the
    spectrum of ``u e^{-ih}`` off the branch cut, so ``k`` is its logarithm;
    a phase still at the cut raises :class:`FactorizationFailed`.
    """
    m = u.shape[0]
    rng = rng_from(seed, 31, 0)
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = 0.5 * (z + z.conj().T)
    h *= 0.2 / max(1.0, operator_norm(h))
    return h, _hermitian_log_of_unitary(u @ mat_exp(1j * h).conj().T)


def _column_flips(basis: np.ndarray):
    """``basis``, then each copy with one column negated, for retries off the branch cut.

    A flip negates the determinant and moves the spectrum of the unitary factor built
    from the basis.  Being a rank-one change, it cannot clear a -1 eigenvalue of
    multiplicity two.
    """
    yield basis
    for col in range(basis.shape[1]):
        flipped = np.array(basis)
        flipped[:, col] = -flipped[:, col]
        yield flipped


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


def _vanishing_certificates(coeffs, bounds, roots: RootSystem, cfg: ToleranceConfig):
    """Certify that ``p(x_j(t))`` vanishes identically for a batch of polynomials.

    ``coeffs`` stacks each ``x_j`` as ``(N, d + 1, m, m)``; ``bounds[j]`` bounds
    ``||x_j(t)||`` (``sum_k ||c_k||`` for a polynomial).  Its magnitude, taken
    before composing, which could overflow, scales the tolerance
    ``residual_tol * (1 + scale)``.  One stacked SVD takes every coefficient
    norm.  Returns the verdicts, the worst norms and the index of each worst
    coefficient, all ``(N,)``.
    """
    scales = np.maximum(1.0, roots.magnitude(bounds))
    p_coeffs = roots.poly_coeffs()
    q = np.stack([matpoly_compose_p(p_coeffs, MatrixPolynomial(c, normalized=False)).coeffs for c in coeffs])
    norms = operator_norms(q)
    worst = norms.max(axis=1)
    return worst <= cfg.residual_tol * (1.0 + scales), worst, norms.argmax(axis=1)


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
    (``w e_j = f_j w``), hence conjugates ``a`` onto ``b``.  When ``w`` is
    within the configured margin of the identity its series logarithm ``c``
    exists and ``x(t) = e^{tc} a e^{-tc}`` walks from ``a`` to ``b``.
    """
    ea, fb, _ = _require_same_component(a, b, cfg)
    return _local_from_partitions(a, b, _matching_similarity(ea, fb), cfg)


def _local_from_partitions(a, b, w, cfg) -> ExpSimilarityPath:
    try:
        c = mat_log_near_identity(w, cfg)
    except NotNearIdentity as exc:
        raise NotLocallyClose(f"{exc}; use the global constructor") from None
    return _gated_path(a, b, (c,), cfg)


def connect_exp_global(
    a: AlgebraicElement,
    b: AlgebraicElement,
    cfg: ToleranceConfig = ToleranceConfig(),
    seed: int = 0,
) -> ExpSimilarityPath:
    """Conjugation path with at most three exponential factors, any distance.

    Factors the connecting similarity through a polar split ``w = u h``: the
    positive part contributes a Hermitian generator ``log h``, the unitary
    part a skew one ``i K``.  When the partition matcher is singular (it can
    be, e.g. for antipodal idempotent pairs) the similarity is rebuilt from
    stacked spectral bases, which conjugates partition onto partition just as
    well.  When every similarity's unitary factor has a phase at the branch
    cut, the first one is split as ``u = e^{ik} e^{ih}`` with a small seeded
    ``h``, as :func:`connect_selfadjoint` does, giving the generators
    ``(log h, i h, i k)``.
    """
    ea, fb, ranks = _require_same_component(a, b, cfg)
    return _global_from_partitions(a, b, ea, fb, ranks, cfg, seed)


def _global_from_partitions(a, b, ea, fb, ranks, cfg, seed) -> ExpSimilarityPath:
    w = _matching_similarity(ea, fb)
    if operator_norm(w - identity_like(w)) < cfg.invertibility_margin:
        return _local_from_partitions(a, b, w, cfg)

    factored = []  # the polar factors of each invertible candidate
    for sim in _similarity_candidates(w, ea, fb, ranks):
        try:
            log_h, u = _polar_factors(sim)
            factored.append((log_h, u))
            return _gated_path(a, b, (log_h, 1j * _hermitian_log_of_unitary(u)), cfg)
        except FactorizationFailed:  # a singular positive factor, or a phase at the cut
            continue
    if not factored:
        raise FactorizationFailed("no invertible similarity: singular matcher, rank-deficient spectral bases")
    log_h, u = factored[0]
    h, k = _split_off_the_cut(u, seed)
    return _gated_path(a, b, (log_h, 1j * h, 1j * k), cfg)


def _similarity_candidates(w, ea, fb, ranks):
    """Similarities conjugating the first partition onto the second.

    The partition matcher is tried first; when it is singular, similarities
    are rebuilt from stacked spectral bases, then retried with one basis
    column flipped at a time.
    """
    svals = np.linalg.svd(w, compute_uv=False)
    if svals[-1] > 1e-6 * max(1.0, svals[0]):
        yield w
    se = np.hstack([_range_basis(e, r) for e, r in zip(ea.members, ranks)])
    sf = np.hstack([_range_basis(f, r) for f, r in zip(fb.members, ranks)])
    for stack in (se, sf):
        s = np.linalg.svd(stack, compute_uv=False)
        if s[-1] <= 1e-8 * s[0]:
            return
    se_inv = np.linalg.inv(se)
    for flipped in _column_flips(sf):
        yield flipped @ se_inv


def connect_selfadjoint(
    a: AlgebraicElement,
    b: AlgebraicElement,
    cfg: ToleranceConfig = ToleranceConfig(),
    seed: int = 0,
) -> ExpSimilarityPath:
    """Unitary conjugation path between self-adjoint elements.

    Orthonormal bases of matching eigenspaces assemble a unitary ``u`` with
    ``u a u* = b``; its Hermitian logarithm drives ``x(t) = e^{ict} a e^{-ict}``,
    which is self-adjoint and in the solution set for every ``t``.  If ``u``
    has a phase at the branch cut the unitary is split into two factors.
    """
    _require_self_adjoint(a, b)
    if not a.roots.all_real:
        raise NotSelfAdjoint("self-adjoint connections need an all-real root system")
    ea, fb, ranks = _require_same_component(a, b, cfg)
    ubasis = np.hstack([_eigbasis(e, r) for e, r in zip(ea.members, ranks)])
    vbasis = np.hstack([_eigbasis(f, r) for f, r in zip(fb.members, ranks)])

    for v in _column_flips(vbasis):  # basis-phase freedom
        u = v @ ubasis.conj().T
        try:
            k = _hermitian_log_of_unitary(u)
        except FactorizationFailed:
            continue
        return _gated_path(a, b, (k,), cfg, self_adjoint_mode=True)
    return _gated_path(a, b, _split_off_the_cut(vbasis @ ubasis.conj().T, seed), cfg, self_adjoint_mode=True)


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
    yields ``n`` segments; degenerate subspace configurations fall back to
    inserting a midpoint from the global exponential path, so the segment
    count can exceed ``n`` (it is reported via ``segments``).
    """
    ea, fb, ranks = _require_same_component(a, b, cfg)
    return _polygonal_from_partitions(a, b, ea, fb, ranks, cfg, seed)


def _polygonal_from_partitions(a, b, ea, fb, ranks, cfg, seed) -> PolygonalPath:
    if operator_norm(a.a - b.a) <= cfg.residual_tol * (1.0 + operator_norm(a.a)):
        return PolygonalPath(breakpoints=(a,), certificates=())
    breakpoints, certs = _polygonal_chain(a, b, ea, fb, ranks, cfg, seed, depth=4)
    return PolygonalPath(breakpoints=tuple(breakpoints), certificates=tuple(certs))


def _polygonal_chain(a, b, ea, fb, ranks, cfg, seed, depth):
    try:
        return _subspace_replacement_chain(a, b, ea, fb, ranks, cfg)
    except (_ChainFailed, NotAlgebraic):
        if depth <= 0:
            raise SubspaceSplitFailed(
                "subspace configurations stayed degenerate through midpoint retries"
            )
    mid_path = _global_from_partitions(a, b, ea, fb, ranks, cfg, seed)
    z = certify(mid_path.value(0.5), a.roots, cfg)
    ez, zsig = resolve(z, cfg)
    left_bp, left_c = _polygonal_chain(a, z, ea, ez, ranks, cfg, seed + 1, depth - 1)
    right_bp, right_c = _polygonal_chain(z, b, ez, fb, zsig.ranks, cfg, seed + 2, depth - 1)
    return left_bp + right_bp[1:], left_c + right_c


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
    x = MatrixPolynomial(coeffs, normalized=False)
    m = x.dim
    n = len(p_coeffs) - 1
    powers = [np.eye(m, dtype=complex)[None, :, :]]
    for _ in range(n - 1):
        powers.append(matpoly_mul(MatrixPolynomial(powers[-1], normalized=False), x).coeffs)

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
        x = MatrixPolynomial(coeffs, normalized=False)
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


def _polygonal_fit_coeffs(poly_path, a, b, d):
    """Least-squares degree-d fit of a polygonal path, endpoints pinned."""
    m = a.shape[0]
    delta = b - a
    ts = np.linspace(0.0, 1.0, max(9, 2 * d + 3))
    targets = np.stack([poly_path.value(t) - a - (t**d) * delta for t in ts])
    basis = np.stack([[t**l - t**d for l in range(1, d)] for t in ts])  # (S, d-1)
    sol, *_ = np.linalg.lstsq(basis, targets.reshape(len(ts), -1), rcond=None)
    interior = sol.reshape(d - 1, m, m)
    return np.concatenate([a[None], interior, (delta - interior.sum(axis=0))[None]])


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
    zero really is an identity in ``t``, not a pointwise fit.  Restarts run
    from a deterministic ramp, a fit of the polygonal path, and seeded random
    perturbations.  With ``self_adjoint`` the coefficients are kept Hermitian
    so the whole path stays self-adjoint; ``min_motion`` adds a non-constancy
    penalty used when probing for the *absence* of non-constant paths.

    Returns the first certified path plus the best residual per degree, or
    just the residual curve when every degree fails.
    """
    ea, fb, ranks = _require_same_component(a, b, cfg)
    if self_adjoint:
        _require_self_adjoint(a, b)

    roots = a.roots
    residual_by_degree: dict[int, float] = {}

    # the polygonal path only seeds one restart; the search runs without it
    try:
        poly_seed = _polygonal_from_partitions(a, b, ea, fb, ranks, cfg, seed)
    except AlgpathsError:
        poly_seed = None

    for d in range(1, d_max + 1):
        candidates = []
        if d == 1:
            candidates.append(np.stack([a.a, b.a - a.a]))
        else:
            problem = _DegreeProblem(a.a, b.a, roots, d, self_adjoint, min_motion)
            starts = [_ramp_coeffs(a.a, b.a, d)]
            if poly_seed is not None:
                starts.append(_polygonal_fit_coeffs(poly_seed, a.a, b.a, d))
            thetas = [problem.params_from_coeffs(c) for c in starts]
            sigma = 0.25 * (1.0 + operator_norm(b.a - a.a))
            for r in range(max(0, budget - len(starts))):
                # the last start's interior coefficients plus sigma times a complex Gaussian
                z = rng_from(seed, d, r).standard_normal((d - 1, 2, a.dim, a.dim))
                thetas.append(thetas[len(starts) - 1] + sigma * problem.project(z[:, 0] + 1j * z[:, 1]))
            for theta0 in thetas[:budget]:
                _, coeffs = _levenberg_marquardt(problem, theta0)
                if self_adjoint:
                    coeffs = 0.5 * (coeffs + coeffs.conj().swapaxes(-1, -2))
                candidates.append(coeffs)

        if self_adjoint and min_motion > 0.0:
            candidates = [c for c in candidates if _motion(c) >= min_motion]
        if not candidates:
            residual_by_degree[d] = float(np.inf)
            continue
        stack = np.stack(candidates)
        ok, worst, _ = _vanishing_certificates(stack, operator_norms(stack).sum(axis=-1), roots, cfg)
        best = int(np.argmin(worst))  # the first smallest certificate
        residual_by_degree[d] = float(worst[best])
        if ok[best]:
            path = PolynomialPath(
                x=MatrixPolynomial(candidates[best], normalized=False),
                certificate=float(worst[best]),
                self_adjoint=self_adjoint,
            )
            return MinDegreeResult(path=path, residual_by_degree=residual_by_degree)
    return MinDegreeResult(path=None, residual_by_degree=residual_by_degree)


# -- certification ---------------------------------------------------------------


def verify_path(
    path,
    roots: RootSystem | None = None,
    cfg: ToleranceConfig = ToleranceConfig(),
    expected_endpoint: np.ndarray | None = None,
    samples: int = 100,
) -> PathCertificate:
    """Re-certify a path of any kind, raising on the worst offender.

    Polynomial and polygonal paths are checked by exact coefficient
    certification of the composed polynomial; exponential paths by endpoint
    and sampled-membership checks (membership is exact by conjugation, the
    samples guard the floating-point drift of the exponentials).
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
        return _verify_exponential(path, rs, cfg, expected_endpoint, samples)
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


def _sample_tolerances(norm_x, roots, cfg, self_adjoint: bool) -> np.ndarray:
    """Tolerances of ``||p(x)||`` and, in self-adjoint mode, of ``||x - x*||``, one row each.

    Both are non-decreasing in ``norm_x``, so a lower bound on ``||x||``
    gives tolerances no larger than the exact ones.
    """
    tols = [cfg.residual_tol * np.maximum(1.0, roots.magnitude(norm_x))]
    if self_adjoint:
        tols.append(_hermiticity_tolerance(norm_x, roots, cfg))
    return np.stack(tols)


def _verify_exponential(path: ExpSimilarityPath, roots, cfg, expected_endpoint, samples):
    self_adjoint = path.self_adjoint_mode
    worst = [0.0] * (1 + self_adjoint)  # the largest ||p(x)||, then ||x - x*|| in self-adjoint mode
    if self_adjoint:
        for i, c in enumerate(path.generators):
            h = operator_norm(c - c.conj().T)
            if h > cfg.residual_tol * (1.0 + operator_norm(c)):
                raise CertificationFailed(
                    f"generator {i} is not Hermitian: {h:.3e}", coefficient=i, value=h
                )
            worst[1] = max(worst[1], h)
    grid = np.linspace(0.0, 1.0, samples)
    step = max(1, _GRID_BLOCK_BYTES // (16 * path.base.dim**2))  # complex128 samples
    for first in range(0, samples, step):
        ts = grid[first : first + step]
        with np.errstate(over="ignore", invalid="ignore"):  # defining_poly_value rejects what overflowed
            x = path.values(ts)
        parts = [x, defining_poly_value(x, roots)]
        if self_adjoint:
            parts.append(x - x.conj().swapaxes(-1, -2))
        lo, hi = (np.stack(b) for b in zip(*map(operator_norm_bounds, parts)))
        try:
            roots.magnitude(hi[0])
        except MagnitudeOverflow:
            roots.magnitude(operator_norms(x))  # the exact norms overflow too, or every sample is in range
        # A sample passes on its brackets when the upper bound of each defect
        # clears the tolerance of the lower bound of ||x||.  The SVD runs only
        # on the other samples, which get the exact checks, and on the rows
        # that may hold a new worst defect: every other row's upper bound lies
        # below some row's lower bound, or at or below the worst so far.
        undecided = ~np.all(hi[1:] <= _sample_tolerances(lo[0], roots, cfg, self_adjoint), axis=0)
        rows = [np.flatnonzero(undecided)]
        rows += [np.flatnonzero(undecided | ((h >= l.max()) & (h > w)))
                 for l, h, w in zip(lo[1:], hi[1:], worst)]
        stacked = np.concatenate([part[r] for part, r in zip(parts, rows)])
        exact = np.linalg.svd(stacked, compute_uv=False)[:, 0] if len(stacked) else np.empty(0)
        norm_x, *defects = np.split(exact, np.cumsum([r.size for r in rows[:-1]]))
        worst = [float(np.max(d, initial=w)) for d, w in zip(defects, worst)]
        if rows[0].size:
            defects = np.stack([d[np.searchsorted(r, rows[0])] for d, r in zip(defects, rows[1:])])
            bad = ~(defects <= _sample_tolerances(norm_x, roots, cfg, self_adjoint))
            if bad.any():
                i = int(np.argmax(bad.any(axis=0)))  # the first failing sample in t order
                t = float(ts[rows[0][i]])
                if bad[0, i]:
                    raise CertificationFailed(
                        f"membership fails at t = {t:.4f}: residual {defects[0, i]:.3e}",
                        sample_t=t,
                        value=float(defects[0, i]),
                    )
                raise CertificationFailed(
                    f"path leaves the self-adjoint set at t = {t:.4f}: {defects[1, i]:.3e}",
                    sample_t=t,
                    value=float(defects[1, i]),
                )
    endpoint_error = None
    if expected_endpoint is not None:
        end = x[-1] if samples > 1 else path.value(1.0)  # the grid ends at t = 1
        endpoint_error = _endpoint_error(end, expected_endpoint, cfg)
    return PathCertificate(
        kind="exponential",
        worst_membership=worst[0],
        endpoint_error=endpoint_error,
        worst_hermiticity=worst[1] if self_adjoint else None,
        samples=samples,
    )
