"""Certified connecting paths inside a connected component.

Four constructions, each certified after the fact so correctness never rests
on the construction heuristics:

* ``connect_exp_local`` — a single exponential conjugation ``e^{tc} a e^{-tc}``
  for pairs whose partition-matching similarity is close to the identity;
* ``connect_exp_global`` — at most two exponential factors (a positive and a
  unitary one from a polar split), covering whole components;
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

import numpy as np
import scipy.linalg

from .algebraic import (
    AlgebraicElement,
    PartitionOfUnity,
    RootSystem,
    certify,
    eval_defining_poly,
    spectral_resolution,
)
from .components import partition_ranks, same_component, signature
from .errors import (
    AlgpathsError,
    CertificationFailed,
    FactorizationFailed,
    NotAlgebraic,
    NotLocallyClose,
    NotNearIdentity,
    NotSameComponent,
    NotSelfAdjoint,
    SubspaceSplitFailed,
)
from .matkernel import (
    MatrixPolynomial,
    ToleranceConfig,
    identity_like,
    mat_exp,
    mat_log_near_identity,
    matpoly_compose_p,
    matpoly_is_zero,
    operator_norm,
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

        Each generator costs one ``expm`` on the stacked arguments (two in
        general mode, for ``g`` and ``g^{-1}``); ``t = 0`` gives the base
        exactly.
        """
        ts = np.asarray(ts, dtype=float)
        g = self._transport(ts)
        if self.self_adjoint_mode:
            ginv = g.conj().swapaxes(-1, -2)
        else:
            ginv = identity_like(self.base.a)
            for c in self.generators:
                ginv = ginv @ scipy.linalg.expm(-(ts[:, None, None] * c))
        x = g @ self.base.a @ ginv
        x[ts == 0] = self.base.a
        return x

    def _transport(self, ts: np.ndarray) -> np.ndarray:
        g = identity_like(self.base.a)
        for c in self.generators:
            arg = ts[:, None, None] * (1j * c if self.self_adjoint_mode else c)
            g = scipy.linalg.expm(arg) @ g
        return g


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
    if not same_component(a, b, cfg):
        raise NotSameComponent(
            f"signatures {signature(a, cfg).ranks} and {signature(b, cfg).ranks} differ"
        )


def _matching_similarity(ea: PartitionOfUnity, fb: PartitionOfUnity) -> np.ndarray:
    """The partition matcher ``w = sum_i f_i e_i``; satisfies ``w a = b w``."""
    w = np.zeros_like(ea.members[0])
    for e, f in zip(ea.members, fb.members):
        w = w + f @ e
    return w


def _polar(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary and positive factors with ``w = u h``."""
    uu, s, vh = np.linalg.svd(w)
    u = uu @ vh
    h = (vh.conj().T * s) @ vh
    return u, h


def _log_positive(h: np.ndarray) -> np.ndarray:
    """Principal logarithm of a Hermitian positive-definite matrix."""
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    if vals[0] <= 0.0:
        raise FactorizationFailed(f"positive factor has eigenvalue {vals[0]:.3e}")
    return (vecs * np.log(vals)) @ vecs.conj().T


def _hermitian_log_of_unitary(u: np.ndarray) -> np.ndarray:
    """Hermitian ``K`` with ``u = e^{iK}``, phases in (-pi, pi).

    Fails when a phase sits at the branch cut; callers retry with a modified
    factorization in that case.
    """
    t, q = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diagonal(t))
    if np.min(np.pi - np.abs(phases)) < _PHASE_CUT_TOL:
        raise FactorizationFailed("unitary factor has a phase at the branch cut")
    return (q * phases) @ q.conj().T


def _range_basis(e: np.ndarray, r: int) -> np.ndarray:
    """Orthonormal basis of the column space of an idempotent of rank ``r``."""
    u, _, _ = np.linalg.svd(e)
    return u[:, :r]


def _endpoint_gate(path, b: AlgebraicElement, cfg: ToleranceConfig) -> float:
    err = operator_norm(path.value(1.0) - b.a)
    tol = cfg.residual_tol * (1.0 + operator_norm(b.a))
    if err > tol:
        raise CertificationFailed(
            f"endpoint error {err:.3e} exceeds {tol:.3e}", sample_t=1.0, value=err
        )
    return err


def _segment_scale(x: np.ndarray, y: np.ndarray, roots: RootSystem) -> float:
    return max(1.0, roots.magnitude(2.0 * max(operator_norm(x), operator_norm(y))))


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
    _require_same_component(a, b, cfg)
    ea = spectral_resolution(a, cfg)
    fb = spectral_resolution(b, cfg)
    return _local_from_partitions(a, b, ea, fb, cfg)


def _local_from_partitions(a, b, ea, fb, cfg) -> ExpSimilarityPath:
    w = _matching_similarity(ea, fb)
    dist = operator_norm(w - identity_like(w))
    if dist >= cfg.invertibility_margin:
        raise NotLocallyClose(
            f"||w - 1|| = {dist:.6f} >= margin {cfg.invertibility_margin}; "
            "use the global constructor"
        )
    c = mat_log_near_identity(w, cfg)
    path = ExpSimilarityPath(base=a, generators=(c,), self_adjoint_mode=False)
    _endpoint_gate(path, b, cfg)
    return path


def connect_exp_global(
    a: AlgebraicElement,
    b: AlgebraicElement,
    cfg: ToleranceConfig = ToleranceConfig(),
    seed: int = 0,
) -> ExpSimilarityPath:
    """Conjugation path with at most two exponential factors, any distance.

    Factors the connecting similarity through a polar split ``w = u h``: the
    positive part contributes a Hermitian generator ``log h``, the unitary
    part a skew one ``i K``.  When the partition matcher is singular (it can
    be, e.g. for antipodal idempotent pairs) the similarity is rebuilt from
    stacked spectral bases, which conjugates partition onto partition just as
    well.  A perturb-and-retry loop covers the branch-cut corner cases and
    appends one near-identity generator for the last step home.
    """
    _require_same_component(a, b, cfg)
    ea = spectral_resolution(a, cfg)
    fb = spectral_resolution(b, cfg)

    w = _matching_similarity(ea, fb)
    if operator_norm(w - identity_like(w)) < cfg.invertibility_margin:
        return _local_from_partitions(a, b, ea, fb, cfg)

    for sim in _similarity_candidates(w, ea, fb, cfg):
        try:
            u, h = _polar(sim)
            c1 = _log_positive(h)
            c2 = 1j * _hermitian_log_of_unitary(u)
        except FactorizationFailed:
            continue
        path = ExpSimilarityPath(base=a, generators=(c1, c2), self_adjoint_mode=False)
        _endpoint_gate(path, b, cfg)
        return path

    # Last resort: walk to a nearby conjugate b' with a generic matcher, then
    # take one near-identity step from b' to b.
    for attempt in range(8):
        rng = rng_from(seed, 9000, attempt)
        z = rng.standard_normal((a.dim, a.dim)) + 1j * rng.standard_normal((a.dim, a.dim))
        g = identity_like(a.a) + (0.05 / np.linalg.norm(z)) * z
        bp = certify(np.linalg.solve(g.T, (g @ b.a).T).T, b.roots, cfg)
        fbp = spectral_resolution(bp, cfg)
        wp = _matching_similarity(ea, fbp)
        svals = np.linalg.svd(wp, compute_uv=False)
        if svals[-1] <= 1e-6 * max(1.0, svals[0]):
            continue
        try:
            u, h = _polar(wp)
            c1 = _log_positive(h)
            c2 = 1j * _hermitian_log_of_unitary(u)
            wlast = _matching_similarity(fbp, fb)
            c3 = mat_log_near_identity(wlast, cfg)
        except (FactorizationFailed, NotNearIdentity):
            continue
        path = ExpSimilarityPath(base=a, generators=(c1, c2, c3), self_adjoint_mode=False)
        _endpoint_gate(path, b, cfg)
        return path
    raise FactorizationFailed("all polar factorizations hit the branch cut or a singular matcher")


def _similarity_candidates(w, ea, fb, cfg):
    """Similarities conjugating the first partition onto the second.

    The partition matcher is tried first; when it is singular, similarities
    are rebuilt from stacked spectral bases.  Flipping one basis column flips
    the determinant and moves the unitary factor's spectrum, giving cheap
    deterministic retries against the branch cut.
    """
    svals = np.linalg.svd(w, compute_uv=False)
    if svals[-1] > 1e-6 * max(1.0, svals[0]):
        yield w
    ranks = partition_ranks(ea, cfg)
    se = np.hstack([_range_basis(e, r) for e, r in zip(ea.members, ranks)])
    sf = np.hstack([_range_basis(f, r) for f, r in zip(fb.members, ranks)])
    for stack in (se, sf):
        s = np.linalg.svd(stack, compute_uv=False)
        if s[-1] <= 1e-8 * s[0]:
            return
    se_inv = np.linalg.inv(se)
    yield sf @ se_inv
    for col in range(sf.shape[1]):
        flipped = np.array(sf)
        flipped[:, col] = -flipped[:, col]
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
    for el, name in ((a, "a"), (b, "b")):
        if not el.self_adjoint:
            raise NotSelfAdjoint(f"element {name} is not self-adjoint")
    if not a.roots.all_real:
        raise NotSelfAdjoint("self-adjoint connections need an all-real root system")
    _require_same_component(a, b, cfg)

    ea = spectral_resolution(a, cfg)
    fb = spectral_resolution(b, cfg)
    ranks = partition_ranks(ea, cfg)
    ubasis = np.hstack([_eigbasis(e, r) for e, r in zip(ea.members, ranks)])
    vbasis = np.hstack([_eigbasis(f, r) for f, r in zip(fb.members, ranks)])

    # Basis-phase freedom: flipping one column of v flips the determinant and
    # moves the spectrum of u, which is usually enough to leave the cut.
    candidates = [vbasis]
    for col in range(vbasis.shape[1]):
        flipped = np.array(vbasis)
        flipped[:, col] = -flipped[:, col]
        candidates.append(flipped)
    for v in candidates:
        u = v @ ubasis.conj().T
        try:
            k = _hermitian_log_of_unitary(u)
        except FactorizationFailed:
            continue
        path = ExpSimilarityPath(base=a, generators=(k,), self_adjoint_mode=True)
        _endpoint_gate(path, b, cfg)
        return path

    # Two-factor split: u = (u v*) v with a small random unitary v.
    u = vbasis @ ubasis.conj().T
    for attempt in range(8):
        rng = rng_from(seed, 31, attempt)
        z = rng.standard_normal((a.dim, a.dim)) + 1j * rng.standard_normal((a.dim, a.dim))
        h = 0.5 * (z + z.conj().T)
        h *= 0.2 / max(1.0, operator_norm(h))
        small = mat_exp(1j * h)
        try:
            k2 = _hermitian_log_of_unitary(u @ small.conj().T)
        except FactorizationFailed:
            continue
        path = ExpSimilarityPath(base=a, generators=(h, k2), self_adjoint_mode=True)
        _endpoint_gate(path, b, cfg)
        return path
    raise FactorizationFailed("could not steer the unitary factor off the branch cut")


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
    _require_same_component(a, b, cfg)
    if operator_norm(a.a - b.a) <= cfg.residual_tol * (1.0 + operator_norm(a.a)):
        return PolygonalPath(breakpoints=(a,), certificates=())
    breakpoints, certs = _polygonal_chain(a, b, cfg, seed, depth=4)
    return PolygonalPath(breakpoints=tuple(breakpoints), certificates=tuple(certs))


def _polygonal_chain(a, b, cfg, seed, depth):
    try:
        return _subspace_replacement_chain(a, b, cfg)
    except (_ChainFailed, NotAlgebraic):
        if depth <= 0:
            raise SubspaceSplitFailed(
                "subspace configurations stayed degenerate through midpoint retries"
            )
    mid_path = connect_exp_global(a, b, cfg, seed=seed)
    z = certify(mid_path.value(0.5), a.roots, cfg)
    left_bp, left_c = _polygonal_chain(a, z, cfg, seed + 1, depth - 1)
    right_bp, right_c = _polygonal_chain(z, b, cfg, seed + 2, depth - 1)
    return left_bp + right_bp[1:], left_c + right_c


def _subspace_replacement_chain(a, b, cfg):
    roots = a.roots
    n = roots.n
    m = a.dim
    ea = spectral_resolution(a, cfg)
    fb = spectral_resolution(b, cfg)
    ranks = partition_ranks(ea, cfg)
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

    p_coeffs = roots.poly_coeffs()
    certs = []
    for u, v in zip(breakpoints[:-1], breakpoints[1:]):
        q = matpoly_compose_p(p_coeffs, MatrixPolynomial.segment(u.a, v.a))
        ok, worst = matpoly_is_zero(q, cfg, scale=_segment_scale(u.a, v.a, roots))
        if not ok:
            raise _ChainFailed
        certs.append(worst)
    return breakpoints, certs


# -- minimum-degree polynomial path search ---------------------------------------


def _hermitian_basis(m: int) -> np.ndarray:
    """Orthonormal Hermitian basis, as columns of an (m^2, m^2) matrix."""
    mats = []
    for r in range(m):
        e = np.zeros((m, m), dtype=complex)
        e[r, r] = 1.0
        mats.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for r in range(m):
        for s in range(r + 1, m):
            e = np.zeros((m, m), dtype=complex)
            e[r, s] = inv_sqrt2
            e[s, r] = inv_sqrt2
            mats.append(e)
            e = np.zeros((m, m), dtype=complex)
            e[r, s] = 1j * inv_sqrt2
            e[s, r] = -1j * inv_sqrt2
            mats.append(e)
    return np.stack([mat.reshape(-1) for mat in mats], axis=1)


def _compose_and_jacobian_blocks(p_coeffs: np.ndarray, coeffs: np.ndarray):
    """Coefficients of ``p(x)`` plus the degree-indexed differential blocks.

    ``blocks[g]`` is the matrix of ``vec(dx) -> vec`` contribution of a
    direction at parameter degree zero to the output coefficient of degree
    ``g``: the differential of the composition is
    ``dq = sum_k p_k sum_{i+j=k-1} x^i dx x^j`` and ``vec(A E B) =
    (B^T kron A) vec(E)``.
    """
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

    total = n * d + 1
    q = np.zeros((total, m, m), dtype=complex)
    for k, pk in enumerate(p_coeffs):
        q[: powers[k].shape[0]] += pk * powers[k]

    blocks = np.zeros(((n - 1) * d + 1, m * m, m * m), dtype=complex)
    for k in range(1, n + 1):
        pk = p_coeffs[k]
        if pk == 0:
            continue
        for i in range(k):
            j = k - 1 - i
            pi, pj = powers[i], powers[j]
            for u in range(pi.shape[0]):
                for v in range(pj.shape[0]):
                    # row-major vec: vec(A E B) = (A kron B^T) vec(E)
                    blocks[u + v] += pk * np.kron(pi[u], pj[v].T)
    return q, blocks


def _assemble_real_jacobian(blocks, d, total, m, hermitian, hbasis):
    """Real Jacobian of the stacked residual w.r.t. the free coefficients.

    Interior coefficient ``l`` moves the composition through degrees ``g-l``
    directly and through ``g-d`` via the endpoint constraint
    ``c_d = b - a - sum interior``.
    """
    mm = m * m
    gmax = blocks.shape[0] - 1
    cols_per = mm if hermitian else 2 * mm
    jac = np.zeros((2 * total * mm, (d - 1) * cols_per))
    for l in range(1, d):
        cblock = np.zeros((total * mm, mm), dtype=complex)
        for g in range(total):
            acc = None
            if 0 <= g - l <= gmax:
                acc = blocks[g - l].copy()
            if 0 <= g - d <= gmax:
                acc = -blocks[g - d] if acc is None else acc - blocks[g - d]
            if acc is not None:
                cblock[g * mm : (g + 1) * mm] = acc
        if hermitian:
            cplx = cblock @ hbasis
            cols = np.concatenate([cplx.real, cplx.imag], axis=0)
        else:
            cols = np.concatenate(
                [
                    np.concatenate([cblock.real, -cblock.imag], axis=1),
                    np.concatenate([cblock.imag, cblock.real], axis=1),
                ],
                axis=0,
            )
        jac[:, (l - 1) * cols_per : l * cols_per] = cols
    return jac


class _DegreeProblem:
    """Least-squares formulation of 'find x(t) of degree d with p(x) = 0'."""

    def __init__(self, a, b, roots, d, hermitian, min_motion):
        self.a = a
        self.b = b
        self.delta = b - a
        self.p_coeffs = roots.poly_coeffs()
        self.d = d
        self.m = a.shape[0]
        self.n = len(self.p_coeffs) - 1
        self.total = self.n * d + 1
        self.hermitian = hermitian
        self.min_motion = min_motion
        self.hbasis = _hermitian_basis(self.m) if hermitian else None
        self.nfree = (d - 1) * (self.m**2 if hermitian else 2 * self.m**2)

    def coeffs_from_params(self, theta):
        d, m = self.d, self.m
        coeffs = np.zeros((d + 1, m, m), dtype=complex)
        coeffs[0] = self.a
        acc = np.zeros((m, m), dtype=complex)
        per = m * m if self.hermitian else 2 * m * m
        for l in range(1, d):
            chunk = theta[(l - 1) * per : l * per]
            if self.hermitian:
                c = (self.hbasis @ chunk).reshape(m, m)
            else:
                c = (chunk[: m * m] + 1j * chunk[m * m :]).reshape(m, m)
            coeffs[l] = c
            acc += c
        coeffs[d] = self.delta - acc
        return coeffs

    def params_from_coeffs(self, coeffs):
        m = self.m
        out = []
        for l in range(1, self.d):
            c = coeffs[l]
            if self.hermitian:
                c = 0.5 * (c + c.conj().T)
                out.append((self.hbasis.conj().T @ c.reshape(-1)).real)
            else:
                out.append(np.concatenate([c.reshape(-1).real, c.reshape(-1).imag]))
        return np.concatenate(out) if out else np.zeros(0)

    def _motion(self, coeffs):
        ks = np.arange(1, self.d + 1)
        return float(np.sqrt(sum((k * np.linalg.norm(coeffs[k])) ** 2 for k in ks)))

    def residual(self, theta):
        coeffs = self.coeffs_from_params(theta)
        q, blocks = _compose_and_jacobian_blocks(self.p_coeffs, coeffs)
        flat = q.reshape(-1)
        r = np.concatenate([flat.real, flat.imag])
        if self.min_motion > 0.0:
            gap = max(0.0, self.min_motion - self._motion(coeffs))
            r = np.append(r, gap)
        return r, coeffs, blocks

    def jacobian(self, coeffs, blocks):
        jac = _assemble_real_jacobian(
            blocks, self.d, self.total, self.m, self.hermitian, self.hbasis
        )
        if self.min_motion > 0.0:
            row = np.zeros((1, jac.shape[1]))
            v = self._motion(coeffs)
            if v > 0.0 and v < self.min_motion:
                d = self.d
                per = self.m**2 if self.hermitian else 2 * self.m**2
                for l in range(1, d):
                    # d v / d c_l with the chain through c_d = delta - sum c_l
                    grad_mat = (l * l * coeffs[l] - d * d * coeffs[d]) / v
                    if self.hermitian:
                        gvec = (self.hbasis.conj().T @ grad_mat.reshape(-1)).real
                    else:
                        gvec = np.concatenate(
                            [grad_mat.reshape(-1).real, grad_mat.reshape(-1).imag]
                        )
                    row[0, (l - 1) * per : l * per] = -gvec
            jac = np.vstack([jac, row])
        return jac


def _levenberg_marquardt(problem, theta0, max_iters=150):
    theta = np.array(theta0, dtype=float)
    r, coeffs, blocks = problem.residual(theta)
    cost = float(r @ r)
    mu = 1e-4
    for _ in range(max_iters):
        if np.max(np.abs(r)) < 1e-15:
            break
        jac = problem.jacobian(coeffs, blocks)
        improved = False
        for _ in range(25):
            aug = np.vstack([jac, np.sqrt(mu) * np.eye(jac.shape[1])])
            rhs = np.concatenate([-r, np.zeros(jac.shape[1])])
            step, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
            trial = theta + step
            r_t, coeffs_t, blocks_t = problem.residual(trial)
            cost_t = float(r_t @ r_t)
            if cost_t < cost:
                theta, r, coeffs, blocks, cost = trial, r_t, coeffs_t, blocks_t, cost_t
                mu = max(mu * 0.35, 1e-14)
                improved = True
                break
            mu *= 8.0
            if mu > 1e14:
                break
        if not improved:
            break
    return theta, coeffs


def _ramp_coeffs(a, b, d):
    """Deterministic start: a + (b - a) * (1 - (1 - t)^d)."""
    m = a.shape[0]
    delta = b - a
    coeffs = np.zeros((d + 1, m, m), dtype=complex)
    coeffs[0] = a
    from math import comb

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
    coeffs = np.zeros((d + 1, m, m), dtype=complex)
    coeffs[0] = a
    for l in range(1, d):
        coeffs[l] = sol[l - 1].reshape(m, m)
    coeffs[d] = delta - coeffs[1:d].sum(axis=0)
    return coeffs


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
    _require_same_component(a, b, cfg)
    if self_adjoint:
        for el, name in ((a, "a"), (b, "b")):
            if not el.self_adjoint:
                raise NotSelfAdjoint(f"element {name} is not self-adjoint")

    roots = a.roots
    p_coeffs = roots.poly_coeffs()
    residual_by_degree: dict[int, float] = {}

    # the polygonal path only seeds one restart; the search runs without it
    try:
        poly_seed = connect_polygonal(a, b, cfg, seed=seed)
    except AlgpathsError:
        poly_seed = None

    for d in range(1, d_max + 1):
        candidates = []
        if d == 1:
            candidates.append(np.stack([a.a, b.a - a.a]))
        else:
            problem = _DegreeProblem(a.a, b.a, roots, d, self_adjoint, min_motion)
            inits = [_ramp_coeffs(a.a, b.a, d)]
            if poly_seed is not None:
                inits.append(_polygonal_fit_coeffs(poly_seed, a.a, b.a, d))
            base = inits[-1]
            sigma = 0.25 * (1.0 + operator_norm(b.a - a.a))
            for r in range(max(0, budget - len(inits))):
                rng = rng_from(seed, d, r)
                noisy = np.array(base)
                for l in range(1, d):
                    z = rng.standard_normal((a.dim, a.dim)) + 1j * rng.standard_normal(
                        (a.dim, a.dim)
                    )
                    noisy[l] = noisy[l] + sigma * z
                noisy[d] = (b.a - a.a) - noisy[1:d].sum(axis=0)
                inits.append(noisy)
            for init in inits[:budget]:
                theta0 = problem.params_from_coeffs(init)
                _, coeffs = _levenberg_marquardt(problem, theta0)
                if self_adjoint:
                    for l in range(d + 1):
                        coeffs[l] = 0.5 * (coeffs[l] + coeffs[l].conj().T)
                candidates.append(coeffs)

        best_worst = np.inf
        best_coeffs = None
        for coeffs in candidates:
            if self_adjoint and min_motion > 0.0:
                motion = np.sqrt(
                    sum((k * np.linalg.norm(coeffs[k])) ** 2 for k in range(1, d + 1))
                )
                if motion < min_motion:
                    continue
            x = MatrixPolynomial(coeffs, normalized=False)
            q = matpoly_compose_p(p_coeffs, x)
            big = float(sum(operator_norm(c) for c in coeffs))
            ok, worst = matpoly_is_zero(q, cfg, scale=max(1.0, roots.magnitude(big)))
            if worst < best_worst:
                best_worst = worst
                best_coeffs = coeffs if ok else None
        residual_by_degree[d] = float(best_worst)
        if best_coeffs is not None:
            path = PolynomialPath(
                x=MatrixPolynomial(best_coeffs, normalized=False),
                certificate=float(best_worst),
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
            raise ValueError("polynomial paths need the root system for verification")
        return _verify_polynomial(path, roots, cfg)
    if isinstance(path, PolygonalPath):
        rs = roots if roots is not None else path.breakpoints[0].roots
        return _verify_polygonal(path, rs, cfg)
    if isinstance(path, ExpSimilarityPath):
        rs = roots if roots is not None else path.base.roots
        return _verify_exponential(path, rs, cfg, expected_endpoint, samples)
    raise TypeError(f"not a path: {type(path)!r}")


def _verify_polynomial(path: PolynomialPath, roots, cfg) -> PathCertificate:
    big = float(sum(operator_norm(c) for c in path.x.coeffs))
    scale = max(1.0, roots.magnitude(big))  # checked before composing, which could overflow
    q = matpoly_compose_p(roots.poly_coeffs(), path.x)
    ok, worst = matpoly_is_zero(q, cfg, scale=scale)
    if not ok:
        norms = [operator_norm(c) for c in q.coeffs]
        bad = int(np.argmax(norms))
        raise CertificationFailed(
            f"coefficient {bad} of the composed polynomial has norm {worst:.3e}",
            coefficient=bad,
            value=worst,
        )
    herm = None
    if path.self_adjoint:
        herm = max(operator_norm(c - c.conj().T) for c in path.x.coeffs)
        if herm > cfg.residual_tol * (1.0 + big):
            raise CertificationFailed(f"coefficients are not Hermitian: {herm:.3e}", value=herm)
    for label, point in (("start", path.start), ("end", path.end)):
        try:
            certify(point, roots, cfg)
        except NotAlgebraic as exc:
            raise CertificationFailed(
                f"{label} point is not in the solution set: {exc}",
                sample_t=0.0 if label == "start" else 1.0,
                value=exc.residual,
            ) from exc
    return PathCertificate(
        kind="polynomial", worst_membership=worst, worst_hermiticity=herm
    )


def _verify_polygonal(path: PolygonalPath, roots, cfg) -> PathCertificate:
    p_coeffs = roots.poly_coeffs()
    certs = []
    for k, (u, v) in enumerate(zip(path.breakpoints[:-1], path.breakpoints[1:])):
        scale = _segment_scale(u.a, v.a, roots)  # checked before composing, which could overflow
        q = matpoly_compose_p(p_coeffs, MatrixPolynomial.segment(u.a, v.a))
        ok, worst = matpoly_is_zero(q, cfg, scale=scale)
        certs.append(worst)
        if not ok:
            norms = [operator_norm(c) for c in q.coeffs]
            raise CertificationFailed(
                f"segment {k} fails: coefficient norm {worst:.3e}",
                segment=k,
                coefficient=int(np.argmax(norms)),
                value=worst,
            )
    for k, bp in enumerate(path.breakpoints):
        try:
            certify(bp.a, roots, cfg)
        except NotAlgebraic as exc:
            raise CertificationFailed(
                f"breakpoint {k} is not in the solution set: {exc}", segment=k, value=exc.residual
            ) from exc
    return PathCertificate(
        kind="polygonal",
        worst_membership=max(certs) if certs else 0.0,
        segment_certificates=tuple(certs),
    )


def _verify_exponential(path: ExpSimilarityPath, roots, cfg, expected_endpoint, samples):
    worst_mem = 0.0
    worst_herm = 0.0 if path.self_adjoint_mode else None
    if path.self_adjoint_mode:
        for i, c in enumerate(path.generators):
            h = operator_norm(c - c.conj().T)
            if h > cfg.residual_tol * (1.0 + operator_norm(c)):
                raise CertificationFailed(
                    f"generator {i} is not Hermitian: {h:.3e}", coefficient=i, value=h
                )
            worst_herm = max(worst_herm, h)
    grid = np.linspace(0.0, 1.0, samples)
    step = max(1, _GRID_BLOCK_BYTES // (16 * path.base.dim**2))  # complex128 samples
    for lo in range(0, samples, step):
        ts = grid[lo : lo + step]
        x = path.values(ts)
        value, scale, norm_x = eval_defining_poly(x, roots)
        res = np.linalg.svd(value, compute_uv=False)[:, 0]
        bad_mem = ~(res <= cfg.residual_tol * scale)
        bad = bad_mem
        if path.self_adjoint_mode:
            herm = np.linalg.svd(x - x.conj().swapaxes(-1, -2), compute_uv=False)[:, 0]
            bad = bad_mem | ~(herm <= cfg.residual_tol * (1.0 + norm_x))
        if bad.any():
            i = int(np.argmax(bad))  # the first failing sample in t order
            t = float(ts[i])
            if bad_mem[i]:
                raise CertificationFailed(
                    f"membership fails at t = {t:.4f}: residual {res[i]:.3e}",
                    sample_t=t,
                    value=float(res[i]),
                )
            raise CertificationFailed(
                f"path leaves the self-adjoint set at t = {t:.4f}: {herm[i]:.3e}",
                sample_t=t,
                value=float(herm[i]),
            )
        worst_mem = max(worst_mem, float(res.max()))
        if path.self_adjoint_mode:
            worst_herm = max(worst_herm, float(herm.max()))
    endpoint_error = None
    if expected_endpoint is not None:
        end = x[-1] if samples > 1 else path.value(1.0)  # the grid ends at t = 1
        endpoint_error = operator_norm(end - expected_endpoint)
        tol = cfg.residual_tol * (1.0 + operator_norm(expected_endpoint))
        if endpoint_error > tol:
            raise CertificationFailed(
                f"endpoint error {endpoint_error:.3e} exceeds {tol:.3e}",
                sample_t=1.0,
                value=endpoint_error,
            )
    return PathCertificate(
        kind="exponential",
        worst_membership=worst_mem,
        endpoint_error=endpoint_error,
        worst_hermiticity=worst_herm,
        samples=samples,
    )
