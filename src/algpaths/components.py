"""Connected-component classification and component-geometry probes.

In a full matrix algebra two certified elements over the same roots lie in the
same connected component of the solution set exactly when their spectral
idempotents have equal ranks: equal rank vectors make both similar to the same
diagonal model, and the invertible group is path-connected.  The rank vector
is therefore the component invariant used throughout.  On top of it sit the
isolation test (scalar elements are alone in their component), the search for
a complex line through a non-central element, and randomized distance scans
between distinct components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebraic import AlgebraicElement, RootSystem, certify, random_elements, spectral_resolution
from .errors import BadSignature, CentralElement, DimMismatch, RankAmbiguous, RootMismatch, SearchExhausted
from .matkernel import (
    MatrixPolynomial,
    ToleranceConfig,
    matpoly_compose_p,
    matpoly_is_zero,
    operator_norm,
)
from .seeding import rng_from

__all__ = [
    "ComponentSignature",
    "LineWitness",
    "DistanceScanReport",
    "partition_ranks",
    "signature",
    "same_component",
    "is_isolated",
    "line_direction",
    "distance_scan",
]


@dataclass(frozen=True)
class ComponentSignature:
    """Rank of each spectral idempotent, in root order."""

    ranks: tuple[int, ...]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        if any(r < 0 for r in self.ranks) or sum(self.ranks) != self.dim:
            raise BadSignature(f"ranks {self.ranks} do not sum to dim {self.dim}")


@dataclass(frozen=True, eq=False)
class LineWitness:
    """A direction ``b != 0`` with ``p(a0 + t b) = 0`` identically.

    ``certificate`` is the largest coefficient norm of the composed
    polynomial — zero up to rounding for a genuine witness.
    """

    base: AlgebraicElement
    direction: np.ndarray
    certificate: float


@dataclass(frozen=True, eq=False)
class DistanceScanReport:
    """Outcome of a randomized minimum-distance probe between two components.

    ``best_distance`` is the smallest operator-norm distance found; the
    report never claims a lower bound.  ``conjecture_bound`` stores the
    smallest root gap for comparison.
    """

    sig_pair: tuple[ComponentSignature, ComponentSignature]
    best_distance: float
    witness: tuple[AlgebraicElement, AlgebraicElement]
    restarts: int
    seed: int
    conjecture_bound: float
    self_adjoint: bool


def partition_ranks(part, cfg: ToleranceConfig = ToleranceConfig()) -> list[int]:
    """Ranks of partition members, with a conditioning guard.

    A nonzero idempotent has norm >= 1, so partition members live on the
    scale of 1; flooring the threshold scale there keeps numerically-zero
    members (pure round-off, norms ~1e-16) from being ranked by their own
    dust.  A singular value within a factor ten of the threshold means the
    rank decision is not trustworthy, and the ranks of a genuine partition
    must sum to the dimension.
    """
    m = part.dim
    ranks = []
    for i, e in enumerate(part.members):
        s = np.linalg.svd(e, compute_uv=False)
        thr = cfg.rank_rel_tol * max(s[0], 1.0) * m
        window = (s > thr / 10.0) & (s < thr * 10.0)
        if np.any(window):
            raise RankAmbiguous(
                f"singular value {s[window][0]:.3e} of idempotent {i} is within a factor 10 "
                f"of the rank threshold {thr:.3e}"
            )
        ranks.append(int(np.count_nonzero(s > thr)))
    if sum(ranks) != m:
        raise RankAmbiguous(f"idempotent ranks {ranks} do not sum to the dimension {m}")
    return ranks


def signature(el: AlgebraicElement, cfg: ToleranceConfig = ToleranceConfig()) -> ComponentSignature:
    """Rank vector of the spectral idempotents."""
    part = spectral_resolution(el, cfg)
    return ComponentSignature(ranks=tuple(partition_ranks(part, cfg)), dim=el.dim)


def same_component(
    x: AlgebraicElement, y: AlgebraicElement, cfg: ToleranceConfig = ToleranceConfig()
) -> bool:
    """Whether two certified elements share a connected component."""
    if x.dim != y.dim:
        raise DimMismatch(f"dims {x.dim} and {y.dim} differ")
    if x.roots != y.roots:
        raise RootMismatch("elements were certified over different root systems")
    return signature(x, cfg) == signature(y, cfg)


def is_isolated(el: AlgebraicElement, cfg: ToleranceConfig = ToleranceConfig()) -> bool:
    """Whether the component of ``el`` is the single point ``{el}``.

    Happens exactly when one idempotent has full rank, i.e. the element is a
    scalar — the only kind of matrix that commutes with everything.
    """
    return any(r == el.dim for r in signature(el, cfg).ranks)


def line_direction(el: AlgebraicElement, cfg: ToleranceConfig = ToleranceConfig()) -> LineWitness:
    """Direction of a complex line through ``el`` inside its component.

    Candidates ``e_i E_kl e_j`` (i != j) are scanned in lexicographic order;
    such a direction shifts one spectral subspace toward another and leaves
    the defining polynomial identically zero along the whole line.  The first
    candidate of non-negligible size that also certifies wins, which makes
    witnesses reproducible.
    """
    part = spectral_resolution(el, cfg)
    if any(r == el.dim for r in signature(el, cfg).ranks):
        raise CentralElement("scalar element: its component is a single point, no line exists")

    m = el.dim
    a = el.a
    norm_a = operator_norm(a)
    members = part.members
    norms = [operator_norm(e) for e in members]
    p_coeffs = el.roots.poly_coeffs()

    for i in range(len(members)):
        for j in range(len(members)):
            if i == j:
                continue
            for k in range(m):
                for l in range(m):
                    # b = e_i E_kl e_j without forming E_kl: outer product of
                    # column k of e_i with row l of e_j.
                    b = np.outer(members[i][:, k], members[j][l, :])
                    nb = operator_norm(b)
                    if nb <= cfg.residual_tol * norms[i] * norms[j]:
                        continue
                    line = MatrixPolynomial.line(a, b)
                    q = matpoly_compose_p(p_coeffs, line)
                    ok, worst = matpoly_is_zero(q, cfg, scale=el.roots.magnitude(norm_a + nb))
                    if ok:
                        return LineWitness(base=el, direction=b, certificate=worst)
    raise SearchExhausted("no candidate direction certified; partition invariants are suspect")


# -- distance scans ------------------------------------------------------------


# Perturbations pre-drawn for one block of restarts are capped at this many
# bytes, so scan memory depends on the dimension, never on the budget: 36
# restarts per block at m = 3, 20 at m = 4, a single one from m = 13 on.
_SCAN_BLOCK_BYTES = 1 << 20
_SCAN_ITERS = 200


def _scan_block_size(m: int) -> int:
    return max(1, _SCAN_BLOCK_BYTES // (_SCAN_ITERS * m * m * 16))


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


def _scan_block(ks, seed, sig1, sig2, roots, self_adjoint, cond_bound):
    """Restarts ``ks`` of a distance scan, advanced together in lockstep.

    Restart ``k`` samples its pair from the seeds ``(seed, k, 0)`` and
    ``(seed, k, 1)`` (one stacked :func:`random_elements` call per signature
    for the whole block) and its perturbations from the stream
    ``(seed, k, 2)``, then descends ``||x - y||`` greedily by conjugating one
    endpoint at a time (``x`` on even steps, ``y`` on odd ones).  Conjugation keeps each
    endpoint exactly on its component, so there is no projection step; a
    restart halves its step size whenever a move does not improve its
    distance and stops once the step collapses.  The stacked linear algebra
    works matrix by matrix, so restart ``k`` comes out bit-identical however
    the restarts are grouped into blocks.

    Returns the distances ``(B,)`` and the endpoints ``x`` and ``y``
    ``(B, m, m)``, row ``j`` belonging to restart ``ks[j]``.
    """
    m, n = sig1.dim, len(ks)

    def sample(sig, side):
        a, _, _ = random_elements(sig, roots, [(seed, k, side) for k in ks], self_adjoint, cond_bound)
        # the descent runs on C-ordered endpoints; the general sampler returns
        # each matrix transposed in memory
        return np.ascontiguousarray(a)

    x, y = sample(sig1, 0), sample(sig2, 1)
    z = np.empty((n, _SCAN_ITERS, m, m), dtype=complex)
    for j, k in enumerate(ks):
        draws = rng_from(seed, k, 2).standard_normal((_SCAN_ITERS, 2, m, m))
        z[j].real, z[j].imag = draws[:, 0], draws[:, 1]
    z /= _frobenius(z)[..., None, None]

    eye = np.eye(m, dtype=complex)
    dist = np.linalg.svd(x - y, compute_uv=False)[:, 0]
    delta = np.full(n, 0.25)
    for it in range(_SCAN_ITERS):
        live = np.flatnonzero(delta >= 1e-12)
        if live.size == 0:
            break
        step = delta[live, None, None]
        zs = z[live, it]
        if self_adjoint:
            h = 0.5 * (zs + zs.conj().swapaxes(-1, -2))
            # Cayley transform: exactly unitary for Hermitian h
            c = 0.5j * step * h
            g = np.linalg.solve(eye - c, eye + c)
        else:
            g = eye + step * zs
        xs, ys = x[live], y[live]
        moved = g @ (xs if it % 2 == 0 else ys)
        if self_adjoint:
            moved = moved @ g.conj().swapaxes(-1, -2)
            moved = 0.5 * (moved + moved.conj().swapaxes(-1, -2))
        else:
            moved = np.linalg.solve(g.swapaxes(-1, -2), moved.swapaxes(-1, -2)).swapaxes(-1, -2)
        diff = moved - ys if it % 2 == 0 else xs - moved
        cand = np.linalg.svd(diff, compute_uv=False)[:, 0]
        # require a genuine decrease; round-off level "improvements" would
        # let exactly-placed pairs (scalars) drift off their true distance
        now = dist[live]
        better = cand < now - 1e-13 * (1.0 + now)
        dist[live[better]] = cand[better]
        (x if it % 2 == 0 else y)[live[better]] = moved[better]
        delta[live[~better]] *= 0.5
    return dist, x, y


def distance_scan(
    sig1: ComponentSignature,
    sig2: ComponentSignature,
    roots: RootSystem,
    budget: int,
    seed: int,
    self_adjoint: bool = False,
    cfg: ToleranceConfig = ToleranceConfig(),
    cond_bound: float = 20.0,
    workers: int = 1,
) -> DistanceScanReport:
    """Randomized probe of the distance between two components.

    Runs ``budget`` independent restarts, each sampling a pair and descending
    locally, and reports the smallest distance found together with the
    witnessing pair (the lowest restart index among equal distances).
    Restart ``k`` draws from the sub-stream ``(seed, k)``, so reports are
    reproducible and enlarging the budget only extends the restart list.

    Restarts run in lockstep blocks whose pre-drawn perturbations take about
    ``_SCAN_BLOCK_BYTES``, so memory is bounded by the dimension whatever the
    budget.  A block samples its pairs on stacked arrays, one
    :func:`random_elements` call per signature, and every sampled element is
    certified.  ``workers > 1`` maps the same blocks over that many processes;
    every restart comes out bit-identical, so the report does not change.
    """
    if sig1 == sig2:
        raise BadSignature("distance scan needs two distinct signatures")
    if sig1.dim != sig2.dim:
        raise BadSignature("signatures live in different dimensions")
    for s in (sig1, sig2):
        if len(s.ranks) != roots.n:
            raise BadSignature(f"signature {s.ranks} does not fit {roots.n} roots")
    if budget < 1:
        raise BadSignature("budget must be positive")
    if workers < 1:
        raise BadSignature("workers must be positive")

    size = _scan_block_size(sig1.dim)
    blocks = [range(s, min(s + size, budget)) for s in range(0, budget, size)]
    task = partial(_scan_block, seed=seed, sig1=sig1, sig2=sig2, roots=roots,
                   self_adjoint=self_adjoint, cond_bound=cond_bound)

    def best(results):
        rows = (row for ks, (d, x, y) in zip(blocks, results) for row in zip(d, ks, x, y))
        return min(rows, key=lambda row: (row[0], row[1]))

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            dist, _, xa, ya = best(pool.map(task, blocks))
    else:
        dist, _, xa, ya = best(map(task, blocks))
    wx = certify(xa, roots, cfg)
    wy = certify(ya, roots, cfg)
    return DistanceScanReport(
        sig_pair=(sig1, sig2),
        best_distance=float(dist),
        witness=(wx, wy),
        restarts=budget,
        seed=seed,
        conjecture_bound=roots.min_gap,
        self_adjoint=self_adjoint,
    )
