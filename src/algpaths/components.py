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
    _frobenius,
    matpoly_compose_p,
    matpoly_is_zero,
    operator_norm,
)
from .seeding import rngs_from

__all__ = [
    "ComponentSignature",
    "LineWitness",
    "DistanceScanReport",
    "partition_ranks",
    "resolve",
    "resolve_pair",
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

    @property
    def scalar(self) -> bool:
        """Whether one idempotent has full rank, i.e. the element is a scalar."""
        return any(r == self.dim for r in self.ranks)


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
    """Ranks of partition members from one stacked SVD, with a conditioning guard.

    A nonzero idempotent has norm >= 1, so partition members live on the
    scale of 1; flooring the threshold scale there keeps numerically-zero
    members (pure round-off, norms ~1e-16) from being ranked by their own
    dust.  A singular value within a factor ten of the threshold means the
    rank decision is not trustworthy, and the ranks of a genuine partition
    must sum to the dimension.
    """
    m = part.dim
    s = np.linalg.svd(np.stack(part.members), compute_uv=False)  # (n, m), one row per member
    thr = (cfg.rank_rel_tol * np.maximum(s[:, 0], 1.0) * m)[:, None]
    window = (s > thr / 10.0) & (s < thr * 10.0)
    if window.any():
        i = int(np.argmax(window.any(axis=1)))
        raise RankAmbiguous(
            f"singular value {s[i][window[i]][0]:.3e} of idempotent {i} is within a factor 10 "
            f"of the rank threshold {thr[i, 0]:.3e}"
        )
    ranks = np.count_nonzero(s > thr, axis=1).tolist()
    if sum(ranks) != m:
        raise RankAmbiguous(f"idempotent ranks {ranks} do not sum to the dimension {m}")
    return ranks


def resolve(el: AlgebraicElement, cfg: ToleranceConfig = ToleranceConfig()):
    """The spectral resolution of ``el`` and the signature ranked from it."""
    part = spectral_resolution(el, cfg)
    return part, ComponentSignature(ranks=tuple(partition_ranks(part, cfg)), dim=el.dim)


def signature(el: AlgebraicElement, cfg: ToleranceConfig = ToleranceConfig()) -> ComponentSignature:
    """Rank vector of the spectral idempotents."""
    return resolve(el, cfg)[1]


def resolve_pair(x: AlgebraicElement, y: AlgebraicElement, cfg: ToleranceConfig = ToleranceConfig()):
    """Checked pair's partitions and ranks ``(ex, fy, ranks_x, ranks_y)``, x first, each once."""
    if x.dim != y.dim:
        raise DimMismatch(f"dims {x.dim} and {y.dim} differ")
    if x.roots != y.roots:
        raise RootMismatch("elements were certified over different root systems")
    ex, sx = resolve(x, cfg)
    fy, sy = resolve(y, cfg)
    return ex, fy, sx.ranks, sy.ranks


def same_component(
    x: AlgebraicElement, y: AlgebraicElement, cfg: ToleranceConfig = ToleranceConfig()
) -> bool:
    """Whether two certified elements share a connected component."""
    _, _, rx, ry = resolve_pair(x, y, cfg)
    return rx == ry


def is_isolated(el: AlgebraicElement, cfg: ToleranceConfig = ToleranceConfig()) -> bool:
    """Whether the component of ``el`` is the single point ``{el}``.

    Happens exactly when one idempotent has full rank, i.e. the element is a
    scalar — the only kind of matrix that commutes with everything.
    """
    return signature(el, cfg).scalar


def line_direction(el: AlgebraicElement, cfg: ToleranceConfig = ToleranceConfig()) -> LineWitness:
    """Direction of a complex line through ``el`` inside its component.

    Candidates ``e_i E_kl e_j`` (i != j) are scanned in lexicographic order;
    such a direction shifts one spectral subspace toward another and leaves
    the defining polynomial identically zero along the whole line.  The first
    candidate of non-negligible size that also certifies wins, which makes
    witnesses reproducible.
    """
    part, sig = resolve(el, cfg)
    if sig.scalar:
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


# A block's restarts draw their perturbations _SCAN_CHUNK steps at a time into
# one buffer capped at this many bytes, so scan memory depends on the
# dimension, never on the budget: 291 restarts per block at m = 3, 163 at
# m = 4, 10 at m = 16, a single one from m = 37 on (whose chunk alone outgrows
# the cap from m = 52 on).
_SCAN_BLOCK_BYTES = 1 << 20
_SCAN_ITERS = 200
_SCAN_CHUNK = 25


def _scan_block_size(m: int) -> int:
    return max(1, _SCAN_BLOCK_BYTES // (_SCAN_CHUNK * m * m * 16))


def _distance_floor(sig1, sig2, roots: RootSystem, self_adjoint: bool) -> float:
    """A proven lower bound on ``||x - y||`` between the components ``sig1`` and ``sig2``.

    Self-adjoint: Weyl's ``max_k |l_k(x) - l_k(y)|`` over the two sorted real
    spectra (the roots repeated by the ranks), which the sorted diagonal models
    attain, so it is the exact distance.  General, two roots: ``x - y =
    (l_1 - l_2)(p - q)`` with ``rank p != rank q``, and ``p - q`` moves a unit
    vector of ``range p`` in ``ker q`` (or the reverse) by exactly 1, so the
    root gap.  Zero otherwise.
    """
    if self_adjoint:
        lam, mu = (np.sort(np.repeat(np.real(roots.roots), s.ranks)) for s in (sig1, sig2))
        return float(np.max(np.abs(lam - mu)))
    if roots.n == 2:
        return abs(roots.roots[0] - roots.roots[1])
    return 0.0


def _reach_floor(rows, dist, delta, x, y, left: int) -> tuple[np.ndarray, np.ndarray]:
    """A proven lower bound on every distance restarts ``rows`` can reach in ``left`` more steps.

    A later move conjugates an endpoint e by some g with ||g - 1|| <= delta
    (1 + delta z with ||z||_F = 1, or the Cayley transform of an h with
    ||h|| <= 1), and delta never grows.  For every scalar c the move shifts e
    by at most q ||e - c|| and multiplies ||e - c|| by at most 1 + q, where
    q = 2 delta / (1 - delta).  With c = tr e / m and s the larger
    ||e - c||_F of the two endpoints, no distance within ``left`` steps lies
    below ``dist - left q (1 + q)^left (s + margin) - margin``.  ``margin``
    covers round-off, which scales with the unshifted endpoints,
    ||e||_F <= ||e - c||_F + sqrt(m) |c|.  A conjugation (products and a solve
    by a matrix of condition at most 5/3) errs by about 64 m eps ||e||_F, and
    no endpoint grows past 4 (||x||_F + ||y||_F) while the bound is positive,
    so 200 steps and the SVDs err by under 4e-10 (||x||_F + ||y||_F) at
    m = 32, a 25th of the margin.  Round-off that enters ||e - c|| grows like
    s, hence s + margin.  Returns the rows it bounds and their bounds: rows
    where (1 + q)^left would pass e^50 get none, which also keeps the power
    from overflowing.
    """
    m = x.shape[-1]
    q = 2.0 * delta[rows] / (1.0 - delta[rows])
    power = left * np.log1p(q)
    near = power <= 50.0
    if not near.any():
        return rows[:0], power[:0]
    rows = rows[near]
    e = np.stack((x[rows], y[rows]))  # (2, n, m, m)
    c = np.trace(e, axis1=-2, axis2=-1) / m
    diag = np.arange(m)
    e[..., diag, diag] -= c[..., None]
    centred = np.linalg.norm(e, axis=(-2, -1))
    margin = 1e-8 * (1.0 + (centred + np.sqrt(m) * np.abs(c)).sum(axis=0))
    s = centred.max(axis=0) + margin
    return rows, dist[rows] - left * q[near] * np.exp(power[near]) * s - margin


def _scan_block(ks, seed, sig1, sig2, roots, self_adjoint, cond_bound, cfg):
    """Restarts ``ks`` of a distance scan, advanced together in lockstep.

    Restart ``k`` samples its pair from the seeds ``(seed, k, 0)`` and
    ``(seed, k, 1)`` (one stacked :func:`random_elements` call per signature
    for the whole block, certified under ``cfg``) and its perturbations from the stream
    ``(seed, k, 2)`` (one :func:`rngs_from` batch for the restarts that do not
    stop at entry), then descends ``||x - y||`` greedily by conjugating one
    endpoint at a time (``x`` on even steps, ``y`` on odd ones).  Conjugation keeps each
    endpoint exactly on its component, so there is no projection step; a
    restart halves its step size whenever a move does not improve its
    distance and stops once the step collapses, at entry when it starts on
    the proven floor :func:`_distance_floor`, or as soon as a proven lower
    bound on every distance its remaining steps can reach
    (:func:`_reach_floor`) lies above the block's best distance so far.
    Perturbations are drawn ``_SCAN_CHUNK`` steps at a time, by the restarts
    still live, into one ``(B, _SCAN_CHUNK, m, m)`` buffer; the generator's
    stream does not depend on how its draws are chunked.  The stacked linear algebra works matrix by
    matrix, so every row is bit for bit a state of its restart's own descent,
    and the block's ``(distance, index)`` minimum, which is never pruned, is
    the same however the restarts are grouped into blocks.  A pruned
    restart's row is where it stopped, not where the unpruned descent ends.

    Returns the distances ``(B,)`` and the endpoints ``x`` and ``y``
    ``(B, m, m)``, row ``j`` belonging to restart ``ks[j]``.
    """
    m, n = sig1.dim, len(ks)

    def sample(sig, side):
        a, _, _ = random_elements(sig, roots, [(seed, k, side) for k in ks], self_adjoint, cond_bound, cfg)
        # the descent runs on C-ordered endpoints; the general sampler returns
        # each matrix transposed in memory
        return np.ascontiguousarray(a)

    x, y = sample(sig1, 0), sample(sig2, 1)
    z = np.ones((n, _SCAN_CHUNK, m, m), dtype=complex)  # finite in rows never drawn into

    eye = np.eye(m, dtype=complex)
    dist = np.linalg.svd(x - y, compute_uv=False)[:, 0]
    # a restart that starts on the proven floor could only accept a candidate
    # below it, i.e. round-off, which the genuine-decrease rule below refuses,
    # so it stops before its first step and builds no generator
    floor = _distance_floor(sig1, sig2, roots, self_adjoint)
    delta = np.where(dist - 1e-13 * (1.0 + dist) <= floor, 0.0, 0.25)
    live = np.flatnonzero(delta)
    rngs = dict(zip(live, rngs_from([(seed, ks[j], 2) for j in live]))) if live.size else {}
    for it in range(_SCAN_ITERS):
        live = np.flatnonzero(delta >= 1e-12)
        if live.size == 0:
            break
        c = it % _SCAN_CHUNK
        if c == 0:
            # a frozen restart never moves again, so only live ones draw; rows
            # of frozen ones keep stale (finite) values that are never read
            w = min(_SCAN_CHUNK, _SCAN_ITERS - it)
            for j in live:
                draws = rngs[j].standard_normal((w, 2, m, m))
                z[j, :w].real, z[j, :w].imag = draws[:, 0], draws[:, 1]
            z[:, :w] /= _frobenius(z[:, :w])[..., None, None]
        step = delta[live, None, None]
        zs = z[live, c]
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
        # a restart whose bound lies above the block's current minimum, never
        # below its final one, cannot be the scan's (distance, index) minimum
        rows, reach = _reach_floor(live, dist, delta, x, y, _SCAN_ITERS - it - 1)
        if rows.size:
            delta[rows[reach > dist.min()]] = 0.0
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

    Restarts run in lockstep blocks whose perturbation buffer, refilled every
    ``_SCAN_CHUNK`` steps, takes at most ``_SCAN_BLOCK_BYTES``, so memory is
    bounded by the dimension whatever the budget.  A block samples its pairs
    on stacked arrays, one :func:`random_elements` call per signature, and
    every sampled element is certified.  ``workers > 1`` splits the restarts
    into at least that many blocks and maps them over that many processes.
    A block stops a restart once it provably cannot reach the block's best
    distance; the best restart comes out bit-identical, so the report does
    not change.
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

    # with a pool, at least one block per worker
    size = min(_scan_block_size(sig1.dim), -(-budget // workers))
    blocks = [range(s, min(s + size, budget)) for s in range(0, budget, size)]
    task = partial(_scan_block, seed=seed, sig1=sig1, sig2=sig2, roots=roots,
                   self_adjoint=self_adjoint, cond_bound=cond_bound, cfg=cfg)

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
