"""The one-matrix-at-a-time resolution certificate the stacked one replaced, kept
as the reference it must reproduce bit for bit (one SVD per partition
invariant), and the SVD rank rule the trace certificate replaced: on normal
inputs the certified trace ranks must equal its ranks at its threshold of
``1e-10 * max(sigma_1, 1) * m``."""

import numpy as np

from algpaths.algebraic import PartitionOfUnity, _resolution_tolerance
from algpaths.errors import RankAmbiguous, ResolutionResidualExceeded
from algpaths.matkernel import ToleranceConfig, identity_like, operator_norm


def spectral_resolution(el, cfg=ToleranceConfig()):
    a = el.a
    eye = identity_like(a)
    norm_a = operator_norm(a)
    n = el.roots.n

    members = []
    for i, li in enumerate(el.roots.roots):
        others = sorted((r for j, r in enumerate(el.roots.roots) if j != i), key=lambda r: abs(li - r))
        e = eye
        for r in others:
            e = e @ (a - r * eye) / (li - r)
        members.append(e)

    tol = _resolution_tolerance(norm_a, el.roots, cfg)
    worst = 0.0

    def bump(value, label):
        nonlocal worst
        worst = max(worst, value)
        if value > tol:
            raise ResolutionResidualExceeded(
                f"{label} residual {value:.3e} exceeds {tol:.3e} (min_gap {el.roots.min_gap:.3e})"
            )

    total = np.zeros_like(a)
    recon = np.zeros_like(a)
    for i, e in enumerate(members):
        bump(operator_norm(e @ e - e), f"idempotency[{i}]")
        bump(operator_norm(e @ a - a @ e), f"commutation[{i}]")
        total = total + e
        recon = recon + el.roots.roots[i] * e
    for i in range(n):
        for j in range(n):
            if i != j:
                bump(operator_norm(members[i] @ members[j]), f"annihilation[{i},{j}]")
    bump(operator_norm(total - eye), "sum-to-one")
    bump(operator_norm(recon - a), "reconstruction")
    if el.self_adjoint:
        for i, e in enumerate(members):
            bump(operator_norm(e - e.conj().T), f"hermiticity[{i}]")
    return PartitionOfUnity(members=tuple(members), roots=el.roots, self_adjoint=el.self_adjoint,
                            worst_residual=worst)


def partition_ranks(part):
    m = part.dim
    ranks = []
    for i, e in enumerate(part.members):
        s = np.linalg.svd(e, compute_uv=False)
        thr = 1e-10 * max(s[0], 1.0) * m
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
