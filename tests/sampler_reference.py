"""The per-seed element sampler the stacked one replaced, kept as the reference
it must reproduce bit for bit: one generator, one matrix, one certificate at a
time."""

import numpy as np

from algpaths.algebraic import certify
from algpaths.seeding import rng_from


def haar_unitary(m, rng):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def conditioned_invertible(m, cond_bound, rng):
    u = haar_unitary(m, rng)
    v = haar_unitary(m, rng)
    half = 0.5 * np.log(cond_bound)
    s = np.exp(rng.uniform(-half, half, size=m))
    return (u * s) @ v


def random_element(ranks, roots, seed, self_adjoint=False, cond_bound=20.0):
    m = sum(ranks)
    present = [i for i, r in enumerate(ranks) if r > 0]
    if len(present) == 1:
        return certify(roots.roots[present[0]] * np.eye(m, dtype=complex), roots)
    diag = np.repeat(np.array(roots.roots, dtype=complex), ranks)
    rng = rng_from(seed)
    if self_adjoint:
        u = haar_unitary(m, rng)
        a = (u * diag) @ u.conj().T
        a = 0.5 * (a + a.conj().T)
    else:
        s = conditioned_invertible(m, cond_bound, rng)
        a = np.linalg.solve(s.T, (s * diag).T).T
    return certify(a, roots)
