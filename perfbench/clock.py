"""Host clock probe: a fixed piece of reference work, timed next to every operation.

A small shared host changes speed by up to 1.8x for stretches of seconds to
minutes, as its neighbours' load moves the processor clock, and a whole run
can fall into a fast or a slow stretch.  Raw timings of two runs of the same
code then differ by more than any useful regression bound.  So each timing is
divided by the time of this probe measured next to it and multiplied by
``REFERENCE_S``: it reads in seconds at the clock where the probe takes
``REFERENCE_S``.

The probe does what the program spends its time on (numpy calls on small
complex matrices: random draws, products, solves, singular values, and the
interpreter work between them) and never calls the program: a change to the
program moves the converted timings one for one, while a change of the
host's clock moves the program and the probe together.  The raw timings stay
in the info line of every run.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time on the 2-core host where the baseline in README.md was measured,
# in its slower, steady state (the fast state takes about 2.2 ms); any fixed
# value would do, since two commits are compared on the same host.
REFERENCE_S = 0.0040
STEPS = 60


class ClockProbe:
    """Fixed inputs, fixed work; ``time()`` runs it once and returns seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(20160107))
        self._mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                      for _ in range(8)]
        self._eye = np.eye(3, dtype=complex)

    def _work(self) -> float:
        rng = np.random.default_rng(11)  # the same draws on every run
        acc = 0.0
        for i in range(STEPS):
            a = self._mats[i % 8]
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            z /= np.linalg.norm(z)
            b = a @ (self._eye + 0.1 * z)
            c = np.linalg.solve(b.T, a.conj().T).T
            d = 0.5 * (c + c.conj().T)
            v = float(np.linalg.svd(d - a, compute_uv=False)[0])
            acc = acc - v if v < acc else acc + 0.5 * v
        return acc

    def time(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def factor(self, probe_s: float) -> float:
        """Multiplier that turns a timing taken at ``probe_s`` into reference seconds."""
        return REFERENCE_S / probe_s
