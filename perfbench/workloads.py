"""Input generation and operation lists for the four benchmark workloads.

Every input comes from the benchmark's own numpy generator, seeded from
``(workload seed, workload id, op index)``; the program only ever sees the
generated matrices (as bare-matrix JSON files) or, for ``elements``, the
matrices themselves.  Elements are diagonal models conjugated by a similarity
with condition number 20 and Haar-random factors.

A workload is a sequence of *rounds*.  Each round holds the same mix of
operation kinds, sizes and methods with fresh inputs, so a run that stops on a
round boundary always measures the same mix, whatever the machine speed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

COND_BOUND = 20.0

R01 = (0.0, 1.0)
R012 = (0.0, 1.0, 2.0)
RC = (1.0, 1j, -1.0)
R4 = (0.0, 1.0, 2.5, -1.5)
RC4 = (1.0, 1j, -1.0, -1j)

WORKLOAD_IDS = {"scan": 1, "connect": 2, "mindeg": 3, "elements": 4}

# (roots, sig, sig2, self-adjoint): the shapes of acceptance criterion 9
SCAN_SHAPES = (
    (R01, (1, 2), (2, 1), True),
    (R01, (1, 2), (2, 1), False),
    (R012, (1, 1, 2), (0, 2, 2), False),
)
# Below the CLI default (1000): the work per restart is the same, and a round
# of the three shapes takes about 3 s instead of 15 s, so a run holds enough
# rounds for a steady upper quartile per slot.
SCAN_BUDGET = 200
CONNECT_SIZES = (2, 4, 8, 16)
CONNECT_ROOTS = (R01, R012, RC)
# (m, rank) of the positive projection pairs: every rank 0 < k < m
MINDEG_SHAPES = tuple((m, k) for m in range(2, 7) for k in range(1, m))
ELEMENT_SIZES = (2, 4, 8, 16)
# 20 slots per round: their median falls inside one size class (m = 8, three
# roots) rather than on the edge between two, which keeps latency_p50_s steady
ELEMENT_ROOTS = (R01, R012, RC, R4, RC4)

# Partners for the near-pair methods: g = 1 + z with ||z||_F scaled to this.
LOCAL_STEP = 0.05
POLYGONAL_STEP = 0.25


@dataclass
class Op:
    """One closed-loop operation: a CLI call (``argv``) or a library chain."""

    index: int
    kind: str
    m: int
    roots: tuple
    method: str | None = None
    argv: list[str] | None = None
    out: str | None = None
    data: dict = field(default_factory=dict)

    def label(self) -> dict:
        return {"op": self.index, "kind": self.kind, "m": self.m,
                "roots": roots_text(self.roots), "method": self.method}


def roots_text(roots) -> str:
    return ",".join(_fmt_root(r) for r in roots)


def _fmt_root(r) -> str:
    z = complex(r)
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return f"{z.imag!r}j"
    return f"{z.real!r}{z.imag:+}j"


def rng_for(seed: int, workload: str, *branch: int) -> np.random.Generator:
    entropy = (int(seed), WORKLOAD_IDS[workload]) + tuple(int(b) for b in branch)
    return np.random.default_rng(np.random.SeedSequence(entropy))


# -- matrices ------------------------------------------------------------------


def haar(m: int, rng) -> np.ndarray:
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def element(ranks, roots, rng, self_adjoint=False) -> np.ndarray:
    """``s diag(roots ** ranks) s^-1`` with ``cond(s) = COND_BOUND``.

    The singular values of ``s`` are evenly spaced on a log scale and only its
    Haar factors are random: the cost of the exponential constructors follows
    the conditioning, so fixing it keeps the cost per call steady across seeds.
    """
    diag = np.repeat(np.array(roots, dtype=complex), ranks)
    m = diag.size
    if self_adjoint:
        u = haar(m, rng)
        a = (u * diag) @ u.conj().T
        return 0.5 * (a + a.conj().T)
    half = 0.5 * math.log(COND_BOUND)
    s = (haar(m, rng) * np.exp(np.linspace(-half, half, m))) @ haar(m, rng)
    return np.linalg.solve(s.T, (s * diag).T).T


def near_partner(a: np.ndarray, step: float, rng) -> np.ndarray:
    """``g a g^-1`` for ``g = 1 + z`` close to the identity."""
    m = a.shape[0]
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    z *= step / (np.linalg.norm(z) * (1.0 + np.linalg.norm(a, 2)))
    g = np.eye(m) + z
    return np.linalg.solve(g.T, (g @ a).T).T


def random_ranks(rng, n: int, m: int) -> tuple[int, ...]:
    """Rank vector summing to ``m`` with at least two nonzero entries."""
    while True:
        cuts = sorted(rng.integers(0, m + 1, size=n - 1).tolist())
        ranks = tuple(int(r) for r in np.diff([0] + cuts + [m]))
        if sum(1 for r in ranks if r > 0) >= 2:
            return ranks


def projection_pair(m: int, k: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Rank-``k`` orthogonal projections in a Haar-random frame whose principal
    angles are evenly spaced in (0, pi/2).

    The degree search's cost grows with the largest principal angle, so the
    angles are fixed per shape and only the frame is random: the seed still
    changes every matrix, while the cost per call stays steady across seeds.
    """
    s = min(k, m - k)
    angles = [0.5 * math.pi * (j + 1) / (s + 1) for j in range(s)]
    p0 = np.diag([1.0] * k + [0.0] * (m - k)).astype(complex)
    rot = np.eye(m, dtype=complex)
    for j, theta in enumerate(angles):
        c, sn = math.cos(theta), math.sin(theta)
        rot[[j, j, k + j, k + j], [j, k + j, j, k + j]] = [c, -sn, sn, c]
    u = haar(m, rng)
    a = u @ p0 @ u.conj().T
    b = (u @ rot) @ p0 @ (u @ rot).conj().T
    return 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)


def matrix_json(a: np.ndarray) -> dict:
    return {"dim": int(a.shape[0]),
            "entries": [[float(z.real), float(z.imag)] for z in np.asarray(a).reshape(-1)]}


def write_matrix(path: Path, a: np.ndarray) -> None:
    path.write_text(json.dumps(matrix_json(a)), encoding="utf-8")


# -- rounds ----------------------------------------------------------------------


def scan_round(seed: int, first: int, workdir: Path) -> list[Op]:
    ops = []
    for j, (roots, sig, sig2, sa) in enumerate(SCAN_SHAPES):
        i = first + j
        argv = ["distance", "--roots", roots_text(roots), "--sig", ",".join(map(str, sig)),
                "--sig2", ",".join(map(str, sig2)), "--seed", str(_program_seed(seed, i)),
                "--budget", str(SCAN_BUDGET), "--threads", "1", "--out", f"out{i}.json"]
        if sa:
            argv.append("--self-adjoint")
        ops.append(Op(i, "distance", sum(sig), roots, "self-adjoint" if sa else "general",
                      argv=argv, out=f"out{i}.json",
                      data={"floor_checked": roots == R01, "restarts": SCAN_BUDGET}))
    return ops


def connect_round(seed: int, first: int, workdir: Path) -> list[Op]:
    ops = []
    i = first
    for m in CONNECT_SIZES:
        for roots in CONNECT_ROOTS:
            methods = ["exp-local", "exp-global", "polygonal"]
            if all(complex(z).imag == 0.0 for z in roots):
                methods.append("selfadjoint")
            for method in methods:
                rng = rng_for(seed, "connect", i)
                if method == "selfadjoint":
                    ranks = random_ranks(rng, len(roots), m)
                    a = element(ranks, roots, rng, self_adjoint=True)
                    b = element(ranks, roots, rng, self_adjoint=True)
                else:
                    ranks = random_ranks(rng, len(roots), m)
                    a = element(ranks, roots, rng)
                    if method == "exp-global":
                        b = element(ranks, roots, rng)
                    else:
                        step = LOCAL_STEP if method == "exp-local" else POLYGONAL_STEP
                        b = near_partner(a, step, rng)
                fa, fb = f"a{i}.json", f"b{i}.json"
                write_matrix(workdir / fa, a)
                write_matrix(workdir / fb, b)
                out = f"out{i}.json"
                argv = ["connect", "--a", fa, "--b", fb, "--roots", roots_text(roots),
                        "--method", method, "--seed", str(_program_seed(seed, i)), "--out", out]
                ops.append(Op(i, "connect", m, roots, method, argv=argv, out=out,
                              data={"a": a, "b": b}))
                vout = f"out{i + 1}.json"
                vargv = ["verify", "--path", out, "--roots", roots_text(roots), "--out", vout]
                ops.append(Op(i + 1, "verify", m, roots, method, argv=vargv, out=vout,
                              data={"connect_out": out}))
                i += 2
    return ops


def mindeg_round(seed: int, first: int, workdir: Path) -> list[Op]:
    ops = []
    i = first
    for m, k in MINDEG_SHAPES:
        a, b = projection_pair(m, k, rng_for(seed, "mindeg", i))
        ops.append(_mindeg_op(seed, i, workdir, a, b, positive=True))
        i += 1
    # a rank-one pair at principal angle pi/4, then the antipodal pair (pi/2)
    a, b = projection_pair(2, 1, rng_for(seed, "mindeg", i))
    ops.append(_mindeg_op(seed, i, workdir, a, b, positive=False))
    a, b = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    ops.append(_mindeg_op(seed, i + 1, workdir, a, b, positive=False, antipodal=True))
    return ops


def _mindeg_op(seed, i, workdir, a, b, positive, antipodal=False) -> Op:
    fa, fb, out = f"a{i}.json", f"b{i}.json", f"out{i}.json"
    write_matrix(workdir / fa, a)
    write_matrix(workdir / fb, b)
    argv = ["mindeg", "--a", fa, "--b", fb, "--roots", roots_text(R01),
            "--seed", str(_program_seed(seed, i)), "--budget", "8", "--out", out]
    if positive:
        argv += ["--dmax", "3"]
    else:
        argv += ["--self-adjoint", "--min-motion", "0.1", "--dmax", "4"]
    return Op(i, "mindeg", a.shape[0], R01, "positive" if positive else "negative",
              argv=argv, out=out, data={"a": a, "b": b, "antipodal": antipodal})


def elements_round(seed: int, first: int, workdir: Path) -> list[Op]:
    ops = []
    i = first
    for m in ELEMENT_SIZES:
        for roots in ELEMENT_ROOTS:
            rng = rng_for(seed, "elements", i)
            ranks = random_ranks(rng, len(roots), m)
            ops.append(Op(i, "element", m, roots, None,
                          data={"a": element(ranks, roots, rng), "ranks": ranks}))
            i += 1
    return ops


def _program_seed(seed: int, i: int) -> int:
    return int(seed) * 100_000 + i


ROUNDS = {
    "scan": scan_round,
    "connect": connect_round,
    "mindeg": mindeg_round,
    "elements": elements_round,
}


# -- library chain of the elements workload ----------------------------------------


def run_element(lib, op: Op):
    """certify -> spectral_resolution -> signature, is_isolated -> line_direction
    -> certify(a + 1e6 b), all through the module attributes so tracing sees them."""
    alg, comp = lib.algebraic, lib.components
    roots = alg.validate_roots(op.roots)
    el = alg.certify(op.data["a"], roots)
    part = alg.spectral_resolution(el)
    sig = comp.signature(el)
    isolated = comp.is_isolated(el)
    witness = comp.line_direction(el)
    far = alg.certify(el.a + 1e6 * witness.direction, roots)
    return {"element": el, "partition": part, "signature": sig, "isolated": isolated,
            "witness": witness, "far": far}


def element_report(result) -> str:
    """Canonical report text of one element chain, built without the program's
    serializers so that the ``serialize`` layer stays out of this workload."""
    w = result["witness"]
    report = {
        "ranks": list(result["signature"].ranks),
        "isolated": bool(result["isolated"]),
        "residual": float(result["element"].residual),
        "partition_worst_residual": float(result["partition"].worst_residual),
        "direction": matrix_json(w.direction),
        "certificate": float(w.certificate),
        "far_residual": float(result["far"].residual),
    }
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# -- warm-up: the smallest instance of each operation kind ----------------------------


def warmup_ops(workload: str, workdir: Path) -> list[Op]:
    """Fixed, seed-independent inputs; one call of each kind the workload runs."""
    rng = np.random.default_rng(np.random.SeedSequence((0, 99, WORKLOAD_IDS[workload])))
    if workload == "scan":
        argv = ["distance", "--roots", "0.0,1.0", "--sig", "1,1", "--sig2", "2,0", "--seed", "0",
                "--budget", "4", "--threads", "1", "--out", "warm0.json"]
        return [Op(-1, "distance", 2, R01, argv=argv, out="warm0.json")]
    if workload == "elements":
        return [Op(-1, "element", 2, R01, data={"a": element((1, 1), R01, rng)})]
    a = element((1, 1), R01, rng, self_adjoint=True)
    b = near_partner(a, LOCAL_STEP, rng)
    write_matrix(workdir / "warm_a.json", a)
    write_matrix(workdir / "warm_b.json", b)
    if workload == "connect":
        return [
            Op(-1, "connect", 2, R01, "exp-local", out="warm0.json",
               argv=["connect", "--a", "warm_a.json", "--b", "warm_b.json", "--roots", "0.0,1.0",
                     "--method", "exp-local", "--out", "warm0.json"]),
            Op(-2, "verify", 2, R01, "exp-local", out="warm1.json",
               argv=["verify", "--path", "warm0.json", "--roots", "0.0,1.0", "--out", "warm1.json"]),
        ]
    return [Op(-1, "mindeg", 2, R01, "positive", out="warm0.json",
               argv=["mindeg", "--a", "warm_a.json", "--b", "warm_b.json", "--roots", "0.0,1.0",
                     "--seed", "0", "--dmax", "3", "--budget", "2", "--out", "warm0.json"])]
