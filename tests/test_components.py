"""Component signatures, isolation, line witnesses, distance scans."""

from functools import partial

import numpy as np
import pytest

import resolution_reference
import sampler_reference as reference
from algpaths import algebraic, components
from algpaths.algebraic import (
    AlgebraicElement,
    PartitionOfUnity,
    certify,
    random_element,
    random_elements,
    spectral_resolution,
    validate_roots,
)
from algpaths.components import (
    ComponentSignature,
    _distance_floor,
    _frobenius,
    _scan_block,
    _scan_block_size,
    distance_scan,
    is_isolated,
    line_direction,
    partition_ranks,
    resolve,
    same_component,
    signature,
)
from algpaths.errors import (
    BadSignature,
    CentralElement,
    DimMismatch,
    NotAlgebraic,
    RankAmbiguous,
    ResolutionResidualExceeded,
    RootMismatch,
    SearchExhausted,
)
from algpaths.matkernel import ToleranceConfig, operator_norm
from algpaths.seeding import rng_from, rngs_from
from algpaths.serialize import scan_report_to_json

R01 = validate_roots([0, 1])
UPPER = np.array([[0, 1], [0, 1]], dtype=complex)


def test_signature_diagonal():
    el = certify(np.diag([0.0, 1.0, 1.0]), R01)
    assert signature(el).ranks == (1, 2)


def test_signature_scalar():
    roots = validate_roots([4.0, 7.0])
    el = certify(7.0 * np.eye(3), roots)
    assert signature(el).ranks == (0, 3)


def test_signature_non_hermitian_idempotent():
    # ranks of 1 - a and a: both 1 by hand
    el = certify(UPPER, R01)
    assert signature(el).ranks == (1, 1)


def test_component_signature_validates():
    with pytest.raises(BadSignature):
        ComponentSignature((1, 1), 3)


def test_same_component_equal_signatures():
    x = certify(np.diag([1.0, 0.0]), R01)
    y = certify(UPPER, R01)
    assert same_component(x, y)


def test_same_component_rank_differs():
    x = certify(np.diag([1.0, 0.0]), R01)
    y = certify(np.diag([1.0, 1.0]), R01)
    assert not same_component(x, y)


def test_same_component_scalars():
    roots = validate_roots([2.0, 3.0])
    x = certify(2.0 * np.eye(2), roots)
    y = certify(2.0 * np.eye(2), roots)
    assert same_component(x, y)


def test_same_component_preconditions():
    x = certify(np.diag([1.0, 0.0]), R01)
    y = certify(np.diag([1.0, 0.0, 0.0]), R01)
    with pytest.raises(DimMismatch):
        same_component(x, y)
    z = certify(np.diag([2.0, 0.0]), validate_roots([0, 2]))
    with pytest.raises(RootMismatch):
        same_component(x, z)


def test_same_component_is_equivalence_relation():
    roots = validate_roots([0, 1, 2])
    els = [
        random_element(sig, roots, seed=s)
        for s, sig in enumerate([(1, 1, 1), (1, 1, 1), (0, 2, 1), (0, 2, 1), (1, 2, 0)])
    ]
    for x in els:
        assert same_component(x, x)
    for x in els:
        for y in els:
            assert same_component(x, y) == same_component(y, x)
            for z in els:
                if same_component(x, y) and same_component(y, z):
                    assert same_component(x, z)


# -- stacked resolution certificate and ranking -------------------------------------


_RESOLUTION_CASES = [
    ((0, 1), False), ((0, 1), True), ((0, 1, 2), False), ((0, 1, 2), True), ((1, 1j, -1), False),
    ((0, 1, 2.5, -1.5), False), ((0, 1, 2.5, -1.5), True), ((1, 1j, -1, -1j), False), ((3.0,), True),
]


def _sampled_ranks(rng, n, m):
    cuts = sorted(rng.integers(0, m + 1, size=n - 1).tolist())
    return tuple(int(r) for r in np.diff([0] + cuts + [m]))


@pytest.mark.parametrize("roots, self_adjoint", _RESOLUTION_CASES)
def test_resolve_is_bit_identical_to_the_loop_reference(roots, self_adjoint):
    roots = validate_roots(roots)
    for m in (2, 3, 5, 8, 16):
        for k in range(3):
            ranks = _sampled_ranks(rng_from(m, k, 17), roots.n, m)
            el = random_element(ranks, roots, seed=(m, k, 18), self_adjoint=self_adjoint)
            part, sig = resolve(el)
            want = resolution_reference.spectral_resolution(el)
            assert part.self_adjoint == want.self_adjoint == el.self_adjoint
            assert part.worst_residual == want.worst_residual
            assert [e.tobytes() for e in part.members] == [e.tobytes() for e in want.members]
            assert list(sig.ranks) == resolution_reference.partition_ranks(want)


def _perturbed(roots, self_adjoint):
    # p(a) != 0 breaks idempotency[0] first: the members stay polynomials in a
    roots = validate_roots(roots)
    rng = rng_from(roots.n, int(self_adjoint), 19)
    el = random_element(_sampled_ranks(rng, roots.n, 4), roots, seed=(roots.n, 20), self_adjoint=self_adjoint)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return AlgebraicElement(a=el.a + 1e-4 * z, roots=roots, residual=0.0, self_adjoint=self_adjoint)


def _oblique_flagged_self_adjoint():
    # an oblique idempotent resolved as if it were self-adjoint: only hermiticity fails
    return AlgebraicElement(a=UPPER, roots=R01, residual=0.0, self_adjoint=True)


@pytest.mark.parametrize("build, message", [
    (partial(_perturbed, (0, 1), False), r"idempotency\[0\] residual 3\.783e-04 exceeds 1\.001e-09"),
    (partial(_perturbed, (0, 1, 2.5, -1.5), True), r"idempotency\[0\] residual 2\.393e-04 exceeds"),
    (partial(_perturbed, (1, 1j, -1, -1j), False), r"idempotency\[0\] residual 2\.846e-04 exceeds"),
    (_oblique_flagged_self_adjoint, r"hermiticity\[0\] residual 1\.000e\+00 exceeds 5\.828e-09"),
])
def test_resolution_failures_match_the_loop_reference(build, message):
    el = build()
    with pytest.raises(ResolutionResidualExceeded, match="^" + message) as want:
        resolution_reference.spectral_resolution(el)
    with pytest.raises(ResolutionResidualExceeded) as got:
        spectral_resolution(el)
    assert str(got.value) == str(want.value)


def _partition(*diagonals):
    members = tuple(np.diag(d).astype(complex) for d in diagonals)
    return PartitionOfUnity(members=members, roots=R01, self_adjoint=False, worst_residual=0.0)


@pytest.mark.parametrize("rank", [partition_ranks, resolution_reference.partition_ranks])
def test_partition_ranks_refuses_a_singular_value_near_the_threshold(rank):
    # threshold 1e-10 * 1 * 2 = 2e-10, and 1e-10 lies in its window (2e-11, 2e-9)
    part = _partition([1.0, 0.0], [1e-10, 1.0])
    with pytest.raises(RankAmbiguous, match=r"^singular value 1\.000e-10 of idempotent 1 is within "
                                            r"a factor 10 of the rank threshold 2\.000e-10$"):
        rank(part)


@pytest.mark.parametrize("rank", [partition_ranks, resolution_reference.partition_ranks])
def test_partition_ranks_must_sum_to_the_dimension(rank):
    with pytest.raises(RankAmbiguous, match=r"^idempotent ranks \[2, 1\] do not sum to the dimension 2$"):
        rank(_partition([1.0, 1.0], [0.0, 1.0]))


def _commutes_with_all_matrix_units(a, tol):
    m = a.shape[0]
    for k in range(m):
        for l in range(m):
            e = np.zeros((m, m), dtype=complex)
            e[k, l] = 1.0
            if operator_norm(a @ e - e @ a) > tol:
                return False
    return True


def test_isolation_of_scalars():
    roots = validate_roots([0.0, 1.5, -2.0])
    el = certify(1.5 * np.eye(3), roots)
    assert is_isolated(el)


def test_non_isolation_of_projections():
    el = certify(np.diag([0.0, 1.0]), R01)
    assert not is_isolated(el)


def test_isolation_signature_centrality_agreement():
    # three characterizations must agree: a full rank in the signature,
    # commutation with every matrix unit, and the scalar form itself
    roots = validate_roots([0, 1, 2])
    cases = [(4, 0, 0), (0, 4, 0), (1, 3, 0), (2, 1, 1)]
    for s, ranks in enumerate(cases):
        el = random_element(ranks, roots, seed=(100, s))
        tol = 1e-9 * (1.0 + operator_norm(el.a))
        by_signature = any(r == el.dim for r in signature(el).ranks)
        by_centrality = _commutes_with_all_matrix_units(el.a, tol)
        assert is_isolated(el) == by_signature == by_centrality


def test_line_direction_frozen_witness():
    # a0 = diag(0,1): the first nonzero candidate is E_12, and
    # (a0 + t E12)^2 = a0 + t E12 identically (hand expansion)
    el = certify(np.diag([0.0, 1.0]), R01)
    w = line_direction(el)
    np.testing.assert_allclose(w.direction, np.array([[0, 1], [0, 0]]), atol=0)
    assert w.certificate <= 1e-15


def test_line_direction_rejects_scalars():
    roots = validate_roots([2.0, 3.0])
    el = certify(2.0 * np.eye(2), roots)
    with pytest.raises(CentralElement):
        line_direction(el)


def test_line_direction_random_elements_certify_and_are_unbounded():
    roots = validate_roots([0, 1, 2])
    for s in range(10):
        rng = rng_from(s, 6)
        m = int(rng.integers(3, 5))
        ranks = (1, m - 2, 1)
        el = random_element(ranks, roots, seed=(s, 7))
        w = line_direction(el)
        assert w.certificate <= 1e-9
        nb = operator_norm(w.direction)
        na = operator_norm(el.a)
        assert nb > 0
        for lam in (1e3, 1e6):
            certify(el.a + lam * w.direction, roots)  # membership far out
            assert operator_norm(el.a + lam * w.direction) >= lam * nb - na


def test_line_direction_raises_when_no_candidate_certifies(monkeypatch):
    monkeypatch.setattr(components, "matpoly_is_zero", lambda q, cfg, scale: (False, 1.0))
    with pytest.raises(SearchExhausted, match="no candidate direction certified"):
        line_direction(certify(np.diag([0.0, 1.0]), R01))


def test_spectral_floor_from_scalars():
    roots = validate_roots([0, 1, 2])
    for s in range(8):
        el = random_element((1, 2, 1), roots, seed=(s, 8))
        ranks = signature(el).ranks
        for i, li in enumerate(roots.roots):
            floor = min(
                abs(lj - li) for j, lj in enumerate(roots.roots) if j != i and ranks[j] > 0
            )
            assert operator_norm(el.a - li * np.eye(el.dim)) >= floor - 1e-9


# -- distance scans ------------------------------------------------------------


def _sigs(ranks1, ranks2):
    m = sum(ranks1)
    return ComponentSignature(ranks1, m), ComponentSignature(ranks2, m)


def _pairs(sig1, sig2, roots, self_adjoint, n, seed=21):
    x = random_elements(sig1, roots, [(seed, k, 0) for k in range(n)], self_adjoint)[0]
    y = random_elements(sig2, roots, [(seed, k, 1) for k in range(n)], self_adjoint)[0]
    return np.ascontiguousarray(x), np.ascontiguousarray(y)


@pytest.mark.parametrize("ranks1, ranks2, roots, exact", [
    ((1, 2), (2, 1), (0, 1), 1.0),
    ((2, 3), (0, 5), (0, 1), 1.0),
    ((2, 0, 1), (0, 1, 2), (0, 1, 2), 2.0),
    ((1, 1, 2), (0, 2, 2), (0, 1, 2), 1.0),
    ((1, 1, 1, 1), (0, 2, 1, 1), (0, 1, 2.5, -1.5), 1.0),
    ((2, 0, 1, 1), (0, 1, 1, 2), (0, 1, 2.5, -1.5), 1.5),
])
def test_self_adjoint_floor_is_the_distance_of_the_sorted_diagonal_models(ranks1, ranks2, roots, exact):
    sig1, sig2 = _sigs(ranks1, ranks2)
    roots = validate_roots(list(roots))
    floor = _distance_floor(sig1, sig2, roots, self_adjoint=True)
    models = [np.diag(np.sort(np.repeat(np.real(roots.roots), s.ranks))) for s in (sig1, sig2)]
    assert floor == operator_norm(models[0] - models[1]) == exact
    # Weyl: no self-adjoint pair of the two components comes closer
    x, y = _pairs(sig1, sig2, roots, True, 50)
    assert np.all(floor <= np.linalg.svd(x - y, compute_uv=False)[:, 0] + 1e-12 * (1.0 + floor))


@pytest.mark.parametrize("ranks1, ranks2", [((1, 2), (2, 1)), ((2, 3), (4, 1)), ((2, 0), (0, 2)),
                                            ((3, 0), (1, 2))],
                         ids=["oblique", "oblique-m5", "central", "one-central"])
@pytest.mark.parametrize("roots", [(0, 1), (-1.5, 2j)])
def test_two_root_floor_is_the_root_gap(ranks1, ranks2, roots):
    sig1, sig2 = _sigs(ranks1, ranks2)
    roots = validate_roots(list(roots))
    floor = _distance_floor(sig1, sig2, roots, self_adjoint=False)
    assert floor == roots.min_gap
    # x - y = (l_1 - l_2)(p - q), and p - q fixes a unit vector when the ranks differ
    x, y = _pairs(sig1, sig2, roots, False, 50)  # oblique: condition numbers up to 20
    assert np.all(floor <= np.linalg.svd(x - y, compute_uv=False)[:, 0] + 1e-12 * (1.0 + floor))


@pytest.mark.parametrize("ranks1, ranks2", [((1, 1, 2), (0, 2, 2)), ((2, 0, 1), (0, 1, 2))])
def test_general_three_root_floor_is_zero(ranks1, ranks2):
    assert _distance_floor(*_sigs(ranks1, ranks2), validate_roots([0, 1, 2]), self_adjoint=False) == 0.0


def test_distance_scan_two_root_floor():
    sig1 = ComponentSignature((1, 2), 3)
    sig2 = ComponentSignature((2, 1), 3)
    rep = distance_scan(sig1, sig2, R01, budget=60, seed=0, self_adjoint=True)
    assert rep.best_distance >= 1.0 - 1e-6
    assert rep.conjecture_bound == 1.0
    for w, sig in zip(rep.witness, (sig1, sig2)):
        assert signature(w) == sig


def test_distance_scan_central_pair():
    rep = distance_scan(
        ComponentSignature((2, 0), 2), ComponentSignature((0, 2), 2), R01, budget=5, seed=0
    )
    assert abs(rep.best_distance - 1.0) <= 1e-12


def test_distance_scan_central_pair_on_shifted_roots_stays_on_the_floor():
    # conjugating 1e6 * I moves it by round-off of about 1e6 * eps, far more
    # than the decrease a step must gain at distance 1; a restart that starts
    # on the floor takes no step, so none of that drift reaches the report
    roots = validate_roots([1e6, 1e6 + 1])
    rep = distance_scan(ComponentSignature((2, 0), 2), ComponentSignature((0, 2), 2), roots, budget=5, seed=0)
    assert rep.best_distance == 1.0
    np.testing.assert_array_equal(rep.witness[0].a, 1e6 * np.eye(2))


def test_distance_scan_explicit_pair_distance_is_exactly_one():
    assert operator_norm(np.diag([1.0, 0.0, 0.0]) - np.diag([1.0, 1.0, 0.0])) == 1.0


def test_distance_scan_monotone_in_budget():
    sig1 = ComponentSignature((1, 2), 3)
    sig2 = ComponentSignature((2, 1), 3)
    small = distance_scan(sig1, sig2, R01, budget=20, seed=5)
    large = distance_scan(sig1, sig2, R01, budget=40, seed=5)
    assert large.best_distance <= small.best_distance


def test_distance_scan_deterministic():
    sig1 = ComponentSignature((1, 1), 2)
    sig2 = ComponentSignature((0, 2), 2)
    r1 = distance_scan(sig1, sig2, R01, budget=15, seed=3)
    r2 = distance_scan(sig1, sig2, R01, budget=15, seed=3)
    assert r1.best_distance == r2.best_distance
    np.testing.assert_array_equal(r1.witness[0].a, r2.witness[0].a)


def test_distance_scan_parallel_matches_serial():
    sig1 = ComponentSignature((1, 1), 2)
    sig2 = ComponentSignature((0, 2), 2)
    budget = 2 * _scan_block_size(2) + 5  # two full blocks and a partial one
    serial = distance_scan(sig1, sig2, R01, budget=budget, seed=3)
    parallel = distance_scan(sig1, sig2, R01, budget=budget, seed=3, workers=2)
    assert serial.best_distance == parallel.best_distance
    for ws, wp in zip(serial.witness, parallel.witness):
        np.testing.assert_array_equal(ws.a, wp.a)


def test_distance_scan_preconditions():
    sig = ComponentSignature((1, 2), 3)
    with pytest.raises(BadSignature):
        distance_scan(sig, sig, R01, budget=5, seed=0)
    with pytest.raises(BadSignature):
        distance_scan(sig, ComponentSignature((2, 2), 4), R01, budget=5, seed=0)
    other = ComponentSignature((2, 1), 3)
    with pytest.raises(BadSignature):
        distance_scan(sig, other, R01, budget=0, seed=0)
    with pytest.raises(BadSignature):
        distance_scan(sig, other, R01, budget=5, seed=0, workers=0)


# The per-restart descent the lockstep scan replaced, kept as the reference it
# must reproduce bit for bit: one matrix at a time, perturbations drawn as the
# descent goes, no pruning.  ``trail`` collects the state after every step.


def _reference_descend(x, y, rng, self_adjoint, inner_iters=200, delta0=0.25, trail=None):
    m = x.shape[0]
    eye = np.eye(m, dtype=complex)
    dist = operator_norm(x - y)
    delta = delta0
    if trail is not None:
        trail.append((dist, x, y))
    for it in range(inner_iters):
        if delta < 1e-12:
            break
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        z /= np.linalg.norm(z)
        if self_adjoint:
            h = 0.5 * (z + z.conj().T)
            g = np.linalg.solve(eye - 0.5j * delta * h, eye + 0.5j * delta * h)
        else:
            g = eye + delta * z
        target = x if it % 2 == 0 else y
        moved = g @ target
        if self_adjoint:
            moved = moved @ g.conj().T
            moved = 0.5 * (moved + moved.conj().T)
        else:
            moved = np.linalg.solve(g.T, moved.T).T
        cand = operator_norm(moved - y) if it % 2 == 0 else operator_norm(x - moved)
        if cand < dist - 1e-13 * (1.0 + dist):
            dist = cand
            if it % 2 == 0:
                x = moved
            else:
                y = moved
        else:
            delta *= 0.5
        if trail is not None:
            trail.append((dist, x, y))
    return dist, x, y


def _reference_trails(ks, sig1, sig2, roots, self_adjoint, inner_iters=200, seed=11):
    """Restart ``k``'s states along its reference descent, from its start to its end."""
    trails = {k: [] for k in ks}
    for k in ks:
        x = reference.random_element(sig1.ranks, roots, (seed, k, 0), self_adjoint=self_adjoint)
        y = reference.random_element(sig2.ranks, roots, (seed, k, 1), self_adjoint=self_adjoint)
        _reference_descend(x.a, y.a, rng_from(seed, k, 2), self_adjoint, inner_iters, trail=trails[k])
    return trails


def _assert_block_follows_the_reference(block, ks, trails):
    """Check a block's rows against the reference descents; return the restarts it pruned.

    Row ``j`` is bit for bit a state that restart ``ks[j]``'s reference
    descent passes through: its end for the block's (distance, index) winner
    and for every restart the block did not prune.  A pruned restart stopped
    early, which is sound only if the reference ends strictly above the
    block's best; it ends at most at the distance the block returned.
    """
    dist, x, y = block
    best = min(range(len(ks)), key=lambda j: (dist[j], ks[j]))
    pruned = []
    for j, k in enumerate(ks):
        # a descent's distance falls strictly at every move, so it names the state
        states = [state for state in trails[k] if state[0] == dist[j]]
        assert states, f"restart {k} left its descent"
        np.testing.assert_array_equal(x[j], states[0][1])
        np.testing.assert_array_equal(y[j], states[0][2])
        end = trails[k][-1][0]
        if dist[j] != end:
            pruned.append(k)
            assert j != best
            assert end > dist[best] and dist[j] >= end
    return pruned


class _CountedDraws:
    """A generator whose ``standard_normal`` calls append their shapes to ``log``."""

    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    def standard_normal(self, shape):
        self.log.append(shape)
        return self.rng.standard_normal(shape)


def _watch_streams(monkeypatch, built, log=None):
    """Record the key of every perturbation stream the scan builds in ``built``.

    With ``log``, stream ``key`` is a :class:`_CountedDraws` appending to ``log(key)``.
    """
    def batch(keys):
        built.extend(keys)
        rngs = rngs_from(keys)
        return rngs if log is None else [_CountedDraws(rng, log(key)) for key, rng in zip(keys, rngs)]

    monkeypatch.setattr(components, "rngs_from", batch)


SCAN_SHAPES = [
    ((1, 2), (2, 1), (0, 1), True),
    ((1, 2), (2, 1), (0, 1), False),
    ((1, 1, 2), (0, 2, 2), (0, 1, 2), False),
    ((2, 0), (0, 2), (0, 1), False),  # scalars: every step fails, all restarts freeze early
    ((2, 3), (3, 2), (0, 1), False),
    # self-adjoint over three and four roots: restarts start above the Weyl floor
    # and take Cayley steps (over two roots every one stops at entry)
    ((1, 1, 1), (0, 2, 1), (0, 1, 2), True),
    ((1, 1, 1, 1), (0, 2, 1, 1), (0, 1, 2.5, -1.5), True),
]


def _block(ks, sig1, sig2, roots, self_adjoint, seed=11):
    return _scan_block(ks, seed=seed, sig1=sig1, sig2=sig2, roots=roots,
                       self_adjoint=self_adjoint, cond_bound=20.0, cfg=ToleranceConfig())


@pytest.mark.parametrize("ranks1, ranks2, roots, self_adjoint", SCAN_SHAPES,
                         ids=["m3-self-adjoint", "m3-general", "m4-three-roots", "m2-central", "m5",
                              "m3-self-adjoint-three-roots", "m4-self-adjoint-four-roots"])
def test_scan_block_is_bit_identical_to_per_restart_descent(ranks1, ranks2, roots, self_adjoint,
                                                            monkeypatch):
    m = sum(ranks1)
    sig1, sig2 = ComponentSignature(ranks1, m), ComponentSignature(ranks2, m)
    roots = validate_roots(list(roots))
    budget = 7
    trails = _reference_trails(range(budget), sig1, sig2, roots, self_adjoint)
    _assert_block_follows_the_reference(_block(range(budget), sig1, sig2, roots, self_adjoint),
                                        range(budget), trails)

    # blocks of one, two and three restarts, the last one partial: same best restart
    ref = [trails[k][-1] for k in range(budget)]
    best = min(range(budget), key=lambda k: (ref[k][0], k))
    for size in (1, 2, 3):
        monkeypatch.setattr(components, "_SCAN_BLOCK_BYTES", size * components._SCAN_CHUNK * m * m * 16)
        assert _scan_block_size(m) == size
        rep = distance_scan(sig1, sig2, roots, budget=budget, seed=11, self_adjoint=self_adjoint)
        assert rep.best_distance == ref[best][0]
        np.testing.assert_array_equal(rep.witness[0].a, ref[best][1])
        np.testing.assert_array_equal(rep.witness[1].a, ref[best][2])


@pytest.mark.parametrize("ranks1, ranks2, roots, self_adjoint, iters",
                         [SCAN_SHAPES[3] + (200,), SCAN_SHAPES[1] + (60,), SCAN_SHAPES[0] + (200,)],
                         ids=["m2-central", "m3-general", "m3-self-adjoint"])
def test_scan_chunks_that_do_not_divide_the_steps_are_bit_identical(ranks1, ranks2, roots, self_adjoint,
                                                                     iters, monkeypatch):
    # chunks of 7 divide neither 200 nor 60: the central and self-adjoint
    # restarts start on the proven floor and stop at entry, before the first
    # chunk; the general winner is still live in the partial last chunk of 60,
    # after the bound has stopped the other general restarts
    monkeypatch.setattr(components, "_SCAN_CHUNK", 7)
    monkeypatch.setattr(components, "_SCAN_ITERS", iters)
    m = sum(ranks1)
    sig1, sig2 = ComponentSignature(ranks1, m), ComponentSignature(ranks2, m)
    roots = validate_roots(list(roots))
    trails = _reference_trails(range(5), sig1, sig2, roots, self_adjoint, iters)
    for ks in (range(5), [3, 1]):
        _assert_block_follows_the_reference(_block(ks, sig1, sig2, roots, self_adjoint), ks, trails)


def _block_and_svd_rows(n, sig1, sig2, roots, seed, monkeypatch):
    """A general block of restarts ``0..n-1`` and the rows of each SVD it takes.

    The pairs are sampled outside the count; ``monkeypatch`` is undone afterwards.
    """
    pairs = dict(zip((sig1, sig2), _pairs(sig1, sig2, roots, False, n, seed=seed)))
    monkeypatch.setattr(components, "random_elements", lambda sig, *args: (pairs[sig], None, None))
    rows = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: rows.append(len(a)) or svd(a, **kw))
    block = _block(range(n), sig1, sig2, roots, False, seed=seed)
    monkeypatch.undo()
    return block, rows


@pytest.mark.parametrize("iters", [200, 60])
def test_scan_draws_perturbations_only_while_a_restart_is_live(iters, monkeypatch):
    chunk, m, n = 7, 3, 8
    monkeypatch.setattr(components, "_SCAN_CHUNK", chunk)
    monkeypatch.setattr(components, "_SCAN_ITERS", iters)
    sig1, sig2 = ComponentSignature((1, 2), m), ComponentSignature((2, 1), m)
    # the steps each restart runs unpruned: its trail holds its start and one state per step
    trails = _reference_trails(range(n), sig1, sig2, R01, False, iters)
    steps = [len(trails[k]) - 1 for k in range(n)]
    assert len(set(steps)) > 1  # the restarts freeze at different steps (58 to 81)
    # the block's live set at each step: the rows of that step's SVD, after
    # the one of the starting distances
    draws = {k: [] for k in range(n)}
    _watch_streams(monkeypatch, [], lambda key: draws[key[1]])
    block, rows = _block_and_svd_rows(n, sig1, sig2, R01, 11, monkeypatch)
    pruned = _assert_block_follows_the_reference(block, range(n), trails)
    assert pruned  # the bound stops some restarts before their step collapses
    live = rows[1:]
    assert rows[0] == n and len(live) <= iters
    chunks = range(0, len(live), chunk)
    # restart k draws one chunk, the last one partial, at each chunk start
    # before it leaves the live set, and no more than its unpruned descent
    for k in range(n):
        assert draws[k] == [(min(chunk, iters - t), 2, m, m) for t in range(0, chunk * len(draws[k]), chunk)]
        unpruned = -(-steps[k] // chunk)
        assert len(draws[k]) <= unpruned and (k in pruned or len(draws[k]) == unpruned)
    # exactly the restarts live where a chunk starts draw it
    assert [sum(len(draws[k]) > c for k in range(n)) for c in range(len(chunks))] == [live[t] for t in chunks]


@pytest.mark.parametrize("ranks1, ranks2, roots", [((1, 2), (2, 1), (0, 1)), ((1, 1, 2), (0, 2, 2), (0, 1, 2))],
                         ids=["m3", "m4-three-roots"])
def test_scan_block_prunes_most_of_the_unpruned_descent(ranks1, ranks2, roots, monkeypatch):
    # the scan benchmark's two general shapes at its budget: the block hands
    # np.linalg.svd at most 40% of the rows the unpruned descents take, one for
    # each start and each step (24% with numpy 2.4); the slack is for other
    # BLAS builds, whose round-off moves the steps a little
    sig1, sig2 = _sigs(ranks1, ranks2)
    roots = validate_roots(list(roots))
    n = 200
    trails = _reference_trails(range(n), sig1, sig2, roots, False, seed=0)
    block, rows = _block_and_svd_rows(n, sig1, sig2, roots, 0, monkeypatch)
    assert _assert_block_follows_the_reference(block, range(n), trails)  # the winner is never pruned
    assert sum(rows) <= 0.4 * sum(len(trail) for trail in trails.values())


@pytest.mark.parametrize("ranks1, ranks2, roots, self_adjoint", [
    ((1, 2), (2, 1), (0, 1), False),
    ((1, 1, 2), (0, 2, 2), (0, 1, 2), False),
    ((1, 1, 1, 1), (0, 2, 1, 1), (0, 1, 2.5, -1.5), True),
], ids=["m3", "m4-three-roots", "m4-four-roots-self-adjoint"])
def test_reach_floor_bounds_the_later_distances_of_unpruned_descents(ranks1, ranks2, roots, self_adjoint):
    # the prune's bound, taken at every state of unpruned reference descents
    # with 1 to 6 steps to go, never lies above a distance the descent goes on
    # to reach within those steps: here the bound is tight enough that a
    # hundredth of its step term is not sound
    sig1, sig2 = _sigs(ranks1, ranks2)
    roots = validate_roots(list(roots))
    for trail in _reference_trails(range(20), sig1, sig2, roots, self_adjoint, inner_iters=60).values():
        dist = np.array([d for d, _, _ in trail])
        x, y = (np.stack([state[i] for state in trail]) for i in (1, 2))
        # the step size before each step: halved at every step that did not move
        delta = 0.25 * 0.5 ** np.concatenate(([0], np.cumsum(dist[1:] == dist[:-1])))
        rows = np.arange(len(trail))
        for left in range(1, 7):
            # distances never rise along a descent: the one `left` steps on is the least
            later = dist[np.minimum(rows + left, len(trail) - 1)]
            bounded, reach = components._reach_floor(rows, dist, delta, x, y, left)
            assert bounded.size and np.all(reach <= later[bounded])


# shapes whose every restart starts on the proven floor of its distance
FLOOR_SHAPES = [((1, 2), (2, 1), (0, 1), True), ((2, 0, 1), (0, 1, 2), (0, 1, 2), True),
                ((2, 0), (0, 2), (0, 1), False)]
FLOOR_IDS = ["m3-self-adjoint", "m3-three-roots-self-adjoint", "m2-central"]


@pytest.mark.parametrize("ranks1, ranks2, roots, self_adjoint", FLOOR_SHAPES, ids=FLOOR_IDS)
def test_restarts_on_the_floor_accept_no_step(ranks1, ranks2, roots, self_adjoint):
    # the scan stops these restarts at entry; the unfrozen reference descent,
    # run in full from the same pairs and streams, moves none of them
    sig1, sig2 = _sigs(ranks1, ranks2)
    roots = validate_roots(list(roots))
    floor = _distance_floor(sig1, sig2, roots, self_adjoint)
    x, y = _pairs(sig1, sig2, roots, self_adjoint, 100, seed=11)
    for k in range(100):
        start = operator_norm(x[k] - y[k])
        assert start - 1e-13 * (1.0 + start) <= floor
        dist, xk, yk = _reference_descend(x[k], y[k], rng_from(11, k, 2), self_adjoint)
        assert dist == start
        np.testing.assert_array_equal(xk, x[k])
        np.testing.assert_array_equal(yk, y[k])


@pytest.mark.parametrize("ranks1, ranks2, roots, self_adjoint", FLOOR_SHAPES, ids=FLOOR_IDS)
def test_scan_block_on_the_floor_takes_one_svd_and_draws_nothing(ranks1, ranks2, roots, self_adjoint,
                                                                   monkeypatch):
    sig1, sig2 = _sigs(ranks1, ranks2)
    roots = validate_roots(list(roots))
    want = _block(range(20), sig1, sig2, roots, self_adjoint)
    # sample outside the count: hand the block the pairs it samples itself
    pairs = dict(zip((sig1, sig2), _pairs(sig1, sig2, roots, self_adjoint, 20, seed=11)))
    monkeypatch.setattr(components, "random_elements", lambda sig, *args: (pairs[sig], None, None))
    built, draws, calls = [], [], []
    _watch_streams(monkeypatch, built, lambda key: draws)
    for name in ("svd", "solve"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*a, **kw))
    dist, x, y = _block(range(20), sig1, sig2, roots, self_adjoint)
    assert calls == ["svd"] and built == [] and draws == []
    for got, ref in zip((dist, x, y), want):
        np.testing.assert_array_equal(got, ref)


def test_scan_block_mixing_restarts_on_and_above_the_floor_matches_the_reference(monkeypatch):
    # general {0,1} (1,2)/(2,1) with the pairs of restarts 1 and 3 replaced by
    # the diagonal models, which sit on the floor: those two stop at entry and
    # never build a generator, the others descend exactly as before
    sig1, sig2 = _sigs((1, 2), (2, 1))
    models = {sig1: np.diag([0.0, 1.0, 1.0]), sig2: np.diag([0.0, 0.0, 1.0])}
    sample = components.random_elements

    def sampled(sig, *args):
        a, res, sa = sample(sig, *args)
        a = a.copy()
        a[[1, 3]] = models[sig]
        return a, res, sa

    monkeypatch.setattr(components, "random_elements", sampled)
    built = []
    _watch_streams(monkeypatch, built)
    block = _block(range(5), sig1, sig2, R01, False)
    assert built == [(11, k, 2) for k in (0, 2, 4)]
    trails = _reference_trails((0, 2, 4), sig1, sig2, R01, False)
    for k in (1, 3):
        trails[k] = [(1.0, models[sig1], models[sig2])]
    # restart 1 holds the floor from the start, so the others stop as soon as
    # their bound clears it, each at a state of its own descent
    assert _assert_block_follows_the_reference(block, range(5), trails) == [0, 2, 4]


def test_scan_block_above_the_floor_builds_a_generator_per_restart(monkeypatch):
    built = []
    _watch_streams(monkeypatch, built)
    _block(range(8), *_sigs((1, 2), (2, 1)), R01, False)
    assert built == [(11, k, 2) for k in range(8)]


def test_scan_samples_under_the_configured_tolerance(monkeypatch):
    # an unattainable residual tolerance fails the sampled pairs, before any
    # perturbation stream is built or descent run
    built = []
    _watch_streams(monkeypatch, built)
    with pytest.raises(NotAlgebraic):
        distance_scan(*_sigs((1, 2), (2, 1)), R01, budget=20, seed=0, cfg=ToleranceConfig(residual_tol=1e-20))
    assert built == []


@pytest.mark.parametrize("ranks1, ranks2, roots, blocks",
                         [((1, 2), (2, 1), (0, 1), 1), ((1, 1, 2), (0, 2, 2), (0, 1, 2), 2)],
                         ids=["m3", "m4"])
def test_budget_200_scan_runs_few_blocks(ranks1, ranks2, roots, blocks, monkeypatch):
    calls = []
    block = components._scan_block
    monkeypatch.setattr(components, "_scan_block", lambda ks, **kw: calls.append(len(ks)) or block(ks, **kw))
    m = sum(ranks1)
    distance_scan(ComponentSignature(ranks1, m), ComponentSignature(ranks2, m),
                  validate_roots(list(roots)), budget=200, seed=0)
    assert len(calls) == blocks and sum(calls) == 200
    # the chunk buffer of a full block stays within the byte cap
    assert max(calls) * components._SCAN_CHUNK * m * m * 16 <= components._SCAN_BLOCK_BYTES


@pytest.mark.parametrize("self_adjoint, batches", [(False, [200, 200, 200]), (True, [200, 200])],
                         ids=["general", "self-adjoint"])
def test_budget_200_scan_builds_its_streams_in_batches(self_adjoint, batches, monkeypatch):
    # one block: a batch of streams for each side's pairs and, in general mode,
    # one for the restarts live after entry (every self-adjoint restart starts
    # on the floor); no stream is built through a SeedSequence of its own
    sizes, made = [], []
    for module in (algebraic, components):
        monkeypatch.setattr(module, "rngs_from", lambda seeds: sizes.append(len(seeds)) or rngs_from(seeds))
    seed_sequence = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence", lambda *a, **kw: made.append(a) or seed_sequence(*a, **kw))
    distance_scan(*_sigs((1, 2), (2, 1)), R01, budget=200, seed=0, self_adjoint=self_adjoint)
    assert made == [] and sizes == batches


@pytest.mark.parametrize("workers, sizes", [(2, [100, 100]), (3, [67, 67, 66]), (8, [25] * 8)])
def test_scan_pool_gets_a_block_per_worker(workers, sizes, monkeypatch):
    import concurrent.futures

    class SerialPool:  # records the blocks a process pool would be handed
        def __init__(self, max_workers):
            assert max_workers == workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks):
            blocks = list(blocks)
            mapped.extend(len(ks) for ks in blocks)
            return map(fn, blocks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    # central (1,1)/(0,2): every restart stops at entry; general (1,2)/(2,1):
    # the restarts descend, and each block prunes against its own best
    for ranks1, ranks2 in (((1, 1), (0, 2)), ((1, 2), (2, 1))):
        sig1, sig2 = _sigs(ranks1, ranks2)
        mapped = []
        pooled = distance_scan(sig1, sig2, R01, budget=200, seed=4, workers=workers)
        assert mapped == sizes
        serial = distance_scan(sig1, sig2, R01, budget=200, seed=4)
        assert scan_report_to_json(pooled) == scan_report_to_json(serial)


def test_scan_restart_ignores_block_boundaries_and_budget():
    # a block prunes against its own best, so where a pruned restart stops
    # depends on its company; every row stays a state of its own descent, and
    # the restarts split over blocks elect the whole block's winner
    sig1, sig2 = ComponentSignature((1, 2), 3), ComponentSignature((2, 1), 3)
    trails = _reference_trails(range(9), sig1, sig2, R01, False)

    def winner(blocks):
        return min(((d, k, xk, yk) for ks, (ds, x, y) in blocks for d, k, xk, yk in zip(ds, ks, x, y)),
                   key=lambda row: row[:2])

    groups = (range(9), range(0, 4), range(4, 9), range(6, 8), [8, 2, 5])
    blocks = [(ks, _block(ks, sig1, sig2, R01, False)) for ks in groups]
    for ks, block in blocks:
        _assert_block_follows_the_reference(block, ks, trails)
    whole, split = winner(blocks[:1]), winner(blocks[1:3])
    assert split[:2] == whole[:2]
    np.testing.assert_array_equal(split[2], whole[2])
    np.testing.assert_array_equal(split[3], whole[3])


@pytest.mark.parametrize("ranks1, ranks2, self_adjoint, sampled",
                         [((1, 2), (2, 1), False, 2), ((1, 2), (2, 1), True, 2),
                          ((3, 0), (1, 2), False, 1), ((3, 0), (0, 3), False, 0)],
                         ids=["general", "self-adjoint", "one-central", "both-central"])
def test_scan_samples_with_one_stacked_qr_per_signature_and_block(ranks1, ranks2, self_adjoint,
                                                                  sampled, monkeypatch):
    monkeypatch.setattr(components, "_SCAN_BLOCK_BYTES", 4 * components._SCAN_CHUNK * 3 * 3 * 16)
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda z: calls.append(z.shape) or qr(z))
    distance_scan(ComponentSignature(ranks1, 3), ComponentSignature(ranks2, 3), R01,
                  budget=10, seed=2, self_adjoint=self_adjoint)
    shape = (3, 3) if self_adjoint else (2, 3, 3)  # U, or U and V side by side
    assert calls == [(b,) + shape for b in (4, 4, 2) for _ in range(sampled)]


@pytest.mark.parametrize("m", [2, 3, 4, 8, 16])
def test_frobenius_is_bit_exact_with_numpy_norm(m):
    rng = rng_from(m, 30)
    z = rng.standard_normal((4, 6, m, m)) + 1j * rng.standard_normal((4, 6, m, m))
    want = np.array([[np.linalg.norm(z[i, j]) for j in range(6)] for i in range(4)])
    np.testing.assert_array_equal(_frobenius(z), want)


def test_three_root_scan_runs_and_logs():
    roots = validate_roots([0, 1, 2])
    rep = distance_scan(
        ComponentSignature((1, 1, 1), 3),
        ComponentSignature((0, 2, 1), 3),
        roots,
        budget=25,
        seed=1,
    )
    assert rep.best_distance >= 0.0  # logged, never asserted against the gap
