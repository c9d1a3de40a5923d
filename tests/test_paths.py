"""Connecting-path constructors, the degree search, and the certifier."""

import numpy as np
import pytest
import scipy.linalg

from algpaths.algebraic import certify, random_element, validate_roots
from algpaths import paths
from algpaths.errors import (
    CertificationFailed,
    MagnitudeOverflow,
    NotLocallyClose,
    NotSameComponent,
    NotSelfAdjoint,
    SubspaceSplitFailed,
)
from algpaths.matkernel import MatrixPolynomial, ToleranceConfig, operator_norm
from algpaths.paths import (
    PolynomialPath,
    connect_exp_global,
    connect_exp_local,
    connect_polygonal,
    connect_selfadjoint,
    min_degree_search,
    verify_path,
)
from algpaths.seeding import rng_from
from algpaths.serialize import path_from_json, path_to_json

R01 = validate_roots([0, 1])
E = np.diag([1.0, 0.0]).astype(complex)
F_SHEAR = np.array([[1, 0.5], [0, 0]], dtype=complex)  # idempotent, same range as E
F_SWAP = np.diag([0.0, 1.0]).astype(complex)


def _conjugate_pair(roots, ranks, m_seed, delta=0.05):
    """An element and a nearby conjugate of it, certified."""
    a = random_element(ranks, roots, seed=m_seed)
    rng = rng_from(m_seed, 99)
    m = a.dim
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    z *= delta / (np.linalg.norm(z) * (1.0 + operator_norm(a.a)))
    g = np.eye(m, dtype=complex) + z
    b = certify(np.linalg.solve(g.T, (g @ a.a).T).T, roots)
    return a, b


# -- single-exponential paths ----------------------------------------------------


def test_exp_local_hand_example():
    # w = (1-f)(1-e) + f e = [[1,-0.5],[0,1]], c = log w = [[0,-0.5],[0,0]],
    # and e^{tc} e e^{-tc} = [[1, 0.5 t], [0, 0]]  (all by hand)
    a = certify(E, R01)
    b = certify(F_SHEAR, R01)
    path = connect_exp_local(a, b)
    assert len(path.generators) == 1
    np.testing.assert_allclose(path.generators[0], np.array([[0, -0.5], [0, 0]]), atol=1e-14)
    for t in (0.25, 0.5, 1.0):
        np.testing.assert_allclose(path.value(t), np.array([[1, 0.5 * t], [0, 0]]), atol=1e-13)


def test_exp_local_same_element_gives_constant_path():
    a = certify(E, R01)
    path = connect_exp_local(a, a)
    assert operator_norm(path.generators[0]) <= 1e-12
    np.testing.assert_allclose(path.value(0.7), E, atol=1e-12)


def test_exp_local_refuses_antipodal_pair():
    # w = f e + (1-f)(1-e) = 0 for e = diag(1,0), f = diag(0,1)
    a = certify(E, R01)
    b = certify(F_SWAP, R01)
    with pytest.raises(NotLocallyClose):
        connect_exp_local(a, b)


def test_exp_local_refuses_different_components():
    a = certify(E, R01)
    b = certify(np.eye(2), R01)
    with pytest.raises(NotSameComponent):
        connect_exp_local(a, b)


def test_exp_path_starts_bitwise_at_base():
    a = certify(E, R01)
    b = certify(F_SHEAR, R01)
    path = connect_exp_local(a, b)
    np.testing.assert_array_equal(path.value(0), a.a)


def test_exp_global_antipodal_two_generators():
    a = certify(E, R01)
    b = certify(F_SWAP, R01)
    path = connect_exp_global(a, b)
    assert len(path.generators) == 2
    cert = verify_path(path, expected_endpoint=b.a)
    assert cert.endpoint_error <= 1e-9
    assert cert.worst_membership <= 1e-9


def test_exp_global_reduces_to_local_for_close_pairs():
    roots = validate_roots([0, 1, 2])
    a, b = _conjugate_pair(roots, (1, 2, 1), 17)
    local = connect_exp_local(a, b)
    global_ = connect_exp_global(a, b)
    assert len(global_.generators) == 1
    np.testing.assert_array_equal(global_.generators[0], local.generators[0])


def test_exp_global_random_pairs_certify():
    roots = validate_roots([0, 1, 2])
    for s in range(8):
        rng = rng_from(s, 12)
        m = int(rng.integers(3, 9))
        cuts = sorted(rng.integers(0, m + 1, size=2).tolist())
        ranks = tuple(int(r) for r in np.diff([0] + cuts + [m]))
        a = random_element(ranks, roots, seed=(s, 13))
        b = random_element(ranks, roots, seed=(s, 14))
        path = connect_exp_global(a, b, seed=s)
        cert = verify_path(path, expected_endpoint=b.a, samples=25)
        assert cert.worst_membership <= 1e-9


def test_conjugation_invariance_of_membership():
    roots = validate_roots([0, 1, 2])
    el = random_element((1, 1, 2), roots, seed=21)
    rng = rng_from(21, 1)
    g = np.eye(4, dtype=complex) + 0.4 * rng.standard_normal((4, 4))
    conj = np.linalg.solve(g.T, (g @ el.a).T).T
    certify(conj, roots)  # tolerance scales with the evaluation magnitude


# -- self-adjoint paths ------------------------------------------------------------


def test_selfadjoint_rotation_example():
    # Conjugating diag(1,0) to diag(0,1) takes a quarter-turn rotation:
    # the generator is (pi/2) [[0, -i], [i, 0]] up to the rotation sense,
    # and e^{ict} sweeps the orbit of projections.
    a = certify(E, R01)
    b = certify(F_SWAP, R01)
    path = connect_selfadjoint(a, b)
    assert len(path.generators) == 1
    c = path.generators[0]
    sigma = (np.pi / 2.0) * np.array([[0, -1j], [1j, 0]])
    assert min(operator_norm(c - sigma), operator_norm(c + sigma)) <= 1e-12
    np.testing.assert_allclose(path.value(1.0), F_SWAP, atol=1e-12)
    mid = path.value(0.5)
    np.testing.assert_allclose(np.diag(mid).real, [0.5, 0.5], atol=1e-12)
    # oracle: the path is the exponential conjugation computed independently
    for t in (0.3, 0.8):
        g = scipy.linalg.expm(1j * c * t)
        np.testing.assert_allclose(path.value(t), g @ E @ g.conj().T, atol=1e-12)


def test_selfadjoint_same_element():
    a = certify(E, R01)
    path = connect_selfadjoint(a, a)
    assert operator_norm(path.generators[0]) <= 1e-9
    np.testing.assert_allclose(path.value(1.0), E, atol=1e-9)


def test_selfadjoint_requires_hermitian_inputs():
    a = certify(np.array([[0, 1], [0, 1]], dtype=complex), R01)
    b = certify(E, R01)
    with pytest.raises(NotSelfAdjoint):
        connect_selfadjoint(a, b)


def test_selfadjoint_random_pairs_stay_hermitian():
    roots = validate_roots([0, 1, 2])
    for s in range(6):
        rng = rng_from(s, 15)
        m = int(rng.integers(2, 7))
        cuts = sorted(rng.integers(0, m + 1, size=2).tolist())
        ranks = tuple(int(r) for r in np.diff([0] + cuts + [m]))
        a = random_element(ranks, roots, seed=(s, 16), self_adjoint=True)
        b = random_element(ranks, roots, seed=(s, 17), self_adjoint=True)
        path = connect_selfadjoint(a, b, seed=s)
        cert = verify_path(path, expected_endpoint=b.a, samples=30)
        assert cert.worst_hermiticity <= 1e-9
        assert cert.worst_membership <= 1e-9


# -- polygonal paths ----------------------------------------------------------------


def test_polygonal_hand_example():
    # Same-range pair: the intermediate (range of e, null space of f) is f
    # itself, so the two segments are e -> f -> f and both certificates vanish.
    a = certify(E, R01)
    b = certify(F_SHEAR, R01)
    path = connect_polygonal(a, b)
    assert path.segments == 2
    assert max(path.certificates) <= 1e-14
    np.testing.assert_allclose(path.breakpoints[1].a, F_SHEAR, atol=1e-14)


def test_polygonal_same_element():
    a = certify(E, R01)
    path = connect_polygonal(a, a)
    assert path.segments == 0
    assert path.breakpoints == (a,)


def test_polygonal_antipodal_needs_midpoints():
    # R(e) equals N(f) here, so the direct subspace swap is degenerate and a
    # midpoint from the exponential path is inserted; certificates still hold.
    a = certify(E, R01)
    b = certify(F_SWAP, R01)
    path = connect_polygonal(a, b)
    assert path.segments >= 2
    verify_path(path)


def test_polygonal_two_segments_for_close_idempotent_pairs():
    for s in range(12):
        rng = rng_from(s, 18)
        m = int(rng.integers(2, 7))
        r = int(rng.integers(1, m))
        a, b = _conjugate_pair(R01, (m - r, r), (s, 19), delta=0.2)
        assert operator_norm(a.a - b.a) < 1.0
        path = connect_polygonal(a, b, seed=s)
        assert path.segments == 2
        assert max(path.certificates) <= 1e-9
        verify_path(path)


def test_polygonal_three_roots_gives_three_segments():
    roots = validate_roots([0, 1, 2])
    a = random_element((1, 1, 2), roots, seed=31)
    b = random_element((1, 1, 2), roots, seed=32)
    path = connect_polygonal(a, b, seed=5)
    assert path.segments == 3  # one subspace replacement per root, this seed
    verify_path(path)


# -- minimum-degree search -----------------------------------------------------------


def test_mindeg_same_range_pair_is_degree_one():
    # ((1-t) e + t f)^2 telescopes when ef = f and fe = e (same range)
    a = certify(E, R01)
    b = certify(F_SHEAR, R01)
    assert np.allclose(E @ F_SHEAR, F_SHEAR) and np.allclose(F_SHEAR @ E, E)
    found = min_degree_search(a, b, d_max=3, budget=4, seed=0)
    assert found.degree == 1
    assert found.path.certificate <= 1e-12


def test_mindeg_projection_pairs_within_degree_three():
    for s, m in enumerate((2, 3, 4, 6)):
        rng = rng_from(s, 20)
        r = int(rng.integers(1, m))
        a = random_element((m - r, r), R01, seed=(s, 21), self_adjoint=True)
        b = random_element((m - r, r), R01, seed=(s, 22), self_adjoint=True)
        found = min_degree_search(a, b, d_max=3, budget=8, seed=s)
        assert found.succeeded and found.degree <= 3
        np.testing.assert_allclose(found.path.start, a.a, atol=0)
        assert operator_norm(found.path.end - b.a) <= 1e-9


def test_mindeg_rejects_cross_component_requests():
    a = certify(E, R01)
    b = certify(np.eye(2), R01)
    with pytest.raises(NotSameComponent):
        min_degree_search(a, b, d_max=2, budget=2, seed=0)


def test_mindeg_hermitian_constrained_antipodal_fails():
    # rank-one orthogonal projections admit no non-constant polynomial path
    # through Hermitian values; the antipodal pair keeps every degree far out
    a = certify(E, R01)
    b = certify(F_SWAP, R01)
    found = min_degree_search(a, b, d_max=3, budget=8, seed=0, self_adjoint=True, min_motion=0.1)
    assert not found.succeeded
    assert min(found.residual_by_degree.values()) >= 1e-3


def test_mindeg_reports_residual_curve():
    a = certify(E, R01)
    b = certify(F_SWAP, R01)
    found = min_degree_search(a, b, d_max=2, budget=4, seed=0, self_adjoint=True, min_motion=0.1)
    assert set(found.residual_by_degree) == {1, 2}
    assert found.residual_by_degree[1] >= found.residual_by_degree[2] * 0.1  # curve recorded


def test_mindeg_search_runs_without_polygonal_seed(monkeypatch):
    def split_fails(*args, **kwargs):
        raise SubspaceSplitFailed("no split")

    fits = []
    monkeypatch.setattr(paths, "connect_polygonal", split_fails)
    monkeypatch.setattr(paths, "_polygonal_fit_coeffs", lambda *args: fits.append(args))
    a = random_element((1, 1), R01, seed=(0, 21), self_adjoint=True)
    b = random_element((1, 1), R01, seed=(0, 22), self_adjoint=True)
    found = min_degree_search(a, b, d_max=2, budget=3, seed=0)
    assert 2 in found.residual_by_degree  # the degree-2 restarts ran
    assert fits == []  # without a polygonal seed to fit


def test_mindeg_does_not_swallow_foreign_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug in the polygonal constructor")

    monkeypatch.setattr(paths, "connect_polygonal", broken)
    a = random_element((1, 1), R01, seed=(0, 21), self_adjoint=True)
    b = random_element((1, 1), R01, seed=(0, 22), self_adjoint=True)
    with pytest.raises(RuntimeError, match="bug in the polygonal"):
        min_degree_search(a, b, d_max=2, budget=3, seed=0)


# -- verification ------------------------------------------------------------------


def test_verify_polynomial_line_path():
    coeffs = np.stack([np.diag([0.0, 1.0]).astype(complex), np.array([[0, 1], [0, 0]], dtype=complex)])
    path = PolynomialPath(x=MatrixPolynomial(coeffs, normalized=False), certificate=0.0)
    cert = verify_path(path, R01)
    assert cert.worst_membership == 0.0


def test_verify_rejects_straight_cross_segment():
    coeffs = np.stack([E, F_SWAP - E])
    path = PolynomialPath(x=MatrixPolynomial(coeffs, normalized=False), certificate=0.0)
    with pytest.raises(CertificationFailed) as err:
        verify_path(path, R01)
    assert err.value.coefficient in (1, 2)


def test_verify_polygonal_flags_bad_breakpoint():
    a = certify(E, R01)
    b = certify(F_SHEAR, R01)
    path = connect_polygonal(a, b)
    tampered = type(path)(
        breakpoints=(path.breakpoints[0], certify(F_SWAP, R01), path.breakpoints[2]),
        certificates=path.certificates,
    )
    with pytest.raises(CertificationFailed):
        verify_path(tampered)


def test_verify_roundtrips_serialized_paths():
    roots = validate_roots([0, 1, 2])
    a = random_element((1, 2, 1), roots, seed=41)
    b = random_element((1, 2, 1), roots, seed=42)
    for path in (
        connect_exp_global(a, b, seed=1),
        connect_polygonal(a, b, seed=1),
    ):
        back = path_from_json(path_to_json(path))
        verify_path(back, roots)
    found = min_degree_search(a, b, d_max=3, budget=6, seed=1)
    if found.succeeded:
        back = path_from_json(path_to_json(found.path))
        verify_path(back, roots)


# -- exponential sample grid ---------------------------------------------------------

# The per-sample evaluation the stacked grid replaced, kept as the reference it
# must reproduce to rounding: a scaling-and-squaring series exponential, and
# one sample at a time with g(t)^{-1} built from the factors e^{-tc}.


def _reference_exp(x):
    nrm = operator_norm(x)
    eye = np.eye(x.shape[0], dtype=complex)
    if nrm == 0.0:
        return eye
    squarings = max(0, int(np.ceil(np.log2(nrm / 0.5))))
    y = x / (2.0**squarings)
    acc = eye
    term = eye
    for k in range(1, 41):
        term = term @ y / k
        acc = acc + term
        if np.max(np.abs(term)) <= np.finfo(float).eps * np.max(np.abs(acc)):
            break
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def _reference_value(path, t):
    if t == 0:
        return path.base.a
    eye = np.eye(path.base.dim, dtype=complex)
    g = eye
    for c in path.generators:
        g = _reference_exp((1j * c if path.self_adjoint_mode else c) * t) @ g
    if path.self_adjoint_mode:
        return g @ path.base.a @ g.conj().T
    ginv = eye
    for c in path.generators:
        ginv = ginv @ _reference_exp(-c * t)
    return g @ path.base.a @ ginv


def _reference_samples(path, roots, samples):
    """(t, x, membership residual, its scale, hermiticity residual, ||x||) per sample."""
    out = []
    for t in np.linspace(0.0, 1.0, samples):
        x = _reference_value(path, float(t))
        value = np.eye(x.shape[0], dtype=complex)
        norm_x = operator_norm(x)
        scale = 1.0
        for r in roots.roots:
            value = value @ (x - r * np.eye(x.shape[0]))
            scale *= norm_x + abs(r)
        out.append((float(t), x, operator_norm(value), max(1.0, scale),
                    operator_norm(x - x.conj().T), norm_x))
    return out


def _exp_path(m, k, self_adjoint, seed):
    """A certified base with ``k`` random generators of operator norm 1/2."""
    roots = validate_roots([0, 1, 2] if self_adjoint else [0, 1, 1j])
    ranks = (m - m // 2 - m // 4, m // 2, m // 4)
    base = random_element(ranks, roots, seed=(seed, m, k), self_adjoint=self_adjoint)
    rng = rng_from(seed, m, k, 1)
    gens = []
    for _ in range(k):
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        if self_adjoint:
            z = 0.5 * (z + z.conj().T)
        gens.append(0.5 * z / operator_norm(z))
    return paths.ExpSimilarityPath(base=base, generators=tuple(gens),
                                   self_adjoint_mode=self_adjoint), roots


GRID_SHAPES = [(m, k, sa) for sa in (False, True) for k in (1, 2, 3) for m in (2, 4, 8, 16)]


@pytest.mark.parametrize("m, k, self_adjoint", GRID_SHAPES,
                         ids=[f"{'sa' if sa else 'gen'}-k{k}-m{m}" for m, k, sa in GRID_SHAPES])
def test_exp_grid_matches_per_sample_reference(m, k, self_adjoint):
    path, roots = _exp_path(m, k, self_adjoint, seed=41)
    ref = _reference_samples(path, roots, samples=40)
    ts = np.linspace(0.0, 1.0, 40)
    xs = path.values(ts)
    for (t, x, *_), got in zip(ref, xs):
        assert operator_norm(got - x) <= 1e-13 * operator_norm(x)
        assert operator_norm(path.value(t) - x) <= 1e-13 * operator_norm(x)
    assert xs[0].tobytes() == path.base.a.tobytes()  # bit for bit, signed zeros too
    assert path.value(0.0).tobytes() == path.base.a.tobytes()
    np.testing.assert_array_equal(path.transporter(0.0), np.eye(m))

    cert = verify_path(path, roots, expected_endpoint=ref[-1][1], samples=40)
    scale = max(s[3] for s in ref)
    assert abs(cert.worst_membership - max(s[2] for s in ref)) <= 1e-13 * scale
    assert cert.endpoint_error <= 1e-13 * operator_norm(ref[-1][1])
    if self_adjoint:
        herm_ref = max(operator_norm(c - c.conj().T) for c in path.generators)
        herm_ref = max([herm_ref] + [s[4] for s in ref])
        assert abs(cert.worst_hermiticity - herm_ref) <= 1e-13 * (1.0 + max(s[5] for s in ref))
    else:
        assert cert.worst_hermiticity is None


@pytest.mark.parametrize("self_adjoint", [False, True], ids=["general", "self-adjoint"])
def test_exp_grid_certificate_ignores_block_boundaries(self_adjoint, monkeypatch):
    path, roots = _exp_path(4, 2, self_adjoint, seed=43)
    end = path.value(1.0)
    whole = verify_path(path, roots, expected_endpoint=end)
    # blocks of seven samples: the boundaries fall inside the grid of 100
    monkeypatch.setattr(paths, "_GRID_BLOCK_BYTES", 7 * 16 * 4 * 4)
    assert verify_path(path, roots, expected_endpoint=end) == whole


def test_exp_grid_reports_the_first_failing_sample():
    # A base slightly off the solution set: p(x(t)) = g p(a) g^{-1} moves with
    # t, so the residuals are well above rounding and ordered along the path.
    path, roots = _exp_path(4, 2, False, seed=47)
    off = np.array(path.base.a)
    off[0, 1] += 1e-6
    base = type(path.base)(a=off, roots=roots, residual=0.0, self_adjoint=False)
    path = paths.ExpSimilarityPath(base=base, generators=path.generators)
    ref = _reference_samples(path, roots, samples=100)
    ratios = np.array([res / scale for _, _, res, scale, _, _ in ref])
    assert ratios[0] < ratios.max()
    for tol in (ratios[0] * (ratios.max() / ratios[0]) ** q for q in (0.3, 0.6, 0.9)):
        # keep the squeezed tolerance away from every ratio by far more than rounding
        assert np.min(np.abs(ratios / tol - 1.0)) > 1e-9
        first = int(np.argmax(ratios > tol))
        t, _, res, _, _, _ = ref[first]
        with pytest.raises(CertificationFailed) as err:
            verify_path(path, roots, ToleranceConfig(residual_tol=tol))
        assert err.value.sample_t == t
        assert abs(err.value.value - res) <= 1e-9 * res
        assert str(err.value).startswith(f"membership fails at t = {t:.4f}: residual ")


@pytest.mark.parametrize("m", [2, 8, 16])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("self_adjoint", [False, True], ids=["general", "self-adjoint"])
def test_verify_exp_path_calls_expm_once_per_generator_and_block(m, k, self_adjoint, monkeypatch):
    path, roots = _exp_path(m, k, self_adjoint, seed=53)
    end = path.value(1.0)
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda x: calls.append(x.shape) or expm(x))
    verify_path(path, roots, expected_endpoint=end, samples=100)
    per_block = max(1, paths._GRID_BLOCK_BYTES // (16 * m * m))
    blocks = -(-100 // per_block)
    assert len(calls) == (k if self_adjoint else 2 * k) * blocks
    assert all(shape[0] <= per_block for shape in calls)


def test_verify_rejects_paths_whose_magnitude_overflows():
    # ||x(1)|| is about 5e260, so the scale ||x|| (||x|| + 1) overflows; the
    # tolerance used to become inf and pass a residual of 1.1e245
    base = certify(E, R01)
    path = paths.ExpSimilarityPath(base=base, generators=(np.array([[300, 800], [0, -300]], dtype=complex),))
    with pytest.raises(MagnitudeOverflow):
        verify_path(path)
    big = PolynomialPath(x=MatrixPolynomial.line(1e200 * E, E), certificate=0.0)
    with pytest.raises(MagnitudeOverflow):
        verify_path(big, R01)
    # a breakpoint whose own scale 2r^2 is finite, on a segment whose 6r^2 is not
    roots = validate_roots([0, 7e153])
    x = certify(7e153 * E, roots)
    with pytest.raises(MagnitudeOverflow):
        verify_path(paths.PolygonalPath(breakpoints=(x, x), certificates=(0.0,)), roots)
