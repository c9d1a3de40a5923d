"""Root systems, certification, spectral resolutions, and the sampler."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sampler_reference as reference
from algpaths import algebraic
from algpaths.algebraic import (
    _certify_stack,
    certify,
    eval_defining_poly,
    q_reduction,
    random_element,
    random_elements,
    recombine,
    spectral_resolution,
    validate_roots,
)
from algpaths.errors import (
    BadSignature,
    CertificationError,
    EmptyRealPart,
    MagnitudeOverflow,
    MultipleRoots,
    NotAlgebraic,
)
from algpaths.matkernel import ToleranceConfig
from algpaths.matkernel import operator_norm
from algpaths.seeding import rng_from
from algpaths.serialize import element_from_json, element_to_json, roots_from_json, roots_to_json

R01 = validate_roots([0, 1])
UPPER = np.array([[0, 1], [0, 1]], dtype=complex)  # idempotent: UPPER @ UPPER == UPPER


def test_validate_roots_unit_pair():
    rs = validate_roots([0, 1])
    assert rs.min_gap == 1.0
    assert rs.all_real


def test_validate_roots_rejects_repeated_root():
    with pytest.raises(MultipleRoots):
        validate_roots([0, 0])


def test_validate_roots_complex_triple():
    # pairwise distances: |1 - i| = sqrt(2), |1 - (-1)| = 2, |i + 1| = sqrt(2)
    rs = validate_roots([1, 1j, -1])
    assert abs(rs.min_gap - math.sqrt(2.0)) < 1e-15
    assert not rs.all_real


def test_validate_roots_single_root():
    rs = validate_roots([3.5])
    assert rs.min_gap == math.inf


def test_certify_diagonal():
    el = certify(np.diag([0.0, 1.0]), R01)
    assert el.residual == 0.0
    assert el.self_adjoint


def test_certify_non_hermitian_idempotent():
    el = certify(UPPER, R01)
    assert el.residual <= 1e-15
    assert not el.self_adjoint


def test_certify_rejects_nilpotent():
    with pytest.raises(NotAlgebraic):
        certify(np.array([[0, 1], [0, 0]]), R01)


def test_q_reduction_drops_complex_roots():
    rs = validate_roots([0, 1, 1j])
    assert q_reduction(rs).roots == (0, 1)


def test_q_reduction_identity_on_real_systems():
    assert q_reduction(R01).roots == R01.roots


def test_q_reduction_fails_without_real_roots():
    # a = a* forces a real spectrum; already impossible for 1x1 matrices
    with pytest.raises(EmptyRealPart):
        q_reduction(validate_roots([1j, -1j]))


def test_resolution_two_point_interpolation():
    # e1 = (a + 1)/2, e2 = (1 - a)/2 at a = diag(1, -1)
    el = certify(np.diag([1.0, -1.0]), validate_roots([1, -1]))
    part = spectral_resolution(el)
    np.testing.assert_allclose(part.members[0], np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(part.members[1], np.diag([0.0, 1.0]), atol=1e-15)


def test_resolution_non_hermitian_idempotent():
    el = certify(UPPER, R01)
    part = spectral_resolution(el)
    np.testing.assert_allclose(part.members[0], np.array([[1, -1], [0, 0]]), atol=1e-15)
    np.testing.assert_allclose(part.members[1], UPPER, atol=1e-15)
    np.testing.assert_allclose(part.members[0] @ part.members[1], np.zeros((2, 2)), atol=1e-15)


def test_resolution_central_element():
    roots = validate_roots([2.0, 5.0])
    el = certify(2.0 * np.eye(3), roots)
    part = spectral_resolution(el)
    np.testing.assert_allclose(part.members[0], np.eye(3), atol=1e-15)
    np.testing.assert_allclose(part.members[1], np.zeros((3, 3)), atol=1e-15)


def test_recombine_diagonal():
    roots = validate_roots([5, 7])
    el = certify(np.diag([5.0, 7.0]), roots)
    part = spectral_resolution(el)
    back = recombine(part)
    np.testing.assert_allclose(back.a, np.diag([5.0, 7.0]), atol=1e-14)


def test_recombine_central():
    roots = validate_roots([2.0, 9.0])
    el = certify(2.0 * np.eye(2), roots)
    back = recombine(spectral_resolution(el))
    np.testing.assert_allclose(back.a, 2.0 * np.eye(2), atol=1e-15)


def test_resolution_recombine_roundtrip():
    el = certify(UPPER, R01)
    part = spectral_resolution(el)
    back = recombine(part)
    assert operator_norm(back.a - el.a) <= 1e-14
    part2 = spectral_resolution(back)
    for e1, e2 in zip(part.members, part2.members):
        assert operator_norm(e1 - e2) <= 1e-13


def test_sampler_single_rank_is_exact_scalar():
    roots = validate_roots([2.5, -1.0])
    el = random_element((3, 0), roots, seed=0)
    np.testing.assert_array_equal(el.a, 2.5 * np.eye(3))


def test_sampler_self_adjoint_rank_one_projection():
    el = random_element((1, 1), R01, seed=1, self_adjoint=True)
    p = el.a
    assert operator_norm(p - p.conj().T) <= 1e-15
    assert operator_norm(p @ p - p) <= 1e-14
    assert abs(np.trace(p) - 1.0) <= 1e-14


def test_sampler_outputs_recertify():
    roots = validate_roots([0, 1, 2])
    for seed in range(20):
        el = random_element((1, 2, 1), roots, seed=seed)
        assert el.residual <= 1e-9


def test_sampler_determinism_and_seed_sensitivity():
    a1 = random_element((1, 2), R01, seed=42)
    a2 = random_element((1, 2), R01, seed=42)
    a3 = random_element((1, 2), R01, seed=43)
    np.testing.assert_array_equal(a1.a, a2.a)
    assert operator_norm(a1.a - a3.a) > 1e-3


def test_sampler_rejects_bad_signatures():
    with pytest.raises(BadSignature):
        random_element((1, 2, 3), R01, seed=0)  # three ranks, two roots
    with pytest.raises(BadSignature):
        random_element((1, 1), validate_roots([1j, -1j]), seed=0, self_adjoint=True)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 100_000))
def test_partition_invariants_on_random_elements(seed):
    rng = rng_from(seed, 3)
    roots = validate_roots([(0, 1), (0, 1, 2), (1, 1j, -1)][seed % 3])
    n = roots.n
    m = int(rng.integers(2, 9))
    cuts = sorted(rng.integers(0, m + 1, size=n - 1).tolist()) if n > 1 else []
    ranks = tuple(int(r) for r in np.diff([0] + cuts + [m]))
    sa = roots.all_real and bool(rng.integers(0, 2))
    el = random_element(ranks, roots, seed=(seed, 9), self_adjoint=sa)
    part = spectral_resolution(el)
    a = el.a
    tol = 1e-9 * (1.0 + operator_norm(a))
    eye = np.eye(m)
    total = sum(part.members)
    recon = sum(r * e for r, e in zip(roots.roots, part.members))
    assert operator_norm(total - eye) <= tol
    assert operator_norm(recon - a) <= tol
    for i, e in enumerate(part.members):
        assert operator_norm(e @ e - e) <= tol
        assert operator_norm(e @ a - a @ e) <= tol
        if sa:
            assert operator_norm(e - e.conj().T) <= tol
        for j, f in enumerate(part.members):
            if i != j:
                assert operator_norm(e @ f) <= tol


def test_self_adjoint_samples_are_norm_bounded_by_largest_present_root():
    roots = validate_roots([0, 1, -2.5])
    for seed in range(15):
        rng = rng_from(seed, 4)
        m = int(rng.integers(2, 9))
        cuts = sorted(rng.integers(0, m + 1, size=2).tolist())
        ranks = tuple(int(r) for r in np.diff([0] + cuts + [m]))
        el = random_element(ranks, roots, seed=(seed, 5), self_adjoint=True)
        norm = operator_norm(el.a)
        assert norm <= max(abs(r) for r in roots.roots) + 1e-9
        present = [abs(r) for r, k in zip(roots.roots, ranks) if k > 0]
        assert abs(norm - max(present)) <= 1e-9


def test_serialization_roundtrip_element():
    el = random_element((2, 1), R01, seed=9)
    back = element_from_json(element_to_json(el))
    np.testing.assert_allclose(back.a, el.a, atol=1e-15)
    assert back.roots == el.roots


def test_serialization_roundtrip_roots():
    rs = validate_roots([0.5, -1.25, 1j * 0.75])
    assert roots_from_json(roots_to_json(rs)) == rs


# -- stacked sampling and the magnitude scale ------------------------------------

SAMPLER_SHAPES = [
    ((1, 1), (0, 1)),
    ((1, 2), (0, 1)),
    ((2, 1, 1), (0, 1, 2)),
    ((3, 0, 5), (-1, 0.5, 2)),
]


@pytest.mark.parametrize("ranks, roots", SAMPLER_SHAPES, ids=["m2", "m3", "m4", "m8"])
@pytest.mark.parametrize("self_adjoint", [False, True], ids=["general", "self-adjoint"])
def test_stacked_sampler_is_bit_identical_to_per_seed_reference(ranks, roots, self_adjoint):
    roots = validate_roots(list(roots))
    seeds = [(5, k, 1) for k in range(13)]
    a, residual, herm = random_elements(ranks, roots, seeds, self_adjoint=self_adjoint)
    assert a.shape == (13, sum(ranks), sum(ranks))
    for j, seed in enumerate(seeds):
        ref = reference.random_element(ranks, roots, seed, self_adjoint=self_adjoint)
        one = random_element(ranks, roots, seed=seed, self_adjoint=self_adjoint)
        for el in (one, ref):
            assert el.a.tobytes() == a[j].tobytes()
            assert el.residual == residual[j]
            assert el.self_adjoint == herm[j]
        assert one.a.strides == ref.a.strides  # same memory layout, not only the same numbers
    # element j does not depend on the rest of its stack
    part, _, _ = random_elements(ranks, roots, seeds[7:2:-2], self_adjoint=self_adjoint)
    for j, k in enumerate(range(7, 2, -2)):
        assert part[j].tobytes() == a[k].tobytes()


@pytest.mark.parametrize("ranks", [(4, 0), (0, 3)])
def test_stacked_sampler_central_signature(ranks):
    roots = validate_roots([2.5, -1.0])
    a, residual, herm = random_elements(ranks, roots, [(1, k) for k in range(5)])
    ref = reference.random_element(ranks, roots, (1, 0))
    for j in range(5):
        assert a[j].tobytes() == ref.a.tobytes()
        assert residual[j] == ref.residual and herm[j]


def test_stacked_sampler_raises_for_the_first_failing_seed():
    roots = validate_roots([0, 1, 2])
    ranks = (1, 2, 1)
    seeds = [(8, k) for k in range(11)]
    refs = [reference.random_element(ranks, roots, s) for s in seeds]
    scales = [float(eval_defining_poly(el.a, roots)[1]) for el in refs]
    ratios = np.array([el.residual / sc for el, sc in zip(refs, scales)])
    first = int(np.argmax(ratios))
    assert 0 < first < len(seeds) - 1  # a bad element in the middle of the stack
    # squeeze the tolerance between the largest ratio and the ones below it
    tol = 0.5 * (ratios[first] + np.max(np.delete(ratios, first)))
    with pytest.raises(NotAlgebraic) as err:
        random_elements(ranks, roots, seeds, cfg=ToleranceConfig(residual_tol=tol))
    assert err.value.residual == refs[first].residual
    assert err.value.tol == tol * scales[first]


def test_certify_stack_reports_the_first_bad_element():
    nil = np.array([[0, 1], [0, 0]], dtype=complex)  # p(nil) = nil^2 - nil = -nil
    stack = np.stack([np.diag([1.0, 0.0]), UPPER, 2 * nil, np.eye(2), nil]).astype(complex)
    with pytest.raises(NotAlgebraic) as err:
        _certify_stack(stack, R01, ToleranceConfig())
    assert err.value.residual == 2.0
    residual, herm = _certify_stack(stack[[0, 1, 3]], R01, ToleranceConfig())
    assert list(herm) == [True, False, True]
    bad = stack.copy()
    bad[3, 0, 1] = np.nan
    with pytest.raises(MagnitudeOverflow, match="element 3"):
        _certify_stack(bad, R01, ToleranceConfig())


def test_magnitude_is_the_written_out_product():
    roots = validate_roots([0.5, -1.25, 1j * 0.75])
    for norm in (0.0, 0.3, 7.25, 1e50):
        want = 1.0
        for r in roots.roots:
            want *= norm + abs(r)
        assert roots.magnitude(norm) == want
    norms = np.array([0.0, 0.3, 7.25, 1e50])
    assert roots.magnitude(norms).tobytes() == np.array([roots.magnitude(x) for x in norms]).tobytes()


@pytest.mark.parametrize("norm", [1e200, math.inf, math.nan, np.array([1.0, 1e160])])
def test_magnitude_overflow_raises(norm):
    with pytest.raises(MagnitudeOverflow):
        validate_roots([0, 1]).magnitude(norm)


def test_certify_rejects_an_overflowing_scale():
    # the scale (1e200)(2e200) overflows; it used to make the tolerance inf and
    # let a NaN residual through
    with pytest.raises(CertificationError):
        certify([[1e200, 1e160], [0, 0]], validate_roots([0, 1e200]))


def test_certify_fails_a_nan_residual(monkeypatch):
    value, scale, norm = eval_defining_poly(np.diag([1.0, 0.0])[None], R01)
    inf_value = np.zeros_like(value)
    inf_value[0, 0, 0] = np.inf  # its largest singular value comes out NaN
    monkeypatch.setattr(algebraic, "eval_defining_poly", lambda a, roots: (inf_value, scale, norm))
    with pytest.raises(NotAlgebraic) as err:
        certify(np.diag([1.0, 0.0]), R01)
    assert math.isnan(err.value.residual)


def test_sampler_rejects_roots_too_large_to_certify():
    with pytest.raises(MagnitudeOverflow):
        random_elements((1, 1), validate_roots([0, 1e200]), [0, 1])
