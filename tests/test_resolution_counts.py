"""Each operation resolves every element it is handed exactly once.

``spectral_resolution`` is wrapped with a counter in every ``algpaths``
module that binds it, so a resolution counts whichever module calls it.
One resolution takes one SVD, stacked over every partition invariant; the
members' ranks come from their traces.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

from algpaths import algebraic
from algpaths.algebraic import certify, random_element, validate_roots
from algpaths.cli import main
from algpaths.components import line_direction, resolve
from algpaths.errors import NotSameComponent
from algpaths.matkernel import operator_norm
from algpaths.paths import (
    connect_exp_global,
    connect_exp_local,
    connect_polygonal,
    connect_selfadjoint,
    min_degree_search,
)
from algpaths.seeding import rng_from

R01 = validate_roots([0, 1])
R012 = validate_roots([0, 1, 2])


@pytest.fixture
def resolutions(monkeypatch):
    calls = []
    orig = algebraic.spectral_resolution

    def counted(*args, **kwargs):
        calls.append(args[0])
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "algpaths" and getattr(mod, "spectral_resolution", None) is orig:
            monkeypatch.setattr(mod, "spectral_resolution", counted)
    return calls


def _near_pair(roots, ranks, seed):
    a = random_element(ranks, roots, seed=seed)
    rng = rng_from(seed, 99)
    z = rng.standard_normal((a.dim, a.dim)) + 1j * rng.standard_normal((a.dim, a.dim))
    z *= 0.05 / (np.linalg.norm(z) * (1.0 + operator_norm(a.a)))
    g = np.eye(a.dim, dtype=complex) + z
    return a, certify(np.linalg.solve(g.T, (g @ a.a).T).T, roots)


def _far_pair(ranks, self_adjoint=False):
    a = random_element(ranks, R012, seed=(5, 1), self_adjoint=self_adjoint)
    b = random_element(ranks, R012, seed=(5, 2), self_adjoint=self_adjoint)
    return a, b


@pytest.mark.parametrize("build", [
    lambda: connect_exp_local(*_near_pair(R012, (1, 2, 1), 7)),
    lambda: connect_exp_global(*_far_pair((1, 2, 1))),
    lambda: connect_selfadjoint(*_far_pair((1, 2, 1), self_adjoint=True)),
    lambda: connect_polygonal(*_far_pair((1, 2, 1))),
    lambda: min_degree_search(*_far_pair((1, 1, 1)), d_max=2, budget=2),
], ids=["exp-local", "exp-global", "selfadjoint", "polygonal", "mindeg"])
def test_constructors_resolve_each_endpoint_once(build, resolutions):
    build()
    assert len(resolutions) == 2


@pytest.mark.parametrize("roots", [(3,), (0, 1), (0, 1, 2), (0, 1, 2.5, -1.5)])
@pytest.mark.parametrize("self_adjoint", [False, True])
def test_resolve_takes_one_svd(roots, self_adjoint, monkeypatch):
    roots = validate_roots(roots)
    ranks = tuple(range(1, roots.n + 1))
    el = random_element(ranks, roots, seed=6, self_adjoint=True)
    # a Hermitian element resolves in either mode; the flag decides which invariants are checked
    el = dataclasses.replace(el, self_adjoint=self_adjoint)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    part, sig = resolve(el)
    n, m = roots.n, el.dim
    invariants = 2 * n + n * (n - 1) + 2 + (n if self_adjoint else 0)
    assert calls == [(1 + invariants, m, m)]
    assert part.self_adjoint == self_adjoint and sig.ranks == ranks


def test_component_mismatch_resolves_each_endpoint_once(resolutions):
    a = random_element((1, 1), R01, seed=1)
    b = random_element((0, 2), R01, seed=2)
    with pytest.raises(NotSameComponent, match=r"signatures \(1, 1\) and \(0, 2\) differ"):
        connect_exp_global(a, b)
    assert len(resolutions) == 2


def test_antipodal_polygonal_pair_resolves_its_midpoint_once(resolutions):
    a = certify(np.diag([1.0, 0.0]).astype(complex), R01)
    b = certify(np.diag([0.0, 1.0]).astype(complex), R01)
    path = connect_polygonal(a, b)
    assert len(resolutions) == 3  # a, b and the one midpoint
    assert resolutions[2] is path.breakpoints[2]


def test_line_direction_resolves_once(resolutions):
    line_direction(random_element((1, 2, 1), R012, seed=3))
    assert len(resolutions) == 1


def test_cli_decompose_resolves_once(resolutions, tmp_path, capsys):
    el = random_element((1, 2), R01, seed=4)
    entries = [[float(z.real), float(z.imag)] for z in el.a.reshape(-1)]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": el.dim, "entries": entries}))
    assert main(["decompose", "--a", str(path), "--roots", "0,1"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["signature"]["ranks"] == [1, 2]
    assert len(resolutions) == 1
