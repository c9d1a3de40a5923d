"""Command-line interface: reports, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import algpaths
from algpaths.algebraic import certify, defining_poly_value, random_element, validate_roots
from algpaths.components import ComponentSignature
from algpaths.cli import EXIT_CERTIFICATION, EXIT_PRECONDITION, EXIT_USAGE, main
from algpaths.paths import ExpSimilarityPath
from algpaths.seeding import haar_unitary, rng_from
from algpaths.serialize import path_to_json


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _matrix(entries):
    a = np.asarray(entries, dtype=complex)
    return {
        "dim": a.shape[0],
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


@pytest.fixture
def proj_pair(tmp_path):
    a = _write(tmp_path / "a.json", _matrix([[1, 0], [0, 0]]))
    b = _write(tmp_path / "b.json", _matrix([[1, 0.5], [0, 0]]))
    return a, b


def test_sample_and_decompose_roundtrip(tmp_path):
    out = tmp_path / "el.json"
    assert main(["sample", "--roots", "0,1", "--sig", "1,2", "--seed", "7",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["tool"] == "algpaths" and rep["version"]
    out2 = tmp_path / "part.json"
    assert main(["decompose", "--a", str(out), "--out", str(out2)]) == 0
    part = json.loads(out2.read_text())["result"]
    assert part["signature"]["ranks"] == [1, 2]
    assert part["worst_residual"] <= 1e-9


def test_connect_exp_local_matches_hand_generator(tmp_path, proj_pair, capsys):
    a, b = proj_pair
    assert main(["connect", "--a", a, "--b", b, "--roots", "0,1",
                 "--method", "exp-local"]) == 0
    rep = json.loads(capsys.readouterr().out)
    gen = rep["result"]["path"]["generators"][0]["entries"]
    assert gen == [[0.0, 0.0], [-0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]


def test_connect_then_verify(tmp_path, proj_pair):
    a, b = proj_pair
    out = tmp_path / "path.json"
    assert main(["connect", "--a", a, "--b", b, "--roots", "0,1",
                 "--method", "polygonal", "--out", str(out)]) == 0
    assert main(["verify", "--path", str(out), "--roots", "0,1"]) == 0


@pytest.mark.parametrize("method, self_adjoint", [("exp-global", False), ("selfadjoint", True)])
def test_connect_exponential_methods_then_verify(tmp_path, capsys, method, self_adjoint):
    files = []
    for seed in (1, 2):
        out = tmp_path / f"e{seed}.json"
        argv = ["sample", "--roots", "0,1,2", "--sig", "1,2,1", "--seed", str(seed), "--out", str(out)]
        assert main(argv + ["--self-adjoint"] * self_adjoint) == 0
        files.append(str(out))
    report = tmp_path / "path.json"
    assert main(["connect", "--a", files[0], "--b", files[1], "--method", method, "--seed", "3",
                 "--out", str(report)]) == 0
    result = json.loads(report.read_text())["result"]
    assert result["path"]["kind"] == "exp" and result["path"]["self_adjoint_mode"] is self_adjoint
    assert result["certificate"]["endpoint_error"] <= 1e-9
    assert main(["verify", "--path", str(report)]) == 0
    verified = json.loads(capsys.readouterr().out)["result"]
    assert verified["kind"] == "exponential" and (verified["worst_hermiticity"] is not None) is self_adjoint


def test_self_adjoint_sample_over_non_real_roots(tmp_path, capsys):
    # rank 0 at i: a Hermitian sample, which connects and distance-scans in self-adjoint mode
    files = []
    for seed in (0, 1):
        out = tmp_path / f"sa{seed}.json"
        assert main(["sample", "--roots", "1,1j,-1", "--sig", "1,0,2", "--seed", str(seed),
                     "--self-adjoint", "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["self_adjoint"] is True
        files.append(str(out))
    report = tmp_path / "path.json"
    assert main(["connect", "--a", files[0], "--b", files[1], "--method", "selfadjoint",
                 "--out", str(report)]) == 0
    assert main(["verify", "--path", str(report)]) == 0
    assert main(["distance", "--roots", "1,1j,-1", "--sig", "1,0,2", "--sig2", "2,0,1", "--seed", "0",
                 "--budget", "5", "--self-adjoint"]) == 0
    capsys.readouterr()
    # a nonzero rank at i names no self-adjoint element (exit 3), in either command
    for argv in (["sample", "--sig", "1,1,1"], ["distance", "--sig", "1,1,1", "--sig2", "1,0,2", "--budget", "5"]):
        assert main(argv + ["--roots", "1,1j,-1", "--seed", "0", "--self-adjoint"]) == EXIT_PRECONDITION
        assert "rank 0 at the non-real root 1j, not 1" in capsys.readouterr().err


def test_mindeg_min_motion_holds_in_general_mode(tmp_path, capsys):
    # the degree-1 segment from diag(1, 0) to itself does not move
    e10 = _write(tmp_path / "e10.json", _matrix([[1, 0], [0, 0]]))
    assert main(["mindeg", "--a", e10, "--b", e10, "--roots", "0,1", "--seed", "0", "--dmax", "3",
                 "--budget", "8", "--min-motion", "0.1"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["degree"] == 2 and result["residual_by_degree"]["1"] == float("inf")


def test_mindeg_reports_degree(tmp_path, proj_pair, capsys):
    a, b = proj_pair
    assert main(["mindeg", "--a", a, "--b", b, "--roots", "0,1", "--seed", "0",
                 "--dmax", "3", "--budget", "4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["degree"] == 1
    out = tmp_path / "poly.json"
    assert main(["connect", "--a", a, "--b", b, "--roots", "0,1", "--method", "poly",
                 "--dmax", "3", "--budget", "4", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["result"]["path"]["coeffs"]) == 2
    assert main(["verify", "--path", str(out), "--roots", "0,1"]) == 0
    capsys.readouterr()
    # a polynomial path carries no root system of its own
    assert main(["verify", "--path", str(out)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "algpaths: precondition: polynomial paths need the root system" in err and "Traceback" not in err


def test_verify_of_an_exponential_path_with_no_generators_is_the_constant_path(tmp_path, capsys):
    # used to end in an IndexError traceback
    base = random_element(ComponentSignature((1, 2)), validate_roots([0, 1]), seed=4)
    file = _write(tmp_path / "p.json", path_to_json(ExpSimilarityPath(base=base, generators=())))
    assert main(["verify", "--path", file]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    # every sample is the base, so the worst residual is the Frobenius norm of p(a),
    # which bounds the certified operator norm above
    residual = np.linalg.norm(defining_poly_value(base.a, base.roots))
    assert result["samples"] == 100 and result["worst_membership"] == residual >= base.residual > 0.0


def test_distance_json_and_csv(tmp_path):
    out = tmp_path / "scan.json"
    args = ["distance", "--roots", "0,1", "--sig", "1,2", "--sig2", "2,1",
            "--seed", "3", "--budget", "20", "--self-adjoint"]
    assert main(args + ["--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["best_distance"] >= 1.0 - 1e-6
    csv_out = tmp_path / "scan.csv"
    assert main(args + ["--format", "csv", "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "sig1,sig2,roots,m,seed,budget,best_distance,bound"
    assert lines[1].startswith("1:2,2:1,")
    # batches append rows without repeating the header
    assert main(args + ["--format", "csv", "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert len(lines) == 3 and lines[1] == lines[2]


def test_an_unwritable_out_is_a_precondition(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    assert main(["sample", "--roots", "0,1", "--sig", "1,1", "--seed", "0", "--out", str(missing)]) \
        == EXIT_PRECONDITION
    assert capsys.readouterr().err.startswith(f"algpaths: precondition: cannot write {missing}: ")
    # the scan's CSV rows are appended, here to a directory
    assert main(["distance", "--roots", "0,1", "--sig", "1,1", "--sig2", "0,2", "--seed", "0",
                 "--budget", "2", "--format", "csv", "--out", str(tmp_path)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err.startswith(f"algpaths: precondition: cannot write {tmp_path}: ")
    assert not missing.parent.exists() and os.listdir(tmp_path) == []


def test_distance_csv_goes_to_stdout_and_writes_complex_roots(capsys):
    assert main(["distance", "--roots=1,1j,-1", "--sig", "1,1,0", "--sig2", "0,1,1", "--seed", "0",
                 "--budget", "3", "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "sig1,sig2,roots,m,seed,budget,best_distance,bound"
    assert row.split(",")[2] == "1.0:0.0+1.0j:-1.0"


def test_distance_signatures_of_different_dimensions_are_a_precondition(capsys):
    # each signature takes the dimension its own ranks sum to, so the scan's
    # own check names the mismatch, not a rank sum against the other's dimension
    assert main(["distance", "--roots", "0,1", "--sig", "1,2", "--sig2", "2,2", "--seed", "0",
                 "--budget", "5"]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == "algpaths: precondition: signatures live in different dimensions\n"


def test_threads_must_be_a_positive_integer(capsys):
    args = ["distance", "--roots", "0,1", "--sig", "1,1", "--sig2", "0,2", "--seed", "3",
            "--budget", "2"]
    for bad in ("abc", "0", "-2", "1.5"):
        with pytest.raises(SystemExit) as err:
            main(args + ["--threads", bad])
        assert err.value.code == EXIT_USAGE
        assert "--threads" in capsys.readouterr().err
    assert main(args + ["--threads", "1"]) == 0


def test_threads_accepts_only_one(tmp_path, capsys):
    # the scan runs in one process; --threads 1 stays, as every scan report's
    # config carries it, and any other value is a usage error
    args = ["distance", "--roots", "0,1", "--sig", "1,2", "--sig2", "2,1", "--seed", "3",
            "--budget", "20"]
    with pytest.raises(SystemExit) as err:
        main(args + ["--threads", "2"])
    assert err.value.code == EXIT_USAGE
    assert "invalid choice: 2" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["distance", "--help"])
    assert err.value.code == 0
    assert "the scan runs in one process" in " ".join(capsys.readouterr().out.split())
    outs = []
    for i, extra in enumerate((["--threads", "1"], [])):
        out = tmp_path / f"r{i}.json"
        assert main(args + extra + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    config = _write(tmp_path / "config.json", json.loads(outs[0])["config"])
    assert json.loads(outs[0])["config"]["threads"] == 1
    assert main(["distance", "--config", config, "--out", str(tmp_path / "r2.json")]) == 0
    outs.append((tmp_path / "r2.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_reports_are_byte_identical_for_fixed_seed(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["distance", "--roots", "0,1", "--sig", "1,1", "--sig2", "0,2",
                     "--seed", "11", "--budget", "10", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["decompose", "--a", "{el}"],
    ["line", "--a", "{el}"],
    ["connect", "--a", "{el}", "--b", "{el}", "--method", "polygonal"],
    ["mindeg", "--a", "{el}", "--b", "{el}", "--seed", "0", "--dmax", "1"],
    ["verify", "--path", "{exp}"],
    ["verify", "--path", "{polygonal}"],
], ids=["decompose", "line", "connect", "mindeg", "verify-exp-global", "verify-polygonal"])
def test_roots_next_to_an_element_file_must_be_its_roots(tmp_path, capsys, argv):
    # the file's own roots were used while the report echoed the flag's; verify
    # of a path file certified over the flag's roots instead
    files = {name: str(tmp_path / f"{name}.json") for name in ("el", "b", "exp", "polygonal")}
    for name, seed in (("el", "0"), ("b", "1")):
        assert main(["sample", "--roots", "0,1", "--sig", "1,1", "--seed", seed, "--out", files[name]]) == 0
    for name, method in (("exp", "exp-global"), ("polygonal", "polygonal")):
        assert main(["connect", "--a", files["el"], "--b", files["b"], "--method", method, "--out", files[name]]) == 0
    argv = [arg.format(**files) for arg in argv]
    holds = "a path" if argv[0] == "verify" else "an element"
    for roots in ("3,4", "1,0", "0,1,2"):  # other roots, the same ones in another order, and more
        assert main(argv + ["--roots", roots]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert f"holds {holds} over the roots (0j, (1+0j))" in err and "--roots gives" in err
    assert main(argv + ["--roots", "0,1"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["roots"] == "0,1"


def test_line_command(tmp_path, capsys):
    a = _write(tmp_path / "m.json", _matrix([[0, 0], [0, 1]]))
    assert main(["line", "--a", a, "--roots", "0,1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["direction"]["entries"] == [[0.0, 0.0], [1.0, 0.0], [0.0, -0.0], [0.0, -0.0]]


def test_line_command_with_no_certified_candidate_fails_certification(tmp_path, capsys, monkeypatch):
    from algpaths import components

    monkeypatch.setattr(components, "_vanishing_certificates",
                        lambda coeffs, bounds, roots, cfg: (np.array([False]), np.array([1.0]), np.array([0])))
    a = _write(tmp_path / "m.json", _matrix([[0, 0], [0, 1]]))
    assert main(["line", "--a", a, "--roots", "0,1"]) == EXIT_CERTIFICATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "algpaths: certification failed: no candidate direction certified" in captured.err
    assert "Traceback" not in captured.err


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfgfile = _write(tmp_path / "cfg.json", {"roots": "0,1", "sig": "1,1", "seed": 5})
    assert main(["sample", "--config", str(cfgfile), "--roots", "0,1", "--sig", "1,1",
                 "--seed", "5"]) == 0
    baseline = capsys.readouterr().out
    # flags win over the config file: different seed via flag changes the draw
    cfgfile2 = _write(tmp_path / "cfg2.json", {"seed": 999})
    assert main(["sample", "--config", str(cfgfile2), "--roots", "0,1", "--sig", "1,1",
                 "--seed", "5"]) == 0
    assert capsys.readouterr().out == baseline


def test_config_file_supplies_required_flags(tmp_path, capsys):
    assert main(["sample", "--roots", "0,1", "--sig", "1,1", "--seed", "5"]) == 0
    explicit = capsys.readouterr().out
    cfgfile = _write(tmp_path / "cfg.json", {"roots": "0,1", "sig": "1,1", "seed": 5})
    for argv in (["sample", "--config", cfgfile], ["sample", f"--config={cfgfile}"], ["sample", "--conf", cfgfile]):
        assert main(argv) == 0
        assert capsys.readouterr().out == explicit


def test_config_values_get_their_flags_type_and_check(tmp_path, capsys):
    args = ["distance", "--roots", "0,1", "--sig", "1,1", "--sig2", "0,2", "--seed", "0",
            "--budget", "4"]
    for key, bad in (("threads", "abc"), ("threads", 0), ("threads", 2), ("budget", 0)):
        cfgfile = _write(tmp_path / "bad.json", {key: bad})
        with pytest.raises(SystemExit) as err:
            main(args + ["--config", cfgfile])
        assert err.value.code == EXIT_USAGE
        assert f"--{key}" in capsys.readouterr().err
    cfgfile = _write(tmp_path / "good.json", {"threads": 1, "budget": 5})
    assert main(args[:-2] + ["--config", cfgfile]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["threads"] == 1 and config["budget"] == 5
    # an explicit flag wins, also when abbreviated
    assert main(args[:-2] + ["--config", cfgfile, "--bud", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["budget"] == 4


def test_config_keys_that_name_no_flag_are_a_usage_error(tmp_path, capsys):
    args = ["sample", "--roots", "0,1", "--sig", "1,1", "--seed", "0"]
    for keys, named in (({"rank_tol": 0.5, "tolx": 3}, "rank_tol"), ({"margin": 0.5}, "margin"),
                        ({"func": "x"}, "func")):
        cfgfile = _write(tmp_path / "cfg.json", keys)
        with pytest.raises(SystemExit) as err:
            main(args + ["--config", cfgfile])
        assert err.value.code == EXIT_USAGE
        assert f"--config key {named!r} names no flag of sample" in capsys.readouterr().err
    # None and false leave a flag unset; a report's config, command included, loads as it is
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    cfgfile = _write(tmp_path / "cfg.json", {**report["config"], "tol": None, "self_adjoint": False})
    assert main(args + ["--config", cfgfile]) == 0
    assert json.loads(capsys.readouterr().out) == report


def test_the_margin_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sample", "--roots", "0,1", "--sig", "1,1", "--seed", "0", "--margin", "0.5"])
    assert err.value.code == EXIT_USAGE
    assert "unrecognized arguments: --margin 0.5" in capsys.readouterr().err


def test_exit_code_precondition(tmp_path):
    a = _write(tmp_path / "a.json", _matrix([[1, 0], [0, 0]]))
    b = _write(tmp_path / "b.json", _matrix([[1, 0], [0, 1]]))
    code = main(["connect", "--a", a, "--b", b, "--roots", "0,1", "--method", "exp-local"])
    assert code == EXIT_PRECONDITION


def test_exp_local_beyond_its_margin_points_to_the_global_constructor(tmp_path, capsys):
    a = _write(tmp_path / "a.json", _matrix([[1, 0], [0, 0]]))
    b = _write(tmp_path / "b.json", _matrix([[1, 2], [0, 0]]))  # w = [[1, -2], [0, 1]]
    args = ["connect", "--a", a, "--b", b, "--roots", "0,1", "--method"]
    assert main(args + ["exp-local"]) == EXIT_PRECONDITION
    assert "||w - 1|| = 2.000000 >= margin 0.99; use the global constructor" in capsys.readouterr().err
    assert main(args + ["exp-global"]) == 0


def test_a_rank_without_a_trace_certificate_fails_certification(tmp_path, capsys):
    # u (diag(0, 0, 1, 1) + 1e9 n) u*: an exact idempotent whose computed
    # spectral idempotents pass the resolution tolerance with idempotency
    # defects near 1e3, which certify no rank, so the resolution refuses them
    rng = rng_from(0, 23)
    x = np.diag([0, 0, 1, 1]).astype(complex)
    x[:2, 2:] = 1e9 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    u = haar_unitary(4, [rng])[0]
    a = _write(tmp_path / "shear.json", _matrix(u @ x @ u.conj().T))
    assert main(["decompose", "--a", a, "--roots", "0,1"]) == EXIT_CERTIFICATION
    assert "is not below 1/4: member 0 is not an idempotent" in capsys.readouterr().err


@pytest.mark.parametrize("roots, seeds", [("1e6,1000001", range(10)), ("1000,1000.0001", [3])])
def test_decompose_of_elements_over_translated_roots(tmp_path, capsys, roots, seeds):
    # the SVD rank threshold refused 9 of these 11 certified samples (exit 2)
    for seed in seeds:
        el = tmp_path / f"{seed}.json"
        assert main(["sample", "--roots", roots, "--sig", "2,2", "--seed", str(seed), "--out", str(el)]) == 0
        assert main(["decompose", "--a", str(el)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["signature"]["ranks"] == [2, 2]


def test_rank_tol_is_not_a_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["decompose", "--a", "x.json", "--roots", "0,1", "--rank-tol", "0.5"])
    assert err.value.code == EXIT_USAGE
    assert "unrecognized arguments: --rank-tol 0.5" in capsys.readouterr().err


def test_only_a_defective_generator_loads_scipy_linalg(tmp_path):
    # every connect method and the verify of each result run on numpy alone; the
    # expm of a defective (nilpotent Jordan) generator is the one use of scipy.linalg
    src = os.path.dirname(os.path.dirname(algpaths.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """if True:
        import json, sys
        import numpy as np
        from algpaths.algebraic import certify, validate_roots
        from algpaths.cli import main
        from algpaths.paths import ExpSimilarityPath
        from algpaths.serialize import element_from_json, path_to_json
        assert "scipy.linalg" not in sys.modules, "import algpaths.cli"
        for argv in (["sample", "--roots", "0,1,2", "--sig", "1,2,1", "--seed", "1", "--out", "a.json"],
                     ["sample", "--roots", "0,1,2", "--sig", "1,2,1", "--seed", "2", "--out", "b.json"],
                     ["sample", "--roots", "0,1,2", "--sig", "1,2,1", "--seed", "1", "--self-adjoint",
                      "--out", "sa_a.json"],
                     ["sample", "--roots", "0,1,2", "--sig", "1,2,1", "--seed", "2", "--self-adjoint",
                      "--out", "sa_b.json"],
                     ["decompose", "--a", "a.json", "--out", "d.json"],
                     ["line", "--a", "a.json", "--out", "l.json"],
                     ["distance", "--roots", "0,1", "--sig", "1,2", "--sig2", "2,1", "--seed", "0",
                      "--budget", "4", "--out", "s.json"]):
            assert main(argv) == 0
            assert "scipy.linalg" not in sys.modules, argv[0]
        a = element_from_json(json.load(open("a.json"))["result"]).a
        g = np.eye(4) + 0.05 * np.triu(np.ones((4, 4)), 1)  # a pair close enough for exp-local
        near = g @ a @ np.linalg.inv(g)
        json.dump({"dim": 4, "entries": [[z.real, z.imag] for z in near.ravel()]}, open("near.json", "w"))
        for method, pair in (("exp-local", ["--a", "a.json", "--b", "near.json", "--roots", "0,1,2"]),
                             ("exp-global", ["--a", "a.json", "--b", "b.json"]),
                             ("selfadjoint", ["--a", "sa_a.json", "--b", "sa_b.json"]),
                             ("polygonal", ["--a", "a.json", "--b", "b.json"]),
                             ("poly", ["--a", "a.json", "--b", "b.json", "--dmax", "2", "--budget", "4"])):
            verify = ["verify", "--path", method + ".json"] + (["--roots", "0,1,2"] if method == "poly" else [])
            for argv in (["connect", *pair, "--method", method, "--out", method + ".json"], verify):
                assert main(argv) == 0, argv
                assert "scipy.linalg" not in sys.modules, argv
        jordan = ExpSimilarityPath(base=certify(np.diag([1.0, 0.0]), validate_roots([0, 1])),
                                   generators=(0.1 * np.eye(2, k=1),))
        json.dump(path_to_json(jordan), open("jordan.json", "w"))
        assert main(["verify", "--path", "jordan.json"]) == 0
        assert "scipy.linalg" in sys.modules, "verify of a defective generator"
    """
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("obj, roots, message", [
    ({"foo": 1}, ["--roots", "0,1"], "holds neither an element nor a matrix"),
    (_matrix([[1, 0], [0, 0]]), [], "holds a bare matrix; pass --roots"),
])
def test_element_files_that_cannot_be_certified_are_a_precondition(tmp_path, capsys, obj, roots, message):
    a = _write(tmp_path / "a.json", obj)
    assert main(["decompose", "--a", a, *roots]) == EXIT_PRECONDITION
    assert message in capsys.readouterr().err


def test_exit_code_certification(tmp_path, capsys):
    a = _write(tmp_path / "a.json", _matrix([[1, 0], [0, 0]]))
    b = _write(tmp_path / "b.json", _matrix([[0, 0], [0, 1]]))
    search = ["--a", a, "--b", b, "--roots", "0,1", "--seed", "0",
              "--dmax", "2", "--budget", "2", "--self-adjoint", "--min-motion", "0.1"]
    for command in (["mindeg"], ["connect", "--method", "poly"]):
        assert main(command + search) == EXIT_CERTIFICATION
        assert json.loads(capsys.readouterr().out)["result"]["success"] is False


def test_polygonal_connect_whose_chains_stay_degenerate_fails_certification(proj_pair, capsys, monkeypatch):
    from algpaths import paths

    real = paths._segment_certificates

    def refuse(points, roots, cfg):
        ok, worst, bad = real(points, roots, cfg)
        return np.zeros_like(ok), worst, bad

    monkeypatch.setattr(paths, "_segment_certificates", refuse)
    a, b = proj_pair
    assert main(["connect", "--a", a, "--b", b, "--roots", "0,1", "--method", "polygonal"]) == EXIT_CERTIFICATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "algpaths: certification failed: subspace configurations stayed degenerate" in captured.err
    assert "Traceback" not in captured.err


def test_exit_code_usage():
    with pytest.raises(SystemExit) as err:
        main(["connect", "--method", "nope"])
    assert err.value.code == EXIT_USAGE


# Bad file contents are preconditions (exit 3) and bad tolerance flags usage
# errors (exit 64); each used to end in a traceback and exit 1.


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_matrix_file_is_a_precondition(tmp_path, proj_pair, capsys, bad):
    _, b = proj_pair
    a = _write(tmp_path / "bad.json", _matrix([[bad, 0], [0, 0]]))  # json writes NaN / Infinity
    code = main(["connect", "--a", a, "--b", b, "--roots", "0,1", "--method", "polygonal"])
    assert code == EXIT_PRECONDITION
    assert "finite" in capsys.readouterr().err


def test_wrong_entry_count_is_a_precondition(tmp_path, capsys):
    a = _write(tmp_path / "short.json", {"dim": 2, "entries": [[1.0, 0.0]] * 3})
    assert main(["decompose", "--a", a, "--roots", "0,1"]) == EXIT_PRECONDITION
    assert "needs 4 entries, got 3" in capsys.readouterr().err


def test_non_finite_polynomial_path_is_a_precondition(tmp_path, capsys):
    coeffs = [_matrix([[1, 0], [0, 0]]), _matrix([[float("nan"), 0], [0, 0]])]
    path = _write(tmp_path / "p.json", {"kind": "polynomial", "coeffs": coeffs,
                                        "certificate": 0.0, "self_adjoint": False})
    assert main(["verify", "--path", path, "--roots", "0,1"]) == EXIT_PRECONDITION
    assert "finite" in capsys.readouterr().err


def test_non_finite_root_is_a_precondition(capsys):
    # used to fail later as a certification error (exit 2)
    assert main(["sample", "--roots", "nan,1", "--sig", "1,1", "--seed", "0"]) == EXIT_PRECONDITION
    assert "roots must be finite" in capsys.readouterr().err


def test_unknown_path_kind_is_a_precondition(tmp_path, capsys):
    path = _write(tmp_path / "p.json", {"kind": "spiral"})
    assert main(["verify", "--path", path]) == EXIT_PRECONDITION
    assert "unknown path kind 'spiral'" in capsys.readouterr().err


_ONE = {"dim": 1, "entries": [[1.0, 0.0]]}


@pytest.mark.parametrize("command, obj", [
    ("decompose", {"dim": 1, "entries": [[1.0, 0.0, 3.0]]}),
    ("decompose", {"dim": 1, "entries": [["1", 0.0]]}),
    ("decompose", {"dim": "x", "entries": [[1.0, 0.0]]}),
    ("decompose", {"dim": 1, "entries": 5}),
    ("decompose", {"matrix": _ONE, "roots": [[1.0]]}),
    ("verify", {"kind": "exp"}),
    ("decompose", {"tool": "algpaths", "result": 5}),  # a report whose result is not an object
    ("verify", {"tool": "algpaths", "result": 5}),
])
def test_malformed_wire_files_are_a_precondition(tmp_path, capsys, command, obj):
    # each used to end in a traceback and exit 1
    file = _write(tmp_path / "bad.json", obj)
    argv = ["verify", "--path", file] if command == "verify" else ["decompose", "--a", file, "--roots", "0,1"]
    assert main(argv) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("algpaths: precondition: ") and "Traceback" not in err


@pytest.mark.parametrize("dim", [2.5, "2", True])
def test_a_matrix_dim_that_is_not_a_json_integer_is_a_precondition(tmp_path, capsys, dim):
    # 2.5 and "2" used to read as the 2x2 matrix diag(1, 0) through int(dim), True as [1], and exit 0
    entries = [[1.0, 0.0]] if dim is True else [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    a = _write(tmp_path / "a.json", {"dim": dim, "entries": entries})
    assert main(["decompose", "--a", a, "--roots", "0,1"]) == EXIT_PRECONDITION
    assert f"dim must be an integer >= 1, got {dim!r}" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["0,x", "", "1,,2"])
def test_malformed_roots_are_a_usage_error(tmp_path, proj_pair, capsys, bad):
    a, b = proj_pair
    cfgfile = _write(tmp_path / "cfg.json", {"roots": bad})
    for argv in (
        ["sample", "--roots", bad, "--sig", "1,1", "--seed", "0"],
        ["distance", "--roots", bad, "--sig", "1,1", "--sig2", "0,2", "--seed", "0"],
        ["connect", "--a", a, "--b", b, "--roots", bad, "--method", "polygonal"],
        ["connect", "--a", a, "--b", b, "--method", "polygonal", "--config", cfgfile],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        assert "argument --roots" in capsys.readouterr().err


def test_roots_starting_with_a_minus_sign_take_the_equals_form(capsys):
    # argparse reads "-1,1" after a space as a flag, so "--roots -1,1" has no
    # value: a usage error, as the help text and the README say
    args = ["--sig", "1,1", "--seed", "0"]
    with pytest.raises(SystemExit) as err:
        main(["sample", "--roots", "-1,1"] + args)
    assert err.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "argument --roots: expected one argument" in captured.err and "Traceback" not in captured.err
    assert main(["sample", "--roots=-1,1"] + args) == 0
    assert json.loads(capsys.readouterr().out)["config"]["roots"] == "-1,1"


@pytest.mark.parametrize("bad", ["1,x", "", "1,,2", "1.5,1"])
def test_malformed_signatures_are_a_usage_error(tmp_path, capsys, bad):
    cfgfile = _write(tmp_path / "cfg.json", {"sig2": bad})
    scan = ["distance", "--roots", "0,1", "--seed", "0"]
    for flag, argv in (
        ("--sig", ["sample", "--roots", "0,1", "--sig", bad, "--seed", "0"]),
        ("--sig", scan + ["--sig", bad, "--sig2", "0,2"]),
        ("--sig2", scan + ["--sig", "1,1", "--sig2", bad]),
        ("--sig2", scan + ["--sig", "1,1", "--sig2", "0,2", "--config", cfgfile]),
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        assert f"argument {flag}" in capsys.readouterr().err


def test_unreadable_input_files_are_a_precondition(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    listing = _write(tmp_path / "list.json", [1, 2])
    for argv, why in (
        (["decompose", "--a", missing], "cannot read"),
        (["verify", "--path", str(bad)], "cannot read"),
        (["sample", "--roots", "0,1", "--sig", "1,1", "--seed", "0", "--config", missing], "cannot read"),
        (["verify", "--path", listing], "does not hold a JSON object"),
    ):
        assert main(argv) == EXIT_PRECONDITION
        assert why in capsys.readouterr().err


def test_roots_are_echoed_as_given(capsys):
    assert main(["sample", "--roots", "0, 1+0j", "--sig", "1,1", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["roots"] == "0, 1+0j"


def test_verify_of_an_overflowing_exponential_path_is_a_certification_failure(tmp_path, capsys):
    # e^{800} overflows in the samples; this used to end in "SVD did not converge"
    base = certify(np.diag([1.0, 0.0]), validate_roots([0, 1]))
    path = ExpSimilarityPath(base=base, generators=(np.array([[0, 800], [800, 0]], dtype=complex),))
    file = _write(tmp_path / "p.json", path_to_json(path))
    assert main(["verify", "--path", file]) == EXIT_CERTIFICATION
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag, bad", [("--tol", "-1"), ("--tol", "nan"), ("--tol", "abc"),
                                       ("--cond", "0.5"), ("--cond", "nan"), ("--cond", "inf"),
                                       ("--cond", "x")])
def test_tolerance_flags_are_checked_by_the_parser(capsys, flag, bad):
    with pytest.raises(SystemExit) as err:
        main(["sample", "--roots", "0,1", "--sig", "1,1", "--seed", "0", flag, bad])
    assert err.value.code == EXIT_USAGE
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, bad", [
    ("sample", "--seed", "-1"), ("connect", "--seed", "-1"), ("distance", "--seed", "-1"),
    ("mindeg", "--seed", "-1"), ("suite", "--seed", "-1"), ("suite", "--samples", "-1"),
    ("connect", "--dmax", "0"), ("connect", "--budget", "0"), ("mindeg", "--dmax", "0"),
    ("mindeg", "--budget", "0"), ("distance", "--budget", "0"), ("suite", "--budget", "0"),
    ("connect", "--min-motion", "nan"), ("mindeg", "--min-motion", "-1"),
])
def test_count_seed_and_motion_flags_are_checked_by_the_parser(proj_pair, capsys, command, flag, bad):
    a, b = proj_pair
    argv = {
        "sample": ["sample", "--roots", "0,1", "--sig", "1,1", "--seed", "0"],
        "connect": ["connect", "--a", a, "--b", b, "--roots", "0,1", "--method", "poly"],
        "distance": ["distance", "--roots", "0,1", "--sig", "1,1", "--sig2", "0,2", "--seed", "0"],
        "mindeg": ["mindeg", "--a", a, "--b", b, "--roots", "0,1", "--seed", "0"],
        "suite": ["suite", "--samples", "0", "--budget", "1"],
    }[command]
    with pytest.raises(SystemExit) as err:
        main(argv + [flag, bad])
    assert err.value.code == EXIT_USAGE
    assert f"argument {flag}" in capsys.readouterr().err


def test_distance_takes_its_dimension_from_the_signature(capsys):
    args = ["distance", "--roots", "0,1", "--sig", "1,1", "--sig2", "0,2", "--seed", "0", "--budget", "2"]
    with pytest.raises(SystemExit) as err:
        main(args + ["--dim", "2"])
    assert err.value.code == EXIT_USAGE
    assert "unrecognized arguments: --dim 2" in capsys.readouterr().err
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["result"]["sig1"]["dim"] == 2


def test_suite_quick_run_deterministic_and_sensitive_to_tolerance(tmp_path, capsys):
    outs = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        assert main(["suite", "--seed", "1", "--samples", "6", "--budget", "20",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]
    rep = json.loads(outs[0])
    assert rep["result"]["all_passed"] is True
    assert len(rep["result"]["items"]) == 11
    # a corrupted tolerance makes certificates unattainable: a failed item
    # exits as a failed certificate does
    code = main(["suite", "--seed", "1", "--samples", "6", "--budget", "20",
                 "--tol", "1e-30", "--out", str(tmp_path / "bad.json")])
    capsys.readouterr()
    assert code == EXIT_CERTIFICATION
