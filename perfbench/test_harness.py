"""Tests of the benchmark harness itself (not of the program).

Run from the repository root:  python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


# -- tail percentile rule --------------------------------------------------------------


@pytest.mark.parametrize("n, value, pct, above", [
    (6, 5, 100.0, 0),      # too few samples: the maximum
    (19, 18, 100.0, 0),
    (20, 9, 50.0, 10),     # the median is the first rung with ten samples above
    (39, 19, 50.0, 19),
    (40, 29, 75.0, 10),
    (199, 179, 90.0, 19),
    (200, 189, 95.0, 10),
    (1000, 989, 99.0, 10),
    (10_000, 9989, 99.9, 10),
])
def test_tail_rule(n, value, pct, above):
    xs = list(range(n))[::-1]  # order of arrival must not matter
    assert run.tail_latency(xs) == (value, pct, above)


def test_tail_rule_rejects_empty():
    with pytest.raises(ValueError):
        run.tail_latency([])


# -- per-slot statistics --------------------------------------------------------------


def test_slot_metrics_arithmetic():
    # per slot, the median over rounds; then the metrics over the slots
    walls = [[0.5, 0.4, 9.0], [1.0, 1.0, 1.1], [2.0, 1.5, 2.5]]
    cpus = [[0.25, 0.25, 0.25], [1.0, 5.0, 0.5], [1.75, 1.75, 0.0]]
    assert run.slot_metrics(walls, cpus) == {
        "ops_per_s": 3 / 3.5, "latency_p50_s": 1.0, "latency_tail_s": 2.0, "cpu_s_per_op": 1.0}
    # one round: each sample is its slot's median; p90 by nearest rank over 20 slots
    twenty = [[float(v)] for v in range(20, 0, -1)]
    got = run.slot_metrics(twenty, twenty)
    assert got["latency_tail_s"] == 18.0 and got["latency_p50_s"] == 10.5


def test_clock_probe_converts_to_reference_seconds():
    import clock

    probe = clock.ClockProbe()
    assert probe._work() == probe._work()  # fixed work
    assert probe.time() > 0.0
    assert probe.factor(2 * clock.REFERENCE_S) == 0.5


# -- self-time arithmetic ----------------------------------------------------------------


def test_self_time_on_synthetic_span_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    def leaf():
        tick(2.0)

    def boom():
        tick(0.5)
        raise RuntimeError("expected")

    leaf_t = tracer.wrap("linalg.svd", leaf)
    boom_t = tracer.wrap("linalg.solve", boom)

    def middle():
        tick(1.0)
        leaf_t()
        leaf_t()
        try:
            boom_t()
        except RuntimeError:
            pass
        tick(0.25)

    middle_t = tracer.wrap("algebraic.certify", middle)
    leaf_t()  # outside any operation: not recorded
    with tracer.op({"op": 0, "kind": "element", "m": 2, "roots": "0,1", "method": None}):
        tick(3.0)
        middle_t()
        tick(0.75)

    edges = {(p, n): rec for (_, p, n), rec in tracer.edges.items()}
    assert edges[("op", "algebraic.certify")] == [1, 5.75, 1.25, 0]
    assert edges[("algebraic.certify", "linalg.svd")] == [2, 4.0, 4.0, 0]
    assert edges[("algebraic.certify", "linalg.solve")] == [1, 0.5, 0.5, 1]
    (root,) = tracer.roots
    assert root["wall_s"] == 9.5 and root["unattributed_s"] == 3.75
    layers = tracer.layer_self()
    assert layers["algebraic"] == 1.25 and layers["linalg"] == 4.5
    assert layers["unattributed"] == 3.75
    assert sum(layers.values()) == root["wall_s"]


# -- traced and untraced runs agree ---------------------------------------------------------


def _small_ops(workdir: Path):
    ops = workloads.elements_round(7, 0, workdir)[:4]
    connect = [op for op in workloads.connect_round(7, 100, workdir) if op.m == 2]
    return ops + connect[:8]


def test_traced_reports_equal_untraced_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lib = run.import_program(REPO / "src")
    ops = _small_ops(tmp_path)
    plain = run.run_pass(lib, ops)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.run_pass(lib, ops, tracer)
        finally:
            tracer.uninstall()
        assert [t[2] for t in traced] == [p[2] for p in plain]
        assert all(t[2] for t in traced)
        counts.append({name: rec[0] for name, rec in tracer.totals().items()})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main"] == 8 and counts[0]["algebraic.certify"] > 0
    # uninstall restored every binding
    assert lib.algebraic.certify.__module__ == "algpaths.algebraic"
    assert not hasattr(lib.algebraic.certify, "__wrapped__")


# -- a failing check shows up in the result -------------------------------------------------


def test_one_failing_check_raises_failed_frac(monkeypatch, capsys):
    import checks

    real = checks.check_element
    monkeypatch.setattr(checks, "check_element",
                        lambda op, result: ["injected"] if op.index == 3 else real(op, result))
    monkeypatch.chdir(REPO)
    for var in run.BLAS_THREAD_VARS:  # main() sets them; restore them afterwards
        monkeypatch.setenv(var, "1")
    assert run.main(["--workload", "elements", "--seed", "5", "--seconds", "0.01"]) == 0
    *_, info_line, result_line = capsys.readouterr().out.strip().splitlines()
    result = json.loads(result_line)
    info = json.loads(info_line)["info"]
    assert result["failed"] == 1 and result["correct"] is False
    assert result["attempted"] == len(workloads.ELEMENT_SIZES) * len(workloads.ELEMENT_ROOTS)
    assert info["failed_frac"] == 1 / result["attempted"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


# -- golden comparison rules and the benchmark definition -----------------------------------


def test_golden_compare_rules():
    want = {"kind": "exp", "degree": 2, "x": [1.0, 2.0], "certificate": 1e-15}
    assert golden.compare(want, dict(want, x=[1.0 + 1e-9, 2.0], certificate=3e-15)) == []
    assert golden.compare(want, dict(want, degree=3))
    assert golden.compare(want, dict(want, kind="polygonal"))
    assert golden.compare(want, dict(want, x=[1.0, 2.1]))
    assert golden.compare(want, dict(want, x=[1.0]))


def test_benchmark_json_matches_the_harness():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.per_layer_unit(name)) for name in run.per_layer_names()]
