#!/usr/bin/env python3
"""algpaths benchmark: one closed-loop caller per workload, one process.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py``): ``scan`` (CLI ``distance``), ``connect``
(CLI ``connect`` followed by CLI ``verify`` of its report), ``mindeg`` (CLI
``mindeg``, positive and negative) and ``elements`` (library chain per
element).  The caller sends the next operation only after the previous one
returned; inputs are generated before each round and every output is checked
independently after it, both outside the timed calls.  A run executes whole
rounds until the summed operation time reaches ``--seconds``.  BLAS runs one
thread, so a run keeps one core busy.

``--trace 0`` prints the end-to-end metrics.  Every timing is taken in
reference seconds: divided by the time of a fixed clock probe run next to it
(``clock.py``), so that the host's changes of speed cancel.  The metrics are
built from the median of each slot of the round (``slot_metrics``).

``--trace 1`` runs a fixed operation list (``TRACE_ROUNDS`` rounds), each
operation untraced and then traced, and prints the per-layer metrics: calls
and self time per operation for every boundary function, exact
per-operation counts, and the tracing overhead.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# numpy, scipy and the program are imported inside functions, after the set-up
# clock starts, so that set-up time includes their first import.
WORKLOADS = ("scan", "connect", "mindeg", "elements")
SETUP_PROBES = 3  # fresh processes, plus the run's own set-up: four samples
CLOCK_SAMPLES = 5  # clock probe runs whose median converts one set-up time
# Set-up (file reads, unmarshalling, loading shared libraries) follows the
# host's clock about half as strongly as the probe: over 182 fresh
# interpreters on the baseline host, the slope of log set-up time against
# log probe time was 0.39.  A set-up time is converted by the square root of
# the probe's factor; the full factor would overshoot.
SETUP_CLOCK_EXPONENT = 0.5
TRACE_ROUNDS = {"scan": 2, "connect": 2, "mindeg": 1, "elements": 40}
TAIL_BEYOND = 10
TAIL_PERMILLES = (500, 750, 900, 950, 990, 999)  # p50 ... p99.9, exact in integers

# One BLAS thread: one caller on one core.  On a small shared host a second
# BLAS thread measures the scheduler and the neighbours' load, not the program.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s_per_op": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# exact counts: name -> (op kind, traced function, unit: per op, or per op.data[unit])
COUNTS = {
    "spectral_resolution_per_connect": ("connect", "algebraic.spectral_resolution", None),
    "mat_exp_per_verify": ("verify", "matkernel.mat_exp", None),
    "svd_per_restart": ("distance", "linalg.svd", "restarts"),
    "solve_per_restart": ("distance", "linalg.solve", "restarts"),
    "kron_per_mindeg": ("mindeg", "linalg.kron", None),
}


# -- statistics ---------------------------------------------------------------------


def tail_latency(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Latency at the highest percentile of ``TAIL_PERMILLES`` that still has
    at least ``beyond`` samples above it (nearest-rank).

    Returns ``(value, percentile, samples above)``.  Below ``2 * beyond``
    samples not even the median qualifies, and the maximum is returned with
    percentile 100.  A fixed ladder keeps the chosen percentile the same when
    the sample count moves a little between runs.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for pm in reversed(TAIL_PERMILLES):
        idx = max(0, -(-pm * n // 1000) - 1)
        if n - 1 - idx >= beyond:
            return xs[idx], pm / 10.0, n - 1 - idx
    return xs[-1], 100.0, 0


def slot_metrics(walls, cpus) -> dict:
    """End-to-end timing metrics from per-slot samples.

    ``walls[s]`` and ``cpus[s]`` hold the wall and CPU times of slot ``s`` of
    the round (one fixed kind, method, size and roots) in every round of the
    run.  Each slot is summarised by its median over the rounds:

    - ``ops_per_s``: slots per round over the sum of the slots' medians;
    - ``latency_p50_s``: median of the slots' medians;
    - ``latency_tail_s``: 90th percentile (nearest rank) of the slots'
      medians, the slowest slot when a round has fewer than ten;
    - ``cpu_s_per_op``: mean of the slots' CPU-time medians.

    Summarising each slot first keeps an odd input or a stall in one round
    from moving the result, and keeps the mix of the round fixed.
    """
    wall = sorted(statistics.median(w) for w in walls)
    cpu = [statistics.median(c) for c in cpus]
    k = len(wall)
    return {
        "ops_per_s": k / sum(wall),
        "latency_p50_s": statistics.median(wall),
        "latency_tail_s": wall[-(-9 * k // 10) - 1],
        "cpu_s_per_op": sum(cpu) / k,
    }


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    return "frac" if name == "trace_overhead_frac" else "count"


def per_layer_names() -> list[str]:
    """Every metric a traced run prints, in order."""
    from tracing import span_names

    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s"]
    names += ["unattributed.self_s"] + [f"counts.{c}" for c in COUNTS] + ["trace_overhead_frac"]
    return names


# -- program access -------------------------------------------------------------------


def import_program(src: Path):
    """Import ``algpaths.cli`` (numpy and scipy included); returns the package."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import algpaths.cli  # noqa: F401  (binds algpaths.cli and every layer module)
    import algpaths

    return algpaths


def execute(lib, op):
    """One operation; returns (exit code, library result or None)."""
    from workloads import run_element

    if op.argv is not None:
        return lib.cli.main(list(op.argv)), None
    return 0, run_element(lib, op)


def attempt(lib, op):
    """``execute`` at the benchmark's boundary: an exception is a failed operation."""
    try:
        return execute(lib, op)
    except Exception as exc:  # noqa: BLE001 - every error counts against the program
        return None, exc


def report_text(op, code, outcome) -> str:
    from workloads import element_report

    if code is None:
        return ""
    if op.kind == "element":
        return element_report(outcome)
    path = Path(op.out)
    return path.read_text(encoding="utf-8") if path.exists() else ""


def check(op, code, outcome, text, texts) -> list[str]:
    import checks

    if code is None:
        return [f"raised {outcome!r}"]
    if op.kind == "element":
        return checks.check_element(op, outcome)
    if not text:
        return [f"exit code {code} and no report"]
    report = json.loads(text)
    if op.kind == "distance":
        return checks.check_scan(op, code, report)
    if op.kind == "connect":
        return checks.check_connect(op, code, report)
    if op.kind == "verify":
        return checks.check_verify(op, code, report, json.loads(texts[op.data["connect_out"]]))
    return checks.check_mindeg(op, code, report)


def setup(workload: str, src: Path, work: Path):
    """Import the program, then warm up each operation kind of the workload.

    Returns ``(package, seconds)``; the warm-up inputs are generated between
    the two timed parts, so input generation is not set-up time.
    """
    t0 = time.perf_counter()
    lib = import_program(src)
    spent = time.perf_counter() - t0
    from workloads import warmup_ops

    os.chdir(work)
    ops = warmup_ops(workload, work)
    t1 = time.perf_counter()
    for op in ops:
        attempt(lib, op)  # a failing kind fails again, checked, in the measured rounds
    return lib, spent + time.perf_counter() - t1


def reference_seconds(raw_s: float) -> float:
    """A set-up time in reference seconds, by the clock probe run right after
    it in the same process (median of ``CLOCK_SAMPLES`` runs)."""
    from clock import ClockProbe

    probe = ClockProbe()
    probe.time()  # the first run pays numpy's lazy initialisation
    probe_s = statistics.median(probe.time() for _ in range(CLOCK_SAMPLES))
    return raw_s * probe.factor(probe_s) ** SETUP_CLOCK_EXPONENT


def setup_probe(workload: str, src: Path, work: Path) -> tuple[float, float]:
    """Set-up time measured in a fresh interpreter: ``(raw, reference)`` seconds."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
         "--src", str(src), "--work", str(work)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    raw, ref = json.loads(out.stdout.strip().splitlines()[-1])
    return float(raw), float(ref)


def clear(work: Path) -> None:
    for p in work.iterdir():
        p.unlink()


# -- timed run -------------------------------------------------------------------------


def run_timed(ns, lib, work: Path) -> dict:
    from clock import ClockProbe
    from workloads import ROUNDS

    lat: list[float] = []
    # per slot of the round, one entry per round: wall and process CPU time in
    # reference seconds, and raw
    walls: list[list[float]] = []
    cpus: list[list[float]] = []
    raw_walls: list[list[float]] = []
    raw_cpus: list[list[float]] = []
    factors: list[float] = []
    probe = ClockProbe()
    probe.time()  # the first run pays numpy's lazy initialisation
    busy = 0.0
    gen = 0.0
    kinds: Counter = Counter()
    failures: list[dict] = []
    first_round: dict[int, tuple] = {}
    rnd, first = 0, 0
    while busy < ns.seconds:
        g0 = time.perf_counter()
        ops = ROUNDS[ns.workload](ns.seed, first, work)
        gen += time.perf_counter() - g0
        if not walls:
            walls, cpus, raw_walls, raw_cpus = ([[] for _ in ops] for _ in range(4))
        assert len(ops) == len(walls), "every round holds the same slots"
        done = []
        before = probe.time()
        for slot, op in enumerate(ops):
            c0 = time.process_time()
            t0 = time.perf_counter()
            code, outcome = attempt(lib, op)
            t1 = time.perf_counter()
            c1 = time.process_time()
            after = probe.time()
            factor = probe.factor(0.5 * (before + after))
            before = after
            factors.append(factor)
            lat.append(t1 - t0)
            walls[slot].append((t1 - t0) * factor)
            cpus[slot].append((c1 - c0) * factor)
            raw_walls[slot].append(t1 - t0)
            raw_cpus[slot].append(c1 - c0)
            busy += t1 - t0
            done.append((op, code, outcome))
        texts = {}
        for op, code, outcome in done:
            # an element's report text only serves the golden comparison
            text = report_text(op, code, outcome) if op.argv or rnd == 0 else ""
            texts[op.out] = text
            problems = check(op, code, outcome, text, texts)
            if problems:
                failures.append(dict(op.label(), problems=problems))
            kinds[f"{op.kind}:{op.method}" if op.method else op.kind] += 1
            if rnd == 0:
                first_round[op.index] = (code, text)
        clear(work)
        rnd += 1
        first += len(ops)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail, pct, above = tail_latency(lat)
    n = len(lat)
    return {
        "attempted": n,
        "failures": failures,
        "metrics": dict(slot_metrics(walls, cpus), peak_rss_mb=peak_mb),
        "info": {"rounds": rnd, "slots_per_round": len(walls), "ops_by_kind": dict(kinds),
                 "busy_s": busy, "input_gen_s": gen,
                 "clock_factor_p25_p50_p75": statistics.quantiles(factors, n=4),
                 "raw_s": slot_metrics(raw_walls, raw_cpus),
                 "pooled_ops_per_s": n / busy, "pooled_latency_p50_s": statistics.median(lat),
                 "pooled_latency_tail_s": tail, "pooled_latency_tail_percentile": pct,
                 "pooled_latency_tail_samples_above": above, "latency_samples": n},
        "first_round": first_round,
    }


# -- traced run ------------------------------------------------------------------------


def run_pass(lib, ops, tracer=None) -> list[tuple]:
    out = []
    for op in ops:
        t0 = time.perf_counter()
        if tracer is None:
            code, outcome = attempt(lib, op)
        else:
            with tracer.op(op.label()):
                code, outcome = attempt(lib, op)
        wall = time.perf_counter() - t0
        out.append((code, outcome, report_text(op, code, outcome), wall))
    return out


def run_traced(ns, lib, work: Path) -> dict:
    from tracing import LAYERS, Tracer, span_names
    from workloads import ROUNDS

    ops, first = [], 0
    for _ in range(TRACE_ROUNDS[ns.workload]):
        batch = ROUNDS[ns.workload](ns.seed, first, work)
        ops += batch
        first += len(batch)
    # each operation untraced, then traced right after it, so that a change of
    # the host's speed does not show up as tracing overhead
    plain, traced = [], []
    tracer = Tracer()
    for op in ops:
        plain += run_pass(lib, [op])
        tracer.install()
        try:
            traced += run_pass(lib, [op], tracer)
        finally:
            tracer.uninstall()

    failures = []
    texts = {}
    for op, (code, outcome, text, _), (_, _, plain_text, _) in zip(ops, traced, plain):
        texts[op.out] = text
        problems = check(op, code, outcome, text, texts)
        if text != plain_text:
            problems.append("traced report differs from the untraced one")
        if problems:
            failures.append(dict(op.label(), problems=problems))

    n = len(ops)
    totals = tracer.totals()
    metrics = {}
    for span in span_names():
        calls, _, self_s, _ = totals.get(span, [0, 0.0, 0.0, 0])
        metrics[f"{span}.calls"] = calls / n
        metrics[f"{span}.self_s"] = self_s / n
    metrics["unattributed.self_s"] = sum(r["unattributed_s"] for r in tracer.roots) / n
    for cname, (kind, span, unit) in COUNTS.items():
        count = tracer.totals(kind).get(span, [0])[0]
        units = sum(op.data[unit] if unit else 1 for op in ops if op.kind == kind)
        metrics[f"counts.{cname}"] = count / units if units else 0.0
    plain_s = sum(p[3] for p in plain)
    traced_s = sum(t[3] for t in traced)
    metrics["trace_overhead_frac"] = traced_s / plain_s - 1.0

    layer = tracer.layer_self()
    total = sum(layer.values())
    lines = [f"self time per operation by layer ({ns.workload}, seed {ns.seed}, {n} ops, "
             f"trace overhead {metrics['trace_overhead_frac']:+.1%})",
             f"  {'layer':<13}{'ms/op':>10}{'share':>9}"]
    for name in LAYERS + ("unattributed",):
        lines.append(f"  {name:<13}{1e3 * layer[name] / n:>10.3f}{layer[name] / total:>9.1%}")
    first_round = {op.index: (t[0], t[2]) for op, t in zip(ops, traced)}
    return {
        "attempted": n,
        "failures": failures,
        "metrics": metrics,
        "table": lines,
        "trace": tracer.dump(),
        "info": {"rounds": TRACE_ROUNDS[ns.workload], "untraced_s": plain_s, "traced_s": traced_s,
                 "layer_self_s_per_op": {k: v / n for k, v in layer.items()},
                 "raising": sorted(k for k, rec in totals.items() if rec[3])},
        "first_round": first_round,
    }


# -- golden reports ----------------------------------------------------------------------


def golden_check(workload: str, produced: dict) -> tuple[list[dict], float, int]:
    """Compare produced reports of the default seed with the recorded ones."""
    import golden

    recorded = golden.load(workload)["ops"]
    failures, identical, compared = [], 0, 0
    for key, want in recorded.items():
        if int(key) not in produced:
            continue
        code, text = produced[int(key)]
        compared += 1
        problems = [] if code == want["code"] else [f"exit code {code}, golden {want['code']}"]
        if text and golden.digest(text) == want["sha256"]:
            identical += 1
        elif text:
            problems += golden.compare(want["report"], json.loads(text))
        else:
            problems.append("no report")
        if problems:
            failures.append({"op": int(key), "golden": problems[:5]})
    return failures, identical / compared if compared else float("nan"), compared


def record_golden(workload: str, lib, work: Path) -> int:
    import golden
    from workloads import ROUNDS

    ops = ROUNDS[workload](golden.DEFAULT_SEED, 0, work)
    entries, texts = {}, {}
    for op, (code, outcome, text, _) in zip(ops, run_pass(lib, ops)):
        texts[op.out] = text
        problems = check(op, code, outcome, text, texts)
        if problems:
            print(f"refusing to record: op {op.index} fails {problems}", file=sys.stderr)
            return 1
        entries[str(op.index)] = golden.entry(code, text)
    golden.save(workload, entries)
    print(f"recorded {len(entries)} golden reports to {golden.path_for(workload)}")
    return 0


# -- info ---------------------------------------------------------------------------------


def environment_info(src: Path) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((src / "algpaths").glob("*.py")))
    return {"src_lines": lines, "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "nproc": os.cpu_count()}


# -- entry point ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="record the first round of the default seed as the golden reports")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--src", help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    ns = parse_args(argv)
    # before numpy is first imported here and in the set-up probes
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    if ns.setup_probe:
        probe_dir = Path(ns.work) / "probe"
        probe_dir.mkdir()
        try:
            _, seconds = setup(ns.workload, Path(ns.src), probe_dir)
        finally:
            os.chdir(ns.work)
            shutil.rmtree(probe_dir)
        print(json.dumps([seconds, reference_seconds(seconds)]))
        return 0

    root = Path.cwd()
    src = root / "src"
    if not (src / "algpaths" / "cli.py").is_file():
        print("perfbench: no program sources at ./src/algpaths; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{ns.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(ns, root, src, work)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)


def _run(ns, root: Path, src: Path, work: Path) -> int:
    import golden

    if ns.record_golden:
        lib, _ = setup(ns.workload, src, work)
        return record_golden(ns.workload, lib, work)

    samples = [setup_probe(ns.workload, src, work) for _ in range(0 if ns.trace else SETUP_PROBES)]
    lib, own = setup(ns.workload, src, work)
    samples.append((own, reference_seconds(own)))
    clear(work)
    result = run_traced(ns, lib, work) if ns.trace else run_timed(ns, lib, work)

    failures = result["failures"]
    info = {"workload": ns.workload, "seed": ns.seed, "trace": ns.trace,
            "setup_samples_raw_s": [raw for raw, _ in samples],
            "setup_samples_ref_s": [ref for _, ref in samples]}
    info.update(result["info"])
    if ns.seed == golden.DEFAULT_SEED:
        gfail, identical, compared = golden_check(ns.workload, result["first_round"])
        info.update(reports_identical_frac=identical, golden_compared=compared)
        failed_ops = {f["op"] for f in failures}
        failures += [f for f in gfail if f["op"] not in failed_ops]
    info.update(environment_info(src))
    failed = len({f["op"] for f in failures})
    info["failed_frac"] = failed / result["attempted"]
    info["failures"] = failures[:20]

    if ns.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in result["metrics"].items()}
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        dump = {"info": info, "metrics": metrics, "trace": result["trace"]}
        (out_dir / f"trace-{ns.workload}-seed{ns.seed}.json").write_text(
            json.dumps(dump, indent=1), encoding="utf-8")
        print("\n".join(result["table"]))
    else:
        values = dict(result["metrics"], setup_s=statistics.median(ref for _, ref in samples))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    for f in failures[:10]:
        print(f"FAILED {json.dumps(f)}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
