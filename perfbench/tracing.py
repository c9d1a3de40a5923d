"""Outside-in layer tracing for the traced benchmark run.

Each boundary function of the program is rebound, in every ``algpaths.*``
module namespace that holds it, to a wrapper that records a span; the dense
linear algebra the program calls (the ``linalg`` floor) is patched at the
attribute the program calls through (``numpy.linalg.svd``, ``scipy.linalg.schur``,
``numpy.kron``, ...).  Spans are only recorded inside an operation's root span,
so the benchmark's own checks never count.

Spans are aggregated in memory per ``(operation kind, parent, function)``:
calls, inclusive time, self time (inclusive time minus the time covered by
child spans) and how many calls raised.  Root spans are kept one per
operation.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

BOUNDARY = {
    "matkernel": ("operator_norm", "mat_exp", "mat_log_near_identity", "matpoly_mul",
                  "matpoly_compose_p", "matpoly_is_zero"),
    "algebraic": ("certify", "eval_defining_poly", "spectral_resolution", "validate_roots"),
    "components": ("partition_ranks", "signature", "same_component", "is_isolated",
                   "line_direction", "distance_scan"),
    "paths": ("connect_exp_local", "connect_exp_global", "connect_selfadjoint",
              "connect_polygonal", "min_degree_search", "verify_path"),
    "serialize": ("matrix_from_json", "element_from_json", "path_to_json", "path_from_json",
                  "scan_report_to_json", "canonical_dumps"),
    "cli": ("main",),
}

# linalg floor: metric name -> (module, attribute) pairs the program may call through
LINALG = {
    "svd": (("numpy.linalg", "svd"), ("scipy.linalg", "svd")),
    "solve": (("numpy.linalg", "solve"), ("scipy.linalg", "solve")),
    "lstsq": (("numpy.linalg", "lstsq"), ("scipy.linalg", "lstsq")),
    "eigh": (("numpy.linalg", "eigh"), ("scipy.linalg", "eigh")),
    "inv": (("numpy.linalg", "inv"), ("scipy.linalg", "inv")),
    "schur": (("scipy.linalg", "schur"),),
    "expm": (("scipy.linalg", "expm"),),
    "kron": (("numpy", "kron"),),
    "einsum": (("numpy", "einsum"),),
}

LAYERS = tuple(BOUNDARY) + ("linalg",)
ROOT = "op"


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in BOUNDARY.items() for fn in fns]
    return names + [f"linalg.{fn}" for fn in LINALG]


class Tracer:
    """Span stack plus in-memory aggregates; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # frames: [name, start, time covered by children]
        self.kind = None
        self.edges: dict[tuple[str, str, str], list] = {}  # -> [calls, incl, self, raised]
        self.roots: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            frame = [name, tracer.clock(), 0.0]
            tracer.stack.append(frame)
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                tracer._close(frame, raised)

        return traced

    def _close(self, frame, raised: bool) -> None:
        dur = self.clock() - frame[1]
        self.stack.pop()
        parent = self.stack[-1]
        parent[2] += dur
        rec = self.edges.setdefault((self.kind, parent[0], frame[0]), [0, 0.0, 0.0, 0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[2]
        rec[3] += int(raised)

    @contextmanager
    def op(self, label: dict):
        """Root span of one operation; ``label`` carries op id, kind, m, roots, method."""
        frame = [ROOT, self.clock(), 0.0]
        self.stack.append(frame)
        self.kind = label["kind"]
        try:
            yield
        finally:
            dur = self.clock() - frame[1]
            self.stack.pop()
            self.roots.append(dict(label, wall_s=dur, unattributed_s=dur - frame[2]))

    # -- aggregates ----------------------------------------------------------------

    def totals(self, kind=None) -> dict[str, list]:
        """Per-function ``[calls, incl, self, raised]``, optionally for one op kind."""
        out: dict[str, list] = {}
        for (k, _parent, name), rec in self.edges.items():
            if kind is not None and k != kind:
                continue
            acc = out.setdefault(name, [0, 0.0, 0.0, 0])
            for j in range(4):
                acc[j] += rec[j]
        return out

    def layer_self(self) -> dict[str, float]:
        """Self time per layer plus the unattributed remainder of the root spans."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, rec in self.totals().items():
            out[name.split(".", 1)[0]] += rec[2]
        out["unattributed"] = sum(r["unattributed_s"] for r in self.roots)
        return out

    def dump(self) -> dict:
        return {
            "edges": [{"kind": k, "parent": p, "name": n, "calls": rec[0], "incl_s": rec[1],
                       "self_s": rec[2], "raised": rec[3]}
                      for (k, p, n), rec in sorted(self.edges.items(), key=lambda kv: str(kv[0]))],
            "roots": self.roots,
        }

    # -- patching --------------------------------------------------------------------

    def install(self) -> None:
        """Rebind every boundary function and linalg attribute to a traced wrapper."""
        program = [m for name, m in sorted(sys.modules.items())
                   if (name == "algpaths" or name.startswith("algpaths.")) and m is not None]
        for layer, fns in BOUNDARY.items():
            home = sys.modules[f"algpaths.{layer}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self.wrap(f"{layer}.{fn}", orig)
                for mod in program:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapper)
        for fn, targets in LINALG.items():
            for modname, attr in targets:
                mod = importlib.import_module(modname)
                if hasattr(mod, attr):
                    self._patch(mod, attr, self.wrap(f"linalg.{fn}", getattr(mod, attr)))

    def _patch(self, mod, attr, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, orig = self._patches.pop()
            setattr(mod, attr, orig)
