"""Command-line front end.

Each subcommand drives one family of operations and writes a deterministic
JSON (or CSV) report: same configuration and seed, byte-identical output.
Reports embed the full configuration, the tool version, and enough data
(matrices, seeds, certificates) to re-verify offline with ``verify``.

Exit codes: 0 success, 2 a certificate failed (or a suite item did), 3 a
precondition was violated (an unwritable --out among them), 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .algebraic import certify, random_element, validate_roots
from .components import ComponentSignature, distance_scan, line_direction, resolve
from .errors import CertificationError, PreconditionError
from .matkernel import ToleranceConfig, operator_norm
from .paths import (
    ExpSimilarityPath,
    PolynomialPath,
    connect_exp_global,
    connect_exp_local,
    connect_polygonal,
    connect_selfadjoint,
    min_degree_search,
    verify_path,
)
from . import serialize as ser
from .suite import run_suite

EXIT_OK = 0
EXIT_CERTIFICATION = 2
EXIT_PRECONDITION = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with the certification
    # exit code; route usage problems to a dedicated code instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_roots(text: str) -> list[complex]:
    return [complex(part.strip().replace(" ", "")) for part in text.split(",")]


def _parse_sig(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _flag(parse, expected: str, ok):
    """Flag type: ``parse(text)`` when that parses and ``ok`` accepts the value, else a usage error.

    ``ok`` rejects a value by returning something false or by raising ``ValueError``.
    """

    def check(text: str):
        try:
            value = parse(text)
            if ok(value):  # NaN fails every range
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return check


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise PreconditionError(f"cannot read {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise PreconditionError(f"{path} does not hold a JSON object")
    return obj


def _require_out_dir(path) -> None:
    """Refuse an ``--out`` that is a directory or lies in a missing one, before any work runs."""
    if path and os.path.isdir(path):
        raise PreconditionError(f"cannot write {path}: it is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise PreconditionError(f"cannot write {path}: its directory does not exist")


def _write(path, text: str, mode: str = "w") -> None:
    """Write ``text`` to the file ``path``, or to stdout when there is none."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc}") from None


def _load_element(path: str, cfg: ToleranceConfig, roots_flag=None):
    obj = _load_json(path)
    if "tool" in obj and isinstance(obj.get("result"), dict):  # full report files are fine too
        obj = obj["result"]
    if "matrix" in obj:
        el = ser.element_from_json(obj, cfg)
        _require_own_roots(path, "an element", el.roots, roots_flag)
        return el
    # raw matrix file: the root system must come from the command line
    if "entries" not in obj:
        raise PreconditionError(f"{path} holds neither an element nor a matrix")
    if roots_flag is None:
        raise PreconditionError(f"{path} holds a bare matrix; pass --roots to certify it")
    return certify(ser.matrix_from_json(obj), validate_roots(_parse_roots(roots_flag)), cfg)


def _require_own_roots(path: str, what: str, own, roots_flag):
    """``--roots`` next to a file that carries its roots must give them, in the same order."""
    given = own if roots_flag is None else validate_roots(_parse_roots(roots_flag))
    if given != own:
        raise PreconditionError(f"{path} holds {what} over the roots {own.roots}, but --roots gives {given.roots}")


def _tolerances(ns) -> ToleranceConfig:
    return ToleranceConfig() if ns.tol is None else ToleranceConfig(residual_tol=ns.tol)


_VOLATILE_FLAGS = {"func", "out", "config"}  # not part of the experiment


def _report(ns, result: dict) -> dict:
    config = {
        k: v for k, v in sorted(vars(ns).items())
        if k not in _VOLATILE_FLAGS and v is not None
    }
    return {"tool": "algpaths", "version": __version__, "command": ns.command, "config": config, "result": result}


# -- subcommand bodies ---------------------------------------------------------
# each returns (result, exit code); main writes the report of a result that is not None


def _cmd_sample(ns, cfg):
    roots = validate_roots(_parse_roots(ns.roots))
    sig = ComponentSignature(_parse_sig(ns.sig))
    el = random_element(sig, roots, seed=ns.seed, self_adjoint=ns.self_adjoint, cond_bound=ns.cond, cfg=cfg)
    return ser.element_to_json(el), EXIT_OK


def _cmd_decompose(ns, cfg):
    part, sig = resolve(_load_element(ns.a, cfg, ns.roots), cfg)
    result = ser.partition_to_json(part)
    result["signature"] = ser.signature_to_json(sig)
    result["isolated"] = sig.scalar
    return result, EXIT_OK


def _search(ns, a, b, cfg):
    """The degree search of ``connect --method poly`` and ``mindeg``, and its common report fields."""
    found = min_degree_search(a, b, d_max=ns.dmax, budget=ns.budget, seed=ns.seed, cfg=cfg,
                              self_adjoint=ns.self_adjoint, min_motion=ns.min_motion)
    return found, {
        "success": found.succeeded,
        "residual_by_degree": {str(k): v for k, v in found.residual_by_degree.items()},
    }


# each entry names its constructor at call time, so a rebound module name
# (the benchmark's tracing) is the one called
_CONSTRUCTORS = {
    "exp-local": lambda a, b, cfg, seed: connect_exp_local(a, b, cfg),
    "exp-global": lambda a, b, cfg, seed: connect_exp_global(a, b, cfg),
    "selfadjoint": lambda a, b, cfg, seed: connect_selfadjoint(a, b, cfg),
    "polygonal": lambda a, b, cfg, seed: connect_polygonal(a, b, cfg, seed=seed),
}


def _cmd_connect(ns, cfg):
    a = _load_element(ns.a, cfg, ns.roots)
    b = _load_element(ns.b, cfg, ns.roots)
    if ns.method == "poly":
        found, result = _search(ns, a, b, cfg)
        if not found.succeeded:
            return result, EXIT_CERTIFICATION
        path = found.path
    else:
        path = _CONSTRUCTORS[ns.method](a, b, cfg, ns.seed)
    cert = verify_path(path, a.roots, cfg, expected_endpoint=b.a)
    return {"path": ser.path_to_json(path), "certificate": {
        "worst_membership": cert.worst_membership,
        "endpoint_error": cert.endpoint_error,
    }}, EXIT_OK


def _cmd_verify(ns, cfg):
    obj = _load_json(ns.path)
    if isinstance(obj.get("result"), dict) and "path" in obj["result"]:  # accept connect reports
        obj = obj["result"]["path"]
    path = ser.path_from_json(obj, cfg)
    roots = validate_roots(_parse_roots(ns.roots)) if ns.roots else None
    if not isinstance(path, PolynomialPath):  # polynomial paths carry no roots
        own = path.base.roots if isinstance(path, ExpSimilarityPath) else path.breakpoints[0].roots
        _require_own_roots(ns.path, "a path", own, ns.roots)
    cert = verify_path(path, roots, cfg)
    return {
        "kind": cert.kind,
        "worst_membership": cert.worst_membership,
        "worst_hermiticity": cert.worst_hermiticity,
        "segment_certificates": list(cert.segment_certificates),
        "samples": cert.samples,
    }, EXIT_OK


def _cmd_line(ns, cfg):
    witness = line_direction(_load_element(ns.a, cfg, ns.roots), cfg)
    result = ser.line_witness_to_json(witness)
    result["direction_norm"] = operator_norm(witness.direction)
    return result, EXIT_OK


def _needs_csv_header(path) -> bool:
    """Whether a scan row appended to ``path`` needs the header first; a file that is not a scan CSV is refused."""
    if not path:
        return True
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
    except FileNotFoundError:
        return True
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from None
    if first and first.rstrip(b"\r\n") != ser.SCAN_CSV_HEADER.encode():
        raise PreconditionError(f"{path} is not a scan CSV: its first line is not {ser.SCAN_CSV_HEADER!r}")
    return not first


def _cmd_distance(ns, cfg):
    roots = validate_roots(_parse_roots(ns.roots))
    sig1, sig2 = ComponentSignature(_parse_sig(ns.sig)), ComponentSignature(_parse_sig(ns.sig2))
    # scan batches accumulate in a file: append rows, write the header once; the file is checked before the scan
    header = ns.format == "csv" and _needs_csv_header(ns.out)
    report = distance_scan(sig1, sig2, roots, budget=ns.budget, seed=ns.seed,
                           self_adjoint=ns.self_adjoint, cfg=cfg)
    if ns.format == "json":
        return ser.scan_report_to_json(report), EXIT_OK
    _write(ns.out, (ser.SCAN_CSV_HEADER + "\n" if header else "") + ser.scan_csv_row(report) + "\n", "a")
    return None, EXIT_OK


def _cmd_mindeg(ns, cfg):
    a = _load_element(ns.a, cfg, ns.roots)
    b = _load_element(ns.b, cfg, ns.roots)
    found, result = _search(ns, a, b, cfg)
    result["degree"] = found.degree
    if found.succeeded:
        result["path"] = ser.path_to_json(found.path)
    return result, EXIT_OK if found.succeeded else EXIT_CERTIFICATION


def _cmd_suite(ns, cfg):
    outcome = run_suite(seed=ns.seed, samples=ns.samples, budget=ns.budget, cfg=cfg, stream=sys.stdout)
    return outcome, EXIT_OK if outcome["all_passed"] else EXIT_CERTIFICATION


# -- wiring ---------------------------------------------------------------------


def _add_roots(p: argparse.ArgumentParser, required=False, help="comma-separated roots, e.g. '0,1' or '1+1j,-1'"):
    # argparse reads a value that starts with '-' as a flag: "--roots -1,1" is a usage error
    p.add_argument("--roots", type=_flag(str, "comma-separated complex numbers", _parse_roots),
                   required=required, default=None,
                   help=f"{help}; a list that starts with a minus sign takes '=', as in --roots=-1,1")


def _add_search(p: argparse.ArgumentParser):
    # the degree-search flags of connect --method poly and mindeg
    p.add_argument("--dmax", type=_flag(int, "an integer >= 1", lambda v: v >= 1), default=3,
                   help="max degree of the polynomial search, >= 1")
    p.add_argument("--budget", type=_flag(int, "an integer >= 1", lambda v: v >= 1), default=32,
                   help="restarts per degree, >= 1")
    p.add_argument("--self-adjoint", action="store_true", help="Hermitian coefficients")
    p.add_argument("--min-motion", type=_flag(float, "a finite number >= 0", lambda v: 0.0 <= v < math.inf),
                   default=0.0)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--tol", type=_flag(float, "a finite number >= 0", lambda v: 0.0 <= v < math.inf),
                   default=None, help="residual tolerance override")
    p.add_argument("--out", default=None, help="report file (stdout when omitted)")
    p.add_argument("--config", default=None, help="JSON file with defaults for any flag")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="algpaths", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"algpaths {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a random certified element")
    _add_roots(p, required=True)
    p.add_argument("--sig", type=_flag(str, "comma-separated integers", _parse_sig), required=True,
                   help="rank per root, e.g. '1,2'")
    p.add_argument("--seed", type=_flag(int, "an integer >= 0", lambda v: v >= 0), required=True)
    p.add_argument("--self-adjoint", action="store_true")
    p.add_argument("--cond", type=_flag(float, "a finite number >= 1", lambda v: 1.0 <= v < math.inf),
                   default=20.0, help="similarity condition bound, >= 1")
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("decompose", help="spectral idempotents of an element")
    p.add_argument("--a", required=True, help="element or matrix JSON file")
    _add_roots(p, help="roots (required for bare matrix files)")
    _add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("connect", help="build a certified connecting path")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--method", required=True,
                   choices=["exp-local", "exp-global", "polygonal", "poly", "selfadjoint"])
    _add_roots(p)
    p.add_argument("--seed", type=_flag(int, "an integer >= 0", lambda v: v >= 0), default=0)
    _add_search(p)
    _add_common(p)
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("verify", help="re-certify a serialized path")
    p.add_argument("--path", required=True, help="path JSON file (or a connect report)")
    _add_roots(p, help="roots (required for polynomial paths)")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("line", help="complex-line direction through a non-central element")
    p.add_argument("--a", required=True)
    _add_roots(p)
    _add_common(p)
    p.set_defaults(func=_cmd_line)

    p = sub.add_parser("distance", help="randomized distance scan between two components")
    _add_roots(p, required=True)
    p.add_argument("--sig", type=_flag(str, "comma-separated integers", _parse_sig), required=True)
    p.add_argument("--sig2", type=_flag(str, "comma-separated integers", _parse_sig), required=True)
    p.add_argument("--seed", type=_flag(int, "an integer >= 0", lambda v: v >= 0), required=True)
    p.add_argument("--budget", type=_flag(int, "an integer >= 1", lambda v: v >= 1), default=1000,
                   help="scan restarts, >= 1")
    p.add_argument("--self-adjoint", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    # the scan runs in one process; the flag stays so that the command lines
    # and report configs that pass --threads 1 still parse
    p.add_argument("--threads", type=int, choices=[1], default=1,
                   help="accepts only 1: the scan runs in one process")
    _add_common(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("mindeg", help="minimum-degree polynomial path search")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    _add_roots(p)
    p.add_argument("--seed", type=_flag(int, "an integer >= 0", lambda v: v >= 0), required=True)
    _add_search(p)
    _add_common(p)
    p.set_defaults(func=_cmd_mindeg)

    p = sub.add_parser("suite", help="seeded battery over all experiment families")
    p.add_argument("--seed", type=_flag(int, "an integer >= 0", lambda v: v >= 0), default=0)
    p.add_argument("--samples", type=_flag(int, "an integer >= 0", lambda v: v >= 0), default=50,
                   help="sample count per family, >= 0")
    p.add_argument("--budget", type=_flag(int, "an integer >= 1", lambda v: v >= 1), default=400,
                   help="restarts for the scan items, >= 1")
    _add_common(p)
    p.set_defaults(func=_cmd_suite)

    return parser


# finds --config PATH, --config=PATH or an abbreviation before the one parse of argv;
# each starts with --c, so a command line with no such token skips it
_CONFIG_FLAG = _Parser(prog="algpaths", add_help=False)
_CONFIG_FLAG.add_argument("--config")


def _parse(parser, argv):
    """Parse ``argv``, the flags stored in its ``--config`` file right after the subcommand.

    A stored value gets its flag's type and checks, and an explicit flag, which comes later, wins.
    """
    path = _CONFIG_FLAG.parse_known_args(argv)[0].config if any(a.startswith("--c") for a in argv) else None
    stored = _load_json(path) if path else {}
    extra = []
    for key, value in stored.items():
        # a report's config names its command, so such a file loads as it is
        if key == "command" or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        extra.append(flag if value is True else f"{flag}={value}")
    ns, unknown = parser.parse_known_args(argv[:1] + extra + argv[1:])
    for key in stored:
        attr = key.replace("-", "_")
        if attr not in vars(ns) or attr == "func":
            parser.error(f"--config key {key!r} names no flag of {ns.command}")
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return ns


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs about fifty times what parsing does
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _parse(_parser(), argv)
        _require_out_dir(ns.out)
        result, code = ns.func(ns, _tolerances(ns))
        if result is not None:
            _write(ns.out, ser.canonical_dumps(_report(ns, result)))
    except PreconditionError as exc:
        print(f"algpaths: precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CertificationError as exc:
        print(f"algpaths: certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    return code


if __name__ == "__main__":
    sys.exit(main())
