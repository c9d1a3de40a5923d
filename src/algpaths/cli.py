"""Command-line front end.

Each subcommand drives one family of operations and writes a deterministic
JSON (or CSV) report: same configuration and seed, byte-identical output.
Reports embed the full configuration, the tool version, and enough data
(matrices, seeds, certificates) to re-verify offline with ``verify``.

Exit codes: 0 success, 2 a certificate failed, 3 a precondition was violated,
64 usage error.
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


def _checked_text(parse, expected: str):
    def check(text: str) -> str:
        try:  # malformed text is a usage error; the text is kept, as the report echoes it
            parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
        return text

    return check


_roots_flag = _checked_text(_parse_roots, "comma-separated complex numbers")
_sig_flag = _checked_text(_parse_sig, "comma-separated integers")


_THREADS_FROM_ENV = "$ALGPATHS_THREADS"


def _int_at_least(low: int):
    """Flag type: an integer ``>= low``, anything else a usage error."""

    def check(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    return check


_non_negative = _int_at_least(0)
_positive = _int_at_least(1)


def _threads(text: str) -> int:
    # argparse also runs this on a string default, on every parse, so the
    # parser can be built once while a bad ALGPATHS_THREADS stays a usage
    # error of the one subcommand that reads it
    if text == _THREADS_FROM_ENV:
        text = os.environ.get("ALGPATHS_THREADS", "1")
    return _positive(text)


def _float_flag(text: str, ok, expected: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not ok(value):  # NaN fails every check
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    return _float_flag(text, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")


def _margin(text: str) -> float:
    return _float_flag(text, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")


def _cond(text: str) -> float:
    return _float_flag(text, lambda v: 1.0 <= v < math.inf, "a finite number >= 1")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise PreconditionError(f"cannot read {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise PreconditionError(f"{path} does not hold a JSON object")
    return obj


def _load_element(path: str, cfg: ToleranceConfig, roots_flag=None):
    obj = _load_json(path)
    if "tool" in obj and "result" in obj:  # full report files are fine too
        obj = obj["result"]
    if "matrix" in obj:
        return ser.element_from_json(obj, cfg)
    # raw matrix file: the root system must come from the command line
    if "entries" not in obj:
        raise PreconditionError(f"{path} holds neither an element nor a matrix")
    if roots_flag is None:
        raise PreconditionError(f"{path} holds a bare matrix; pass --roots to certify it")
    return certify(ser.matrix_from_json(obj), validate_roots(_parse_roots(roots_flag)), cfg)


def _tolerances(ns) -> ToleranceConfig:
    flags = {"residual_tol": ns.tol, "rank_rel_tol": ns.rank_tol, "invertibility_margin": ns.margin}
    return ToleranceConfig(**{field: v for field, v in flags.items() if v is not None})


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
    sig = ComponentSignature(ranks=_parse_sig(ns.sig), dim=sum(_parse_sig(ns.sig)))
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
    "exp-global": lambda a, b, cfg, seed: connect_exp_global(a, b, cfg, seed=seed),
    "selfadjoint": lambda a, b, cfg, seed: connect_selfadjoint(a, b, cfg, seed=seed),
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
    if "result" in obj and "path" in obj.get("result", {}):  # accept connect reports
        obj = obj["result"]["path"]
    path = ser.path_from_json(obj, cfg)
    roots = validate_roots(_parse_roots(ns.roots)) if ns.roots else None
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


def _cmd_distance(ns, cfg):
    roots = validate_roots(_parse_roots(ns.roots))
    ranks1, ranks2 = _parse_sig(ns.sig), _parse_sig(ns.sig2)
    sig1 = ComponentSignature(ranks=ranks1, dim=sum(ranks1))
    sig2 = ComponentSignature(ranks=ranks2, dim=sum(ranks1))
    report = distance_scan(sig1, sig2, roots, budget=ns.budget, seed=ns.seed,
                           self_adjoint=ns.self_adjoint, cfg=cfg, workers=ns.threads)
    if ns.format == "json":
        return ser.scan_report_to_json(report), EXIT_OK
    row = ser.scan_csv_row(report) + "\n"
    if ns.out:
        # scan batches accumulate: append rows, write the header once
        try:
            fresh = os.path.getsize(ns.out) == 0
        except OSError:
            fresh = True
        with open(ns.out, "a", encoding="utf-8") as fh:
            if fresh:
                fh.write(ser.SCAN_CSV_HEADER + "\n")
            fh.write(row)
    else:
        sys.stdout.write(ser.SCAN_CSV_HEADER + "\n" + row)
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
    return outcome, EXIT_OK if outcome["all_passed"] else 1


# -- wiring ---------------------------------------------------------------------


def _add_roots(p: argparse.ArgumentParser, required=False, help="comma-separated roots, e.g. '0,1' or '1+1j,-1'"):
    # argparse reads a value that starts with '-' as a flag: "--roots -1,1" is a usage error
    p.add_argument("--roots", type=_roots_flag, required=required, default=None,
                   help=f"{help}; a list that starts with a minus sign takes '=', as in --roots=-1,1")


def _add_search(p: argparse.ArgumentParser, **seed):
    # the degree-search flags of connect --method poly and mindeg; mindeg passes its
    # --seed rule, which its usage line lists after --budget (connect's comes before)
    p.add_argument("--dmax", type=_positive, default=3, help="max degree of the polynomial search, >= 1")
    p.add_argument("--budget", type=_positive, default=32, help="restarts per degree, >= 1")
    if seed:
        p.add_argument("--seed", type=_non_negative, **seed)
    p.add_argument("--self-adjoint", action="store_true", help="Hermitian coefficients")
    p.add_argument("--min-motion", type=_tolerance, default=0.0)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--tol", type=_tolerance, default=None, help="residual tolerance override")
    p.add_argument("--rank-tol", type=_tolerance, default=None, help="relative rank threshold override")
    p.add_argument("--margin", type=_margin, default=None, help="invertibility margin override, in (0, 1)")
    p.add_argument("--out", default=None, help="report file (stdout when omitted)")
    p.add_argument("--config", default=None, help="JSON file with defaults for any flag")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="algpaths", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"algpaths {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a random certified element")
    _add_roots(p, required=True)
    p.add_argument("--sig", type=_sig_flag, required=True, help="rank per root, e.g. '1,2'")
    p.add_argument("--seed", type=_non_negative, required=True)
    p.add_argument("--self-adjoint", action="store_true")
    p.add_argument("--cond", type=_cond, default=20.0, help="similarity condition bound, >= 1")
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
    p.add_argument("--seed", type=_non_negative, default=0)
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
    p.add_argument("--sig", type=_sig_flag, required=True)
    p.add_argument("--sig2", type=_sig_flag, required=True)
    p.add_argument("--seed", type=_non_negative, required=True)
    p.add_argument("--budget", type=_positive, default=1000, help="scan restarts, >= 1")
    p.add_argument("--self-adjoint", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--threads", type=_threads, default=_THREADS_FROM_ENV,
                   help="worker processes for the restart blocks (default: $ALGPATHS_THREADS or 1); "
                        "the scan result does not depend on it")
    _add_common(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("mindeg", help="minimum-degree polynomial path search")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    _add_roots(p)
    _add_search(p, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_mindeg)

    p = sub.add_parser("suite", help="seeded battery over all experiment families")
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--samples", type=_non_negative, default=50, help="sample count per family, >= 0")
    p.add_argument("--budget", type=_positive, default=400, help="restarts for the scan items, >= 1")
    _add_common(p)
    p.set_defaults(func=_cmd_suite)

    return parser


def _apply_config_file(parser, ns, argv):
    if not getattr(ns, "config", None):
        return ns
    extra = []
    for key, value in _load_json(ns.config).items():
        attr = key.replace("-", "_")
        if attr not in vars(ns) or attr == "command" or value is None or value is False:
            continue
        flag = "--" + attr.replace("_", "-")
        extra.append(flag if value is True else f"{flag}={value}")
    # stored values go in front of the subcommand's own flags and are parsed like
    # them: each gets its flag's type and checks, and an explicit flag wins
    i = argv.index(ns.command) + 1
    return parser.parse_args(argv[:i] + extra + argv[i:])


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs about fifty times what parsing does
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    ns = parser.parse_args(argv)
    try:
        ns = _apply_config_file(parser, ns, argv)
        result, code = ns.func(ns, _tolerances(ns))
    except PreconditionError as exc:
        print(f"algpaths: precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CertificationError as exc:
        print(f"algpaths: certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    if result is not None:
        text = ser.canonical_dumps(_report(ns, result))
        if ns.out:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
