"""Golden reports for the default seed.

The first round of every workload is recorded once, as exit code, report
digest and parsed report.  A later run with the default seed must reproduce
every discrete field (exit codes, kinds, segment counts, degrees, success
flags, signatures, structure) exactly, and every float within ``RTOL``.
Byte identity is reported, not required: a legitimate change of arithmetic
order moves certificate floats at the 1e-15 level.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

DEFAULT_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# |x - y| <= RTOL * max(1, |x|, |y|) for every compared float.
RTOL = 1e-6

# Certificate values are rounding noise by construction (their size is set by
# the order of floating-point operations, not by the answer), so they are not
# compared; the program's exit code and the independent checks bound them.
ROUNDOFF_KEYS = frozenset({
    "residual", "worst_residual", "certificate", "certificates", "segment_certificates",
    "worst_membership", "worst_hermiticity", "endpoint_error",
    "partition_worst_residual", "far_residual",
})


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def path_for(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json.gz"


def load(workload: str) -> dict:
    with gzip.open(path_for(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save(workload: str, entries: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    text = json.dumps({"seed": DEFAULT_SEED, "workload": workload, "ops": entries},
                      sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file bytes reproducible
    with open(path_for(workload), "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))


def entry(code: int, text: str) -> dict:
    return {"code": code, "sha256": digest(text), "report": json.loads(text)}


def compare(expected, actual, where: str = "") -> list[str]:
    """Mismatches between two parsed reports under the golden rules."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or sorted(expected) != sorted(actual):
            return [f"{where or '/'}: keys differ"]
        out = []
        for key in sorted(expected):
            if key in ROUNDOFF_KEYS:
                continue
            out += compare(expected[key], actual[key], f"{where}/{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{where}: length differs"]
        out = []
        for k, (x, y) in enumerate(zip(expected, actual)):
            out += compare(x, y, f"{where}/{k}")
        return out
    if isinstance(expected, float) and isinstance(actual, float):
        if abs(expected - actual) <= RTOL * max(1.0, abs(expected), abs(actual)):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []
