"""Output-correctness gate.

Every output of an invocation is checked for its size (CSV data rows under
the expected header, text lines, or verifier cases all passing) and for
non-finite numbers. Where outputs recorded on the reference commit exist
for the same workload and seed, the SHA-256 digest and row count must
match them too.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from workloads import Output

# repr(float) writes nan/inf/-inf and json.dump writes NaN/Infinity.
NON_FINITE = re.compile(rb"(?i)\b(?:nan|inf(?:inity)?)\b")


@dataclass
class Checked:
    name: str
    sha256: str
    rows: int
    nbytes: int
    problems: list[str] = field(default_factory=list)


def _rows(spec: Output, data: bytes, problems: list[str]) -> int:
    if spec.kind == "csv":
        header = data.split(b"\n", 1)[0].rstrip(b"\r").decode(errors="replace")
        if header != spec.header:
            problems.append(f"header {header!r} != {spec.header!r}")
        return data.count(b"\n") - 1
    if spec.kind == "text":
        return data.count(b"\n")
    if spec.kind == "verify-json":
        try:
            doc = json.loads(data)
            cases = [c for rep in doc["reports"] for c in rep["cases"]]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable verify report: {exc}")
            return -1
        if doc.get("overall") is not True:
            problems.append("verify report says FAIL")
        return len(cases)
    raise ValueError(f"unknown output kind {spec.kind!r}")


def check_output(name: str, spec: Output, path: str, expected: dict | None) -> Checked:
    """Check one output file; `expected` is the reference {"sha256", "rows"}
    or None when no reference applies."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return Checked(name, "", -1, 0, [f"missing: {exc}"])
    problems: list[str] = []
    rows = _rows(spec, data, problems)
    if rows != spec.rows:
        problems.append(f"{rows} rows, expected {spec.rows}")
    bad = NON_FINITE.search(data)
    if bad:
        problems.append(f"non-finite value {bad.group().decode()!r} at byte {bad.start()}")
    digest = hashlib.sha256(data).hexdigest()
    if expected is not None:
        if digest != expected["sha256"]:
            problems.append(f"sha256 {digest} != reference {expected['sha256']}")
        if rows != expected["rows"]:
            problems.append(f"{rows} rows != reference {expected['rows']}")
    return Checked(name, digest, rows, len(data), problems)
